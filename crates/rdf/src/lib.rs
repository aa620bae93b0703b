//! # rdfref-model — the RDF data model substrate
//!
//! This crate implements the RDF data model used throughout the `rdfref`
//! workspace, following the "database (DB) fragment of RDF" of
//! Goasdoué, Manolescu & Roatiş (EDBT 2013), which the demonstrated system of
//! Bursztyn, Goasdoué & Manolescu (VLDB 2015) builds on:
//!
//! * [`term::Term`] — URIs, literals (plain, typed, language-tagged) and
//!   blank nodes, the values `Val(G)` of an RDF graph;
//! * [`dictionary::Dictionary`] — interning of terms into dense [`TermId`]s,
//!   so that the storage and reasoning layers work on `u32` triples;
//! * [`triple::Triple`] / [`triple::EncodedTriple`] — well-formed RDF triples;
//! * [`graph::Graph`] — an RDF graph: its dictionary plus one strictly
//!   ascending run of encoded triples, edited in batches by
//!   [`graph::merge_sorted`] (the merge the store's indexes share);
//! * [`schema::Schema`] — the four RDFS constraints (subclass, subproperty,
//!   domain, range) and their closure, the input of both saturation and
//!   reformulation;
//! * [`parser`] — a pragmatic Turtle subset ("turtle-lite": prefixes, `a`,
//!   `;`/`,` abbreviations) that also reads N-Triples;
//! * [`writer`] — serialization back to N-Triples and Turtle.
//!
//! The model deliberately supports *any* triple allowed by the RDF
//! specification (the DB fragment places no restriction on graphs), including
//! triples about the schema itself.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro
)]

pub mod dictionary;
pub mod error;
pub mod fxhash;
pub mod graph;
pub mod intervals;
pub mod parser;
pub mod schema;
pub mod term;
pub mod triple;
pub mod vocab;
pub mod writer;

pub use dictionary::{Dictionary, TermId};
pub use error::{ModelError, Result};
pub use graph::{merge_sorted, sorted_run, Graph};
pub use intervals::{DictEncoding, HierarchyEncoder, IdRange};
pub use schema::{ConstraintKind, Schema, SchemaClosure};
pub use term::Term;
pub use triple::{EncodedTriple, Triple};
