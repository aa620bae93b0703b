//! # rdfref-query — conjunctive queries over RDF and the JUCQ algebra
//!
//! The query model of the paper:
//!
//! * [`ast::Cq`] — a *basic graph pattern* (BGP) query, a.k.a. conjunctive
//!   query, `q(x̄) :- t1, …, tα`, whose triple patterns may have variables in
//!   any position (including class and property positions);
//! * [`ast::Ucq`] — a union of CQs, the target language of the classic
//!   CQ-to-UCQ reformulation;
//! * [`ast::Jucq`] — a *join of UCQs*, the enlarged reformulation language of
//!   the demonstrated system; the SCQ (semi-conjunctive query) of Thomazo
//!   [IJCAI'13] is the special case with single-atom fragments;
//! * [`cover::Cover`] — a query cover: a set of (possibly overlapping) atom
//!   groups, each of which becomes one JUCQ fragment;
//! * [`parser`] — a SPARQL `SELECT ... WHERE { BGP }` subset parser;
//! * [`canonical`] — canonical forms for syntactic CQ deduplication inside
//!   reformulation fixpoints.
//!
//! Constants inside patterns are dictionary-encoded [`rdfref_model::TermId`]s
//! so queries plug directly into the storage layer; parsing therefore interns
//! into the graph's dictionary.

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

pub mod ast;
pub mod canonical;
pub mod containment;
pub mod cover;
pub mod display;
pub mod error;
pub mod parser;
pub mod var;
pub mod varorder;

pub use ast::{Atom, Cq, Jucq, PTerm, Ucq};
pub use cover::Cover;
pub use error::{QueryError, Result};
pub use parser::parse_select;
pub use var::Var;
