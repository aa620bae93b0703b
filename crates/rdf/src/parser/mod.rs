//! The RDF reader: [`turtle_lite`], a pragmatic Turtle subset with
//! `@prefix` declarations, prefixed names, the `a` keyword for `rdf:type`,
//! and `;`/`,` predicate/object list abbreviations. Every N-Triples
//! document the workspace writes is also a Turtle-lite document, so the
//! one parser reads both.

pub mod turtle_lite;

pub use turtle_lite::{parse_turtle, parse_turtle_into};
