//! # rdfref-datalog — the Dat query answering technique
//!
//! The demo includes "a simple encoding of the RDF data, constraints and
//! queries into Datalog programs to be evaluated by the LogicBlox engine.
//! This can be viewed as another answering technique **Dat**, an alternative
//! to Ref and Sat" (§5).
//!
//! This crate is the LogicBlox stand-in:
//!
//! * [`ast`] — positive Datalog: predicates, rules, programs;
//! * [`engine`] — a semi-naive bottom-up engine with per-argument indexes
//!   and watermark-based deltas;
//! * [`encode`] — the RDF → Datalog encoding: one EDB predicate
//!   `triple(s, p, o)`, an IDB predicate `tc(s, p, o)` closed under the
//!   RDFS rules of the DB fragment, and the input CQ translated to a rule
//!   over `tc`.
//!
//! The encoding makes Dat's cost structure visible: the engine derives the
//! full closure of the *reachable* facts at query time — it pays a
//! saturation-like cost per query, without Sat's storage or maintenance.

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
pub mod encode;
pub mod engine;

pub use ast::{DatalogError, Pred, Program, Rule};
pub use encode::{answer_datalog, answer_datalog_obs, encode_graph, encode_query};
pub use engine::Engine;
