//! # rdfref-storage — an RDBMS-style triple store substrate
//!
//! The demonstrated system evaluates reformulated queries "through
//! performant RDBMSs". This crate is the stand-in engine (see the
//! substitution table in `DESIGN.md`): a dictionary-encoded triple table
//! with sorted permutation indexes, statistics, a materializing executor for
//! CQ/UCQ/JUCQ plans, and the database-textbook cost model that drives the
//! paper's cost-based cover selection.
//!
//! * [`store::Store`] — immutable snapshot of a graph's triples with three
//!   sorted permutation indexes (SPO, POS, OSP) answering any triple-pattern
//!   shape with binary-search ranges, through the one per-atom access path
//!   that scans, bind joins and the leapfrog share;
//! * [`stats::Stats`] — per-property and per-class cardinalities, distinct
//!   counts and value distributions (the demo's "dataset statistics"
//!   screen, experiment E7);
//! * [`relation::Relation`] — a flat, row-major materialized relation with
//!   named columns, the unit of data flow between operators;
//! * [`exec`] — operators: pattern scan, hash join, union-distinct,
//!   projection; plus greedy join ordering for CQ bodies;
//! * [`evaluator`] — entry points `eval_cq` / `eval_ucq` / `eval_jucq`, with
//!   per-operator row metrics ([`exec::ExecMetrics`]) so experiments can
//!   report intermediate-result sizes exactly as Example 1 of the paper
//!   does;
//! * [`cost`] — cardinality estimation + cost formulas for CQs, UCQs and
//!   JUCQs (the function `c` of §4 of the paper);
//! * [`wcoj`] — a worst-case-optimal leapfrog-triejoin executor over the
//!   same permutation indexes, selected per CQ by the
//!   [`evaluator::JoinAlgorithm`] policy.

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

mod access;
pub mod cost;
pub mod error;
pub mod evaluator;
pub mod exec;
mod morsel;
pub mod relation;
pub mod stats;
pub mod store;
pub mod wcoj;

pub use cost::{CostEstimate, CostModel, JoinChoice};
pub use error::{Result, StorageError};
pub use evaluator::{
    eval_cq, eval_jucq, eval_ucq, JoinAlgorithm, Parallelism, DEFAULT_MORSEL_SIZE,
};
pub use exec::ExecMetrics;
pub use relation::Relation;
pub use stats::{Stats, StatsMaintainer};
pub use store::{Bound, Pattern, Store};
pub use wcoj::{physical_choice, PhysicalChoice, WcojPlan};
