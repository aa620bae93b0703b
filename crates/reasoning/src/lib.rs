//! # rdfref-reasoning — saturation-based query answering (Sat)
//!
//! The baseline technique of the paper: materialize every implicit triple so
//! queries can be evaluated directly on the saturated graph `G∞` (§1, §3).
//!
//! * [`rules`] — the RDFS entailment rules of the DB fragment, split into
//!   schema-level rules (transitivity of `subClassOf`/`subPropertyOf`,
//!   propagation of `domain`/`range` along both hierarchies — computed via
//!   [`rdfref_model::SchemaClosure`]) and data-level rules (rdfs2, rdfs3,
//!   rdfs7, rdfs9);
//! * [`mod@saturate`] — fixpoint computation: the production semi-naive
//!   (delta-driven) engine and a naive reference implementation (ablation
//!   A5);
//! * [`incremental`] — maintenance after updates, the cost the paper's
//!   introduction holds against Sat: delta insertion and DRed
//!   (delete-and-rederive) deletion.
//!
//! The workspace-wide invariant `q(G∞) = qref(G)` is tested from the core
//! crate; here, unit and property tests establish idempotence
//! (`(G∞)∞ = G∞`), monotonicity, and incremental ≡ from-scratch.

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

pub mod incremental;
pub mod rules;
pub mod saturate;

pub use incremental::{IncrementalReasoner, MaintenanceDelta};
pub use saturate::{naive_saturate, saturate, saturate_in_place, saturate_in_place_obs};
