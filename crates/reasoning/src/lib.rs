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
//! * [`mod@saturate`] — `G∞` as one derivation step against the closed
//!   schema, with a re-closing fixpoint only for schemas that constrain the
//!   RDFS vocabulary itself;
//! * [`incremental`] — maintenance after updates, the cost the paper's
//!   introduction holds against Sat: one-step insertion and a one-step
//!   support check on deletion.
//!
//! The workspace-wide invariant `q(G∞) = qref(G)` is tested from the core
//! crate; here, unit tests establish idempotence (`(G∞)∞ = G∞`),
//! monotonicity, and incremental ≡ from-scratch, and the root property
//! tests check both against a raw-rule oracle.

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
pub use saturate::{saturate, saturate_in_place, saturate_in_place_obs};
