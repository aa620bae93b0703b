//! # rdfref-datagen — synthetic RDF workloads
//!
//! The demo runs "on real and synthetic RDF data sets, such as French
//! statistical (INSEE) and geographical (IGN) data, DBLP, and LUBM" (§5).
//! The real datasets are not redistributable; this crate generates synthetic
//! stand-ins with the same *shape* (see the substitution table in
//! `DESIGN.md`):
//!
//! * [`lubm`] — a parameterized LUBM-like university benchmark: the
//!   univ-bench class/property hierarchy (leaf-typed instances, so RDFS
//!   reasoning is required for completeness) and the degree/membership
//!   properties that the paper's Example 1 exercises;
//! * [`biblio`] — DBLP-like bibliographic data: publication type hierarchy,
//!   Zipf-skewed authorship;
//! * [`geo`] — IGN-like geographic data: a *deep* administrative-area
//!   subclass chain (reformulation depth stressor);
//! * [`insee`] — INSEE-like statistical data: *wide* flat code-list
//!   hierarchies (reformulation breadth stressor);
//! * [`onto_sweep`] — fully parameterized synthetic ontologies
//!   (depth × fan-out × property count) for the constraint-impact sweeps of
//!   experiment E4;
//! * [`queries`] — the query workload: the paper's Example 1 plus a mix of
//!   LUBM-style queries used by experiments E2/E3/E5/E8;
//! * [`wcoj`] — a wedge-heavy, triangle-light cyclic-join stressor for the
//!   worst-case-optimal join experiment E12.
//!
//! All generators are deterministic given their seed.

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

pub mod biblio;
pub mod builder;
pub mod error;
pub mod geo;
pub mod insee;
pub mod lubm;
pub mod onto_sweep;
pub mod queries;
pub mod wcoj;

pub use builder::GraphBuilder;
pub use error::{DatagenError, Result};
pub use lubm::{LubmConfig, LubmDataset};
