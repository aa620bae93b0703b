//! `xtask` — project-specific static analysis for the rdfref workspace.
//!
//! Run as `cargo xtask lint` (alias in `.cargo/config.toml`). The pass
//! enforces the panic-freedom and invariant-discipline policy documented in
//! DESIGN.md: library code must surface failures through the crate error
//! enums, never abort, and a few project-specific footguns (lock guards
//! held across `Database::answer`, heavy clones in loops) are caught
//! structurally. On top of the token lints, an item parser ([`items`]) and
//! crate-wide item graph ([`graph`]) drive the semantic lints
//! (L007 lock-order cycles, L008 cross-crate error discipline, L009 span
//! hygiene, L010 blocking-in-worker, L011 forbid(unsafe_code)), and a
//! dataflow layer — per-fn CFGs ([`mod@cfg`]) plus a fixpoint engine
//! ([`dataflow`]) — drives the flow lints ([`flowlints`]: L012 id-space
//! taint, L013 atomics publication protocol, L014 epoch-pinned cache
//! discipline), with SARIF
//! 2.1.0 export ([`sarif`]) and mechanical fixes ([`fix`]). Built with a
//! small hand-rolled lexer so it has zero dependencies and works in the
//! offline build container.

pub mod cfg;
pub mod config;
pub mod dataflow;
pub mod explain;
pub mod fix;
pub mod flowlints;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod lints;
pub mod runner;
pub mod sarif;
pub mod semlints;

pub use cfg::{build_cfg, Cfg};
pub use config::{parse_config, render_config, AllowEntry, Config};
pub use dataflow::{build_cfgs, compute_carriers, solve, Analysis, TaintAnalysis};
pub use explain::explain;
pub use fix::apply_fixes;
pub use flowlints::flow_lints;
pub use graph::{ItemGraph, ParsedFile};
pub use items::{parse_items, Item, ItemKind};
pub use lints::{lint_file, lint_tokens, FileContext, Violation};
pub use runner::{
    changed_files, collect_files, format_report, lint_sources, regenerate_allowlist, run_lints,
    run_lints_filtered, scan_roots, LintReport,
};
pub use sarif::to_sarif;
pub use semlints::semantic_lints;
