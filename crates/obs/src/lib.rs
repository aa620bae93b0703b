//! `rdfref-obs` — zero-dependency observability for the answering pipeline.
//!
//! The paper's argument is cost-based: Ref/GCov picks a reformulation by
//! *predicted* cost, so comparing strategies honestly requires seeing where
//! time actually goes — reformulation, cover search, per-operator evaluation,
//! cache behaviour. This crate provides that without pulling any dependency
//! onto the hot path:
//!
//! * [`Recorder`] — the sink trait (spans, counters, gauges, histograms).
//! * [`Obs`] — a cloneable handle holding `Option<Arc<dyn Recorder>>`.
//!   Disabled (the default) every instrumentation call is a single branch
//!   on a `None`; no clock reads, no locks.
//! * [`MetricsRegistry`] — the standard recorder: thread-safe aggregation
//!   into counters, last-write-wins gauges, span statistics and log₂-bucket
//!   histograms, exported as Prometheus text
//!   ([`MetricsRegistry::to_prometheus_text`]) or JSON
//!   ([`MetricsRegistry::to_json`]).
//! * [`json`] — a minimal JSON value/parser used to round-trip exported
//!   profiles in tests and to read the benchmark's result files.
//!
//! Span names are dotted paths (`answer.plan.gcov`); consumers such as the
//! CLI `EXPLAIN ANALYZE` command rebuild the stage tree from the dots.
//!
//! ```
//! use rdfref_obs::{MetricsRegistry, Obs};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(MetricsRegistry::new());
//! let obs = Obs::collecting(registry.clone());
//! {
//!     let _guard = obs.span("answer.plan");
//!     obs.add("plan_cache.miss", 1);
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("plan_cache.miss"), 1);
//! assert_eq!(snap.span_count("answer.plan"), 1);
//! ```

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

pub mod export;
pub mod json;
mod recorder;
mod registry;

pub use recorder::{Obs, Recorder, SpanGuard, Stopwatch};
pub use registry::{HistogramSnapshot, MetricsRegistry, Snapshot, SpanStats};

/// Open a span on an [`Obs`] handle, bound to the enclosing scope.
///
/// ```
/// use rdfref_obs::{span, Obs};
/// let obs = Obs::disabled();
/// span!(obs, "gcov.search");
/// // … instrumented work; the span closes when the scope ends …
/// ```
#[macro_export]
macro_rules! span {
    ($obs:expr, $path:expr) => {
        let _rdfref_obs_span_guard = $obs.span($path);
    };
}
