//! The unified request API: the [`QueryEngine`] trait and the
//! [`QueryRequest`] builder.
//!
//! Everything that answers queries — the static [`Database`], a published
//! [`Snapshot`](crate::Snapshot) and the live
//! [`ServingDatabase`](crate::ServingDatabase) — does so through `&self`,
//! so [`QueryEngine`] is the one surface harness code (the CLI shell, the
//! `exp_*` binaries, the cross-strategy completeness tests) is generic
//! over, and any engine can be shared across threads by reference:
//!
//! ```
//! use rdfref_core::answer::{AnswerOptions, Database, Strategy};
//! use rdfref_core::engine::QueryEngine;
//! use rdfref_model::parser::parse_turtle;
//! use rdfref_query::parse_select;
//!
//! fn run<E: QueryEngine>(engine: &E, q: &rdfref_query::Cq) -> usize {
//!     engine
//!         .run_query(q, &Strategy::RefGCov, &AnswerOptions::default())
//!         .unwrap()
//!         .len()
//! }
//!
//! let mut graph = parse_turtle(r#"
//!     @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
//!     @prefix ex: <http://example.org/> .
//!     ex:Book rdfs:subClassOf ex:Publication .
//!     ex:doi1 a ex:Book .
//! "#).unwrap();
//! let q = parse_select(
//!     "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Publication }",
//!     graph.dictionary_mut(),
//! ).unwrap();
//! let db = Database::builder().build(graph.clone());
//! assert_eq!(run(&db, &q), 1);
//! let serving = Database::builder().build_serving(graph);
//! assert_eq!(run(&serving, &q), 1);
//! assert_eq!(run(&*serving.snapshot(), &q), 1);
//! ```
//!
//! For application code the ergonomic entry point is the builder:
//!
//! ```ignore
//! let answer = db
//!     .query(&cq)
//!     .strategy(Strategy::RefGCov)
//!     .row_budget(1_000_000)
//!     .parallelism(Parallelism::morsels())
//!     .collect_metrics(&registry)
//!     .run()?;
//! ```

use crate::answer::{AnswerOptions, Database, QueryAnswer, Strategy};
use crate::error::Result;
use crate::reformulate::ucq::ReformulationLimits;
use rdfref_obs::{MetricsRegistry, Obs};
use rdfref_query::Cq;
use rdfref_storage::{JoinAlgorithm, Parallelism};
use rdfref_sync::Arc;

/// Anything that can answer a BGP query with a [`Strategy`].
///
/// Implemented by [`Database`], [`Snapshot`](crate::Snapshot) and
/// [`ServingDatabase`](crate::ServingDatabase), and by `&E` for any engine
/// `E` — which is what lets `Arc<Database>` be queried from many threads
/// at once and what [`QueryRequest`] holds.
pub trait QueryEngine {
    /// Answer `cq` with `strategy` under `opts`.
    fn run_query(&self, cq: &Cq, strategy: &Strategy, opts: &AnswerOptions) -> Result<QueryAnswer>;

    /// Start a request for `cq` against this engine (builder style).
    fn query<'q>(&self, cq: &'q Cq) -> QueryRequest<'q, &Self>
    where
        Self: Sized,
    {
        QueryRequest::new(self, cq)
    }
}

impl QueryEngine for Database {
    fn run_query(&self, cq: &Cq, strategy: &Strategy, opts: &AnswerOptions) -> Result<QueryAnswer> {
        Database::run_query(self, cq, strategy, opts)
    }
}

impl<E: QueryEngine> QueryEngine for &E {
    fn run_query(&self, cq: &Cq, strategy: &Strategy, opts: &AnswerOptions) -> Result<QueryAnswer> {
        (**self).run_query(cq, strategy, opts)
    }
}

/// A fluent, single-use request against a [`QueryEngine`].
///
/// Build with [`Database::query`] (or the same method on a snapshot or
/// serving database — [`QueryEngine::query`] generically); finish with
/// [`QueryRequest::run`]. Defaults:
/// `Strategy::RefGCov` (the paper's recommended strategy) and
/// [`AnswerOptions::default`].
#[must_use = "a QueryRequest does nothing until .run()"]
#[derive(Debug)]
pub struct QueryRequest<'q, E> {
    engine: E,
    cq: &'q Cq,
    strategy: Strategy,
    opts: AnswerOptions,
}

impl<'q, E: QueryEngine> QueryRequest<'q, E> {
    /// Start a request with the default strategy and
    /// [`AnswerOptions::default`].
    pub fn new(engine: E, cq: &'q Cq) -> Self {
        QueryRequest {
            engine,
            cq,
            strategy: Strategy::RefGCov,
            opts: AnswerOptions::default(),
        }
    }

    /// Select the answering strategy (default: `RefGCov`).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Replace the whole option block at once.
    pub fn options(mut self, opts: AnswerOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Abort evaluation when an intermediate relation exceeds `rows`.
    pub fn row_budget(mut self, rows: usize) -> Self {
        self.opts.row_budget = Some(rows);
        self
    }

    /// Set the intra-query parallelism policy: `Parallelism::Off` or
    /// `Parallelism::Morsels { size }` (scans and bind-joins split into
    /// fixed-size morsels claimed by a self-scheduling worker pool).
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.opts.parallelism = parallelism;
        self
    }

    /// Set the physical join algorithm for CQ bodies:
    /// `JoinAlgorithm::BindJoin` (left-deep chains, the default),
    /// `JoinAlgorithm::Wcoj` (leapfrog triejoin over the permutation
    /// indexes) or `JoinAlgorithm::Auto` (cost-model choice per CQ).
    pub fn join_algorithm(mut self, algorithm: JoinAlgorithm) -> Self {
        self.opts.join_algorithm = algorithm;
        self
    }

    /// Set the reformulation size limits.
    pub fn limits(mut self, limits: ReformulationLimits) -> Self {
        self.opts.limits = limits;
        self
    }

    /// Enable or disable the plan cache for this request.
    pub fn use_cache(mut self, on: bool) -> Self {
        self.opts.use_cache = on;
        self
    }

    /// Record spans, counters and histograms for this request into
    /// `registry` (see [`rdfref_obs`]).
    pub fn collect_metrics(mut self, registry: &Arc<MetricsRegistry>) -> Self {
        let recorder: Arc<dyn rdfref_obs::Recorder> = Arc::clone(registry) as _;
        self.opts.obs = Obs::collecting(recorder);
        self
    }

    /// Install an arbitrary per-request observability sink.
    pub fn observe(mut self, obs: Obs) -> Self {
        self.opts.obs = obs;
        self
    }

    /// Execute the request.
    pub fn run(self) -> Result<QueryAnswer> {
        self.engine.run_query(self.cq, &self.strategy, &self.opts)
    }
}

impl Database {
    /// Start a request for `cq` (builder style); see [`QueryRequest`].
    ///
    /// Takes `&self`: a plain database answers without mutation, so shared
    /// handles (`&Database`, `Arc<Database>`) can build requests directly.
    pub fn query<'q>(&self, cq: &'q Cq) -> QueryRequest<'q, &Database> {
        QueryRequest::new(self, cq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfref_model::parser::parse_turtle;
    use rdfref_query::parse_select;

    const DOC: &str = r#"
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:Book rdfs:subClassOf ex:Publication .
ex:writtenBy rdfs:domain ex:Book .
ex:doi1 a ex:Book .
ex:doi2 ex:writtenBy ex:someone .
"#;

    fn graph_and_query() -> (rdfref_model::Graph, Cq) {
        let mut g = parse_turtle(DOC).unwrap();
        let q = parse_select(
            "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Publication }",
            g.dictionary_mut(),
        )
        .unwrap();
        (g, q)
    }

    fn setup() -> (Database, Cq) {
        let (g, q) = graph_and_query();
        (Database::builder().build(g), q)
    }

    #[test]
    fn builder_defaults_to_gcov() {
        let (db, q) = setup();
        let a = db.query(&q).run().unwrap();
        assert_eq!(a.explain.strategy, "Ref/GCov");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn builder_sets_every_knob() {
        let (db, q) = setup();
        let registry = Arc::new(MetricsRegistry::default());
        let a = db
            .query(&q)
            .strategy(Strategy::RefUcq)
            .row_budget(1_000_000)
            .parallelism(Parallelism::morsels())
            .limits(ReformulationLimits::default())
            .use_cache(false)
            .collect_metrics(&registry)
            .run()
            .unwrap();
        assert_eq!(a.explain.strategy, "Ref/UCQ");
        assert_eq!(a.len(), 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("answer.calls"), 1);
        assert!(snap.span_count("answer") == 1);
    }

    #[test]
    fn generic_harness_runs_every_engine() {
        fn harness<E: QueryEngine>(engine: &E, cq: &Cq) -> usize {
            engine
                .run_query(cq, &Strategy::Saturation, &AnswerOptions::default())
                .unwrap()
                .len()
        }
        let (g, q) = graph_and_query();
        let db = Database::builder().build(g.clone());
        assert_eq!(harness(&db, &q), 2);
        assert_eq!(harness(&&db, &q), 2, "&Database is an engine too");
        let serving = Database::builder().build_serving(g);
        assert_eq!(harness(&serving, &q), 2);
        assert_eq!(harness(&*serving.snapshot(), &q), 2);
        // The trait's own request builder agrees with the inherent ones.
        let a = QueryEngine::query(&serving, &q)
            .strategy(Strategy::Saturation)
            .run()
            .unwrap();
        let b = serving.query(&q).strategy(Strategy::RefUcq).run().unwrap();
        assert_eq!(a.rows(), b.rows());
    }

    #[test]
    fn builder_and_run_query_agree() {
        let (db, q) = setup();
        let via_builder = db.query(&q).strategy(Strategy::RefScq).run().unwrap();
        let via_method = db
            .run_query(&q, &Strategy::RefScq, &AnswerOptions::default())
            .unwrap();
        assert_eq!(via_builder.rows(), via_method.rows());
    }
}
