//! The unified engine builder — the single construction surface for both
//! engines.
//!
//! [`EngineBuilder`] is one `#[non_exhaustive]` builder carrying the
//! dictionary encoding, plan-cache capacity and observability sink, with
//! one terminal per side:
//! [`EngineBuilder::build`] for the static read side ([`Database`]) and
//! [`EngineBuilder::build_serving`] for the maintained, concurrently
//! servable write side ([`ServingDatabase`]).
//!
//! ```
//! use rdfref_core::{Database, Strategy};
//! use rdfref_model::parser::parse_turtle;
//! use rdfref_query::parse_select;
//!
//! let mut g = parse_turtle(
//!     "@prefix ex: <http://example.org/> .\n\
//!      @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
//!      ex:Book rdfs:subClassOf ex:Publication .\n\
//!      ex:doi1 a ex:Book .",
//! )
//! .unwrap();
//! let q = parse_select(
//!     "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Publication }",
//!     g.dictionary_mut(),
//! )
//! .unwrap();
//! let db = Database::builder().build(g);
//! assert_eq!(db.query(&q).run().unwrap().len(), 1);
//! ```
//!
//! Knobs compose freely with both terminals. Parallelism and the join
//! algorithm are per request ([`crate::engine::QueryRequest`]).

use crate::answer::Database;
use crate::cache::PlanCache;
use crate::serving::ServingDatabase;
use rdfref_model::{DictEncoding, Graph};
use rdfref_obs::Obs;
use rdfref_sync::Arc;

/// Configures and constructs an engine. Obtain one via
/// [`Database::builder`]; finish with [`EngineBuilder::build`] (static,
/// in-memory) or [`EngineBuilder::build_serving`] (incrementally maintained,
/// snapshot-isolated serving).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EngineBuilder {
    pub(crate) encoding: DictEncoding,
    pub(crate) plan_cache_capacity: usize,
    pub(crate) obs: Obs,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            encoding: DictEncoding::Classic,
            plan_cache_capacity: 1024,
            obs: Obs::disabled(),
        }
    }
}

impl EngineBuilder {
    /// A builder with the defaults: classic encoding, a 1024-plan cache,
    /// observability disabled.
    pub fn new() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Dictionary encoding for the store. [`DictEncoding::Interval`]
    /// clusters each class/property hierarchy's ids into contiguous ranges
    /// so covered reformulations execute as single range scans.
    pub fn encoding(mut self, encoding: DictEncoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// Plan-cache capacity (total cached plans across all cache shards).
    pub fn plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.plan_cache_capacity = capacity;
        self
    }

    /// Engine-wide observability sink.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    pub(crate) fn plan_cache(&self) -> Arc<PlanCache> {
        Arc::new(PlanCache::new(self.plan_cache_capacity))
    }

    /// Build an in-memory [`Database`] over `graph`.
    pub fn build(self, graph: Graph) -> Database {
        let cache = self.plan_cache();
        Database::build(graph, cache, self.encoding).with_obs(self.obs)
    }

    /// Build a [`ServingDatabase`]: the saturation is maintained
    /// incrementally by a single background writer, readers take immutable
    /// snapshots.
    pub fn build_serving(self, graph: Graph) -> ServingDatabase {
        ServingDatabase::from_builder(graph, &self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Strategy;
    use rdfref_model::parser::parse_turtle;
    use rdfref_query::parse_select;

    const DOC: &str = r#"
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:Book rdfs:subClassOf ex:Publication .
ex:doi1 a ex:Book .
ex:doi2 a ex:Publication .
"#;

    const QUERY: &str = r#"PREFIX ex: <http://example.org/>
        SELECT ?x WHERE { ?x a ex:Publication }"#;

    /// Every knob × both terminals constructs a working engine that answers
    /// the schema query correctly.
    #[test]
    fn builder_terminals_all_answer_identically() {
        let mut g = parse_turtle(DOC).unwrap();
        let q = parse_select(QUERY, g.dictionary_mut()).unwrap();

        let plain = Database::builder().build(g.clone());
        let reference = plain
            .run_query(&q, &Strategy::RefGCov, &Default::default())
            .unwrap()
            .rows()
            .to_vec();
        assert_eq!(reference.len(), 2);

        let configured = Database::builder()
            .encoding(DictEncoding::Interval)
            .plan_cache_capacity(16);
        let got = configured.clone().build(g.clone());
        assert_eq!(got.query(&q).run().unwrap().rows(), &reference[..]);
        let serving = configured.build_serving(g.clone());
        assert_eq!(serving.query(&q).run().unwrap().rows(), &reference[..]);

        let serving = Database::builder().build_serving(g);
        let snap = serving.snapshot();
        assert_eq!(snap.query(&q).run().unwrap().rows(), &reference[..]);
    }

    /// Builder equivalence with the removed constructor zoo: every old
    /// construction is expressible (and behaves identically) through the
    /// single builder surface.
    #[test]
    fn builder_covers_the_old_constructors() {
        let mut g = parse_turtle(DOC).unwrap();
        let q = parse_select(QUERY, g.dictionary_mut()).unwrap();
        // Old `Database::new(g)` ≡ builder defaults.
        let plain = Database::builder().build(g.clone());
        // Old `Database::with_encoding(g, Interval)` ≡ `.encoding(...)`.
        let interval = Database::builder()
            .encoding(DictEncoding::Interval)
            .build(g.clone());
        // Old `ServingDatabase::with_encoding(g, Interval)` ≡ serving terminal.
        let serving = Database::builder()
            .encoding(DictEncoding::Interval)
            .build_serving(g);
        let reference = plain.query(&q).run().unwrap().rows().to_vec();
        assert_eq!(interval.query(&q).run().unwrap().rows(), &reference[..]);
        let snap = serving.snapshot();
        assert_eq!(snap.query(&q).run().unwrap().rows(), &reference[..]);
    }
}
