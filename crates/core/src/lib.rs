//! # rdfref-core — reformulation-based query answering in RDF
//!
//! The primary contribution of Bursztyn, Goasdoué & Manolescu (VLDB 2015
//! demo; EDBT 2015): answering BGP queries over RDF graphs under RDFS
//! constraints *without* saturating the data, by reformulating the query —
//! and doing so **cost-effectively**, by searching a space of *joins of
//! unions of conjunctive queries* (JUCQs) induced by query covers.
//!
//! * [`reformulate`] — the 13-rule CQ-to-UCQ backward-chaining algorithm of
//!   Goasdoué, Manolescu & Roatiş (EDBT'13) over the DB fragment of RDF
//!   ([`reformulate::reformulate_ucq`]); the SCQ reformulation of Thomazo
//!   (IJCAI'13) and general cover-induced JUCQ reformulations
//!   ([`reformulate::reformulate_jucq`]);
//! * [`mod@gcov`] — the greedy cost-based cover search **GCov** (§4);
//! * [`incomplete`] — models of the incomplete Ref strategies of deployed
//!   systems (Virtuoso, AllegroGraph), which ignore some RDFS constraints;
//! * [`answer`] — the answering facade: a prepared [`answer::Database`] and
//!   the [`answer::Strategy`] enum covering Sat, all Ref variants, and Dat;
//! * [`cache`] — the shared plan cache: α-canonicalized keys, epoch-based
//!   invalidation (schema epoch for every plan, data epoch for cost-based
//!   GCov plans), sharded LRU safe under concurrent `answer` calls;
//! * [`explain`] — what the demo GUI shows: reformulation sizes, chosen and
//!   explored covers with estimated costs, intermediate cardinalities,
//!   wall-clock.
//!
//! The correctness contract, tested across the workspace:
//! `answer(q, G, S) = q(G∞)` for every strategy `S` except the deliberately
//! incomplete ones.
//!
//! ```
//! use rdfref_core::answer::{Database, Strategy};
//! use rdfref_model::parser::parse_turtle;
//! use rdfref_query::parse_select;
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
//! let db = Database::builder().build(graph);
//! let sat = db.query(&q).strategy(Strategy::Saturation).run().unwrap();
//! let gcv = db.query(&q).strategy(Strategy::RefGCov).run().unwrap();
//! assert_eq!(sat.rows(), gcv.rows());      // both find the implicit Publication
//! assert_eq!(sat.rows().len(), 1);
//! ```
//!
//! Observability: hand a [`rdfref_obs::MetricsRegistry`] to a request via
//! [`engine::QueryRequest::collect_metrics`] (or database-wide with
//! [`answer::Database::with_obs`]) and export with
//! [`rdfref_obs::MetricsRegistry::to_prometheus_text`] /
//! [`rdfref_obs::MetricsRegistry::to_json`].

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

pub mod answer;
pub mod builder;
pub mod cache;
mod dat;
pub mod engine;
pub mod error;
pub mod explain;
pub mod gcov;
pub mod incomplete;
pub mod reformulate;
pub mod serving;

pub use answer::{AnswerOptions, Database, QueryAnswer, Strategy};
pub use builder::EngineBuilder;
pub use cache::{CacheCounters, CacheKey, CachedPlan, PlanCache, StrategyTag};
pub use engine::{QueryEngine, QueryRequest};
pub use error::{CoreError, Result};
pub use explain::{Explain, PhysicalPlan, SnapshotInfo};
pub use gcov::{gcov, gcov_with_obs, GcovOptions, GcovResult};
pub use incomplete::IncompletenessProfile;
pub use rdfref_obs::{MetricsRegistry, Obs};
pub use rdfref_storage::{JoinAlgorithm, Parallelism, DEFAULT_MORSEL_SIZE};
pub use reformulate::{
    reformulate_jucq, reformulate_scq, reformulate_ucq, reformulate_ucq_raw, ReformulationLimits,
    RewriteContext,
};
pub use serving::{BatchReport, BatchTicket, ServingDatabase, Snapshot, UpdateBatch};
