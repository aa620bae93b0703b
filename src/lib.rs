//! # rdfref — reformulation-based query answering in RDF
//!
//! A from-scratch Rust implementation of the system demonstrated in
//! *"Reformulation-based query answering in RDF: alternatives and
//! performance"* (Bursztyn, Goasdoué, Manolescu — VLDB 2015), built on the
//! cost-based JUCQ reformulation framework of their EDBT 2015 paper.
//!
//! ## What's inside
//!
//! | crate | role |
//! |-------|------|
//! | [`model`] | RDF terms, dictionary encoding, graphs, RDFS schema, N-Triples/Turtle-lite parsing |
//! | [`query`] | BGP/CQ queries, UCQ/SCQ/JUCQ algebra, query covers, SPARQL-subset parser |
//! | [`storage`] | RDBMS-style triple store: indexes, statistics, executor, textbook cost model |
//! | [`reasoning`] | Saturation (Sat): one-step RDFS saturation against the closed schema, incremental maintenance |
//! | [`datalog`] | The Dat encoding: the RDFS closure rules as two-atom CQs over `tc`; `core` evaluates them in semi-naive rounds on the store |
//! | [`core`] | **The paper's contribution**: 13-rule CQ→UCQ reformulation, SCQ, cover-induced JUCQs, greedy cost-based cover selection (GCov), the answering facade |
//! | [`datagen`] | LUBM-like / DBLP-like / INSEE-like / IGN-like synthetic workloads |
//!
//! ## Quickstart
//!
//! ```
//! use rdfref::prelude::*;
//!
//! // An RDF graph mixing data and RDFS constraints (the paper's Figure 2).
//! let mut graph = rdfref::model::parser::parse_turtle(r#"
//!     @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
//!     @prefix ex: <http://example.org/> .
//!     ex:Book rdfs:subClassOf ex:Publication .
//!     ex:writtenBy rdfs:subPropertyOf ex:hasAuthor .
//!     ex:writtenBy rdfs:domain ex:Book .
//!     ex:writtenBy rdfs:range ex:Person .
//!     ex:doi1 a ex:Book ;
//!             ex:writtenBy _:b1 ;
//!             ex:hasTitle "El Aleph" ;
//!             ex:publishedIn 1949 .
//!     _:b1 ex:hasName "J. L. Borges" .
//! "#).unwrap();
//!
//! // The paper's §3 query: names of authors of things connected to 1949.
//! let q = parse_select(r#"
//!     PREFIX ex: <http://example.org/>
//!     SELECT ?name WHERE {
//!         ?x ex:hasAuthor ?a .
//!         ?a ex:hasName ?name .
//!         ?x ?p 1949
//!     }"#, graph.dictionary_mut()).unwrap();
//!
//! let db = Database::builder().build(graph);
//! // Reformulation (cost-based cover) finds the answer WITHOUT saturating:
//! let ans = db.query(&q).strategy(Strategy::RefGCov).run().unwrap();
//! assert_eq!(ans.len(), 1);
//! // …and agrees with saturation-based answering:
//! let sat = db.query(&q).strategy(Strategy::Saturation).run().unwrap();
//! assert_eq!(ans.rows(), sat.rows());
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

pub use rdfref_core as core;
pub use rdfref_datagen as datagen;
pub use rdfref_datalog as datalog;
pub use rdfref_model as model;
pub use rdfref_query as query;
pub use rdfref_reasoning as reasoning;
pub use rdfref_storage as storage;

/// The most commonly used items, re-exported.
pub mod prelude {
    pub use rdfref_core::answer::{AnswerOptions, Database, QueryAnswer, Strategy};
    pub use rdfref_core::cache::{CacheCounters, PlanCache};
    pub use rdfref_core::engine::{QueryEngine, QueryRequest};
    pub use rdfref_core::gcov::{gcov, GcovOptions};
    pub use rdfref_core::incomplete::IncompletenessProfile;
    pub use rdfref_core::reformulate::{
        reformulate_jucq, reformulate_scq, reformulate_ucq, reformulate_ucq_raw,
        ReformulationLimits, RewriteContext,
    };
    pub use rdfref_core::serving::{
        BatchReport, BatchTicket, ServingDatabase, Snapshot, UpdateBatch,
    };
    pub use rdfref_core::SnapshotInfo;
    pub use rdfref_core::{EngineBuilder, MetricsRegistry, Obs};
    pub use rdfref_model::{Dictionary, Graph, Schema, Term, TermId, Triple};
    pub use rdfref_query::{parse_select, Cover, Cq, Var};
    pub use rdfref_reasoning::{saturate, IncrementalReasoner};
    pub use rdfref_storage::JoinAlgorithm;
}
