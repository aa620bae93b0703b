//! The query answering facade: one entry point, seven strategies.
//!
//! A [`Database`] is a prepared RDF graph: schema extracted and closed,
//! store and statistics built. [`Database::run_query`] then answers a BGP
//! query with any [`Strategy`]:
//!
//! | strategy | technique |
//! |----------|-----------|
//! | `Saturation` | **Sat**: evaluate on `G∞` (materialized lazily, cached) |
//! | `RefUcq` | **Ref** with the classic UCQ reformulation [EDBT'13] |
//! | `RefScq` | **Ref** with the SCQ reformulation [IJCAI'13] |
//! | `RefJucq(cover)` | **Ref** with a user-chosen cover (demo GUI) |
//! | `RefGCov` | **Ref** with the greedy cost-selected cover (the paper) |
//! | `RefIncomplete(profile)` | Virtuoso/AllegroGraph-style partial Ref |
//! | `Datalog` | **Dat**: the Datalog encoding evaluated bottom-up on the store |
//!
//! All complete strategies return identical answers (the workspace-wide
//! invariant); they differ — dramatically, on the paper's workloads — in
//! how they get there, which [`Explain`] exposes.

use crate::cache::{CacheKey, CachedPlan, PlanCache, StrategyTag};
use crate::error::{CoreError, Result};
use crate::explain::{CacheReport, Explain};
use crate::gcov::{gcov_with_obs, GcovOptions, GcovResult};
use crate::incomplete::IncompletenessProfile;
use crate::reformulate::jucq::FragmentCache;
use crate::reformulate::rules::{identity_encoder, RewriteContext};
use crate::reformulate::ucq::{reformulate_ucq, ReformulationLimits};
use rdfref_model::{DictEncoding, Graph, HierarchyEncoder, Schema, SchemaClosure, TermId};
use rdfref_obs::Obs;
use rdfref_query::ast::{Cq, Fragment, Jucq, PTerm, Substitution, Ucq};
use rdfref_query::canonical::{alpha_canonicalize, AlphaCanonical};
use rdfref_query::{Cover, Var};
use rdfref_reasoning::saturate_in_place_obs;
use rdfref_storage::evaluator::{head_names, Evaluator};
use rdfref_storage::{ExecMetrics, JoinAlgorithm, Parallelism, Relation, Stats, Store};
use rdfref_sync::{Arc, OnceLock};
use std::borrow::Cow;
use std::time::Instant;

/// A query answering strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// Sat: precompute `G∞`, evaluate directly.
    Saturation,
    /// Ref via the classic UCQ reformulation.
    RefUcq,
    /// Ref via the SCQ (per-atom) reformulation.
    RefScq,
    /// Ref via the JUCQ induced by a user-chosen cover.
    RefJucq(Cover),
    /// Ref via the greedy cost-based cover (GCov) — the paper's approach.
    RefGCov,
    /// Deliberately incomplete Ref (deployed-system model).
    RefIncomplete(IncompletenessProfile),
    /// Dat: the Datalog encoding evaluated bottom-up on the store. The RDFS
    /// closure of the explicit triples is derived at query time, in
    /// semi-naive rounds of the evaluator's joins; the query then runs over
    /// it once.
    Datalog,
}

impl Strategy {
    /// Short display name (used in experiment tables).
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Saturation => "Sat",
            Strategy::RefUcq => "Ref/UCQ",
            Strategy::RefScq => "Ref/SCQ",
            Strategy::RefJucq(_) => "Ref/JUCQ",
            Strategy::RefGCov => "Ref/GCov",
            Strategy::RefIncomplete(_) => "Ref/incomplete",
            Strategy::Datalog => "Dat",
        }
    }
}

/// Options shared by all strategies.
///
/// Non-exhaustive: construct via [`AnswerOptions::new`] (or `default()`)
/// and the `with_*` builder methods — or, better, use the request builder
/// ([`crate::engine::QueryRequest`]) which wraps these options entirely.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct AnswerOptions {
    /// Reformulation size limits.
    pub limits: ReformulationLimits,
    /// Abort evaluation when an intermediate relation exceeds this many rows.
    pub row_budget: Option<usize>,
    /// Intra-query parallelism policy: off, or morsel-driven scans and
    /// bind-joins (see [`Parallelism`]).
    pub parallelism: Parallelism,
    /// Physical join algorithm for CQ bodies: bind join, worst-case-optimal
    /// leapfrog triejoin, or cost-model choice (see [`JoinAlgorithm`]).
    pub join_algorithm: JoinAlgorithm,
    /// Reuse plans through the database's [`PlanCache`] (Ref strategies).
    /// On by default; disable to force fresh planning on every call.
    pub use_cache: bool,
    /// Per-request observability sink; when enabled it overrides the
    /// database-wide one for this request.
    pub obs: Obs,
}

impl Default for AnswerOptions {
    fn default() -> Self {
        AnswerOptions {
            limits: ReformulationLimits::default(),
            row_budget: None,
            parallelism: Parallelism::Off,
            join_algorithm: JoinAlgorithm::BindJoin,
            use_cache: true,
            obs: Obs::disabled(),
        }
    }
}

impl AnswerOptions {
    /// The default options (cache on, no budget, sequential unions).
    pub fn new() -> Self {
        AnswerOptions::default()
    }

    /// Set the reformulation size limits.
    pub fn with_limits(mut self, limits: ReformulationLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Set (or clear) the intermediate-result row budget.
    pub fn with_row_budget(mut self, budget: Option<usize>) -> Self {
        self.row_budget = budget;
        self
    }

    /// Set the intra-query parallelism policy.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Set the physical join algorithm policy.
    pub fn with_join_algorithm(mut self, algorithm: JoinAlgorithm) -> Self {
        self.join_algorithm = algorithm;
        self
    }

    /// Enable or disable the plan cache for this request.
    pub fn with_use_cache(mut self, on: bool) -> Self {
        self.use_cache = on;
        self
    }

    /// Install a per-request observability sink.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }
}

/// The answer to a query plus its explanation.
#[derive(Debug)]
pub struct QueryAnswer {
    /// The answer rows in base id space, sorted once at construction;
    /// afterwards only read.
    relation: Relation,
    /// `relation`'s rows as vectors (already in order), materialized on the
    /// first [`QueryAnswer::rows`] call and kept for the next.
    sorted: OnceLock<Vec<Vec<TermId>>>,
    /// How the answer was computed.
    pub explain: Explain,
}

impl Clone for QueryAnswer {
    fn clone(&self) -> QueryAnswer {
        QueryAnswer {
            relation: self.relation.clone(),
            // The clone recomputes its sorted view lazily; cloning the
            // `OnceLock` contents would be correct too, but a fresh lock
            // keeps `Clone` independent of whether `rows()` ran.
            sorted: OnceLock::new(),
            explain: self.explain.clone(),
        }
    }
}

impl QueryAnswer {
    /// Assemble an answer from a relation (a set, in base id space) and its
    /// explanation. The rows are sorted here, in place, unless they already
    /// are — leapfrog output and single-scan answers usually are.
    pub fn from_parts(mut relation: Relation, explain: Explain) -> QueryAnswer {
        if !relation.is_sorted() {
            relation.sort();
        }
        // Strictly ascending: no two neighbours equal, so the evaluator's
        // skipped dedups really were no-ops.
        #[cfg(feature = "strict-invariants")]
        assert!(
            (1..relation.len()).all(|i| relation.row(i - 1) < relation.row(i)),
            "an answer holds a duplicate row"
        );
        QueryAnswer {
            relation,
            sorted: OnceLock::new(),
            explain,
        }
    }

    /// The answer tuples, sorted (canonical for cross-strategy comparison).
    ///
    /// Built on the first call by copying the already sorted relation, and
    /// cached; repeated calls return the same slice.
    pub fn rows(&self) -> &[Vec<TermId>] {
        self.sorted.get_or_init(|| self.relation.to_rows())
    }

    /// The answer relation, rows sorted.
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// The answers decoded to terms through a dictionary (row-major, sorted).
    /// Terms are cloned straight from the sorted flat relation: one `Vec`
    /// for the answer and one per row, nothing else.
    pub fn decoded(&self, dict: &rdfref_model::Dictionary) -> Vec<Vec<rdfref_model::Term>> {
        self.relation
            .rows()
            .map(|row| row.iter().map(|id| dict.term(*id).clone()).collect())
            .collect()
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        self.relation.len()
    }

    /// True iff the answer is empty.
    pub fn is_empty(&self) -> bool {
        self.relation.is_empty()
    }
}

// Base ↔ store transport. Graphs, the reasoner and the dictionary speak
// base ids; stores, Dat's closure and the plans evaluated over them
// speak the encoder's. These helpers, `Database::{encode_cq, encode_ucq,
// decode}` and `HierarchyEncoder::encode_triples` are where ids cross over;
// under the identity encoder (classic) each hands its input back untouched.

/// The encoder for `encoding` over a schema closure and a dictionary of
/// `universe` terms: the shared identity for the classic encoding.
pub(crate) fn build_encoder(
    encoding: DictEncoding,
    schema: &Schema,
    closure: &SchemaClosure,
    universe: usize,
) -> Arc<HierarchyEncoder> {
    match encoding {
        DictEncoding::Classic => Arc::clone(identity_encoder()),
        DictEncoding::Interval => Arc::new(HierarchyEncoder::build(schema, closure, universe)),
    }
}

/// A store over `graph`'s triples in `encoder`'s id space.
pub(crate) fn encode_store(graph: &Graph, encoder: &HierarchyEncoder) -> Store {
    Store::from_triples(&encoder.encode_triples(graph.triples()))
}

/// `ucq` with its constants in `encoder`'s id space; `None` under the
/// identity, where they already are.
pub(crate) fn encoded_ucq(encoder: &HierarchyEncoder, ucq: &Ucq) -> Option<Ucq> {
    (!encoder.is_identity()).then(|| ucq.map_consts(&mut |c| encoder.encode(c)))
}

/// The evaluator every Sat/Ref/Dat arm runs: `store` and its statistics under
/// the request's row budget, parallelism and join-algorithm policy.
fn evaluator<'a>(
    store: &'a Store,
    stats: &'a Stats,
    opts: &AnswerOptions,
    obs: &Obs,
) -> Evaluator<'a> {
    let mut ev = Evaluator::new(store, stats).with_obs(obs.clone());
    ev.row_budget = opts.row_budget;
    ev.parallelism = opts.parallelism;
    ev.join_algorithm = opts.join_algorithm;
    ev
}

/// Saturation artifacts: store + statistics over `G∞` and the number of
/// derived triples. Materialized lazily on the first `Saturation` answer,
/// or installed up front by the serving layer (which maintains `G∞`
/// incrementally and never wants the from-scratch path).
#[derive(Debug, Clone)]
pub(crate) struct SaturatedPart {
    pub(crate) store: Store,
    pub(crate) stats: Arc<Stats>,
    pub(crate) added: usize,
}

/// A prepared database: store + statistics + schema closure + one shared
/// dictionary.
///
/// All heavyweight parts are `Arc`-shared (and the store's indexes are
/// `Arc`-shared buckets), so a database assembled by the serving layer from
/// an existing snapshot costs a handful of reference bumps. The dictionary
/// is the input graph's own; no triple-level graph is kept.
#[derive(Debug)]
pub struct Database {
    dict: Arc<rdfref_model::Dictionary>,
    schema: Arc<Schema>,
    closure: Arc<SchemaClosure>,
    store: Store,
    stats: Arc<Stats>,
    saturated: OnceLock<SaturatedPart>,
    /// Shared reformulation/plan cache (see [`crate::cache`]).
    cache: Arc<PlanCache>,
    /// Cache epochs this database is pinned to: `Some((schema, data))` for
    /// snapshot-assembled databases (their plans must match the snapshot's
    /// schema/statistics, not whatever the cache's live epochs have moved
    /// to), `None` for live databases.
    epochs: Option<(u64, u64)>,
    /// Database-wide observability sink (disabled by default); a request
    /// can override it via [`AnswerOptions::with_obs`].
    obs: Obs,
    /// The store's encoder: bijection between base dictionary ids and
    /// store ids, hierarchy-clustered under [`DictEncoding::Interval`] and
    /// the identity under [`DictEncoding::Classic`]. The dictionary, parser
    /// and reasoner stay in base space; only the store — and the plans and
    /// Dat closures evaluated over it — are remapped.
    encoder: Arc<HierarchyEncoder>,
}

impl Database {
    /// Start configuring an engine: `Database::builder()` is the sole way
    /// to construct both engines — the static read side
    /// ([`crate::EngineBuilder::build`]) and the maintained, concurrently
    /// servable write side ([`crate::EngineBuilder::build_serving`]).
    pub fn builder() -> crate::builder::EngineBuilder {
        crate::builder::EngineBuilder::new()
    }

    /// Prepare a database from a graph (schema triples are recognized
    /// in-line, as in the DB fragment). Builder terminal. The graph is
    /// dropped once its store is built; its dictionary is kept, not copied.
    pub(crate) fn build(graph: Graph, cache: Arc<PlanCache>, encoding: DictEncoding) -> Database {
        let schema = Schema::from_graph(&graph);
        let closure = schema.closure();
        let encoder = build_encoder(encoding, &schema, &closure, graph.dictionary().len());
        let store = encode_store(&graph, &encoder);
        let stats = Stats::compute(&store);
        Database::from_parts(
            Arc::clone(graph.shared_dictionary()),
            Arc::new(schema),
            Arc::new(closure),
            store,
            Arc::new(stats),
            None,
            cache,
            None,
            Obs::disabled(),
            encoder,
        )
    }

    /// Assemble a database from pre-built, `Arc`-shared parts — the one
    /// constructor. No triple is copied: a serving snapshot's store shares
    /// its index buckets with the writer's working copy. `epochs` is `None`
    /// for a live database and the snapshot's pair for a pinned one.
    #[allow(clippy::too_many_arguments)] // crate-internal; one arg per Database field
    pub(crate) fn from_parts(
        dict: Arc<rdfref_model::Dictionary>,
        schema: Arc<Schema>,
        closure: Arc<SchemaClosure>,
        store: Store,
        stats: Arc<Stats>,
        saturated: Option<SaturatedPart>,
        cache: Arc<PlanCache>,
        epochs: Option<(u64, u64)>,
        obs: Obs,
        encoder: Arc<HierarchyEncoder>,
    ) -> Database {
        Database {
            dict,
            schema,
            closure,
            store,
            stats,
            saturated: saturated.map_or_else(OnceLock::new, OnceLock::from),
            cache,
            epochs,
            obs,
            encoder,
        }
    }

    /// Install a database-wide observability sink (builder style).
    pub fn with_obs(mut self, obs: Obs) -> Database {
        self.obs = obs;
        self
    }

    /// The database-wide observability sink.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The plan cache (shared handle).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// A fresh graph over the store's triples, decoded to base id space.
    fn materialize_graph(&self) -> Graph {
        let triples = self.store.iter().map(|t| self.encoder.decode_triple(&t));
        Graph::from_encoded(Arc::clone(&self.dict), triples.collect())
    }

    /// The dictionary the database's triples are encoded against.
    pub fn dictionary(&self) -> &rdfref_model::Dictionary {
        &self.dict
    }

    /// The extracted schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The schema closure.
    pub fn closure(&self) -> &SchemaClosure {
        &self.closure
    }

    /// The store over explicit triples.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The store over explicit triples, as handed to an [`Evaluator`] —
    /// [`Database::store`] under the name the benchmark replay calls.
    pub fn source(&self) -> &Store {
        &self.store
    }

    /// Statistics over explicit triples.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The store's encoder when it remaps ids ([`DictEncoding::Interval`]);
    /// `None` for the identity, where store ids are dictionary ids.
    pub fn encoder(&self) -> Option<&Arc<HierarchyEncoder>> {
        (!self.encoder.is_identity()).then_some(&self.encoder)
    }

    /// The saturation, if it has been built or installed.
    pub(crate) fn installed_saturation(&self) -> Option<&SaturatedPart> {
        self.saturated.get()
    }

    fn saturated_with(&self, obs: &Obs) -> &SaturatedPart {
        self.saturated.get_or_init(|| {
            let _span = obs.span("answer.saturate_init");
            // A temporary graph: dropped once `G∞` is in its store.
            let mut g = self.materialize_graph();
            let added = saturate_in_place_obs(&mut g, obs);
            // Saturation runs in base space (the graph's); the saturated
            // store must live in the same id space as the explicit one.
            let store = encode_store(&g, &self.encoder);
            let stats = Stats::compute(&store);
            SaturatedPart {
                store,
                stats: Arc::new(stats),
                added,
            }
        })
    }

    /// `cq` with constants remapped into store id space.
    fn encode_cq<'q>(&self, cq: &'q Cq) -> Cow<'q, Cq> {
        if self.encoder.is_identity() {
            return Cow::Borrowed(cq);
        }
        Cow::Owned(cq.map_consts(&mut |c| self.encoder.encode(c)))
    }

    /// `ucq` with constants remapped into store id space.
    fn encode_ucq(&self, ucq: Ucq) -> Ucq {
        encoded_ucq(&self.encoder, &ucq).unwrap_or(ucq)
    }

    /// An answer computed over the store, decoded back to base ids.
    fn decode(&self, relation: Relation) -> Relation {
        if self.encoder.is_identity() {
            return relation;
        }
        relation.map_values(&mut |id| self.encoder.decode(id))
    }

    /// Force saturation now (otherwise lazy on the first `Saturation`
    /// answer) and return the number of added triples.
    pub fn prepare_saturation(&self) -> usize {
        self.saturated_with(&self.obs.clone()).added
    }

    /// Answer `cq` with `strategy` — the core entry point.
    ///
    /// Prefer the request builder ([`Database::query`]) in application
    /// code; this method is the generic [`crate::engine::QueryEngine`]
    /// surface.
    pub fn run_query(
        &self,
        cq: &Cq,
        strategy: &Strategy,
        opts: &AnswerOptions,
    ) -> Result<QueryAnswer> {
        // Per-request sink wins over the database-wide one.
        let obs = opts.obs.or(&self.obs).clone();
        let _answer_span = obs.span("answer");
        obs.add("answer.calls", 1);
        let start = Instant::now();
        let out = head_names(cq);
        let mut explain = Explain {
            strategy: strategy.name().to_string(),
            ..Explain::default()
        };
        let mut metrics = ExecMetrics::default();
        let finish = |relation: Relation, mut explain: Explain, metrics: ExecMetrics| {
            // What the evaluator dispatched, not what the user's CQ alone
            // would have: under Ref strategies it arbitrates per CQ.
            explain.physical = crate::explain::PhysicalPlan::from_dispatched(&metrics.dispatched);
            explain.metrics = metrics;
            explain.answers = relation.len();
            let mut answer = QueryAnswer::from_parts(relation, explain);
            answer.explain.wall = start.elapsed();
            answer
        };

        // Every strategy evaluates in store id space.
        let relation = match strategy {
            Strategy::Saturation => {
                let sat = self.saturated_with(&obs);
                explain.saturation_added = sat.added;
                evaluator(&sat.store, &sat.stats, opts, &obs).eval_cq(
                    &self.encode_cq(cq),
                    &out,
                    &mut metrics,
                )?
            }
            Strategy::RefUcq => {
                let plan = self.ref_plan(cq, PlanRequest::Ucq, opts, &mut explain, &obs)?;
                let CachedPlan::Ucq(ucq) = plan else {
                    debug_assert!(false, "UCQ request yields a UCQ plan");
                    return Err(CoreError::PlanShapeMismatch { expected: "UCQ" });
                };
                explain.reformulation_cqs = ucq.len();
                explain.reformulation_atoms = ucq.total_atoms();
                let model = rdfref_storage::CostModel::new(&self.stats);
                explain.estimate = Some(model.ucq_estimate(&ucq));
                let relation = evaluator(&self.store, &self.stats, opts, &obs).eval_ucq(
                    &ucq,
                    &out,
                    &mut metrics,
                )?;
                #[cfg(feature = "strict-invariants")]
                self.check_against_raw_fixpoint(cq, opts, &out, &relation);
                relation
            }
            Strategy::RefScq => {
                let plan = self.ref_plan(cq, PlanRequest::Scq, opts, &mut explain, &obs)?;
                let CachedPlan::Jucq(jucq) = plan else {
                    debug_assert!(false, "SCQ request yields a JUCQ plan");
                    return Err(CoreError::PlanShapeMismatch { expected: "JUCQ" });
                };
                explain.cover = Some(Cover::singletons(cq.size()));
                let relation =
                    self.eval_jucq_explained(&jucq, opts, &mut explain, &mut metrics, &obs)?;
                #[cfg(feature = "strict-invariants")]
                self.check_against_raw_fixpoint(cq, opts, &out, &relation);
                relation
            }
            Strategy::RefJucq(cover) => {
                let plan = self.ref_plan(cq, PlanRequest::Jucq(cover), opts, &mut explain, &obs)?;
                let CachedPlan::Jucq(jucq) = plan else {
                    debug_assert!(false, "JUCQ request yields a JUCQ plan");
                    return Err(CoreError::PlanShapeMismatch { expected: "JUCQ" });
                };
                explain.cover = Some(cover.clone());
                let relation =
                    self.eval_jucq_explained(&jucq, opts, &mut explain, &mut metrics, &obs)?;
                #[cfg(feature = "strict-invariants")]
                self.check_against_raw_fixpoint(cq, opts, &out, &relation);
                relation
            }
            Strategy::RefGCov => {
                let plan = self.ref_plan(cq, PlanRequest::Gcov, opts, &mut explain, &obs)?;
                let CachedPlan::Gcov(result) = plan else {
                    debug_assert!(false, "GCov request yields a GCov plan");
                    return Err(CoreError::PlanShapeMismatch { expected: "GCov" });
                };
                explain.cover = Some(result.cover.clone());
                explain.estimate = Some(result.estimate);
                explain.explored = result.explored.clone();
                explain.reformulation_cqs = result.jucq.total_cqs();
                explain.reformulation_atoms = result
                    .jucq
                    .fragments
                    .iter()
                    .map(|f| f.ucq.total_atoms())
                    .sum();
                let relation = evaluator(&self.store, &self.stats, opts, &obs)
                    .eval_jucq(&result.jucq, &mut metrics)?;
                #[cfg(feature = "strict-invariants")]
                self.check_against_raw_fixpoint(cq, opts, &out, &relation);
                relation
            }
            Strategy::RefIncomplete(profile) => {
                let filtered = profile.filter_schema(&self.schema);
                let closure = filtered.closure();
                let ctx = RewriteContext::new(&filtered, &closure);
                // Incomplete profiles reformulate classically (their filtered
                // closure need not match the encoder's), then the UCQ is
                // transported into store id space for evaluation.
                let ucq = {
                    let _span = obs.span("answer.plan.incomplete");
                    self.encode_ucq(reformulate_ucq(cq, &ctx, opts.limits)?)
                };
                explain.reformulation_cqs = ucq.len();
                explain.reformulation_atoms = ucq.total_atoms();
                evaluator(&self.store, &self.stats, opts, &obs).eval_ucq(
                    &ucq,
                    &out,
                    &mut metrics,
                )?
            }
            Strategy::Datalog => {
                let _span = obs.span("datalog.run");
                // The rules' constants are built-ins, which every encoder
                // pins: they are in store id space as they stand.
                let rules = rdfref_datalog::closure_rules();
                let tc = crate::dat::closure(&self.store, &self.stats, &rules, &obs)?;
                let stats = Stats::compute(&tc);
                let relation = evaluator(&tc, &stats, opts, &obs).eval_cq(
                    &self.encode_cq(cq),
                    &out,
                    &mut metrics,
                )?;
                // Every `tc` fact, the explicit ones included (the copy
                // rule derives them), plus every `q` fact.
                explain.datalog_derived = tc.len() + relation.len();
                obs.add("datalog.facts_derived", explain.datalog_derived as u64);
                relation
            }
        };
        Ok(finish(self.decode(relation), explain, metrics))
    }

    /// Produce the Ref plan for `cq`, through the plan cache when enabled.
    ///
    /// Cached planning always runs against the α-canonical query, so the
    /// hit and miss paths return structurally identical plans (transported
    /// back to the caller's variables via the inverse renaming); the
    /// uncached path plans the original query directly, preserving the
    /// pre-cache behaviour bit for bit.
    fn ref_plan(
        &self,
        cq: &Cq,
        req: PlanRequest<'_>,
        opts: &AnswerOptions,
        explain: &mut Explain,
        obs: &Obs,
    ) -> Result<CachedPlan> {
        let _span = obs.span("answer.plan");
        if !opts.use_cache {
            return self.compute_plan(cq, &req, opts, obs);
        }
        let canon = alpha_canonicalize(cq);
        let tag = match &req {
            PlanRequest::Ucq => StrategyTag::ucq(&opts.limits),
            PlanRequest::Scq => {
                StrategyTag::jucq(Cover::singletons(canon.query.size()), &opts.limits)
            }
            PlanRequest::Jucq(cover) => match transport_cover(cover, &canon) {
                Some(c) => StrategyTag::jucq(c, &opts.limits),
                // A cover we cannot transport (e.g. mismatched with the
                // query's atom count) bypasses the cache; planning the
                // original query reports the precise error.
                None => return self.compute_plan(cq, &req, opts, obs),
            },
            PlanRequest::Gcov => StrategyTag::gcov(&GcovOptions::new().with_limits(opts.limits)),
        };
        let key = CacheKey {
            query: canon.query.clone(),
            tag,
            algo: opts.join_algorithm,
        };
        let (schema_epoch, data_epoch) = self.cache_epochs();
        if let Some(plan) = self.pinned_cache_lookup(&key) {
            obs.add("plan_cache.hit", 1);
            explain.cache = Some(self.cache_report(true));
            return Ok(rename_plan(&plan, &canon.inverse));
        }
        obs.add("plan_cache.miss", 1);
        let computed = {
            // The SCQ/JUCQ requests must plan the canonical query under the
            // canonical (transported) cover recorded in the key.
            let canon_req = match &key.tag {
                StrategyTag::Jucq { cover, .. } if matches!(req, PlanRequest::Jucq(_)) => {
                    PlanRequest::Jucq(cover)
                }
                _ => req,
            };
            self.compute_plan(&canon.query, &canon_req, opts, obs)?
        };
        let stored = self
            .cache
            .insert_at(key, computed, schema_epoch, data_epoch);
        explain.cache = Some(self.cache_report(false));
        Ok(rename_plan(&stored, &canon.inverse))
    }

    /// Pin this database to an epoch pair as the serving layer does when
    /// assembling a snapshot-owned database; tests use it to stage a
    /// lagging reader against a live cache.
    #[cfg(test)]
    fn with_pinned_epochs(mut self, epochs: (u64, u64)) -> Database {
        self.epochs = Some(epochs);
        self
    }

    /// The epochs plans are validated and tagged against: the pinned
    /// snapshot epochs for serving-layer databases, the cache's live epochs
    /// otherwise.
    pub(crate) fn cache_epochs(&self) -> (u64, u64) {
        self.epochs
            .unwrap_or_else(|| (self.cache.schema_epoch(), self.cache.data_epoch()))
    }

    /// Cache lookup pinned at this database's epochs: a snapshot-owned
    /// database must never see a plan tagged for a different epoch pair,
    /// no matter what the writer is doing to the shared cache concurrently.
    fn pinned_cache_lookup(&self, key: &CacheKey) -> Option<Arc<CachedPlan>> {
        let (schema_epoch, data_epoch) = self.cache_epochs();
        self.cache.lookup_at(key, schema_epoch, data_epoch)
    }

    /// The rewriting context of this database's schema and encoder.
    fn rewrite_context(&self) -> RewriteContext<'_> {
        RewriteContext::new(&self.schema, &self.closure).with_encoder(&self.encoder)
    }

    /// Plan `cq` from scratch (no cache involvement).
    fn compute_plan(
        &self,
        cq: &Cq,
        req: &PlanRequest<'_>,
        opts: &AnswerOptions,
        obs: &Obs,
    ) -> Result<CachedPlan> {
        let ctx = self.rewrite_context();
        // Plans are transported into store id space *here*, so the cache
        // holds encoded plans. That is safe: re-encoding only happens on a
        // schema change, which bumps the cache's schema epoch and strands
        // every stale plan.
        Ok(match req {
            PlanRequest::Ucq => {
                let _span = obs.span("answer.plan.ucq");
                CachedPlan::Ucq(self.encode_ucq(reformulate_ucq(cq, &ctx, opts.limits)?))
            }
            PlanRequest::Scq => {
                let _span = obs.span("answer.plan.scq");
                let mut fragments = FragmentCache::new(cq, &ctx, opts.limits).encoded();
                CachedPlan::Jucq(fragments.jucq(&Cover::singletons(cq.size()))?)
            }
            PlanRequest::Jucq(cover) => {
                let _span = obs.span("answer.plan.jucq");
                let mut fragments = FragmentCache::new(cq, &ctx, opts.limits).encoded();
                CachedPlan::Jucq(fragments.jucq(cover)?)
            }
            PlanRequest::Gcov => {
                let _span = obs.span("answer.plan.gcov");
                let model = rdfref_storage::CostModel::new(&self.stats);
                let gcov_opts = GcovOptions::new().with_limits(opts.limits);
                // GCov prices candidate covers against the (encoded) store
                // statistics, so its JUCQs are encoded inside the search.
                CachedPlan::Gcov(gcov_with_obs(cq, &ctx, &model, &gcov_opts, obs)?)
            }
        })
    }

    /// A Ref plan — a UCQ, or a JUCQ of any cover, built as products of
    /// minimised atom unions — answers exactly what the raw rule fixpoint of
    /// the whole query answers on this store: evaluate the fixpoint too
    /// (outside the request's metrics and row budget) and compare row sets.
    /// Skipped when the fixpoint does not fit the request's limits, or when
    /// constants in the head make the plan's columns differ from it.
    #[cfg(feature = "strict-invariants")]
    fn check_against_raw_fixpoint(
        &self,
        cq: &Cq,
        opts: &AnswerOptions,
        out: &[Var],
        minimised: &Relation,
    ) {
        if minimised.columns() != out {
            return;
        }
        let ctx = self.rewrite_context();
        let Ok(raw) = crate::reformulate::reformulate_ucq_raw(cq, &ctx, opts.limits) else {
            return;
        };
        let raw = self.encode_ucq(raw);
        let fixpoint = Evaluator::new(&self.store, &self.stats).eval_ucq(
            &raw,
            out,
            &mut ExecMetrics::default(),
        );
        let Ok(mut fixpoint) = fixpoint else { return };
        let mut minimised = minimised.clone();
        fixpoint.sort();
        minimised.sort();
        // Arming the feature is asking for the check: it holds in release
        // builds too, where a `debug_assert` would pay for the fixpoint and
        // compare nothing.
        assert_eq!(
            minimised.to_rows(),
            fixpoint.to_rows(),
            "the plan of {cq:?} answers differently from its raw fixpoint"
        );
    }

    fn cache_report(&self, hit: bool) -> CacheReport {
        CacheReport {
            hit,
            counters: self.cache.counters(),
            entries: self.cache.len(),
        }
    }

    fn eval_jucq_explained(
        &self,
        jucq: &Jucq,
        opts: &AnswerOptions,
        explain: &mut Explain,
        metrics: &mut ExecMetrics,
        obs: &Obs,
    ) -> Result<Relation> {
        explain.reformulation_cqs = jucq.total_cqs();
        explain.reformulation_atoms = jucq.fragments.iter().map(|f| f.ucq.total_atoms()).sum();
        let model = rdfref_storage::CostModel::new(&self.stats);
        explain.estimate = Some(model.jucq_estimate(jucq));
        Ok(evaluator(&self.store, &self.stats, opts, obs).eval_jucq(jucq, metrics)?)
    }
}

/// What kind of Ref plan a strategy arm needs.
enum PlanRequest<'a> {
    Ucq,
    Scq,
    Jucq(&'a Cover),
    Gcov,
}

/// Re-index a cover over the original query's atoms to the canonical
/// query's atoms. Returns `None` when the cover does not fit the query.
fn transport_cover(cover: &Cover, canon: &AlphaCanonical) -> Option<Cover> {
    let fragments: Option<Vec<Vec<usize>>> = cover
        .fragments()
        .iter()
        .map(|f| {
            let mut g = f
                .iter()
                .map(|&i| canon.atom_map.get(i).copied())
                .collect::<Option<Vec<usize>>>()?;
            g.sort_unstable();
            g.dedup();
            Some(g)
        })
        .collect();
    Cover::new(fragments?, canon.query.size()).ok()
}

/// Rename a variable through a variable-to-variable substitution.
fn rename_var(v: &Var, subst: &Substitution) -> Var {
    match subst.get(v) {
        Some(PTerm::Var(w)) => w.clone(),
        _ => v.clone(),
    }
}

fn rename_ucq(ucq: &Ucq, subst: &Substitution) -> Ucq {
    Ucq {
        cqs: ucq.cqs.iter().map(|c| c.apply(subst)).collect(),
    }
}

fn rename_jucq(jucq: &Jucq, subst: &Substitution) -> Jucq {
    Jucq {
        head: jucq.head.iter().map(|v| rename_var(v, subst)).collect(),
        fragments: jucq
            .fragments
            .iter()
            .map(|f| Fragment {
                columns: f.columns.iter().map(|v| rename_var(v, subst)).collect(),
                ucq: rename_ucq(&f.ucq, subst),
            })
            .collect(),
    }
}

/// Transport a cached plan (in canonical variables) back to the caller's
/// variables. The substitution is a bijective renaming, so the plan's
/// structure — covers, estimates, fragment boundaries — is unchanged.
fn rename_plan(plan: &CachedPlan, subst: &Substitution) -> CachedPlan {
    match plan {
        CachedPlan::Ucq(u) => CachedPlan::Ucq(rename_ucq(u, subst)),
        CachedPlan::Jucq(j) => CachedPlan::Jucq(rename_jucq(j, subst)),
        CachedPlan::Gcov(g) => CachedPlan::Gcov(GcovResult {
            cover: g.cover.clone(),
            jucq: rename_jucq(&g.jucq, subst),
            estimate: g.estimate,
            explored: g.explored.clone(),
        }),
    }
}

/// Convenience: answer a query on a graph with a one-shot database.
pub fn answer(
    graph: &Graph,
    cq: &Cq,
    strategy: Strategy,
    opts: &AnswerOptions,
) -> Result<QueryAnswer> {
    Database::builder()
        .build(graph.clone())
        .run_query(cq, &strategy, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use rdfref_model::parser::parse_turtle;
    use rdfref_query::parse_select;

    const DOC: &str = r#"
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:Book rdfs:subClassOf ex:Publication .
ex:Novel rdfs:subClassOf ex:Book .
ex:writtenBy rdfs:subPropertyOf ex:hasAuthor .
ex:writtenBy rdfs:domain ex:Book .
ex:writtenBy rdfs:range ex:Person .
ex:doi1 rdf:type ex:Book .
ex:doi1 ex:writtenBy ex:borges .
ex:doi2 rdf:type ex:Novel .
ex:doi3 ex:writtenBy ex:bioy .
ex:borges ex:hasName "J. L. Borges" .
ex:bioy ex:hasName "A. Bioy Casares" .
"#;

    fn setup(query: &str) -> (Database, Cq) {
        let mut g = parse_turtle(DOC).unwrap();
        let q = parse_select(query, g.dictionary_mut()).unwrap();
        (Database::builder().build(g), q)
    }

    const PUBLICATIONS: &str = r#"PREFIX ex: <http://example.org/>
        SELECT ?x WHERE { ?x a ex:Publication }"#;

    fn all_complete_strategies() -> Vec<Strategy> {
        vec![
            Strategy::Saturation,
            Strategy::RefUcq,
            Strategy::RefScq,
            Strategy::RefGCov,
            Strategy::Datalog,
        ]
    }

    #[test]
    fn all_complete_strategies_agree() {
        let (db, q) = setup(PUBLICATIONS);
        let opts = AnswerOptions::default();
        let reference = db
            .run_query(&q, &Strategy::Saturation, &opts)
            .unwrap()
            .rows()
            .to_vec();
        // doi1 (explicit Book), doi2 (Novel ⊑ Book ⊑ Publication),
        // doi3 (domain of writtenBy).
        assert_eq!(reference.len(), 3);
        for strategy in all_complete_strategies() {
            let got = db.run_query(&q, &strategy, &opts).unwrap().rows().to_vec();
            assert_eq!(got, reference, "strategy {} diverged", strategy.name());
        }
    }

    #[test]
    fn every_engine_shares_the_input_graph_s_dictionary() {
        let g = parse_turtle(DOC).unwrap();
        for encoding in [DictEncoding::Classic, DictEncoding::Interval] {
            let db = Database::builder().encoding(encoding).build(g.clone());
            assert!(std::ptr::eq(g.dictionary(), db.dictionary()));
        }
        let snap = Database::builder().build_serving(g.clone()).snapshot();
        assert!(std::ptr::eq(g.dictionary(), snap.dictionary()));
    }

    /// `encoder()` is `None` exactly when store ids are dictionary ids: the
    /// benchmark's replay encodes plans and decodes answers only when it is
    /// `Some`.
    #[test]
    fn the_encoder_is_exposed_only_when_it_remaps_ids() {
        let g = parse_turtle(DOC).unwrap();
        assert!(Database::builder().build(g.clone()).encoder().is_none());
        let serving = Database::builder().build_serving(g.clone());
        assert!(serving.snapshot().database().encoder().is_none());
        let ex = |n: &str| rdfref_model::Term::iri(format!("http://example.org/{n}"));
        let subclass = rdfref_model::Term::iri(rdfref_model::vocab::RDFS_SUBCLASSOF);
        let essay = rdfref_model::Triple::new(ex("Essay"), subclass, ex("Publication")).unwrap();
        let report = serving.insert(vec![essay]).unwrap().wait().unwrap();
        assert!(report.schema_changed());
        assert!(serving.snapshot().database().encoder().is_none());

        let interval = Database::builder()
            .encoding(DictEncoding::Interval)
            .build(g.clone());
        let enc = interval.encoder().expect("interval ids are remapped");
        let publication = g.dictionary().id_of(&ex("Publication")).unwrap();
        assert!(enc.class_range(publication).is_some());
    }

    #[test]
    fn user_cover_strategy_agrees_too() {
        let (db, q) = setup(
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x ?n WHERE { ?x a ex:Publication . ?x ex:hasAuthor ?a . ?a ex:hasName ?n }"#,
        );
        let opts = AnswerOptions::default();
        let reference = db
            .run_query(&q, &Strategy::Saturation, &opts)
            .unwrap()
            .rows()
            .to_vec();
        assert_eq!(reference.len(), 2); // doi1/Borges, doi3/Bioy
        for cover in [
            Cover::singletons(3),
            Cover::one_fragment(3),
            Cover::new(vec![vec![0, 1], vec![1, 2]], 3).unwrap(),
            Cover::new(vec![vec![0, 1], vec![2]], 3).unwrap(),
        ] {
            let got = db
                .run_query(&q, &Strategy::RefJucq(cover.clone()), &opts)
                .unwrap_or_else(|e| panic!("cover {cover} failed: {e}"))
                .rows()
                .to_vec();
            assert_eq!(got, reference, "cover {cover} diverged");
        }
    }

    #[test]
    fn incomplete_profiles_miss_answers() {
        let (db, q) = setup(PUBLICATIONS);
        let opts = AnswerOptions::default();
        let complete = db
            .run_query(&q, &Strategy::Saturation, &opts)
            .unwrap()
            .len();
        let hier = db
            .run_query(
                &q,
                &Strategy::RefIncomplete(IncompletenessProfile::hierarchies_only()),
                &opts,
            )
            .unwrap()
            .len();
        let none = db
            .run_query(
                &q,
                &Strategy::RefIncomplete(IncompletenessProfile::none()),
                &opts,
            )
            .unwrap()
            .len();
        assert_eq!(complete, 3);
        assert_eq!(hier, 2, "hierarchies-only misses the domain-typed doi3");
        assert_eq!(none, 0, "no explicit Publication instances");
        // The complete profile agrees with Sat.
        let full = db
            .run_query(
                &q,
                &Strategy::RefIncomplete(IncompletenessProfile::complete()),
                &opts,
            )
            .unwrap()
            .len();
        assert_eq!(full, complete);
    }

    #[test]
    fn explain_is_populated() {
        let (db, q) = setup(PUBLICATIONS);
        let opts = AnswerOptions::default();
        let ucq = db.run_query(&q, &Strategy::RefUcq, &opts).unwrap();
        assert!(ucq.explain.reformulation_cqs >= 3);
        assert!(ucq.explain.estimate.is_some());
        assert_eq!(ucq.explain.answers, 3);

        let gcv = db.run_query(&q, &Strategy::RefGCov, &opts).unwrap();
        assert!(gcv.explain.cover.is_some());
        assert!(!gcv.explain.explored.is_empty());

        let sat = db.run_query(&q, &Strategy::Saturation, &opts).unwrap();
        assert!(sat.explain.saturation_added > 0);
    }

    #[test]
    fn example_1_style_query_with_class_variables() {
        let (db, q) = setup(
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x ?u WHERE { ?x a ?u . ?x ex:writtenBy ?y }"#,
        );
        let opts = AnswerOptions::default();
        let reference = db
            .run_query(&q, &Strategy::Saturation, &opts)
            .unwrap()
            .rows()
            .to_vec();
        // doi1 and doi3 have writtenBy; types: doi1 ∈ {Book, Publication},
        // doi3 ∈ {Book, Publication} — 4 rows.
        assert_eq!(reference.len(), 4);
        for strategy in all_complete_strategies() {
            let got = db.run_query(&q, &strategy, &opts).unwrap().rows().to_vec();
            assert_eq!(got, reference, "strategy {} diverged", strategy.name());
        }
    }

    #[test]
    fn row_budget_propagates() {
        let (db, q) = setup(PUBLICATIONS);
        let opts = AnswerOptions {
            row_budget: Some(1),
            ..AnswerOptions::default()
        };
        let err = db.run_query(&q, &Strategy::RefUcq, &opts).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Storage(rdfref_storage::StorageError::RowBudgetExceeded { .. })
        ));
    }

    #[test]
    fn reformulation_limit_propagates() {
        let (db, q) = setup(PUBLICATIONS);
        let opts = AnswerOptions {
            limits: ReformulationLimits {
                max_cqs: 1,
                ..Default::default()
            },
            ..AnswerOptions::default()
        };
        let err = db.run_query(&q, &Strategy::RefUcq, &opts).unwrap_err();
        assert!(matches!(err, CoreError::ReformulationTooLarge { .. }));
    }

    #[test]
    fn cache_hits_repeated_and_alpha_renamed_queries() {
        let (db, q) = setup(PUBLICATIONS);
        let opts = AnswerOptions::default();
        let first = db.run_query(&q, &Strategy::RefUcq, &opts).unwrap();
        assert_eq!(first.explain.cache.map(|c| c.hit), Some(false));

        // Same query again: hit.
        let again = db.run_query(&q, &Strategy::RefUcq, &opts).unwrap();
        assert_eq!(again.explain.cache.map(|c| c.hit), Some(true));
        assert_eq!(again.rows(), first.rows());

        // An α-renamed variant (?y for ?x) hits the same entry.
        let renamed = rdfref_query::parse_select(
            r#"PREFIX ex: <http://example.org/>
               SELECT ?y WHERE { ?y a ex:Publication }"#,
            &mut db.dictionary().clone(),
        )
        .unwrap();
        let hit = db.run_query(&renamed, &Strategy::RefUcq, &opts).unwrap();
        assert_eq!(hit.explain.cache.map(|c| c.hit), Some(true));
        assert_eq!(hit.rows(), first.rows());
    }

    #[test]
    fn cache_counters_match_hand_computed_trace() {
        let (db, q) = setup(PUBLICATIONS);
        let opts = AnswerOptions::default();
        let trace = |a: &QueryAnswer| {
            let c = a.explain.cache.expect("cache enabled");
            (c.hit, c.counters.hits, c.counters.misses, c.entries)
        };
        // 1. UCQ: cold miss, entry stored.
        let a = db.run_query(&q, &Strategy::RefUcq, &opts).unwrap();
        assert_eq!(trace(&a), (false, 0, 1, 1));
        // 2. UCQ again: hit.
        let a = db.run_query(&q, &Strategy::RefUcq, &opts).unwrap();
        assert_eq!(trace(&a), (true, 1, 1, 1));
        // 3. SCQ: different tag ⟹ miss, second entry.
        let a = db.run_query(&q, &Strategy::RefScq, &opts).unwrap();
        assert_eq!(trace(&a), (false, 1, 2, 2));
        // 4. GCov: third entry.
        let a = db.run_query(&q, &Strategy::RefGCov, &opts).unwrap();
        assert_eq!(trace(&a), (false, 1, 3, 3));
        // 5. An explicit singleton cover shares the SCQ entry.
        let a = db
            .run_query(&q, &Strategy::RefJucq(Cover::singletons(q.size())), &opts)
            .unwrap();
        assert_eq!(trace(&a), (true, 2, 3, 3));
    }

    #[test]
    fn cache_can_be_disabled() {
        let (db, q) = setup(PUBLICATIONS);
        let opts = AnswerOptions {
            use_cache: false,
            ..AnswerOptions::default()
        };
        let a = db.run_query(&q, &Strategy::RefGCov, &opts).unwrap();
        assert!(a.explain.cache.is_none());
        assert_eq!(db.plan_cache().counters(), Default::default());
        assert!(db.plan_cache().is_empty());
    }

    #[test]
    fn cached_and_uncached_answers_agree() {
        let (db, q) = setup(
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x ?n WHERE { ?x a ex:Publication . ?x ex:hasAuthor ?a . ?a ex:hasName ?n }"#,
        );
        let cached = AnswerOptions::default();
        let uncached = AnswerOptions {
            use_cache: false,
            ..AnswerOptions::default()
        };
        for strategy in [
            Strategy::RefUcq,
            Strategy::RefScq,
            Strategy::RefGCov,
            Strategy::RefJucq(Cover::new(vec![vec![0, 1], vec![2]], 3).unwrap()),
        ] {
            let cold = db
                .run_query(&q, &strategy, &cached)
                .unwrap()
                .rows()
                .to_vec();
            let warm = db
                .run_query(&q, &strategy, &cached)
                .unwrap()
                .rows()
                .to_vec();
            let off = db
                .run_query(&q, &strategy, &uncached)
                .unwrap()
                .rows()
                .to_vec();
            assert_eq!(cold, warm, "warm diverged for {}", strategy.name());
            assert_eq!(cold, off, "uncached diverged for {}", strategy.name());
        }
    }

    #[test]
    fn one_shot_answer_helper() {
        let mut g = parse_turtle(DOC).unwrap();
        let q = parse_select(PUBLICATIONS, g.dictionary_mut()).unwrap();
        let a = answer(&g, &q, Strategy::RefGCov, &AnswerOptions::default()).unwrap();
        assert_eq!(a.len(), 3);
    }

    /// The request builder is the sole public entry point; it must return
    /// exactly what the core `run_query` surface returns, for every
    /// strategy (the old positional-`answer` equivalence, kept against the
    /// builder path after the shims' removal).
    #[test]
    fn builder_path_matches_run_query() {
        let (db, q) = setup(PUBLICATIONS);
        let opts = AnswerOptions::default();
        for strategy in all_complete_strategies() {
            let built = db.query(&q).strategy(strategy.clone()).run().unwrap();
            let core = db.run_query(&q, &strategy, &opts).unwrap();
            assert_eq!(
                built.rows(),
                core.rows(),
                "builder diverged for {}",
                strategy.name()
            );
            assert_eq!(built.explain.strategy, core.explain.strategy);
            assert_eq!(built.explain.answers, core.explain.answers);
        }
    }

    /// `rows()` materializes once; the second call returns the same cached
    /// allocation (pointer-stable), so comparison-heavy callers pay for the
    /// per-row vectors once.
    #[test]
    fn rows_are_cached_after_first_call() {
        let (db, q) = setup(PUBLICATIONS);
        let a = db
            .run_query(&q, &Strategy::Saturation, &AnswerOptions::default())
            .unwrap();
        let first = a.rows();
        let second = a.rows();
        assert_eq!(first.len(), 3);
        assert!(
            std::ptr::eq(first.as_ptr(), second.as_ptr()),
            "rows() re-materialized instead of returning the cached sort"
        );
        // A clone starts with a fresh (lazily filled) cache but equal rows.
        let b = a.clone();
        assert_eq!(b.rows(), a.rows());
    }

    /// Options builder methods cover every field.
    #[test]
    fn answer_options_builder_roundtrip() {
        let opts = AnswerOptions::new()
            .with_row_budget(Some(7))
            .with_parallelism(Parallelism::morsels())
            .with_use_cache(false)
            .with_limits(ReformulationLimits {
                max_cqs: 9,
                ..Default::default()
            })
            .with_obs(Obs::disabled());
        assert_eq!(opts.row_budget, Some(7));
        assert_eq!(opts.parallelism, Parallelism::morsels());
        assert!(!opts.use_cache);
        assert_eq!(opts.limits.max_cqs, 9);
        assert!(!opts.obs.enabled());
    }

    /// A snapshot-owned database pinned at `(0, 0)` keeps seeing the plan
    /// of its own epochs and is never handed the one a writer inserted at
    /// `(0, 1)` after a data bump, although the cache's live epochs now
    /// validate that newer plan. A lookup against the live epochs
    /// (`self.cache.lookup(key)`) fails this test.
    #[test]
    fn a_pinned_database_is_never_handed_a_plan_from_a_newer_data_epoch() {
        let (db, q) = setup(PUBLICATIONS);
        let db = db.with_pinned_epochs((0, 0));
        let cache = Arc::clone(db.plan_cache());
        // GCov-tagged, so the entry carries a data epoch.
        let key = CacheKey {
            query: q.clone(),
            tag: StrategyTag::gcov(&GcovOptions::default()),
            algo: JoinAlgorithm::BindJoin,
        };
        // A plan's identity is its CQ count.
        let plan = |n: usize| {
            CachedPlan::Ucq(Ucq {
                cqs: vec![q.clone(); n],
            })
        };
        let mark = |p: &CachedPlan| match p {
            CachedPlan::Ucq(u) => u.cqs.len(),
            _ => usize::MAX,
        };

        cache.insert_at(key.clone(), plan(1), 0, 0);
        assert_eq!(db.pinned_cache_lookup(&key).as_deref().map(mark), Some(1));

        cache.bump_data_epoch();
        cache.insert_at(key.clone(), plan(2), 0, 1);
        assert_eq!(cache.lookup(&key).as_deref().map(mark), Some(2));
        assert!(
            db.pinned_cache_lookup(&key).is_none(),
            "database pinned to (0, 0) was served a plan inserted at (0, 1)"
        );
    }
}
