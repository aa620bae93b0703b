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
use crate::error::Result;
use crate::explain::{CacheReport, Explain, SnapshotInfo};
use crate::gcov::{gcov_with_obs, GcovOptions, GcovResult};
use crate::incomplete::IncompletenessProfile;
use crate::reformulate::jucq::FragmentCache;
use crate::reformulate::rules::{identity_encoder, RewriteContext};
use crate::reformulate::ucq::{reformulate_ucq, ReformulationLimits};
use rdfref_model::{DictEncoding, Graph, HierarchyEncoder, Schema, SchemaClosure, TermId};
use rdfref_obs::Obs;
use rdfref_query::ast::{Atom, Cq, PTerm, Ucq};
use rdfref_query::canonical::{alpha_canonicalize, AlphaCanonical};
use rdfref_query::{Cover, Var};
use rdfref_reasoning::saturate_in_place_obs;
use rdfref_storage::evaluator::{head_names, Evaluator};
use rdfref_storage::{JoinAlgorithm, Relation, Stats, Store};
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

/// Options shared by all strategies: plain data, built with struct-update
/// syntax (`AnswerOptions { use_cache: false, ..Default::default() }`) or
/// through the request builder ([`crate::engine::QueryRequest`]).
#[derive(Debug, Clone)]
pub struct AnswerOptions {
    /// Reformulation size limits.
    pub limits: ReformulationLimits,
    /// Abort evaluation when an intermediate relation exceeds this many rows.
    pub row_budget: Option<usize>,
    /// Physical join algorithm for CQ bodies: bind join, worst-case-optimal
    /// leapfrog triejoin, or cost-model choice (see [`JoinAlgorithm`]).
    pub join_algorithm: JoinAlgorithm,
    /// Reuse plans through the database's [`PlanCache`] (Ref strategies).
    /// On by default; disable to force fresh planning on every call.
    pub use_cache: bool,
    /// Per-request observability sink; when enabled it overrides the
    /// engine-wide one for this request.
    pub obs: Obs,
}

impl Default for AnswerOptions {
    fn default() -> Self {
        AnswerOptions {
            limits: ReformulationLimits::default(),
            row_budget: None,
            join_algorithm: JoinAlgorithm::BindJoin,
            use_cache: true,
            obs: Obs::disabled(),
        }
    }
}

/// The answer to a query plus its explanation.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// The answer rows in base id space, sorted once at construction;
    /// afterwards only read.
    relation: Relation,
    /// How the answer was computed.
    pub explain: Explain,
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
        QueryAnswer { relation, explain }
    }

    /// The answer tuples, sorted (canonical for cross-strategy comparison):
    /// a copy of the sorted relation, made on every call. Code that only
    /// iterates reads [`QueryAnswer::relation`] instead.
    pub fn rows(&self) -> Vec<Vec<TermId>> {
        self.relation.to_rows()
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
/// the request's row budget and join-algorithm policy.
fn evaluator<'a>(
    store: &'a Store,
    stats: &'a Stats,
    opts: &AnswerOptions,
    obs: &Obs,
) -> Evaluator<'a> {
    let mut ev = Evaluator::new(store, stats).with_obs(obs.clone());
    ev.row_budget = opts.row_budget;
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
    /// The serving snapshot this database is, `None` for a static one. Its
    /// cache epochs pin every plan lookup (a snapshot's plans must match its
    /// schema and statistics, not whatever the cache's live epochs have
    /// moved to), and every answer carries it as [`Explain::snapshot`].
    pub(crate) snapshot: Option<SnapshotInfo>,
    /// Engine-wide observability sink, set by the builder's `.obs(…)`
    /// (disabled by default); a request's [`AnswerOptions::obs`] overrides it.
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
        crate::builder::EngineBuilder::default()
    }

    /// Prepare a database from a graph (schema triples are recognized
    /// in-line, as in the DB fragment). Builder terminal. The graph is
    /// dropped once its store is built; its dictionary is kept, not copied.
    pub(crate) fn build(
        graph: Graph,
        cache: Arc<PlanCache>,
        encoding: DictEncoding,
        obs: Obs,
    ) -> Database {
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
            obs,
            encoder,
        )
    }

    /// Assemble a database from pre-built, `Arc`-shared parts — the one
    /// constructor. No triple is copied: a serving snapshot's store shares
    /// its index buckets with the writer's working copy. `snapshot` is `None`
    /// for a static database and the serving snapshot's identity otherwise.
    #[allow(clippy::too_many_arguments)] // crate-internal; one arg per Database field
    pub(crate) fn from_parts(
        dict: Arc<rdfref_model::Dictionary>,
        schema: Arc<Schema>,
        closure: Arc<SchemaClosure>,
        store: Store,
        stats: Arc<Stats>,
        saturated: Option<SaturatedPart>,
        cache: Arc<PlanCache>,
        snapshot: Option<SnapshotInfo>,
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
            snapshot,
            obs,
            encoder,
        }
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

    /// The store over explicit triples, as handed to an [`Evaluator`].
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
            snapshot: self.snapshot,
            ..Explain::default()
        };
        // Every strategy evaluates in store id space.
        let relation = match strategy {
            Strategy::Saturation => {
                let sat = self.saturated_with(&obs);
                explain.saturation_added = sat.added;
                evaluator(&sat.store, &sat.stats, opts, &obs).eval_cq(
                    &self.encode_cq(cq),
                    &out,
                    &mut explain.metrics,
                )?
            }
            Strategy::RefUcq
            | Strategy::RefScq
            | Strategy::RefJucq(_)
            | Strategy::RefGCov
            | Strategy::RefIncomplete(_) => {
                let (plan, canon) = match strategy {
                    Strategy::RefIncomplete(profile) => {
                        let filtered = profile.filter_schema(&self.schema);
                        let closure = filtered.closure();
                        let ctx = RewriteContext::new(&filtered, &closure);
                        let _span = obs.span("answer.plan.incomplete");
                        // Incomplete profiles reformulate classically (their
                        // filtered closure need not match the encoder's), then
                        // the UCQ is transported into store id space.
                        let ucq = self.encode_ucq(reformulate_ucq(cq, &ctx, opts.limits)?);
                        (Arc::new(CachedPlan::Ucq(ucq)), None)
                    }
                    _ => self.ref_plan(cq, strategy, opts, &mut explain, &obs)?,
                };
                let model = rdfref_storage::CostModel::new(&self.stats);
                let ev = evaluator(&self.store, &self.stats, opts, &obs);
                // The plan is evaluated as it is stored, in the variables of
                // the query it was planned for (α-canonical through the cache).
                let relation = match &*plan {
                    // Each CQ's head is the caller's head up to renaming, and
                    // `out` names the columns by position.
                    CachedPlan::Ucq(ucq) => {
                        explain.reformulation_cqs = ucq.len();
                        explain.reformulation_atoms = ucq.total_atoms();
                        explain.estimate = Some(model.ucq_estimate(ucq));
                        ev.eval_ucq(ucq, &out, &mut explain.metrics)?
                    }
                    CachedPlan::Jucq(jucq) | CachedPlan::Gcov(GcovResult { jucq, .. }) => {
                        explain.reformulation_cqs = jucq.total_cqs();
                        explain.reformulation_atoms =
                            jucq.fragments.iter().map(|f| f.ucq.total_atoms()).sum();
                        explain.estimate = Some(match &*plan {
                            // GCov carries the estimate its search computed.
                            CachedPlan::Gcov(result) => result.estimate,
                            _ => model.jucq_estimate(jucq),
                        });
                        // The JUCQ's head is the planned query's head
                        // variables: its columns take the caller's, by position.
                        ev.eval_jucq(jucq, &mut explain.metrics)?
                            .with_columns(cq.head_vars())?
                    }
                };
                // GCov's covers, the leapfrog's variables and the operator
                // trace's atoms are the planned query's: report them as the
                // caller numbers and names them.
                let to_caller = |cover: &Cover| match &canon {
                    Some(canon) => cover_from_plan(cover, &canon.atom_map),
                    None => Ok(cover.clone()),
                };
                if let Some(choice) = &mut explain.metrics.dispatched.choice {
                    // A UCQ's CQs take one rewriting per planned atom, in
                    // order; a JUCQ fragment's CQs list theirs as their
                    // union was built, cached or not, so they are sorted.
                    match (&canon, &*plan) {
                        (Some(canon), CachedPlan::Ucq(_)) => {
                            choice.restate(|v| caller_var(cq, canon, v), Some(&canon.atom_map))
                        }
                        (Some(canon), _) => choice.restate(|v| caller_var(cq, canon, v), None),
                        (None, CachedPlan::Ucq(_)) => {}
                        (None, _) => choice.restate(Var::clone, None),
                    }
                }
                // The operator trace's atoms too, and SCQ's fragments, one
                // per planned atom.
                match (&canon, &*plan, strategy) {
                    (Some(canon), CachedPlan::Ucq(ucq), _) => {
                        let planned = |k: usize| &ucq.cqs[k];
                        explain
                            .metrics
                            .renumber(ucq.len(), |k, j| caller_position(planned(k), canon, j));
                    }
                    (Some(canon), _, Strategy::RefScq) => {
                        let caller = |j: usize| canon.atom_map.iter().position(|&m| m == j);
                        explain.metrics.renumber_fragments(caller);
                    }
                    _ => {}
                }
                explain.cover = match (&*plan, strategy) {
                    (CachedPlan::Gcov(result), _) => {
                        explain.explored = result
                            .explored
                            .iter()
                            .map(|(cover, est)| Ok((to_caller(cover)?, *est)))
                            .collect::<Result<_>>()?;
                        Some(to_caller(&result.cover)?)
                    }
                    (_, Strategy::RefScq) => Some(Cover::singletons(cq.size())),
                    (_, Strategy::RefJucq(cover)) => Some(cover.clone()),
                    _ => None,
                };
                // An incomplete profile misses answers by design.
                #[cfg(feature = "strict-invariants")]
                if !matches!(strategy, Strategy::RefIncomplete(_)) {
                    self.check_against_raw_fixpoint(cq, opts, &out, &relation);
                }
                relation
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
                    &mut explain.metrics,
                )?;
                // Every `tc` fact, the explicit ones included (the copy
                // rule derives them), plus every `q` fact.
                explain.datalog_derived = tc.len() + relation.len();
                obs.add("datalog.facts_derived", explain.datalog_derived as u64);
                relation
            }
        };
        let relation = self.decode(relation);
        explain.answers = relation.len();
        let mut answer = QueryAnswer::from_parts(relation, explain);
        answer.explain.wall = start.elapsed();
        Ok(answer)
    }

    /// The plan of `cq` under one of the four complete Ref strategies,
    /// through the plan cache when enabled, with the query it was planned
    /// for when that is not `cq`.
    ///
    /// Through the cache that query is `cq`'s α-canonical form, and a hit
    /// and a miss return the one stored plan: in the canonical variables,
    /// with GCov's covers over the canonical atoms. With the cache off it is
    /// `cq` itself (`None`).
    fn ref_plan(
        &self,
        cq: &Cq,
        strategy: &Strategy,
        opts: &AnswerOptions,
        explain: &mut Explain,
        obs: &Obs,
    ) -> Result<(Arc<CachedPlan>, Option<AlphaCanonical>)> {
        if let Strategy::RefJucq(cover) = strategy {
            // A cover is built for an atom count, not for a query.
            cover.check(cq.size())?;
        }
        let _span = obs.span("answer.plan");
        if !opts.use_cache {
            let identity: Vec<usize> = (0..cq.size()).collect();
            let (tag, span) = plan_tag(strategy, cq, &identity, &opts.limits)?;
            let plan = self.compute_plan(cq, &tag, span, opts, obs)?;
            return Ok((Arc::new(plan), None));
        }
        let canon = alpha_canonicalize(cq);
        let (tag, span) = plan_tag(strategy, &canon.query, &canon.atom_map, &opts.limits)?;
        let key = CacheKey {
            query: canon.query.clone(),
            tag,
            algo: opts.join_algorithm,
        };
        let (schema_epoch, data_epoch) = self.cache_epochs();
        if let Some(plan) = self.pinned_cache_lookup(&key) {
            obs.add("plan_cache.hit", 1);
            explain.cache = Some(self.cache_report(true));
            return Ok((plan, Some(canon)));
        }
        obs.add("plan_cache.miss", 1);
        let computed = self.compute_plan(&key.query, &key.tag, span, opts, obs)?;
        let stored = self
            .cache
            .insert_at(key, computed, schema_epoch, data_epoch);
        explain.cache = Some(self.cache_report(false));
        Ok((stored, Some(canon)))
    }

    /// Pin this database to an epoch pair as the serving layer does when
    /// assembling a snapshot-owned database; tests use it to stage a
    /// lagging reader against a live cache.
    #[cfg(test)]
    fn with_pinned_epochs(mut self, (schema_epoch, data_epoch): (u64, u64)) -> Database {
        self.snapshot = Some(SnapshotInfo::new(0, schema_epoch, data_epoch));
        self
    }

    /// The epochs plans are validated and tagged against: the pinned
    /// snapshot epochs for serving-layer databases, the cache's live epochs
    /// otherwise.
    fn cache_epochs(&self) -> (u64, u64) {
        match self.snapshot {
            Some(info) => (info.schema_epoch(), info.data_epoch()),
            None => (self.cache.schema_epoch(), self.cache.data_epoch()),
        }
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

    /// Plan `cq` from scratch (no cache involvement) for `tag`, inside the
    /// span named `span`.
    fn compute_plan(
        &self,
        cq: &Cq,
        tag: &StrategyTag,
        span: &'static str,
        opts: &AnswerOptions,
        obs: &Obs,
    ) -> Result<CachedPlan> {
        let _span = obs.span(span);
        let ctx = self.rewrite_context();
        // Plans are transported into store id space *here*, so the cache
        // holds encoded plans. That is safe: re-encoding only happens on a
        // schema change, which bumps the cache's schema epoch and strands
        // every stale plan.
        Ok(match tag {
            StrategyTag::Ucq { .. } => {
                CachedPlan::Ucq(self.encode_ucq(reformulate_ucq(cq, &ctx, opts.limits)?))
            }
            StrategyTag::Jucq { cover, .. } => {
                let mut fragments = FragmentCache::new(cq, &ctx, opts.limits).encoded();
                CachedPlan::Jucq(fragments.jucq(cover)?)
            }
            StrategyTag::Gcov { .. } => {
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
        out: &[rdfref_query::Var],
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
            &mut rdfref_storage::ExecMetrics::default(),
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
}

/// The cache tag of `strategy`'s plan for `query`, whose atoms `atom_map`
/// numbers the caller's by, and the name of the span that plans it.
fn plan_tag(
    strategy: &Strategy,
    query: &Cq,
    atom_map: &[usize],
    limits: &ReformulationLimits,
) -> Result<(StrategyTag, &'static str)> {
    Ok(match strategy {
        Strategy::RefUcq => (StrategyTag::ucq(limits), "answer.plan.ucq"),
        Strategy::RefScq => (
            StrategyTag::jucq(Cover::singletons(query.size()), limits),
            "answer.plan.scq",
        ),
        Strategy::RefJucq(cover) => {
            let fragments = cover
                .fragments()
                .iter()
                .map(|f| f.iter().map(|&i| atom_map[i]).collect())
                .collect();
            let cover = Cover::new(fragments, query.size())?;
            (StrategyTag::jucq(cover, limits), "answer.plan.jucq")
        }
        _ => (
            StrategyTag::gcov(&GcovOptions::new().with_limits(*limits)),
            "answer.plan.gcov",
        ),
    })
}

/// `cq`'s name for `v`, a variable of `canon.query`, found at the position
/// `canon.atom_map` pairs with one of `cq`'s. A variable the reformulation
/// introduced has no such position and keeps its name.
fn caller_var(cq: &Cq, canon: &AlphaCanonical, v: &Var) -> Var {
    fn terms(atom: &Atom) -> [&PTerm; 3] {
        [&atom.s, &atom.p, &atom.o]
    }
    let heads = cq.head.iter().zip(&canon.query.head);
    let atoms = cq
        .body
        .iter()
        .zip(&canon.atom_map)
        .flat_map(|(atom, &j)| terms(atom).into_iter().zip(terms(&canon.query.body[j])));
    heads
        .chain(atoms)
        .find_map(|pair| match pair {
            (PTerm::Var(mine), PTerm::Var(planned)) if planned == v => Some(mine.clone()),
            _ => None,
        })
        .unwrap_or_else(|| v.clone())
}

/// The position atom `j` of `planned`, a CQ of the UCQ planned for
/// `canon.query`, takes in the CQ planned for the caller's query: the rank of
/// the caller's atom it rewrites among those that `planned`'s atoms rewrite.
/// An atom rewrites the planned atom at its own position when `planned`
/// keeps one atom per planned atom; in a CQ minimisation shortened, the
/// planned atom it equals (`None` when there is none).
fn caller_position(planned: &Cq, canon: &AlphaCanonical, j: usize) -> Option<usize> {
    let full = planned.body.len() == canon.atom_map.len();
    let rewrites = |j: usize| {
        let at = match full {
            true => j,
            false => canon
                .query
                .body
                .iter()
                .position(|a| *a == planned.body[j])?,
        };
        canon.atom_map.iter().position(|&m| m == at)
    };
    let mine = rewrites(j)?;
    let mut rank = 0;
    for k in 0..planned.body.len() {
        rank += usize::from(rewrites(k)? < mine);
    }
    Some(rank)
}

/// `cover`, over the atoms of the planned query, over the caller's atoms:
/// a planned atom that stands for several repeated caller atoms maps back
/// to all of them.
fn cover_from_plan(cover: &Cover, atom_map: &[usize]) -> Result<Cover> {
    let fragments = cover
        .fragments()
        .iter()
        .map(|f| {
            (0..atom_map.len())
                .filter(|&i| f.binary_search(&atom_map[i]).is_ok())
                .collect()
        })
        .collect();
    Ok(Cover::new(fragments, atom_map.len())?)
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
            .rows();
        // doi1 (explicit Book), doi2 (Novel ⊑ Book ⊑ Publication),
        // doi3 (domain of writtenBy).
        assert_eq!(reference.len(), 3);
        for strategy in all_complete_strategies() {
            let got = db.run_query(&q, &strategy, &opts).unwrap().rows();
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
            .rows();
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
                .rows();
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
            .rows();
        // doi1 and doi3 have writtenBy; types: doi1 ∈ {Book, Publication},
        // doi3 ∈ {Book, Publication} — 4 rows.
        assert_eq!(reference.len(), 4);
        for strategy in all_complete_strategies() {
            let got = db.run_query(&q, &strategy, &opts).unwrap().rows();
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
        // The stored plan answers in the caller's column names, a JUCQ too.
        let y = [rdfref_query::Var::new("y")];
        assert_eq!(hit.relation().columns(), y);
        db.run_query(&q, &Strategy::RefScq, &opts).unwrap();
        let scq = db.run_query(&renamed, &Strategy::RefScq, &opts).unwrap();
        assert_eq!(scq.explain.cache.map(|c| c.hit), Some(true));
        assert_eq!(scq.relation().columns(), y);
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
            let cold = db.run_query(&q, &strategy, &cached).unwrap().rows();
            let warm = db.run_query(&q, &strategy, &cached).unwrap().rows();
            let off = db.run_query(&q, &strategy, &uncached).unwrap().rows();
            assert_eq!(cold, warm, "warm diverged for {}", strategy.name());
            assert_eq!(cold, off, "uncached diverged for {}", strategy.name());
        }
    }

    /// The request builder ends in `run_query`: for every strategy it
    /// returns exactly what `run_query` returns.
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
