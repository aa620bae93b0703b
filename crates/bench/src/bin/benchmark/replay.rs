//! The traced pass: where the time of a request goes, layer by layer.
//!
//! Measured from outside only. For every cell the benchmark replays the
//! answering pipeline itself, calling each layer's public functions in the
//! order `core::answer` does — parse, α-canonicalize, plan-cache lookup or
//! reformulation / cover search, cost estimate, evaluation, decode — with
//! a span around each call. The same request is also run once through the
//! real request API with a per-request `MetricsRegistry`
//! (`collect_metrics`), which supplies the exact `op.*` / `gcov.*` counts
//! and the traced end-to-end latency the tracing overhead is computed from.
//! No file of the engine is touched.

use crate::alloc;
use crate::check::{fingerprint, Fingerprint};
use crate::churn::{read_cell, write_cell, ChurnWorkload, READS_PER_WRITE, READ_STRATEGIES};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{pass_order, Cell, Query, ReadWorkload, Workload, WARMUP_PASSES};
use rdfref_core::cache::{CacheKey, StrategyTag};
use rdfref_core::serving::{ServingDatabase, UpdateBatch};
use rdfref_core::{
    gcov, reformulate_scq, reformulate_ucq, CachedPlan, Database, Explain, GcovOptions,
    MetricsRegistry, Obs, QueryAnswer, ReformulationLimits, RewriteContext, Strategy,
};
use rdfref_model::{Dictionary, EncodedTriple, Graph, HierarchyEncoder, Schema, Term, Triple};
use rdfref_query::canonical::alpha_canonicalize;
use rdfref_query::{parse_select, Cover, Cq, Jucq, Ucq};
use rdfref_reasoning::incremental::IncrementalReasoner;
use rdfref_reasoning::saturate;
use rdfref_storage::evaluator::{head_names, Evaluator};
use rdfref_storage::{
    CostModel, ExecMetrics, JoinAlgorithm, Parallelism, Stats, StatsMaintainer, Store,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Traced passes per run. Every pass does the same work, so per-request
/// counts do not depend on how many there are.
const TRACED_PASSES: usize = 3;

/// `Auto` regrets its pick when the better forced operator's median is
/// faster by more than this share.
const REGRET_MARGIN: f64 = 0.10;

/// Names and units of the per-layer metrics, in report order. Times under
/// the request path are means per traced request of the workload; set-up
/// times are means per replayed set-up; write-path times
/// (`reasoning.insert_ms`, `reasoning.delete_ms`, `storage.apply_delta_ms`,
/// `core.serving.*`) are means per write batch.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("rdf.decode_us", "us"),
    ("rdf.decode.rows", "count"),
    ("rdf.interval_encode_ms", "ms"),
    ("rdf.dictionary.terms", "count"),
    ("query.parse_us", "us"),
    ("query.canonicalize_us", "us"),
    ("reasoning.saturate_ms", "ms"),
    ("reasoning.saturate.derived", "count"),
    ("reasoning.insert_ms", "ms"),
    ("reasoning.delete_ms", "ms"),
    ("reasoning.dred.overdeleted", "count"),
    ("reasoning.dred.rederived", "count"),
    ("storage.store_build_ms", "ms"),
    ("storage.stats_ms", "ms"),
    ("storage.eval_ms", "ms"),
    ("storage.scan.count", "count"),
    ("storage.scan.rows", "count"),
    ("storage.range_scan.count", "count"),
    ("storage.bind_join.rows", "count"),
    ("storage.join.rows", "count"),
    ("storage.union.rows", "count"),
    ("storage.rows_per_answer", "ratio"),
    ("storage.cost.estimate_us", "us"),
    ("storage.wcoj.eval_ms", "ms"),
    ("storage.wcoj.seeks", "count"),
    ("storage.wcoj.next", "count"),
    ("storage.wcoj.rows", "count"),
    ("storage.auto.regret_share", "share"),
    ("storage.apply_delta_ms", "ms"),
    ("storage.apply_delta.shared_bucket_share", "share"),
    ("storage.morsel.eval_ms", "ms"),
    ("storage.morsel.count", "count"),
    ("storage.morsel.workers", "count"),
    ("core.reformulate.ucq_ms", "ms"),
    ("core.reformulate.scq_ms", "ms"),
    ("core.reformulate.cqs", "count"),
    ("core.reformulate.atoms", "count"),
    ("core.gcov.search_ms", "ms"),
    ("core.gcov.covers_explored", "count"),
    ("core.gcov.covers_infeasible", "count"),
    ("core.cache.lookup_us", "us"),
    ("core.cache.hit_share", "share"),
    ("core.cache.invalidations", "count"),
    ("core.answer.self_us", "us"),
    ("core.planning_share", "share"),
    ("core.serving.apply_ms", "ms"),
    ("core.serving.queue_wait_ms", "ms"),
    ("core.serving.snapshot_us", "us"),
    ("core.serving.publishes", "count"),
    ("core.serving.schema_change_ms", "ms"),
    ("datalog.answer_ms", "ms"),
    ("datalog.facts_derived", "count"),
    ("alloc.count_per_request", "count"),
    ("alloc.bytes_per_request", "bytes"),
    ("trace.overhead_share", "share"),
];

/// What a traced run produced.
pub struct TracedRun {
    /// Every [`PER_LAYER`] metric, in that order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Spans of the requests, and of the replayed set-ups.
    pub tracer: Tracer,
    pub setup_tracer: Tracer,
    pub attempted: u64,
    pub failed: u64,
    pub traced_requests: u64,
}

/// What the replay of one request needs to know about its engine.
struct Target<'a> {
    db: &'a Database,
    /// `G∞` store and statistics as replayed by the benchmark (Sat cells);
    /// the engine's own are not public.
    saturated: Option<(&'a Store, &'a Stats)>,
    use_cache: bool,
    limits: ReformulationLimits,
}

enum Plan {
    Ucq(Ucq),
    Jucq(Jucq),
}

fn gcov_options(limits: ReformulationLimits) -> GcovOptions {
    GcovOptions::default().with_limits(limits)
}

/// Plan `cq` from scratch, as `core::answer`'s miss path does.
fn plan_cold(
    t: &mut Tracer,
    target: &Target<'_>,
    cq: &Cq,
    strategy: &Strategy,
) -> Result<Plan, String> {
    let db = target.db;
    let encoder = db.encoder().map(Arc::as_ref);
    let mut ctx = RewriteContext::new(db.schema(), db.closure());
    if let Some(enc) = encoder {
        ctx = ctx.with_encoder(enc);
    }
    let mut encode = |id| encoder.map_or(id, |e| e.encode(id));
    let limits = target.limits;
    match strategy {
        Strategy::RefUcq => t
            .span("core.reformulate.ucq", |_| {
                reformulate_ucq(cq, &ctx, limits).map(|u| u.map_consts(&mut encode))
            })
            .map(Plan::Ucq),
        Strategy::RefScq => t
            .span("core.reformulate.scq", |_| {
                reformulate_scq(cq, &ctx, limits).map(|j| j.map_consts(&mut encode))
            })
            .map(Plan::Jucq),
        Strategy::RefGCov => {
            let model = CostModel::new(db.stats());
            t.span("core.gcov.search", |_| {
                gcov(cq, &ctx, &model, &gcov_options(limits))
            })
            .map(|found| Plan::Jucq(found.jucq))
        }
        other => return Err(format!("no replay for strategy {}", other.name())),
    }
    .map_err(|e| e.to_string())
}

/// The cache key `core::answer` builds for a Ref request.
fn cache_key(
    canonical: &Cq,
    strategy: &Strategy,
    algo: JoinAlgorithm,
    limits: ReformulationLimits,
) -> CacheKey {
    let tag = match strategy {
        Strategy::RefUcq => StrategyTag::ucq(&limits),
        Strategy::RefScq => StrategyTag::jucq(Cover::singletons(canonical.size()), &limits),
        _ => StrategyTag::gcov(&gcov_options(limits)),
    };
    CacheKey {
        query: canonical.clone(),
        tag,
        algo,
    }
}

/// Replay one request layer by layer. `eval_span` names the evaluation span
/// (`storage.wcoj.eval` when the leapfrog executor runs the query).
fn replay(
    t: &mut Tracer,
    target: &Target<'_>,
    scratch: &mut Dictionary,
    query: &Query,
    strategy: &Strategy,
    algo: JoinAlgorithm,
    eval_span: &'static str,
) -> Result<Vec<Vec<Term>>, String> {
    let db = target.db;
    let parsed = t
        .span("query.parse", |_| parse_select(&query.sparql, scratch))
        .map_err(|e| e.to_string())?;
    if parsed.size() != query.cq.size() {
        return Err("the SPARQL rendering does not parse back to the query".to_string());
    }
    let encoder = db.encoder().map(Arc::as_ref);
    let evaluator = |store, stats| {
        let mut ev = Evaluator::new(store, stats);
        ev.join_algorithm = algo;
        ev
    };
    let mut metrics = ExecMetrics::default();

    let relation = if *strategy == Strategy::Saturation {
        let (store, stats) = target
            .saturated
            .ok_or("Sat replay needs the replayed saturation")?;
        let cq = query
            .cq
            .map_consts(&mut |id| encoder.map_or(id, |e| e.encode(id)));
        let out = head_names(&query.cq);
        t.span(eval_span, |_| {
            evaluator(store, stats).eval_cq(&cq, &out, &mut metrics)
        })
    } else {
        // Cached plans live in the α-canonical query's variables; the engine
        // renames them back, the replay evaluates them as they are (same
        // work, same rows).
        let (planned, plan) = if target.use_cache {
            let canon = t.span("query.canonicalize", |_| alpha_canonicalize(&query.cq));
            let hit = t.span("core.cache.lookup", |_| {
                let key = cache_key(&canon.query, strategy, algo, target.limits);
                db.plan_cache().lookup(&key).map(|plan| match &*plan {
                    CachedPlan::Ucq(u) => Plan::Ucq(u.clone()),
                    CachedPlan::Jucq(j) => Plan::Jucq(j.clone()),
                    CachedPlan::Gcov(g) => Plan::Jucq(g.jucq.clone()),
                })
            });
            let plan = match hit {
                Some(plan) => plan,
                None => plan_cold(t, target, &canon.query, strategy)?,
            };
            (canon.query, plan)
        } else {
            let plan = plan_cold(t, target, &query.cq, strategy)?;
            (query.cq.clone(), plan)
        };
        let model = CostModel::new(db.stats());
        let ev = evaluator(db.source(), db.stats());
        match (&plan, strategy) {
            (Plan::Ucq(ucq), _) => {
                t.span("storage.cost.estimate", |_| model.ucq_estimate(ucq));
                let out = head_names(&planned);
                t.span(eval_span, |_| ev.eval_ucq(ucq, &out, &mut metrics))
            }
            (Plan::Jucq(jucq), Strategy::RefScq) => {
                t.span("storage.cost.estimate", |_| model.jucq_estimate(jucq));
                t.span(eval_span, |_| ev.eval_jucq(jucq, &mut metrics))
            }
            // GCov carries the estimate its search computed.
            (Plan::Jucq(jucq), _) => t.span(eval_span, |_| ev.eval_jucq(jucq, &mut metrics)),
        }
    }
    .map_err(|e| e.to_string())?;

    Ok(t.span("rdf.decode", |_| {
        let relation = match encoder {
            Some(enc) => relation.map_values(&mut |id| enc.decode(id)),
            None => relation,
        };
        QueryAnswer::from_parts(relation, Explain::default()).decoded(db.dictionary())
    }))
}

/// Sums over the traced requests that the metrics are derived from.
#[derive(Default)]
struct Tally {
    requests: u64,
    attempted: u64,
    failed: u64,
    answer_rows: u64,
    reformulation_cqs: u64,
    reformulation_atoms: u64,
    /// Per cell, the latency (ns) of each traced real request and of each
    /// untraced baseline request.
    traced_ns: Vec<Vec<f64>>,
    baseline_ns: Vec<Vec<f64>>,
    baseline_allocs: u64,
    baseline_alloc_bytes: u64,
}

impl Tally {
    fn new(cells: usize) -> Tally {
        Tally {
            traced_ns: vec![Vec::new(); cells],
            baseline_ns: vec![Vec::new(); cells],
            ..Tally::default()
        }
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Run one untraced request of `cell` and add it to the baseline.
    fn baseline<T>(&mut self, cell: usize, request: impl FnOnce() -> T) -> T {
        let (allocs, bytes) = alloc::thread_tally();
        let start = Instant::now();
        let value = request();
        let elapsed = start.elapsed();
        let (allocs_after, bytes_after) = alloc::thread_tally();
        self.baseline_ns[cell].push(elapsed.as_nanos() as f64);
        self.baseline_allocs += allocs_after - allocs;
        self.baseline_alloc_bytes += bytes_after - bytes;
        value
    }

    fn explain(&mut self, explain: &Explain) {
        self.answer_rows += explain.answers as u64;
        self.reformulation_cqs += explain.reformulation_cqs as u64;
        self.reformulation_atoms += explain.reformulation_atoms as u64;
    }
}

/// The metric table under construction: every name present, zero until set.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    fn finish(self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, self.0[name], *unit))
            .collect()
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The set-up is replayed this many times.
const SETUP_REPLAYS: u64 = 3;

/// Fill the metrics every workload shares: span time per request, the
/// engine's own counters per request, allocation tallies, overhead. Times
/// are means over the traced requests; counts are exact sums over them.
fn common_metrics(
    layers: &mut Layers,
    tracer: &Tracer,
    setup: &Tracer,
    registry: &MetricsRegistry,
    tally: &Tally,
) {
    let totals = tracer.totals();
    let total_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let requests = tally.requests as f64;
    let per_request = |name: &str, unit_ns: f64| total_ns(name) / unit_ns / requests;

    layers.set("query.parse_us", per_request("query.parse", 1e3));
    layers.set(
        "query.canonicalize_us",
        per_request("query.canonicalize", 1e3),
    );
    layers.set(
        "core.cache.lookup_us",
        per_request("core.cache.lookup", 1e3),
    );
    layers.set(
        "core.reformulate.ucq_ms",
        per_request("core.reformulate.ucq", 1e6),
    );
    layers.set(
        "core.reformulate.scq_ms",
        per_request("core.reformulate.scq", 1e6),
    );
    layers.set("core.gcov.search_ms", per_request("core.gcov.search", 1e6));
    layers.set(
        "storage.cost.estimate_us",
        per_request("storage.cost.estimate", 1e3),
    );
    layers.set(
        "storage.eval_ms",
        per_request("storage.eval", 1e6) + per_request("storage.wcoj.eval", 1e6),
    );
    layers.set(
        "storage.wcoj.eval_ms",
        per_request("storage.wcoj.eval", 1e6),
    );
    layers.set("rdf.decode_us", per_request("rdf.decode", 1e3));

    // What the request costs beyond the layer calls it covers (the parser
    // runs before a request exists, so it is not one of them).
    let covered_ns = total_ns("replay") - total_ns("query.parse");
    layers.set(
        "core.answer.self_us",
        (total_ns("core.answer") - covered_ns).max(0.0) / 1e3 / requests,
    );
    let planning_ns = total_ns("core.reformulate.ucq")
        + total_ns("core.reformulate.scq")
        + total_ns("core.gcov.search")
        + total_ns("storage.cost.estimate");
    layers.set(
        "core.planning_share",
        ratio(planning_ns, total_ns("core.answer")),
    );

    let setup = setup.totals();
    for (metric, span) in [
        ("storage.store_build_ms", "storage.store_build"),
        ("storage.stats_ms", "storage.stats"),
        ("reasoning.saturate_ms", "reasoning.saturate"),
        ("rdf.interval_encode_ms", "rdf.interval_encode"),
    ] {
        let ns = setup.get(span).map_or(0.0, |t| t.total_ns as f64);
        layers.set(metric, ns / 1e6 / SETUP_REPLAYS as f64);
    }

    let snap = registry.snapshot();
    let counter = |name: &str| snap.counter(name) as f64;
    for (metric, name) in [
        ("storage.scan.count", "op.scan.count"),
        ("storage.scan.rows", "op.scan.rows"),
        ("storage.range_scan.count", "op.range_scan.count"),
        ("storage.bind_join.rows", "op.bind_join.rows"),
        ("storage.join.rows", "op.join.rows"),
        ("storage.union.rows", "op.union.rows"),
        ("storage.wcoj.seeks", "op.lfj.seeks"),
        ("storage.wcoj.next", "op.lfj.next"),
        ("storage.wcoj.rows", "op.lfj.rows"),
        ("core.gcov.covers_explored", "gcov.covers_explored"),
        ("core.gcov.covers_infeasible", "gcov.covers_infeasible"),
    ] {
        layers.set(metric, ratio(counter(name), requests));
    }
    let examined =
        counter("op.scan.rows") + counter("op.range_scan.rows") + counter("op.bind_join.rows");
    layers.set(
        "storage.rows_per_answer",
        ratio(examined, tally.answer_rows as f64),
    );
    let (hits, misses) = (counter("plan_cache.hit"), counter("plan_cache.miss"));
    layers.set("core.cache.hit_share", ratio(hits, hits + misses));

    layers.set(
        "core.reformulate.cqs",
        ratio(tally.reformulation_cqs as f64, requests),
    );
    layers.set(
        "core.reformulate.atoms",
        ratio(tally.reformulation_atoms as f64, requests),
    );
    layers.set("rdf.decode.rows", ratio(tally.answer_rows as f64, requests));

    let baseline = tally.baseline_ns.iter().map(Vec::len).sum::<usize>() as f64;
    layers.set(
        "alloc.count_per_request",
        ratio(tally.baseline_allocs as f64, baseline),
    );
    layers.set(
        "alloc.bytes_per_request",
        ratio(tally.baseline_alloc_bytes as f64, baseline),
    );
    // Overhead per cell (median traced over median untraced request), then
    // the median over cells: the p50 of a pooled, heterogeneous sample of a
    // few dozen requests would mostly say which cell sat in the middle.
    let overheads: Vec<f64> = tally
        .traced_ns
        .iter()
        .zip(&tally.baseline_ns)
        .filter(|(traced, untraced)| !traced.is_empty() && !untraced.is_empty())
        .map(|(traced, untraced)| stats::median(traced) / stats::median(untraced) - 1.0)
        .collect();
    if !overheads.is_empty() {
        layers.set("trace.overhead_share", stats::median(&overheads));
    }
}

/// The set-up of one engine replayed through the layers' public functions.
struct ReplayedSetup {
    saturated: Option<(Store, Stats)>,
    derived: usize,
}

fn replay_setup(
    t: &mut Tracer,
    graph: &Graph,
    interval: bool,
    with_saturation: bool,
) -> ReplayedSetup {
    let store = if interval {
        let triples: Vec<EncodedTriple> = t.span("rdf.interval_encode", |_| {
            let schema = Schema::from_graph(graph);
            let closure = schema.closure();
            let encoder = HierarchyEncoder::build(&schema, &closure, graph.dictionary().len());
            graph
                .triples()
                .iter()
                .map(|tr| encoder.encode_triple(tr))
                .collect()
        });
        t.span("storage.store_build", |_| Store::from_triples(&triples))
    } else {
        t.span("storage.store_build", |_| Store::from_graph(graph))
    };
    t.span("storage.stats", |_| Stats::compute(&store));
    if !with_saturation {
        return ReplayedSetup {
            saturated: None,
            derived: 0,
        };
    }
    let closed = t.span("reasoning.saturate", |_| saturate(graph));
    let sat_store = t.span("storage.store_build", |_| Store::from_graph(&closed));
    let sat_stats = t.span("storage.stats", |_| Stats::compute(&sat_store));
    ReplayedSetup {
        derived: closed.len() - graph.len(),
        saturated: Some((sat_store, sat_stats)),
    }
}

impl ReadWorkload {
    /// The real request of the traced pass: same builder calls as
    /// [`ReadWorkload::request`], plus a per-request metrics registry.
    fn traced_answer(
        &self,
        engines: &[Database],
        cell: &Cell,
        registry: &Arc<MetricsRegistry>,
        parallelism: Parallelism,
    ) -> Result<(QueryAnswer, Vec<Vec<Term>>), String> {
        let db = &engines[cell.engine];
        let answer = db
            .query(&self.query(cell).cq)
            .strategy(cell.strategy.clone())
            .join_algorithm(cell.algo)
            .limits(self.limits)
            .use_cache(self.warm_cache)
            .parallelism(parallelism)
            .collect_metrics(registry)
            .run()
            .map_err(|e| e.to_string())?;
        let rows = answer.decoded(db.dictionary());
        Ok((answer, rows))
    }
}

/// `Auto` cells slower than the better of their forced-operator siblings by
/// more than the margin, over `Auto` cells. `cell_ns` is each cell's median
/// untraced latency.
fn auto_regret_share(w: &ReadWorkload, cell_ns: &[f64]) -> f64 {
    let sibling = |cell: &Cell, algo: JoinAlgorithm| {
        w.cells.iter().position(|c| {
            c.engine == cell.engine
                && c.query == cell.query
                && c.strategy == cell.strategy
                && c.algo == algo
        })
    };
    let (mut auto_cells, mut regrets) = (0u32, 0u32);
    for (ci, cell) in w.cells.iter().enumerate() {
        if cell.algo != JoinAlgorithm::Auto {
            continue;
        }
        let (Some(bind), Some(wcoj)) = (
            sibling(cell, JoinAlgorithm::BindJoin),
            sibling(cell, JoinAlgorithm::Wcoj),
        ) else {
            continue;
        };
        let best_forced = cell_ns[bind].min(cell_ns[wcoj]);
        auto_cells += 1;
        regrets += u32::from(cell_ns[ci] > best_forced * (1.0 + REGRET_MARGIN));
    }
    ratio(f64::from(regrets), f64::from(auto_cells))
}

/// The heaviest cells once more under `Parallelism::Morsels`, to predict what
/// making morsels the default would do to the tail.
fn morsel_rerun(
    w: &ReadWorkload,
    engines: &[Database],
    expected: &[Fingerprint],
    cell_ns: &[f64],
    tally: &mut Tally,
    layers: &mut Layers,
) {
    let mut heaviest: Vec<usize> = (0..w.cells.len()).collect();
    heaviest.sort_by(|a, b| cell_ns[*b].total_cmp(&cell_ns[*a]));
    let morsel_registry = Arc::new(MetricsRegistry::new());
    let mut morsel_ns = Vec::new();
    for &ci in heaviest.iter().take(w.morsel_cells) {
        let start = Instant::now();
        let result = w.traced_answer(
            engines,
            &w.cells[ci],
            &morsel_registry,
            Parallelism::morsels(),
        );
        morsel_ns.push(start.elapsed().as_nanos() as f64);
        tally.check(result.is_ok_and(|(_, rows)| fingerprint(&rows) == expected[ci]));
    }
    if !morsel_ns.is_empty() {
        let snap = morsel_registry.snapshot();
        let runs = morsel_ns.len() as f64;
        layers.set(
            "storage.morsel.eval_ms",
            morsel_ns.iter().sum::<f64>() / 1e6 / runs,
        );
        layers.set(
            "storage.morsel.count",
            snap.counter("op.morsel.count") as f64 / runs,
        );
        layers.set(
            "storage.morsel.workers",
            snap.counter("op.morsel.workers") as f64 / runs,
        );
    }
}

/// Dat, the paper's Datalog column, on the queries (of engine 0's dataset)
/// the workload names.
fn datalog_column(
    w: &ReadWorkload,
    engines: &[Database],
    expected: &[Fingerprint],
    tracer: &mut Tracer,
    tally: &mut Tally,
    layers: &mut Layers,
) {
    let (mut dat_ns, mut dat_derived) = (Vec::new(), 0usize);
    for &qi in &w.datalog_queries {
        let db = &engines[0];
        let query = &w.datasets[w.engines[0].dataset].queries[qi];
        let cell = w.cells.iter().position(|c| c.engine == 0 && c.query == qi);
        tracer.set_request(0);
        let answer = tracer.span("datalog.answer", |_| {
            db.query(&query.cq).strategy(Strategy::Datalog).run()
        });
        dat_ns.push(tracer.last_ns("datalog.answer").expect("just closed") as f64);
        tally.check(answer.is_ok_and(|a| {
            dat_derived += a.explain.datalog_derived;
            cell.is_some_and(|ci| fingerprint(&a.decoded(db.dictionary())) == expected[ci])
        }));
    }
    if !dat_ns.is_empty() {
        let runs = dat_ns.len() as f64;
        layers.set("datalog.answer_ms", dat_ns.iter().sum::<f64>() / 1e6 / runs);
        layers.set("datalog.facts_derived", dat_derived as f64 / runs);
    }
}

/// The traced run of a read-only workload.
pub fn run_traced(w: &ReadWorkload) -> TracedRun {
    let expected = w.expected();
    let mut tracer = Tracer::new();
    let mut tally = Tally::new(w.cells.len());
    let mut layers = Layers::new();
    let registry = Arc::new(MetricsRegistry::new());

    // Set-up, replayed per engine; the saturations serve the Sat replays.
    let mut setup_tracer = Tracer::new();
    let mut replayed: Vec<ReplayedSetup> = Vec::new();
    for round in 1..=SETUP_REPLAYS {
        setup_tracer.set_request(round);
        replayed = w
            .engines
            .iter()
            .map(|spec| {
                replay_setup(
                    &mut setup_tracer,
                    &w.datasets[spec.dataset].graph,
                    spec.encoding == rdfref_model::DictEncoding::Interval,
                    spec.saturate,
                )
            })
            .collect();
    }
    layers.set(
        "reasoning.saturate.derived",
        replayed.iter().map(|r| r.derived).sum::<usize>() as f64,
    );

    let engines = w.setup(1, None).engine;
    layers.set(
        "rdf.dictionary.terms",
        engines
            .iter()
            .map(|db| db.dictionary().len())
            .sum::<usize>() as f64,
    );
    let mut scratch: Vec<Dictionary> = engines.iter().map(|db| db.dictionary().clone()).collect();
    let invalidations_before = engines
        .iter()
        .map(|db| db.plan_cache().counters().invalidations)
        .sum::<u64>();

    for pass in 0..WARMUP_PASSES {
        for ci in pass_order(w.cells.len(), w.seed, pass) {
            let _ = w.request(&engines, &w.cells[ci]);
        }
    }

    // Each traced pass is three passes over the cells: untraced requests
    // (the baseline for the overhead share, the allocation tallies and the
    // per-cell medians), real requests reporting to the registry, then the
    // replays. Baseline and traced passes alternate so that whatever drifts
    // over the run drifts under both; real requests and replays are not
    // interleaved per cell so that the real ones run under the baseline's
    // cache conditions.
    let mut ran_wcoj = vec![false; w.cells.len()];
    for pass in 0..TRACED_PASSES {
        // The real request of a cell and its replay share an identifier.
        let request_id = |cell: usize| (pass * w.cells.len() + cell + 1) as u64;
        let order = pass_order(w.cells.len(), w.seed, WARMUP_PASSES + pass);
        for &ci in &order {
            let result = tally.baseline(ci, || w.request(&engines, &w.cells[ci]));
            tally.check(result.is_ok_and(|rows| rows.len() == expected[ci].rows));
        }
        for &ci in &order {
            let cell = &w.cells[ci];
            tracer.set_request(request_id(ci));
            tally.requests += 1;
            let seeks_before = registry.snapshot().counter("op.lfj.seeks");
            let real = tracer.span("core.answer", |_| {
                w.traced_answer(&engines, cell, &registry, Parallelism::Off)
            });
            tally.traced_ns[ci].push(tracer.last_ns("core.answer").expect("just closed") as f64);
            // The leapfrog executor ran (for at least one CQ of the plan)
            // iff the request moved its seek counter.
            ran_wcoj[ci] = registry.snapshot().counter("op.lfj.seeks") > seeks_before;
            match real {
                Ok((answer, rows)) => {
                    tally.explain(&answer.explain);
                    tally.check(fingerprint(&rows) == expected[ci]);
                }
                Err(_) => tally.check(false),
            }
        }
        for &ci in &order {
            let cell = &w.cells[ci];
            tracer.set_request(request_id(ci));
            let target = Target {
                db: &engines[cell.engine],
                saturated: replayed[cell.engine]
                    .saturated
                    .as_ref()
                    .map(|(store, stats)| (store, stats)),
                use_cache: w.warm_cache,
                limits: w.limits,
            };
            let eval_span = if ran_wcoj[ci] {
                "storage.wcoj.eval"
            } else {
                "storage.eval"
            };
            let replayed_rows = tracer.span("replay", |t| {
                replay(
                    t,
                    &target,
                    &mut scratch[cell.engine],
                    w.query(cell),
                    &cell.strategy,
                    cell.algo,
                    eval_span,
                )
            });
            // Every step of every cell is reachable through public
            // functions, so a replay that fails is a failure.
            tally.check(replayed_rows.is_ok_and(|rows| fingerprint(&rows) == expected[ci]));
        }
    }
    let cell_ns: Vec<f64> = tally
        .baseline_ns
        .iter()
        .map(|ns| stats::median(ns))
        .collect();
    common_metrics(&mut layers, &tracer, &setup_tracer, &registry, &tally);
    layers.set(
        "core.cache.invalidations",
        (engines
            .iter()
            .map(|db| db.plan_cache().counters().invalidations)
            .sum::<u64>()
            - invalidations_before) as f64,
    );

    layers.set("storage.auto.regret_share", auto_regret_share(w, &cell_ns));
    morsel_rerun(w, &engines, &expected, &cell_ns, &mut tally, &mut layers);
    datalog_column(w, &engines, &expected, &mut tracer, &mut tally, &mut layers);

    TracedRun {
        metrics: layers.finish(),
        tracer,
        setup_tracer,
        attempted: tally.attempted,
        failed: tally.failed,
        traced_requests: tally.requests,
    }
}

/// The write path replayed beside the serving engine: the benchmark's own
/// reasoner, copy-on-write stores and statistics, fed the same batches in
/// the same order, so its saturated store is also what the Sat replays
/// evaluate against.
struct WritePath {
    reasoner: IncrementalReasoner,
    explicit: Store,
    saturated: Store,
    saturated_stats: Stats,
    maintainer: StatsMaintainer,
    shared_buckets: f64,
    buckets: f64,
}

impl WritePath {
    fn new(t: &mut Tracer, graph: &Graph, obs: Obs) -> WritePath {
        let mut reasoner = t.span("reasoning.saturate", |_| {
            IncrementalReasoner::new(graph.clone())
        });
        reasoner.set_obs(obs);
        let explicit = t.span("storage.store_build", |_| {
            Store::from_graph(reasoner.explicit())
        });
        let saturated = t.span("storage.store_build", |_| {
            Store::from_graph(reasoner.saturated())
        });
        t.span("storage.stats", |_| Stats::compute(&explicit));
        let saturated_stats = t.span("storage.stats", |_| Stats::compute(&saturated));
        let maintainer = StatsMaintainer::from_store(&saturated);
        WritePath {
            reasoner,
            explicit,
            saturated,
            saturated_stats,
            maintainer,
            shared_buckets: 0.0,
            buckets: 0.0,
        }
    }

    fn apply(&mut self, t: &mut Tracer, batch: &[Triple], insert: bool) {
        let encoded: Vec<EncodedTriple> = batch
            .iter()
            .map(|tr| {
                self.reasoner
                    .intern_triple(&tr.subject, &tr.property, &tr.object)
            })
            .collect();
        let delta = if insert {
            t.span("reasoning.insert", |_| self.reasoner.insert_batch(&encoded))
        } else {
            t.span("reasoning.delete", |_| self.reasoner.delete_batch(&encoded))
        };
        let (explicit, saturated) = t.span("storage.apply_delta", |_| {
            (
                self.explicit
                    .apply_delta(&delta.explicit_added, &delta.explicit_removed),
                self.saturated
                    .apply_delta(&delta.saturation_added, &delta.saturation_removed),
            )
        });
        self.shared_buckets += (explicit.shared_buckets_with(&self.explicit)
            + saturated.shared_buckets_with(&self.saturated)) as f64;
        self.buckets += (explicit.bucket_count() + saturated.bucket_count()) as f64;
        self.saturated_stats = t.span("storage.stats_maintain", |_| {
            self.maintainer.apply(
                &self.saturated_stats,
                &saturated,
                &delta.saturation_added,
                &delta.saturation_removed,
            )
        });
        self.explicit = explicit;
        self.saturated = saturated;
    }
}

/// The traced run of `churn`.
pub fn run_traced_churn(w: &ChurnWorkload) -> TracedRun {
    let base = w.expected();
    let mut tracer = Tracer::new();
    let mut tally = Tally::new(w.cell_names().len());
    let mut layers = Layers::new();
    let registry = Arc::new(MetricsRegistry::new());
    let obs = || Obs::collecting(Arc::clone(&registry) as Arc<dyn rdfref_obs::Recorder>);

    // The replayed reasoner reports its DRed counts to a registry of its own.
    let path_registry = Arc::new(MetricsRegistry::new());
    let mut setup_tracer = Tracer::new();
    let mut path = None;
    for round in 1..=SETUP_REPLAYS {
        setup_tracer.set_request(round);
        path = Some(WritePath::new(
            &mut setup_tracer,
            &w.dataset.graph,
            Obs::collecting(Arc::clone(&path_registry) as Arc<dyn rdfref_obs::Recorder>),
        ));
    }
    let mut path = path.expect("at least one set-up replay");
    layers.set(
        "reasoning.saturate.derived",
        (path.reasoner.saturated().len() - path.reasoner.explicit().len()) as f64,
    );

    // The untraced baseline runs on an engine without observability.
    let plain = w.setup(1, None).engine;
    let baseline_pass = |tally: &mut Tally, measured: bool| {
        for (round, batch) in w.batches.iter().enumerate() {
            for (half, insert) in [true, false].into_iter().enumerate() {
                if measured {
                    let (_, ok) =
                        tally.baseline(write_cell(insert), || w.write(&plain, batch, insert));
                    tally.check(ok);
                } else {
                    let _ = w.write(&plain, batch, insert);
                }
                let reads = &w.schedule[(round * 2 + half) * READS_PER_WRITE..][..READS_PER_WRITE];
                for &(qi, si) in reads {
                    let strategy = &READ_STRATEGIES[si];
                    if measured {
                        let result =
                            tally.baseline(read_cell(qi, si), || w.read(&plain, qi, strategy));
                        tally.check(result.is_ok_and(|rows| rows.len() >= base[qi].rows));
                    } else {
                        let _ = w.read(&plain, qi, strategy);
                    }
                }
            }
        }
    };
    for _ in 0..WARMUP_PASSES {
        baseline_pass(&mut tally, false);
    }

    // Traced passes on an engine whose every layer reports to the registry.
    let db: ServingDatabase = rdfref_core::Database::builder()
        .obs(obs())
        .build_serving(w.dataset.graph.clone());
    // One warm-up round interns the batch terms on both sides, then the
    // scratch dictionary for the parser replay is final.
    for batch in &w.batches {
        for insert in [true, false] {
            let _ = w.write(&db, batch, insert);
            path.apply(&mut Tracer::new(), batch, insert);
        }
    }
    let mut scratch = db.snapshot().dictionary().clone();
    registry.reset();
    path_registry.reset();
    path.shared_buckets = 0.0;
    path.buckets = 0.0;
    let invalidations_before = db.plan_cache().counters().invalidations;

    // Apply and queue wait as the engine's batch reports give them.
    let (mut apply_ns, mut queue_ns) = (0.0, 0.0);
    let mut writes = 0u64;
    let mut request_id = 0u64;
    for _ in 0..TRACED_PASSES {
        // Baseline and traced passes alternate, as for the read workloads.
        baseline_pass(&mut tally, true);
        for (round, batch) in w.batches.iter().enumerate() {
            for (half, insert) in [true, false].into_iter().enumerate() {
                // The write: replayed on the benchmark's own write path
                // (separate data, so it warms nothing of the engine's), then
                // the real submit + wait.
                request_id += 1;
                tracer.set_request(request_id);
                tally.requests += 1;
                writes += 1;
                tracer.span("replay", |t| path.apply(t, batch, insert));
                let update = if insert {
                    UpdateBatch::inserting(batch.clone())
                } else {
                    UpdateBatch::deleting(batch.clone())
                };
                let report = tracer.span("core.answer", |_| {
                    db.submit(update).and_then(|ticket| ticket.wait())
                });
                tally.traced_ns[write_cell(insert)]
                    .push(tracer.last_ns("core.answer").expect("just closed") as f64);
                match report {
                    Ok(r) => {
                        apply_ns += r.apply_wall().as_nanos() as f64;
                        // `BatchReport::queue_wait` is read after the batch
                        // is applied, so it contains `apply_wall`.
                        let waited = r.queue_wait().saturating_sub(r.apply_wall());
                        queue_ns += waited.as_nanos() as f64;
                        let changed = if insert {
                            r.explicit_added()
                        } else {
                            r.explicit_removed()
                        };
                        tally.check(changed == batch.len());
                    }
                    Err(_) => tally.check(false),
                }

                // The reads on the fresh snapshot: all replays first (their
                // cache lookups must see what the real requests will see,
                // i.e. the GCov plans the write just made stale), then the
                // real requests back to back as in the baseline.
                let reads = &w.schedule[(round * 2 + half) * READS_PER_WRITE..][..READS_PER_WRITE];
                let snapshot = db.snapshot();
                let target = Target {
                    db: snapshot.database(),
                    saturated: Some((&path.saturated, &path.saturated_stats)),
                    use_cache: true,
                    limits: ReformulationLimits::default(),
                };
                let mut replayed = Vec::with_capacity(reads.len());
                for (i, &(qi, si)) in reads.iter().enumerate() {
                    tracer.set_request(request_id + 1 + i as u64);
                    replayed.push(tracer.span("replay", |t| {
                        replay(
                            t,
                            &target,
                            &mut scratch,
                            &w.dataset.queries[qi],
                            &READ_STRATEGIES[si],
                            JoinAlgorithm::BindJoin,
                            "storage.eval",
                        )
                    }));
                }
                for (&(qi, si), replayed) in reads.iter().zip(replayed) {
                    request_id += 1;
                    tracer.set_request(request_id);
                    tally.requests += 1;
                    let current = tracer.span("core.serving.snapshot", |_| db.snapshot());
                    let real = tracer.span("core.answer", |_| {
                        current
                            .query(&w.dataset.queries[qi].cq)
                            .strategy(READ_STRATEGIES[si].clone())
                            .run()
                            .map(|a| {
                                let rows = a.decoded(current.dictionary());
                                (a, rows)
                            })
                    });
                    tally.traced_ns[read_cell(qi, si)]
                        .push(tracer.last_ns("core.answer").expect("just closed") as f64);
                    let real_fp = match real {
                        Ok((answer, rows)) => {
                            tally.explain(&answer.explain);
                            Some(fingerprint(&rows))
                        }
                        Err(_) => None,
                    };
                    // Post-delete reads must equal base; the replay (which
                    // evaluates Sat on the benchmark's own saturation) must
                    // agree with the engine on every snapshot.
                    tally.check(real_fp.is_some_and(|fp| insert || fp == base[qi]));
                    tally.check(replayed.is_ok_and(|rows| Some(fingerprint(&rows)) == real_fp));
                }
            }
        }
    }

    let snap = registry.snapshot();
    common_metrics(&mut layers, &tracer, &setup_tracer, &registry, &tally);
    // Write-path times are means per span, i.e. per write batch.
    let totals = tracer.totals();
    let per_span = |name: &str, unit_ns: f64| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / unit_ns / t.count as f64)
    };
    layers.set("reasoning.insert_ms", per_span("reasoning.insert", 1e6));
    layers.set("reasoning.delete_ms", per_span("reasoning.delete", 1e6));
    layers.set(
        "storage.apply_delta_ms",
        per_span("storage.apply_delta", 1e6),
    );
    layers.set(
        "storage.apply_delta.shared_bucket_share",
        ratio(path.shared_buckets, path.buckets),
    );
    let deletes = (writes / 2) as f64;
    let path_snap = path_registry.snapshot();
    layers.set(
        "reasoning.dred.overdeleted",
        ratio(path_snap.counter("dred.overdeleted") as f64, deletes),
    );
    layers.set(
        "reasoning.dred.rederived",
        ratio(path_snap.counter("dred.rederived") as f64, deletes),
    );
    layers.set(
        "core.serving.apply_ms",
        ratio(apply_ns / 1e6, writes as f64),
    );
    layers.set(
        "core.serving.queue_wait_ms",
        ratio(queue_ns / 1e6, writes as f64),
    );
    layers.set(
        "core.serving.snapshot_us",
        per_span("core.serving.snapshot", 1e3),
    );
    layers.set(
        "core.serving.publishes",
        ratio(snap.counter("serving.publish") as f64, writes as f64),
    );
    layers.set(
        "core.cache.invalidations",
        ratio(
            (db.plan_cache().counters().invalidations - invalidations_before) as f64,
            writes as f64,
        ),
    );
    layers.set("rdf.dictionary.terms", scratch.len() as f64);

    // One schema change: a new superclass of GraduateStudent, then its
    // retraction — the resaturation + schema-epoch path.
    let schema_triple = Triple::new_unchecked(
        Term::iri(format!("{}GraduateStudent", rdfref_datagen::lubm::UB)),
        Term::iri(rdfref_model::vocab::RDFS_SUBCLASSOF),
        Term::iri("http://churn.example.org/BenchmarkClass"),
    );
    let schema_start = Instant::now();
    for update in [
        UpdateBatch::inserting(vec![schema_triple.clone()]),
        UpdateBatch::deleting(vec![schema_triple]),
    ] {
        let report = db.submit(update).and_then(|ticket| ticket.wait());
        tally.check(report.is_ok_and(|r| r.schema_changed()));
    }
    layers.set(
        "core.serving.schema_change_ms",
        schema_start.elapsed().as_nanos() as f64 / 1e6,
    );
    for (qi, expected) in base.iter().enumerate() {
        let result = w.read(&db, qi, &Strategy::RefGCov);
        tally.check(result.is_ok_and(|rows| fingerprint(&rows) == *expected));
    }

    TracedRun {
        metrics: layers.finish(),
        tracer,
        setup_tracer,
        attempted: tally.attempted,
        failed: tally.failed,
        traced_requests: tally.requests,
    }
}
