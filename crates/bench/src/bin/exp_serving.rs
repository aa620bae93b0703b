//! E10 — snapshot-isolated serving: reader throughput under live churn.
//!
//! The server scenario the serving layer exists for: queries keep arriving
//! while update batches are applied. Readers take lock-free snapshots of a
//! [`ServingDatabase`]; a churn writer continuously deletes and reinserts a
//! pool of data triples (a fixed fraction of the dataset) through the
//! single-writer maintenance pipeline. For every (reader threads × churn
//! level) cell this measures aggregate answered-queries-per-second over a
//! fixed window.
//!
//! The claim under test: readers are isolated from maintenance. Concretely,
//! 16-thread throughput under 10 % churn must stay within 2× of the same
//! readers with the writer idle (enforced unless `EXP_SERVING_ASSERT=0`).
//!
//! Scale via `EXP_SCALE` (default 1), window via `EXP_SERVING_MS`
//! (default 400 ms per cell). `--metrics-out <path>` additionally captures
//! the serving pipeline's own metrics (publish counts, snapshot age, batch
//! latencies, reader epoch lag) plus one `bench.serving.qps.*` gauge per
//! cell; the committed `BENCH_serving.json` is this experiment's artifact.

use rdfref_bench::report::Table;
use rdfref_bench::MetricsSink;
use rdfref_core::answer::{Database, Strategy};
use rdfref_core::serving::{ServingDatabase, UpdateBatch};
use rdfref_datagen::lubm::{generate, LubmConfig};
use rdfref_datagen::queries::{self, zipfian_schedule};
use rdfref_model::{vocab, Term, Triple};
use rdfref_obs::Recorder;
use rdfref_query::Cq;
use rdfref_storage::Parallelism;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Counting allocator: a thread-local tally of heap allocations on top of
/// the system allocator. Reader threads snapshot their own counter around
/// the measurement window, so each cell can report allocations-per-query
/// per thread — a second axis (besides qps) on which snapshot readers must
/// stay flat under churn. The counter is a `const`-initialized `Cell<u64>`:
/// no allocation and no TLS destructor, so it is safe to touch from inside
/// the allocator itself.
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

#[inline]
fn bump_thread_allocs() {
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump_thread_allocs();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump_thread_allocs();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump_thread_allocs();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const CHURN_PCT: &[usize] = &[0, 1, 10];
const CHURN_BATCH: usize = 64;
/// Zipf exponent of the reader query mix (≈1 matches endpoint logs).
const ZIPF_SKEW: f64 = 1.0;

/// Gauge names must be `&'static str`: look one up by (threads, churn).
/// Non-standard `--threads` values simply record no per-cell gauge.
fn qps_gauge(threads: usize, churn_pct: usize) -> Option<&'static str> {
    match (threads, churn_pct) {
        (1, 0) => Some("bench.serving.qps.t1.churn0"),
        (1, 1) => Some("bench.serving.qps.t1.churn1"),
        (1, 10) => Some("bench.serving.qps.t1.churn10"),
        (4, 0) => Some("bench.serving.qps.t4.churn0"),
        (4, 1) => Some("bench.serving.qps.t4.churn1"),
        (4, 10) => Some("bench.serving.qps.t4.churn10"),
        (16, 0) => Some("bench.serving.qps.t16.churn0"),
        (16, 1) => Some("bench.serving.qps.t16.churn1"),
        (16, 10) => Some("bench.serving.qps.t16.churn10"),
        _ => None,
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// `--threads N` caps the reader-thread ladder: the ladder is [1, N]
/// instead of the default [1, 4, 16]. Used by the CI smoke run.
fn arg_threads() -> Option<usize> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            return args.next().and_then(|s| s.parse().ok());
        } else if let Some(v) = arg.strip_prefix("--threads=") {
            return v.parse().ok();
        }
    }
    None
}

/// Data triples (no RDFS constraints) eligible for churn: deleting one is a
/// DRed maintenance step, not a schema change, so the plan cache's schema
/// epoch stays put while the data epoch advances.
fn churn_pool(graph: &rdfref_model::Graph, pct: usize) -> Vec<Triple> {
    if pct == 0 {
        return Vec::new();
    }
    let data: Vec<Triple> = graph
        .iter_decoded()
        .filter(|t| match &t.property {
            Term::Iri(iri) => !vocab::is_rdfs_constraint_property(iri),
            _ => true,
        })
        .collect();
    let want = (data.len() * pct / 100).max(CHURN_BATCH);
    data.into_iter().take(want).collect()
}

/// One measurement cell: `threads` readers hammer snapshots for `window`
/// while (optionally) a churn writer cycles `pool` through delete+reinsert
/// batches, pacing itself on tickets so the queue stays bounded. Returns
/// (total answered queries, observed qps, batches applied).
fn run_cell(
    db: &Arc<ServingDatabase>,
    queries: &[(String, Cq)],
    threads: usize,
    pool: &[Triple],
    window: Duration,
) -> CellStats {
    let stop = Arc::new(AtomicBool::new(false));
    let answered = Arc::new(AtomicU64::new(0));
    let batches = Arc::new(AtomicU64::new(0));
    // (allocations, queries) per reader thread, for the per-thread report.
    let reader_allocs: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));

    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let db = Arc::clone(db);
            let stop = Arc::clone(&stop);
            let answered = Arc::clone(&answered);
            let reader_allocs = Arc::clone(&reader_allocs);
            scope.spawn(move || {
                // A Zipfian-skewed query schedule (seeded per thread) and
                // alternating strategies: the head query dominates like in
                // real endpoint logs, so the plan cache and the sharded
                // scatter-gather paths see realistic reuse.
                let schedule = zipfian_schedule(queries.len(), 4096, ZIPF_SKEW, 0xE10 + t as u64);
                let strategies = [Strategy::Saturation, Strategy::RefUcq];
                let mut i = t;
                let mut mine = 0u64;
                let allocs_before = thread_allocs();
                while !stop.load(Ordering::Acquire) {
                    let (name, q) = &queries[schedule[i % schedule.len()]];
                    let snap = db.snapshot();
                    let ans = snap
                        .query(q)
                        .strategy(strategies[i % 2].clone())
                        .run()
                        .unwrap_or_else(|e| panic!("{name} failed: {e}"));
                    assert!(
                        ans.explain.snapshot.is_some(),
                        "{name}: answer lost its snapshot stamp"
                    );
                    answered.fetch_add(1, Ordering::Relaxed);
                    mine += 1;
                    i += 1;
                }
                let delta = thread_allocs() - allocs_before;
                reader_allocs.lock().unwrap().push((delta, mine));
            });
        }
        if !pool.is_empty() {
            let db = Arc::clone(db);
            let stop = Arc::clone(&stop);
            let batches = Arc::clone(&batches);
            scope.spawn(move || {
                let mut offset = 0usize;
                while !stop.load(Ordering::Acquire) {
                    let end = (offset + CHURN_BATCH).min(pool.len());
                    let chunk = pool[offset..end].to_vec();
                    offset = if end == pool.len() { 0 } else { end };
                    // Delete then reinsert: net zero over a full cycle, so
                    // every cell starts from the same logical state. Waiting
                    // on the reinsert ticket paces the writer to the
                    // pipeline's real maintenance speed.
                    let del = db
                        .submit(UpdateBatch::deleting(chunk.clone()))
                        .expect("serving pipeline alive");
                    let ins = db
                        .submit(UpdateBatch::inserting(chunk))
                        .expect("serving pipeline alive");
                    drop(del);
                    let _ = ins.wait().expect("serving pipeline alive");
                    batches.fetch_add(2, Ordering::Relaxed);
                }
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Release);
    });
    let elapsed = started.elapsed();
    let total = answered.load(Ordering::Relaxed);
    let per_thread = Arc::try_unwrap(reader_allocs)
        .expect("all readers joined")
        .into_inner()
        .unwrap();
    let total_allocs: u64 = per_thread.iter().map(|&(a, _)| a).sum();
    let per_query = |&(a, q): &(u64, u64)| if q == 0 { 0.0 } else { a as f64 / q as f64 };
    let apq_min = per_thread
        .iter()
        .map(per_query)
        .fold(f64::INFINITY, f64::min);
    let apq_max = per_thread.iter().map(per_query).fold(0.0, f64::max);
    CellStats {
        answered: total,
        qps: total as f64 / elapsed.as_secs_f64(),
        maint_batches: batches.load(Ordering::Relaxed),
        allocs_per_query: if total == 0 {
            0.0
        } else {
            total_allocs as f64 / total as f64
        },
        allocs_per_query_min: if apq_min.is_finite() { apq_min } else { 0.0 },
        allocs_per_query_max: apq_max,
    }
}

/// One cell's measurements: reader throughput plus the per-thread heap
/// allocation profile (min/mean/max allocations per answered query).
struct CellStats {
    answered: u64,
    qps: f64,
    maint_batches: u64,
    allocs_per_query: f64,
    allocs_per_query_min: f64,
    allocs_per_query_max: f64,
}

/// `bench.serving.modelcheck.schedules` ties the throughput artifact to
/// the verification artifact: how many schedules of the publication
/// protocol the model checker explored for the code this binary is
/// benchmarking. With the `model-check` feature the suite actually runs
/// (a few seconds, deterministic); without it the gauge records 0 so the
/// metric exists in every artifact and dashboards can alert on it.
#[cfg(feature = "model-check")]
fn record_modelcheck_coverage(sink: &MetricsSink) {
    let suite = rdfref_core::protocol_models::run_all();
    let failures = suite.failures().len();
    eprintln!(
        "model-check coverage: {} schedules, {} violation(s)",
        suite.total_schedules(),
        failures,
    );
    sink.registry.gauge_set(
        "bench.serving.modelcheck.schedules",
        suite.total_schedules(),
    );
    sink.registry
        .gauge_set("bench.serving.modelcheck.violations", failures as u64);
}

#[cfg(not(feature = "model-check"))]
fn record_modelcheck_coverage(sink: &MetricsSink) {
    eprintln!("model-check coverage: not built with --features model-check; recording 0 schedules");
    sink.registry
        .gauge_set("bench.serving.modelcheck.schedules", 0);
}

fn main() {
    let scale = env_usize("EXP_SCALE", 1);
    let window = Duration::from_millis(env_usize("EXP_SERVING_MS", 400) as u64);
    let shards = env_usize("EXP_SERVING_SHARDS", 1).max(1);
    let morsels = env_usize("EXP_SERVING_MORSELS", 0);
    let reader_threads: Vec<usize> = match arg_threads() {
        Some(1) => vec![1],
        Some(n) => vec![1, n],
        None => vec![1, 4, 16],
    };
    let sink = MetricsSink::from_args();

    eprintln!("generating LUBM-like dataset (scale {scale})…");
    let ds = generate(&LubmConfig::scale(scale));
    let pools: Vec<Vec<Triple>> = CHURN_PCT
        .iter()
        .map(|&pct| churn_pool(&ds.graph, pct))
        .collect();

    // Two queries with stable, non-empty answers keep the readers honest
    // without turning the cell into a reformulation benchmark.
    let mix = queries::lubm_mix(&ds).expect("workload is well-formed");
    let queries: Vec<(String, Cq)> = mix
        .into_iter()
        .filter(|nq| nq.cq.size() <= 2)
        .take(3)
        .map(|nq| (nq.name.to_string(), nq.cq))
        .collect();
    assert!(!queries.is_empty(), "LUBM mix has no small queries");

    eprintln!(
        "serving database: saturating {} explicit triples ({} shard(s))…",
        ds.graph.len(),
        shards,
    );
    let db = Arc::new(
        Database::builder()
            .obs(sink.obs())
            .parallelism(if morsels > 0 {
                Parallelism::Morsels { size: morsels }
            } else {
                Parallelism::Off
            })
            .shards(shards)
            .build_serving(ds.graph.clone()),
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    sink.registry.gauge_set("bench.serving.cores", cores as u64);
    sink.registry
        .gauge_set("bench.serving.shards", shards as u64);
    record_modelcheck_coverage(&sink);

    let mut table = Table::new(
        format!(
            "E10 — serving throughput under churn ({} triples, {}-triple batches, {:?} window, {} shard(s), {} core(s))",
            ds.graph.len(),
            CHURN_BATCH,
            window,
            shards,
            cores,
        ),
        &[
            "readers",
            "churn",
            "queries",
            "qps",
            "allocs/q",
            "allocs/q per-thread",
            "maint batches",
            "vs 0%",
        ],
    );

    // qps[threads index][churn index]
    let mut qps = vec![vec![0f64; CHURN_PCT.len()]; reader_threads.len()];
    for (ti, &threads) in reader_threads.iter().enumerate() {
        for (ci, &pct) in CHURN_PCT.iter().enumerate() {
            let cell = run_cell(&db, &queries, threads, &pools[ci], window);
            qps[ti][ci] = cell.qps;
            if let Some(gauge) = qps_gauge(threads, pct) {
                sink.registry.gauge_set(gauge, cell.qps as u64);
            }
            let vs_zero = cell.qps / qps[ti][0].max(1e-9);
            table.row(&[
                threads.to_string(),
                format!("{pct}%"),
                cell.answered.to_string(),
                format!("{:.0}", cell.qps),
                format!("{:.0}", cell.allocs_per_query),
                format!(
                    "{:.0}–{:.0}",
                    cell.allocs_per_query_min, cell.allocs_per_query_max
                ),
                cell.maint_batches.to_string(),
                format!("{:.2}×", vs_zero),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "final state: published seq {} (every applied batch reached a snapshot)",
        db.published_seq()
    );

    let assert_on = std::env::var("EXP_SERVING_ASSERT").as_deref() != Ok("0");
    let top_ti = reader_threads.len() - 1;
    let top_threads = reader_threads[top_ti];

    // Gate 1 — isolation: churn must not collapse reader throughput at the
    // top thread count (independent of core count: it compares like with
    // like).
    let zero = qps[top_ti][0];
    let churned = qps[top_ti][CHURN_PCT.len() - 1];
    let ratio = zero / churned.max(1e-9);
    println!(
        "{top_threads}-reader throughput: {zero:.0} qps idle vs {churned:.0} qps under 10% churn ({ratio:.2}× slowdown)"
    );
    if assert_on {
        assert!(
            churned * 2.0 >= zero,
            "snapshot isolation regressed: 10% churn costs more than 2× \
             ({zero:.0} qps idle vs {churned:.0} qps churned)"
        );
    }

    // Gate 2 — read scale-out: at 0% churn, top-thread qps must reach at
    // least (threads/2)× the single-reader qps (≥8× at 16 threads, ≥2× at
    // 4). Hardware-gated: threads can only scale onto cores that exist, so
    // the assert arms only when the machine has at least `top_threads`
    // cores; the measured ratio and the core count are always recorded.
    if top_threads > 1 {
        let single = qps[0][0];
        let scaled = qps[top_ti][0];
        let speedup = scaled / single.max(1e-9);
        let want = top_threads as f64 / 2.0;
        println!(
            "read scale-out: {single:.0} qps @1 → {scaled:.0} qps @{top_threads} \
             ({speedup:.2}×, want ≥{want:.0}× on ≥{top_threads} cores; {cores} available)"
        );
        sink.registry
            .gauge_set("bench.serving.scaleout.x100", (speedup * 100.0) as u64);
        if assert_on && cores >= top_threads {
            assert!(
                speedup >= want,
                "read scale-out regressed: {top_threads} readers reach only \
                 {speedup:.2}× of single-reader qps (want ≥{want:.0}×) on {cores} cores"
            );
        } else if cores < top_threads {
            println!("scale-out assert skipped: {cores} core(s) < {top_threads} reader threads");
        }
    }

    if let Some((json, prom)) = sink.flush().expect("write metrics") {
        eprintln!(
            "metrics written to {} and {}",
            json.display(),
            prom.display()
        );
    }
}
