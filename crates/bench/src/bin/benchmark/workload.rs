//! Workload definitions: seeded inputs, engines and cells of the three
//! read-only workloads, and the sampling shared with `churn`.
//!
//! A *cell* is one (query, strategy, knobs) triple; a *pass* executes every
//! cell once in an order fixed by the seed; a *request* is one cell
//! execution through the public request API, timed up to the point where
//! the caller holds decoded terms. Closed loop, one client thread,
//! `Parallelism::Off`, one shard.

use crate::alloc;
use crate::check::{fingerprint, Fingerprint, Oracle};
use crate::probe::{Probe, Reading};
use crate::stats::{self, StatsError};
use rdfref_core::{CoreError, Database, ReformulationLimits, Strategy};
use rdfref_datagen::lubm::{self, LubmConfig};
use rdfref_datagen::onto_sweep::{self, SweepConfig};
use rdfref_datagen::queries::{self, NamedQuery};
use rdfref_datagen::{geo, wcoj};
use rdfref_model::dictionary::ID_RDF_TYPE;
use rdfref_model::{DictEncoding, Graph, Term};
use rdfref_query::display::cq_to_sparql;
use rdfref_query::{Atom, Cq, Var};
use rdfref_storage::JoinAlgorithm;
use std::time::{Duration, Instant};

/// Workload names, in the order they are run and reported.
pub const WORKLOADS: [&str; 4] = ["lubm_mix", "plan_cold", "cyclic_join", "churn"];

/// Untimed passes before the timed window, so caches and lazy set-up settle.
pub const WARMUP_PASSES: usize = 2;

/// Input sizes. `FULL` is the benchmark; `SMOKE` only keeps the harness
/// compiling and running under `cargo test`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    pub label: &'static str,
    /// LUBM universities behind `lubm_mix`.
    pub lubm_mix_scale: usize,
    /// LUBM universities behind `plan_cold`'s Example 1.
    pub example1_scale: usize,
    /// `onto_sweep` class-tree depth and fan-out.
    pub sweep_depth: usize,
    pub sweep_fanout: usize,
    /// `geo` subclass-chain depth and instances per level.
    pub geo_depth: usize,
    pub geo_areas: usize,
    /// `wcoj` stressor hubs and spokes per hub.
    pub wcoj_hubs: usize,
    pub wcoj_spokes: usize,
    /// LUBM universities behind `churn`, and write/read rounds per pass.
    pub churn_scale: usize,
    pub churn_rounds: usize,
    /// Fresh engine builds per run, at least; `setup_s` is their median.
    pub setup_builds: usize,
}

/// With more than one build asked for, fresh builds go on until this much
/// set-up has been timed or [`MAX_SETUP_BUILDS`] are done: the median of five
/// 6 ms builds (`plan_cold`) moved by a quarter from run to run.
const SETUP_SECONDS: f64 = 1.0;
const MAX_SETUP_BUILDS: usize = 25;

impl Sizes {
    pub const FULL: Sizes = Sizes {
        label: "full",
        lubm_mix_scale: 100,
        example1_scale: 4,
        sweep_depth: 4,
        sweep_fanout: 4,
        geo_depth: 96,
        geo_areas: 24,
        wcoj_hubs: 16,
        wcoj_spokes: 48,
        churn_scale: 40,
        churn_rounds: 16,
        setup_builds: 5,
    };

    pub const SMOKE: Sizes = Sizes {
        label: "smoke",
        lubm_mix_scale: 2,
        example1_scale: 1,
        sweep_depth: 2,
        sweep_fanout: 2,
        geo_depth: 8,
        geo_areas: 4,
        wcoj_hubs: 4,
        wcoj_spokes: 6,
        churn_scale: 2,
        churn_rounds: 2,
        setup_builds: 1,
    };
}

/// splitmix64: the one generator behind every seeded choice here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The order in which pass number `pass` visits `n` cells (Fisher–Yates),
/// fixed by the seed. Every pass of a read-only workload gets an order of
/// its own: what a request costs depends by some 15 % on what the allocator
/// and the caches were left with by the request before it, and a cell's
/// samples should cover many predecessors, not the one the seed happened to
/// put there.
pub fn pass_order(n: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(seed ^ (pass as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93), 1);
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

pub struct Query {
    pub name: String,
    pub cq: Cq,
    /// SPARQL text of `cq`, what the traced pass feeds the parser.
    pub sparql: String,
}

pub struct Dataset {
    pub name: &'static str,
    pub graph: Graph,
    pub queries: Vec<Query>,
}

impl Dataset {
    fn new(name: &'static str, graph: Graph, queries: Vec<(String, Cq)>) -> Dataset {
        let queries = queries
            .into_iter()
            .map(|(name, cq)| Query {
                sparql: cq_to_sparql(&cq, graph.dictionary()),
                name,
                cq,
            })
            .collect();
        Dataset {
            name,
            graph,
            queries,
        }
    }

    /// `q(G∞)` for every query, from the independent oracle.
    pub fn oracle(&self) -> Vec<Fingerprint> {
        let oracle = Oracle::new(&self.graph);
        self.queries.iter().map(|q| oracle.answer(&q.cq)).collect()
    }
}

fn named(mix: Vec<NamedQuery>) -> Vec<(String, Cq)> {
    mix.into_iter()
        .map(|nq| (nq.name.to_string(), nq.cq))
        .collect()
}

/// LUBM-like data with the 12-query mix; the seed drives the generator.
pub fn lubm_dataset(name: &'static str, scale: usize, seed: u64) -> Dataset {
    let ds = lubm::generate(&LubmConfig {
        seed: Rng::new(seed, 2).next_u64(),
        ..LubmConfig::scale(scale)
    });
    let mix = queries::lubm_mix(&ds).expect("the LUBM mix is well-formed on generated data");
    Dataset::new(name, ds.graph, named(mix))
}

pub struct EngineSpec {
    pub dataset: usize,
    pub encoding: DictEncoding,
    /// Materialize `G∞` during set-up (workloads with Sat cells).
    pub saturate: bool,
}

pub struct Cell {
    pub name: String,
    pub engine: usize,
    /// Index into the engine's dataset's queries.
    pub query: usize,
    pub strategy: Strategy,
    pub algo: JoinAlgorithm,
}

/// A read-only workload: datasets, the engines built over them, and cells.
pub struct ReadWorkload {
    pub datasets: Vec<Dataset>,
    pub engines: Vec<EngineSpec>,
    pub cells: Vec<Cell>,
    /// Fixes the order in which each pass visits the cells ([`pass_order`]).
    pub seed: u64,
    /// Plan cache on and pre-warmed during set-up, or off for every request.
    pub warm_cache: bool,
    pub limits: ReformulationLimits,
    /// Traced pass only: queries (of engine 0's dataset) also answered by
    /// `Strategy::Datalog`, the paper's Dat column. Dat takes 0.6–1.7 s per
    /// query at this scale, so it is timed on a few queries and kept out of
    /// the timed window, where it would be the whole of every number.
    pub datalog_queries: Vec<usize>,
    /// Traced pass only: how many of the heaviest cells are re-run under
    /// `Parallelism::Morsels`.
    pub morsel_cells: usize,
}

pub fn strategy_tag(s: &Strategy) -> &'static str {
    match s {
        Strategy::Saturation => "sat",
        Strategy::RefUcq => "ucq",
        Strategy::RefScq => "scq",
        Strategy::RefGCov => "gcov",
        Strategy::Datalog => "dat",
        _ => "other",
    }
}

fn algo_tag(a: JoinAlgorithm) -> &'static str {
    match a {
        JoinAlgorithm::BindJoin => "bind",
        JoinAlgorithm::Wcoj => "wcoj",
        _ => "auto",
    }
}

fn encoding_tag(e: DictEncoding) -> &'static str {
    match e {
        DictEncoding::Classic => "classic",
        DictEncoding::Interval => "interval",
    }
}

/// The paper's E2 table as steady-state read traffic: evaluation and
/// decoding do nearly all the work, planning is one cache lookup.
pub fn lubm_mix(sizes: &Sizes, seed: u64) -> ReadWorkload {
    let dataset = lubm_dataset("lubm", sizes.lubm_mix_scale, seed);
    let mut cells = Vec::new();
    for (qi, q) in dataset.queries.iter().enumerate() {
        for strategy in [
            Strategy::Saturation,
            Strategy::RefUcq,
            Strategy::RefScq,
            Strategy::RefGCov,
        ] {
            cells.push(Cell {
                name: format!("{}/{}", q.name, strategy_tag(&strategy)),
                engine: 0,
                query: qi,
                strategy,
                algo: JoinAlgorithm::BindJoin,
            });
        }
    }
    ReadWorkload {
        seed,
        datasets: vec![dataset],
        engines: vec![EngineSpec {
            dataset: 0,
            encoding: DictEncoding::Classic,
            saturate: true,
        }],
        cells,
        warm_cache: true,
        limits: ReformulationLimits::default(),
        // Q01 (selective), Q05 (largest answer), Q09 (heaviest join).
        datalog_queries: vec![0, 4, 8],
        morsel_cells: 2,
    }
}

/// Ref/UCQ is attempted only where the reformulation stays under this many
/// CQs; Example 1's 71 289-CQ product is the paper's "UCQ fails" case.
const PLAN_COLD_MAX_CQS: usize = 50_000;

/// Small data, large reformulations, plan cache off: reformulation, cover
/// search and cost estimation dominate — the mirror image of `lubm_mix`.
pub fn plan_cold(sizes: &Sizes, seed: u64) -> ReadWorkload {
    let v = |n: &str| Var::new(n);
    let cq = |head: Vec<Var>, body: Vec<Atom>| Cq::new(head, body).expect("well-formed query");

    let lubm = lubm::generate(&LubmConfig {
        seed: Rng::new(seed, 3).next_u64(),
        ..LubmConfig::scale(sizes.example1_scale)
    });
    let example1 = queries::example1(&lubm, 0).expect("Example 1 is well-formed");
    let example1 = Dataset::new("lubm", lubm.graph, vec![("ex1".to_string(), example1)]);

    let sweep = onto_sweep::generate(&SweepConfig {
        class_depth: sizes.sweep_depth,
        class_fanout: sizes.sweep_fanout,
        property_depth: 2,
        instances_per_leaf: 4,
        edges_per_instance: 2,
        seed: Rng::new(seed, 4).next_u64(),
        ..SweepConfig::default()
    });
    let sweep_queries = vec![
        (
            "Sroot".to_string(),
            cq(
                vec![v("x"), v("y")],
                vec![
                    Atom::new(v("x"), ID_RDF_TYPE, sweep.root_class),
                    Atom::new(v("x"), sweep.root_property, v("y")),
                ],
            ),
        ),
        (
            "Svar".to_string(),
            cq(
                vec![v("x"), v("u"), v("y")],
                vec![
                    Atom::new(v("x"), ID_RDF_TYPE, v("u")),
                    Atom::new(v("x"), sweep.root_property, v("y")),
                ],
            ),
        ),
    ];
    let sweep = Dataset::new("sweep", sweep.graph, sweep_queries);

    let geo = geo::generate(&geo::GeoConfig {
        hierarchy_depth: sizes.geo_depth,
        areas_per_level: sizes.geo_areas,
        seed: Rng::new(seed, 5).next_u64(),
    });
    let mid = geo.level_classes[sizes.geo_depth / 2];
    let geo_queries = vec![
        (
            "G01".to_string(),
            cq(
                vec![v("x")],
                vec![Atom::new(v("x"), ID_RDF_TYPE, geo.root_class)],
            ),
        ),
        (
            "Gmid".to_string(),
            cq(vec![v("x")], vec![Atom::new(v("x"), ID_RDF_TYPE, mid)]),
        ),
        (
            "G02".to_string(),
            cq(
                vec![v("x"), v("y")],
                vec![
                    Atom::new(v("x"), ID_RDF_TYPE, geo.root_class),
                    Atom::new(v("x"), geo.located_in, v("y")),
                ],
            ),
        ),
    ];
    let geo = Dataset::new("geo", geo.graph, geo_queries);

    let datasets = vec![example1, sweep, geo];
    let mut engines = Vec::new();
    let mut cells = Vec::new();
    for (di, dataset) in datasets.iter().enumerate() {
        for encoding in [DictEncoding::Classic, DictEncoding::Interval] {
            let engine = engines.len();
            engines.push(EngineSpec {
                dataset: di,
                encoding,
                saturate: false,
            });
            for (qi, q) in dataset.queries.iter().enumerate() {
                for strategy in [Strategy::RefUcq, Strategy::RefScq, Strategy::RefGCov] {
                    // Example 1's UCQ is the one reformulation over the limit.
                    if q.name == "ex1" && strategy == Strategy::RefUcq {
                        continue;
                    }
                    cells.push(Cell {
                        name: format!(
                            "{}/{}/{}",
                            q.name,
                            strategy_tag(&strategy),
                            encoding_tag(encoding)
                        ),
                        engine,
                        query: qi,
                        strategy,
                        algo: JoinAlgorithm::BindJoin,
                    });
                }
            }
        }
    }
    ReadWorkload {
        seed,
        datasets,
        engines,
        cells,
        warm_cache: false,
        limits: ReformulationLimits::new().with_max_cqs(PLAN_COLD_MAX_CQS),
        datalog_queries: Vec::new(),
        morsel_cells: 0,
    }
}

/// The wedge-heavy, triangle-light stressor: the only workload where the
/// leapfrog executor and `Auto`'s operator pick matter.
pub fn cyclic_join(sizes: &Sizes, seed: u64) -> ReadWorkload {
    // The generator is not randomized; the seed varies how many triangles
    // are planted (the triangle query's whole answer) and the pass order.
    let ds = wcoj::generate(&wcoj::WcojConfig {
        hubs: sizes.wcoj_hubs,
        spokes: sizes.wcoj_spokes,
        likes_per_hub: 10.min(sizes.wcoj_spokes),
        triangles: 12 + Rng::new(seed, 6).below(5),
    });
    let mix = wcoj::wcoj_mix(&ds).expect("the WCOJ mix is well-formed");
    let dataset = Dataset::new("wcoj", ds.graph, named(mix));
    let algos = [
        JoinAlgorithm::BindJoin,
        JoinAlgorithm::Wcoj,
        JoinAlgorithm::Auto,
    ];
    let mut cells = Vec::new();
    for (qi, q) in dataset.queries.iter().enumerate() {
        for algo in algos {
            cells.push(Cell {
                name: format!("{}/gcov/{}", q.name, algo_tag(algo)),
                engine: 0,
                query: qi,
                strategy: Strategy::RefGCov,
                algo,
            });
        }
        if q.name == "W01" {
            for algo in &algos[..2] {
                cells.push(Cell {
                    name: format!("{}/ucq/{}", q.name, algo_tag(*algo)),
                    engine: 0,
                    query: qi,
                    strategy: Strategy::RefUcq,
                    algo: *algo,
                });
            }
        }
    }
    ReadWorkload {
        seed,
        datasets: vec![dataset],
        engines: vec![EngineSpec {
            dataset: 0,
            encoding: DictEncoding::Classic,
            saturate: false,
        }],
        cells,
        warm_cache: true,
        limits: ReformulationLimits::default(),
        datalog_queries: Vec::new(),
        morsel_cells: 0,
    }
}

/// Fresh set-ups: how long they took and what the last left on the heap.
pub struct Setup<E> {
    pub engine: E,
    /// Seconds of each fresh build, in build order, and the probe reading
    /// taken right after it (none without a probe).
    pub builds: Vec<(f64, Reading)>,
    /// Live heap bytes the last build added (engine and everything it owns).
    pub heap_bytes: usize,
}

/// Build the engine at least `builds` times from graphs in hand (cheap
/// set-ups more often, see [`SETUP_SECONDS`]) and keep the last. `prepare`
/// clones the inputs (untimed); `build` is timed, and followed by a probe
/// reading where a probe is given.
pub fn measure_setup<I, E>(
    builds: usize,
    mut probe: Option<&mut Probe>,
    mut prepare: impl FnMut() -> I,
    mut build: impl FnMut(I) -> E,
) -> Setup<E> {
    let mut timed: Vec<(f64, Reading)> = Vec::new();
    let mut last = None;
    while timed.len() < builds.max(1)
        || (builds > 1
            && timed.len() < MAX_SETUP_BUILDS
            && timed.iter().map(|(s, _)| s).sum::<f64>() < SETUP_SECONDS)
    {
        drop(last.take());
        let before = alloc::live_bytes();
        let input = prepare();
        let start = Instant::now();
        let engine = build(input);
        let elapsed = start.elapsed();
        last = Some((engine, alloc::live_bytes().saturating_sub(before)));
        let reading = probe.as_deref_mut().map_or_else(Reading::default, |p| {
            p.after_request(elapsed.as_nanos() as u64)
        });
        timed.push((elapsed.as_secs_f64(), reading));
    }
    let (engine, heap_bytes) = last.expect("at least one build");
    Setup {
        engine,
        builds: timed,
        heap_bytes,
    }
}

/// What the untraced runner needs from a workload.
pub trait Workload {
    type Engine;

    fn cell_names(&self) -> Vec<String>;
    /// Explicit triples loaded into the engine(s), the base of
    /// `mem_bytes_per_triple`.
    fn explicit_triples(&self) -> usize;
    /// What every query must return, from the independent oracle.
    fn expected(&self) -> Vec<Fingerprint>;
    fn setup(&self, builds: usize, probe: Option<&mut Probe>) -> Setup<Self::Engine>;
    /// Pass number `pass`, each request timed; only cheap checks (row
    /// counts) so that checking stays out of the measured window.
    fn timed_pass(
        &self,
        engine: &Self::Engine,
        expected: &[Fingerprint],
        pass: usize,
        rec: &mut Recorder,
    );
    /// One untimed pass with every answer fully fingerprinted.
    fn check_pass(&self, engine: &Self::Engine, expected: &[Fingerprint], rec: &mut Recorder);
}

impl ReadWorkload {
    pub fn query(&self, cell: &Cell) -> &Query {
        &self.datasets[self.engines[cell.engine].dataset].queries[cell.query]
    }

    /// Graph in hand → engines ready: builder terminal, saturation where the
    /// workload has Sat cells, plan-cache pre-warm where it runs warm.
    pub fn build_engines(&self, graphs: Vec<Graph>) -> Vec<Database> {
        let engines: Vec<Database> = self
            .engines
            .iter()
            .zip(graphs)
            .map(|(spec, graph)| {
                let db = Database::builder().encoding(spec.encoding).build(graph);
                if spec.saturate {
                    db.prepare_saturation();
                }
                db
            })
            .collect();
        if self.warm_cache {
            for cell in &self.cells {
                // A failure here resurfaces, and is counted, in the check pass.
                let _ = self.request(&engines, cell);
            }
        }
        engines
    }

    /// One request: the public request builder, then the answer decoded to
    /// terms — what a caller of the engine ends up holding.
    pub fn request(&self, engines: &[Database], cell: &Cell) -> Result<Vec<Vec<Term>>, CoreError> {
        let db = &engines[cell.engine];
        let answer = db
            .query(&self.query(cell).cq)
            .strategy(cell.strategy.clone())
            .join_algorithm(cell.algo)
            .limits(self.limits)
            .use_cache(self.warm_cache)
            .run()?;
        Ok(answer.decoded(db.dictionary()))
    }
}

impl Workload for ReadWorkload {
    type Engine = Vec<Database>;

    fn cell_names(&self) -> Vec<String> {
        self.cells.iter().map(|c| c.name.clone()).collect()
    }

    fn explicit_triples(&self) -> usize {
        self.engines
            .iter()
            .map(|e| self.datasets[e.dataset].graph.len())
            .sum()
    }

    /// Per cell.
    fn expected(&self) -> Vec<Fingerprint> {
        let per_dataset: Vec<Vec<Fingerprint>> =
            self.datasets.iter().map(Dataset::oracle).collect();
        self.cells
            .iter()
            .map(|c| per_dataset[self.engines[c.engine].dataset][c.query])
            .collect()
    }

    fn setup(&self, builds: usize, probe: Option<&mut Probe>) -> Setup<Vec<Database>> {
        measure_setup(
            builds,
            probe,
            || {
                self.engines
                    .iter()
                    .map(|e| self.datasets[e.dataset].graph.clone())
                    .collect()
            },
            |graphs| self.build_engines(graphs),
        )
    }

    fn timed_pass(
        &self,
        engines: &Vec<Database>,
        expected: &[Fingerprint],
        pass: usize,
        rec: &mut Recorder,
    ) {
        for ci in pass_order(self.cells.len(), self.seed, pass) {
            let cell = &self.cells[ci];
            let start = Instant::now();
            let result = self.request(engines, cell);
            let latency = start.elapsed();
            let ok = result.is_ok_and(|rows| rows.len() == expected[ci].rows);
            rec.sample(ci, latency, ok);
        }
    }

    fn check_pass(&self, engines: &Vec<Database>, expected: &[Fingerprint], rec: &mut Recorder) {
        for (ci, cell) in self.cells.iter().enumerate() {
            let ok = self
                .request(engines, cell)
                .is_ok_and(|rows| fingerprint(&rows) == expected[ci]);
            rec.count(ci, ok);
        }
    }
}

/// Latency samples and the failure tally of one run.
pub struct Recorder {
    pub cell_names: Vec<String>,
    /// Every timed request in the order it was made: its cell, its latency
    /// (ns), and the probe reading taken right after it.
    cells: Vec<usize>,
    latency_ns: Vec<u64>,
    readings: Vec<Reading>,
    /// How many requests had been made at the end of each timed pass.
    pass_ends: Vec<usize>,
    /// Measures the machine after every timed request; without one the
    /// latencies stand as measured (warm-up, tests).
    probe: Option<Probe>,
    pub attempted: u64,
    pub failed: u64,
    /// Per cell, whether a request of it failed.
    cell_failed: Vec<bool>,
    pub passes: usize,
}

impl Recorder {
    pub fn new(cell_names: Vec<String>) -> Recorder {
        Recorder {
            cell_failed: vec![false; cell_names.len()],
            cell_names,
            cells: Vec::new(),
            latency_ns: Vec::new(),
            readings: Vec::new(),
            pass_ends: Vec::new(),
            probe: None,
            attempted: 0,
            failed: 0,
            passes: 0,
        }
    }

    pub fn with_probe(cell_names: Vec<String>, probe: Probe) -> Recorder {
        Recorder {
            probe: Some(probe),
            ..Recorder::new(cell_names)
        }
    }

    /// Tally an untimed (check) request of `cell`.
    pub fn count(&mut self, cell: usize, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.cell_failed[cell] = true;
        }
    }

    /// Cells that failed at least once, for the report.
    pub fn failed_cells(&self) -> Vec<String> {
        self.cell_names
            .iter()
            .zip(&self.cell_failed)
            .filter(|(_, failed)| **failed)
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Record a timed request of `cell`, then read the probe.
    pub fn sample(&mut self, cell: usize, latency: Duration, ok: bool) {
        let ns = latency.as_nanos() as u64;
        self.cells.push(cell);
        self.latency_ns.push(ns);
        self.readings.push(
            self.probe
                .as_mut()
                .map_or_else(Reading::default, |p| p.after_request(ns)),
        );
        self.count(cell, ok);
    }

    /// Close a timed pass: blocks and speed factors are cut at pass ends.
    pub fn end_pass(&mut self) {
        self.passes += 1;
        self.pass_ends.push(self.latency_ns.len());
    }

    pub fn timed_requests(&self) -> usize {
        self.latency_ns.len()
    }

    /// The probe readings of the whole timed window, summed.
    pub fn reading(&self) -> Reading {
        let mut sum = Reading::default();
        for r in &self.readings {
            sum.add(*r);
        }
        sum
    }

    /// Every timed request's latency (ns) divided by the speed factor of
    /// the pass it was made in: what it would have taken on the reference
    /// machine. A pass is 60–500 ms, the grain at which the host's speed
    /// changes; its requests and its probe readings alternate, so they saw
    /// the same machine.
    pub fn scaled_ns(&self) -> Vec<f64> {
        let whole = self.reading();
        let mut scaled = Vec::with_capacity(self.latency_ns.len());
        let mut start = 0;
        for &end in &self.pass_ends {
            let mut pass = Reading::default();
            for r in &self.readings[start..end] {
                pass.add(*r);
            }
            // A pass too short to be owed a chunk (smoke sizes) takes the
            // window's factor.
            let factor = if pass.chunks == 0 { &whole } else { &pass }.speed_factor();
            scaled.extend(
                self.latency_ns[start..end]
                    .iter()
                    .map(|ns| *ns as f64 / factor),
            );
            start = end;
        }
        scaled
    }

    /// The timed requests as consecutive blocks of whole passes, each the
    /// fewest passes that hold `min` requests; the passes left over at the
    /// end join the last block. Empty when the run timed fewer than `min`
    /// requests.
    pub fn blocks(&self, min: usize) -> Vec<std::ops::Range<usize>> {
        let mut ranges = Vec::new();
        let mut start = 0;
        for &end in &self.pass_ends {
            if end - start >= min {
                ranges.push(start..end);
                start = end;
            }
        }
        if let Some(last) = ranges.last_mut() {
            last.end = self.latency_ns.len();
        }
        ranges
    }

    /// Per cell with at least one timed request: the median of its scaled
    /// latencies in microseconds.
    pub fn cell_median_us(&self) -> Vec<(String, f64)> {
        let mut per_cell: Vec<Vec<f64>> = vec![Vec::new(); self.cell_names.len()];
        for (cell, ns) in self.cells.iter().zip(self.scaled_ns()) {
            per_cell[*cell].push(ns / 1e3);
        }
        self.cell_names
            .iter()
            .zip(&per_cell)
            .filter(|(_, us)| !us.is_empty())
            .map(|(name, us)| (name.clone(), stats::median(us)))
            .collect()
    }
}

/// The end-to-end metrics of one workload run.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub requests_per_s: f64,
    pub latency_ms_p50: f64,
    pub latency_ms_p99: f64,
    pub cell_geomean_us: f64,
    pub mem_bytes_per_triple: f64,
    /// (typed errors + wrong answers) / requests attempted; not a bounded
    /// metric (it must be 0), reported as `failed` / `attempted`.
    pub failed_share: f64,
    pub attempted: u64,
    pub failed: u64,
    pub timed_requests: usize,
    pub passes: usize,
    /// Blocks of at least 1000 requests the latency percentiles are medians
    /// over.
    pub blocks: usize,
    /// The probe's speed factor over the whole timed window: the reported
    /// times are the measured ones divided by (about) this.
    pub speed_factor: f64,
}

/// Names and units of the bounded end-to-end metrics, in report order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("cell_geomean_us", "us"),
    ("mem_bytes_per_triple", "bytes"),
];

impl EndToEnd {
    /// The bounded metrics as `(name, value, unit)`, in [`END_TO_END`] order.
    pub fn values(&self) -> Vec<(&'static str, f64, &'static str)> {
        let values = [
            self.setup_s,
            self.requests_per_s,
            self.latency_ms_p50,
            self.latency_ms_p99,
            self.cell_geomean_us,
            self.mem_bytes_per_triple,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), v)| (*name, v, *unit))
            .collect()
    }
}

/// Run whole passes until `seconds` have elapsed (at least one). The probe
/// readings between the requests are part of the window.
pub fn timed_window(seconds: f64, rec: &mut Recorder, mut pass: impl FnMut(usize, &mut Recorder)) {
    let start = Instant::now();
    loop {
        pass(rec.passes, rec);
        rec.end_pass();
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

/// What an untraced run measured, before it is reduced to metrics.
pub struct UntracedRun {
    pub rec: Recorder,
    pub builds: Vec<(f64, Reading)>,
    pub heap_bytes: usize,
    pub explicit_triples: usize,
}

impl UntracedRun {
    /// Every time is first divided by the speed factor the probe read beside
    /// it (see `probe.rs`). Throughput is requests over the time spent in
    /// requests (a closed loop with no think time); latency percentiles are
    /// taken per block of at least 1000 consecutive requests, the run
    /// reporting the median block.
    pub fn end_to_end(&self) -> Result<EndToEnd, StatsError> {
        let timed_requests = self.rec.timed_requests();
        // p99 speaks for 1 % of the requests; with fewer than 1000 of them
        // that is fewer than ten, and the name is refused.
        stats::require_samples(0.99, timed_requests)?;
        let scaled = self.rec.scaled_ns();
        let (p50, p99): (Vec<f64>, Vec<f64>) = self
            .rec
            .blocks(stats::samples_needed(0.99))
            .into_iter()
            .map(|block| {
                let mut ms: Vec<f64> = scaled[block].iter().map(|ns| ns / 1e6).collect();
                ms.sort_by(f64::total_cmp);
                (stats::percentile(&ms, 0.5), stats::percentile(&ms, 0.99))
            })
            .unzip();
        let cells: Vec<f64> = self
            .rec
            .cell_median_us()
            .into_iter()
            .map(|(_, us)| us)
            .collect();
        let builds: Vec<f64> = self
            .builds
            .iter()
            .map(|(seconds, reading)| seconds / reading.speed_factor())
            .collect();
        Ok(EndToEnd {
            setup_s: stats::median(&builds),
            requests_per_s: timed_requests as f64 / (scaled.iter().sum::<f64>() / 1e9),
            latency_ms_p50: stats::median(&p50),
            latency_ms_p99: stats::median(&p99),
            cell_geomean_us: stats::geomean(&cells),
            mem_bytes_per_triple: self.heap_bytes as f64 / self.explicit_triples as f64,
            failed_share: self.rec.failed as f64 / self.rec.attempted as f64,
            attempted: self.rec.attempted,
            failed: self.rec.failed,
            timed_requests,
            passes: self.rec.passes,
            blocks: p50.len(),
            speed_factor: self.rec.reading().speed_factor(),
        })
    }
}

/// The untraced run: set-up, warm-up, a fully checked pass, the timed
/// window, and a second fully checked pass.
pub fn run_untraced<W: Workload>(w: &W, sizes: &Sizes, seconds: f64) -> UntracedRun {
    let expected = w.expected();
    // Before set-up, so the probe's arrays are not counted as the engine's.
    let mut probe = Probe::new();
    let setup = w.setup(sizes.setup_builds, Some(&mut probe));
    let engine = &setup.engine;
    let mut rec = Recorder::with_probe(w.cell_names(), probe);

    let mut warmup = Recorder::new(w.cell_names());
    for pass in 0..WARMUP_PASSES {
        w.timed_pass(engine, &expected, pass, &mut warmup);
    }
    w.check_pass(engine, &expected, &mut rec);
    timed_window(seconds, &mut rec, |pass, rec| {
        w.timed_pass(engine, &expected, WARMUP_PASSES + pass, rec)
    });
    w.check_pass(engine, &expected, &mut rec);

    UntracedRun {
        rec,
        builds: setup.builds,
        heap_bytes: setup.heap_bytes,
        explicit_triples: w.explicit_triples(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(pass_order(48, 7, 3), pass_order(48, 7, 3));
        assert_ne!(pass_order(48, 7, 3), pass_order(48, 8, 3));
        assert_ne!(pass_order(48, 7, 3), pass_order(48, 7, 4));
        let mut sorted = pass_order(48, 7, 3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..48).collect::<Vec<_>>());
    }

    /// Blocks are cut at pass ends, hold at least `min` requests, and
    /// together hold every timed request once.
    #[test]
    fn blocks_are_whole_passes_and_cover_the_run() {
        let mut rec = Recorder::new(vec!["a".to_string(), "b".to_string()]);
        assert!(rec.blocks(1).is_empty());
        for pass in 0..7u64 {
            for i in 0..3 {
                rec.sample(i % 2, Duration::from_nanos(pass * 3 + i as u64), true);
            }
            rec.end_pass();
        }
        // 3 requests a pass, 5 a block: two passes each, the seventh joins
        // the third block.
        assert_eq!(rec.blocks(5), [0..6, 6..12, 12..21]);
        assert_eq!(rec.blocks(21), [0..21]);
        assert!(rec.blocks(22).is_empty());
        // Without a probe the latencies stand as measured.
        assert_eq!(rec.scaled_ns(), (0..21).map(f64::from).collect::<Vec<_>>());
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = cyclic_join(&Sizes::SMOKE, 3);
        let b = cyclic_join(&Sizes::SMOKE, 3);
        assert_eq!(a.datasets[0].graph.len(), b.datasets[0].graph.len());
        assert_eq!(a.expected(), b.expected());
        let names = |w: &ReadWorkload| w.cells.iter().map(|c| c.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b));
        assert_eq!(a.cells.len(), 11);
    }
}
