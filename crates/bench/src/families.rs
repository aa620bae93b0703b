//! The row families: one function per experiment of `DESIGN.md` §4, each at
//! the configured points `EXPERIMENTS.md` reports. Ref cells run with the
//! plan cache off, so every sample plans its request as the first did.

use crate::{run_strategy, time, Outcome, Run, Sample, Unit};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};
use rdfref_core::answer::{AnswerOptions, Database, Strategy};
use rdfref_core::gcov::{gcov, GcovOptions};
use rdfref_core::incomplete::IncompletenessProfile;
use rdfref_core::reformulate::{
    reformulate_jucq, reformulate_ucq, reformulate_ucq_raw, ucq_size_product, ReformulationLimits,
    RewriteContext,
};
use rdfref_datagen::lubm::{self, LubmConfig, LubmDataset};
use rdfref_datagen::{biblio, geo, insee, onto_sweep, queries};
use rdfref_model::dictionary::{ID_RDFS_SUBCLASSOF, ID_RDF_TYPE};
use rdfref_model::{EncodedTriple, Graph, Schema, Term};
use rdfref_query::ast::{Atom, Cq};
use rdfref_query::containment::minimize_union;
use rdfref_query::{Cover, Var};
use rdfref_reasoning::{saturate, IncrementalReasoner};
use rdfref_storage::cost::CostParams;
use rdfref_storage::stats::{PairStats, ValueDistribution};
use rdfref_storage::{Bound, CostModel, Pattern, Stats, Store};

/// Every family, in `EXPERIMENTS.md` order.
pub const ALL: [fn(&mut Run); 9] = [
    e1_example1,
    e2_strategies,
    e3_cover_space,
    e4_constraints,
    e5_data_sweep,
    e6_maintenance,
    e7_dataset_stats,
    e8_completeness,
    ablations,
];

/// The reformulation size limit of every Ref cell but E4's.
const MAX_CQS: usize = 50_000;

fn limits(max_cqs: usize) -> ReformulationLimits {
    ReformulationLimits::new().with_max_cqs(max_cqs)
}

fn options(max_cqs: usize) -> AnswerOptions {
    AnswerOptions {
        limits: limits(max_cqs),
        use_cache: false,
        ..AnswerOptions::default()
    }
}

fn lubm_query(ds: &LubmDataset, name: &str) -> Cq {
    let mix = queries::lubm_mix(ds).expect("workload is well-formed");
    mix.into_iter()
        .find(|nq| nq.name == name)
        .expect("the mix names it")
        .cq
}

fn example1(ds: &LubmDataset) -> Cq {
    queries::example1(ds, 0).expect("workload is well-formed")
}

/// A database over `graph` with its saturation prepared. The saturation is
/// first timed on a fresh database per sample and recorded as its own cell.
fn prepared(run: &mut Run, row: &str, graph: &Graph) -> Database {
    run.sample(|s| {
        s.count(row, "dataset", "triples", graph.len());
        let db = Database::builder().build(graph.clone());
        let (added, t) = time(|| db.prepare_saturation());
        s.time(row, "Sat saturation", "wall", t);
        s.count(row, "Sat saturation", "added", added);
    });
    let db = Database::builder().build(graph.clone());
    db.prepare_saturation();
    db
}

fn wall(outcome: &Outcome) -> Option<f64> {
    match outcome {
        Outcome::Answered { wall, .. } => Some(wall.as_secs_f64()),
        _ => None,
    }
}

/// E1 — §4 Example 1: UCQ vs SCQ vs the paper's cover vs GCov's, with the
/// per-atom union sizes whose product is the UCQ. The last point is scale 16
/// at twenty times the per-department population.
pub fn e1_example1(run: &mut Run) {
    for &(scale, density) in run.points(&[(1, 1), (4, 1), (8, 1), (16, 1), (16, 20)]) {
        let base = LubmConfig::scale(scale);
        let ds = lubm::generate(&LubmConfig {
            undergraduate_students: base.undergraduate_students * density,
            graduate_students: base.graduate_students * density,
            publications_per_faculty: base.publications_per_faculty * density,
            ..base
        });
        let row = match density {
            1 => format!("E1 scale={scale}"),
            _ => format!("E1 scale={scale} density={density}"),
        };
        let q = example1(&ds);
        let db = Database::builder().build(ds.graph.clone());
        let ctx = RewriteContext::new(db.schema(), db.closure());
        let model = CostModel::new(db.stats());
        let search = GcovOptions::new().with_limits(limits(MAX_CQS));
        let picked = gcov(&q, &ctx, &model, &search).expect("GCov runs").cover;
        let paper = Strategy::RefJucq(queries::example1_paper_cover().expect("a valid cover"));
        let columns = Cover::singletons(q.size()).fragment_columns(&q);
        let opts = options(MAX_CQS);
        run.sample(|s| {
            s.count(&row, "dataset", "triples", ds.graph.len());
            for (i, cols) in columns.iter().enumerate() {
                let atom = q.project_fragment(&[i], cols);
                let raw = reformulate_ucq_raw(&atom, &ctx, limits(MAX_CQS)).expect("an atom fits");
                s.count(&row, &format!("t{}", i + 1), "raw_union_cqs", raw.len());
            }
            let product = ucq_size_product(&q, &ctx);
            s.count(&row, "Ref/UCQ", "product_cqs", product as usize);
            run_strategy(&db, &q, &Strategy::RefUcq, &opts).put(s, &row, "Ref/UCQ");
            let scq = run_strategy(&db, &q, &Strategy::RefScq, &opts);
            scq.put(s, &row, "Ref/SCQ");
            if let Outcome::Answered { cqs, .. } = scq {
                s.count(&row, "Ref/SCQ", "evaluated_cqs", cqs);
            }
            let jucq = run_strategy(&db, &q, &paper, &opts);
            jucq.put(s, &row, "paper cover");
            let (_, t) = time(|| gcov(&q, &ctx, &model, &search));
            s.time(&row, "GCov search", "wall", t);
            let cell = format!("GCov {picked}");
            run_strategy(&db, &q, &Strategy::RefJucq(picked.clone()), &opts).put(s, &row, &cell);
            if let (Some(scq), Some(jucq)) = (wall(&scq), wall(&jucq)) {
                s.put(&row, "SCQ/paper cover", "speedup", Unit::Ratio, scq / jucq);
            }
        });
    }
}

/// E2 — demo step 2: every strategy over the LUBM mix, answers and time.
pub fn e2_strategies(run: &mut Run) {
    let ds = lubm::generate(&LubmConfig::scale(3));
    let db = prepared(run, "E2 scale=3", &ds.graph);
    let strategies = [
        Strategy::Saturation,
        Strategy::RefUcq,
        Strategy::RefScq,
        Strategy::RefGCov,
        Strategy::RefIncomplete(IncompletenessProfile::hierarchies_only()),
        Strategy::Datalog,
    ];
    let opts = options(MAX_CQS);
    for nq in queries::lubm_mix(&ds).expect("workload is well-formed") {
        let row = format!("E2 {}", nq.name);
        run.sample(|s| {
            for strategy in &strategies {
                run_strategy(&db, &nq.cq, strategy, &opts).put(s, &row, strategy.name());
            }
        });
    }
}

/// Spearman rank correlation of `(x, y)` pairs.
fn spearman(pairs: &[(f64, f64)]) -> f64 {
    let n = pairs.len();
    if n < 2 {
        return 1.0;
    }
    let rank = |values: Vec<f64>| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let mut ranks = vec![0.0; n];
        for (r, &i) in idx.iter().enumerate() {
            ranks[i] = r as f64;
        }
        ranks
    };
    let xr = rank(pairs.iter().map(|p| p.0).collect());
    let yr = rank(pairs.iter().map(|p| p.1).collect());
    let d2: f64 = xr.iter().zip(&yr).map(|(a, b)| (a - b) * (a - b)).sum();
    1.0 - 6.0 * d2 / (n as f64 * ((n * n - 1) as f64))
}

/// E3 — demo step 3: every cover GCov explored, its estimate against its
/// actual time, and per sample the rank correlation of the exact estimates
/// with that sample's times.
pub fn e3_cover_space(run: &mut Run) {
    let ds = lubm::generate(&LubmConfig::scale(4));
    let db = Database::builder().build(ds.graph.clone());
    let ctx = RewriteContext::new(db.schema(), db.closure());
    let model = CostModel::new(db.stats());
    let search = GcovOptions::new().with_limits(limits(MAX_CQS));
    let opts = options(MAX_CQS);
    let mut targets = vec![("Example1", example1(&ds))];
    for name in ["Q02", "Q04", "Q09"] {
        targets.push((name, lubm_query(&ds, name)));
    }
    for (name, q) in targets {
        let row = format!("E3 {name}");
        let result = gcov(&q, &ctx, &model, &search).expect("GCov runs");
        run.sample(|s| {
            let (_, t) = time(|| gcov(&q, &ctx, &model, &search));
            s.time(&row, &format!("GCov picks {}", result.cover), "search", t);
            let mut pairs = Vec::new();
            for (cover, est) in &result.explored {
                let cell = cover.to_string();
                if let Some(est) = est {
                    s.put(&row, &cell, "est_cost", Unit::Exact, est.cost);
                    s.put(&row, &cell, "est_card", Unit::Exact, est.cardinality);
                }
                let strategy = Strategy::RefJucq(cover.clone());
                match run_strategy(&db, &q, &strategy, &opts) {
                    Outcome::Answered {
                        wall, peak_rows, ..
                    } => {
                        s.time(&row, &cell, "wall", wall);
                        s.count(&row, &cell, "peak_rows", peak_rows);
                        if let Some(est) = est {
                            pairs.push((est.cost, wall.as_secs_f64()));
                        }
                    }
                    refused => refused.put(s, &row, &cell),
                }
            }
            s.put(
                &row,
                "priced covers",
                "spearman",
                Unit::Ratio,
                spearman(&pairs),
            );
        });
    }
}

/// E4 — demo step 4, constraints: UCQ size and strategy times as the class
/// hierarchy deepens and widens.
pub fn e4_constraints(run: &mut Run) {
    const POINTS: [(usize, usize); 9] = [
        (1, 2),
        (2, 2),
        (3, 2),
        (4, 2),
        (2, 4),
        (2, 6),
        (3, 4),
        (3, 6),
        (4, 4),
    ];
    let opts = options(100_000);
    for &(depth, fanout) in run.points(&POINTS) {
        let ds = onto_sweep::generate(&onto_sweep::SweepConfig {
            class_depth: depth,
            class_fanout: fanout,
            property_depth: 2,
            instances_per_leaf: 4,
            edges_per_instance: 2,
            ..onto_sweep::SweepConfig::default()
        });
        let row = format!("E4 depth={depth} fanout={fanout}");
        let db = prepared(run, &row, &ds.graph);
        let ctx = RewriteContext::new(db.schema(), db.closure());
        let (x, y, u) = (Var::new("x"), Var::new("y"), Var::new("u"));
        let related = Atom::new(x.clone(), ds.root_property, y.clone());
        let root_class = Cq::new(
            vec![x.clone(), y.clone()],
            vec![
                Atom::new(x.clone(), ID_RDF_TYPE, ds.root_class),
                related.clone(),
            ],
        )
        .expect("a valid query");
        let class_var = Cq::new(
            vec![x.clone(), u.clone(), y],
            vec![Atom::new(x, ID_RDF_TYPE, u), related],
        )
        .expect("a valid query");
        run.sample(|s| {
            s.count(&row, "dataset", "classes", ds.classes.len());
            for (cell, q) in [
                ("root-class UCQ", &root_class),
                ("class-var UCQ", &class_var),
            ] {
                let raw = reformulate_ucq_raw(q, &ctx, limits(100_000)).expect("the union fits");
                s.count(&row, cell, "raw_cqs", raw.len());
                s.count(&row, cell, "minimised_cqs", minimize_union(raw).len());
            }
            for strategy in [
                Strategy::RefUcq,
                Strategy::RefScq,
                Strategy::RefGCov,
                Strategy::Saturation,
            ] {
                run_strategy(&db, &class_var, &strategy, &opts).put(s, &row, strategy.name());
            }
        });
    }
}

/// E5 — demo step 4, data: fixed queries over growing LUBM data.
pub fn e5_data_sweep(run: &mut Run) {
    let opts = options(MAX_CQS);
    for &scale in run.points(&[1, 2, 4, 8]) {
        let ds = lubm::generate(&LubmConfig::scale(scale));
        let db = prepared(run, &format!("E5 scale={scale}"), &ds.graph);
        let targets = [
            ("Q02", lubm_query(&ds, "Q02")),
            ("Q09", lubm_query(&ds, "Q09")),
            ("Ex1", example1(&ds)),
        ];
        for (name, q) in &targets {
            let row = format!("E5 scale={scale} {name}");
            run.sample(|s| {
                for strategy in [
                    Strategy::Saturation,
                    Strategy::RefScq,
                    Strategy::RefGCov,
                    Strategy::Datalog,
                ] {
                    run_strategy(&db, q, &strategy, &opts).put(s, &row, strategy.name());
                }
            });
        }
    }
}

/// E6 — §1's Sat maintenance cost: incremental insert and delete batches,
/// and one constraint change, against resaturating from scratch. Every
/// sample applies its batch to a fresh clone of one initial reasoner.
pub fn e6_maintenance(run: &mut Run) {
    const SCALE: usize = 4;
    let ds = lubm::generate(&LubmConfig::scale(SCALE));
    let row = format!("E6 scale={SCALE}");
    run.sample(|s| {
        s.count(&row, "dataset", "triples", ds.graph.len());
        let (sat, t) = time(|| saturate(&ds.graph));
        s.time(&row, "initial saturation", "wall", t);
        s.count(&row, "initial saturation", "triples", sat.len());
        let (_, t) = time(|| Store::from_graph(&ds.graph));
        s.time(&row, "Ref store build", "wall", t);
    });

    let mut rng = StdRng::seed_from_u64(42);
    let mut base = IncrementalReasoner::new(ds.graph.clone());
    let batch_size = |pct: f64| ((ds.graph.len() as f64) * pct / 100.0).max(1.0) as usize;
    let member_of = Term::iri(format!("{}memberOf", lubm::UB));
    let mut updates: Vec<(String, bool, Vec<EncodedTriple>)> = Vec::new();
    for pct in [0.1, 1.0, 10.0] {
        let batch = (0..batch_size(pct))
            .map(|i| {
                let person = Term::iri(format!("http://new.example.org/person{i}"));
                let dept = LubmDataset::department_iri(rng.gen_range(0..SCALE), 0);
                base.intern_triple(&person, &member_of, &Term::iri(dept))
            })
            .collect();
        updates.push((format!("insert {pct}% data"), true, batch));
    }
    for pct in [0.1, 1.0, 10.0] {
        let mut all = base.explicit().triples().to_vec();
        all.shuffle(&mut rng);
        all.truncate(batch_size(pct));
        updates.push((format!("delete {pct}% data"), false, all));
    }
    let person = base.intern(&Term::iri(format!("{}Person", lubm::UB)));
    let entity = base.intern(&Term::iri(format!("{}AcademicEntity", lubm::UB)));
    let constraint = EncodedTriple::new(person, ID_RDFS_SUBCLASSOF, entity);
    updates.push((
        "insert 1 subClassOf constraint".into(),
        true,
        vec![constraint],
    ));

    for (update, insert, batch) in &updates {
        let row = format!("E6 {update}");
        run.sample(|s| {
            let mut reasoner = base.clone();
            let (_, incremental) = time(|| match insert {
                true => reasoner.insert(batch),
                false => reasoner.delete(batch),
            });
            let (_, full) = time(|| saturate(reasoner.explicit()));
            s.count(&row, "batch", "triples", batch.len());
            s.time(&row, "incremental", "wall", incremental);
            s.time(&row, "resaturation", "wall", full);
            let speedup = full.as_secs_f64() / incremental.as_secs_f64();
            s.put(&row, "incremental", "speedup", Unit::Ratio, speedup);
        });
    }
}

/// E7 — demo step 1: each dataset's statistics screens.
pub fn e7_dataset_stats(run: &mut Run) {
    let datasets = [
        (
            "E7 LUBM scale=2",
            lubm::generate(&LubmConfig::scale(2)).graph,
        ),
        ("E7 DBLP-like", biblio::generate(&Default::default()).graph),
        ("E7 IGN-like", geo::generate(&Default::default()).graph),
        ("E7 INSEE-like", insee::generate(&Default::default()).graph),
    ];
    for (row, graph) in &datasets {
        run.sample(|s| describe(s, row, graph));
    }
}

fn describe(s: &mut Sample, row: &str, graph: &Graph) {
    let store = Store::from_graph(graph);
    let stats = Stats::compute(&store);
    let schema = Schema::from_graph(graph);
    let dict = graph.dictionary();
    for (metric, n) in [
        ("triples", stats.total),
        ("subjects", stats.distinct_subjects),
        ("properties", stats.distinct_properties),
        ("objects", stats.distinct_objects),
        ("type_triples", stats.type_triples),
        ("classes", stats.distinct_classes()),
    ] {
        s.count(row, "summary", metric, n);
    }
    for (metric, n) in [
        ("subClassOf", schema.subclass.len()),
        ("subPropertyOf", schema.subproperty.len()),
        ("domain", schema.domain.len()),
        ("range", schema.range.len()),
    ] {
        s.count(row, "constraints", metric, n);
    }
    let dist = ValueDistribution::compute(&store, 8);
    let tops = [
        ("property", stats.top_properties(8)),
        ("class", stats.top_classes(8)),
        ("subject", dist.top_subjects),
        ("object", dist.top_objects),
    ];
    for (kind, top) in tops {
        for (id, n) in top.into_iter().take(8) {
            s.count(row, &format!("{kind} {}", dict.term(id)), "triples", n);
        }
    }
    for (a, b, n) in PairStats::compute(&store, &stats, 6)
        .pairs
        .into_iter()
        .take(8)
    {
        let cell = format!("pair {} {}", dict.term(a), dict.term(b));
        s.count(row, &cell, "common_subjects", n);
    }
}

/// E8 — §2's incomplete Ref of deployed systems: answers per profile.
pub fn e8_completeness(run: &mut Run) {
    let ds = lubm::generate(&LubmConfig::scale(2));
    let db = Database::builder().build(ds.graph.clone());
    let profiles = [
        ("complete", Strategy::Saturation),
        (
            "hierarchies-only",
            Strategy::RefIncomplete(IncompletenessProfile::hierarchies_only()),
        ),
        (
            "subclass-only",
            Strategy::RefIncomplete(IncompletenessProfile::subclass_only()),
        ),
        (
            "no-reasoning",
            Strategy::RefIncomplete(IncompletenessProfile::none()),
        ),
    ];
    let mix = queries::lubm_mix(&ds).expect("workload is well-formed");
    let opts = AnswerOptions {
        use_cache: false,
        ..AnswerOptions::default()
    };
    run.sample(|s| {
        let mut totals = [0; 4];
        for nq in &mix {
            for (total, (profile, strategy)) in totals.iter_mut().zip(&profiles) {
                let Outcome::Answered { answers, .. } = run_strategy(&db, &nq.cq, strategy, &opts)
                else {
                    panic!("{}: {profile} is refused", nq.name);
                };
                s.count(&format!("E8 {}", nq.name), profile, "answers", answers);
                *total += answers;
            }
        }
        for (total, (profile, _)) in totals.iter().zip(&profiles) {
            s.count("E8 total", profile, "answers", *total);
            let share = *total as f64 / totals[0] as f64;
            s.put("E8 total", profile, "share", Unit::Exact, share);
        }
    });
}

/// A1–A6 — the design-decision ablations of `DESIGN.md` §2, on LUBM scale
/// 2. A5 has nothing left to ablate: against the closed schema saturation is
/// one derivation step.
pub fn ablations(run: &mut Run) {
    let ds = lubm::generate(&LubmConfig::scale(2));
    let db = Database::builder().build(ds.graph.clone());
    let ctx = RewriteContext::new(db.schema(), db.closure());

    // A1: an indexed id lookup against decoding every triple to terms.
    let store = Store::from_graph(&ds.graph);
    let dict = ds.graph.dictionary();
    let target = ds.vocab.graduate_student;
    let (type_term, target_term) = (dict.term(ID_RDF_TYPE), dict.term(target));
    let row = "A1 dictionary encoding";
    run.sample(|s| {
        let pattern = Pattern {
            p: Bound::Const(ID_RDF_TYPE),
            o: Bound::Const(target),
            ..Pattern::ALL
        };
        let (n, encoded) = time(|| (0..50).map(|_| store.count(pattern)).sum::<usize>());
        let (m, terms) = time(|| {
            let hit =
                |t: &rdfref_model::Triple| t.property == *type_term && t.object == *target_term;
            (0..50)
                .map(|_| ds.graph.iter_decoded().filter(hit).count())
                .sum::<usize>()
        });
        assert_eq!(n, m);
        s.count(row, "50 lookups", "matches", n);
        s.time(row, "indexed ids", "wall", encoded);
        s.time(row, "term-level scan", "wall", terms);
        let speedup = terms.as_secs_f64() / encoded.as_secs_f64();
        s.put(row, "indexed ids", "speedup", Unit::Ratio, speedup);
    });

    // A2: 20 reformulations of Q10 with the closure shared or recomputed.
    let q10 = lubm_query(&ds, "Q10");
    let row = "A2 closure precompute";
    run.sample(|s| {
        let closure = db.schema().closure();
        let (_, shared) = time(|| {
            for _ in 0..20 {
                let ctx = RewriteContext::new(db.schema(), &closure);
                reformulate_ucq(&q10, &ctx, limits(MAX_CQS)).expect("Q10 fits");
            }
        });
        let (_, per_call) = time(|| {
            for _ in 0..20 {
                let closure = db.schema().closure();
                let ctx = RewriteContext::new(db.schema(), &closure);
                reformulate_ucq(&q10, &ctx, limits(MAX_CQS)).expect("Q10 fits");
            }
        });
        s.time(row, "shared closure", "wall", shared);
        s.time(row, "per-call closure", "wall", per_call);
    });

    // A3: the cover GCov picks for Example 1 under three cost models.
    let q = example1(&ds);
    let search = GcovOptions::new().with_limits(limits(MAX_CQS));
    let no_compile = CostParams {
        parse_cost_per_cq: 0.0,
        parse_cost_per_atom: 0.0,
        ..CostParams::default()
    };
    let cardinality_only = CostParams {
        scan_cost_per_row: 0.0,
        join_cost_per_row: 0.0,
        dedup_cost_per_row: 1.0,
        probe_cost_per_row: 0.0,
        ..no_compile
    };
    let picks: Vec<(String, Strategy)> = [
        ("full model", CostParams::default()),
        ("cardinality-only", cardinality_only),
        ("no compile overhead", no_compile),
    ]
    .into_iter()
    .map(|(name, params)| {
        let mut model = CostModel::new(db.stats());
        model.params = params;
        let cover = gcov(&q, &ctx, &model, &search).expect("GCov runs").cover;
        (format!("{name} picks {cover}"), Strategy::RefJucq(cover))
    })
    .collect();
    let opts = options(MAX_CQS);
    run.sample(|s| {
        for (cell, strategy) in &picks {
            run_strategy(&db, &q, strategy, &opts).put(s, "A3 GCov cost model", cell);
        }
    });

    // A4: GCov against the cheapest of all partitions of a 4-atom query.
    let q08 = lubm_query(&ds, "Q08");
    let model = CostModel::new(db.stats());
    let partitions = Cover::enumerate_partitions(q08.size());
    let row = "A4 greedy vs exhaustive";
    run.sample(|s| {
        let (greedy, t_greedy) =
            time(|| gcov(&q08, &ctx, &model, &GcovOptions::default()).expect("GCov runs"));
        let (best, t_all) = time(|| {
            partitions
                .iter()
                .filter_map(|cover| {
                    let jucq = reformulate_jucq(&q08, cover, &ctx, limits(MAX_CQS)).ok()?;
                    Some((model.jucq_estimate(&jucq).cost, cover))
                })
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("some cover fits")
        });
        let gcov_cell = format!("GCov {}", greedy.cover);
        let best_cell = format!("best of {} partitions {}", partitions.len(), best.1);
        s.time(row, &gcov_cell, "wall", t_greedy);
        s.put(
            row,
            &gcov_cell,
            "est_cost",
            Unit::Exact,
            greedy.estimate.cost,
        );
        s.time(row, &best_cell, "wall", t_all);
        s.put(row, &best_cell, "est_cost", Unit::Exact, best.0);
        let gap = (greedy.estimate.cost - best.0) / best.0;
        s.put(row, &gcov_cell, "gap", Unit::Exact, gap);
    });

    // A6: Q02's raw fixpoint and the minimisation pass on top of it.
    let q02 = lubm_query(&ds, "Q02");
    let row = "A6 union minimisation";
    run.sample(|s| {
        let (raw, t_raw) = time(|| reformulate_ucq_raw(&q02, &ctx, limits(MAX_CQS)));
        let raw = raw.expect("Q02 fits");
        s.count(row, "raw fixpoint", "cqs", raw.len());
        let (minimal, t_min) = time(|| minimize_union(raw));
        s.time(row, "raw fixpoint", "wall", t_raw);
        s.count(row, "minimised", "cqs", minimal.len());
        s.time(row, "minimised", "wall", t_min);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{to_json, Header, Record, SAMPLES};
    use rdfref_obs::json::{parse, Value};

    #[test]
    fn refusals_are_outcomes_with_the_refused_size() {
        let ds = lubm::generate(&LubmConfig::default());
        let q = example1(&ds);
        let db = Database::builder().build(ds.graph.clone());
        let opts = options(10);
        let ucq = run_strategy(&db, &q, &Strategy::RefUcq, &opts);
        assert_eq!(ucq, Outcome::TooLarge { size: 71_289 });
        // t1's own union (89 CQs) is over the limit, so every cover is.
        for strategy in [Strategy::RefScq, Strategy::RefGCov] {
            let outcome = run_strategy(&db, &q, &strategy, &opts);
            assert_eq!(
                outcome,
                Outcome::TooLarge { size: 89 },
                "{}",
                strategy.name()
            );
        }
    }

    /// The record shape of a document, and that every exact record's
    /// samples agree.
    fn check_document(doc: &Value, samples: usize) {
        let header = doc.get("header").expect("a header");
        for key in ["nproc", "commit", "dirty", "rustc"] {
            assert!(header.get(key).is_some(), "header lacks {key}");
        }
        let records = doc
            .get("records")
            .and_then(Value::as_array)
            .expect("records");
        assert!(!records.is_empty());
        for r in records {
            for key in ["row", "cell", "metric", "unit"] {
                assert!(
                    r.get(key).and_then(Value::as_str).is_some(),
                    "{r:?} lacks {key}"
                );
            }
            let values: Vec<f64> = r
                .get("samples")
                .and_then(Value::as_array)
                .expect("samples")
                .iter()
                .map(|v| v.as_f64().expect("a number"))
                .collect();
            assert_eq!(values.len(), samples, "{r:?}");
            let stat = |key| r.get(key).and_then(Value::as_f64).expect("a statistic");
            assert!(stat("q1") <= stat("median") && stat("median") <= stat("q3"));
            if matches!(
                r.get("unit").and_then(Value::as_str),
                Some("count" | "exact")
            ) {
                assert!(values.iter().all(|&v| v == values[0]), "{r:?}");
            }
        }
    }

    #[test]
    fn every_family_keeps_the_shape_and_the_pinned_counts_at_its_smallest_point() {
        // Two samples, so a count that differs between samples shows.
        let mut run = Run::smallest(2);
        for family in ALL {
            family(&mut run);
        }
        let header = Header {
            nproc: 1,
            commit: "c".into(),
            dirty: false,
            rustc: "r".into(),
        };
        let doc = parse(&to_json(&header, &run.records)).expect("the document parses");
        check_document(&doc, 2);

        // Samples within one run can agree on a value that still moves
        // between runs (a statistic of timings): a second run of E3, the
        // family with the most estimates, reproduces every exact record.
        let exact_e3 = |records: &[Record]| -> Vec<Record> {
            let e3 = records.iter().filter(|r| r.row.starts_with("E3 "));
            e3.filter(|r| r.unit.exact()).cloned().collect()
        };
        let mut again = Run::smallest(2);
        e3_cover_space(&mut again);
        let first = exact_e3(&run.records);
        assert!(first.iter().any(|r| r.metric == "est_cost"));
        let second = exact_e3(&again.records);
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(
                a, b,
                "a second run moved {} / {} / {}",
                a.row, a.cell, a.metric
            );
        }

        let count = |row: &str, cell: &str, metric: &str| {
            let record = run.get(row, cell, metric);
            record
                .unwrap_or_else(|| panic!("no {row} / {cell} / {metric}"))
                .median()
        };
        // Example 1's per-atom raw unions: the SCQ sums them, the UCQ is
        // their product (the paper's 318 096 needs the univ-bench OWL).
        let atoms: Vec<f64> = (1..=6)
            .map(|i| count("E1 scale=1", &format!("t{i}"), "raw_union_cqs"))
            .collect();
        assert_eq!(atoms, [89.0, 89.0, 1.0, 1.0, 3.0, 3.0]);
        assert_eq!(count("E1 scale=1", "Ref/SCQ", "evaluated_cqs"), 186.0);
        assert_eq!(count("E1 scale=1", "Ref/UCQ", "product_cqs"), 71_289.0);
        for (kind, n) in [
            ("subClassOf", 24.0),
            ("subPropertyOf", 5.0),
            ("domain", 9.0),
            ("range", 8.0),
        ] {
            assert_eq!(count("E7 LUBM scale=2", "constraints", kind), n, "{kind}");
        }
        for (profile, n) in [
            ("complete", 1092.0),
            ("hierarchies-only", 1088.0),
            ("subclass-only", 919.0),
            ("no-reasoning", 73.0),
        ] {
            assert_eq!(count("E8 total", profile, "answers"), n, "{profile}");
        }
    }

    #[test]
    fn the_committed_run_has_the_record_shape() {
        let doc = parse(include_str!("../experiments.json")).expect("the document parses");
        check_document(&doc, SAMPLES);
    }
}
