//! A1–A6 — ablations of the design decisions called out in `DESIGN.md` §2.
//!
//! * A1: dictionary encoding vs term-level scanning;
//! * A2: precomputed schema closure vs per-reformulation closure;
//! * A3: full cost model vs cardinality-only vs size-only cost for GCov;
//! * A4: GCov vs exhaustive partition enumeration (optimality gap);
//! * A5: semi-naive saturation — one derivation step, so nothing to ablate;
//! * A6: minimisation of reformulated unions (part of every reformulation).

use rdfref_bench::report::Table;
use rdfref_bench::{fmt_duration, time};
use rdfref_core::answer::{AnswerOptions, Database, Strategy};
use rdfref_core::gcov::{gcov, GcovOptions};
use rdfref_core::reformulate::{
    reformulate_ucq, reformulate_ucq_raw, ReformulationLimits, RewriteContext,
};
use rdfref_datagen::lubm::{generate, LubmConfig};
use rdfref_datagen::queries;
use rdfref_model::dictionary::ID_RDF_TYPE;
use rdfref_obs::{MetricsRegistry, Obs};
use rdfref_query::containment::minimize_union;
use rdfref_query::Cover;
use rdfref_reasoning::saturate_in_place_obs;
use rdfref_storage::cost::CostParams;
use rdfref_storage::{Bound, CostModel, Pattern, Store};
use std::sync::Arc;

fn main() {
    let ds = generate(&LubmConfig::scale(2));
    let db = Database::builder().build(ds.graph.clone());

    let limits = ReformulationLimits::default();
    let mut table = Table::new(
        "A1–A6 — design-decision ablations",
        &["ablation", "variant", "result"],
    );

    // A1: dictionary-encoded index scan vs decoding every triple to terms.
    {
        let store = Store::from_graph(&ds.graph);
        let type_id = ID_RDF_TYPE;
        let target = ds.vocab.graduate_student;
        let (n1, t_encoded) = time(|| {
            let mut n = 0;
            for _ in 0..50 {
                n += store.count(Pattern {
                    p: Bound::Const(type_id),
                    o: Bound::Const(target),
                    ..Pattern::ALL
                });
            }
            n
        });
        let (n2, t_terms) = time(|| {
            let dict = ds.graph.dictionary();
            let type_term = dict.term(type_id).clone();
            let target_term = dict.term(target).clone();
            let mut n = 0;
            for _ in 0..50 {
                n += ds
                    .graph
                    .iter_decoded()
                    .filter(|t| t.property == type_term && t.object == target_term)
                    .count();
            }
            n
        });
        assert_eq!(n1, n2);
        table.row(&[
            "A1 dictionary encoding".into(),
            "indexed u32 ids vs term-level scan (50 lookups)".into(),
            format!(
                "{} vs {} ({:.0}× faster)",
                fmt_duration(t_encoded),
                fmt_duration(t_terms),
                t_terms.as_secs_f64() / t_encoded.as_secs_f64().max(1e-9)
            ),
        ]);
    }

    // A2: reformulation with a precomputed closure vs recomputing per call.
    {
        let q = queries::lubm_mix(&ds)
            .expect("workload is well-formed")
            .into_iter()
            .find(|nq| nq.name == "Q10")
            .unwrap()
            .cq;
        let closure = db.schema().closure();
        let (_, t_pre) = time(|| {
            for _ in 0..20 {
                let ctx = RewriteContext::new(db.schema(), &closure);
                reformulate_ucq(&q, &ctx, limits).unwrap();
            }
        });
        let (_, t_re) = time(|| {
            for _ in 0..20 {
                let closure = db.schema().closure(); // recomputed every call
                let ctx = RewriteContext::new(db.schema(), &closure);
                reformulate_ucq(&q, &ctx, limits).unwrap();
            }
        });
        table.row(&[
            "A2 closure precompute".into(),
            "shared closure vs per-call closure (20 reformulations of Q10)".into(),
            format!("{} vs {}", fmt_duration(t_pre), fmt_duration(t_re)),
        ]);
    }

    // A3: GCov under different cost models.
    {
        let q = queries::example1(&ds, 0).expect("workload is well-formed");
        let ctx = RewriteContext::new(db.schema(), db.closure());
        let gcov_opts =
            GcovOptions::new().with_limits(ReformulationLimits::new().with_max_cqs(50_000));
        let variants: Vec<(&str, CostParams)> = vec![
            ("full model", CostParams::default()),
            (
                "cardinality-only",
                CostParams {
                    scan_cost_per_row: 0.0,
                    join_cost_per_row: 0.0,
                    dedup_cost_per_row: 1.0, // final cardinality only
                    probe_cost_per_row: 0.0,
                    parse_cost_per_cq: 0.0,
                    parse_cost_per_atom: 0.0,
                    ..CostParams::default()
                },
            ),
            (
                "no compile overhead",
                CostParams {
                    parse_cost_per_cq: 0.0,
                    parse_cost_per_atom: 0.0,
                    ..CostParams::default()
                },
            ),
        ];
        for (name, params) in variants {
            let mut model = CostModel::new(db.stats());
            model.params = params;
            let result = gcov(&q, &ctx, &model, &gcov_opts).expect("gcov runs");
            let actual = db
                .run_query(
                    &q,
                    &Strategy::RefJucq(result.cover.clone()),
                    &AnswerOptions::new()
                        .with_limits(ReformulationLimits::new().with_max_cqs(50_000)),
                )
                .expect("cover evaluates");
            table.row(&[
                "A3 cost model for GCov".into(),
                name.into(),
                format!(
                    "picked {} → actual {}",
                    result.cover,
                    fmt_duration(actual.explain.wall)
                ),
            ]);
        }
    }

    // A4: GCov vs exhaustive partition search on a 4-atom query.
    {
        let q = queries::lubm_mix(&ds)
            .expect("workload is well-formed")
            .into_iter()
            .find(|nq| nq.name == "Q08")
            .unwrap()
            .cq;
        let ctx = RewriteContext::new(db.schema(), db.closure());
        let model = CostModel::new(db.stats());
        let (greedy, t_greedy) = time(|| gcov(&q, &ctx, &model, &GcovOptions::default()).unwrap());
        let (best, t_exhaustive) = time(|| {
            Cover::enumerate_partitions(q.size())
                .into_iter()
                .filter_map(|cover| {
                    let jucq = rdfref_core::reformulate::reformulate_jucq(&q, &cover, &ctx, limits)
                        .ok()?;
                    Some((model.jucq_estimate(&jucq).cost, cover))
                })
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("some cover works")
        });
        table.row(&[
            "A4 greedy vs exhaustive".into(),
            format!(
                "GCov ({}) vs all {} partitions ({})",
                fmt_duration(t_greedy),
                Cover::enumerate_partitions(q.size()).len(),
                fmt_duration(t_exhaustive)
            ),
            format!(
                "GCov cost {:.0} (cover {}) vs optimal partition cost {:.0} (cover {}) — gap {:.1}%",
                greedy.estimate.cost,
                greedy.cover,
                best.0,
                best.1,
                100.0 * (greedy.estimate.cost - best.0) / best.0.max(1e-9)
            ),
        ]);
    }

    // A5: against the closed schema (D2) saturation is one derivation step,
    // so there is no fixpoint left for semi-naive evaluation to speed up.
    {
        let registry = Arc::new(MetricsRegistry::new());
        let mut g = ds.graph.clone();
        let (_, t) =
            time(|| saturate_in_place_obs(&mut g, &Obs::collecting(Arc::clone(&registry) as _)));
        table.row(&[
            "A5 semi-naive saturation".into(),
            "no fixpoint left to ablate".into(),
            format!(
                "saturate.rounds = {} ({})",
                registry.snapshot().counter("saturate.rounds"),
                fmt_duration(t)
            ),
        ]);
    }

    // A6: minimisation of the reformulated unions — the raw fixpoint and the
    // pass on top of it, timed apart. The kernel this pass replaced took the
    // Q02 build from 225 µs to 671 µs (EXPERIMENTS.md A6).
    {
        let q = queries::lubm_mix(&ds)
            .expect("workload is well-formed")
            .into_iter()
            .find(|nq| nq.name == "Q02")
            .unwrap()
            .cq;
        let ctx = RewriteContext::new(db.schema(), db.closure());
        let (raw, t_raw) =
            time(|| reformulate_ucq_raw(&q, &ctx, ReformulationLimits::default()).unwrap());
        let raw_cqs = raw.len();
        let (minimal, t_minimize) = time(|| minimize_union(raw));
        table.row(&[
            "A6 union minimisation".into(),
            "Q02 reformulation, raw fixpoint vs minimised union".into(),
            format!(
                "{} CQs ({}) vs {} CQs (+{})",
                raw_cqs,
                fmt_duration(t_raw),
                minimal.len(),
                fmt_duration(t_minimize)
            ),
        ]);
    }

    table.emit("exp_ablations");
}
