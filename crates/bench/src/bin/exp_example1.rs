//! E1 — the paper's §4 Example 1.
//!
//! Paper-reported values (100M-triple LUBM, RDBMS back-end):
//! * UCQ reformulation: 318,096 CQs — "could not even be parsed";
//! * SCQ: 229 s (subqueries with up to 33,328,108 results);
//! * best JUCQ `{{t1,t3},{t3,t5},{t2,t4},{t4,t6}}`: 524 ms — >430× faster.
//!
//! This binary reproduces the *shape* at laptop scale: the UCQ blow-up
//! count, SCQ vs paper-cover vs GCov-selected-cover runtimes, and the
//! speedup factor. Scales configurable: `EXP_SCALES=1,4,8` (universities);
//! `EXP_DENSITY=k` multiplies per-department population (the bigger the
//! unselective `rdf:type` relation, the closer the SCQ/JUCQ gap gets to the
//! paper's 430×).

use rdfref_bench::report::Table;
use rdfref_bench::{fmt_duration, time, MetricsSink};
use rdfref_core::answer::{AnswerOptions, Database, Strategy};
use rdfref_core::gcov::{gcov, GcovOptions};
use rdfref_core::reformulate::{
    reformulate_ucq_raw, ucq_size_product, ReformulationLimits, RewriteContext,
};
use rdfref_datagen::lubm::{generate, LubmConfig};
use rdfref_datagen::queries;
use rdfref_query::Cover;
use rdfref_storage::CostModel;

fn main() {
    let sink = MetricsSink::from_args();
    let scales: Vec<usize> = std::env::var("EXP_SCALES")
        .unwrap_or_else(|_| "1,4,8".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let limit = ReformulationLimits::new().with_max_cqs(50_000);

    let mut table = Table::new(
        "E1 — Example 1: UCQ vs SCQ vs JUCQ vs GCov \
         (paper: UCQ 318,096 CQs unparseable; SCQ 229 s; best JUCQ 524 ms; >430×)",
        &[
            "scale",
            "triples",
            "|UCQ| (product, raw)",
            "UCQ",
            "|SCQ| raw → evaluated",
            "SCQ",
            "JUCQ paper cover",
            "GCov search",
            "GCov eval",
            "GCov cover",
            "answers",
            "speedup SCQ/JUCQ",
        ],
    );

    let density: usize = std::env::var("EXP_DENSITY")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1);
    for &scale in &scales {
        eprintln!("scale {scale}: generating…");
        let base = LubmConfig::scale(scale);
        let ds = generate(&LubmConfig {
            undergraduate_students: base.undergraduate_students * density,
            graduate_students: base.graduate_students * density,
            publications_per_faculty: base.publications_per_faculty * density,
            ..base
        });
        let q = queries::example1(&ds, 0).expect("workload is well-formed");
        let db = Database::builder()
            .build(ds.graph.clone())
            .with_obs(sink.obs());
        let opts = AnswerOptions::new().with_limits(limit);
        let ctx = RewriteContext::new(db.schema(), db.closure());

        // The would-be UCQ size (the paper's 318,096 analogue).
        let ucq_size = ucq_size_product(&q, &ctx);

        // (i) UCQ attempt.
        let ucq_cell = match db.run_query(&q, &Strategy::RefUcq, &opts) {
            Ok(a) => fmt_duration(a.explain.wall),
            Err(_) => "FAILS".to_string(),
        };

        // (ii) SCQ.
        let scq = db
            .run_query(&q, &Strategy::RefScq, &opts)
            .expect("SCQ runs");

        // Its fragments' raw fixpoints, next to what was evaluated.
        let columns = Cover::singletons(q.size()).fragment_columns(&q);
        let fragments = columns.iter().enumerate();
        let scq_raw: usize = fragments
            .map(|(i, cols)| q.project_fragment(&[i], cols))
            .map(|fragment| reformulate_ucq_raw(&fragment, &ctx, limit).map_or(0, |u| u.len()))
            .sum();

        // (iii) the paper's cover.
        let paper = db
            .run_query(
                &q,
                &Strategy::RefJucq(
                    queries::example1_paper_cover().expect("workload is well-formed"),
                ),
                &opts,
            )
            .expect("paper cover runs");
        assert_eq!(paper.rows(), scq.rows());

        // (iv) GCov: search and evaluation timed separately.
        let model = CostModel::new(db.stats());
        let (search, search_time) = time(|| {
            gcov(&q, &ctx, &model, &GcovOptions::new().with_limits(limit)).expect("GCov runs")
        });
        let gcv = db
            .run_query(&q, &Strategy::RefJucq(search.cover.clone()), &opts)
            .expect("GCov cover runs");
        assert_eq!(gcv.rows(), scq.rows());

        let speedup = scq.explain.wall.as_secs_f64() / paper.explain.wall.as_secs_f64().max(1e-9);
        table.row(&[
            scale.to_string(),
            ds.graph.len().to_string(),
            ucq_size.to_string(),
            ucq_cell,
            format!("{scq_raw} → {}", scq.explain.reformulation_cqs),
            fmt_duration(scq.explain.wall),
            fmt_duration(paper.explain.wall),
            fmt_duration(search_time),
            fmt_duration(gcv.explain.wall),
            search.cover.to_string(),
            scq.len().to_string(),
            format!("{speedup:.1}×"),
        ]);
    }
    table.emit("exp_example1");
    match sink.flush() {
        Ok(Some((json, prom))) => println!(
            "metrics: JSON → {}, Prometheus → {}",
            json.display(),
            prom.display()
        ),
        Ok(None) => {}
        Err(e) => eprintln!("metrics: write failed: {e}"),
    }
}
