//! A university-portal scenario on LUBM-like data — including the paper's
//! Example 1, with the UCQ / SCQ / paper-cover / GCov comparison.
//!
//! ```sh
//! cargo run --release --example university_portal
//! ```

use rdfref::datagen::lubm::{generate, LubmConfig};
use rdfref::datagen::queries;
use rdfref::prelude::*;
use std::time::Instant;

fn main() {
    let scale: usize = std::env::var("SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    println!("generating LUBM-like dataset (scale {scale})…");
    let ds = generate(&LubmConfig::scale(scale));
    println!("  {} triples\n", ds.graph.len());

    let example1 = queries::example1(&ds, 0).expect("workload is well-formed");
    let db = Database::builder().build(ds.graph.clone());
    // Keep the UCQ attempt from consuming the machine: the point of
    // Example 1 is that it is infeasible.
    let opts = AnswerOptions::new().with_limits(ReformulationLimits::new().with_max_cqs(50_000));

    println!("=== the paper's Example 1 query ===");
    println!(
        "{}\n",
        rdfref::query::display::cq_to_string(&example1, db.dictionary())
    );

    // Reference answer via saturation.
    let start = Instant::now();
    let reference = db
        .query(&example1)
        .strategy(Strategy::Saturation)
        .options(opts.clone())
        .run()
        .expect("Sat works");
    println!(
        "Sat              : {:>6} answers in {:?} ({} triples materialized)\n",
        reference.len(),
        start.elapsed(),
        reference.explain.saturation_added
    );

    // (i) UCQ: typically fails by reformulation size.
    match db
        .query(&example1)
        .strategy(Strategy::RefUcq)
        .options(opts.clone())
        .run()
    {
        Ok(a) => println!(
            "Ref/UCQ          : {:>6} answers in {:?} ({} CQs)",
            a.len(),
            a.explain.wall,
            a.explain.reformulation_cqs
        ),
        Err(e) => println!("Ref/UCQ          : FAILED — {e}"),
    }

    // (ii) SCQ: feasible but slow (huge intermediate results).
    let scq = db
        .query(&example1)
        .strategy(Strategy::RefScq)
        .options(opts.clone())
        .run()
        .expect("SCQ works");
    assert_eq!(scq.rows(), reference.rows());
    println!(
        "Ref/SCQ          : {:>6} answers in {:?} (peak intermediate {} rows)",
        scq.len(),
        scq.explain.wall,
        scq.explain.metrics.peak_intermediate
    );

    // (iii) The paper's hand-picked cover {{t1,t3},{t3,t5},{t2,t4},{t4,t6}}.
    let paper_cover = queries::example1_paper_cover().expect("workload is well-formed");
    let jucq = db
        .query(&example1)
        .strategy(Strategy::RefJucq(paper_cover.clone()))
        .options(opts.clone())
        .run()
        .expect("paper cover works");
    assert_eq!(jucq.rows(), reference.rows());
    println!(
        "Ref/JUCQ {paper_cover}: {:>6} answers in {:?} (peak {} rows)",
        jucq.len(),
        jucq.explain.wall,
        jucq.explain.metrics.peak_intermediate
    );

    // (iv) GCov finds a good cover automatically.
    let gcv = db
        .query(&example1)
        .strategy(Strategy::RefGCov)
        .options(opts.clone())
        .run()
        .expect("GCov works");
    assert_eq!(gcv.rows(), reference.rows());
    println!(
        "Ref/GCov         : {:>6} answers in {:?} (cover {}, explored {} covers)\n",
        gcv.len(),
        gcv.explain.wall,
        gcv.explain.cover.as_ref().unwrap(),
        gcv.explain.explored.len()
    );

    // The rest of the portal workload.
    println!("=== LUBM query mix (Sat vs GCov) ===");
    println!(
        "{:<5} {:>8} {:>12} {:>12}   description",
        "query", "answers", "Sat", "Ref/GCov"
    );
    for nq in queries::lubm_mix(&ds).expect("workload is well-formed") {
        let sat = db
            .query(&nq.cq)
            .strategy(Strategy::Saturation)
            .options(opts.clone())
            .run()
            .expect(nq.name);
        let gcv = db
            .query(&nq.cq)
            .strategy(Strategy::RefGCov)
            .options(opts.clone())
            .run()
            .expect(nq.name);
        assert_eq!(sat.rows(), gcv.rows(), "{} diverged", nq.name);
        println!(
            "{:<5} {:>8} {:>12?} {:>12?}   {}",
            nq.name,
            sat.len(),
            sat.explain.wall,
            gcv.explain.wall,
            nq.description
        );
    }
}
