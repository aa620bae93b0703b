//! A *dynamic* RDF endpoint: continuous updates + queries, comparing the
//! maintenance cost of Sat (incremental saturation) against Ref (no
//! maintenance at all) — the scenario of the paper's introduction, where
//! endpoints "may or may not be saturated" and keeping saturations current
//! is the cost Ref avoids.
//!
//! ```sh
//! cargo run --release --example dynamic_endpoint
//! ```

use rdfref::datagen::lubm::{generate, LubmConfig, LubmDataset, UB};
use rdfref::prelude::*;
use std::time::{Duration, Instant};

fn main() {
    let ds = generate(&LubmConfig::scale(2));
    println!(
        "endpoint starts with {} explicit triples (LUBM-like scale 2)\n",
        ds.graph.len()
    );

    let mut q_graph = ds.graph.clone();
    let query = parse_select(
        &format!(
            "PREFIX ub: <{UB}> SELECT ?x WHERE {{ ?x a ub:Person . ?x ub:memberOf <{}> }}",
            LubmDataset::department_iri(0, 0)
        ),
        q_graph.dictionary_mut(),
    )
    .expect("query parses");

    let explicit_at_start = q_graph.len();
    let db = Database::builder().build_serving(q_graph);
    let opts = AnswerOptions::default();
    let member = |round: usize| {
        let person = Term::iri(format!("http://dynamic.example.org/member{round}"));
        let triple = |p: String, o: String| {
            Triple::new(person.clone(), Term::iri(p), Term::iri(o)).expect("well-formed triple")
        };
        vec![
            triple(format!("{UB}memberOf"), LubmDataset::department_iri(0, 0)),
            triple(
                rdfref::model::vocab::RDF_TYPE.to_string(),
                format!("{UB}GraduateStudent"),
            ),
        ]
    };

    // Interleave: 20 rounds of (insert a few members, ask the query twice —
    // once via maintained Sat, once via Ref/GCov). Track cumulative costs.
    let mut sat_time = Duration::ZERO;
    let mut ref_time = Duration::ZERO;
    let mut maintenance_time = Duration::ZERO;
    let mut last_counts = (0usize, 0usize);
    for round in 0..20 {
        // A new person joins department (0,0) every round. Waiting on the
        // ticket makes the write synchronous: the next snapshot contains it.
        let start = Instant::now();
        db.insert(member(round))
            .and_then(|ticket| ticket.wait())
            .expect("maintenance pipeline alive");
        maintenance_time += start.elapsed();

        let start = Instant::now();
        let sat = db
            .query(&query)
            .strategy(Strategy::Saturation)
            .options(opts.clone())
            .run()
            .expect("Sat answers");
        sat_time += start.elapsed();

        let start = Instant::now();
        let gcv = db
            .query(&query)
            .strategy(Strategy::RefGCov)
            .options(opts.clone())
            .run()
            .expect("Ref answers");
        ref_time += start.elapsed();

        assert_eq!(sat.rows(), gcv.rows(), "round {round} diverged");
        last_counts = (sat.len(), gcv.len());
    }

    println!("after 20 rounds of updates + queries:");
    println!(
        "  answers now                 : {} (both strategies agree)",
        last_counts.0
    );
    println!("  Sat: incremental maintenance: {maintenance_time:?} total");
    println!("  Sat: query evaluation       : {sat_time:?} total");
    println!("  Ref: query answering        : {ref_time:?} total (no maintenance ever)");

    // Deleting everything we added brings the endpoint back exactly.
    let to_delete: Vec<Triple> = (0..20).flat_map(member).collect();
    let start = Instant::now();
    let report = db
        .delete(to_delete)
        .and_then(|ticket| ticket.wait())
        .expect("maintenance pipeline alive");
    println!(
        "\nDeleting all 40 update triples removed {} triples in {:?}",
        report.saturation_removed(),
        start.elapsed()
    );
    let snapshot = db.snapshot();
    assert_eq!(snapshot.explicit_len(), explicit_at_start);
    // Every member inserted above was deleted again: the explicit triples
    // are the ones the endpoint started from.
    assert_eq!(snapshot.saturation_len(), saturate(&ds.graph).len());
    println!("maintained saturation verified against from-scratch saturation ✓");
}
