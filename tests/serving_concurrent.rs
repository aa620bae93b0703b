//! Snapshot isolation under live maintenance: N reader threads hammer a
//! [`ServingDatabase`] while the writer churns insert/delete batches.
//!
//! The invariants, per read:
//!
//! * the answer carries a snapshot stamp (`explain.snapshot`) and every
//!   strategy run against the *same* snapshot reports the *same* stamp —
//!   no torn (graph, saturation, epoch) state;
//! * the rows equal the reference answer for exactly that snapshot's
//!   prefix of applied batches (the churn is designed so that every seq
//!   has a distinct answer set);
//! * per reader thread, observed seqs never go backwards (publication is
//!   monotonic);
//! * readers never block on the writer: they run to completion even while
//!   batches are continuously applied.

use rdfref::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const READERS: usize = 4;
const BATCHES: u64 = 40;

const BASE: &str = r#"
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:Book rdfs:subClassOf ex:Publication .
ex:writtenBy rdfs:domain ex:Book .
ex:doi1 a ex:Book .
"#;

fn iri(name: &str) -> Term {
    Term::iri(format!("http://example.org/{name}"))
}

fn type_triple(name: &str) -> Triple {
    Triple::new(
        iri(name),
        Term::iri(rdfref::model::vocab::RDF_TYPE),
        iri("Book"),
    )
    .unwrap()
}

/// The expected `?x a ex:Publication` answer at snapshot seq `s`.
///
/// Batch `i` (1-based) inserts `inst{i}` when `i` is odd and deletes
/// `inst{i-1}` when `i` is even, so `inst{s}` is present exactly at the
/// odd seq `s` — every seq has a distinct answer set, which makes
/// prefix-consistency checkable from the stamp alone.
fn expected(seq: u64) -> BTreeSet<String> {
    let mut rows = BTreeSet::new();
    rows.insert("<http://example.org/doi1>".to_string());
    if seq % 2 == 1 {
        rows.insert(format!("<http://example.org/inst{seq}>"));
    }
    rows
}

fn answer_set(snapshot: &Snapshot, answer: &QueryAnswer) -> BTreeSet<String> {
    answer
        .decoded(snapshot.dictionary())
        .into_iter()
        .map(|row| {
            assert_eq!(row.len(), 1);
            row[0].to_string()
        })
        .collect()
}

#[test]
fn readers_see_prefix_consistent_snapshots_under_churn() {
    let mut graph = rdfref::model::parser::parse_turtle(BASE).unwrap();
    let q = parse_select(
        "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Publication }",
        graph.dictionary_mut(),
    )
    .unwrap();
    let db = Arc::new(Database::builder().build_serving(graph));
    let done = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for reader in 0..READERS {
            let db = Arc::clone(&db);
            let done = Arc::clone(&done);
            let reads = Arc::clone(&reads);
            let q = q.clone();
            handles.push(scope.spawn(move || {
                let mut last_seq = 0u64;
                // Alternate the second strategy so reformulation caching and
                // cost-based planning both race with publication.
                let strategies = [Strategy::RefUcq, Strategy::RefGCov];
                let mut iteration = 0usize;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let snap = db.snapshot();
                    let seq = snap.seq();
                    assert!(
                        seq >= last_seq,
                        "reader {reader}: seq went backwards ({last_seq} -> {seq})"
                    );
                    last_seq = seq;

                    let sat = snap.query(&q).strategy(Strategy::Saturation).run().unwrap();
                    let alt = snap
                        .query(&q)
                        .strategy(strategies[iteration % 2].clone())
                        .run()
                        .unwrap();
                    iteration += 1;

                    // Both answers are stamped with the snapshot they ran on.
                    assert_eq!(sat.explain.snapshot, Some(snap.info()));
                    assert_eq!(alt.explain.snapshot, Some(snap.info()));

                    // And both equal the reference for exactly that prefix.
                    let sat_rows = answer_set(&snap, &sat);
                    let alt_rows = answer_set(&snap, &alt);
                    assert_eq!(
                        sat_rows,
                        expected(seq),
                        "reader {reader}: Sat diverged from prefix {seq}"
                    );
                    assert_eq!(
                        alt_rows, sat_rows,
                        "reader {reader}: strategies tore on one snapshot (seq {seq})"
                    );
                    reads.fetch_add(1, Ordering::Relaxed);
                    // One final iteration after the writer finishes so the
                    // terminal state is observed too.
                    if finished {
                        break;
                    }
                }
            }));
        }

        // The writer: one batch at a time, waiting on each ticket so that
        // seq k is published before batch k+1 is built.
        for i in 1..=BATCHES {
            let batch = if i % 2 == 1 {
                UpdateBatch::new().insert(type_triple(&format!("inst{i}")))
            } else {
                UpdateBatch::new().delete(type_triple(&format!("inst{}", i - 1)))
            };
            let report = db.submit(batch).unwrap().wait().unwrap();
            assert_eq!(report.seq(), i);
        }
        done.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
    });

    assert!(
        reads.load(Ordering::Relaxed) >= READERS as u64,
        "every reader must complete at least one read"
    );
    assert_eq!(db.published_seq(), BATCHES);
    let terminal = db.snapshot();
    assert_eq!(terminal.seq(), BATCHES);
    let ans = terminal
        .query(&q)
        .strategy(Strategy::Saturation)
        .run()
        .unwrap();
    assert_eq!(answer_set(&terminal, &ans), expected(BATCHES));
}

/// Tickets resolve after publication: a reader that waited on a batch's
/// ticket immediately sees (at least) that batch's state — read-your-writes
/// through the snapshot cell, from a plain `&self` handle.
#[test]
fn ticket_wait_gives_read_your_writes() {
    let mut graph = rdfref::model::parser::parse_turtle(BASE).unwrap();
    let q = parse_select(
        "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Publication }",
        graph.dictionary_mut(),
    )
    .unwrap();
    let db = Database::builder().build_serving(graph);
    for i in 1..=6u64 {
        let t = type_triple(&format!("rw{i}"));
        let report = db.insert(vec![t]).unwrap().wait().unwrap();
        let snap = db.snapshot();
        assert!(
            snap.seq() >= report.seq(),
            "snapshot after wait() is older than the acknowledged batch"
        );
        let ans = snap.query(&q).strategy(Strategy::RefUcq).run().unwrap();
        // doi1 + rw1..=rwi are all Books ⟹ Publications.
        assert_eq!(ans.len(), 1 + i as usize);
    }
}
