//! Concurrent answering through the shared plan cache.
//!
//! N threads hammer one `Database` with the LUBM and biblio query mixes,
//! cache enabled (the default), interleaving strategies and starting
//! offsets so that cache lookups, inserts and LRU updates race. Every
//! thread's rows must equal the single-threaded `Strategy::Saturation`
//! reference — the workspace-wide completeness invariant, now under
//! concurrency.

use rdfref::datagen::{biblio, lubm, queries};
use rdfref::model::TermId;
use rdfref::prelude::*;
use std::sync::Arc;

const THREADS: usize = 8;
const ROUNDS: usize = 3;

/// (name, query, single-threaded Sat reference rows).
type Workload = Vec<(String, Cq, Vec<Vec<TermId>>)>;

fn reference_workload(
    db: &Database,
    queries: Vec<rdfref::datagen::queries::NamedQuery>,
) -> Workload {
    let opts = AnswerOptions::default();
    queries
        .into_iter()
        .map(|nq| {
            let reference = db
                .run_query(&nq.cq, &Strategy::Saturation, &opts)
                .unwrap_or_else(|e| panic!("{}: Sat reference failed: {e}", nq.name))
                .rows();
            (nq.name.to_string(), nq.cq, reference)
        })
        .collect()
}

fn hammer(db: Arc<Database>, workload: Arc<Workload>) {
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = Arc::clone(&db);
            let workload = Arc::clone(&workload);
            std::thread::spawn(move || {
                let strategies = [Strategy::RefUcq, Strategy::RefScq, Strategy::RefGCov];
                let opts = AnswerOptions::default();
                for round in 0..ROUNDS {
                    // Offset per thread and round so lookups and inserts for
                    // the same key interleave across threads.
                    for i in 0..workload.len() {
                        let (name, cq, reference) = &workload[(i + t + round) % workload.len()];
                        let strategy = &strategies[(i + t) % strategies.len()];
                        let got = db
                            .run_query(cq, strategy, &opts)
                            .unwrap_or_else(|e| {
                                panic!("thread {t}: {name}/{}: {e}", strategy.name())
                            })
                            .rows();
                        assert_eq!(
                            &got,
                            reference,
                            "thread {t}: {name}/{} diverged from Sat",
                            strategy.name()
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("answering thread panicked");
    }

    // Sanity on the shared cache: every answering call did one lookup, and
    // the entries that accumulated are one per (query, tag) — SCQ and UCQ
    // tags per query, plus GCov — never more than lookups.
    let c = db.plan_cache().counters();
    let calls = (THREADS * ROUNDS * workload.len()) as u64;
    assert_eq!(c.hits + c.misses, calls, "one lookup per answering call");
    assert!(c.hits > 0, "repeated queries must hit");
    assert!(
        db.plan_cache().len() as u64 <= c.misses,
        "at most one insert per miss"
    );
}

#[test]
fn lubm_mix_concurrent_equals_saturation() {
    let ds = lubm::generate(&lubm::LubmConfig::scale(2));
    let db = Arc::new(Database::builder().build(ds.graph.clone()));
    let workload = Arc::new(reference_workload(&db, queries::lubm_mix(&ds).unwrap()));
    hammer(db, workload);
}

#[test]
fn biblio_mix_concurrent_equals_saturation() {
    let config = biblio::BiblioConfig {
        publications: 600,
        authors: 120,
        ..biblio::BiblioConfig::default()
    };
    let ds = biblio::generate(&config);
    let db = Arc::new(Database::builder().build(ds.graph.clone()));
    let workload = Arc::new(reference_workload(&db, queries::biblio_mix(&ds).unwrap()));
    hammer(db, workload);
}
