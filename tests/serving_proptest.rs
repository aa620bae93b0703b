//! Snapshot-isolation property test: under randomly generated interleavings
//! of insert/delete batches and reads, every read against a
//! [`ServingDatabase`] equals answering over *some prefix* of the applied
//! batches — the prefix named by the answer's snapshot stamp — and the
//! complete strategies (Sat and cost-based GCov) agree on every snapshot.
//!
//! Two submission modes are exercised:
//!
//! * **acknowledged** — the writer waits on each ticket, so each read's
//!   stamp must equal the just-acknowledged prefix exactly;
//! * **flooded** — all batches are submitted before any read; the pipeline
//!   coalesces them freely, and each read's stamp names whatever prefix got
//!   published, which the reference must reproduce.
//!
//! Run with `--features strict-invariants` to add the store/saturation
//! length cross-checks inside the maintenance pipeline itself.

use proptest::prelude::*;
use proptest::strategy::Strategy;
use rdfref::core::answer::Strategy as AnswerStrategy;
use rdfref::model::vocab;
use rdfref::prelude::*;
use std::collections::BTreeSet;

const INDIVIDUALS: usize = 4;
const CLASSES: usize = 3;

/// One update: insert (`true`) or delete a `(individual, class)` type fact.
type Op = (bool, usize, usize);

fn ind(i: usize) -> Term {
    Term::iri(format!("http://t/i{i}"))
}

fn class(c: usize) -> Term {
    Term::iri(format!("http://t/C{c}"))
}

fn type_triple(i: usize, c: usize) -> Triple {
    Triple::new(ind(i), Term::iri(vocab::RDF_TYPE), class(c)).unwrap()
}

/// The fixed schema: C0 ⊑ C1 ⊑ C2, so `?x a C2` requires reformulation
/// (or saturation) to see instances asserted at C0/C1.
fn base_graph() -> Graph {
    let mut g = Graph::new();
    g.insert_triple(&Triple::new(class(0), Term::iri(vocab::RDFS_SUBCLASSOF), class(1)).unwrap());
    g.insert_triple(&Triple::new(class(1), Term::iri(vocab::RDFS_SUBCLASSOF), class(2)).unwrap());
    // One permanent instance so the answer is never trivially empty.
    g.insert_triple(&type_triple(0, 0));
    g
}

fn query(dict: &mut Dictionary) -> Cq {
    parse_select("PREFIX t: <http://t/> SELECT ?x WHERE { ?x a t:C2 }", dict).unwrap()
}

/// Reference model: the set of explicit type facts after a prefix of
/// batches. An [`UpdateBatch`] applies all inserts before all deletes
/// (so a triple both inserted and deleted in one batch ends up absent);
/// inserting an existing fact and deleting a missing one are no-ops in a
/// set-semantics RDF store.
fn apply_prefix(facts: &mut BTreeSet<(usize, usize)>, batch: &[Op]) {
    for &(insert, i, c) in batch {
        if insert {
            facts.insert((i, c));
        }
    }
    for &(insert, i, c) in batch {
        if !insert {
            facts.remove(&(i, c));
        }
    }
}

/// Answer `?x a C2` on the reference model by hand: every individual with
/// any type fact (C0, C1 and C2 all reach C2 through the chain), decoded
/// to IRI strings for dictionary-independent comparison.
fn reference_answer(facts: &BTreeSet<(usize, usize)>) -> BTreeSet<String> {
    facts
        .iter()
        .map(|&(i, _)| format!("<http://t/i{i}>"))
        .collect()
}

fn answer_set(snapshot: &Snapshot, answer: &QueryAnswer) -> BTreeSet<String> {
    answer
        .decoded(snapshot.dictionary())
        .into_iter()
        .map(|row| row[0].to_string())
        .collect()
}

/// Check one snapshot against the prefix its stamp names.
fn check_snapshot(
    snapshot: &Snapshot,
    q: &Cq,
    prefixes: &[BTreeSet<(usize, usize)>],
) -> Result<(), TestCaseError> {
    let seq = snapshot.seq() as usize;
    prop_assert!(
        seq < prefixes.len(),
        "stamp {seq} names a prefix that was never submitted"
    );
    let want = reference_answer(&prefixes[seq]);
    for strategy in [AnswerStrategy::Saturation, AnswerStrategy::RefGCov] {
        let ans = snapshot.query(q).strategy(strategy.clone()).run().unwrap();
        prop_assert_eq!(
            ans.explain.snapshot,
            Some(snapshot.info()),
            "answer not stamped with its snapshot"
        );
        let got = answer_set(snapshot, &ans);
        prop_assert_eq!(
            &got,
            &want,
            "{} diverged from prefix {} ({:?})",
            strategy.name(),
            seq,
            prefixes[seq]
        );
    }
    Ok(())
}

fn batches_strategy() -> impl proptest::strategy::Strategy<Value = Vec<Vec<Op>>> {
    let op = (any::<bool>(), 0..INDIVIDUALS, 0..CLASSES);
    proptest::collection::vec(proptest::collection::vec(op, 0..4), 1..8)
}

/// One schema-churn update: a type fact or a subclass edge, inserted
/// (`true`) or deleted.
#[derive(Debug, Clone)]
enum ChurnOp {
    Type(bool, usize, usize),
    Subclass(bool, usize, usize),
}

const CHURN_CLASSES: usize = 4;

fn subclass_triple(a: usize, b: usize) -> Triple {
    Triple::new(class(a), Term::iri(vocab::RDFS_SUBCLASSOF), class(b)).unwrap()
}

/// Chain C0 ⊑ C1 ⊑ C2 ⊑ C3 — fully interval-covered at the start, then
/// churned into arbitrary shapes (diamonds, cycles, disconnection).
fn churn_base_graph() -> Graph {
    let mut g = Graph::new();
    for i in 0..CHURN_CLASSES - 1 {
        g.insert_triple(&subclass_triple(i, i + 1));
    }
    g.insert_triple(&type_triple(0, 0));
    g
}

fn churn_batches_strategy() -> impl proptest::strategy::Strategy<Value = Vec<Vec<ChurnOp>>> {
    let type_op = (any::<bool>(), 0..INDIVIDUALS, 0..CHURN_CLASSES)
        .prop_map(|(ins, i, c)| ChurnOp::Type(ins, i, c));
    let schema_op = (any::<bool>(), 0..CHURN_CLASSES, 0..CHURN_CLASSES)
        .prop_filter("no self-loop", |(_, a, b)| a != b)
        .prop_map(|(ins, a, b)| ChurnOp::Subclass(ins, a, b));
    let op = prop_oneof![2 => type_op, 1 => schema_op];
    proptest::collection::vec(proptest::collection::vec(op, 0..4), 1..6)
}

/// Plain data predicates: no RDFS constraint mentions them, so these
/// triples churn the stores and statistics without touching the saturation
/// rules.
const DATA_PREDS: usize = 5;

fn data_pred(j: usize) -> Term {
    Term::iri(format!("http://t/p{j}"))
}

fn data_triple(i: usize, j: usize, o: usize) -> Triple {
    Triple::new(ind(i), data_pred(j), ind(o)).unwrap()
}

/// One mixed-churn update: a type fact, a subclass edge, or a plain data
/// fact under one of [`DATA_PREDS`] predicates; inserted (`true`) or deleted.
#[derive(Debug, Clone)]
enum MixedOp {
    Type(bool, usize, usize),
    Subclass(bool, usize, usize),
    Data(bool, usize, usize, usize),
}

impl MixedOp {
    fn triple(&self) -> Triple {
        match self {
            MixedOp::Type(_, i, c) => type_triple(*i, *c),
            MixedOp::Subclass(_, a, b) => subclass_triple(*a, *b),
            MixedOp::Data(_, i, j, o) => data_triple(*i, *j, *o),
        }
    }

    fn is_insert(&self) -> bool {
        matches!(
            self,
            MixedOp::Type(true, ..) | MixedOp::Subclass(true, ..) | MixedOp::Data(true, ..)
        )
    }
}

fn mixed_batches_strategy() -> impl proptest::strategy::Strategy<Value = Vec<Vec<MixedOp>>> {
    let type_op = (any::<bool>(), 0..INDIVIDUALS, 0..CHURN_CLASSES)
        .prop_map(|(ins, i, c)| MixedOp::Type(ins, i, c));
    let schema_op = (any::<bool>(), 0..CHURN_CLASSES, 0..CHURN_CLASSES)
        .prop_filter("no self-loop", |(_, a, b)| a != b)
        .prop_map(|(ins, a, b)| MixedOp::Subclass(ins, a, b));
    let data_op = (any::<bool>(), 0..INDIVIDUALS, 0..DATA_PREDS, 0..INDIVIDUALS)
        .prop_map(|(ins, i, j, o)| MixedOp::Data(ins, i, j, o));
    let op = prop_oneof![2 => type_op, 1 => schema_op, 2 => data_op];
    proptest::collection::vec(proptest::collection::vec(op, 0..4), 1..6)
}

const TYPED_QUERY: &str = "PREFIX t: <http://t/> SELECT ?x WHERE { ?x a t:C3 }";
const WILDCARD_QUERY: &str = "SELECT ?s ?o WHERE { ?s ?p ?o }";

/// All head columns of an answer, decoded to strings so databases with
/// separate dictionaries compare value-wise.
fn full_rows(dict: &Dictionary, answer: &QueryAnswer) -> BTreeSet<Vec<String>> {
    answer
        .decoded(dict)
        .into_iter()
        .map(|row| row.iter().map(|t| t.to_string()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Acknowledged mode: wait on every ticket, read after every batch.
    /// The read must see exactly the acknowledged prefix.
    #[test]
    fn acknowledged_reads_see_the_exact_prefix(batches in batches_strategy()) {
        let mut graph = base_graph();
        let q = query(graph.dictionary_mut());
        let db = Database::builder().build_serving(graph);

        // prefixes[k] = explicit type facts after k batches.
        let mut prefixes = vec![BTreeSet::from([(0usize, 0usize)])];
        for batch in &batches {
            let mut next = prefixes.last().unwrap().clone();
            apply_prefix(&mut next, batch);
            prefixes.push(next);
        }

        for (k, batch) in batches.iter().enumerate() {
            let mut update = UpdateBatch::new();
            for &(insert, i, c) in batch {
                update = if insert {
                    update.insert(type_triple(i, c))
                } else {
                    update.delete(type_triple(i, c))
                };
            }
            let report = db.submit(update).unwrap().wait().unwrap();
            prop_assert_eq!(report.seq(), (k + 1) as u64);
            let snap = db.snapshot();
            // wait() resolves only after publication, and no other writer
            // exists: the snapshot is exactly the acknowledged prefix.
            prop_assert_eq!(snap.seq(), (k + 1) as u64);
            check_snapshot(&snap, &q, &prefixes)?;
        }
    }

    /// Schema churn under interval encoding: subclass edges come and go, so
    /// every schema-changing batch re-encodes the dictionary and bumps the
    /// schema epoch. Reusing the same `Cq` across epochs is exactly the
    /// stale-plan hazard: a cached plan whose constants live in the previous
    /// encoding must never be served. A classic serving database fed the
    /// identical schedule is the oracle, and Sat-vs-reformulation agreement
    /// on every snapshot cross-checks both.
    #[test]
    fn schema_churn_never_serves_a_stale_interval_plan(batches in churn_batches_strategy()) {
        let mut graph = churn_base_graph();
        let q = parse_select(
            "PREFIX t: <http://t/> SELECT ?x WHERE { ?x a t:C3 }",
            graph.dictionary_mut(),
        )
        .unwrap();
        let interval = Database::builder()
            .encoding(rdfref::model::DictEncoding::Interval)
            .build_serving(graph.clone());
        let classic = Database::builder().build_serving(graph);

        for (k, batch) in batches.iter().enumerate() {
            let build = || {
                let mut update = UpdateBatch::new();
                for op in batch {
                    let t = match op {
                        ChurnOp::Type(_, i, c) => type_triple(*i, *c),
                        ChurnOp::Subclass(_, a, b) => subclass_triple(*a, *b),
                    };
                    let insert = matches!(
                        op,
                        ChurnOp::Type(true, ..) | ChurnOp::Subclass(true, ..)
                    );
                    update = if insert { update.insert(t) } else { update.delete(t) };
                }
                update
            };
            // Read-your-writes: the acknowledged ticket names prefix k+1 and
            // the very next snapshot serves it.
            let report = interval.submit(build()).unwrap().wait().unwrap();
            prop_assert_eq!(report.seq(), (k + 1) as u64);
            classic.submit(build()).unwrap().wait().unwrap();

            let isnap = interval.snapshot();
            let csnap = classic.snapshot();
            prop_assert_eq!(isnap.seq(), (k + 1) as u64);

            let reference = answer_set(
                &csnap,
                &csnap.query(&q).strategy(AnswerStrategy::Saturation).run().unwrap(),
            );
            for strategy in [
                AnswerStrategy::Saturation,
                AnswerStrategy::RefUcq,
                AnswerStrategy::RefGCov,
            ] {
                let ans = isnap.query(&q).strategy(strategy.clone()).run().unwrap();
                let got = answer_set(&isnap, &ans);
                prop_assert_eq!(
                    &got,
                    &reference,
                    "interval/{} diverged from classic Sat after batch {} ({:?})",
                    strategy.name(),
                    k + 1,
                    batch
                );
            }
        }
    }

    /// Flooded mode: submit everything, then read while the pipeline
    /// drains (coalescing at will). Every observed snapshot must match the
    /// prefix its stamp names; the terminal state must be reached.
    #[test]
    fn flooded_reads_see_some_prefix(batches in batches_strategy()) {
        let mut graph = base_graph();
        let q = query(graph.dictionary_mut());
        let db = Database::builder().build_serving(graph);

        let mut prefixes = vec![BTreeSet::from([(0usize, 0usize)])];
        let mut tickets = Vec::new();
        for batch in &batches {
            let mut next = prefixes.last().unwrap().clone();
            apply_prefix(&mut next, batch);
            prefixes.push(next);

            let mut update = UpdateBatch::new();
            for &(insert, i, c) in batch {
                update = if insert {
                    update.insert(type_triple(i, c))
                } else {
                    update.delete(type_triple(i, c))
                };
            }
            tickets.push(db.submit(update).unwrap());
        }

        // Read under the drain: any stamp in 0..=batches.len() is legal,
        // as long as the rows match that stamp's prefix.
        let total = batches.len() as u64;
        loop {
            let snap = db.snapshot();
            check_snapshot(&snap, &q, &prefixes)?;
            if snap.seq() == total {
                break;
            }
        }
        for t in tickets {
            t.wait().unwrap();
        }
    }

    /// Differential: a serving database fed a random churn schedule (type
    /// facts, data facts under several predicates, and schema-epoch-bumping
    /// subclass edges) answers, after every acknowledged batch, like a
    /// database freshly built over the same triples — for every complete
    /// strategy, on both a reformulation-heavy query and the full wildcard.
    /// The oracle shares nothing with the maintenance pipeline: it
    /// saturates from scratch over a set the test maintains by hand. Run
    /// with `--features strict-invariants` to additionally assert the
    /// store/reasoner length cross-checks inside the pipeline.
    #[test]
    fn maintained_answers_equal_a_rebuilt_database_under_churn(
        batches in mixed_batches_strategy(),
    ) {
        let mut graph = churn_base_graph();
        let typed = parse_select(TYPED_QUERY, graph.dictionary_mut()).unwrap();
        let wildcard = parse_select(WILDCARD_QUERY, graph.dictionary_mut()).unwrap();
        let mut triples: BTreeSet<Triple> = graph.iter_decoded().collect();
        let serving = Database::builder().build_serving(graph);

        for (k, batch) in batches.iter().enumerate() {
            let mut update = UpdateBatch::new();
            for op in batch {
                update = if op.is_insert() {
                    update.insert(op.triple())
                } else {
                    update.delete(op.triple())
                };
            }
            // A batch applies all inserts before all deletes.
            triples.extend(update.inserts().iter().cloned());
            for t in update.deletes() {
                triples.remove(t);
            }
            let report = serving.submit(update).unwrap().wait().unwrap();
            prop_assert_eq!(report.seq(), (k + 1) as u64);
            let snap = serving.snapshot();
            prop_assert_eq!(snap.explicit_len(), triples.len());

            let mut rebuilt_graph = Graph::new();
            for t in &triples {
                rebuilt_graph.insert_triple(t);
            }
            let rebuilt_queries = [TYPED_QUERY, WILDCARD_QUERY]
                .map(|text| parse_select(text, rebuilt_graph.dictionary_mut()).unwrap());
            let rebuilt = Database::builder().build(rebuilt_graph);

            for ((qname, q), rebuilt_q) in
                [("typed", &typed), ("wildcard", &wildcard)].into_iter().zip(&rebuilt_queries)
            {
                let reference = full_rows(
                    rebuilt.dictionary(),
                    &rebuilt.query(rebuilt_q).strategy(AnswerStrategy::Saturation).run().unwrap(),
                );
                for strategy in [
                    AnswerStrategy::Saturation,
                    AnswerStrategy::RefUcq,
                    AnswerStrategy::RefScq,
                    AnswerStrategy::RefGCov,
                ] {
                    let ans = snap.query(q).strategy(strategy.clone()).run().unwrap();
                    let got = full_rows(snap.dictionary(), &ans);
                    prop_assert_eq!(
                        &got,
                        &reference,
                        "{}/{} diverged from the rebuilt database after batch {} ({:?})",
                        qname,
                        strategy.name(),
                        k + 1,
                        batch
                    );
                }
            }
        }
    }
}
