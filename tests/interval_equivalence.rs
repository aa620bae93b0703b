//! Interval dictionary encoding on fixed schemas: a deep chain, a diamond,
//! a subproperty chain and a domain-implied type atom run every answering
//! point against the nested-loop oracle of `tests/common`, and one schema
//! compares interval bounds and constants in one id space under all 720
//! intern orders of its classes. Generated chains, trees and DAGs run the
//! interval slice of the differential lattice (`tests/common`).
//!
//! Run with `--features strict-invariants` to additionally exercise the
//! store/scan/encoder debug assertions on every case.

mod common;

use common::{build, check_static, iris, scenario_strategy, ENCODINGS, JOINS, LATTICE_CASES};
use proptest::prelude::*;
use rdfref::core::answer::{AnswerOptions, Database, Strategy as QStrategy};
use rdfref::core::incomplete::IncompletenessProfile;
use rdfref::core::JoinAlgorithm;
use rdfref::model::dictionary::{
    ID_RDFS_DOMAIN, ID_RDFS_SUBCLASSOF, ID_RDFS_SUBPROPERTYOF, ID_RDF_TYPE,
};
use rdfref::model::{DictEncoding, EncodedTriple, Graph, Term, TermId};
use rdfref::query::ast::{Atom, Cq, PTerm};
use rdfref::query::Var;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: LATTICE_CASES,
        ..ProptestConfig::default()
    })]

    /// Generated chains, trees and DAGs on static interval engines: every
    /// strategy × {BindJoin, Auto} × parallelism × cache point returns the
    /// oracle's `q(G∞)`, which classic engines return in `properties`.
    #[test]
    fn interval_equals_classic(scenario in scenario_strategy()) {
        let (graph, cq) = build(&scenario);
        let joins = [JoinAlgorithm::BindJoin, JoinAlgorithm::Auto];
        check_static(&graph, &cq, "build", &[DictEncoding::Interval], &joins)?;
    }
}

/// `SELECT ?x WHERE { ?x a class }`.
fn type_query(class: TermId) -> Cq {
    let x = || PTerm::Var(Var::new("x"));
    Cq::new_unchecked(vec![x()], vec![Atom::new(x(), ID_RDF_TYPE, class)])
}

/// Deep chain: the headline case. The encoder must actually cover the chain
/// (one range atom replaces the N-way union), and every point answers.
#[test]
fn deep_chain_is_covered_and_equivalent() {
    let mut graph = Graph::new();
    let classes = iris(&mut graph, "D", 40);
    let inds = iris(&mut graph, "x", 20);
    for w in classes.windows(2) {
        graph.insert_encoded(EncodedTriple::new(w[0], ID_RDFS_SUBCLASSOF, w[1]));
    }
    // Each individual typed at a different depth of the chain.
    for (i, &ind) in inds.iter().enumerate() {
        graph.insert_encoded(EncodedTriple::new(ind, ID_RDF_TYPE, classes[i * 2]));
    }
    let root = *classes.last().unwrap();
    let interval = Database::builder()
        .encoding(DictEncoding::Interval)
        .build(graph.clone());
    let (lo, hi) = interval.encoder().unwrap().class_range(root).unwrap();
    assert_eq!(
        (hi.0 - lo.0) as usize,
        classes.len(),
        "range spans the chain"
    );
    check_static(&graph, &type_query(root), "deep chain", &ENCODINGS, &JOINS).unwrap();
}

/// Multiple inheritance: the offending subtree falls back to unions, and
/// every point still answers.
#[test]
fn diamond_falls_back_and_stays_equivalent() {
    let mut graph = Graph::new();
    let [a, b, c, top] = iris(&mut graph, "K", 4)[..] else {
        unreachable!()
    };
    let inds = iris(&mut graph, "y", 4);
    // Diamond: A ⊑ B, A ⊑ C, B ⊑ Top, C ⊑ Top.
    for (x, y) in [(a, b), (a, c), (b, top), (c, top)] {
        graph.insert_encoded(EncodedTriple::new(x, ID_RDFS_SUBCLASSOF, y));
    }
    for (&ind, cls) in inds.iter().zip([a, b, c, top]) {
        graph.insert_encoded(EncodedTriple::new(ind, ID_RDF_TYPE, cls));
    }
    // A attaches under its primary parent B, so Top's subtree {Top,B,A,C}
    // equals its closure — Top stays covered. The secondary parent C is the
    // fallback node: A is a subclass of C but lives outside C's subtree.
    let interval = Database::builder()
        .encoding(DictEncoding::Interval)
        .build(graph.clone());
    let enc = interval.encoder().unwrap();
    assert!(enc.class_range(top).is_some(), "diamond top stays covered");
    assert!(enc.class_range(c).is_none(), "secondary parent falls back");
    check_static(&graph, &type_query(top), "diamond top", &ENCODINGS, &JOINS).unwrap();
    check_static(
        &graph,
        &type_query(c),
        "diamond secondary",
        &ENCODINGS,
        &JOINS,
    )
    .unwrap();
}

/// Property hierarchies: a covered subproperty chain whose root has a
/// domain answers at every point, for property and type queries alike
/// (the interval `prop_range` path and rules R2–R4).
#[test]
fn subproperty_chain_equivalent() {
    let mut graph = Graph::new();
    let props = iris(&mut graph, "q", 10);
    let cls = iris(&mut graph, "K", 1)[0];
    let inds = iris(&mut graph, "z", 8);
    for w in props.windows(2) {
        graph.insert_encoded(EncodedTriple::new(w[0], ID_RDFS_SUBPROPERTYOF, w[1]));
    }
    let root = *props.last().unwrap();
    graph.insert_encoded(EncodedTriple::new(root, ID_RDFS_DOMAIN, cls));
    for (i, w) in inds.windows(2).enumerate() {
        graph.insert_encoded(EncodedTriple::new(w[0], props[i], w[1]));
    }
    let interval = Database::builder()
        .encoding(DictEncoding::Interval)
        .build(graph.clone());
    assert!(interval.encoder().unwrap().prop_range(root).is_some());
    let (x, y) = (|| PTerm::Var(Var::new("x")), || PTerm::Var(Var::new("y")));
    let prop_q = Cq::new_unchecked(vec![x(), y()], vec![Atom::new(x(), root, y())]);
    check_static(
        &graph,
        &prop_q,
        "subproperty chain, property",
        &ENCODINGS,
        &JOINS,
    )
    .unwrap();
    check_static(
        &graph,
        &type_query(cls),
        "subproperty chain, type",
        &ENCODINGS,
        &JOINS,
    )
    .unwrap();
}

/// Minimisation sees through interval atoms as it does through constants: a
/// type atom implied by a domain disappears whether it is spelled as eleven
/// classic disjuncts or as one id interval, and every point answers.
#[test]
fn interval_unions_minimise_like_classic_ones() {
    let mut graph = Graph::new();
    let classes = iris(&mut graph, "K", 10);
    let [q, r] = iris(&mut graph, "r", 2)[..] else {
        unreachable!()
    };
    let inds = iris(&mut graph, "w", 6);
    for w in classes.windows(2) {
        graph.insert_encoded(EncodedTriple::new(w[0], ID_RDFS_SUBCLASSOF, w[1]));
    }
    graph.insert_encoded(EncodedTriple::new(q, ID_RDFS_DOMAIN, classes[4]));
    for (i, w) in inds.windows(2).enumerate() {
        let p = if i % 2 == 0 { q } else { r };
        graph.insert_encoded(EncodedTriple::new(w[0], p, w[1]));
        graph.insert_encoded(EncodedTriple::new(w[0], ID_RDF_TYPE, classes[i]));
    }
    let (x, y) = (|| PTerm::Var(Var::new("x")), || PTerm::Var(Var::new("y")));
    // (class disjuncts, the domain disjunct) per encoding; `q`'s domain
    // implies the type atom, `r` implies nothing.
    for (p, label, classic, interval) in [(q, "implied", 1, 1), (r, "kept", 11, 2)] {
        let typed = Atom::new(x(), ID_RDF_TYPE, classes[9]);
        let cq = Cq::new_unchecked(vec![x(), y()], vec![typed, Atom::new(x(), p, y())]);
        for (encoding, expected) in ENCODINGS.into_iter().zip([classic, interval]) {
            let db = Database::builder().encoding(encoding).build(graph.clone());
            let answer = db
                .run_query(&cq, &QStrategy::RefUcq, &AnswerOptions::default())
                .unwrap();
            let explain = &answer.explain;
            assert_eq!(explain.reformulation_cqs, expected, "{label}/{encoding:?}");
            if expected == 1 {
                assert_eq!(explain.reformulation_atoms, 1, "{label}/{encoding:?}");
            }
        }
        check_static(&graph, &cq, label, &ENCODINGS, &JOINS).unwrap();
    }
}

/// Minimisation compares an interval with a constant in one id space. The
/// reformulated union carries constants as base ids and intervals as encoded
/// ids: with an uncovered superclass (`A`: `X` has a second parent) over a
/// covered subclass (`B ⊒ B1`), a sibling class whose *base* id happens to
/// fall inside `B`'s *encoded* interval must not be dropped as subsumed.
/// Which id falls where depends on the intern order, so try them all.
#[test]
fn minimisation_compares_intervals_and_constants_in_one_id_space() {
    const NAMES: [&str; 6] = ["A", "A2", "X", "B", "B1", "D"];
    let mut order: Vec<usize> = (0..NAMES.len()).collect();
    let mut orders = vec![order.clone()];
    // Heap's algorithm, iteratively.
    let mut counters = vec![0; order.len()];
    let mut i = 0;
    while i < order.len() {
        if counters[i] < i {
            order.swap(if i % 2 == 0 { 0 } else { counters[i] }, i);
            orders.push(order.clone());
            counters[i] += 1;
            i = 0;
        } else {
            counters[i] = 0;
            i += 1;
        }
    }
    assert_eq!(orders.len(), 720);

    let mut exposed = 0;
    for order in orders {
        let mut graph = Graph::new();
        let d = graph.dictionary_mut();
        let mut id = [TermId(0); 6];
        for &k in &order {
            id[k] = d.intern(&Term::iri(format!("http://t/{}", NAMES[k])));
        }
        let [a, a2, x, b, b1, dd] = id;
        let inds: Vec<TermId> = (0..6)
            .map(|i| d.intern(&Term::iri(format!("http://t/i{i}"))))
            .collect();
        let sc = d.intern(&Term::iri(rdfref::model::vocab::RDFS_SUBCLASSOF));
        for (sub, sup) in [(x, a), (x, a2), (b, a), (b1, b), (dd, a)] {
            graph.insert_encoded(EncodedTriple::new(sub, sc, sup));
        }
        for (&ind, cls) in inds.iter().zip(id) {
            graph.insert_encoded(EncodedTriple::new(ind, ID_RDF_TYPE, cls));
        }
        let var = || PTerm::Var(Var::new("x"));
        let cq = Cq::new_unchecked(
            vec![var()],
            vec![Atom {
                s: var(),
                p: PTerm::Const(ID_RDF_TYPE),
                o: PTerm::Const(a),
            }],
        );

        let interval = Database::builder()
            .encoding(DictEncoding::Interval)
            .build(graph);
        // `X` hangs under the parent interned first: when that is `A2`, `A`
        // stays a union of constants next to `B`'s interval.
        let enc = interval.encoder().unwrap();
        assert!(enc.class_range(b).is_some(), "B is covered: {order:?}");
        exposed += usize::from(enc.class_range(a).is_none());
        let opts = AnswerOptions::default();
        let rows = |strategy: &QStrategy| {
            let answer = interval.run_query(&cq, strategy, &opts).unwrap();
            answer.rows()
        };
        let want = rows(&QStrategy::Saturation);
        assert_eq!(want.len(), 5, "{order:?}");
        for strategy in [
            QStrategy::RefUcq,
            QStrategy::RefScq,
            QStrategy::RefGCov,
            QStrategy::RefIncomplete(IncompletenessProfile::complete()),
        ] {
            let name = strategy.name();
            assert_eq!(rows(&strategy), want, "{name}, intern order {order:?}");
        }
    }
    assert_eq!(exposed, 360, "half the orders leave A uncovered");
}
