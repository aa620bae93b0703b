//! Differential equivalence harness for interval dictionary encoding.
//!
//! For every generated scenario — schema hierarchy (deep chains, random
//! trees, DAGs with multiple inheritance and even cycles), instance data and
//! BGP query — an interval-encoded database must compute exactly the same
//! certain answers as a classic one, for every answering strategy. The
//! classic database is the oracle; nothing here assumes the interval path is
//! right, only that it must agree with the path that is already proven by
//! `tests/properties.rs` and `tests/strategy_equivalence.rs`.
//!
//! Run with `--features strict-invariants` to additionally exercise the
//! store/scan/encoder debug assertions on every case.

use proptest::prelude::*;
use rdfref::core::answer::{AnswerOptions, Database, Strategy as QStrategy};
use rdfref::core::incomplete::IncompletenessProfile;
use rdfref::model::dictionary::ID_RDF_TYPE;
use rdfref::model::{DictEncoding, EncodedTriple, Graph, Term, TermId};
use rdfref::query::ast::{Atom, Cq, PTerm};
use rdfref::query::{Cover, Var};

const N_CLASSES: usize = 8;
const N_PROPS: usize = 4;
const N_INDS: usize = 7;

struct Pools {
    graph: Graph,
    classes: Vec<TermId>,
    properties: Vec<TermId>,
    individuals: Vec<TermId>,
    sc: TermId,
    sp: TermId,
    dom: TermId,
    rng: TermId,
}

fn pools() -> Pools {
    let mut graph = Graph::new();
    let d = graph.dictionary_mut();
    let classes: Vec<TermId> = (0..N_CLASSES)
        .map(|i| d.intern(&Term::iri(format!("http://t/C{i}"))))
        .collect();
    let properties: Vec<TermId> = (0..N_PROPS)
        .map(|i| d.intern(&Term::iri(format!("http://t/p{i}"))))
        .collect();
    let individuals: Vec<TermId> = (0..N_INDS)
        .map(|i| d.intern(&Term::iri(format!("http://t/i{i}"))))
        .collect();
    let sc = d.intern(&Term::iri(rdfref::model::vocab::RDFS_SUBCLASSOF));
    let sp = d.intern(&Term::iri(rdfref::model::vocab::RDFS_SUBPROPERTYOF));
    let dom = d.intern(&Term::iri(rdfref::model::vocab::RDFS_DOMAIN));
    let rng = d.intern(&Term::iri(rdfref::model::vocab::RDFS_RANGE));
    Pools {
        graph,
        classes,
        properties,
        individuals,
        sc,
        sp,
        dom,
        rng,
    }
}

/// Shape of the class hierarchy. Chains and trees are fully coverable by the
/// interval encoder; DAGs force the multiple-inheritance union fallback.
#[derive(Debug, Clone)]
enum Shape {
    /// C0 ⊑ C1 ⊑ … ⊑ Ck — the reformulation-explosion case intervals target.
    Chain(usize),
    /// parents[i] is the parent of class i+1 (always < i+1): a random forest.
    Tree(Vec<usize>),
    /// Arbitrary subclass edges: multiple inheritance, diamonds, cycles.
    Dag(Vec<(usize, usize)>),
}

impl Shape {
    fn edges(&self) -> Vec<(usize, usize)> {
        match self {
            Shape::Chain(len) => (0..*len).map(|i| (i, i + 1)).collect(),
            Shape::Tree(parents) => parents
                .iter()
                .enumerate()
                .map(|(i, &p)| (i + 1, p % (i + 1)))
                .collect(),
            Shape::Dag(edges) => edges.clone(),
        }
    }
}

#[derive(Debug, Clone)]
struct Scenario {
    shape: Shape,
    subprop: Vec<(usize, usize)>,
    domains: Vec<(usize, usize)>,
    ranges: Vec<(usize, usize)>,
    type_facts: Vec<(usize, usize)>,
    prop_facts: Vec<(usize, usize, usize)>,
    query_atoms: Vec<QAtom>,
}

#[derive(Debug, Clone)]
enum QAtom {
    /// subject var, class constant (Ok) or variable (Err).
    Type(u8, Result<usize, u8>),
    /// subject, property, object — each a constant index (Ok) or var (Err).
    Prop(Result<usize, u8>, Result<usize, u8>, Result<usize, u8>),
}

fn const_or_var(consts: std::ops::Range<usize>) -> impl Strategy<Value = Result<usize, u8>> {
    prop_oneof![
        3 => consts.prop_map(Ok::<usize, u8>),
        1 => (0u8..3).prop_map(Err::<usize, u8>),
    ]
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (2usize..N_CLASSES).prop_map(Shape::Chain),
        proptest::collection::vec(0usize..N_CLASSES, N_CLASSES - 1).prop_map(Shape::Tree),
        proptest::collection::vec((0usize..N_CLASSES, 0usize..N_CLASSES), 0..8)
            .prop_map(Shape::Dag),
    ]
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    let type_atom = (0u8..3, const_or_var(0..N_CLASSES)).prop_map(|(s, c)| QAtom::Type(s, c));
    let prop_atom = (
        const_or_var(0..N_INDS),
        const_or_var(0..N_PROPS),
        const_or_var(0..N_INDS),
    )
        .prop_map(|(s, p, o)| QAtom::Prop(s, p, o));
    let atom = prop_oneof![3 => type_atom, 2 => prop_atom];
    (
        shape_strategy(),
        proptest::collection::vec((0usize..N_PROPS, 0usize..N_PROPS), 0..4),
        proptest::collection::vec((0usize..N_PROPS, 0usize..N_CLASSES), 0..3),
        proptest::collection::vec((0usize..N_PROPS, 0usize..N_CLASSES), 0..3),
        proptest::collection::vec((0usize..N_INDS, 0usize..N_CLASSES), 0..8),
        proptest::collection::vec((0usize..N_INDS, 0usize..N_PROPS, 0usize..N_INDS), 0..10),
        proptest::collection::vec(atom, 1..3),
    )
        .prop_map(
            |(shape, subprop, domains, ranges, type_facts, prop_facts, query_atoms)| Scenario {
                shape,
                subprop,
                domains,
                ranges,
                type_facts,
                prop_facts,
                query_atoms,
            },
        )
}

fn build(scenario: &Scenario) -> (Graph, Cq) {
    let Pools {
        mut graph,
        classes,
        properties,
        individuals,
        sc,
        sp,
        dom,
        rng,
    } = pools();
    for (a, b) in scenario.shape.edges() {
        if a != b {
            graph.insert_encoded(EncodedTriple::new(classes[a], sc, classes[b]));
        }
    }
    for &(a, b) in &scenario.subprop {
        if a != b {
            graph.insert_encoded(EncodedTriple::new(properties[a], sp, properties[b]));
        }
    }
    for &(p, c) in &scenario.domains {
        graph.insert_encoded(EncodedTriple::new(properties[p], dom, classes[c]));
    }
    for &(p, c) in &scenario.ranges {
        graph.insert_encoded(EncodedTriple::new(properties[p], rng, classes[c]));
    }
    for &(i, c) in &scenario.type_facts {
        graph.insert_encoded(EncodedTriple::new(individuals[i], ID_RDF_TYPE, classes[c]));
    }
    for &(s, p, o) in &scenario.prop_facts {
        graph.insert_encoded(EncodedTriple::new(
            individuals[s],
            properties[p],
            individuals[o],
        ));
    }

    let var = |v: u8| PTerm::Var(Var::new(format!("v{v}")));
    let pick = |pool: &[TermId], t: &Result<usize, u8>| match t {
        Ok(i) => PTerm::Const(pool[*i % pool.len()]),
        Err(v) => var(*v),
    };
    let body: Vec<Atom> = scenario
        .query_atoms
        .iter()
        .map(|a| match a {
            QAtom::Type(s, c) => Atom {
                s: var(*s),
                p: PTerm::Const(ID_RDF_TYPE),
                o: pick(&classes, c),
            },
            QAtom::Prop(s, p, o) => Atom {
                s: pick(&individuals, s),
                p: pick(&properties, p),
                o: pick(&individuals, o),
            },
        })
        .collect();
    let mut head: Vec<Var> = Vec::new();
    for atom in &body {
        for v in atom.vars() {
            if !head.contains(v) {
                head.push(v.clone());
            }
        }
    }
    let cq = Cq::new_unchecked(head.into_iter().map(PTerm::Var).collect(), body);
    (graph, cq)
}

fn all_strategies(cq: &Cq) -> Vec<QStrategy> {
    let mut out = vec![
        QStrategy::Saturation,
        QStrategy::RefUcq,
        QStrategy::RefScq,
        QStrategy::RefGCov,
        QStrategy::RefIncomplete(IncompletenessProfile::complete()),
        QStrategy::Datalog,
    ];
    if cq.size() >= 2 {
        let n = cq.size();
        out.push(QStrategy::RefJucq(
            Cover::new(vec![(0..n / 2 + 1).collect(), (n / 2..n).collect()], n).unwrap(),
        ));
    }
    out
}

/// The core differential check: interval answers must be set-equal to
/// classic answers, per strategy, and both self-consistent against Sat.
fn check(graph: Graph, cq: &Cq, label: &str) -> Result<(), TestCaseError> {
    let classic = Database::builder().build(graph.clone());
    let interval = Database::builder()
        .encoding(DictEncoding::Interval)
        .build(graph);
    let opts = AnswerOptions::default();
    for strategy in all_strategies(cq) {
        let want = classic
            .run_query(cq, &strategy, &opts)
            .unwrap_or_else(|e| panic!("{label}/classic/{}: {e}", strategy.name()))
            .rows()
            .to_vec();
        let got = interval
            .run_query(cq, &strategy, &opts)
            .unwrap_or_else(|e| panic!("{label}/interval/{}: {e}", strategy.name()))
            .rows()
            .to_vec();
        prop_assert_eq!(
            &got,
            &want,
            "{}: interval diverged from classic under {}",
            label,
            strategy.name()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Interval encoding is answer-invariant over chains, trees and DAGs,
    /// for every strategy.
    #[test]
    fn interval_equals_classic(scenario in scenario_strategy()) {
        let (graph, cq) = build(&scenario);
        check(graph, &cq, &format!("{:?}", scenario.shape))?;
    }
}

/// Deep chain: the headline case. The encoder must actually cover the chain
/// (one range atom replaces the N-way union) and agree with classic.
#[test]
fn deep_chain_is_covered_and_equivalent() {
    let mut graph = Graph::new();
    let d = graph.dictionary_mut();
    let classes: Vec<TermId> = (0..40)
        .map(|i| d.intern(&Term::iri(format!("http://t/D{i}"))))
        .collect();
    let inds: Vec<TermId> = (0..20)
        .map(|i| d.intern(&Term::iri(format!("http://t/x{i}"))))
        .collect();
    let sc = d.intern(&Term::iri(rdfref::model::vocab::RDFS_SUBCLASSOF));
    for w in classes.windows(2) {
        graph.insert_encoded(EncodedTriple::new(w[0], sc, w[1]));
    }
    // Each individual typed at a different depth of the chain.
    for (i, &ind) in inds.iter().enumerate() {
        graph.insert_encoded(EncodedTriple::new(ind, ID_RDF_TYPE, classes[i * 2]));
    }
    let root = *classes.last().unwrap();
    let cq = Cq::new_unchecked(
        vec![PTerm::Var(Var::new("x"))],
        vec![Atom {
            s: PTerm::Var(Var::new("x")),
            p: PTerm::Const(ID_RDF_TYPE),
            o: PTerm::Const(root),
        }],
    );

    let interval = Database::builder()
        .encoding(DictEncoding::Interval)
        .build(graph.clone());
    let enc = interval
        .encoder()
        .expect("interval database must build an encoder");
    let (lo, hi) = enc
        .class_range(root)
        .expect("a pure chain root must be interval-covered");
    assert_eq!(
        (hi.0 - lo.0) as usize,
        classes.len(),
        "range spans the chain"
    );

    check(graph, &cq, "deep-chain").unwrap();
}

/// Multiple inheritance: the offending subtree must fall back to unions but
/// still answer identically.
#[test]
fn diamond_falls_back_and_stays_equivalent() {
    let mut graph = Graph::new();
    let d = graph.dictionary_mut();
    let [a, b, c, top] =
        ["A", "B", "C", "Top"].map(|n| d.intern(&Term::iri(format!("http://t/{n}"))));
    let inds: Vec<TermId> = (0..4)
        .map(|i| d.intern(&Term::iri(format!("http://t/y{i}"))))
        .collect();
    let sc = d.intern(&Term::iri(rdfref::model::vocab::RDFS_SUBCLASSOF));
    // Diamond: A ⊑ B, A ⊑ C, B ⊑ Top, C ⊑ Top.
    for (x, y) in [(a, b), (a, c), (b, top), (c, top)] {
        graph.insert_encoded(EncodedTriple::new(x, sc, y));
    }
    for (i, &ind) in inds.iter().enumerate() {
        let cls = [a, b, c, top][i];
        graph.insert_encoded(EncodedTriple::new(ind, ID_RDF_TYPE, cls));
    }
    let type_q = |cls: TermId| {
        Cq::new_unchecked(
            vec![PTerm::Var(Var::new("x"))],
            vec![Atom {
                s: PTerm::Var(Var::new("x")),
                p: PTerm::Const(ID_RDF_TYPE),
                o: PTerm::Const(cls),
            }],
        )
    };

    // A attaches under its primary parent B, so Top's subtree {Top,B,A,C}
    // equals its closure — Top stays covered. The secondary parent C is the
    // fallback node: A is a subclass of C but lives outside C's subtree.
    let interval = Database::builder()
        .encoding(DictEncoding::Interval)
        .build(graph.clone());
    let enc = interval.encoder().unwrap();
    assert!(enc.class_range(top).is_some(), "diamond top stays covered");
    assert!(
        enc.class_range(c).is_none(),
        "secondary parent must fall back to unions (A lies outside its subtree)"
    );

    check(graph.clone(), &type_q(top), "diamond/top").unwrap();
    check(graph, &type_q(c), "diamond/secondary").unwrap();
}

/// Property hierarchies: a subproperty chain must answer identically with
/// and without interval encoding (exercises prop_range + R4/R2/R3 paths).
#[test]
fn subproperty_chain_equivalent() {
    let mut graph = Graph::new();
    let d = graph.dictionary_mut();
    let props: Vec<TermId> = (0..10)
        .map(|i| d.intern(&Term::iri(format!("http://t/q{i}"))))
        .collect();
    let cls = d.intern(&Term::iri("http://t/K"));
    let inds: Vec<TermId> = (0..8)
        .map(|i| d.intern(&Term::iri(format!("http://t/z{i}"))))
        .collect();
    let sp = d.intern(&Term::iri(rdfref::model::vocab::RDFS_SUBPROPERTYOF));
    let dom = d.intern(&Term::iri(rdfref::model::vocab::RDFS_DOMAIN));
    for w in props.windows(2) {
        graph.insert_encoded(EncodedTriple::new(w[0], sp, w[1]));
    }
    // Root property has a domain, so type queries hit R2 via the family.
    graph.insert_encoded(EncodedTriple::new(*props.last().unwrap(), dom, cls));
    for (i, w) in inds.windows(2).enumerate() {
        graph.insert_encoded(EncodedTriple::new(w[0], props[i % props.len()], w[1]));
    }
    let x = || PTerm::Var(Var::new("x"));
    let y = || PTerm::Var(Var::new("y"));
    let prop_q = Cq::new_unchecked(
        vec![x(), y()],
        vec![Atom {
            s: x(),
            p: PTerm::Const(*props.last().unwrap()),
            o: y(),
        }],
    );
    let type_q = Cq::new_unchecked(
        vec![x()],
        vec![Atom {
            s: x(),
            p: PTerm::Const(ID_RDF_TYPE),
            o: PTerm::Const(cls),
        }],
    );

    let interval = Database::builder()
        .encoding(DictEncoding::Interval)
        .build(graph.clone());
    assert!(
        interval
            .encoder()
            .unwrap()
            .prop_range(*props.last().unwrap())
            .is_some(),
        "property chain root must be covered"
    );
    check(graph.clone(), &prop_q, "subprop-chain/prop").unwrap();
    check(graph, &type_q, "subprop-chain/type").unwrap();
}

/// Minimisation sees through interval atoms as it does through constants: a
/// type atom implied by a domain disappears whether it is spelled as eleven
/// classic disjuncts or as one id interval, and answers stay equal.
#[test]
fn interval_unions_minimise_like_classic_ones() {
    let mut graph = Graph::new();
    let d = graph.dictionary_mut();
    let classes: Vec<TermId> = (0..10)
        .map(|i| d.intern(&Term::iri(format!("http://t/K{i}"))))
        .collect();
    let [q, r] = ["q", "r"].map(|n| d.intern(&Term::iri(format!("http://t/{n}"))));
    let inds: Vec<TermId> = (0..6)
        .map(|i| d.intern(&Term::iri(format!("http://t/w{i}"))))
        .collect();
    let sc = d.intern(&Term::iri(rdfref::model::vocab::RDFS_SUBCLASSOF));
    let dom = d.intern(&Term::iri(rdfref::model::vocab::RDFS_DOMAIN));
    for w in classes.windows(2) {
        graph.insert_encoded(EncodedTriple::new(w[0], sc, w[1]));
    }
    graph.insert_encoded(EncodedTriple::new(q, dom, classes[4]));
    for (i, w) in inds.windows(2).enumerate() {
        graph.insert_encoded(EncodedTriple::new(
            w[0],
            if i % 2 == 0 { q } else { r },
            w[1],
        ));
        graph.insert_encoded(EncodedTriple::new(w[0], ID_RDF_TYPE, classes[i]));
    }
    let root = classes[9];
    let (x, y) = (|| PTerm::Var(Var::new("x")), || PTerm::Var(Var::new("y")));
    let typed = |p: TermId| {
        let type_atom = Atom {
            s: x(),
            p: PTerm::Const(ID_RDF_TYPE),
            o: PTerm::Const(root),
        };
        let edge = Atom {
            s: x(),
            p: PTerm::Const(p),
            o: y(),
        };
        Cq::new_unchecked(vec![x(), y()], vec![type_atom, edge])
    };
    // (class disjuncts, the domain disjunct) per encoding; `q`'s domain
    // implies the type atom, `r` implies nothing.
    for (p, label, classic, interval) in [(q, "implied", 1, 1), (r, "kept", 11, 2)] {
        let cq = typed(p);
        for (encoding, expected) in [
            (DictEncoding::Classic, classic),
            (DictEncoding::Interval, interval),
        ] {
            let db = Database::builder().encoding(encoding).build(graph.clone());
            let answer = db
                .run_query(&cq, &QStrategy::RefUcq, &AnswerOptions::default())
                .unwrap();
            assert_eq!(
                answer.explain.reformulation_cqs, expected,
                "{label}/{encoding:?}"
            );
            if expected == 1 {
                assert_eq!(
                    answer.explain.reformulation_atoms, 1,
                    "{label}/{encoding:?}"
                );
            }
        }
        check(graph.clone(), &cq, label).unwrap();
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
            answer.rows().to_vec()
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
