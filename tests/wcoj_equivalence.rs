//! Differential equivalence harness for the WCOJ (leapfrog triejoin)
//! executor.
//!
//! For every generated scenario — a random RDFS schema, instance data, and
//! a join-shaped BGP (chains, stars, triangles) — answering with the join
//! algorithm forced to `Wcoj` or left to `Auto` must compute exactly the
//! same certain answers as the bind-join path, for every strategy and for
//! both dictionary encodings. The classic bind-join database is the
//! oracle; nothing here assumes the WCOJ path is right, only that it must
//! agree with the path already proven by `tests/properties.rs` and
//! `tests/interval_equivalence.rs`. The interval × Wcoj corner pins the
//! `Auto` × `RangeScan` interaction: a `type ∈ [lo,hi)` range atom
//! participates as one bounded trie level instead of a union.
//!
//! Run with `--features strict-invariants` to additionally exercise the
//! store/scan debug assertions on every case.

use proptest::prelude::*;
use rdfref::core::answer::{AnswerOptions, Database, Strategy as QStrategy};
use rdfref::core::incomplete::IncompletenessProfile;
use rdfref::core::JoinAlgorithm;
use rdfref::model::dictionary::ID_RDF_TYPE;
use rdfref::model::{DictEncoding, EncodedTriple, Graph, Term, TermId};
use rdfref::query::ast::{Atom, Cq, PTerm};
use rdfref::query::{Cover, Var};

const N_CLASSES: usize = 6;
const N_PROPS: usize = 3;
const N_INDS: usize = 8;

/// Join-shaped query skeletons. Each `usize` picks a property (mod pool);
/// the optional index pins one endpoint to a constant individual.
#[derive(Debug, Clone)]
enum QueryShape {
    /// x0 -p0- x1 -p1- x2 … (acyclic; bind join's home turf).
    Chain(Vec<usize>, Option<usize>),
    /// hub -p_i- leaf_i for each i, plus an optional `hub a C` atom
    /// (the cost model's hub rule).
    Star(Vec<usize>, Option<usize>),
    /// x -p0- y, y -p1- z, x -p2- z (cyclic; WCOJ's home turf).
    Triangle(usize, usize, usize),
}

#[derive(Debug, Clone)]
struct Scenario {
    /// parents[i] is the superclass of class i+1 (mod i+1): a random forest.
    class_parents: Vec<usize>,
    /// Subproperty edges (a ⊑ b).
    subprops: Vec<(usize, usize)>,
    type_facts: Vec<(usize, usize)>,
    prop_facts: Vec<(usize, usize, usize)>,
    shape: QueryShape,
}

fn shape_strategy() -> impl Strategy<Value = QueryShape> {
    prop_oneof![
        (
            proptest::collection::vec(0usize..N_PROPS, 1..4),
            proptest::option::of(0usize..N_INDS),
        )
            .prop_map(|(ps, c)| QueryShape::Chain(ps, c)),
        (
            proptest::collection::vec(0usize..N_PROPS, 2..4),
            proptest::option::of(0usize..N_CLASSES),
        )
            .prop_map(|(ps, c)| QueryShape::Star(ps, c)),
        (0usize..N_PROPS, 0usize..N_PROPS, 0usize..N_PROPS)
            .prop_map(|(a, b, c)| QueryShape::Triangle(a, b, c)),
    ]
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        proptest::collection::vec(0usize..N_CLASSES, N_CLASSES - 1),
        proptest::collection::vec((0usize..N_PROPS, 0usize..N_PROPS), 0..3),
        proptest::collection::vec((0usize..N_INDS, 0usize..N_CLASSES), 0..10),
        proptest::collection::vec((0usize..N_INDS, 0usize..N_PROPS, 0usize..N_INDS), 4..24),
        shape_strategy(),
    )
        .prop_map(
            |(class_parents, subprops, type_facts, prop_facts, shape)| Scenario {
                class_parents,
                subprops,
                type_facts,
                prop_facts,
                shape,
            },
        )
}

fn build(scenario: &Scenario) -> (Graph, Cq) {
    let mut graph = Graph::new();
    let d = graph.dictionary_mut();
    let classes: Vec<TermId> = (0..N_CLASSES)
        .map(|i| d.intern(&Term::iri(format!("http://w/C{i}"))))
        .collect();
    let properties: Vec<TermId> = (0..N_PROPS)
        .map(|i| d.intern(&Term::iri(format!("http://w/p{i}"))))
        .collect();
    let individuals: Vec<TermId> = (0..N_INDS)
        .map(|i| d.intern(&Term::iri(format!("http://w/i{i}"))))
        .collect();
    let sc = d.intern(&Term::iri(rdfref::model::vocab::RDFS_SUBCLASSOF));
    let sp = d.intern(&Term::iri(rdfref::model::vocab::RDFS_SUBPROPERTYOF));
    for (i, &p) in scenario.class_parents.iter().enumerate() {
        graph.insert_encoded(EncodedTriple::new(classes[i + 1], sc, classes[p % (i + 1)]));
    }
    for &(a, b) in &scenario.subprops {
        if a != b {
            graph.insert_encoded(EncodedTriple::new(properties[a], sp, properties[b]));
        }
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

    let v = |n: String| PTerm::Var(Var::new(n));
    let body: Vec<Atom> = match &scenario.shape {
        QueryShape::Chain(props, last_const) => props
            .iter()
            .enumerate()
            .map(|(i, &p)| Atom {
                s: v(format!("x{i}")),
                p: PTerm::Const(properties[p]),
                o: if i + 1 == props.len() {
                    match last_const {
                        Some(c) => PTerm::Const(individuals[*c]),
                        None => v(format!("x{}", i + 1)),
                    }
                } else {
                    v(format!("x{}", i + 1))
                },
            })
            .collect(),
        QueryShape::Star(props, type_class) => {
            let mut atoms: Vec<Atom> = props
                .iter()
                .enumerate()
                .map(|(i, &p)| Atom {
                    s: v("hub".to_string()),
                    p: PTerm::Const(properties[p]),
                    o: v(format!("leaf{i}")),
                })
                .collect();
            if let Some(c) = type_class {
                atoms.push(Atom {
                    s: v("hub".to_string()),
                    p: PTerm::Const(ID_RDF_TYPE),
                    o: PTerm::Const(classes[*c]),
                });
            }
            atoms
        }
        QueryShape::Triangle(a, b, c) => vec![
            Atom {
                s: v("x".to_string()),
                p: PTerm::Const(properties[*a]),
                o: v("y".to_string()),
            },
            Atom {
                s: v("y".to_string()),
                p: PTerm::Const(properties[*b]),
                o: v("z".to_string()),
            },
            Atom {
                s: v("x".to_string()),
                p: PTerm::Const(properties[*c]),
                o: v("z".to_string()),
            },
        ],
    };
    let mut head: Vec<Var> = Vec::new();
    for atom in &body {
        for var in atom.vars() {
            if !head.contains(var) {
                head.push(var.clone());
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

/// The core differential check: for every strategy, every join algorithm ×
/// encoding combination must be row-set-identical (compared sorted) to the
/// classic bind-join oracle.
fn check(graph: Graph, cq: &Cq, label: &str) -> Result<(), TestCaseError> {
    let classic = Database::builder().build(graph.clone());
    let interval = Database::builder()
        .encoding(DictEncoding::Interval)
        .build(graph);
    let algorithms = [
        JoinAlgorithm::BindJoin,
        JoinAlgorithm::Wcoj,
        JoinAlgorithm::Auto,
    ];
    for strategy in all_strategies(cq) {
        let mut want = classic
            .run_query(
                cq,
                &strategy,
                &AnswerOptions::default().with_join_algorithm(JoinAlgorithm::BindJoin),
            )
            .unwrap_or_else(|e| panic!("{label}/oracle/{}: {e}", strategy.name()))
            .rows()
            .to_vec();
        want.sort();
        for (enc_name, db) in [("classic", &classic), ("interval", &interval)] {
            for algo in algorithms {
                let opts = AnswerOptions::default().with_join_algorithm(algo);
                let mut got = db
                    .run_query(cq, &strategy, &opts)
                    .unwrap_or_else(|e| {
                        panic!("{label}/{enc_name}/{algo:?}/{}: {e}", strategy.name())
                    })
                    .rows()
                    .to_vec();
                got.sort();
                prop_assert_eq!(
                    &got,
                    &want,
                    "{}: {}/{:?} diverged from the bind-join oracle under {}",
                    label,
                    enc_name,
                    algo,
                    strategy.name()
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// WCOJ and Auto are answer-invariant over chains, stars and triangles,
    /// for every strategy and both encodings.
    #[test]
    fn wcoj_equals_bind_join_oracle(scenario in scenario_strategy()) {
        let (graph, cq) = build(&scenario);
        check(graph, &cq, &format!("{:?}", scenario.shape))?;
    }
}

/// The stressor dataset's triangle: planted answers only, and the cost
/// model routes `Auto` to WCOJ on the cyclic body and to bind join on the
/// acyclic path control.
#[test]
fn stressor_triangle_and_auto_verdicts() {
    use rdfref::datagen::wcoj::{generate, wcoj_mix, WcojConfig};
    let ds = generate(&WcojConfig {
        hubs: 4,
        spokes: 12,
        likes_per_hub: 3,
        triangles: 5,
    });
    let mix = wcoj_mix(&ds).unwrap();
    let db = Database::builder().build(ds.graph.clone());
    let opts = AnswerOptions::default().with_join_algorithm(JoinAlgorithm::Auto);

    let triangle = db.run_query(&mix[0].cq, &QStrategy::RefUcq, &opts).unwrap();
    assert_eq!(
        triangle.len(),
        5,
        "answers are exactly the planted triangles"
    );
    let phys = triangle.explain.physical.as_ref().expect("physical plan");
    assert_eq!(phys.algorithm, "wcoj");
    assert!(phys.reason.contains("cyclic"), "{}", phys.reason);
    assert_eq!(phys.var_order.len(), 3);
    assert_eq!(phys.atoms.len(), 3);

    let path = db.run_query(&mix[2].cq, &QStrategy::RefUcq, &opts).unwrap();
    let phys = path.explain.physical.as_ref().expect("physical plan");
    assert_eq!(phys.algorithm, "bind join");
    assert!(
        phys.reason.contains("fewer than 3 atoms"),
        "{}",
        phys.reason
    );

    // Forced WCOJ matches forced bind join on the whole mix.
    for nq in &mix {
        for strategy in [QStrategy::RefUcq, QStrategy::RefGCov, QStrategy::Saturation] {
            let mut want = db
                .run_query(
                    &nq.cq,
                    &strategy,
                    &AnswerOptions::default().with_join_algorithm(JoinAlgorithm::BindJoin),
                )
                .unwrap()
                .rows()
                .to_vec();
            want.sort();
            let mut got = db
                .run_query(
                    &nq.cq,
                    &strategy,
                    &AnswerOptions::default().with_join_algorithm(JoinAlgorithm::Wcoj),
                )
                .unwrap()
                .rows()
                .to_vec();
            got.sort();
            assert_eq!(got, want, "{}/{}", nq.name, strategy.name());
        }
    }
}

/// `Explain::physical` reports the operator the evaluator dispatched, not
/// the one the user's CQ alone would get: under Ref/GCov the evaluator
/// arbitrates per CQ of the chosen JUCQ. The W02 hub star is cyclic-free
/// but big enough for `Auto` to want WCOJ on the whole body, while every
/// fragment CQ of its cover is bind-joined — `Explain` used to say "wcoj"
/// there with `op.lfj.seeks` at zero.
#[test]
fn explain_physical_reports_what_ran_under_jucq() {
    use rdfref::core::{MetricsRegistry, Obs};
    use rdfref::datagen::wcoj::{generate, wcoj_mix, WcojConfig};
    let ds = generate(&WcojConfig {
        hubs: 16,
        spokes: 48,
        likes_per_hub: 10,
        triangles: 12,
    });
    let mix = wcoj_mix(&ds).unwrap();
    let w02 = &mix[1];
    assert_eq!(w02.name, "W02");
    let db = Database::builder().build(ds.graph.clone());
    // The premise: on the user's CQ alone, `Auto` picks WCOJ.
    let whole = rdfref::storage::physical_choice(db.stats(), JoinAlgorithm::Auto, &w02.cq.body);
    assert_eq!(whole.algorithm, JoinAlgorithm::Wcoj, "{}", whole.reason);

    for strategy in [QStrategy::RefGCov, QStrategy::RefScq, QStrategy::RefUcq] {
        let registry = std::sync::Arc::new(MetricsRegistry::default());
        let opts = AnswerOptions::default()
            .with_join_algorithm(JoinAlgorithm::Auto)
            .with_obs(Obs::collecting(registry.clone()));
        let answer = db.run_query(&w02.cq, &strategy, &opts).unwrap();
        let phys = answer.explain.physical.as_ref().expect("physical plan");
        let leapfrogged = registry.snapshot().counter("op.lfj.seeks") > 0;
        assert_eq!(phys.wcoj_cqs > 0, leapfrogged, "{}", strategy.name());
        assert_eq!(
            phys.algorithm.contains("wcoj"),
            leapfrogged,
            "{}: {}",
            strategy.name(),
            phys.algorithm
        );
        assert!(phys.wcoj_cqs + phys.bind_join_cqs >= 1);
        if strategy == QStrategy::RefGCov {
            // The recorded case: every fragment CQ is bind-joined.
            assert_eq!(phys.algorithm, "bind join");
            assert!(phys.var_order.is_empty() && phys.atoms.is_empty());
        }
    }
}

/// Plan-cache isolation: the same query answered under both algorithms on
/// one database (cache on) must not serve one algorithm's cached plan to
/// the other — the algorithm tag is part of the cache key.
#[test]
fn plan_cache_keys_are_algorithm_tagged() {
    use rdfref::datagen::wcoj::{generate, WcojConfig};
    let ds = generate(&WcojConfig {
        hubs: 3,
        spokes: 8,
        likes_per_hub: 2,
        triangles: 4,
    });
    let mix = rdfref::datagen::wcoj::wcoj_mix(&ds).unwrap();
    let db = Database::builder().build(ds.graph.clone());
    // Interleave cached runs under different algorithms; answers must stay
    // stable run over run (a wrongly-shared plan would flip them).
    let mut reference: Option<Vec<Vec<TermId>>> = None;
    for _ in 0..3 {
        for algo in [
            JoinAlgorithm::BindJoin,
            JoinAlgorithm::Wcoj,
            JoinAlgorithm::Auto,
        ] {
            let mut rows = db
                .run_query(
                    &mix[0].cq,
                    &QStrategy::RefUcq,
                    &AnswerOptions::default().with_join_algorithm(algo),
                )
                .unwrap()
                .rows()
                .to_vec();
            rows.sort();
            match &reference {
                Some(want) => assert_eq!(&rows, want, "{algo:?}"),
                None => reference = Some(rows),
            }
        }
    }
}
