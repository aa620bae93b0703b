//! Cross-crate answering equivalence on every generated workload:
//! all complete strategies compute `q(G∞)`.

use rdfref::datagen::{biblio, geo, insee, lubm, queries};
use rdfref::model::dictionary::{ID_RDFS_SUBCLASSOF, ID_RDF_TYPE};
use rdfref::prelude::*;
use rdfref::query::ast::Atom;

fn complete_strategies() -> Vec<Strategy> {
    vec![
        Strategy::Saturation,
        Strategy::RefUcq,
        Strategy::RefScq,
        Strategy::RefGCov,
        Strategy::RefIncomplete(IncompletenessProfile::complete()),
        Strategy::Datalog,
    ]
}

fn check_equivalence(db: &Database, cq: &Cq, label: &str) {
    let opts = AnswerOptions::default();
    let reference = db
        .run_query(cq, &Strategy::Saturation, &opts)
        .unwrap_or_else(|e| panic!("{label}: Sat failed: {e}"))
        .rows()
        .to_vec();
    for strategy in complete_strategies() {
        let got = db
            .run_query(cq, &strategy, &opts)
            .unwrap_or_else(|e| panic!("{label}/{}: failed: {e}", strategy.name()))
            .rows()
            .to_vec();
        assert_eq!(got, reference, "{label}: {} diverged", strategy.name());
    }
    // Plus a couple of non-trivial covers when the query is big enough.
    if cq.size() >= 2 {
        let n = cq.size();
        let halves = Cover::new(vec![(0..n / 2 + 1).collect(), (n / 2..n).collect()], n).unwrap();
        let got = db
            .run_query(cq, &Strategy::RefJucq(halves.clone()), &opts)
            .unwrap_or_else(|e| panic!("{label}/cover {halves}: {e}"))
            .rows()
            .to_vec();
        assert_eq!(got, reference, "{label}: cover {halves} diverged");
    }
}

#[test]
fn lubm_mix_equivalence() {
    let ds = lubm::generate(&lubm::LubmConfig::default());
    let db = Database::builder().build(ds.graph.clone());
    for nq in queries::lubm_mix(&ds).unwrap() {
        check_equivalence(&db, &nq.cq, nq.name);
    }
}

#[test]
fn lubm_example1_equivalence_small() {
    let ds = lubm::generate(&lubm::LubmConfig {
        universities: 1,
        departments_per_university: 2,
        undergraduate_students: 10,
        graduate_students: 4,
        ..lubm::LubmConfig::default()
    });
    let q = queries::example1(&ds, 0).unwrap();
    let db = Database::builder().build(ds.graph.clone());
    // UCQ included: at this tiny schema-independent scale it is still huge,
    // so test SCQ/GCov/covers/Sat/Dat only.
    let opts = AnswerOptions::default();
    let reference = db
        .run_query(&q, &Strategy::Saturation, &opts)
        .unwrap()
        .rows()
        .to_vec();
    for strategy in [
        Strategy::RefScq,
        Strategy::RefGCov,
        Strategy::RefJucq(queries::example1_paper_cover().unwrap()),
        Strategy::Datalog,
    ] {
        let got = db.run_query(&q, &strategy, &opts).unwrap().rows().to_vec();
        assert_eq!(got, reference, "{} diverged", strategy.name());
    }
}

#[test]
fn biblio_equivalence() {
    let ds = biblio::generate(&biblio::BiblioConfig {
        publications: 300,
        authors: 60,
        ..biblio::BiblioConfig::default()
    });
    let v = &ds.vocab;
    let db = Database::builder().build(ds.graph.clone());
    let author0 = ds
        .graph
        .dictionary()
        .id_of_iri("http://bib.example.org/author/0")
        .unwrap();
    let queries: Vec<(&str, Cq)> = vec![
        (
            "works-of-author",
            Cq::new(
                vec![Var::new("p")],
                vec![
                    Atom::new(Var::new("p"), ID_RDF_TYPE, v.publication),
                    Atom::new(Var::new("p"), v.creator, author0),
                ],
            )
            .unwrap(),
        ),
        (
            "citations-between-articles",
            Cq::new(
                vec![Var::new("a"), Var::new("b")],
                vec![
                    Atom::new(Var::new("a"), ID_RDF_TYPE, v.article),
                    Atom::new(Var::new("a"), v.cites, Var::new("b")),
                    Atom::new(Var::new("b"), ID_RDF_TYPE, v.article),
                ],
            )
            .unwrap(),
        ),
        (
            "typed-creators",
            Cq::new(
                vec![Var::new("p"), Var::new("t"), Var::new("c")],
                vec![
                    Atom::new(Var::new("p"), ID_RDF_TYPE, Var::new("t")),
                    Atom::new(Var::new("p"), v.creator, Var::new("c")),
                ],
            )
            .unwrap(),
        ),
    ];
    for (name, cq) in queries {
        check_equivalence(&db, &cq, name);
    }
}

#[test]
fn geo_deep_hierarchy_equivalence() {
    let ds = geo::generate(&geo::GeoConfig {
        hierarchy_depth: 6,
        areas_per_level: 30,
        seed: 7,
    });
    let db = Database::builder().build(ds.graph.clone());
    let located_in = ds.located_in;
    let queries: Vec<(&str, Cq)> = vec![
        (
            "all-areas",
            Cq::new(
                vec![Var::new("x")],
                vec![Atom::new(Var::new("x"), ID_RDF_TYPE, ds.root_class)],
            )
            .unwrap(),
        ),
        (
            "areas-with-parents",
            Cq::new(
                vec![Var::new("x"), Var::new("y")],
                vec![
                    Atom::new(Var::new("x"), ID_RDF_TYPE, ds.root_class),
                    Atom::new(Var::new("x"), located_in, Var::new("y")),
                ],
            )
            .unwrap(),
        ),
        (
            "subclass-chain-query",
            Cq::new(
                vec![Var::new("c")],
                vec![Atom::new(Var::new("c"), ID_RDFS_SUBCLASSOF, ds.root_class)],
            )
            .unwrap(),
        ),
    ];
    for (name, cq) in queries {
        check_equivalence(&db, &cq, name);
    }
}

#[test]
fn insee_wide_hierarchy_equivalence() {
    let ds = insee::generate(&insee::InseeConfig {
        concepts: 3,
        codes_per_concept: 12,
        observations_per_code: 5,
        seed: 11,
    });
    let db = Database::builder().build(ds.graph.clone());
    let queries: Vec<(&str, Cq)> = vec![
        (
            "all-observations",
            Cq::new(
                vec![Var::new("x")],
                vec![Atom::new(Var::new("x"), ID_RDF_TYPE, ds.observation)],
            )
            .unwrap(),
        ),
        (
            "concept0-measures",
            Cq::new(
                vec![Var::new("x"), Var::new("m")],
                vec![
                    Atom::new(Var::new("x"), ID_RDF_TYPE, ds.concept_classes[0]),
                    Atom::new(Var::new("x"), ds.measure, Var::new("m")),
                ],
            )
            .unwrap(),
        ),
    ];
    for (name, cq) in queries {
        check_equivalence(&db, &cq, name);
    }
}

/// Morsel-parallel evaluation returns exactly the sequential answers; tiny
/// morsels so every scan and probe splits into several work units.
#[test]
fn parallel_morsels_match_sequential() {
    let ds = lubm::generate(&lubm::LubmConfig::default());
    let db = Database::builder().build(ds.graph.clone());
    let sequential = AnswerOptions::default();
    let parallel = AnswerOptions::new().with_parallelism(Parallelism::Morsels { size: 8 });
    for nq in queries::lubm_mix(&ds).unwrap() {
        if nq.name == "Q09" {
            continue; // large UCQ; covered by the others
        }
        let a = db
            .run_query(&nq.cq, &Strategy::RefUcq, &sequential)
            .unwrap();
        let b = db.run_query(&nq.cq, &Strategy::RefUcq, &parallel).unwrap();
        assert_eq!(a.rows(), b.rows(), "{}", nq.name);
    }
}

/// The incomplete profiles form a monotone lattice of answer sets:
/// none ⊆ subclass-only ⊆ hierarchies-only ⊆ complete.
#[test]
fn incomplete_profiles_are_monotone() {
    let ds = lubm::generate(&lubm::LubmConfig::default());
    let db = Database::builder().build(ds.graph.clone());
    let opts = AnswerOptions::default();
    for nq in queries::lubm_mix(&ds).unwrap() {
        let counts: Vec<usize> = [
            IncompletenessProfile::none(),
            IncompletenessProfile::subclass_only(),
            IncompletenessProfile::hierarchies_only(),
            IncompletenessProfile::complete(),
        ]
        .into_iter()
        .map(|p| {
            db.run_query(&nq.cq, &Strategy::RefIncomplete(p), &opts)
                .unwrap()
                .len()
        })
        .collect();
        assert!(
            counts.windows(2).all(|w| w[0] <= w[1]),
            "{}: counts {:?} not monotone",
            nq.name,
            counts
        );
        let complete = db
            .run_query(&nq.cq, &Strategy::Saturation, &opts)
            .unwrap()
            .len();
        assert_eq!(counts[3], complete, "{}", nq.name);
    }
}
