//! Failure injection: malformed inputs, pathological schemas, resource
//! limits — everything must fail *gracefully* with a typed error (or
//! terminate correctly), never hang or panic.

use rdfref::model::parser::parse_turtle;
use rdfref::model::ModelError;
use rdfref::prelude::*;
use rdfref::query::QueryError;

/// Malformed N-Triples documents fail, through the one RDF reader, at the
/// line of the fault.
#[test]
fn malformed_ntriples_report_lines() {
    for (doc, expect_line) in [
        ("<http://s> <http://p>\n", 1),
        (
            "<http://s> <http://p> <http://o> .\n\"lit\" <http://p> <http://o> .\n",
            2,
        ),
        ("<http://s> <http://p> \"unterminated .\n", 1),
        ("<http://s> <http://p> \"x\"^^<not iri> .\n", 1),
        (
            "<http://s> <http://p> <http://o> .\n<http://s> <http://p> \"x\"^^<> .\n",
            2,
        ),
    ] {
        match parse_turtle(doc) {
            Err(ModelError::Syntax { line, .. }) => assert_eq!(line, expect_line, "{doc:?}"),
            other => panic!("expected syntax error for {doc:?}, got {other:?}"),
        }
    }
}

#[test]
fn malformed_turtle_rejected() {
    assert!(parse_turtle("@prefix e: <http://e/> .\ne:a e:b ( 1 ) .").is_err());
    assert!(parse_turtle("e:a e:b e:c .").is_err()); // unknown prefix
    assert!(parse_turtle("@prefix e: <http://e/> .\ne:a e:b").is_err()); // missing dot
}

#[test]
fn malformed_queries_rejected() {
    let mut d = Dictionary::new();
    assert!(matches!(
        parse_select("SELECT ?x WHERE { }", &mut d),
        Err(QueryError::Syntax { .. })
    ));
    assert!(matches!(
        parse_select("SELECT ?missing WHERE { ?x <http://p> ?y }", &mut d),
        Err(QueryError::UnboundHeadVar(_))
    ));
    assert!(matches!(
        parse_select("SELECT ?x WHERE { ?x nope:p ?y }", &mut d),
        Err(QueryError::UnknownPrefix { .. })
    ));
}

#[test]
fn cyclic_subclass_schema_terminates_everywhere() {
    let mut g = parse_turtle(
        r#"
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:A rdfs:subClassOf ex:B .
ex:B rdfs:subClassOf ex:C .
ex:C rdfs:subClassOf ex:A .
ex:x a ex:A .
"#,
    )
    .unwrap();
    let q = parse_select(
        "PREFIX ex: <http://example.org/> SELECT ?i WHERE { ?i a ex:B }",
        g.dictionary_mut(),
    )
    .unwrap();
    let db = Database::builder().build(g);
    let opts = AnswerOptions::default();
    for strategy in [
        Strategy::Saturation,
        Strategy::RefUcq,
        Strategy::RefScq,
        Strategy::RefGCov,
        Strategy::Datalog,
    ] {
        let a = db.run_query(&q, &strategy, &opts).unwrap();
        assert_eq!(a.len(), 1, "{}", strategy.name());
    }
}

#[test]
fn self_referential_schema_terminates() {
    // c ⊑ c and p ⊑ p: entirely legal RDF, must not loop.
    let mut g = parse_turtle(
        r#"
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:C rdfs:subClassOf ex:C .
ex:p rdfs:subPropertyOf ex:p .
ex:x a ex:C .
ex:x ex:p ex:y .
"#,
    )
    .unwrap();
    let q = parse_select(
        "PREFIX ex: <http://example.org/> SELECT ?i WHERE { ?i a ex:C }",
        g.dictionary_mut(),
    )
    .unwrap();
    let db = Database::builder().build(g);
    let opts = AnswerOptions::default();
    for strategy in [
        Strategy::Saturation,
        Strategy::RefUcq,
        Strategy::RefScq,
        Strategy::RefGCov,
        Strategy::Datalog,
    ] {
        let a = db.run_query(&q, &strategy, &opts).unwrap();
        assert_eq!(a.len(), 1, "{}", strategy.name());
    }
}

#[test]
fn reformulation_size_limit_is_exact_and_typed() {
    let ds = rdfref::datagen::lubm::generate(&rdfref::datagen::lubm::LubmConfig::default());
    let q = rdfref::datagen::queries::example1(&ds, 0).unwrap();
    let db = Database::builder().build(ds.graph.clone());
    let opts = AnswerOptions::new().with_limits(ReformulationLimits::new().with_max_cqs(100));
    match db.run_query(&q, &Strategy::RefUcq, &opts) {
        Err(rdfref::core::CoreError::ReformulationTooLarge { size, limit }) => {
            assert_eq!(limit, 100);
            assert!(size > 100);
        }
        other => panic!("expected ReformulationTooLarge, got {other:?}"),
    }
}

#[test]
fn row_budget_applies_to_every_strategy() {
    let ds = rdfref::datagen::lubm::generate(&rdfref::datagen::lubm::LubmConfig::default());
    let mix = rdfref::datagen::queries::lubm_mix(&ds).unwrap();
    let db = Database::builder().build(ds.graph.clone());
    let opts = AnswerOptions::new().with_row_budget(Some(3));
    // Q06 (all students) overflows a budget of 3 under Sat, Ref and Dat
    // alike; Dat's budget bounds the query over its closure.
    let q6 = &mix.iter().find(|q| q.name == "Q06").unwrap().cq;
    for strategy in [
        Strategy::Saturation,
        Strategy::RefUcq,
        Strategy::RefScq,
        Strategy::Datalog,
    ] {
        let err = db.run_query(q6, &strategy, &opts).unwrap_err();
        assert!(
            matches!(
                err,
                rdfref::core::CoreError::Storage(
                    rdfref::storage::StorageError::RowBudgetExceeded { budget: 3 }
                )
            ),
            "{}: {err}",
            strategy.name()
        );
    }
}

#[test]
fn empty_graph_answers_are_empty_not_errors() {
    let mut g = rdfref::model::Graph::new();
    let q = parse_select(
        "SELECT ?x WHERE { ?x a <http://example.org/C> }",
        g.dictionary_mut(),
    )
    .unwrap();
    let db = Database::builder().build(g);
    let opts = AnswerOptions::default();
    for strategy in [
        Strategy::Saturation,
        Strategy::RefUcq,
        Strategy::RefScq,
        Strategy::RefGCov,
        Strategy::Datalog,
    ] {
        let a = db.run_query(&q, &strategy, &opts).unwrap();
        assert!(a.is_empty(), "{}", strategy.name());
    }
}

#[test]
fn invalid_covers_are_rejected_before_evaluation() {
    use rdfref::query::QueryError;
    // Uncovered atom.
    assert!(matches!(
        Cover::new(vec![vec![0]], 2),
        Err(QueryError::InvalidCover { .. })
    ));
    // Out-of-range atom.
    assert!(matches!(
        Cover::new(vec![vec![0, 7]], 2),
        Err(QueryError::InvalidCover { .. })
    ));
}
