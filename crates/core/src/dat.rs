//! Dat on the store: the closure `tc` in semi-naive rounds of the
//! evaluator's joins.
//!
//! `tc` is a [`Store`] in the database's store id space. It starts as the
//! explicit store, shared rather than copied, because the copy rule
//! `tc ⊇ triple` is the identity, and it grows by [`Store::apply_delta`]
//! each round. The first round's delta Δ is the explicit store itself; each
//! later Δ is a store over the triples the previous round derived that `tc`
//! lacked. A round evaluates every rule once per body position: the atom at
//! that position is scanned over Δ, every other atom is joined over `tc` by
//! [`Evaluator::join_atom`], and each joined row yields the head triple.
//! The closure is reached when a round derives nothing new.
//!
//! Every round adds one to `datalog.rounds` and observes its new triples in
//! the `datalog.round.facts` histogram.

use crate::error::Result;
use rdfref_model::{EncodedTriple, TermId};
use rdfref_obs::Obs;
use rdfref_query::ast::{Cq, PTerm};
use rdfref_storage::evaluator::Evaluator;
use rdfref_storage::exec::scan_atom;
use rdfref_storage::{ExecMetrics, Relation, Stats, StorageError, Store};

/// The closure of `explicit` under `rules`, whose constants are in
/// `explicit`'s id space and whose heads are triple patterns. `stats` price
/// each join step's bind-versus-hash choice, which never changes its rows:
/// the explicit store's statistics serve every round.
pub(crate) fn closure(explicit: &Store, stats: &Stats, rules: &[Cq], obs: &Obs) -> Result<Store> {
    let mut tc = explicit.clone();
    let mut delta = explicit.clone();
    while !delta.is_empty() {
        let ev = Evaluator::new(&tc, stats);
        let mut derived: Vec<EncodedTriple> = Vec::new();
        for rule in rules {
            for (d, atom) in rule.body.iter().enumerate() {
                let mut joined = scan_atom(&delta, atom)?;
                for (i, other) in rule.body.iter().enumerate() {
                    if i != d && !joined.is_empty() {
                        // The rounds' operator trace is not the query's.
                        joined = ev.join_atom(&joined, other, i, &mut ExecMetrics::default())?;
                    }
                }
                if !joined.is_empty() {
                    push_heads(&rule.head, &joined, &mut derived)?;
                }
            }
        }
        derived.retain(|t| !tc.contains(t));
        delta = Store::from_triples(&derived);
        tc = tc.apply_delta(&derived, &[]);
        obs.add("datalog.rounds", 1);
        obs.observe("datalog.round.facts", delta.len() as u64);
    }
    Ok(tc)
}

/// Where one head position's id comes from.
enum Slot {
    Id(TermId),
    Column(usize),
}

/// Append the triple `head` names for every row of `joined`, which binds
/// each of its variables.
fn push_heads(head: &[PTerm], joined: &Relation, out: &mut Vec<EncodedTriple>) -> Result<()> {
    let slot = |t: &PTerm| match t {
        PTerm::Const(c) => Ok(Slot::Id(*c)),
        PTerm::Var(v) => joined
            .column_index(v)
            .map(Slot::Column)
            .ok_or_else(|| StorageError::UnknownColumn(v.name().to_string())),
        PTerm::Range(..) => Err(StorageError::UnknownColumn("[range]".to_string())),
    };
    let [s, p, o] = head else {
        return Err(StorageError::HeadMismatch {
            head: head.len(),
            columns: 3,
        }
        .into());
    };
    let (s, p, o) = (slot(s)?, slot(p)?, slot(o)?);
    for row in joined.rows() {
        let id = |slot: &Slot| match *slot {
            Slot::Id(c) => c,
            Slot::Column(i) => row[i],
        };
        out.push(EncodedTriple::new(id(&s), id(&p), id(&o)));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::answer::{AnswerOptions, Database, Strategy};
    use rdfref_model::dictionary::ID_RDF_TYPE;
    use rdfref_model::parser::parse_turtle;
    use rdfref_model::Term;
    use rdfref_obs::MetricsRegistry;
    use rdfref_query::ast::{Atom, Cq, PTerm};
    use rdfref_query::{parse_select, Var};
    use std::sync::Arc;

    /// The paper's Figure 2.
    const FIGURE_2: &str = r#"
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:doi1 rdf:type ex:Book .
ex:doi1 ex:writtenBy _:b1 .
ex:doi1 ex:hasTitle "El Aleph" .
_:b1 ex:hasName "J. L. Borges" .
ex:doi1 ex:publishedIn "1949" .
ex:Book rdfs:subClassOf ex:Publication .
ex:writtenBy rdfs:subPropertyOf ex:hasAuthor .
ex:writtenBy rdfs:domain ex:Book .
ex:writtenBy rdfs:range ex:Person .
"#;

    #[test]
    fn every_closure_rule_has_two_atoms_and_a_bound_triple_head() {
        for rule in rdfref_datalog::closure_rules() {
            assert_eq!((rule.body.len(), rule.head.len()), (2, 3), "{rule:?}");
            for t in &rule.head {
                if let PTerm::Var(v) = t {
                    assert!(
                        rule.body.iter().any(|a| a.vars().any(|w| w == v)),
                        "{rule:?}"
                    );
                }
            }
        }
    }

    /// §3's query on Figure 2. `tc` is the 9 explicit triples plus 4
    /// derived in the first round (`doi1 hasAuthor b1`, `doi1 τ Publication`,
    /// `b1 τ Person`, `writtenBy ←d Publication`); the second round derives
    /// nothing. With the one answer that is 14 derived facts.
    #[test]
    fn the_paper_query_on_figure_2_derives_fourteen_facts_in_two_rounds() {
        let mut g = parse_turtle(FIGURE_2).unwrap();
        let q = parse_select(
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x3 WHERE { ?x1 ex:hasAuthor ?x2 . ?x2 ex:hasName ?x3 . ?x1 ?x4 "1949" }"#,
            g.dictionary_mut(),
        )
        .unwrap();
        let db = Database::builder().build(g);
        let registry = Arc::new(MetricsRegistry::new());
        let answer = db
            .query(&q)
            .strategy(Strategy::Datalog)
            .collect_metrics(&registry)
            .run()
            .unwrap();
        let borges = vec![vec![Term::literal("J. L. Borges")]];
        assert_eq!(answer.decoded(db.dictionary()), borges);
        assert_eq!(answer.explain.datalog_derived, 14);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("datalog.facts_derived"), 14);
        assert_eq!(snap.counter("datalog.rounds"), 2);
        assert_eq!(snap.span_count("datalog.run"), 1);
    }

    /// Only subclass transitivity reaches `A ≺sc C`.
    #[test]
    fn schema_position_queries_see_the_closed_schema() {
        let mut g = parse_turtle(
            r#"@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
               @prefix ex: <http://example.org/> .
               ex:A rdfs:subClassOf ex:B .
               ex:B rdfs:subClassOf ex:C ."#,
        )
        .unwrap();
        let q = parse_select(
            r#"PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
               PREFIX ex: <http://example.org/>
               SELECT ?x WHERE { ?x rdfs:subClassOf ex:C }"#,
            g.dictionary_mut(),
        )
        .unwrap();
        let db = Database::builder().build(g);
        let answer = db
            .run_query(&q, &Strategy::Datalog, &AnswerOptions::default())
            .unwrap();
        assert_eq!(answer.len(), 2);
    }

    #[test]
    fn bound_head_constants_pass_through() {
        let mut g = parse_turtle(FIGURE_2).unwrap();
        let book = g.dictionary_mut().intern_iri("http://example.org/Book");
        let x = Var::new("x");
        let cq = Cq::new_unchecked(
            vec![PTerm::Var(x.clone()), PTerm::Const(book)],
            vec![Atom::new(x, ID_RDF_TYPE, book)],
        );
        let answer = Database::builder()
            .build(g)
            .run_query(&cq, &Strategy::Datalog, &AnswerOptions::default())
            .unwrap();
        assert_eq!(answer.len(), 1);
        assert_eq!(answer.rows()[0][1], book);
    }
}
