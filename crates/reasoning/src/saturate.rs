//! Saturation: `G ↦ G∞` in one derivation step.
//!
//! Against the closed schema, every entailed triple follows in one step from
//! one triple of `G` (see [`crate::rules`]). So `G∞` is `G`, plus the closed
//! schema as triples, plus the one-step image of `G`: one
//! [`RuleTables::derive_from`] pass, sorted once and merged into `G` (design
//! decision D5). A schema that
//! constrains the RDFS vocabulary itself is detected up front
//! ([`RuleTables::constrains_rdfs_vocabulary`]). Only then is the step
//! repeated, re-closing the schema each round, until nothing changes.

use crate::rules::RuleTables;
use rdfref_model::{sorted_run, EncodedTriple, Graph, Schema};
use rdfref_obs::Obs;

/// Saturate a graph in place; returns the number of triples added.
///
/// The saturation of an RDF graph is unique (up to blank node renaming —
/// and the DB-fragment rules introduce no blank nodes, so it is simply
/// unique), and `G ⊨RDF s p o ⟺ s p o ∈ G∞`.
pub fn saturate_in_place(graph: &mut Graph) -> usize {
    saturate_in_place_obs(graph, &Obs::disabled())
}

/// [`saturate_in_place`] with observability: records the `saturate` span, a
/// `saturate.rounds` counter (1 unless the schema constrains the RDFS
/// vocabulary) and a `saturate.derived` counter.
pub fn saturate_in_place_obs(graph: &mut Graph, obs: &Obs) -> usize {
    let before = graph.len();
    saturate_with_tables(graph, obs);
    graph.len() - before
}

/// Saturate `graph` in place and return the rule tables of its closed
/// schema, which the incremental reasoner keeps until the schema changes.
pub(crate) fn saturate_with_tables(graph: &mut Graph, obs: &Obs) -> RuleTables {
    let _span = obs.span("saturate");
    let before = graph.len();
    let tables = loop {
        let tables = RuleTables::from_closure(&Schema::from_graph(graph).closure());
        let len = graph.len();
        let mut derived: Vec<EncodedTriple> = tables.schema_triples().collect();
        for t in graph.triples() {
            tables.derive_from(t, &mut |nt| derived.push(nt));
        }
        graph.apply_delta(&sorted_run(derived), &[]);
        obs.add("saturate.rounds", 1);
        if !tables.constrains_rdfs_vocabulary() || graph.len() == len {
            break tables;
        }
    };
    obs.add("saturate.derived", (graph.len() - before) as u64);
    tables
}

/// Saturate, returning a new graph (`G∞`). The dictionary is shared
/// verbatim: saturation introduces no new terms.
///
/// ```
/// use rdfref_model::parser::parse_turtle;
/// let g = parse_turtle(r#"
///     @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
///     @prefix ex: <http://example.org/> .
///     ex:Book rdfs:subClassOf ex:Publication .
///     ex:doi1 a ex:Book .
/// "#).unwrap();
/// let sat = rdfref_reasoning::saturate(&g);
/// assert_eq!(sat.len(), g.len() + 1); // + doi1 a Publication
/// ```
pub fn saturate(graph: &Graph) -> Graph {
    let mut g = graph.clone();
    saturate_in_place(&mut g);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfref_model::parser::parse_turtle;
    use rdfref_model::{Term, Triple};

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

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://example.org/{s}"))
    }
    fn rdf_type() -> Term {
        Term::iri(rdfref_model::vocab::RDF_TYPE)
    }

    #[test]
    fn figure_2_implicit_triples_derived() {
        let g = parse_turtle(FIGURE_2).unwrap();
        let sat = saturate(&g);
        // The dashed edges of Figure 2:
        for (s, p, o) in [
            (iri("doi1"), iri("hasAuthor"), Term::blank("b1")),
            (iri("doi1"), rdf_type(), iri("Publication")),
            (Term::blank("b1"), rdf_type(), iri("Person")),
        ] {
            let t = Triple::new(s, p, o).unwrap();
            assert!(sat.contains(&t), "missing implicit triple {t}");
        }
        // doi1 τ Book was explicit; still there.
        assert!(sat.contains(&Triple::new(iri("doi1"), rdf_type(), iri("Book")).unwrap()));
    }

    #[test]
    fn saturation_is_idempotent() {
        let g = parse_turtle(FIGURE_2).unwrap();
        let once = saturate(&g);
        let twice = saturate(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn saturation_is_monotone_in_input() {
        let g = parse_turtle(FIGURE_2).unwrap();
        let sat = saturate(&g);
        for t in g.iter_decoded() {
            assert!(sat.contains(&t));
        }
    }

    #[test]
    fn subclass_chain_closes_transitively() {
        let doc = r#"
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:A rdfs:subClassOf ex:B .
ex:B rdfs:subClassOf ex:C .
ex:C rdfs:subClassOf ex:D .
ex:x rdf:type ex:A .
"#;
        let sat = saturate(&parse_turtle(doc).unwrap());
        for c in ["B", "C", "D"] {
            assert!(sat.contains(&Triple::new(iri("x"), rdf_type(), iri(c)).unwrap()));
        }
        // Schema closure materialized: A ⊑ C, A ⊑ D.
        let sc = Term::iri(rdfref_model::vocab::RDFS_SUBCLASSOF);
        assert!(sat.contains(&Triple::new(iri("A"), sc.clone(), iri("C")).unwrap()));
        assert!(sat.contains(&Triple::new(iri("A"), sc, iri("D")).unwrap()));
    }

    #[test]
    fn domain_through_subproperty_chain() {
        let doc = r#"
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:p1 rdfs:subPropertyOf ex:p2 .
ex:p2 rdfs:subPropertyOf ex:p3 .
ex:p3 rdfs:domain ex:C .
ex:C rdfs:subClassOf ex:D .
ex:a ex:p1 ex:b .
"#;
        let sat = saturate(&parse_turtle(doc).unwrap());
        // a gets p2, p3 triples and types C, D.
        assert!(sat.contains(&Triple::new(iri("a"), iri("p2"), iri("b")).unwrap()));
        assert!(sat.contains(&Triple::new(iri("a"), iri("p3"), iri("b")).unwrap()));
        assert!(sat.contains(&Triple::new(iri("a"), rdf_type(), iri("C")).unwrap()));
        assert!(sat.contains(&Triple::new(iri("a"), rdf_type(), iri("D")).unwrap()));
    }

    #[test]
    fn cyclic_subclass_terminates() {
        let doc = r#"
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:A rdfs:subClassOf ex:B .
ex:B rdfs:subClassOf ex:A .
ex:x rdf:type ex:A .
"#;
        let sat = saturate(&parse_turtle(doc).unwrap());
        assert!(sat.contains(&Triple::new(iri("x"), rdf_type(), iri("B")).unwrap()));
        // And back: x τ A retained; closure has A ⊑ A on the cycle.
        assert!(sat.contains(&Triple::new(iri("x"), rdf_type(), iri("A")).unwrap()));
    }

    #[test]
    fn schema_only_graph_saturates_schema() {
        let doc = r#"
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:A rdfs:subClassOf ex:B .
ex:B rdfs:subClassOf ex:C .
"#;
        let g = parse_turtle(doc).unwrap();
        let mut sat = g.clone();
        let added = saturate_in_place(&mut sat);
        assert_eq!(added, 1); // A ⊑ C
    }

    #[test]
    fn empty_graph_is_fixed_point() {
        let mut g = Graph::new();
        assert_eq!(saturate_in_place(&mut g), 0);
    }

    #[test]
    fn pathological_schema_about_schema() {
        // A super-property of rdfs:subClassOf: derived sc triples must feed
        // back into the schema closure (the re-closing fallback).
        let doc = r#"
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:narrower rdfs:subPropertyOf rdfs:subClassOf .
ex:A ex:narrower ex:B .
ex:x rdf:type ex:A .
"#;
        let sat = saturate(&parse_turtle(doc).unwrap());
        // narrower ⊑ subClassOf ⟹ A ⊑ B ⟹ x τ B.
        assert!(sat.contains(&Triple::new(iri("x"), rdf_type(), iri("B")).unwrap()));
    }
}
