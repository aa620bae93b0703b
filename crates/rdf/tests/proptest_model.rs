//! Property tests of the model layer: dictionary interning, the graph as a
//! sorted set, serialization round trips, schema closure laws.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rdfref_model::parser::parse_ntriples;
use rdfref_model::writer::to_ntriples;
use rdfref_model::{sorted_run, Dictionary, EncodedTriple, Graph, Schema, Term, TermId, Triple};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Random RDF terms: IRIs, blanks, plain/typed/lang literals with
/// deliberately awkward lexical forms (quotes, backslashes, newlines).
fn term_strategy() -> impl Strategy<Value = Term> {
    let iri =
        "[a-zA-Z][a-zA-Z0-9/._-]{0,20}".prop_map(|s| Term::iri(format!("http://example.org/{s}")));
    let blank = "[a-zA-Z][a-zA-Z0-9_-]{0,10}".prop_map(Term::blank);
    let lexical = prop_oneof![
        "[ -~]{0,20}", // printable ASCII incl. quotes
        Just("with \"quotes\" and \\ slash\n\t".to_string()),
    ];
    let literal = (lexical, 0u8..3).prop_map(|(lex, kind)| match kind {
        0 => Term::literal(lex),
        1 => Term::typed_literal(lex, "http://www.w3.org/2001/XMLSchema#string"),
        _ => Term::Literal(rdfref_model::term::Literal::lang(lex, "en")),
    });
    prop_oneof![3 => iri, 1 => blank, 2 => literal]
}

fn subject_strategy() -> impl Strategy<Value = Term> {
    term_strategy().prop_filter("subjects are IRI/blank", |t| t.valid_subject())
}

fn property_strategy() -> impl Strategy<Value = Term> {
    "[a-zA-Z][a-zA-Z0-9]{0,12}".prop_map(|s| Term::iri(format!("http://example.org/p/{s}")))
}

fn triple_strategy() -> impl Strategy<Value = Triple> {
    (subject_strategy(), property_strategy(), term_strategy())
        .prop_map(|(s, p, o)| Triple::new(s, p, o).expect("constructed well-formed"))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Intern → resolve is the identity; re-interning returns the same id.
    #[test]
    fn dictionary_round_trip(terms in proptest::collection::vec(term_strategy(), 1..40)) {
        let mut dict = Dictionary::new();
        let ids: Vec<TermId> = terms.iter().map(|t| dict.intern(t)).collect();
        for (t, id) in terms.iter().zip(&ids) {
            prop_assert_eq!(dict.term(*id), t);
            prop_assert_eq!(dict.intern(t), *id);
        }
        // Distinct terms have distinct ids.
        for (i, a) in terms.iter().enumerate() {
            for (j, b) in terms.iter().enumerate() {
                if a != b {
                    prop_assert_ne!(ids[i], ids[j]);
                }
                let _ = j;
            }
        }
    }

    /// Random insert, remove and mixed batches keep a graph one strictly
    /// ascending run that agrees with a `BTreeSet` model on `len` and
    /// `contains`; `from_encoded` of the model, shuffled and duplicated,
    /// equals it too.
    #[test]
    fn graph_batch_edits_match_a_sorted_set_model(
        batches in proptest::collection::vec(
            (0u8..3, proptest::collection::vec((0usize..5, 0usize..3, 0usize..5), 0..12)),
            1..12,
        ),
        seed in any::<u64>(),
    ) {
        let mut dict = Dictionary::new();
        let ids: Vec<TermId> = (0..5)
            .map(|i| dict.intern(&Term::iri(format!("http://example.org/{i}"))))
            .collect();
        let dict = Arc::new(dict);
        let universe: Vec<EncodedTriple> = (0..5 * 3 * 5)
            .map(|i| EncodedTriple::new(ids[i / 15], ids[i / 5 % 3], ids[i % 5]))
            .collect();
        let mut g = Graph::from_encoded(Arc::clone(&dict), Vec::new());
        let mut model = BTreeSet::new();
        for (op, batch) in &batches {
            let batch: Vec<EncodedTriple> = batch
                .iter()
                .map(|&(s, p, o)| EncodedTriple::new(ids[s], ids[p], ids[o]))
                .collect();
            // 0 inserts, 1 removes, 2 inserts the first half and removes
            // the second (a triple in both ends up removed).
            let cut = if *op == 2 { batch.len() / 2 } else if *op == 0 { batch.len() } else { 0 };
            let ins = sorted_run(batch[..cut].to_vec());
            let rem = sorted_run(batch[cut..].to_vec());
            g.apply_delta(&ins, &rem);
            model.extend(ins.iter().copied());
            for t in &rem {
                model.remove(t);
            }
            prop_assert!(g.triples().is_sorted_by(|a, b| a < b), "not strictly ascending");
            prop_assert_eq!(g.len(), model.len());
            for t in &universe {
                prop_assert_eq!(g.contains_encoded(t), model.contains(t));
            }
        }
        let mut shuffled: Vec<EncodedTriple> = model.iter().chain(&model).copied().collect();
        shuffled.shuffle(&mut StdRng::seed_from_u64(seed));
        let rebuilt = Graph::from_encoded(dict, shuffled);
        prop_assert!(rebuilt.triples().iter().eq(model.iter()));
    }

    /// Graph → N-Triples → Graph is the identity (modulo triple order).
    #[test]
    fn ntriples_round_trip(triples in proptest::collection::vec(triple_strategy(), 0..30)) {
        let mut g = Graph::new();
        for t in &triples {
            g.insert_triple(t);
        }
        let doc = to_ntriples(&g);
        let g2 = parse_ntriples(&doc).unwrap_or_else(|e| panic!("reparse failed: {e}\n{doc}"));
        prop_assert_eq!(&g, &g2);
    }

    /// Graph → Turtle → Graph is the identity too (prefix compression,
    /// subject grouping and the `a` keyword notwithstanding).
    #[test]
    fn turtle_round_trip(triples in proptest::collection::vec(triple_strategy(), 0..30)) {
        let mut g = Graph::new();
        for t in &triples {
            g.insert_triple(t);
        }
        let doc = rdfref_model::writer::to_turtle(&g);
        let g2 = rdfref_model::parser::parse_turtle(&doc)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{doc}"));
        prop_assert_eq!(&g, &g2);
    }

    /// Schema closure laws on random subclass digraphs: transitivity and
    /// agreement between the forward and inverse maps.
    #[test]
    fn closure_laws(edges in proptest::collection::vec((0usize..8, 0usize..8), 0..16)) {
        let mut dict = Dictionary::new();
        let classes: Vec<TermId> = (0..8)
            .map(|i| dict.intern(&Term::iri(format!("http://c/{i}"))))
            .collect();
        let mut schema = Schema::new();
        for &(a, b) in &edges {
            schema.add_subclass(classes[a], classes[b]);
        }
        let cl = schema.closure();
        // Transitivity.
        for &a in &classes {
            let sups: Vec<TermId> = cl.superclasses_of(a).collect();
            for &b in &sups {
                for c in cl.superclasses_of(b) {
                    prop_assert!(
                        cl.is_subclass(a, c),
                        "a≺b≺c but not a≺c"
                    );
                }
            }
        }
        // Inverse agreement.
        for &a in &classes {
            for b in cl.superclasses_of(a) {
                prop_assert!(cl.subclasses_of(b).any(|x| x == a));
            }
        }
        // Declared edges are in the closure.
        for &(a, b) in &edges {
            prop_assert!(cl.is_subclass(classes[a], classes[b]));
        }
    }

    /// Effective domains contain the declared ones and respect subproperty
    /// inheritance.
    #[test]
    fn effective_domains_laws(
        sp_edges in proptest::collection::vec((0usize..5, 0usize..5), 0..8),
        dom_edges in proptest::collection::vec((0usize..5, 0usize..4), 0..6),
    ) {
        let mut dict = Dictionary::new();
        let props: Vec<TermId> = (0..5)
            .map(|i| dict.intern(&Term::iri(format!("http://p/{i}"))))
            .collect();
        let classes: Vec<TermId> = (0..4)
            .map(|i| dict.intern(&Term::iri(format!("http://c/{i}"))))
            .collect();
        let mut schema = Schema::new();
        for &(a, b) in &sp_edges {
            schema.add_subproperty(props[a], props[b]);
        }
        for &(p, c) in &dom_edges {
            schema.add_domain(props[p], classes[c]);
        }
        let cl = schema.closure();
        for &(p, c) in &dom_edges {
            prop_assert!(cl.domains_of(props[p]).any(|x| x == classes[c]));
            // Every subproperty inherits it.
            for sub in cl.subproperties_of(props[p]) {
                prop_assert!(cl.domains_of(sub).any(|x| x == classes[c]));
            }
        }
    }
}
