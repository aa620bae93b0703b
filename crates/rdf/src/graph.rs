//! RDF graphs: a set of triples together with their dictionary.

use crate::dictionary::Dictionary;
use crate::error::Result;
use crate::fxhash::FxHashSet;
use crate::schema::Schema;
use crate::term::Term;
use crate::triple::{EncodedTriple, Triple};
use std::sync::Arc;

/// An RDF graph: a set of well-formed triples.
///
/// The graph holds its [`Dictionary`] behind an `Arc`: clones of a graph
/// (and the engines built from it) share one dictionary until one of them
/// interns a term, which copies it first. Triples are stored encoded, both in a
/// hash set (O(1) membership, deduplication) and in an insertion-ordered
/// vector (deterministic iteration, cheap snapshots for the storage layer).
///
/// A graph freely mixes *data* triples (class and property assertions) and
/// *schema* triples (the four RDFS constraints); [`Graph::schema`] extracts
/// the latter as a [`Schema`].
///
/// ```
/// use rdfref_model::{Graph, Term};
/// use rdfref_model::vocab::RDFS_SUBCLASSOF;
///
/// let mut g = Graph::new();
/// g.insert(Term::iri("http://e/Book"), Term::iri(RDFS_SUBCLASSOF),
///          Term::iri("http://e/Publication")).unwrap();
/// g.insert(Term::iri("http://e/doi1"),
///          Term::iri(rdfref_model::vocab::RDF_TYPE),
///          Term::iri("http://e/Book")).unwrap();
/// assert_eq!(g.len(), 2);
/// assert_eq!(g.schema().subclass.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    dict: Arc<Dictionary>,
    triples: Vec<EncodedTriple>,
    set: FxHashSet<EncodedTriple>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph {
            dict: Arc::new(Dictionary::new()),
            triples: Vec::new(),
            set: FxHashSet::default(),
        }
    }

    /// Assemble a graph from a shared dictionary and encoded triples
    /// (deduplicating while preserving first-occurrence order). Used by a
    /// database to materialize a graph from its store; the ids in `triples`
    /// must come from `dict`.
    pub fn from_encoded(dict: Arc<Dictionary>, triples: Vec<EncodedTriple>) -> Graph {
        let mut g = Graph {
            dict,
            triples: Vec::with_capacity(triples.len()),
            set: FxHashSet::default(),
        };
        for t in triples {
            g.insert_encoded(t);
        }
        g
    }

    /// The graph's dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// The dictionary's shared handle.
    pub fn shared_dictionary(&self) -> &Arc<Dictionary> {
        &self.dict
    }

    /// Share `other`'s dictionary. Its ids must extend this graph's (as they
    /// do when `other` interned on from the same dictionary).
    pub fn share_dictionary(&mut self, other: &Graph) {
        debug_assert!(other.dict.len() >= self.dict.len(), "dictionary shrank");
        self.dict = Arc::clone(&other.dict);
    }

    /// Mutable access to the dictionary (interning terms for queries against
    /// this graph). Copies it first if it is shared.
    pub fn dictionary_mut(&mut self) -> &mut Dictionary {
        Arc::make_mut(&mut self.dict)
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True iff the graph has no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Insert a term-level triple (validating well-formedness). Returns
    /// `true` if the triple was new.
    pub fn insert(&mut self, subject: Term, property: Term, object: Term) -> Result<bool> {
        let t = Triple::new(subject, property, object)?;
        Ok(self.insert_triple(&t))
    }

    /// Insert an already-validated triple. Returns `true` if new.
    pub fn insert_triple(&mut self, triple: &Triple) -> bool {
        let dict = self.dictionary_mut();
        let enc = EncodedTriple::new(
            dict.intern(&triple.subject),
            dict.intern(&triple.property),
            dict.intern(&triple.object),
        );
        self.insert_encoded(enc)
    }

    /// Insert an encoded triple whose ids come from this graph's dictionary.
    /// Returns `true` if new.
    pub fn insert_encoded(&mut self, t: EncodedTriple) -> bool {
        debug_assert!(
            t.s.index() < self.dict.len()
                && t.p.index() < self.dict.len()
                && t.o.index() < self.dict.len(),
            "encoded triple uses foreign term ids"
        );
        if self.set.insert(t) {
            self.triples.push(t);
            true
        } else {
            false
        }
    }

    /// Remove every triple of `doomed`; returns how many were present. One
    /// `retain` over the ordered vector (skipped when none was present), so
    /// the survivors keep their order.
    pub fn remove_all(&mut self, doomed: &FxHashSet<EncodedTriple>) -> usize {
        let present = doomed.iter().filter(|t| self.set.remove(t)).count();
        if present > 0 {
            self.triples.retain(|t| !doomed.contains(t));
        }
        debug_assert_eq!(
            self.set.len(),
            self.triples.len(),
            "set and vec out of sync"
        );
        present
    }

    /// Membership test on encoded triples.
    pub fn contains_encoded(&self, t: &EncodedTriple) -> bool {
        self.set.contains(t)
    }

    /// Membership test on term-level triples (false if any term is unknown).
    pub fn contains(&self, triple: &Triple) -> bool {
        match (
            self.dict.id_of(&triple.subject),
            self.dict.id_of(&triple.property),
            self.dict.id_of(&triple.object),
        ) {
            (Some(s), Some(p), Some(o)) => self.set.contains(&EncodedTriple::new(s, p, o)),
            _ => false,
        }
    }

    /// Iterate over encoded triples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &EncodedTriple> {
        self.triples.iter()
    }

    /// The encoded triples as a slice.
    pub fn triples(&self) -> &[EncodedTriple] {
        &self.triples
    }

    /// Decode an encoded triple back to term form.
    pub fn decode(&self, t: &EncodedTriple) -> Triple {
        Triple::new_unchecked(
            self.dict.term(t.s).clone(),
            self.dict.term(t.p).clone(),
            self.dict.term(t.o).clone(),
        )
    }

    /// Iterate over triples in term form (decoding on the fly).
    pub fn iter_decoded(&self) -> impl Iterator<Item = Triple> + '_ {
        self.triples.iter().map(|t| self.decode(t))
    }

    /// Extract the RDFS schema (the four constraint kinds) declared in this
    /// graph.
    pub fn schema(&self) -> Schema {
        Schema::from_graph(self)
    }
}

impl PartialEq for Graph {
    /// Two graphs are equal iff they contain the same term-level triples
    /// (dictionary ids may differ).
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        self.iter_decoded().all(|t| other.contains(&t))
    }
}

impl Eq for Graph {}

#[cfg(test)]
mod tests {
    use super::*;

    fn iri(s: &str) -> Term {
        Term::iri(s)
    }

    #[test]
    fn insert_and_contains() {
        let mut g = Graph::new();
        assert!(g.insert(iri("s"), iri("p"), Term::literal("o")).unwrap());
        // Duplicate insertion returns false.
        assert!(!g.insert(iri("s"), iri("p"), Term::literal("o")).unwrap());
        assert_eq!(g.len(), 1);
        let t = Triple::new(iri("s"), iri("p"), Term::literal("o")).unwrap();
        assert!(g.contains(&t));
        let absent = Triple::new(iri("s"), iri("p"), Term::literal("other")).unwrap();
        assert!(!g.contains(&absent));
    }

    #[test]
    fn remove_keeps_set_and_vec_in_sync() {
        let mut g = Graph::new();
        g.insert(iri("a"), iri("p"), iri("b")).unwrap();
        g.insert(iri("c"), iri("p"), iri("d")).unwrap();
        g.insert(iri("e"), iri("p"), iri("f")).unwrap();
        let (first, middle, last) = (g.triples()[0], g.triples()[1], g.triples()[2]);
        let doomed: FxHashSet<EncodedTriple> = [middle].into_iter().collect();
        assert_eq!(g.remove_all(&doomed), 1);
        assert_eq!(g.remove_all(&doomed), 0);
        assert_eq!(g.triples(), &[first, last], "survivors keep their order");
        assert!(!g.contains_encoded(&middle));
        assert_eq!(g.remove_all(&FxHashSet::default()), 0);
    }

    #[test]
    fn interning_into_a_clone_leaves_the_original_dictionary_alone() {
        let mut g = Graph::new();
        g.insert(iri("a"), iri("p"), iri("b")).unwrap();
        let mut c = g.clone();
        let (len, a) = (g.dictionary().len(), g.dictionary().id_of(&iri("a")));
        c.insert(iri("new"), iri("p"), iri("a")).unwrap();
        assert_eq!(g.dictionary().len(), len);
        assert_eq!(g.dictionary().id_of(&iri("a")), a);
        assert_eq!(c.dictionary().id_of(&iri("a")), a);
    }

    #[test]
    fn decode_round_trip() {
        let mut g = Graph::new();
        let t = Triple::new(iri("s"), iri("p"), Term::typed_literal("1", "int")).unwrap();
        g.insert_triple(&t);
        let enc = *g.triples().first().unwrap();
        assert_eq!(g.decode(&enc), t);
    }

    #[test]
    fn graph_equality_ignores_id_assignment() {
        let mut g1 = Graph::new();
        let mut g2 = Graph::new();
        g1.insert(iri("a"), iri("p"), iri("b")).unwrap();
        g1.insert(iri("c"), iri("q"), iri("d")).unwrap();
        // Insert in the opposite order so ids differ.
        g2.insert(iri("c"), iri("q"), iri("d")).unwrap();
        g2.insert(iri("a"), iri("p"), iri("b")).unwrap();
        assert_eq!(g1, g2);
        g2.insert(iri("e"), iri("p"), iri("f")).unwrap();
        assert_ne!(g1, g2);
    }
}
