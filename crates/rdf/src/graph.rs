//! RDF graphs: a sorted set of triples together with their dictionary.

use crate::dictionary::Dictionary;
use crate::error::Result;
use crate::schema::Schema;
use crate::term::Term;
use crate::triple::{EncodedTriple, Triple};
use std::sync::Arc;

/// An RDF graph: a set of well-formed triples.
///
/// The graph holds its [`Dictionary`] behind an `Arc`: clones of a graph
/// (and the engines built from it) share one dictionary until one of them
/// interns a term, which copies it first. Triples are stored encoded, once,
/// in one strictly ascending vector (SPO id order): membership is a binary
/// search, iteration is in id order, and a batch edit
/// ([`Graph::apply_delta`]) is one [`merge_sorted`] of the graph with the
/// batch's sorted runs — the merge a store index applies to its buckets.
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
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Assemble a graph from a shared dictionary and encoded triples in any
    /// order, with duplicates: one sort. The ids in `triples` must come from
    /// `dict`.
    pub fn from_encoded(dict: Arc<Dictionary>, triples: Vec<EncodedTriple>) -> Graph {
        let g = Graph {
            dict,
            triples: sorted_run(triples),
        };
        g.check_ascending();
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
    /// `true` if the triple was new. O(|G|), like every single-triple
    /// insert: batches go through [`Graph::apply_delta`].
    pub fn insert(&mut self, subject: Term, property: Term, object: Term) -> Result<bool> {
        let t = Triple::new(subject, property, object)?;
        Ok(self.insert_triple(&t))
    }

    /// Insert an already-validated triple. Returns `true` if new. O(|G|).
    pub fn insert_triple(&mut self, triple: &Triple) -> bool {
        let enc = self.encode(triple);
        self.insert_encoded(enc)
    }

    /// Intern a triple's terms into this graph's dictionary, without
    /// inserting it.
    pub fn encode(&mut self, triple: &Triple) -> EncodedTriple {
        let dict = self.dictionary_mut();
        EncodedTriple::new(
            dict.intern(&triple.subject),
            dict.intern(&triple.property),
            dict.intern(&triple.object),
        )
    }

    /// Insert an encoded triple whose ids come from this graph's dictionary.
    /// Returns `true` if new. O(|G|): the tail shifts to keep the order.
    pub fn insert_encoded(&mut self, t: EncodedTriple) -> bool {
        debug_assert!(
            t.s.index() < self.dict.len()
                && t.p.index() < self.dict.len()
                && t.o.index() < self.dict.len(),
            "encoded triple uses foreign term ids"
        );
        let Err(at) = self.triples.binary_search(&t) else {
            return false;
        };
        self.triples.insert(at, t);
        self.check_ascending();
        true
    }

    /// The batch edit: the graph becomes `(G ∪ inserts) ∖ removes`, by one
    /// [`merge_sorted`]. Both runs must be strictly ascending (see
    /// [`sorted_run`]); a triple in both ends up removed.
    pub fn apply_delta(&mut self, inserts: &[EncodedTriple], removes: &[EncodedTriple]) {
        if inserts.is_empty() && removes.is_empty() {
            return;
        }
        self.triples = merge_sorted(&self.triples, inserts, removes);
        self.check_ascending();
    }

    /// `strict-invariants`: the triples are one strictly ascending run.
    fn check_ascending(&self) {
        #[cfg(feature = "strict-invariants")]
        assert!(
            self.triples.is_sorted_by(|a, b| a < b),
            "graph triples are not strictly ascending"
        );
    }

    /// Membership test on encoded triples: a binary search.
    pub fn contains_encoded(&self, t: &EncodedTriple) -> bool {
        self.triples.binary_search(t).is_ok()
    }

    /// Membership test on term-level triples (false if any term is unknown).
    pub fn contains(&self, triple: &Triple) -> bool {
        match (
            self.dict.id_of(&triple.subject),
            self.dict.id_of(&triple.property),
            self.dict.id_of(&triple.object),
        ) {
            (Some(s), Some(p), Some(o)) => self.contains_encoded(&EncodedTriple::new(s, p, o)),
            _ => false,
        }
    }

    /// Iterate over encoded triples in ascending (SPO id) order.
    pub fn iter(&self) -> impl Iterator<Item = &EncodedTriple> {
        self.triples.iter()
    }

    /// The encoded triples as a strictly ascending slice.
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

/// `v` sorted and deduplicated: a strictly ascending run.
pub fn sorted_run<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort_unstable();
    v.dedup();
    v
}

/// `(base ∪ ins) ∖ rem` for strictly ascending runs, itself strictly
/// ascending: the one batch edit of a sorted set, shared by [`Graph`] and
/// the store's index buckets. The stretch of `base` before each edited key
/// is found by galloping and copied whole, so a small batch against a large
/// run costs O(batch · log |base|) comparisons and one copy.
pub fn merge_sorted<T: Ord + Copy>(base: &[T], ins: &[T], rem: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(base.len() + ins.len());
    let (mut base, mut ins, mut rem) = (base, ins, rem);
    loop {
        // The next edited key: the lesser head of `ins` and `rem`.
        let key = match (ins.first(), rem.first()) {
            (Some(&i), Some(&r)) => i.min(r),
            (Some(&k), None) | (None, Some(&k)) => k,
            (None, None) => break,
        };
        let below = count_below(base, &key);
        out.extend_from_slice(&base[..below]);
        base = &base[below..];
        for run in [&mut base, &mut ins] {
            if run.first() == Some(&key) {
                *run = &run[1..];
            }
        }
        match rem.split_first() {
            Some((r, rest)) if *r == key => rem = rest,
            _ => out.push(key),
        }
    }
    out.extend_from_slice(base);
    out
}

/// How many leading keys of the ascending `s` are below `key`: a galloping
/// search, O(log answer).
fn count_below<T: Ord>(s: &[T], key: &T) -> usize {
    let mut end = 1;
    while end <= s.len() && s[end - 1] < *key {
        end *= 2;
    }
    let lo = end / 2;
    lo + s[lo..end.min(s.len())].partition_point(|k| k < key)
}

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
    fn batch_edits_keep_one_ascending_run() {
        let mut g = Graph::new();
        for s in ["e", "a", "c"] {
            g.insert(iri(s), iri("p"), iri("o")).unwrap();
        }
        let t = g.triples().to_vec();
        assert!(
            t.is_sorted_by(|a, b| a < b),
            "single inserts keep the order"
        );
        g.apply_delta(&[], &[t[1]]);
        assert_eq!(g.triples(), &[t[0], t[2]]);
        assert!(!g.contains_encoded(&t[1]));
        g.apply_delta(&[t[1], t[2]], &[t[0]]);
        assert_eq!(g.triples(), &[t[1], t[2]]);
        let dict = Arc::clone(g.shared_dictionary());
        let rebuilt = Graph::from_encoded(dict, vec![t[2], t[1], t[2]]);
        assert_eq!(rebuilt.triples(), g.triples());
    }

    #[test]
    fn merge_sorted_is_union_minus_removals() {
        let base: Vec<u32> = (0..100).map(|i| 2 * i).collect();
        let ins = [1, 4, 99, 198, 500];
        let rem = [0, 4, 7, 150, 500];
        let mut want: Vec<u32> = base.iter().chain(&ins).copied().collect();
        want.retain(|k| !rem.contains(k));
        assert_eq!(merge_sorted(&base, &ins, &rem), sorted_run(want));
        assert_eq!(merge_sorted(&base, &[], &[]), base);
        assert_eq!(merge_sorted(&[], &ins, &[]), ins);
        assert!(merge_sorted(&[], &[], &rem).is_empty());
        for k in [0, 1, 77, 198, 199, 1000] {
            assert_eq!(count_below(&base, &k), base.partition_point(|b| *b < k));
        }
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
