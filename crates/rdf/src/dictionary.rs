//! Dictionary encoding of RDF terms.
//!
//! Every [`Term`] occurring in a graph is interned to a dense [`TermId`]
//! (`u32`), so the storage, reasoning and reformulation layers operate on
//! fixed-size integer triples — the standard design of RDBMS-backed RDF
//! stores (design decision D1 in `DESIGN.md`).
//!
//! Ids of the five built-in vocabulary terms are pre-interned at fixed,
//! well-known positions so that hot paths (is this triple a type assertion?
//! a schema triple?) are integer comparisons.

use crate::fxhash::FxHashMap;
use crate::term::Term;
use crate::vocab;
use std::fmt;

/// A dense identifier for an interned [`Term`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Pre-interned id of `rdf:type`.
pub const ID_RDF_TYPE: TermId = TermId(0);
/// Pre-interned id of `rdfs:subClassOf`.
pub const ID_RDFS_SUBCLASSOF: TermId = TermId(1);
/// Pre-interned id of `rdfs:subPropertyOf`.
pub const ID_RDFS_SUBPROPERTYOF: TermId = TermId(2);
/// Pre-interned id of `rdfs:domain`.
pub const ID_RDFS_DOMAIN: TermId = TermId(3);
/// Pre-interned id of `rdfs:range`.
pub const ID_RDFS_RANGE: TermId = TermId(4);
/// Number of pre-interned built-ins.
pub const BUILTIN_COUNT: u32 = 5;

/// A bidirectional `Term ↔ TermId` dictionary.
///
/// Interning is append-only: ids are never recycled, so an id handed out
/// stays valid for the lifetime of the dictionary. Lookup by id is a vector
/// index; lookup by term is one hash probe.
#[derive(Debug, Clone)]
pub struct Dictionary {
    terms: Vec<Term>,
    ids: FxHashMap<Term, TermId>,
}

impl Default for Dictionary {
    fn default() -> Self {
        Self::new()
    }
}

impl Dictionary {
    /// A dictionary with the built-in vocabulary pre-interned at the
    /// well-known ids.
    pub fn new() -> Self {
        let mut dict = Dictionary {
            terms: Vec::new(),
            ids: FxHashMap::default(),
        };
        for builtin in [
            vocab::RDF_TYPE,
            vocab::RDFS_SUBCLASSOF,
            vocab::RDFS_SUBPROPERTYOF,
            vocab::RDFS_DOMAIN,
            vocab::RDFS_RANGE,
        ] {
            dict.intern(&Term::iri(builtin));
        }
        debug_assert_eq!(dict.len(), BUILTIN_COUNT as usize);
        dict
    }

    /// Intern a term, returning its id (existing or fresh).
    pub fn intern(&mut self, term: &Term) -> TermId {
        if let Some(&id) = self.ids.get(term) {
            return id;
        }
        // Interning more than 2^32 terms exhausts the `TermId` space. Capacity
        // exhaustion is treated like OOM (abort): a `Result` would thread an
        // error through every `encode_term` caller for a condition with no
        // recovery short of a wider id type.
        #[allow(clippy::expect_used)]
        let id = TermId(
            u32::try_from(self.terms.len()).expect("dictionary overflow: more than 2^32 terms"),
        );
        self.terms.push(term.clone());
        self.ids.insert(term.clone(), id);
        #[cfg(feature = "strict-invariants")]
        {
            // Encode/decode round-trip: the id just minted must resolve back
            // to an equal term, and the term must resolve to this id.
            debug_assert_eq!(
                self.terms.get(id.index()),
                Some(term),
                "decode(intern(t)) != t"
            );
            debug_assert_eq!(self.ids.get(term), Some(&id), "id_of(intern(t)) != id");
        }
        id
    }

    /// Intern an IRI string directly.
    pub fn intern_iri(&mut self, iri: &str) -> TermId {
        self.intern(&Term::iri(iri))
    }

    /// Look up an already-interned term.
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        self.ids.get(term).copied()
    }

    /// Look up the id of an IRI string.
    pub fn id_of_iri(&self, iri: &str) -> Option<TermId> {
        self.id_of(&Term::iri(iri))
    }

    /// Resolve an id back to its term. Panics on a foreign id in debug
    /// builds; use [`Dictionary::get`] for a checked lookup.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// Checked id → term lookup.
    pub fn get(&self, id: TermId) -> Option<&Term> {
        self.terms.get(id.index())
    }

    /// Number of interned terms (including the built-ins).
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True iff only the built-ins are interned.
    pub fn is_empty(&self) -> bool {
        self.terms.len() == BUILTIN_COUNT as usize
    }

    /// Iterate over `(id, term)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_have_fixed_ids() {
        let d = Dictionary::new();
        assert_eq!(d.id_of_iri(vocab::RDF_TYPE), Some(ID_RDF_TYPE));
        assert_eq!(
            d.id_of_iri(vocab::RDFS_SUBCLASSOF),
            Some(ID_RDFS_SUBCLASSOF)
        );
        assert_eq!(
            d.id_of_iri(vocab::RDFS_SUBPROPERTYOF),
            Some(ID_RDFS_SUBPROPERTYOF)
        );
        assert_eq!(d.id_of_iri(vocab::RDFS_DOMAIN), Some(ID_RDFS_DOMAIN));
        assert_eq!(d.id_of_iri(vocab::RDFS_RANGE), Some(ID_RDFS_RANGE));
    }

    #[test]
    fn interning_is_idempotent() {
        let mut d = Dictionary::new();
        let t = Term::iri("http://example.org/Book");
        let a = d.intern(&t);
        let b = d.intern(&t);
        assert_eq!(a, b);
        assert_eq!(d.len(), BUILTIN_COUNT as usize + 1);
    }

    #[test]
    fn round_trip() {
        let mut d = Dictionary::new();
        let terms = [
            Term::iri("http://example.org/x"),
            Term::blank("b1"),
            Term::literal("El Aleph"),
            Term::typed_literal("1949", vocab::XSD_INTEGER),
        ];
        let ids: Vec<_> = terms.iter().map(|t| d.intern(t)).collect();
        for (t, id) in terms.iter().zip(&ids) {
            assert_eq!(d.term(*id), t);
            assert_eq!(d.id_of(t), Some(*id));
        }
    }

    #[test]
    fn distinct_terms_distinct_ids() {
        let mut d = Dictionary::new();
        // Same lexical string in different term kinds must not collide.
        let a = d.intern(&Term::iri("x"));
        let b = d.intern(&Term::blank("x"));
        let c = d.intern(&Term::literal("x"));
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn checked_get() {
        let d = Dictionary::new();
        assert!(d.get(TermId(0)).is_some());
        assert!(d.get(TermId(9999)).is_none());
    }

    #[test]
    fn iter_yields_in_order() {
        let d = Dictionary::new();
        let v: Vec<_> = d.iter().map(|(id, _)| id.0).collect();
        assert_eq!(v, (0..BUILTIN_COUNT).collect::<Vec<_>>());
    }
}
