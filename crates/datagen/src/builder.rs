//! A small convenience layer for generating graphs programmatically.

use rdfref_model::dictionary::ID_RDF_TYPE;
use rdfref_model::vocab;
use rdfref_model::{Dictionary, EncodedTriple, Graph, Term, TermId};
use std::sync::Arc;

/// A graph under construction: interning helpers + typed insertion. The
/// triples are collected as generated and sorted once by
/// [`GraphBuilder::finish`].
#[derive(Debug, Default)]
pub struct GraphBuilder {
    dict: Dictionary,
    triples: Vec<EncodedTriple>,
}

impl GraphBuilder {
    /// Start an empty graph.
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// Intern an IRI.
    pub fn iri(&mut self, iri: &str) -> TermId {
        self.dict.intern(&Term::iri(iri))
    }

    /// Intern an IRI assembled from a namespace and local name.
    pub fn ns(&mut self, namespace: &str, local: &str) -> TermId {
        self.iri(&format!("{namespace}{local}"))
    }

    /// Intern a plain literal.
    pub fn literal(&mut self, lexical: &str) -> TermId {
        self.dict.intern(&Term::literal(lexical))
    }

    /// Insert a triple by ids (a duplicate is dropped by `finish`).
    pub fn triple(&mut self, s: TermId, p: TermId, o: TermId) {
        self.triples.push(EncodedTriple::new(s, p, o));
    }

    /// Insert `s rdf:type c`.
    pub fn a(&mut self, s: TermId, c: TermId) {
        self.triple(s, ID_RDF_TYPE, c);
    }

    /// Insert `sub rdfs:subClassOf sup`.
    pub fn subclass(&mut self, sub: TermId, sup: TermId) {
        let p = self.iri(vocab::RDFS_SUBCLASSOF);
        self.triple(sub, p, sup);
    }

    /// Insert `sub rdfs:subPropertyOf sup`.
    pub fn subproperty(&mut self, sub: TermId, sup: TermId) {
        let p = self.iri(vocab::RDFS_SUBPROPERTYOF);
        self.triple(sub, p, sup);
    }

    /// Insert `prop rdfs:domain class`.
    pub fn domain(&mut self, prop: TermId, class: TermId) {
        let p = self.iri(vocab::RDFS_DOMAIN);
        self.triple(prop, p, class);
    }

    /// Insert `prop rdfs:range class`.
    pub fn range(&mut self, prop: TermId, class: TermId) {
        let p = self.iri(vocab::RDFS_RANGE);
        self.triple(prop, p, class);
    }

    /// Finish, returning the graph: one sort of the collected triples.
    pub fn finish(self) -> Graph {
        Graph::from_encoded(Arc::new(self.dict), self.triples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_well_formed_graph() {
        let mut b = GraphBuilder::new();
        let book = b.iri("http://e/Book");
        let publication = b.iri("http://e/Publication");
        let doi = b.iri("http://e/doi1");
        b.subclass(book, publication);
        b.a(doi, book);
        b.a(doi, book); // duplicate
        let title = b.iri("http://e/title");
        let lit = b.literal("El Aleph");
        b.triple(doi, title, lit);
        let g = b.finish();
        assert_eq!(g.len(), 3);
        let schema = g.schema();
        assert_eq!(schema.subclass.len(), 1);
    }

    #[test]
    fn ns_helper_concatenates() {
        let mut b = GraphBuilder::new();
        let a = b.ns("http://e/", "X");
        let bb = b.iri("http://e/X");
        assert_eq!(a, bb);
    }
}
