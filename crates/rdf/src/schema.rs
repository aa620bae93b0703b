//! RDFS schema constraints and their closure.
//!
//! The DB fragment of RDF gives semantics to exactly four constraints
//! (Figure 1 of the paper), interpreted under the open-world assumption:
//!
//! | triple                     | meaning                 |
//! |----------------------------|-------------------------|
//! | `c1 rdfs:subClassOf c2`    | `c1 ⊆ c2`               |
//! | `p1 rdfs:subPropertyOf p2` | `p1 ⊆ p2`               |
//! | `p rdfs:domain c`          | `Π_domain(p) ⊆ c`       |
//! | `p rdfs:range c`           | `Π_range(p) ⊆ c`        |
//!
//! [`Schema`] is the set of declared constraints; [`SchemaClosure`] is its
//! saturation under the RDFS schema-level entailment rules (transitivity of
//! subclass/subproperty, propagation of domains/ranges *up* subclass chains
//! and *down* subproperty chains). Both saturation-based and
//! reformulation-based query answering consume the closure, which guarantees
//! the two agree (the central invariant tested across this workspace).

use crate::dictionary::{
    TermId, ID_RDFS_DOMAIN, ID_RDFS_RANGE, ID_RDFS_SUBCLASSOF, ID_RDFS_SUBPROPERTYOF,
};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::graph::Graph;
use crate::triple::EncodedTriple;

/// The four RDFS constraint kinds of the DB fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintKind {
    /// `rdfs:subClassOf`
    SubClass,
    /// `rdfs:subPropertyOf`
    SubProperty,
    /// `rdfs:domain`
    Domain,
    /// `rdfs:range`
    Range,
}

impl ConstraintKind {
    /// Classify a property id, if it is a constraint property.
    pub fn from_property_id(p: TermId) -> Option<ConstraintKind> {
        match p {
            ID_RDFS_SUBCLASSOF => Some(ConstraintKind::SubClass),
            ID_RDFS_SUBPROPERTYOF => Some(ConstraintKind::SubProperty),
            ID_RDFS_DOMAIN => Some(ConstraintKind::Domain),
            ID_RDFS_RANGE => Some(ConstraintKind::Range),
            _ => None,
        }
    }
}

/// A set of declared RDFS constraints over dictionary-encoded class and
/// property ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    /// Declared `(sub, super)` subclass pairs.
    pub subclass: FxHashSet<(TermId, TermId)>,
    /// Declared `(sub, super)` subproperty pairs.
    pub subproperty: FxHashSet<(TermId, TermId)>,
    /// Declared `(property, class)` domain pairs.
    pub domain: FxHashSet<(TermId, TermId)>,
    /// Declared `(property, class)` range pairs.
    pub range: FxHashSet<(TermId, TermId)>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Extract the schema declared in a graph (triples whose property is one
    /// of the four constraint properties).
    pub fn from_graph(graph: &Graph) -> Schema {
        let mut schema = Schema::new();
        for t in graph.iter() {
            schema.add_encoded(t);
        }
        schema
    }

    /// Add a constraint from an encoded triple if its property is a
    /// constraint property. Returns `true` if the triple was a (new or
    /// duplicate) constraint.
    pub fn add_encoded(&mut self, t: &EncodedTriple) -> bool {
        match ConstraintKind::from_property_id(t.p) {
            Some(ConstraintKind::SubClass) => {
                self.subclass.insert((t.s, t.o));
                true
            }
            Some(ConstraintKind::SubProperty) => {
                self.subproperty.insert((t.s, t.o));
                true
            }
            Some(ConstraintKind::Domain) => {
                self.domain.insert((t.s, t.o));
                true
            }
            Some(ConstraintKind::Range) => {
                self.range.insert((t.s, t.o));
                true
            }
            None => false,
        }
    }

    /// Add a subclass constraint `sub ⊑ sup`.
    pub fn add_subclass(&mut self, sub: TermId, sup: TermId) {
        self.subclass.insert((sub, sup));
    }

    /// Add a subproperty constraint `sub ⊑ sup`.
    pub fn add_subproperty(&mut self, sub: TermId, sup: TermId) {
        self.subproperty.insert((sub, sup));
    }

    /// Add a domain constraint `Π_domain(p) ⊑ c`.
    pub fn add_domain(&mut self, p: TermId, c: TermId) {
        self.domain.insert((p, c));
    }

    /// Add a range constraint `Π_range(p) ⊑ c`.
    pub fn add_range(&mut self, p: TermId, c: TermId) {
        self.range.insert((p, c));
    }

    /// Total number of declared constraints.
    pub fn len(&self) -> usize {
        self.subclass.len() + self.subproperty.len() + self.domain.len() + self.range.len()
    }

    /// True iff no constraints are declared.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The constraints as encoded triples (for insertion into a graph).
    pub fn to_triples(&self) -> Vec<EncodedTriple> {
        let mut out = Vec::with_capacity(self.len());
        for &(s, o) in &self.subclass {
            out.push(EncodedTriple::new(s, ID_RDFS_SUBCLASSOF, o));
        }
        for &(s, o) in &self.subproperty {
            out.push(EncodedTriple::new(s, ID_RDFS_SUBPROPERTYOF, o));
        }
        for &(s, o) in &self.domain {
            out.push(EncodedTriple::new(s, ID_RDFS_DOMAIN, o));
        }
        for &(s, o) in &self.range {
            out.push(EncodedTriple::new(s, ID_RDFS_RANGE, o));
        }
        out
    }

    /// Compute the closure of this schema.
    pub fn closure(&self) -> SchemaClosure {
        SchemaClosure::compute(self)
    }
}

/// Adjacency map `node → successors`.
type Adj = FxHashMap<TermId, FxHashSet<TermId>>;

fn add_edge(adj: &mut Adj, from: TermId, to: TermId) {
    adj.entry(from).or_default().insert(to);
}

/// Strict transitive closure of a digraph given as adjacency, returned as
/// `node → reachable strict successors` (a node reaches itself only through a
/// cycle). BFS from every node: schemas are small, so O(V·E) is fine.
fn transitive_closure(adj: &Adj) -> Adj {
    let mut closure: Adj = Adj::default();
    for &start in adj.keys() {
        let mut reached: FxHashSet<TermId> = FxHashSet::default();
        let mut stack: Vec<TermId> = adj
            .get(&start)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        while let Some(n) = stack.pop() {
            if reached.insert(n) {
                if let Some(next) = adj.get(&n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        if !reached.is_empty() {
            closure.insert(start, reached);
        }
    }
    closure
}

/// The saturated schema: everything both Sat and Ref need to know about the
/// constraints, precomputed.
///
/// Contents (writing `sc*`/`sp*` for the reflexive-transitive closures):
/// * `sub → strict superclasses` and the inverse (under `sc+`);
/// * `sub → strict superproperties` and the inverse (under `sp+`);
/// * effective domains/ranges: `(p, c)` such that `p sp* p′`,
///   `(p′ domain c′) ∈ S`, `c′ sc* c` — i.e. every class a `p`-triple's
///   subject (resp. object) provably belongs to;
/// * the inverse maps `class → properties with that effective domain/range`,
///   which drive reformulation rules 2/3/10/11.
#[derive(Debug, Clone, Default)]
pub struct SchemaClosure {
    /// `c → { c′ | c ≺sc+ c′ }` (strict superclasses).
    pub superclasses: Adj,
    /// `c → { c′ | c′ ≺sc+ c }` (strict subclasses).
    pub subclasses: Adj,
    /// `p → { p′ | p ≺sp+ p′ }` (strict superproperties).
    pub superproperties: Adj,
    /// `p → { p′ | p′ ≺sp+ p }` (strict subproperties).
    pub subproperties: Adj,
    /// `p → { c }` effective domains.
    pub domains: Adj,
    /// `p → { c }` effective ranges.
    pub ranges: Adj,
    /// `c → { p | c is an effective domain of p }`.
    pub domain_of: Adj,
    /// `c → { p | c is an effective range of p }`.
    pub range_of: Adj,
}

impl SchemaClosure {
    /// Compute the closure of a declared schema.
    pub fn compute(schema: &Schema) -> SchemaClosure {
        // 1. Transitive closures of the two hierarchies.
        let mut sc_up: Adj = Adj::default();
        for &(sub, sup) in &schema.subclass {
            add_edge(&mut sc_up, sub, sup);
        }
        let superclasses = transitive_closure(&sc_up);

        let mut sp_up: Adj = Adj::default();
        for &(sub, sup) in &schema.subproperty {
            add_edge(&mut sp_up, sub, sup);
        }
        let superproperties = transitive_closure(&sp_up);

        // 2. Inverses.
        let mut subclasses: Adj = Adj::default();
        for (&sub, sups) in &superclasses {
            for &sup in sups {
                add_edge(&mut subclasses, sup, sub);
            }
        }
        let mut subproperties: Adj = Adj::default();
        for (&sub, sups) in &superproperties {
            for &sup in sups {
                add_edge(&mut subproperties, sup, sub);
            }
        }

        // 3. Effective domains/ranges: for every declared (p0, c0), every
        //    p ∈ sp*(p0) downward and every c ∈ sc*(c0) upward.
        let mut domains: Adj = Adj::default();
        let mut ranges: Adj = Adj::default();
        let expand = |out: &mut Adj,
                      declared: &FxHashSet<(TermId, TermId)>,
                      subproperties: &Adj,
                      superclasses: &Adj| {
            for &(p0, c0) in declared {
                let mut props: Vec<TermId> = vec![p0];
                if let Some(subs) = subproperties.get(&p0) {
                    props.extend(subs.iter().copied());
                }
                let mut classes: Vec<TermId> = vec![c0];
                if let Some(sups) = superclasses.get(&c0) {
                    classes.extend(sups.iter().copied());
                }
                for &p in &props {
                    for &c in &classes {
                        add_edge(out, p, c);
                    }
                }
            }
        };
        expand(&mut domains, &schema.domain, &subproperties, &superclasses);
        expand(&mut ranges, &schema.range, &subproperties, &superclasses);

        // 4. Inverse maps class → properties.
        let mut domain_of: Adj = Adj::default();
        for (&p, cs) in &domains {
            for &c in cs {
                add_edge(&mut domain_of, c, p);
            }
        }
        let mut range_of: Adj = Adj::default();
        for (&p, cs) in &ranges {
            for &c in cs {
                add_edge(&mut range_of, c, p);
            }
        }

        SchemaClosure {
            superclasses,
            subclasses,
            superproperties,
            subproperties,
            domains,
            ranges,
            domain_of,
            range_of,
        }
    }

    /// Strict subclasses of `c` (possibly including `c` itself on a cycle).
    pub fn subclasses_of(&self, c: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.subclasses.get(&c).into_iter().flatten().copied()
    }

    /// Strict superclasses of `c`.
    pub fn superclasses_of(&self, c: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.superclasses.get(&c).into_iter().flatten().copied()
    }

    /// Strict subproperties of `p`.
    pub fn subproperties_of(&self, p: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.subproperties.get(&p).into_iter().flatten().copied()
    }

    /// Properties whose effective domain includes class `c`.
    pub fn properties_with_domain(&self, c: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.domain_of.get(&c).into_iter().flatten().copied()
    }

    /// Properties whose effective range includes class `c`.
    pub fn properties_with_range(&self, c: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.range_of.get(&c).into_iter().flatten().copied()
    }

    /// Effective domains of property `p`.
    pub fn domains_of(&self, p: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.domains.get(&p).into_iter().flatten().copied()
    }

    /// Effective ranges of property `p`.
    pub fn ranges_of(&self, p: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.ranges.get(&p).into_iter().flatten().copied()
    }

    /// Is `sub ≺sc+ sup`?
    pub fn is_subclass(&self, sub: TermId, sup: TermId) -> bool {
        self.superclasses
            .get(&sub)
            .map(|s| s.contains(&sup))
            .unwrap_or(false)
    }

    /// Is `sub ≺sp+ sup`?
    pub fn is_subproperty(&self, sub: TermId, sup: TermId) -> bool {
        self.superproperties
            .get(&sub)
            .map(|s| s.contains(&sup))
            .unwrap_or(false)
    }

    /// Total number of closure entries (a size measure for experiment
    /// reports: the reformulation blow-up is driven by this).
    pub fn len(&self) -> usize {
        let count = |adj: &Adj| adj.values().map(|s| s.len()).sum::<usize>();
        count(&self.superclasses)
            + count(&self.superproperties)
            + count(&self.domains)
            + count(&self.ranges)
    }

    /// True iff the closure is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::Dictionary;
    use crate::term::Term;

    fn ids(d: &mut Dictionary, names: &[&str]) -> Vec<TermId> {
        names.iter().map(|n| d.intern(&Term::iri(*n))).collect()
    }

    #[test]
    fn subclass_transitivity() {
        let mut d = Dictionary::new();
        let v = ids(&mut d, &["A", "B", "C"]);
        let mut s = Schema::new();
        s.add_subclass(v[0], v[1]);
        s.add_subclass(v[1], v[2]);
        let cl = s.closure();
        assert!(cl.is_subclass(v[0], v[1]));
        assert!(cl.is_subclass(v[0], v[2]));
        assert!(cl.is_subclass(v[1], v[2]));
        assert!(!cl.is_subclass(v[2], v[0]));
        let subs: Vec<_> = cl.subclasses_of(v[2]).collect();
        assert_eq!(subs.len(), 2);
    }

    #[test]
    fn subclass_cycle_terminates_and_is_symmetric() {
        let mut d = Dictionary::new();
        let v = ids(&mut d, &["A", "B"]);
        let mut s = Schema::new();
        s.add_subclass(v[0], v[1]);
        s.add_subclass(v[1], v[0]);
        let cl = s.closure();
        // On a cycle each class is a strict "subclass" of itself and the other.
        assert!(cl.is_subclass(v[0], v[1]));
        assert!(cl.is_subclass(v[1], v[0]));
        assert!(cl.is_subclass(v[0], v[0]));
    }

    #[test]
    fn effective_domain_folds_subproperty_and_superclass() {
        // p1 ≺sp p2, domain(p2) = C, C ≺sc D
        // ⟹ effective domains: p2 ↦ {C, D}, p1 ↦ {C, D}.
        let mut d = Dictionary::new();
        let v = ids(&mut d, &["p1", "p2", "C", "D"]);
        let (p1, p2, c, dd) = (v[0], v[1], v[2], v[3]);
        let mut s = Schema::new();
        s.add_subproperty(p1, p2);
        s.add_domain(p2, c);
        s.add_subclass(c, dd);
        let cl = s.closure();
        let doms_p1: FxHashSet<_> = cl.domains_of(p1).collect();
        let doms_p2: FxHashSet<_> = cl.domains_of(p2).collect();
        assert!(doms_p1.contains(&c) && doms_p1.contains(&dd));
        assert!(doms_p2.contains(&c) && doms_p2.contains(&dd));
        // Inverse map agrees.
        let with_dom_d: FxHashSet<_> = cl.properties_with_domain(dd).collect();
        assert!(with_dom_d.contains(&p1) && with_dom_d.contains(&p2));
    }

    #[test]
    fn effective_range_analog() {
        let mut d = Dictionary::new();
        let v = ids(&mut d, &["p1", "p2", "C", "D"]);
        let (p1, p2, c, dd) = (v[0], v[1], v[2], v[3]);
        let mut s = Schema::new();
        s.add_subproperty(p1, p2);
        s.add_range(p2, c);
        s.add_subclass(c, dd);
        let cl = s.closure();
        let rng_p1: FxHashSet<_> = cl.ranges_of(p1).collect();
        assert!(rng_p1.contains(&c) && rng_p1.contains(&dd));
        let with_rng_c: FxHashSet<_> = cl.properties_with_range(c).collect();
        assert!(with_rng_c.contains(&p1) && with_rng_c.contains(&p2));
    }

    #[test]
    fn from_graph_extracts_constraints() {
        let mut g = Graph::new();
        g.insert(
            Term::iri("Book"),
            Term::iri(crate::vocab::RDFS_SUBCLASSOF),
            Term::iri("Publication"),
        )
        .unwrap();
        g.insert(
            Term::iri("writtenBy"),
            Term::iri(crate::vocab::RDFS_DOMAIN),
            Term::iri("Book"),
        )
        .unwrap();
        g.insert(
            Term::iri("doi1"),
            Term::iri(crate::vocab::RDF_TYPE),
            Term::iri("Book"),
        )
        .unwrap();
        let s = g.schema();
        assert_eq!(s.subclass.len(), 1);
        assert_eq!(s.domain.len(), 1);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn to_triples_round_trips_through_graph() {
        let mut d = Dictionary::new();
        let v = ids(&mut d, &["A", "B", "p"]);
        let mut s = Schema::new();
        s.add_subclass(v[0], v[1]);
        s.add_range(v[2], v[1]);
        let triples = s.to_triples();
        assert_eq!(triples.len(), 2);
        let mut s2 = Schema::new();
        for t in &triples {
            assert!(s2.add_encoded(t));
        }
        assert_eq!(s, s2);
    }

    #[test]
    fn empty_schema_closure_is_empty() {
        let cl = Schema::new().closure();
        assert!(cl.is_empty());
        assert_eq!(cl.len(), 0);
    }
}
