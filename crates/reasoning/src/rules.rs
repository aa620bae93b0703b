//! The RDFS entailment rules of the DB fragment, as single-step derivation
//! against a closed schema.
//!
//! Saturation splits the rules in two tiers:
//!
//! **Schema tier** (rules among constraints; computed once per schema via
//! [`SchemaClosure`]):
//!
//! | rule | premise | conclusion |
//! |------|---------|------------|
//! | rdfs11 | `c1 ≺sc c2`, `c2 ≺sc c3` | `c1 ≺sc c3` |
//! | rdfs5  | `p1 ≺sp p2`, `p2 ≺sp p3` | `p1 ≺sp p3` |
//! | ext-d↓ | `p1 ≺sp p2`, `p2 ←d c`   | `p1 ←d c` |
//! | ext-r↓ | `p1 ≺sp p2`, `p2 ↪r c`   | `p1 ↪r c` |
//! | ext-d↑ | `p ←d c1`, `c1 ≺sc c2`   | `p ←d c2` |
//! | ext-r↑ | `p ↪r c1`, `c1 ≺sc c2`   | `p ↪r c2` |
//!
//! **Data tier** (rules deriving assertions; applied once per triple by
//! [`RuleTables::derive_from`]):
//!
//! | rule | premise | conclusion |
//! |------|---------|------------|
//! | rdfs9 | `s τ c1`, `c1 ≺sc c2` | `s τ c2` |
//! | rdfs7 | `s p1 o`, `p1 ≺sp p2` | `s p2 o` |
//! | rdfs2 | `s p o`, `p ←d c`     | `s τ c` |
//! | rdfs3 | `s p o`, `p ↪r c`     | `o τ c` |
//!
//! The data tier consults the *closed* schema, so one step is the whole
//! derivation. `≺sc` and `≺sp` are transitive, and effective domains and
//! ranges are closed up `≺sc` and down `≺sp`. Every conclusion of a
//! conclusion of `t` is therefore already a conclusion of `t`: the rdfs9 image
//! of an rdfs2 conclusion `s τ c` is the domains above `c`, which are `p`'s
//! domains too. The one exception is a schema that constrains the RDFS
//! vocabulary itself ([`RuleTables::constrains_rdfs_vocabulary`]). There a
//! conclusion can be an `rdf:type` triple that rdfs7/2/3 fire on again, or a
//! schema triple that grows the closure.

use rdfref_model::dictionary::{
    ID_RDFS_DOMAIN, ID_RDFS_RANGE, ID_RDFS_SUBCLASSOF, ID_RDFS_SUBPROPERTYOF, ID_RDF_TYPE,
};
use rdfref_model::fxhash::FxHashMap;
use rdfref_model::schema::ConstraintKind;
use rdfref_model::{EncodedTriple, SchemaClosure, TermId};

/// Closed-schema lookup tables used by the data-tier rules.
#[derive(Debug, Clone, Default)]
pub struct RuleTables {
    /// `c → superclasses(c)` (strict, transitive).
    pub sc_up: FxHashMap<TermId, Vec<TermId>>,
    /// `p → superproperties(p)` (strict, transitive).
    pub sp_up: FxHashMap<TermId, Vec<TermId>>,
    /// `p → effective domains(p)`.
    pub dom: FxHashMap<TermId, Vec<TermId>>,
    /// `p → effective ranges(p)`.
    pub rng: FxHashMap<TermId, Vec<TermId>>,
}

impl RuleTables {
    /// Build the lookup tables from a schema closure, with deterministic
    /// (sorted) value order.
    pub fn from_closure(cl: &SchemaClosure) -> RuleTables {
        let to_map = |adj: &FxHashMap<TermId, rdfref_model::fxhash::FxHashSet<TermId>>| {
            adj.iter()
                .map(|(&k, vs)| {
                    let mut v: Vec<TermId> = vs.iter().copied().collect();
                    v.sort_unstable();
                    (k, v)
                })
                .collect::<FxHashMap<_, _>>()
        };
        RuleTables {
            sc_up: to_map(&cl.superclasses),
            sp_up: to_map(&cl.superproperties),
            dom: to_map(&cl.domains),
            rng: to_map(&cl.ranges),
        }
    }

    /// The closed schema as triples: every `c ≺sc c′`, `p ≺sp p′`, `p ←d c`
    /// and `p ↪r c` of the closure. `G∞` holds all of them.
    pub fn schema_triples(&self) -> impl Iterator<Item = EncodedTriple> + '_ {
        [
            (&self.sc_up, ID_RDFS_SUBCLASSOF),
            (&self.sp_up, ID_RDFS_SUBPROPERTYOF),
            (&self.dom, ID_RDFS_DOMAIN),
            (&self.rng, ID_RDFS_RANGE),
        ]
        .into_iter()
        .flat_map(|(table, p)| {
            table
                .iter()
                .flat_map(move |(&s, os)| os.iter().map(move |&o| EncodedTriple::new(s, p, o)))
        })
    }

    /// Does the closed schema constrain the RDFS vocabulary itself? That is
    /// `rdf:type` or a constraint property with a super-property, domain or
    /// range, or a property declared below one of them (`p ≺sp
    /// rdfs:subClassOf`). Only then is one derivation step not the whole
    /// saturation (see the module docs), so saturation and maintenance fall
    /// back to a re-closing fixpoint.
    pub fn constrains_rdfs_vocabulary(&self) -> bool {
        let rdfs = |t: &TermId| *t == ID_RDF_TYPE || ConstraintKind::from_property_id(*t).is_some();
        let mut constrained = self
            .sp_up
            .keys()
            .chain(self.dom.keys())
            .chain(self.rng.keys());
        constrained.any(rdfs) || self.sp_up.values().flatten().any(rdfs)
    }

    /// Apply every data-tier rule with `t` as the data premise, feeding each
    /// conclusion to `emit`. The rules treat *any* triple uniformly: an
    /// `rdf:type` triple is eligible for rdfs9 (and, if the schema
    /// pathologically constrains `rdf:type` itself, for rdfs7/2/3 too).
    pub fn derive_from(&self, t: &EncodedTriple, emit: &mut dyn FnMut(EncodedTriple)) {
        if t.p == ID_RDF_TYPE {
            // rdfs9: propagate the instance up the class hierarchy.
            if let Some(sups) = self.sc_up.get(&t.o) {
                for &c in sups {
                    emit(EncodedTriple::new(t.s, ID_RDF_TYPE, c));
                }
            }
        }
        // rdfs7: propagate the triple up the property hierarchy.
        if let Some(sups) = self.sp_up.get(&t.p) {
            for &q in sups {
                emit(EncodedTriple::new(t.s, q, t.o));
            }
        }
        // rdfs2: type the subject with the property's effective domains.
        if let Some(cs) = self.dom.get(&t.p) {
            for &c in cs {
                emit(EncodedTriple::new(t.s, ID_RDF_TYPE, c));
            }
        }
        // rdfs3: type the object with the property's effective ranges.
        if let Some(cs) = self.rng.get(&t.p) {
            for &c in cs {
                emit(EncodedTriple::new(t.o, ID_RDF_TYPE, c));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfref_model::{Dictionary, Schema, Term};

    fn setup() -> (Dictionary, Schema, Vec<TermId>) {
        let mut d = Dictionary::new();
        let ids: Vec<TermId> = [
            "Book",
            "Publication",
            "writtenBy",
            "hasAuthor",
            "Person",
            "doi1",
            "b1",
        ]
        .iter()
        .map(|n| d.intern(&Term::iri(*n)))
        .collect();
        let mut s = Schema::new();
        // Book ⊑ Publication; writtenBy ⊑ hasAuthor;
        // domain(writtenBy)=Book; range(writtenBy)=Person.
        s.add_subclass(ids[0], ids[1]);
        s.add_subproperty(ids[2], ids[3]);
        s.add_domain(ids[2], ids[0]);
        s.add_range(ids[2], ids[4]);
        (d, s, ids)
    }

    fn derive_all(tables: &RuleTables, t: EncodedTriple) -> Vec<EncodedTriple> {
        let mut out = Vec::new();
        tables.derive_from(&t, &mut |x| out.push(x));
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn rdfs9_types_up_the_hierarchy() {
        let (_, s, ids) = setup();
        let tables = RuleTables::from_closure(&s.closure());
        let derived = derive_all(&tables, EncodedTriple::new(ids[5], ID_RDF_TYPE, ids[0]));
        assert!(derived.contains(&EncodedTriple::new(ids[5], ID_RDF_TYPE, ids[1])));
    }

    #[test]
    fn the_paper_figure_2_derivations() {
        // From (doi1 writtenBy b1) the paper's Figure 2 derives:
        // doi1 hasAuthor b1 (rdfs7), doi1 τ Book (rdfs2), b1 τ Person (rdfs3)
        // — and through the closure also doi1 τ Publication.
        let (_, s, ids) = setup();
        let tables = RuleTables::from_closure(&s.closure());
        let derived = derive_all(&tables, EncodedTriple::new(ids[5], ids[2], ids[6]));
        assert!(derived.contains(&EncodedTriple::new(ids[5], ids[3], ids[6])));
        assert!(derived.contains(&EncodedTriple::new(ids[5], ID_RDF_TYPE, ids[0])));
        assert!(derived.contains(&EncodedTriple::new(ids[5], ID_RDF_TYPE, ids[1])));
        assert!(derived.contains(&EncodedTriple::new(ids[6], ID_RDF_TYPE, ids[4])));
    }

    #[test]
    fn no_rules_fire_without_schema_entries() {
        let (_, s, ids) = setup();
        let tables = RuleTables::from_closure(&s.closure());
        // hasAuthor has no super-property, domain or range declared.
        let derived = derive_all(&tables, EncodedTriple::new(ids[5], ids[3], ids[6]));
        assert!(derived.is_empty());
    }

    #[test]
    fn constraints_on_the_rdfs_vocabulary_are_detected() {
        let (_, mut s, ids) = setup();
        assert!(!RuleTables::from_closure(&s.closure()).constrains_rdfs_vocabulary());
        let mut below_sc = s.clone();
        below_sc.add_subproperty(ids[3], ID_RDFS_SUBCLASSOF);
        assert!(RuleTables::from_closure(&below_sc.closure()).constrains_rdfs_vocabulary());
        s.add_domain(ID_RDF_TYPE, ids[0]);
        assert!(RuleTables::from_closure(&s.closure()).constrains_rdfs_vocabulary());
    }

    #[test]
    fn tables_are_deterministic() {
        let (_, s, _) = setup();
        let a = RuleTables::from_closure(&s.closure());
        let b = RuleTables::from_closure(&s.closure());
        for (k, v) in &a.sc_up {
            assert_eq!(b.sc_up.get(k), Some(v));
        }
    }
}
