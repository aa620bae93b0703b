//! Incremental maintenance of a saturated graph.
//!
//! The paper's introduction holds this cost against Sat: "the saturation
//! needs to be maintained after changes in the data and/or constraints,
//! which may incur a performance penalty." This module implements that
//! maintenance so experiment E6 can measure it:
//!
//! * **insertion** — semi-naive continuation: the inserted triples are the
//!   delta; only their consequences are derived;
//! * **deletion** — **DRed** (delete-and-rederive): overdelete everything
//!   derivable from the deleted triples, then rederive what is still
//!   supported by the remaining explicit triples;
//! * **constraint changes** — any schema mutation triggers full
//!   re-saturation (the expensive case the demo highlights in step 4).

use crate::rules::RuleTables;
use crate::saturate::{saturate_in_place, saturate_in_place_obs};
use rdfref_model::fxhash::FxHashSet;
use rdfref_model::schema::ConstraintKind;
use rdfref_model::{EncodedTriple, Graph, Schema};
use rdfref_obs::Obs;

/// The exact triple-level effect of one maintenance batch.
///
/// All four triple lists are *net* deltas: `explicit_added` holds only
/// triples that were genuinely absent from the explicit graph before the
/// batch, `saturation_removed` only triples genuinely present in the old
/// saturation, and added/removed lists are disjoint. This is precisely the
/// contract `Store::apply_delta` and `StatsMaintainer::apply` need, so the
/// serving layer can evolve its immutable snapshots copy-on-write straight
/// from a [`MaintenanceDelta`].
#[derive(Debug, Clone, Default)]
pub struct MaintenanceDelta {
    /// Triples newly added to the explicit graph.
    pub explicit_added: Vec<EncodedTriple>,
    /// Triples removed from the explicit graph.
    pub explicit_removed: Vec<EncodedTriple>,
    /// Triples added to the saturation (explicit and derived).
    pub saturation_added: Vec<EncodedTriple>,
    /// Triples removed from the saturation.
    pub saturation_removed: Vec<EncodedTriple>,
    /// True when the batch touched RDFS constraint triples and the
    /// saturation was rebuilt from scratch (the deltas are still exact —
    /// computed by diffing the old and new saturations).
    pub resaturated: bool,
}

impl MaintenanceDelta {
    /// True when the batch changed nothing at all.
    pub fn is_empty(&self) -> bool {
        self.explicit_added.is_empty()
            && self.explicit_removed.is_empty()
            && self.saturation_added.is_empty()
            && self.saturation_removed.is_empty()
    }
}

/// A saturated graph maintained under updates.
///
/// Invariant (checked by `debug_assert` in tests and by property tests):
/// `self.saturated == saturate(self.explicit)` after every operation.
/// Both graphs share one dictionary: terms are interned into `explicit`'s,
/// and every batch starts by handing it to `saturated`.
#[derive(Debug, Clone)]
pub struct IncrementalReasoner {
    explicit: Graph,
    saturated: Graph,
    obs: Obs,
}

impl IncrementalReasoner {
    /// Build from an explicit graph (saturates once).
    pub fn new(explicit: Graph) -> Self {
        let mut saturated = explicit.clone();
        saturate_in_place(&mut saturated);
        IncrementalReasoner {
            explicit,
            saturated,
            obs: Obs::disabled(),
        }
    }

    /// Install an observability sink for subsequent maintenance operations.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The explicit (user-asserted) graph.
    pub fn explicit(&self) -> &Graph {
        &self.explicit
    }

    /// The maintained saturation.
    pub fn saturated(&self) -> &Graph {
        &self.saturated
    }

    /// Intern a term into the explicit graph's dictionary, copying it only
    /// if the term is new and the dictionary is shared. The saturated graph
    /// picks the grown dictionary up at the start of the next batch.
    pub fn intern(&mut self, term: &rdfref_model::Term) -> rdfref_model::TermId {
        match self.explicit.dictionary().id_of(term) {
            Some(id) => id,
            None => self.explicit.dictionary_mut().intern(term),
        }
    }

    /// Intern a full triple (convenience for building update batches).
    pub fn intern_triple(
        &mut self,
        s: &rdfref_model::Term,
        p: &rdfref_model::Term,
        o: &rdfref_model::Term,
    ) -> EncodedTriple {
        EncodedTriple::new(self.intern(s), self.intern(p), self.intern(o))
    }

    fn is_schema_triple(t: &EncodedTriple) -> bool {
        ConstraintKind::from_property_id(t.p).is_some()
    }

    /// Insert a batch of explicit triples; returns the number of triples
    /// (explicit + derived) added to the saturation.
    pub fn insert(&mut self, triples: &[EncodedTriple]) -> usize {
        self.insert_batch(triples).saturation_added.len()
    }

    /// Insert a batch of explicit triples, reporting the exact triple-level
    /// delta (see [`MaintenanceDelta`] for the net-delta contract).
    pub fn insert_batch(&mut self, triples: &[EncodedTriple]) -> MaintenanceDelta {
        // Clone the handle so the span guard doesn't pin `self.obs` across
        // the `&mut self` resaturation call below.
        let obs = self.obs.clone();
        let _span = obs.span("maintain.insert");
        self.saturated.share_dictionary(&self.explicit);
        let mut out = MaintenanceDelta::default();
        let mut schema_changed = false;
        for &t in triples {
            if self.explicit.insert_encoded(t) {
                schema_changed |= Self::is_schema_triple(&t);
                out.explicit_added.push(t);
            }
        }
        if schema_changed {
            // Constraint change: re-saturate from scratch (demo step 4's
            // "dramatic impact" case) and diff the saturations.
            self.resaturate_and_diff(&mut out);
            self.obs
                .add("maintain.insert.added", out.saturation_added.len() as u64);
            return out;
        }
        // Data-only: semi-naive continuation from the delta.
        let mut delta: Vec<EncodedTriple> = Vec::new();
        for &t in &out.explicit_added {
            if self.saturated.insert_encoded(t) {
                delta.push(t);
                out.saturation_added.push(t);
            }
        }
        let schema = Schema::from_graph(&self.saturated);
        let tables = RuleTables::from_closure(&schema.closure());
        while !delta.is_empty() {
            let mut next = Vec::new();
            for t in &delta {
                tables.derive_from(t, &mut |nt| {
                    if !self.saturated.contains_encoded(&nt) {
                        next.push(nt);
                    }
                });
            }
            next.sort_unstable();
            next.dedup();
            delta.clear();
            for nt in next {
                if self.saturated.insert_encoded(nt) {
                    delta.push(nt);
                    out.saturation_added.push(nt);
                }
            }
            self.obs.add("maintain.insert.rounds", 1);
            if self.obs.enabled() {
                self.obs
                    .observe("maintain.insert.delta", delta.len() as u64);
            }
        }
        self.obs
            .add("maintain.insert.added", out.saturation_added.len() as u64);
        out
    }

    /// Delete a batch of explicit triples (ignoring any that are not
    /// explicit); returns the number of triples removed from the
    /// saturation.
    pub fn delete(&mut self, triples: &[EncodedTriple]) -> usize {
        self.delete_batch(triples).saturation_removed.len()
    }

    /// Delete a batch of explicit triples, reporting the exact triple-level
    /// delta via DRed (see [`MaintenanceDelta`] for the net-delta contract).
    pub fn delete_batch(&mut self, triples: &[EncodedTriple]) -> MaintenanceDelta {
        let obs = self.obs.clone();
        let _span = obs.span("maintain.delete");
        self.saturated.share_dictionary(&self.explicit);
        let mut out = MaintenanceDelta::default();
        let mut schema_changed = false;
        for &t in triples {
            if self.explicit.remove_encoded(t) {
                schema_changed |= Self::is_schema_triple(&t);
                out.explicit_removed.push(t);
            }
        }
        if out.explicit_removed.is_empty() {
            return out;
        }
        if schema_changed {
            self.resaturate_and_diff(&mut out);
            return out;
        }

        // DRed phase 1: overdelete — everything derivable (in the old
        // saturation) using a deleted triple as premise.
        let schema = Schema::from_graph(&self.saturated);
        let tables = RuleTables::from_closure(&schema.closure());
        let mut over: FxHashSet<EncodedTriple> = out.explicit_removed.iter().copied().collect();
        let mut frontier: Vec<EncodedTriple> = out.explicit_removed.clone();
        while let Some(t) = frontier.pop() {
            tables.derive_from(&t, &mut |nt| {
                if self.saturated.contains_encoded(&nt) && over.insert(nt) {
                    frontier.push(nt);
                }
            });
        }
        for t in &over {
            self.saturated.remove_encoded(*t);
        }
        self.obs.add("dred.overdeleted", over.len() as u64);

        // DRed phase 2: rederive — overdeleted triples still supported.
        // Seeds: overdeleted triples that are still explicit, plus one-step
        // derivations from the surviving saturation that land in `over`.
        // Because the old saturation was complete, everything rederived here
        // is a member of `over` — so the net removal is `over ∖ rederived`.
        let mut seeds: Vec<EncodedTriple> = over
            .iter()
            .filter(|t| self.explicit.contains_encoded(t))
            .copied()
            .collect();
        for t in self.saturated.triples().to_vec() {
            tables.derive_from(&t, &mut |nt| {
                if over.contains(&nt) {
                    seeds.push(nt);
                }
            });
        }
        seeds.sort_unstable();
        seeds.dedup();
        let mut rederived: FxHashSet<EncodedTriple> = FxHashSet::default();
        let mut delta: Vec<EncodedTriple> = Vec::new();
        for s in seeds {
            if self.saturated.insert_encoded(s) {
                delta.push(s);
                rederived.insert(s);
            }
        }
        while !delta.is_empty() {
            let mut next = Vec::new();
            for t in &delta {
                tables.derive_from(t, &mut |nt| {
                    if !self.saturated.contains_encoded(&nt) {
                        next.push(nt);
                    }
                });
            }
            next.sort_unstable();
            next.dedup();
            delta.clear();
            for nt in next {
                if self.saturated.insert_encoded(nt) {
                    delta.push(nt);
                    rederived.insert(nt);
                }
            }
        }
        self.obs.add("dred.rederived", rederived.len() as u64);
        out.saturation_removed = over
            .into_iter()
            .filter(|t| !rederived.contains(t))
            .collect();
        out.saturation_removed.sort_unstable();
        out
    }

    /// Rebuild the saturation from the explicit graph and record the exact
    /// triple-level difference between old and new saturations in `out`.
    fn resaturate_and_diff(&mut self, out: &mut MaintenanceDelta) {
        self.obs.add("maintain.resaturate", 1);
        out.resaturated = true;
        let old: FxHashSet<EncodedTriple> = self.saturated.triples().iter().copied().collect();
        self.saturated = self.explicit.clone();
        saturate_in_place_obs(&mut self.saturated, &self.obs);
        let new: FxHashSet<EncodedTriple> = self.saturated.triples().iter().copied().collect();
        out.saturation_added = new.difference(&old).copied().collect();
        out.saturation_removed = old.difference(&new).copied().collect();
        out.saturation_added.sort_unstable();
        out.saturation_removed.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::saturate::saturate;
    use rdfref_model::parser::parse_turtle;
    use rdfref_model::{Term, Triple};

    const BASE: &str = r#"
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:Book rdfs:subClassOf ex:Publication .
ex:writtenBy rdfs:domain ex:Book .
ex:doi1 rdf:type ex:Book .
"#;

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://example.org/{s}"))
    }
    fn rdf_type() -> Term {
        Term::iri(rdfref_model::vocab::RDF_TYPE)
    }

    #[test]
    fn insert_derives_consequences() {
        let g = parse_turtle(BASE).unwrap();
        let mut r = IncrementalReasoner::new(g);
        let t = r.intern_triple(&iri("doi2"), &iri("writtenBy"), &Term::blank("b9"));
        r.insert(&[t]);
        // One dictionary, holding the new blank node, behind both graphs.
        assert!(std::ptr::eq(
            r.explicit().dictionary(),
            r.saturated().dictionary()
        ));
        assert!(r
            .saturated()
            .dictionary()
            .id_of(&Term::blank("b9"))
            .is_some());
        // doi2 gets typed Book and Publication via domain + subclass.
        assert!(r
            .saturated()
            .contains(&Triple::new(iri("doi2"), rdf_type(), iri("Book")).unwrap()));
        assert!(r
            .saturated()
            .contains(&Triple::new(iri("doi2"), rdf_type(), iri("Publication")).unwrap()));
        // Invariant: equals from-scratch saturation.
        assert_eq!(r.saturated(), &saturate(r.explicit()));
    }

    #[test]
    fn delete_removes_unsupported_consequences() {
        let g = parse_turtle(BASE).unwrap();
        let mut r = IncrementalReasoner::new(g);
        // Explicit: doi1 τ Book; derived: doi1 τ Publication.
        let t = r.intern_triple(&iri("doi1"), &rdf_type(), &iri("Book"));
        let removed = r.delete(&[t]);
        assert!(removed >= 2, "Book and Publication types should go");
        assert!(!r
            .saturated()
            .contains(&Triple::new(iri("doi1"), rdf_type(), iri("Publication")).unwrap()));
        assert_eq!(r.saturated(), &saturate(r.explicit()));
    }

    #[test]
    fn delete_keeps_still_supported_consequences() {
        // doi1 τ Book is supported BOTH explicitly and via domain(writtenBy):
        // deleting the explicit type triple must keep the derived one.
        let doc = format!("{BASE}ex:doi1 ex:writtenBy _:b1 .\n");
        let g = parse_turtle(&doc).unwrap();
        let mut r = IncrementalReasoner::new(g);
        let t = r.intern_triple(&iri("doi1"), &rdf_type(), &iri("Book"));
        r.delete(&[t]);
        // Still derivable through rdfs2.
        assert!(r
            .saturated()
            .contains(&Triple::new(iri("doi1"), rdf_type(), iri("Book")).unwrap()));
        assert!(r
            .saturated()
            .contains(&Triple::new(iri("doi1"), rdf_type(), iri("Publication")).unwrap()));
        assert_eq!(r.saturated(), &saturate(r.explicit()));
    }

    #[test]
    fn schema_insert_triggers_resaturation() {
        let g = parse_turtle(BASE).unwrap();
        let mut r = IncrementalReasoner::new(g);
        let t = r.intern_triple(
            &iri("Publication"),
            &Term::iri(rdfref_model::vocab::RDFS_SUBCLASSOF),
            &iri("Work"),
        );
        r.insert(&[t]);
        assert!(r
            .saturated()
            .contains(&Triple::new(iri("doi1"), rdf_type(), iri("Work")).unwrap()));
        assert_eq!(r.saturated(), &saturate(r.explicit()));
    }

    #[test]
    fn schema_delete_triggers_resaturation() {
        let g = parse_turtle(BASE).unwrap();
        let mut r = IncrementalReasoner::new(g);
        let t = r.intern_triple(
            &iri("Book"),
            &Term::iri(rdfref_model::vocab::RDFS_SUBCLASSOF),
            &iri("Publication"),
        );
        r.delete(&[t]);
        assert!(!r
            .saturated()
            .contains(&Triple::new(iri("doi1"), rdf_type(), iri("Publication")).unwrap()));
        assert_eq!(r.saturated(), &saturate(r.explicit()));
    }

    /// Applying a reported delta to the old saturation set must yield the
    /// new saturation set exactly (the `Store::apply_delta` contract).
    fn assert_delta_exact(
        old_sat: &[Triple],
        r: &IncrementalReasoner,
        delta: &super::MaintenanceDelta,
    ) {
        use rdfref_model::fxhash::FxHashSet;
        let mut set: FxHashSet<EncodedTriple> = old_sat
            .iter()
            .map(|t| {
                // Re-encode against the (possibly grown) dictionary.
                let d = r.saturated().dictionary();
                EncodedTriple::new(
                    d.id_of(&t.subject).unwrap(),
                    d.id_of(&t.property).unwrap(),
                    d.id_of(&t.object).unwrap(),
                )
            })
            .collect();
        for t in &delta.saturation_added {
            assert!(set.insert(*t), "added triple {t:?} was already present");
        }
        for t in &delta.saturation_removed {
            assert!(set.remove(t), "removed triple {t:?} was absent");
        }
        let new: FxHashSet<EncodedTriple> = r.saturated().triples().iter().copied().collect();
        assert_eq!(set, new);
    }

    fn decoded(r: &IncrementalReasoner) -> Vec<Triple> {
        let d = r.saturated().dictionary();
        r.saturated()
            .triples()
            .iter()
            .map(|t| {
                Triple::new(
                    d.term(t.s).clone(),
                    d.term(t.p).clone(),
                    d.term(t.o).clone(),
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn batch_deltas_are_exact_for_data_changes() {
        let g = parse_turtle(BASE).unwrap();
        let mut r = IncrementalReasoner::new(g);
        let old = decoded(&r);
        let t = r.intern_triple(&iri("doi2"), &iri("writtenBy"), &Term::blank("b9"));
        let delta = r.insert_batch(&[t]);
        assert!(!delta.resaturated);
        assert_eq!(delta.explicit_added, vec![t]);
        assert!(delta.saturation_added.len() >= 3); // triple + Book + Publication
        assert_delta_exact(&old, &r, &delta);

        let old = decoded(&r);
        let delta = r.delete_batch(&[t]);
        assert!(!delta.resaturated);
        assert_eq!(delta.explicit_removed, vec![t]);
        assert_delta_exact(&old, &r, &delta);
        assert_eq!(r.saturated(), &saturate(r.explicit()));
    }

    #[test]
    fn batch_deltas_are_exact_across_resaturation() {
        let g = parse_turtle(BASE).unwrap();
        let mut r = IncrementalReasoner::new(g);
        let old = decoded(&r);
        let t = r.intern_triple(
            &iri("Publication"),
            &Term::iri(rdfref_model::vocab::RDFS_SUBCLASSOF),
            &iri("Work"),
        );
        let delta = r.insert_batch(&[t]);
        assert!(delta.resaturated);
        assert_delta_exact(&old, &r, &delta);

        let old = decoded(&r);
        let delta = r.delete_batch(&[t]);
        assert!(delta.resaturated);
        assert_delta_exact(&old, &r, &delta);
        assert_eq!(r.saturated(), &saturate(r.explicit()));
    }

    #[test]
    fn noop_batches_report_empty_deltas() {
        let g = parse_turtle(BASE).unwrap();
        let mut r = IncrementalReasoner::new(g);
        // Already-present insert and absent delete are both no-ops.
        let present = r.intern_triple(&iri("doi1"), &rdf_type(), &iri("Book"));
        let absent = r.intern_triple(&iri("nope"), &iri("writtenBy"), &iri("nada"));
        assert!(r.insert_batch(&[present]).is_empty());
        assert!(r.delete_batch(&[absent]).is_empty());
    }

    #[test]
    fn deleting_nonexplicit_triple_is_noop() {
        let g = parse_turtle(BASE).unwrap();
        let mut r = IncrementalReasoner::new(g);
        // doi1 τ Publication is derived, not explicit: deletion is a no-op.
        let t = r.intern_triple(&iri("doi1"), &rdf_type(), &iri("Publication"));
        assert_eq!(r.delete(&[t]), 0);
        assert!(r
            .saturated()
            .contains(&Triple::new(iri("doi1"), rdf_type(), iri("Publication")).unwrap()));
    }
}
