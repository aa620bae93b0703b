//! Incremental maintenance of a saturated graph.
//!
//! The paper's introduction holds this cost against Sat: "the saturation
//! needs to be maintained after changes in the data and/or constraints,
//! which may incur a performance penalty." This module implements that
//! maintenance so experiments E6 and E10 can measure it. Against the closed
//! schema, `G∞` is `G`, the closed schema's triples and the one-step image of
//! `G` (see [`mod@crate::saturate`]), so no data batch needs a fixpoint:
//!
//! * **insertion** — the one derivation step, over the batch;
//! * **deletion** — the candidates are the deleted triples and their
//!   one-step image. A candidate stays iff it is still explicit or a
//!   remaining explicit triple derives it. Such a triple has the candidate's
//!   subject as its subject, or (range rule) as its object, so the check is
//!   one filtered pass over the explicit triples: no overdelete/rederive
//!   rounds and no sweep of `G∞`;
//! * **constraint changes**, and every batch under a schema that constrains
//!   the RDFS vocabulary itself — full re-saturation, diffed against the old
//!   saturation (the expensive case the demo highlights in step 4). Only
//!   this path rebuilds the rule tables.

use crate::rules::RuleTables;
use crate::saturate::saturate_with_tables;
use rdfref_model::fxhash::FxHashSet;
use rdfref_model::schema::ConstraintKind;
use rdfref_model::{merge_sorted, sorted_run, EncodedTriple, Graph, TermId};
use rdfref_obs::Obs;

/// The exact triple-level effect of one maintenance batch.
///
/// All four triple lists are *net* deltas: `explicit_added` holds only
/// triples that were genuinely absent from the explicit graph before the
/// batch, `saturation_removed` only triples genuinely present in the old
/// saturation, and added/removed lists are disjoint. Each list is strictly
/// ascending: the runs the reasoner merged into its graphs. This is
/// precisely the contract `Store::apply_delta` and `StatsMaintainer::apply`
/// need, so the serving layer can evolve its immutable snapshots
/// copy-on-write straight from a [`MaintenanceDelta`].
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

    /// This delta followed by `next`, as one net delta: a triple one of
    /// them adds and the other removes cancels out.
    pub fn then(&self, next: &MaintenanceDelta) -> MaintenanceDelta {
        let net = |a1: &[EncodedTriple], r1: &[EncodedTriple], a2, r2| {
            let (added, removed) = (merge_sorted(a1, a2, &[]), merge_sorted(r1, r2, &[]));
            (
                merge_sorted(&added, &[], &removed),
                merge_sorted(&removed, &[], &added),
            )
        };
        let (explicit_added, explicit_removed) = net(
            &self.explicit_added,
            &self.explicit_removed,
            &next.explicit_added,
            &next.explicit_removed,
        );
        let (saturation_added, saturation_removed) = net(
            &self.saturation_added,
            &self.saturation_removed,
            &next.saturation_added,
            &next.saturation_removed,
        );
        MaintenanceDelta {
            explicit_added,
            explicit_removed,
            saturation_added,
            saturation_removed,
            resaturated: self.resaturated || next.resaturated,
        }
    }
}

/// A saturated graph maintained under updates.
///
/// Invariant (checked by property tests, and after every batch under the
/// `strict-invariants` feature): `self.saturated == saturate(self.explicit)`.
/// Both graphs share one dictionary: terms are interned into `explicit`'s,
/// and every batch starts by handing it to `saturated`.
#[derive(Debug, Clone)]
pub struct IncrementalReasoner {
    explicit: Graph,
    saturated: Graph,
    /// The closed schema's rule tables, rebuilt only on resaturation.
    tables: RuleTables,
    obs: Obs,
}

impl IncrementalReasoner {
    /// Build from an explicit graph (saturates once).
    pub fn new(explicit: Graph) -> Self {
        let mut saturated = explicit.clone();
        let tables = saturate_with_tables(&mut saturated, &Obs::disabled());
        IncrementalReasoner {
            explicit,
            saturated,
            tables,
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
        let mut out = MaintenanceDelta {
            explicit_added: filtered_run(triples.to_vec(), &self.explicit, false),
            ..MaintenanceDelta::default()
        };
        if out.explicit_added.is_empty() {
            return out;
        }
        self.explicit.apply_delta(&out.explicit_added, &[]);
        if self.needs_resaturation(&out.explicit_added) {
            self.resaturate_and_diff(&mut out);
        } else {
            // The one derivation step, over the batch.
            let mut image = out.explicit_added.clone();
            for t in &out.explicit_added {
                self.tables.derive_from(t, &mut |nt| image.push(nt));
            }
            out.saturation_added = filtered_run(image, &self.saturated, false);
            self.saturated.apply_delta(&out.saturation_added, &[]);
            obs.add("maintain.insert.rounds", 1);
        }
        obs.add("maintain.insert.added", out.saturation_added.len() as u64);
        #[cfg(feature = "strict-invariants")]
        self.assert_one_step();
        out
    }

    /// Delete a batch of explicit triples (ignoring any that are not
    /// explicit); returns the number of triples removed from the
    /// saturation.
    pub fn delete(&mut self, triples: &[EncodedTriple]) -> usize {
        self.delete_batch(triples).saturation_removed.len()
    }

    /// Delete a batch of explicit triples, reporting the exact triple-level
    /// delta (see [`MaintenanceDelta`] for the net-delta contract).
    ///
    /// Counters: `dred.overdeleted` counts the candidates examined (the
    /// deleted triples and their one-step image), `dred.rederived` those a
    /// remaining explicit triple still derives (or that are still explicit).
    pub fn delete_batch(&mut self, triples: &[EncodedTriple]) -> MaintenanceDelta {
        let obs = self.obs.clone();
        let _span = obs.span("maintain.delete");
        self.saturated.share_dictionary(&self.explicit);
        let mut out = MaintenanceDelta {
            explicit_removed: filtered_run(triples.to_vec(), &self.explicit, true),
            ..MaintenanceDelta::default()
        };
        if out.explicit_removed.is_empty() {
            return out;
        }
        self.explicit.apply_delta(&[], &out.explicit_removed);
        if self.needs_resaturation(&out.explicit_removed) {
            self.resaturate_and_diff(&mut out);
            return out;
        }

        let mut image = out.explicit_removed.clone();
        for t in &out.explicit_removed {
            self.tables.derive_from(t, &mut |nt| image.push(nt));
        }
        let candidates = sorted_run(image);
        let mut supported = vec![false; candidates.len()];
        let mut support = |t: EncodedTriple| {
            if let Ok(i) = candidates.binary_search(&t) {
                supported[i] = true;
            }
        };
        // A remaining explicit triple `e` derives a candidate only if the
        // candidate's subject is `e`'s subject, or `e`'s object under a range.
        let subjects: FxHashSet<TermId> = candidates.iter().map(|c| c.s).collect();
        for e in self.explicit.triples() {
            if subjects.contains(&e.s)
                || (self.tables.rng.contains_key(&e.p) && subjects.contains(&e.o))
            {
                support(*e);
                self.tables.derive_from(e, &mut support);
            }
        }
        out.saturation_removed = candidates
            .iter()
            .zip(&supported)
            .filter(|(_, &kept)| !kept)
            .map(|(c, _)| *c)
            .collect();
        let examined = candidates.len();
        obs.add("dred.overdeleted", examined as u64);
        obs.add(
            "dred.rederived",
            (examined - out.saturation_removed.len()) as u64,
        );
        let before = self.saturated.len();
        self.saturated.apply_delta(&[], &out.saturation_removed);
        debug_assert_eq!(
            before - self.saturated.len(),
            out.saturation_removed.len(),
            "a candidate was not saturated"
        );
        #[cfg(feature = "strict-invariants")]
        self.assert_one_step();
        out
    }

    /// Does a batch that changed `touched` in the explicit graph need a full
    /// resaturation? Yes when it changed the schema, or when the schema
    /// constrains the RDFS vocabulary and one step is not the whole story.
    fn needs_resaturation(&self, touched: &[EncodedTriple]) -> bool {
        touched.iter().any(Self::is_schema_triple) || self.tables.constrains_rdfs_vocabulary()
    }

    /// Rebuild the saturation and the rule tables from the explicit graph
    /// and record the exact triple-level difference between old and new
    /// saturations in `out`: one merge walk each way.
    fn resaturate_and_diff(&mut self, out: &mut MaintenanceDelta) {
        self.obs.add("maintain.resaturate", 1);
        out.resaturated = true;
        let old = std::mem::replace(&mut self.saturated, self.explicit.clone());
        self.tables = saturate_with_tables(&mut self.saturated, &self.obs);
        let new = self.saturated.triples();
        out.saturation_added = merge_sorted(new, &[], old.triples());
        out.saturation_removed = merge_sorted(old.triples(), &[], new);
    }

    /// `strict-invariants`: the maintained saturation is exactly the explicit
    /// graph, the closed schema's triples and the explicit graph's one-step
    /// image. One run comparison checks soundness and completeness at once.
    /// O(|G∞|); skipped under a schema that constrains the RDFS vocabulary.
    #[cfg(feature = "strict-invariants")]
    fn assert_one_step(&self) {
        if self.tables.constrains_rdfs_vocabulary() {
            return;
        }
        let mut expected = self.explicit.triples().to_vec();
        expected.extend(self.tables.schema_triples());
        for t in self.explicit.triples() {
            self.tables.derive_from(t, &mut |nt| expected.push(nt));
        }
        let expected = sorted_run(expected);
        let actual = self.saturated.triples();
        assert!(
            expected == actual,
            "maintained saturation is not G ∪ closure ∪ one-step image: {} missing, {} unsupported",
            merge_sorted(&expected, &[], actual).len(),
            merge_sorted(actual, &[], &expected).len()
        );
    }
}

/// The batch as a strictly ascending run, keeping the triples whose
/// membership in `g` is `member`.
fn filtered_run(batch: Vec<EncodedTriple>, g: &Graph, member: bool) -> Vec<EncodedTriple> {
    let mut run = sorted_run(batch);
    run.retain(|t| g.contains_encoded(t) == member);
    run
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
    fn typed(r: &IncrementalReasoner, s: &str, c: &str) -> bool {
        r.saturated()
            .contains(&Triple::new(iri(s), rdf_type(), iri(c)).unwrap())
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
        assert!(typed(&r, "doi2", "Book"));
        assert!(typed(&r, "doi2", "Publication"));
        // Invariant: equals from-scratch saturation.
        assert_eq!(r.saturated(), &saturate(r.explicit()));
    }

    /// An insert batch then a delete batch, composed, is the net delta
    /// from the first saturation to the last: a triple the insert adds and
    /// the delete removes (and the reverse) cancels out.
    #[test]
    fn composed_deltas_are_the_net_delta_of_both_batches() {
        let g = parse_turtle(BASE).unwrap();
        let mut r = IncrementalReasoner::new(g);
        let before = r.saturated().triples().to_vec();
        let doi1 = r.intern_triple(&iri("doi1"), &rdf_type(), &iri("Book"));
        let doi2 = r.intern_triple(&iri("doi2"), &rdf_type(), &iri("Book"));
        let doi3 = r.intern_triple(&iri("doi3"), &rdf_type(), &iri("Book"));
        let ins = r.insert_batch(&[doi2, doi3]);
        let del = r.delete_batch(&[doi1, doi2]);
        let net = ins.then(&del);
        let after = r.saturated().triples();
        assert_eq!(
            merge_sorted(&before, &net.saturation_added, &net.saturation_removed),
            after
        );
        assert!(net.saturation_added.iter().all(|t| !before.contains(t)));
        assert!(net.saturation_removed.iter().all(|t| !after.contains(t)));
        assert_eq!(net.explicit_added, vec![doi3]);
        assert_eq!(net.explicit_removed, vec![doi1]);
    }

    #[test]
    fn delete_removes_unsupported_consequences() {
        let g = parse_turtle(BASE).unwrap();
        let mut r = IncrementalReasoner::new(g);
        // Explicit: doi1 τ Book; derived: doi1 τ Publication.
        let t = r.intern_triple(&iri("doi1"), &rdf_type(), &iri("Book"));
        let removed = r.delete(&[t]);
        assert!(removed >= 2, "Book and Publication types should go");
        assert!(!typed(&r, "doi1", "Publication"));
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
        assert!(typed(&r, "doi1", "Book"));
        assert!(typed(&r, "doi1", "Publication"));
        assert_eq!(r.saturated(), &saturate(r.explicit()));
    }

    #[test]
    fn a_type_kept_alive_only_by_the_range_rule_survives() {
        // b1 τ Person is explicit and derived from `doi1 writtenBy b1`, where
        // b1 is the *object*: only the range rule still supports it.
        let doc = format!(
            "{BASE}ex:writtenBy rdfs:range ex:Person .\n\
             ex:doi1 ex:writtenBy ex:b1 .\nex:b1 rdf:type ex:Person .\n"
        );
        let mut r = IncrementalReasoner::new(parse_turtle(&doc).unwrap());
        let t = r.intern_triple(&iri("b1"), &rdf_type(), &iri("Person"));
        let delta = r.delete_batch(&[t]);
        assert_eq!(delta.explicit_removed, vec![t]);
        assert!(delta.saturation_removed.is_empty());
        assert!(typed(&r, "b1", "Person"));
        assert_eq!(r.saturated(), &saturate(r.explicit()));
    }

    #[test]
    fn a_triple_derived_twice_survives_losing_one_premise() {
        // doi2 τ Book (and Publication) follow from either writtenBy triple.
        let doc = format!("{BASE}ex:doi2 ex:writtenBy ex:a1 .\nex:doi2 ex:writtenBy ex:a2 .\n");
        let mut r = IncrementalReasoner::new(parse_turtle(&doc).unwrap());
        let a1 = r.intern_triple(&iri("doi2"), &iri("writtenBy"), &iri("a1"));
        let a2 = r.intern_triple(&iri("doi2"), &iri("writtenBy"), &iri("a2"));
        assert_eq!(r.delete_batch(&[a1]).saturation_removed, vec![a1]);
        assert!(typed(&r, "doi2", "Book") && typed(&r, "doi2", "Publication"));
        assert_eq!(r.delete_batch(&[a2]).saturation_removed.len(), 3);
        assert!(!typed(&r, "doi2", "Book") && !typed(&r, "doi2", "Publication"));
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
        assert!(typed(&r, "doi1", "Work"));
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
        assert!(!typed(&r, "doi1", "Publication"));
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
        assert!(typed(&r, "doi1", "Publication"));
    }
}
