//! Cover-induced JUCQ reformulations.
//!
//! "Each cover naturally leads to a query answering strategy: reformulating
//! each cover subquery using any CQ-to-UCQ algorithm, and joining the
//! results of these reformulated queries, yields the answer to the original
//! query" (§4 of the paper).
//!
//! [`reformulate_jucq`] implements exactly that: slice the query along the
//! cover, reformulate each fragment as the product of its atoms' unions
//! ([`super::ucq`]), and package the result as a [`Jucq`] whose fragments
//! join on shared column names. [`reformulate_scq`] is the singleton-cover
//! special case — the SCQ reformulation of Thomazo [IJCAI'13].
//!
//! Both go through `FragmentCache`, the per-request state GCov's search
//! shares: every atom's union is computed once, every fragment's once, and a
//! fragment extends the cached union of a sub-fragment when one keeps the
//! variables the rest of it needs.

use crate::answer::encoded_ucq;
use crate::error::Result;
use crate::reformulate::rules::{identity_encoder, RewriteContext};
use crate::reformulate::ucq::{join, AtomUnion, Factor, ReformulationLimits};
use rdfref_model::fxhash::FxHashMap;
use rdfref_model::HierarchyEncoder;
use rdfref_query::ast::{Cq, Fragment, Jucq, PTerm, Ucq};
use rdfref_query::{Cover, Var};

/// Reformulate `cq` along `cover` into a JUCQ.
///
/// Every fragment exports its *needed* columns (head variables of `cq` plus
/// variables shared with other fragments); the JUCQ head is `cq`'s head
/// variable list. The per-fragment UCQs respect `limits`.
pub fn reformulate_jucq(
    cq: &Cq,
    cover: &Cover,
    ctx: &RewriteContext<'_>,
    limits: ReformulationLimits,
) -> Result<Jucq> {
    FragmentCache::new(cq, ctx, limits).jucq(cover)
}

/// The SCQ reformulation: one fragment per atom.
pub fn reformulate_scq(
    cq: &Cq,
    ctx: &RewriteContext<'_>,
    limits: ReformulationLimits,
) -> Result<Jucq> {
    reformulate_jucq(cq, &Cover::singletons(cq.size()), ctx, limits)
}

/// The reformulations of one query's atoms and fragments, each computed
/// once (see the module docs).
pub(crate) struct FragmentCache<'q, 'c> {
    cq: &'q Cq,
    ctx: &'q RewriteContext<'c>,
    limits: ReformulationLimits,
    /// The id space fragments are served in: base ids (the identity), or
    /// the context's store ids, which the cost model prices.
    served_in: &'c HierarchyEncoder,
    atoms: Vec<Option<AtomUnion>>,
    /// Fragment unions by atom set and columns (or the error of one over the
    /// limit).
    fragments: FxHashMap<(Vec<usize>, Vec<Var>), Result<Union>>,
}

/// A fragment's union, and the same in the id space it is served in when
/// the ids differ there (transported once, when it enters the cache).
struct Union {
    plain: Ucq,
    encoded: Option<Ucq>,
}

impl<'q, 'c> FragmentCache<'q, 'c> {
    pub(crate) fn new(
        cq: &'q Cq,
        ctx: &'q RewriteContext<'c>,
        limits: ReformulationLimits,
    ) -> Self {
        FragmentCache {
            cq,
            ctx,
            limits,
            served_in: identity_encoder(),
            atoms: (0..cq.size()).map(|_| None).collect(),
            fragments: FxHashMap::default(),
        }
    }

    /// Serve fragments with their constants in store id space.
    pub(crate) fn encoded(mut self) -> Self {
        self.served_in = self.ctx.encoder;
        self
    }

    /// Slice the query along `cover`, one cached fragment union each.
    pub(crate) fn jucq(&mut self, cover: &Cover) -> Result<Jucq> {
        let columns = cover.fragment_columns(self.cq);
        let mut fragments = Vec::with_capacity(cover.len());
        for (atoms, cols) in cover.fragments().iter().zip(&columns) {
            fragments.push(self.fragment(atoms, cols)?);
        }
        #[cfg(feature = "strict-invariants")]
        {
            // Atom coverage: every atom of the query belongs to at least one
            // cover fragment (fragments may overlap — §4 allows it), otherwise
            // the JUCQ join would silently drop a conjunct.
            let mut covered = vec![false; self.cq.size()];
            for atoms in cover.fragments() {
                for &a in atoms {
                    if let Some(slot) = covered.get_mut(a) {
                        *slot = true;
                    }
                }
            }
            debug_assert!(
                covered.iter().all(|&c| c),
                "cover leaves atoms of the query uncovered: {covered:?}"
            );
            // Column consistency: each fragment exports exactly the columns its
            // UCQ members produce.
            for (frag, cols) in fragments.iter().zip(&columns) {
                debug_assert_eq!(
                    &frag.columns, cols,
                    "fragment exports drifted from cover columns"
                );
                for member in &frag.ucq.cqs {
                    debug_assert_eq!(
                        member.arity(),
                        cols.len(),
                        "fragment UCQ member arity diverges from its column list"
                    );
                }
            }
        }
        Ok(Jucq::new(self.cq.head_vars(), fragments)?)
    }

    /// The union of the fragment `atoms` (sorted) exporting `columns`.
    fn fragment(&mut self, atoms: &[usize], columns: &[Var]) -> Result<Fragment> {
        let key = (atoms.to_vec(), columns.to_vec());
        let union = match self.fragments.get(&key) {
            Some(union) => served(union),
            None => {
                let union = self.compute(atoms, columns);
                let served = served(&union);
                self.fragments.insert(key, union);
                served
            }
        };
        Ok(Fragment::new(columns.to_vec(), union?)?)
    }

    fn compute(&mut self, atoms: &[usize], columns: &[Var]) -> Result<Union> {
        for &i in atoms {
            if self.atoms[i].is_none() {
                self.atoms[i] = Some(AtomUnion::new(self.ctx, self.cq, i));
            }
        }
        let atom = |i: usize| self.atoms[i].as_ref();
        self.limits
            .check(atoms.iter().filter_map(|&i| atom(i)).map(|a| a.raw))?;
        // Extend the largest cached sub-fragment that exports every variable
        // the rest of the fragment and its columns need; the remaining atoms
        // join it one union each.
        let needed = |sub: &[usize], v: &Var| {
            columns.contains(v)
                || atoms
                    .iter()
                    .any(|i| !sub.contains(i) && self.cq.body[*i].vars().any(|w| w == v))
        };
        let mut base: Option<(&[usize], Factor<'_>)> = None;
        for ((sub, cols), union) in &self.fragments {
            let proper = sub.len() < atoms.len() && sub.iter().all(|i| atoms.contains(i));
            let wider = base.is_none_or(|(b, _)| b.len() < sub.len());
            let Ok(union) = union else { continue };
            if !proper || !wider {
                continue;
            }
            let mut vars = sub.iter().flat_map(|&i| self.cq.body[i].vars());
            if vars.all(|v| cols.contains(v) || !needed(sub, v)) {
                let factor = Factor {
                    vars: cols,
                    ucq: &union.plain,
                };
                base = Some((sub, factor));
            }
        }
        let rest = atoms
            .iter()
            .filter(|i| base.is_none_or(|(sub, _)| !sub.contains(i)));
        let factors: Vec<Factor<'_>> = base
            .map(|(_, f)| f)
            .into_iter()
            .chain(rest.filter_map(|&i| atom(i)).map(AtomUnion::factor))
            .collect();
        let head: Vec<PTerm> = columns.iter().cloned().map(PTerm::Var).collect();
        let plain = join(self.ctx, &factors, &head);
        let encoded = encoded_ucq(self.served_in, &plain);
        Ok(Union { plain, encoded })
    }
}

/// A copy of a cached union, in store id space when it was encoded.
fn served(union: &Result<Union>) -> Result<Ucq> {
    union
        .as_ref()
        .map(|u| u.encoded.as_ref().unwrap_or(&u.plain).clone())
        .map_err(Clone::clone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reformulate::ucq::reformulate_ucq;
    use rdfref_model::dictionary::ID_RDF_TYPE;
    use rdfref_model::{Dictionary, Schema, Term, TermId};
    use rdfref_query::ast::Atom;
    use rdfref_query::Var;

    fn v(n: &str) -> Var {
        Var::new(n)
    }

    fn setup() -> (Dictionary, Schema, Vec<TermId>) {
        let mut d = Dictionary::new();
        let ids: Vec<TermId> = ["Book", "Publication", "writtenBy", "hasAuthor", "Person"]
            .iter()
            .map(|n| d.intern(&Term::iri(*n)))
            .collect();
        let mut s = Schema::new();
        s.add_subclass(ids[0], ids[1]);
        s.add_subproperty(ids[2], ids[3]);
        s.add_domain(ids[2], ids[0]);
        s.add_range(ids[2], ids[4]);
        (d, s, ids)
    }

    fn example_query(ids: &[TermId]) -> Cq {
        // q(x, y) :- (x τ Publication), (x hasAuthor a), (a τ Person),
        //            (x hasTitle y) — hasTitle unconstrained.
        Cq::new(
            vec![v("x"), v("y")],
            vec![
                Atom::new(v("x"), ID_RDF_TYPE, ids[1]),
                Atom::new(v("x"), ids[3], v("a")),
                Atom::new(v("a"), ID_RDF_TYPE, ids[4]),
                Atom::new(v("x"), TermId(999), v("y")),
            ],
        )
        .unwrap()
    }

    #[test]
    fn scq_has_one_fragment_per_atom() {
        let (_, s, ids) = setup();
        let cl = s.closure();
        let ctx = RewriteContext::new(&s, &cl);
        let q = example_query(&ids);
        let scq = reformulate_scq(&q, &ctx, ReformulationLimits::default()).unwrap();
        assert_eq!(scq.len(), 4);
        // Fragment of atom 0 reformulates to 3 CQs (see ucq tests).
        assert_eq!(scq.fragments[0].ucq.len(), 3);
        // Unconstrained hasTitle fragment stays a single CQ.
        assert_eq!(scq.fragments[3].ucq.len(), 1);
    }

    #[test]
    fn fragment_columns_are_join_and_head_vars() {
        let (_, s, ids) = setup();
        let cl = s.closure();
        let ctx = RewriteContext::new(&s, &cl);
        let q = example_query(&ids);
        let scq = reformulate_scq(&q, &ctx, ReformulationLimits::default()).unwrap();
        // Atom 0 (x τ Publication): exports x (head + join).
        assert_eq!(scq.fragments[0].columns, vec![v("x")]);
        // Atom 1 (x hasAuthor a): exports x and a.
        assert_eq!(scq.fragments[1].columns, vec![v("x"), v("a")]);
        // Atom 3 (x hasTitle y): exports x and y.
        assert_eq!(scq.fragments[3].columns, vec![v("x"), v("y")]);
    }

    #[test]
    fn one_fragment_cover_matches_ucq_size() {
        let (_, s, ids) = setup();
        let cl = s.closure();
        let ctx = RewriteContext::new(&s, &cl);
        let q = example_query(&ids);
        let whole = reformulate_ucq(&q, &ctx, ReformulationLimits::default()).unwrap();
        let jucq = reformulate_jucq(
            &q,
            &Cover::one_fragment(q.size()),
            &ctx,
            ReformulationLimits::default(),
        )
        .unwrap();
        assert_eq!(jucq.len(), 1);
        assert_eq!(jucq.fragments[0].ucq.len(), whole.len());
    }

    #[test]
    fn overlapping_cover_builds() {
        let (_, s, ids) = setup();
        let cl = s.closure();
        let ctx = RewriteContext::new(&s, &cl);
        let q = example_query(&ids);
        let cover = Cover::new(vec![vec![0, 1], vec![1, 2], vec![3]], 4).unwrap();
        let jucq = reformulate_jucq(&q, &cover, &ctx, ReformulationLimits::default()).unwrap();
        assert_eq!(jucq.len(), 3);
        // Shared atom 1's variables exported from both fragments.
        assert!(jucq.fragments[0].columns.contains(&v("a")));
        assert!(jucq.fragments[1].columns.contains(&v("a")));
    }

    #[test]
    fn limits_apply_per_fragment() {
        let (_, s, ids) = setup();
        let cl = s.closure();
        let ctx = RewriteContext::new(&s, &cl);
        let q = example_query(&ids);
        let err = reformulate_jucq(
            &q,
            &Cover::one_fragment(q.size()),
            &ctx,
            ReformulationLimits {
                max_cqs: 2,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            crate::error::CoreError::ReformulationTooLarge { .. }
        ));
        // The singleton cover passes with the same limit only if each
        // fragment fits; fragment 0 has 3 CQs, so limit 2 still fails…
        assert!(reformulate_scq(
            &q,
            &ctx,
            ReformulationLimits {
                max_cqs: 2,
                ..Default::default()
            }
        )
        .is_err());
        // …but limit 3 succeeds, while the one-fragment cover would not.
        assert!(reformulate_scq(
            &q,
            &ctx,
            ReformulationLimits {
                max_cqs: 3,
                ..Default::default()
            }
        )
        .is_ok());
    }

    #[test]
    fn a_fragment_extended_from_a_cached_one_is_the_product_of_its_atoms() {
        let (_, s, ids) = setup();
        let cl = s.closure();
        let ctx = RewriteContext::new(&s, &cl);
        let q = example_query(&ids);
        let limits = ReformulationLimits::default();
        let grown = Cover::new(vec![vec![0, 1], vec![2], vec![3]], 4).unwrap();
        let whole = Cover::new(vec![vec![0, 1, 2], vec![3]], 4).unwrap();
        let mut cache = FragmentCache::new(&q, &ctx, limits);
        cache.jucq(&grown).unwrap();
        let extended = cache.jucq(&whole).unwrap();
        let direct = FragmentCache::new(&q, &ctx, limits).jucq(&whole).unwrap();
        assert_eq!(extended, direct);
        // The fragment {0, 1} exports `a`, which atom 2 joins on.
        let key = (vec![0, 1], vec![v("x"), v("a")]);
        assert!(cache.fragments.contains_key(&key));
    }
}
