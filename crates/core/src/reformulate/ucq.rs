//! The CQ → UCQ reformulation (the algorithm of [EDBT'13]).
//!
//! "Starting from a CQ query q to answer against db, it produces a UCQ
//! reformulation qref using the constraints in a backward-chaining fashion,
//! which retrieves the complete answer to q out of the (non-saturated) db:
//! q(db∞) = qref(db)" (§3.1 of the paper).
//!
//! Two steps. [`reformulate_ucq_raw`] applies the 13 rules of
//! [`super::rules`] exhaustively: a worklist of CQs, each rewritten at every
//! atom position, with canonical deduplication
//! ([`rdfref_query::canonical`]) guaranteeing termination. A configurable
//! size limit aborts pathological reformulations gracefully (the paper's
//! 318,096-CQ Example 1 "could not even be parsed"). [`reformulate_ucq`]
//! then minimises that union ([`rdfref_query::containment::minimize_union`]):
//! disjuncts another disjunct subsumes go, the rest shrink to their cores.
//! Every union the engine costs, caches or evaluates went through both; the
//! raw fixpoint is public for the paper's size reports.

use crate::error::{CoreError, Result};
use crate::reformulate::rules::RewriteContext;
use rdfref_model::dictionary::ID_RDF_TYPE;
use rdfref_model::HierarchyEncoder;
use rdfref_query::ast::{Cq, PTerm, Substitution, Ucq};
use rdfref_query::canonical::CanonicalSet;
use rdfref_query::containment::{minimize_union, minimize_union_with};
use rdfref_query::var::FreshVars;

/// Limits for the reformulation fixpoint.
///
/// Non-exhaustive (like [`crate::answer::AnswerOptions`]): construct via
/// [`ReformulationLimits::new`] (or `default()`) and the `with_*` builder
/// methods. See DESIGN.md §"Configuration knobs" for every knob and its
/// default.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct ReformulationLimits {
    /// Maximum number of CQs in the raw fixpoint before aborting with
    /// [`CoreError::ReformulationTooLarge`].
    pub max_cqs: usize,
}

impl Default for ReformulationLimits {
    fn default() -> Self {
        ReformulationLimits {
            // Generous enough for every workload in this repository except
            // the deliberately pathological UCQ cases (Example 1 at scale).
            max_cqs: 500_000,
        }
    }
}

impl ReformulationLimits {
    /// The default limits (500 000 CQs).
    pub fn new() -> Self {
        ReformulationLimits::default()
    }

    /// Set the maximum number of CQs before aborting.
    pub fn with_max_cqs(mut self, max_cqs: usize) -> Self {
        self.max_cqs = max_cqs;
        self
    }

    /// Maximum number of CQs in the union before aborting.
    pub fn max_cqs(&self) -> usize {
        self.max_cqs
    }
}

/// Replace covered class/property constants of the input CQ with their
/// id-intervals. An interval atom subsumes the classic atom plus all of its
/// rule-1/rule-4 unfoldings, so a covered seed atom executes as one range
/// scan instead of seeding an N-way union.
fn compress_input(cq: &Cq, enc: &HierarchyEncoder) -> Cq {
    let body = cq
        .body
        .iter()
        .map(|a| {
            let mut a = a.clone();
            if let PTerm::Const(p) = &a.p {
                if *p == ID_RDF_TYPE {
                    if let PTerm::Const(c) = &a.o {
                        if let Some((lo, hi)) = enc.class_range(*c) {
                            a.o = PTerm::Range(lo, hi);
                        }
                    }
                } else if let Some((lo, hi)) = enc.prop_range(*p) {
                    a.p = PTerm::Range(lo, hi);
                }
            }
            a
        })
        .collect();
    Cq::new_unchecked(cq.head.clone(), body)
}

/// Reformulate a CQ into its UCQ reformulation w.r.t. the context's schema:
/// the raw fixpoint ([`reformulate_ucq_raw`], to which `limits` apply),
/// minimised. This is the union the engine evaluates.
///
/// With an interval encoder the union's constants are dictionary ids still
/// (the caller transports them) while its intervals are store ids: the
/// minimisation compares the two in store ids.
pub fn reformulate_ucq(
    cq: &Cq,
    ctx: &RewriteContext<'_>,
    limits: ReformulationLimits,
) -> Result<Ucq> {
    let raw = reformulate_ucq_raw(cq, ctx, limits)?;
    Ok(match ctx.encoder {
        Some(enc) => minimize_union_with(raw, &|c| enc.encode(c)),
        None => minimize_union(raw),
    })
}

/// The raw rule fixpoint: every CQ the 13 rules derive from `cq`, redundant
/// ones included — the reformulation whose size the paper reports.
pub fn reformulate_ucq_raw(
    cq: &Cq,
    ctx: &RewriteContext<'_>,
    limits: ReformulationLimits,
) -> Result<Ucq> {
    let compressed;
    let cq = if let Some(enc) = ctx.encoder {
        compressed = compress_input(cq, enc);
        &compressed
    } else {
        cq
    };
    let mut fresh = FreshVars::new();
    let mut seen = CanonicalSet::new();
    seen.insert(cq);
    let mut result: Vec<Cq> = vec![cq.clone()];
    // Indices into `result` still to rewrite.
    let mut frontier: Vec<usize> = vec![0];
    while let Some(qi) = frontier.pop() {
        for idx in 0..result[qi].body.len() {
            for rw in ctx.rewrite_atom(&result[qi].body[idx], &mut fresh) {
                let q = &result[qi];
                let new_cq = if rw.bindings.is_empty() {
                    q.with_atom(idx, rw.atom)
                } else {
                    let mut subst = Substitution::default();
                    for (v, c) in &rw.bindings {
                        subst.insert(v.clone(), PTerm::Const(*c));
                    }
                    let bound = q.apply(&subst);
                    bound.with_atom(idx, rw.atom.apply(&subst))
                };
                if seen.insert(&new_cq) {
                    if seen.len() > limits.max_cqs {
                        return Err(CoreError::ReformulationTooLarge {
                            size: seen.len(),
                            limit: limits.max_cqs,
                        });
                    }
                    frontier.push(result.len());
                    result.push(new_cq);
                }
            }
        }
    }
    Ucq::new(result).map_err(CoreError::from)
}

/// The size the raw UCQ reformulation *would* have, computed as the product of
/// the per-atom reformulation sizes — without materializing the union.
///
/// Exact when no two atoms share a variable that reformulation binds
/// (true of the paper's Example 1, whose class variables `u`, `v` occur in
/// one atom each); an upper bound otherwise. This is how the harness reports
/// "318,096 CQs" even when materialization is aborted by the limit.
pub fn ucq_size_product(cq: &Cq, ctx: &RewriteContext<'_>) -> u128 {
    let mut product: u128 = 1;
    for atom in &cq.body {
        // Project every variable of the atom so that rewrites differing only
        // in their bindings stay distinct (as they do in the full query,
        // where bound variables appear in the head or other atoms).
        let head: Vec<PTerm> = atom.vars().cloned().map(PTerm::Var).collect();
        let single = Cq::new_unchecked(head, vec![atom.clone()]);
        let limits = ReformulationLimits::new().with_max_cqs(2_000_000);
        let count = match reformulate_ucq_raw(&single, ctx, limits) {
            Ok(ucq) => ucq.len() as u128,
            Err(_) => u128::MAX / cq.body.len().max(1) as u128, // saturating sentinel
        };
        product = product.saturating_mul(count);
    }
    product
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn publication_query_reformulates_to_three_cqs() {
        // q(x) :- (x τ Publication) ⇝
        //   (x τ Publication) ∪ (x τ Book) ∪ (x writtenBy f) ∪ … nothing else:
        //   effective domains of writtenBy are {Book, Publication}, both of
        //   which produce (x writtenBy f) — deduplicated by canonical form.
        let (_, s, ids) = setup();
        let cl = s.closure();
        let ctx = RewriteContext::new(&s, &cl);
        let q = Cq::new(vec![v("x")], vec![Atom::new(v("x"), ID_RDF_TYPE, ids[1])]).unwrap();
        let ucq = reformulate_ucq(&q, &ctx, ReformulationLimits::default()).unwrap();
        assert_eq!(ucq.len(), 3);
    }

    #[test]
    fn chained_rules_reach_fixpoint() {
        // q(x) :- (x τ Person): R3 gives (f writtenBy x); then R4 does not
        // apply (writtenBy has no subproperty) — 2 CQs.
        // q(x) :- (x hasAuthor y): R4 gives (x writtenBy y) — 2 CQs.
        let (_, s, ids) = setup();
        let cl = s.closure();
        let ctx = RewriteContext::new(&s, &cl);
        let person = Cq::new(vec![v("x")], vec![Atom::new(v("x"), ID_RDF_TYPE, ids[4])]).unwrap();
        assert_eq!(
            reformulate_ucq(&person, &ctx, ReformulationLimits::default())
                .unwrap()
                .len(),
            2
        );
        let author = Cq::new(vec![v("x")], vec![Atom::new(v("x"), ids[3], v("y"))]).unwrap();
        assert_eq!(
            reformulate_ucq(&author, &ctx, ReformulationLimits::default())
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn bindings_propagate_to_other_atoms_and_head() {
        // q(x, u) :- (x τ u), (x writtenBy y): the class variable u gets
        // bound by rules 9–11 in some disjuncts; u must become a constant in
        // the head of those disjuncts.
        let (_, s, ids) = setup();
        let cl = s.closure();
        let ctx = RewriteContext::new(&s, &cl);
        let q = Cq::new(
            vec![v("x"), v("u")],
            vec![
                Atom::new(v("x"), ID_RDF_TYPE, v("u")),
                Atom::new(v("x"), ids[2], v("y")),
            ],
        )
        .unwrap();
        let raw = reformulate_ucq_raw(&q, &ctx, ReformulationLimits::default()).unwrap();
        let bound_heads = |ucq: &Ucq| {
            let bound = |cq: &&Cq| matches!(cq.head[1], PTerm::Const(_));
            ucq.cqs.iter().filter(bound).count()
        };
        assert!(bound_heads(&raw) >= 4, "rules 9–11 bind u in ≥4 disjuncts");
        // Every disjunct keeps arity 2.
        assert!(raw.cqs.iter().all(|cq| cq.arity() == 2));

        // Minimised: the query itself, plus one disjunct per type the
        // writtenBy atom implies for x — (x writtenBy y) alone with u bound
        // to Book and to Publication (domain), and (f writtenBy x) joined in
        // for Person (range). The explicit (x τ Book) → Publication disjunct
        // is subsumed by the domain one.
        let ucq = reformulate_ucq(&q, &ctx, ReformulationLimits::default()).unwrap();
        assert_eq!(ucq.len(), 4);
        assert_eq!(bound_heads(&ucq), 3);
        assert_eq!(ucq.total_atoms(), 2 + 1 + 1 + 2);
        assert!(raw.len() > ucq.len());
    }

    #[test]
    fn multi_atom_blowup_is_product_like() {
        // Two independent type atoms: the union size is the product of the
        // per-atom sizes.
        let (_, s, ids) = setup();
        let cl = s.closure();
        let ctx = RewriteContext::new(&s, &cl);
        let single = Cq::new(vec![v("x")], vec![Atom::new(v("x"), ID_RDF_TYPE, ids[1])]).unwrap();
        let n1 = reformulate_ucq(&single, &ctx, ReformulationLimits::default())
            .unwrap()
            .len();
        let double = Cq::new(
            vec![v("x"), v("y")],
            vec![
                Atom::new(v("x"), ID_RDF_TYPE, ids[1]),
                Atom::new(v("y"), ID_RDF_TYPE, ids[1]),
            ],
        )
        .unwrap();
        let n2 = reformulate_ucq(&double, &ctx, ReformulationLimits::default())
            .unwrap()
            .len();
        assert_eq!(n2, n1 * n1);
        assert_eq!(ucq_size_product(&double, &ctx), (n1 * n1) as u128);
    }

    #[test]
    fn limit_aborts_gracefully() {
        let (_, s, ids) = setup();
        let cl = s.closure();
        let ctx = RewriteContext::new(&s, &cl);
        let q = Cq::new(
            vec![v("x"), v("y")],
            vec![
                Atom::new(v("x"), ID_RDF_TYPE, v("u")),
                Atom::new(v("y"), ID_RDF_TYPE, v("w")),
                Atom::new(v("x"), ids[2], v("y")),
            ],
        )
        .unwrap();
        let err = reformulate_ucq(
            &q,
            &ctx,
            ReformulationLimits {
                max_cqs: 5,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CoreError::ReformulationTooLarge { limit: 5, .. }
        ));
    }

    #[test]
    fn empty_schema_returns_singleton_union() {
        let s = Schema::new();
        let cl = s.closure();
        let ctx = RewriteContext::new(&s, &cl);
        let q = Cq::new(vec![v("x")], vec![Atom::new(v("x"), ID_RDF_TYPE, v("u"))]).unwrap();
        let ucq = reformulate_ucq(&q, &ctx, ReformulationLimits::default()).unwrap();
        assert_eq!(ucq.len(), 1);
        assert_eq!(ucq_size_product(&q, &ctx), 1);
    }
}
