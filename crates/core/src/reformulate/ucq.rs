//! The CQ → UCQ reformulation (the algorithm of [EDBT'13]).
//!
//! "Starting from a CQ query q to answer against db, it produces a UCQ
//! reformulation qref using the constraints in a backward-chaining fashion,
//! which retrieves the complete answer to q out of the (non-saturated) db:
//! q(db∞) = qref(db)" (§3.1 of the paper).
//!
//! The paper also notes (§4) that joining per-atom reformulations is itself a
//! complete reformulation, so a CQ's union is the *product* of its atoms'
//! unions, and [`reformulate_ucq`] builds it that way:
//!
//! 1. **One step per atom.** An atom's union is the atom plus the one-step
//!    image of the 13 rules of [`super::rules`]: against the closed schema one
//!    step reaches what repeated steps would, and only a rule-13 output (a
//!    property variable bound to a built-in) is rewritten once more. Each
//!    member is a single-atom CQ whose head is the atom's variables, a bound
//!    one as its constant; the union is minimised with that head.
//! 2. **A CQ is a product.** One member per atom, the bindings of a shared
//!    variable unified (combinations whose bindings conflict are dropped) and
//!    substituted into the other members, each atom's fresh variable its own
//!    — then one [`rdfref_query::containment::minimize_union`] pass: the
//!    disjuncts another disjunct subsumes go, the rest shrink to their cores.
//!
//! Every union the engine costs, caches or evaluates is built this way; GCov
//! and the cover strategies share the atom unions through
//! [`super::jucq`]'s per-request cache. [`reformulate_ucq_raw`] is the rule
//! fixpoint the product replaces: a worklist of CQs, each rewritten at every
//! atom position, with canonical deduplication ([`rdfref_query::canonical`]).
//! It stays public as the paper's size and as the oracle the product is
//! tested against. A size limit aborts pathological reformulations
//! gracefully (the paper's 318,096-CQ Example 1 "could not even be parsed");
//! it bounds the raw size, taken as [`ucq_size_product`] without
//! materialising anything.

use crate::error::{CoreError, Result};
use crate::reformulate::rules::{RewriteContext, RuleId};
use rdfref_model::dictionary::ID_RDF_TYPE;
use rdfref_model::fxhash::{FxHashSet, FxHasher};
use rdfref_model::{HierarchyEncoder, TermId};
use rdfref_query::ast::{Atom, Cq, PTerm, Substitution, Ucq};
use rdfref_query::canonical::CanonicalSet;
use rdfref_query::containment::minimize_union_with;
use rdfref_query::Var;
use std::hash::{BuildHasher, BuildHasherDefault};

/// Limits for reformulation.
///
/// Non-exhaustive (like [`crate::answer::AnswerOptions`]): construct via
/// [`ReformulationLimits::new`] (or `default()`) and the `with_*` builder
/// methods. See DESIGN.md §"Configuration knobs" for every knob and its
/// default.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct ReformulationLimits {
    /// Largest raw size a union may have before planning aborts with
    /// [`CoreError::ReformulationTooLarge`]. The raw size is
    /// [`ucq_size_product`] of the query (or fragment): the product of its
    /// atoms' raw unions, exact when no variable a rule binds is shared
    /// between atoms and an upper bound otherwise. It is checked before
    /// anything is built, and bounds what is left after minimisation only
    /// through it.
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

    /// Set the largest raw union size before aborting.
    pub fn with_max_cqs(mut self, max_cqs: usize) -> Self {
        self.max_cqs = max_cqs;
        self
    }

    /// Largest raw union size before aborting.
    pub fn max_cqs(&self) -> usize {
        self.max_cqs
    }

    /// Refuse a union whose atoms' raw unions have these sizes when their
    /// product exceeds `max_cqs`.
    pub(crate) fn check(&self, raw: impl Iterator<Item = usize>) -> Result<()> {
        let size = raw_product(raw);
        if size > self.max_cqs as u128 {
            return Err(CoreError::ReformulationTooLarge {
                size: usize::try_from(size).unwrap_or(usize::MAX),
                limit: self.max_cqs,
            });
        }
        Ok(())
    }
}

fn raw_product(raw: impl Iterator<Item = usize>) -> u128 {
    raw.fold(1, |product: u128, n| product.saturating_mul(n as u128))
}

/// Replace a covered class/property constant of an input atom with its
/// id-interval. An interval atom subsumes the classic atom plus all of its
/// rule-1/rule-4 unfoldings, so a covered seed atom executes as one range
/// scan instead of seeding an N-way union.
fn compress(atom: &Atom, enc: &HierarchyEncoder) -> Atom {
    let mut a = atom.clone();
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
}

/// Reformulate a CQ into its UCQ reformulation w.r.t. the context's schema:
/// the product of its atoms' unions, minimised (see the module docs). This
/// is the union the engine evaluates; `limits` apply to its raw size
/// ([`ucq_size_product`]).
///
/// With an interval encoder the union's constants are dictionary ids still
/// (the caller transports them) while its intervals are store ids: the
/// minimisation compares the two in store ids.
pub fn reformulate_ucq(
    cq: &Cq,
    ctx: &RewriteContext<'_>,
    limits: ReformulationLimits,
) -> Result<Ucq> {
    let atoms: Vec<AtomUnion> = (0..cq.size()).map(|i| AtomUnion::new(ctx, cq, i)).collect();
    limits.check(atoms.iter().map(|a| a.raw))?;
    let factors: Vec<Factor<'_>> = atoms.iter().map(AtomUnion::factor).collect();
    Ok(join(ctx, &factors, &cq.head))
}

/// The raw rule fixpoint: every CQ the 13 rules derive from `cq`, redundant
/// ones included — the reformulation whose size the paper reports, and the
/// oracle the product of [`reformulate_ucq`] is tested against. `limits`
/// apply to the CQs it materialises.
pub fn reformulate_ucq_raw(
    cq: &Cq,
    ctx: &RewriteContext<'_>,
    limits: ReformulationLimits,
) -> Result<Ucq> {
    let body = cq.body.iter().map(|a| compress(a, ctx.encoder)).collect();
    let cq = Cq::new_unchecked(cq.head.clone(), body);
    // A rewrite holds at most one fresh variable, so each atom position has
    // one of its own.
    let fresh: Vec<Var> = (0..cq.size()).map(Var::fresh).collect();
    let mut seen = CanonicalSet::new();
    seen.insert(&cq);
    let mut result: Vec<Cq> = vec![cq];
    // Indices into `result` still to rewrite.
    let mut frontier: Vec<usize> = vec![0];
    while let Some(qi) = frontier.pop() {
        for (idx, fresh) in fresh.iter().enumerate() {
            for rw in ctx.rewrite_atom(&result[qi].body[idx], fresh) {
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

/// The raw size of `cq`'s UCQ reformulation, taken without materialising
/// it: the product of its atoms' raw unions, each the atom and its one-step
/// image before minimisation. This is what [`ReformulationLimits::max_cqs`]
/// bounds, and how E1 reports Example 1's "318,096 CQs" (71 289 here) that
/// no limit lets anyone build.
///
/// Exact — the size of [`reformulate_ucq_raw`] — when no variable a rule
/// binds occurs in two atoms (true of Example 1, whose class variables `u`,
/// `v` occur in one atom each) and the encoding is classic; an upper bound
/// when atoms share such a variable. With an interval encoder an atom's raw
/// union holds each maximal covered subtree as one interval atom, as the
/// union that is evaluated does.
pub fn ucq_size_product(cq: &Cq, ctx: &RewriteContext<'_>) -> u128 {
    raw_product((0..cq.size()).map(|i| atom_image(ctx, cq, i).1.len()))
}

/// One atom's reformulation: the atom and the one-step image of the rules,
/// each member a single-atom CQ whose head is the atom's variables, a bound
/// one as its constant.
pub(crate) struct AtomUnion {
    /// The atom's distinct variables, in order of occurrence.
    vars: Vec<Var>,
    /// How many members the image has before minimisation: the atom's
    /// factor of the raw size `max_cqs` bounds.
    pub(crate) raw: usize,
    /// The image, minimised with `vars` as head.
    ucq: Ucq,
}

impl AtomUnion {
    /// The union of atom `i` of `cq`.
    pub(crate) fn new(ctx: &RewriteContext<'_>, cq: &Cq, i: usize) -> AtomUnion {
        let (vars, image) = atom_image(ctx, cq, i);
        AtomUnion {
            raw: image.len(),
            ucq: minimize(ctx, image),
            vars,
        }
    }

    pub(crate) fn factor(&self) -> Factor<'_> {
        Factor {
            vars: &self.vars,
            ucq: &self.ucq,
        }
    }
}

/// Atom `i` of `cq` and its one-step image, duplicates dropped, with the
/// atom's variables. Atom `i` names its fresh variable after its position,
/// so the unions of a query's atoms never share one.
fn atom_image(ctx: &RewriteContext<'_>, cq: &Cq, i: usize) -> (Vec<Var>, Vec<Cq>) {
    let atom = compress(&cq.body[i], ctx.encoder);
    let fresh = Var::fresh(i);
    let mut vars: Vec<Var> = Vec::new();
    for v in atom.vars() {
        if !vars.contains(v) {
            vars.push(v.clone());
        }
    }
    let mut image = Image {
        vars,
        members: Vec::new(),
        seen: FxHashSet::default(),
    };
    image.add(atom.clone(), &[]);
    for rw in ctx.rewrite_atom(&atom, &fresh) {
        let bound = bind(&rw.atom, &rw.bindings);
        // A property variable bound to a built-in gives an atom the other
        // rules apply to: rewrite it once more.
        if rw.rule == RuleId::R13 {
            for again in ctx.rewrite_atom(&bound, &fresh) {
                let mut bindings = rw.bindings.clone();
                bindings.extend(again.bindings);
                image.add(bind(&again.atom, &bindings), &bindings);
            }
        }
        image.add(bound, &rw.bindings);
    }
    (image.vars, image.members)
}

/// An atom's image under construction.
struct Image {
    vars: Vec<Var>,
    members: Vec<Cq>,
    /// Hashes of `members`: a repeat is looked for only on a hash hit.
    seen: FxHashSet<u64>,
}

impl Image {
    fn add(&mut self, atom: Atom, bindings: &[(Var, TermId)]) {
        let head = self.vars.iter().map(|v| match lookup(bindings, v) {
            Some(c) => PTerm::Const(c),
            None => PTerm::Var(v.clone()),
        });
        let member = Cq::new_unchecked(head.collect(), vec![atom]);
        let hash = BuildHasherDefault::<FxHasher>::default().hash_one(&member);
        if self.seen.insert(hash) || !self.members.contains(&member) {
            self.members.push(member);
        }
    }
}

fn lookup(bindings: &[(Var, TermId)], v: &Var) -> Option<TermId> {
    bindings.iter().find(|(b, _)| b == v).map(|(_, c)| *c)
}

/// `atom` with `bindings` substituted.
fn bind(atom: &Atom, bindings: &[(Var, TermId)]) -> Atom {
    let term = |t: &PTerm| match t {
        PTerm::Var(v) => lookup(bindings, v).map_or_else(|| t.clone(), PTerm::Const),
        PTerm::Const(_) | PTerm::Range(..) => t.clone(),
    };
    Atom {
        s: term(&atom.s),
        p: term(&atom.p),
        o: term(&atom.o),
    }
}

/// The minimisation every evaluated union goes through: constants are
/// compared with intervals where the intervals live.
pub(crate) fn minimize(ctx: &RewriteContext<'_>, cqs: Vec<Cq>) -> Ucq {
    minimize_union_with(Ucq { cqs }, &|c| ctx.encoder.encode(c))
}

/// A factor of a product: a minimised union whose members' heads line up
/// with `vars`, a bound variable's position holding its constant.
#[derive(Clone, Copy)]
pub(crate) struct Factor<'u> {
    pub(crate) vars: &'u [Var],
    pub(crate) ucq: &'u Ucq,
}

/// The minimised product of `factors` with head `head`. A lone factor whose
/// head already is `head` is minimal as it is.
pub(crate) fn join(ctx: &RewriteContext<'_>, factors: &[Factor<'_>], head: &[PTerm]) -> Ucq {
    if let [only] = factors {
        let same = only.vars.len() == head.len()
            && only
                .vars
                .iter()
                .zip(head)
                .all(|(v, t)| t.as_var() == Some(v));
        if same {
            return only.ucq.clone();
        }
    }
    minimize(ctx, product(factors, head))
}

/// The union of every consistent combination of one member per factor. The
/// factors' bindings of a shared variable must agree (a combination where
/// they conflict is dropped), and a variable one factor binds is
/// substituted into the others' members and into `head`.
fn product(factors: &[Factor<'_>], head: &[PTerm]) -> Vec<Cq> {
    let mut numbering = Numbering::default();
    let ids: Vec<Vec<usize>> = factors
        .iter()
        .map(|f| f.vars.iter().map(|v| numbering.number(v)).collect())
        .collect();
    let head: Vec<Slot<'_>> = head
        .iter()
        .map(|t| match t {
            PTerm::Var(v) => Slot::Var(numbering.number(v)),
            PTerm::Const(_) | PTerm::Range(..) => Slot::Term(t),
        })
        .collect();
    // Every member resolved once, not once per combination.
    let members: Vec<Vec<Member<'_>>> = factors
        .iter()
        .zip(&ids)
        .map(|(f, ids)| {
            f.ucq
                .cqs
                .iter()
                .map(|cq| Member {
                    binds: cq
                        .head
                        .iter()
                        .zip(ids)
                        .filter_map(|(t, &id)| t.as_const().map(|c| (id, c)))
                        .collect(),
                    body: cq
                        .body
                        .iter()
                        .map(|a| [&a.s, &a.p, &a.o].map(|t| numbering.slot(t)))
                        .collect(),
                })
                .collect()
        })
        .collect();
    let terms: Vec<PTerm> = numbering.vars.iter().map(|&v| v.clone().into()).collect();
    let mut walk = Walk {
        members: &members,
        head: &head,
        binding: vec![None; terms.len()],
        terms,
        trail: Vec::new(),
        chosen: Vec::with_capacity(members.len()),
        out: Vec::new(),
    };
    walk.descend(0);
    walk.out
}

/// The variables a product binds or shares, numbered.
#[derive(Default)]
struct Numbering<'u> {
    vars: Vec<&'u Var>,
}

impl<'u> Numbering<'u> {
    fn number(&mut self, v: &'u Var) -> usize {
        self.vars.iter().position(|&w| w == v).unwrap_or_else(|| {
            self.vars.push(v);
            self.vars.len() - 1
        })
    }

    /// A member's term: a numbered variable, or a term no other factor sees
    /// (a constant, an interval, an existential or fresh variable).
    fn slot(&self, t: &'u PTerm) -> Slot<'u> {
        match t {
            PTerm::Var(v) => match self.vars.iter().position(|&w| w == v) {
                Some(id) => Slot::Var(id),
                None => Slot::Term(t),
            },
            PTerm::Const(_) | PTerm::Range(..) => Slot::Term(t),
        }
    }
}

#[derive(Clone, Copy)]
enum Slot<'u> {
    Var(usize),
    Term(&'u PTerm),
}

/// A factor's member, resolved against the product's numbering.
struct Member<'u> {
    /// The numbered variables it binds.
    binds: Vec<(usize, TermId)>,
    body: Vec<[Slot<'u>; 3]>,
}

/// The depth-first walk over combinations: one factor per level, bindings
/// kept in one array with an undo trail.
struct Walk<'w, 'u> {
    members: &'w [Vec<Member<'u>>],
    head: &'w [Slot<'u>],
    terms: Vec<PTerm>,
    binding: Vec<Option<TermId>>,
    trail: Vec<usize>,
    chosen: Vec<usize>,
    out: Vec<Cq>,
}

impl Walk<'_, '_> {
    fn descend(&mut self, level: usize) {
        let members = self.members;
        let Some(factor) = members.get(level) else {
            self.emit();
            return;
        };
        for (m, member) in factor.iter().enumerate() {
            let mark = self.trail.len();
            if self.bind(member) {
                self.chosen.push(m);
                self.descend(level + 1);
                self.chosen.pop();
            }
            for id in self.trail.drain(mark..) {
                self.binding[id] = None;
            }
        }
    }

    /// Commit `member`'s bindings; `false` if one conflicts.
    fn bind(&mut self, member: &Member<'_>) -> bool {
        for &(id, c) in &member.binds {
            match self.binding[id] {
                Some(bound) if bound != c => return false,
                Some(_) => {}
                None => {
                    self.binding[id] = Some(c);
                    self.trail.push(id);
                }
            }
        }
        true
    }

    fn emit(&mut self) {
        let resolve = |slot: &Slot<'_>| match *slot {
            Slot::Var(id) => self.binding[id].map_or_else(|| self.terms[id].clone(), PTerm::Const),
            Slot::Term(t) => t.clone(),
        };
        let head = self.head.iter().map(resolve).collect();
        let body = self
            .chosen
            .iter()
            .zip(self.members)
            .flat_map(|(&m, factor)| &factor[m].body)
            .map(|[s, p, o]| Atom {
                s: resolve(s),
                p: resolve(p),
                o: resolve(o),
            })
            .collect();
        self.out.push(Cq::new_unchecked(head, body));
    }
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

    /// Canonical forms of a union's disjuncts.
    fn canon(cqs: &[Cq]) -> FxHashSet<Cq> {
        cqs.iter()
            .map(rdfref_query::canonical::canonicalize)
            .collect()
    }

    /// `setup`'s schema plus a chain `Novel ⊑ Book`, a sub-property of
    /// `writtenBy`, and a domain on the chain's bottom.
    fn chain() -> (Schema, Vec<TermId>) {
        let (mut d, mut s, mut ids) = setup();
        for n in ["Novel", "penned", "Author"] {
            ids.push(d.intern(&Term::iri(n)));
        }
        s.add_subclass(ids[5], ids[0]);
        s.add_subproperty(ids[6], ids[2]);
        s.add_domain(ids[6], ids[5]);
        s.add_range(ids[3], ids[7]);
        (s, ids)
    }

    #[test]
    fn one_step_image_is_the_per_atom_fixpoint() {
        let (s, ids) = chain();
        let cl = s.closure();
        let ctx = RewriteContext::new(&s, &cl);
        let atoms = [
            Atom::new(v("x"), ID_RDF_TYPE, ids[1]),
            Atom::new(v("x"), ID_RDF_TYPE, v("u")),
            Atom::new(v("u"), ID_RDF_TYPE, v("u")),
            Atom::new(v("x"), ids[3], v("y")),
            Atom::new(v("x"), v("p"), v("y")),
            Atom::new(v("x"), v("p"), v("x")),
            Atom::new(v("c"), rdfref_model::dictionary::ID_RDFS_SUBCLASSOF, v("d")),
            Atom::new(v("q"), rdfref_model::dictionary::ID_RDFS_DOMAIN, v("c")),
        ];
        for atom in atoms {
            let (vars, _) = atom_image(&ctx, &Cq::boolean(vec![atom.clone()]), 0);
            let head = vars.into_iter().map(PTerm::Var).collect();
            let single = Cq::new_unchecked(head, vec![atom]);
            let raw = reformulate_ucq_raw(&single, &ctx, ReformulationLimits::default()).unwrap();
            let (_, image) = atom_image(&ctx, &single, 0);
            assert_eq!(canon(&image), canon(&raw.cqs), "{single:?}");
            assert_eq!(ucq_size_product(&single, &ctx), raw.len() as u128);
        }
    }

    /// The product against the fixpoint: same number of disjuncts once both
    /// are minimised, each side subsumed by the other.
    fn assert_product_is_the_fixpoint(q: &Cq, ctx: &RewriteContext<'_>) {
        let product = reformulate_ucq(q, ctx, ReformulationLimits::default()).unwrap();
        let raw = reformulate_ucq_raw(q, ctx, ReformulationLimits::default()).unwrap();
        let fixpoint = minimize(ctx, raw.cqs);
        assert_eq!(product.len(), fixpoint.len(), "{q:?}");
        let covered = |by: &Ucq, of: &Ucq| {
            of.cqs.iter().all(|cq| {
                by.cqs
                    .iter()
                    .any(|g| rdfref_query::containment::subsumes(g, cq))
            })
        };
        assert!(covered(&product, &fixpoint) && covered(&fixpoint, &product));
    }

    #[test]
    fn shared_bound_variables_unify_across_atoms() {
        let (s, ids) = chain();
        let cl = s.closure();
        let ctx = RewriteContext::new(&s, &cl);
        let queries = [
            // A class variable two type atoms bind.
            (
                vec![v("x"), v("y"), v("u")],
                vec![
                    Atom::new(v("x"), ID_RDF_TYPE, v("u")),
                    Atom::new(v("y"), ID_RDF_TYPE, v("u")),
                ],
            ),
            // A property variable (rule 13) shared with a hierarchy atom.
            (
                vec![v("x"), v("p")],
                vec![
                    Atom::new(v("x"), v("p"), v("y")),
                    Atom::new(
                        v("p"),
                        rdfref_model::dictionary::ID_RDFS_SUBPROPERTYOF,
                        ids[2],
                    ),
                ],
            ),
            // A bound variable projected away, and one the head keeps.
            (
                vec![v("x")],
                vec![
                    Atom::new(v("x"), ID_RDF_TYPE, v("u")),
                    Atom::new(v("x"), v("p"), v("y")),
                    Atom::new(v("y"), ID_RDF_TYPE, ids[4]),
                ],
            ),
        ];
        for (head, body) in queries {
            assert_product_is_the_fixpoint(&Cq::new(head, body).unwrap(), &ctx);
        }
    }
}
