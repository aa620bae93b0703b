//! Canonical forms for CQ deduplication.
//!
//! The reformulation fixpoint generates the same CQ along many derivation
//! paths, differing only in (a) atom order and (b) the numbering of *fresh*
//! variables minted by rules 2/3/10/11. Named (user) variables are never
//! renamed by any rule, so two generated CQs are duplicates iff they are
//! equal modulo atom order and fresh-variable renaming.
//!
//! [`canonicalize`] normalizes exactly those two degrees of freedom:
//! 1. sort atoms by a *shape key* that treats every fresh variable as an
//!    anonymous placeholder;
//! 2. rename fresh variables in first-occurrence order over the sorted body;
//! 3. sort atoms again (now fully concrete) and deduplicate.
//!
//! The result is a sound, deterministic dedup key: equal canonical forms are
//! equivalent queries. It is *not* a complete isomorphism test (that is
//! graph-isomorphism hard and unnecessary here): in particular, when two
//! atoms share an identical shape key and cross-reference fresh variables,
//! permutations of them may canonicalize differently — the fixpoint then
//! keeps both variants, costing a slightly larger union but never a wrong
//! answer.

use crate::ast::{Atom, Cq, PTerm, Substitution};
use crate::var::{FreshVars, Var};
use rdfref_model::fxhash::FxHashSet;
use rdfref_model::TermId;

/// A variable-numbering-independent key for one pattern position.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum ShapeKey {
    Const(TermId),
    Range(TermId, TermId),
    NamedVar(Var),
    FreshVar,
}

fn shape_of(t: &PTerm) -> ShapeKey {
    match t {
        PTerm::Const(c) => ShapeKey::Const(*c),
        PTerm::Range(lo, hi) => ShapeKey::Range(*lo, *hi),
        PTerm::Var(v) if v.is_fresh() => ShapeKey::FreshVar,
        PTerm::Var(v) => ShapeKey::NamedVar(v.clone()),
    }
}

fn atom_shape(a: &Atom) -> [ShapeKey; 3] {
    [shape_of(&a.s), shape_of(&a.p), shape_of(&a.o)]
}

/// Canonicalize a CQ for deduplication (see module docs).
pub fn canonicalize(cq: &Cq) -> Cq {
    // 1. Sort by shape.
    let mut body = cq.body.clone();
    body.sort_by_key(atom_shape);

    // 2. Rename fresh variables by first occurrence (head first, then body).
    let mut renaming = Substitution::default();
    let mut gen = FreshVars::new();
    let visit = |t: &PTerm, renaming: &mut Substitution, gen: &mut FreshVars| {
        if let PTerm::Var(v) = t {
            if v.is_fresh() && !renaming.contains_key(v) {
                renaming.insert(v.clone(), PTerm::Var(gen.next()));
            }
        }
    };
    for t in &cq.head {
        visit(t, &mut renaming, &mut gen);
    }
    for a in &body {
        visit(&a.s, &mut renaming, &mut gen);
        visit(&a.p, &mut renaming, &mut gen);
        visit(&a.o, &mut renaming, &mut gen);
    }
    let head: Vec<PTerm> = cq
        .head
        .iter()
        .map(|t| crate::ast::substitute(t, &renaming))
        .collect();
    let mut body: Vec<Atom> = body.iter().map(|a| a.apply(&renaming)).collect();

    // 3. Final concrete sort + dedup of repeated atoms.
    body.sort();
    body.dedup();
    Cq::new_unchecked(head, body)
}

/// An α-canonical form: the fully variable-renamed query, and where each
/// of the original query's atoms went.
///
/// Produced by [`alpha_canonicalize`]; consumed by the plan cache in
/// `rdfref-core`, which plans `query` and evaluates that plan as it is: its
/// head lists the original head's terms in order, renamed, so its answer
/// columns are the original's by position.
#[derive(Debug, Clone)]
pub struct AlphaCanonical {
    /// The canonical query: atoms shape-sorted, *every* variable renamed
    /// positionally (named variables to `cv0, cv1, …`; fresh variables to
    /// `_f0, _f1, …`), duplicate atoms removed.
    pub query: Cq,
    /// For each atom position in the *original* body, its position in the
    /// canonical body (after sorting and deduplication); repeated atoms
    /// share one. Carries covers between the two numberings.
    pub atom_map: Vec<usize>,
}

/// A shape key that anonymizes *every* variable, named or fresh.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum AnonKey {
    Const(TermId),
    Range(TermId, TermId),
    AnyVar,
}

fn anon_shape_of(t: &PTerm) -> AnonKey {
    match t {
        PTerm::Const(c) => AnonKey::Const(*c),
        PTerm::Range(lo, hi) => AnonKey::Range(*lo, *hi),
        PTerm::Var(_) => AnonKey::AnyVar,
    }
}

fn anon_atom_shape(a: &Atom) -> [AnonKey; 3] {
    [
        anon_shape_of(&a.s),
        anon_shape_of(&a.p),
        anon_shape_of(&a.o),
    ]
}

/// α-canonicalize a CQ: like [`canonicalize`], but rename **all** variables
/// — named ones too — so that two queries differing only by a variable
/// renaming (and atom order) map to the same canonical form. This is the
/// cache key used by the plan cache: `canonicalize` alone is too weak there
/// because it treats user variable names as significant.
///
/// Soundness: the renaming is a bijection on the query's variables, so equal
/// canonical forms imply the queries are isomorphic, and a plan for one
/// answers the other, column for column. Like `canonicalize`,
/// this is not a *complete* isomorphism test: atoms with identical
/// anonymous shapes are tie-broken by input order, so some isomorphic pairs
/// canonicalize differently — costing a missed cache hit, never a wrong
/// answer.
pub fn alpha_canonicalize(cq: &Cq) -> AlphaCanonical {
    // 1. Sort atom positions by fully anonymous shape.
    let mut order: Vec<usize> = (0..cq.body.len()).collect();
    order.sort_by(|&i, &j| anon_atom_shape(&cq.body[i]).cmp(&anon_atom_shape(&cq.body[j])));

    // 2. Rename every variable in first-occurrence order (head first, then
    //    the shape-sorted body). Fresh variables keep fresh identity (the
    //    reformulation rules treat them as existential); named variables
    //    become cv0, cv1, …
    let mut renaming = Substitution::default();
    let mut gen = FreshVars::new();
    let mut named = 0usize;
    let mut visit = |t: &PTerm| {
        if let PTerm::Var(v) = t {
            if !renaming.contains_key(v) {
                let canonical = if v.is_fresh() {
                    gen.next()
                } else {
                    let c = Var::new(format!("cv{named}"));
                    named += 1;
                    c
                };
                renaming.insert(v.clone(), PTerm::Var(canonical));
            }
        }
    };
    for t in &cq.head {
        visit(t);
    }
    for &i in &order {
        let a = &cq.body[i];
        visit(&a.s);
        visit(&a.p);
        visit(&a.o);
    }

    let head: Vec<PTerm> = cq
        .head
        .iter()
        .map(|t| crate::ast::substitute(t, &renaming))
        .collect();
    let renamed: Vec<Atom> = order.iter().map(|&i| cq.body[i].apply(&renaming)).collect();

    // 3. Final concrete sort + dedup, tracking where each original atom
    //    lands so covers can be transported.
    let mut idx: Vec<usize> = (0..renamed.len()).collect();
    idx.sort_by(|&a, &b| renamed[a].cmp(&renamed[b]));
    let mut body: Vec<Atom> = Vec::with_capacity(renamed.len());
    let mut atom_map = vec![0usize; cq.body.len()];
    for &j in &idx {
        if body.last() != Some(&renamed[j]) {
            body.push(renamed[j].clone());
        }
        atom_map[order[j]] = body.len() - 1;
    }

    AlphaCanonical {
        query: Cq::new_unchecked(head, body),
        atom_map,
    }
}

/// A set of CQs keyed by canonical form — the working set of the
/// reformulation fixpoint.
#[derive(Debug, Default)]
pub struct CanonicalSet {
    seen: FxHashSet<Cq>,
}

impl CanonicalSet {
    /// An empty set.
    pub fn new() -> Self {
        CanonicalSet::default()
    }

    /// Insert a CQ; returns `true` if it was new (up to canonical form).
    pub fn insert(&mut self, cq: &Cq) -> bool {
        self.seen.insert(canonicalize(cq))
    }

    /// Has an equivalent CQ been inserted?
    pub fn contains(&self, cq: &Cq) -> bool {
        self.seen.contains(&canonicalize(cq))
    }

    /// Number of distinct canonical CQs.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Var {
        Var::new(n)
    }
    fn c(n: u32) -> TermId {
        TermId(n)
    }

    #[test]
    fn atom_order_is_normalized() {
        let a = Atom::new(v("x"), c(1), v("y"));
        let b = Atom::new(v("y"), c(2), v("z"));
        let q1 = Cq::new_unchecked(vec![v("x").into()], vec![a.clone(), b.clone()]);
        let q2 = Cq::new_unchecked(vec![v("x").into()], vec![b, a]);
        assert_eq!(canonicalize(&q1), canonicalize(&q2));
    }

    #[test]
    fn fresh_var_numbering_is_normalized() {
        let q1 = Cq::new_unchecked(
            vec![v("x").into()],
            vec![Atom::new(v("x"), c(1), Var::fresh(17))],
        );
        let q2 = Cq::new_unchecked(
            vec![v("x").into()],
            vec![Atom::new(v("x"), c(1), Var::fresh(23))],
        );
        assert_eq!(canonicalize(&q1), canonicalize(&q2));
    }

    #[test]
    fn named_vars_are_not_conflated() {
        let q1 = Cq::new_unchecked(vec![v("x").into()], vec![Atom::new(v("x"), c(1), v("y"))]);
        let q2 = Cq::new_unchecked(vec![v("x").into()], vec![Atom::new(v("x"), c(1), v("z"))]);
        assert_ne!(canonicalize(&q1), canonicalize(&q2));
    }

    #[test]
    fn repeated_atoms_deduplicated() {
        let a = Atom::new(v("x"), c(1), v("y"));
        let q = Cq::new_unchecked(vec![v("x").into()], vec![a.clone(), a]);
        assert_eq!(canonicalize(&q).size(), 1);
    }

    #[test]
    fn different_constants_stay_distinct() {
        let q1 = Cq::new_unchecked(vec![], vec![Atom::new(v("x"), c(1), c(5))]);
        let q2 = Cq::new_unchecked(vec![], vec![Atom::new(v("x"), c(1), c(6))]);
        assert_ne!(canonicalize(&q1), canonicalize(&q2));
    }

    #[test]
    fn canonical_set_dedups() {
        let mut set = CanonicalSet::new();
        let q1 = Cq::new_unchecked(
            vec![v("x").into()],
            vec![
                Atom::new(v("x"), c(1), Var::fresh(3)),
                Atom::new(v("x"), c(2), v("y")),
            ],
        );
        let q2 = Cq::new_unchecked(
            vec![v("x").into()],
            vec![
                Atom::new(v("x"), c(2), v("y")),
                Atom::new(v("x"), c(1), Var::fresh(99)),
            ],
        );
        assert!(set.insert(&q1));
        assert!(!set.insert(&q2));
        assert_eq!(set.len(), 1);
        assert!(set.contains(&q2));
    }

    #[test]
    fn alpha_identifies_renamed_queries() {
        // { ?x :1 ?y . ?y :2 ?z } and { ?a :1 ?b . ?b :2 ?c } with atoms
        // reordered are α-equivalent; `canonicalize` keeps them distinct,
        // `alpha_canonicalize` does not.
        let q1 = Cq::new_unchecked(
            vec![v("x").into()],
            vec![
                Atom::new(v("x"), c(1), v("y")),
                Atom::new(v("y"), c(2), v("z")),
            ],
        );
        let q2 = Cq::new_unchecked(
            vec![v("a").into()],
            vec![
                Atom::new(v("b"), c(2), v("c")),
                Atom::new(v("a"), c(1), v("b")),
            ],
        );
        assert_ne!(canonicalize(&q1), canonicalize(&q2));
        assert_eq!(alpha_canonicalize(&q1).query, alpha_canonicalize(&q2).query);
    }

    #[test]
    fn alpha_keeps_different_queries_distinct() {
        let q1 = Cq::new_unchecked(vec![v("x").into()], vec![Atom::new(v("x"), c(1), c(5))]);
        let q2 = Cq::new_unchecked(vec![v("x").into()], vec![Atom::new(v("x"), c(1), c(6))]);
        assert_ne!(alpha_canonicalize(&q1).query, alpha_canonicalize(&q2).query);
        // Join structure matters: x–x join vs x–y cross.
        let j1 = Cq::new_unchecked(vec![v("x").into()], vec![Atom::new(v("x"), c(1), v("x"))]);
        let j2 = Cq::new_unchecked(vec![v("x").into()], vec![Atom::new(v("x"), c(1), v("y"))]);
        assert_ne!(alpha_canonicalize(&j1).query, alpha_canonicalize(&j2).query);
    }

    #[test]
    fn alpha_renaming_is_positional_in_the_head_and_the_atom_map() {
        let q = Cq::new_unchecked(
            vec![v("x").into(), v("n").into()],
            vec![
                Atom::new(v("x"), c(1), v("a")),
                Atom::new(v("a"), c(2), v("n")),
            ],
        );
        let canon = alpha_canonicalize(&q);
        // One renaming, read off position by position, takes the canonical
        // head to the original head and each original atom's canonical
        // image back to it.
        let mut back = Substitution::default();
        let mut pair = |canonical: &PTerm, original: &PTerm| match (canonical, original) {
            (PTerm::Var(cv), PTerm::Var(_)) => {
                let seen = back.entry(cv.clone()).or_insert_with(|| original.clone());
                assert_eq!(seen, original, "{cv} renamed two ways");
            }
            _ => assert_eq!(canonical, original),
        };
        for (t, u) in canon.query.head.iter().zip(&q.head) {
            pair(t, u);
        }
        for (i, a) in q.body.iter().enumerate() {
            let there = &canon.query.body[canon.atom_map[i]];
            for (t, u) in [(&there.s, &a.s), (&there.p, &a.p), (&there.o, &a.o)] {
                pair(t, u);
            }
        }
        assert_eq!(back.len(), 3, "x, a and n each get one canonical name");
    }

    #[test]
    fn alpha_atom_map_handles_dedup() {
        // Two α-identical copies of one atom collapse; both map to slot 0.
        let q = Cq::new_unchecked(
            vec![v("x").into()],
            vec![
                Atom::new(v("x"), c(1), v("x")),
                Atom::new(v("x"), c(1), v("x")),
            ],
        );
        let canon = alpha_canonicalize(&q);
        assert_eq!(canon.query.size(), 1);
        assert_eq!(canon.atom_map, vec![0, 0]);
    }

    #[test]
    fn two_fresh_vars_in_one_atom() {
        // (f1 p f2) vs (f2 p f1): both canonicalize to (_f0 p _f1).
        let q1 = Cq::new_unchecked(vec![], vec![Atom::new(Var::fresh(1), c(1), Var::fresh(2))]);
        let q2 = Cq::new_unchecked(vec![], vec![Atom::new(Var::fresh(2), c(1), Var::fresh(1))]);
        assert_eq!(canonicalize(&q1), canonicalize(&q2));
    }
}
