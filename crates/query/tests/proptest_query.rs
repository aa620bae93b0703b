//! Property tests of the query layer: canonicalization, covers,
//! containment laws (and the kernel against a reference), parser/display
//! round trips.

use proptest::prelude::*;
use rdfref_model::{Dictionary, Term, TermId};
use rdfref_query::ast::{Atom, Cq, PTerm, Ucq};
use rdfref_query::canonical::canonicalize;
use rdfref_query::containment::{
    equivalent, minimize, minimize_union, minimize_union_with, subsumes,
};
use rdfref_query::{parse_select, Cover, Var};
use std::collections::HashMap;

/// The backtracking containment test the kernel replaced, kept as its
/// reference: a partial homomorphism in a hash map, cloned per atom attempt,
/// atoms in body order. It decides the same relation — constants onto
/// themselves, an interval onto what lies inside it, every occurrence of a
/// variable onto the same term and, if that is an interval, the same
/// occurrence of it.
mod reference {
    use super::*;

    /// Image of a variable, and the (atom, position) it was found at.
    type Hom = HashMap<Var, (PTerm, (usize, usize))>;

    fn unify(from: &PTerm, to: &PTerm, at: (usize, usize), hom: &mut Hom) -> bool {
        match (from, to) {
            (PTerm::Const(c), PTerm::Const(d)) => c == d,
            (PTerm::Const(_), _) => false,
            (PTerm::Range(lo, hi), PTerm::Const(c)) => lo <= c && c < hi,
            (PTerm::Range(lo, hi), PTerm::Range(l, h)) => lo <= l && h <= hi,
            (PTerm::Range(..), PTerm::Var(_)) => false,
            (PTerm::Var(v), _) => match hom.get(v) {
                Some((image, place)) => image == to && (!to.is_range() || *place == at),
                None => {
                    hom.insert(v.clone(), (to.clone(), at));
                    true
                }
            },
        }
    }

    fn search(body: &[Atom], target: &[Atom], hom: &Hom) -> bool {
        let Some((first, rest)) = body.split_first() else {
            return true;
        };
        target.iter().enumerate().any(|(i, atom)| {
            let mut extended = hom.clone();
            unify(&first.s, &atom.s, (i, 0), &mut extended)
                && unify(&first.p, &atom.p, (i, 1), &mut extended)
                && unify(&first.o, &atom.o, (i, 2), &mut extended)
                && search(rest, target, &extended)
        })
    }

    pub fn subsumes(general: &Cq, specific: &Cq) -> bool {
        if general.arity() != specific.arity() {
            return false;
        }
        let mut hom = Hom::new();
        let mut heads = general.head.iter().zip(&specific.head).enumerate();
        heads.all(|(k, (g, s))| unify(g, s, (usize::MAX, k), &mut hom))
            && search(&general.body, &specific.body, &hom)
    }

    /// Drop atoms one at a time while the rest stays equivalent.
    pub fn core_size(cq: &Cq) -> usize {
        let mut current = cq.clone();
        'shrink: loop {
            for i in 0..current.body.len() {
                let mut body = current.body.clone();
                body.remove(i);
                let candidate = Cq::new_unchecked(current.head.clone(), body);
                if subsumes(&current, &candidate) {
                    current = candidate;
                    continue 'shrink;
                }
            }
            return current.size();
        }
    }
}

/// Terms for the kernel-vs-reference tests: few constants and variables, so
/// that atoms collide, and intervals over the constants.
fn dense_pterm() -> impl Strategy<Value = PTerm> {
    prop_oneof![
        3 => (0u32..4).prop_map(|i| PTerm::Const(TermId(50 + i))),
        4 => (0u8..4).prop_map(|i| PTerm::Var(Var::new(format!("v{i}")))),
        1 => (0u32..3, 1u32..4).prop_map(|(lo, len)| PTerm::Range(TermId(50 + lo), TermId(50 + lo + len))),
    ]
}

/// Up to six atoms; a head of up to two variables or constants (constant
/// heads are what rules 9–13 produce).
fn dense_cq(arity: usize) -> impl Strategy<Value = Cq> {
    let atom = (dense_pterm(), dense_pterm(), dense_pterm()).prop_map(|(s, p, o)| Atom { s, p, o });
    let head = prop_oneof![
        (0u32..2).prop_map(|i| PTerm::Const(TermId(50 + i))),
        (0u8..4).prop_map(|i| PTerm::Var(Var::new(format!("v{i}")))),
    ];
    (
        proptest::collection::vec(head, arity..arity + 1),
        proptest::collection::vec(atom, 1..7),
    )
        .prop_map(|(head, body)| Cq::new_unchecked(head, body))
}

/// A CQ and a near-specialisation of it: its variables substituted, atoms
/// added, and (two times in three) one position overwritten — so that
/// containment holds often, and fails by little when it fails.
fn related_cqs() -> impl Strategy<Value = (Cq, Cq)> {
    let atom =
        || (dense_pterm(), dense_pterm(), dense_pterm()).prop_map(|(s, p, o)| Atom { s, p, o });
    (
        dense_cq(2),
        proptest::collection::vec(proptest::option::of(dense_pterm()), 4..5),
        proptest::collection::vec(atom(), 0..3),
        (0usize..3, 0usize..64, dense_pterm()),
    )
        .prop_map(|(general, images, extra, (overwrite, at, with))| {
            let mut subst = rdfref_query::ast::Substitution::default();
            for (i, image) in images.into_iter().enumerate() {
                if let Some(image) = image {
                    subst.insert(Var::new(format!("v{i}")), image);
                }
            }
            let mut specific = general.apply(&subst);
            specific.body.extend(extra);
            if overwrite > 0 {
                let atom = &mut specific.body[at % general.size()];
                match at % 3 {
                    0 => atom.s = with,
                    1 => atom.p = with,
                    _ => atom.o = with,
                }
            }
            (general, specific)
        })
}

fn pterm_strategy() -> impl Strategy<Value = PTerm> {
    prop_oneof![
        (0u32..6).prop_map(|i| PTerm::Const(TermId(i + 50))),
        (0u8..4).prop_map(|i| PTerm::Var(Var::new(format!("v{i}")))),
        // Fresh vars exercise the canonical renaming path.
        (0usize..3).prop_map(|i| PTerm::Var(Var::fresh(i))),
    ]
}

fn atom_strategy() -> impl Strategy<Value = Atom> {
    (pterm_strategy(), pterm_strategy(), pterm_strategy()).prop_map(|(s, p, o)| Atom { s, p, o })
}

fn cq_strategy() -> impl Strategy<Value = Cq> {
    proptest::collection::vec(atom_strategy(), 1..4).prop_map(|body| {
        // Head: the named variables of the body, deduplicated.
        let mut head: Vec<PTerm> = Vec::new();
        for a in &body {
            for v in a.vars() {
                if !v.is_fresh() && !head.iter().any(|h| h.as_var() == Some(v)) {
                    head.push(PTerm::Var(v.clone()));
                }
            }
        }
        Cq::new_unchecked(head, body)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Canonicalization is idempotent and — when atom shapes are pairwise
    /// distinct (the documented contract) — invariant under body permutation
    /// and fresh-variable renumbering.
    #[test]
    fn canonicalize_laws(cq in cq_strategy(), seed in 0usize..6) {
        let c1 = canonicalize(&cq);
        prop_assert_eq!(&canonicalize(&c1), &c1, "idempotence");
        // Shape key: fresh variables anonymized. Permutation invariance is
        // only guaranteed when no two atoms share a shape (see module docs
        // of rdfref_query::canonical).
        let shape = |a: &Atom| {
            let pos = |t: &PTerm| match t {
                PTerm::Const(c) => format!("c{}", c.0),
                PTerm::Range(lo, hi) => format!("r{}-{}", lo.0, hi.0),
                PTerm::Var(v) if v.is_fresh() => "f".to_string(),
                PTerm::Var(v) => format!("v{}", v.name()),
            };
            (pos(&a.s), pos(&a.p), pos(&a.o))
        };
        let mut shapes: Vec<_> = cq.body.iter().map(shape).collect();
        shapes.sort();
        let distinct_shapes = shapes.windows(2).all(|w| w[0] != w[1]);
        // Rotate the body.
        let mut rotated = cq.body.clone();
        if !rotated.is_empty() {
            let k = seed % rotated.len();
            rotated.rotate_left(k);
        }
        let r = Cq::new_unchecked(cq.head.clone(), rotated);
        if distinct_shapes {
            prop_assert_eq!(&canonicalize(&r), &c1, "permutation invariance");
        } else {
            // Still deterministic and sound: same input, same output.
            prop_assert_eq!(&canonicalize(&r), &canonicalize(&r.clone()));
        }
        // Renumber fresh variables.
        let mut subst = rdfref_query::ast::Substitution::default();
        for a in &cq.body {
            for v in a.vars() {
                if v.is_fresh() {
                    let shifted = Var::fresh(
                        17 + v.name().trim_start_matches("_f").parse::<usize>().unwrap_or(0),
                    );
                    subst.insert(v.clone(), PTerm::Var(shifted));
                }
            }
        }
        let renamed = cq.apply(&subst);
        if distinct_shapes {
            prop_assert_eq!(&canonicalize(&renamed), &c1, "fresh renaming invariance");
        }
    }

    /// Subsumption is reflexive and transitive; equivalence is symmetric.
    #[test]
    fn containment_laws(a in cq_strategy(), b in cq_strategy(), c in cq_strategy()) {
        prop_assert!(subsumes(&a, &a));
        if subsumes(&a, &b) && subsumes(&b, &c) {
            prop_assert!(subsumes(&a, &c), "transitivity");
        }
        if equivalent(&a, &b) {
            prop_assert!(equivalent(&b, &a));
        }
    }

    /// Minimization produces an equivalent core and is idempotent.
    #[test]
    fn minimize_laws(cq in cq_strategy()) {
        let m = minimize(&cq);
        prop_assert!(m.size() <= cq.size());
        prop_assert!(subsumes(&m, &cq) && subsumes(&cq, &m), "equivalence");
        prop_assert_eq!(minimize(&m).size(), m.size(), "idempotence");
    }

    /// Covers: singleton and one-fragment covers are always valid; partition
    /// enumeration yields only valid covers; GCov moves preserve validity.
    #[test]
    fn cover_laws(n in 1usize..5, moves in proptest::collection::vec((0usize..8, 0usize..5), 0..6)) {
        let mut cover = Cover::singletons(n);
        prop_assert!(Cover::new(cover.fragments().to_vec(), n).is_ok());
        prop_assert!(Cover::new(Cover::one_fragment(n).fragments().to_vec(), n).is_ok());
        for c in Cover::enumerate_partitions(n) {
            prop_assert!(Cover::new(c.fragments().to_vec(), n).is_ok());
        }
        for &(fi, atom) in &moves {
            if atom < n {
                if let Some(next) = cover.with_atom_in_fragment(fi % cover.len(), atom) {
                    prop_assert!(Cover::new(next.fragments().to_vec(), n).is_ok());
                    cover = next;
                }
            }
        }
    }

    /// Fragment columns always cover the head variables and all join
    /// variables between fragments.
    #[test]
    fn fragment_columns_cover_joins(cq in cq_strategy()) {
        let n = cq.size();
        for cover in Cover::enumerate_partitions(n) {
            let columns = cover.fragment_columns(&cq);
            // Every head var appears in some fragment's columns.
            for hv in cq.head_vars() {
                prop_assert!(columns.iter().any(|c| c.contains(&hv)));
            }
            // Every variable shared between two fragments is exported by both.
            for (i, fa) in cover.fragments().iter().enumerate() {
                for (j, fb) in cover.fragments().iter().enumerate() {
                    if i >= j { continue; }
                    let vars_a: std::collections::HashSet<Var> = fa
                        .iter()
                        .flat_map(|&k| cq.body[k].var_set())
                        .collect();
                    let vars_b: std::collections::HashSet<Var> = fb
                        .iter()
                        .flat_map(|&k| cq.body[k].var_set())
                        .collect();
                    for shared in vars_a.intersection(&vars_b) {
                        prop_assert!(columns[i].contains(shared), "frag {i} misses {shared}");
                        prop_assert!(columns[j].contains(shared), "frag {j} misses {shared}");
                    }
                }
            }
        }
    }
}

/// Parser/display round trip on a corpus of queries: parse, render to
/// SPARQL, re-parse, compare canonical forms.
#[test]
fn parse_display_round_trip() {
    let queries = [
        "SELECT ?x WHERE { ?x <http://e/p> ?y }",
        "SELECT ?x ?y WHERE { ?x <http://e/p> ?y . ?y a <http://e/C> }",
        "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
        "SELECT ?x WHERE { ?x <http://e/q> \"lit\" . ?x <http://e/r> 42 }",
    ];
    for q in queries {
        let mut d1 = Dictionary::new();
        let cq1 = parse_select(q, &mut d1).unwrap();
        let rendered = rdfref_query::display::cq_to_sparql(&cq1, &d1);
        let mut d2 = Dictionary::new();
        let cq2 = parse_select(&rendered, &mut d2).unwrap();
        // Dictionaries are built in the same order, so ids align.
        assert_eq!(canonicalize(&cq1), canonicalize(&cq2), "{q} → {rendered}");
        let _ = Term::iri("keep-import");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    /// The kernel decides what the reference decides, in both directions, and
    /// computes cores of the same size.
    #[test]
    fn kernel_matches_the_reference(
        related in related_cqs(),
        c in dense_cq(2),
        unary in dense_cq(1),
    ) {
        let (a, b) = related;
        for (g, s) in [(&a, &b), (&b, &a), (&a, &c), (&c, &a), (&b, &c)] {
            prop_assert_eq!(subsumes(g, s), reference::subsumes(g, s), "{:?} ⊒ {:?}", g, s);
        }
        prop_assert!(!subsumes(&a, &unary), "arities differ");
        let core = minimize(&a);
        prop_assert_eq!(core.size(), reference::core_size(&a), "{:?}", a);
        prop_assert!(reference::subsumes(&core, &a) && reference::subsumes(&a, &core));
        prop_assert!(core.body.iter().all(|atom| a.body.contains(atom)));
    }

    /// A minimised union is what the reference says a minimal one is: every
    /// input disjunct is subsumed by a survivor, no survivor by another, and
    /// every survivor is a core.
    #[test]
    fn minimized_union_is_minimal(
        pairs in proptest::collection::vec(related_cqs(), 1..4),
        unrelated in proptest::collection::vec(dense_cq(2), 0..4),
    ) {
        let pairs = pairs.into_iter().flat_map(|(a, b)| [b, a]);
        let input = Ucq::new(pairs.chain(unrelated).collect()).unwrap();
        let minimal = minimize_union(input.clone());
        for cq in &input.cqs {
            prop_assert!(minimal.cqs.iter().any(|kept| reference::subsumes(kept, cq)), "{:?} lost", cq);
        }
        for (i, kept) in minimal.cqs.iter().enumerate() {
            prop_assert_eq!(reference::core_size(kept), kept.size(), "{:?} is no core", kept);
            for (j, other) in minimal.cqs.iter().enumerate() {
                prop_assert!(i == j || !reference::subsumes(other, kept), "{:?} ⊒ {:?}", other, kept);
            }
        }
        prop_assert_eq!(&minimize_union(minimal.clone()), &minimal, "idempotence");
    }

    /// Handing the pass a transport of the constants is transporting them,
    /// minimising, and transporting them back (intervals stay where they are).
    #[test]
    fn constants_are_minimised_where_they_are_transported_to(
        pairs in proptest::collection::vec(related_cqs(), 1..4),
        unrelated in proptest::collection::vec(dense_cq(2), 0..4),
        mask in 0u32..16,
    ) {
        // A bijection of the ids that is its own inverse.
        let mut transport = |id: TermId| TermId(id.0 ^ mask);
        let pairs = pairs.into_iter().flat_map(|(a, b)| [b, a]);
        let input = Ucq::new(pairs.chain(unrelated).collect()).unwrap();
        let there = minimize_union(input.map_consts(&mut transport));
        prop_assert_eq!(
            minimize_union_with(input, &|id| TermId(id.0 ^ mask)),
            there.map_consts(&mut transport)
        );
    }
}
