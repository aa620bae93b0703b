//! Variable-order selection helpers for worst-case-optimal join planning.
//!
//! A leapfrog-triejoin plan fixes one *global* variable order and requires
//! every atom to bind a permutation index whose sort order lists that atom's
//! variables compatibly. The helpers here are purely structural — they look
//! only at the query hypergraph, never at data — so they live in `query` and
//! are shared by the storage planner and the cost model:
//!
//! * [`is_cyclic`] — GYO ear-removal test for α-acyclicity of the body's
//!   variable hypergraph (a triangle is cyclic; chains and stars are not);
//! * [`hub`] — the most-shared variable, when it joins ≥ 3 atoms (the
//!   star-join signal the cost model uses);
//! * [`candidate_orders`] — deterministic candidate global variable orders:
//!   frequency-ranked heuristics first, then (for small queries) every
//!   permutation, so the planner can fall through to *any* feasible order.
//!   Ties break on structure (where a variable sits, under which property),
//!   so two listings of one body get one order.

use crate::ast::{Atom, PTerm};
use crate::var::Var;
use rdfref_model::TermId;

/// Exhaustive-permutation cap: bodies with at most this many distinct
/// variables enumerate all orders (≤ 5! = 120 candidates); larger bodies
/// fall back to the heuristic orders alone.
pub const MAX_EXHAUSTIVE_VARS: usize = 5;

/// Distinct body variables in first-occurrence order, each with the number
/// of *atoms* it occurs in (an atom counts once even if the variable repeats
/// inside it).
pub fn occurrences(body: &[Atom]) -> Vec<(Var, usize)> {
    let mut out: Vec<(Var, usize)> = Vec::new();
    for atom in body {
        let mut seen_here: Vec<&Var> = Vec::new();
        for v in atom.vars() {
            if seen_here.contains(&v) {
                continue;
            }
            seen_here.push(v);
            match out.iter_mut().find(|(u, _)| u == v) {
                Some((_, n)) => *n += 1,
                None => out.push((v.clone(), 1)),
            }
        }
    }
    out
}

/// The *hub* variable of a star-shaped body: the variable occurring in the
/// most atoms, if it occurs in at least three. Ties break toward the first
/// occurrence, so the answer is deterministic.
pub fn hub(body: &[Atom]) -> Option<(Var, usize)> {
    occurrences(body)
        .into_iter()
        .max_by_key(|&(_, n)| n)
        .filter(|&(_, n)| n >= 3)
}

/// GYO ear-removal α-acyclicity test over the body's variable hypergraph
/// (one hyperedge per atom: its variable set). Repeatedly:
///
/// 1. drop variables that occur in at most one remaining hyperedge
///    (they are "ears" — private to one atom);
/// 2. drop hyperedges that became empty or are contained in another.
///
/// The body is cyclic iff non-empty hyperedges survive the fixpoint. The
/// triangle `{x,y} {y,z} {x,z}` survives (cyclic); chains and stars reduce
/// to nothing (acyclic). Constant-only atoms contribute empty hyperedges
/// and never affect the outcome.
pub fn is_cyclic(body: &[Atom]) -> bool {
    let mut edges: Vec<Vec<Var>> = body
        .iter()
        .map(|a| {
            let mut vs: Vec<Var> = Vec::new();
            for v in a.vars() {
                if !vs.contains(v) {
                    vs.push(v.clone());
                }
            }
            vs
        })
        .filter(|vs| !vs.is_empty())
        .collect();
    loop {
        let before = (edges.len(), edges.iter().map(Vec::len).sum::<usize>());
        // 1. Remove variables private to a single hyperedge.
        let mut i = 0;
        while i < edges.len() {
            let mut j = 0;
            while j < edges[i].len() {
                let v = edges[i][j].clone();
                let elsewhere = edges
                    .iter()
                    .enumerate()
                    .any(|(k, e)| k != i && e.contains(&v));
                if elsewhere {
                    j += 1;
                } else {
                    edges[i].swap_remove(j);
                }
            }
            i += 1;
        }
        // 2. Remove empty hyperedges and hyperedges contained in another.
        edges.retain(|e| !e.is_empty());
        let mut keep: Vec<bool> = vec![true; edges.len()];
        for i in 0..edges.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..edges.len() {
                if i == j || !keep[j] {
                    continue;
                }
                let contained = edges[i].iter().all(|v| edges[j].contains(v));
                let strictly = edges[i].len() < edges[j].len() || i > j;
                if contained && strictly {
                    keep[i] = false;
                    break;
                }
            }
        }
        let mut it = keep.iter();
        edges.retain(|_| *it.next().unwrap_or(&true));
        if (edges.len(), edges.iter().map(Vec::len).sum::<usize>()) == before {
            break;
        }
    }
    !edges.is_empty()
}

/// The property of an atom a variable occurs in, as far as the body's
/// structure goes: a variable's name is not part of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Property {
    Var,
    Const(TermId),
    Range(TermId, TermId),
}

/// A variable's occurrences in the body as (position, property) pairs,
/// sorted; position 0 is the subject, 1 the property, 2 the object. Two
/// variables have equal signatures only when they sit in the same positions
/// of atoms with the same properties, however the atoms are listed.
type Signature = Vec<(usize, Property)>;

/// The [`Signature`] of `v` in `body`.
fn signature(body: &[Atom], v: &Var) -> Signature {
    let mut sig: Signature = body
        .iter()
        .flat_map(|atom| {
            let property = match &atom.p {
                PTerm::Var(_) => Property::Var,
                PTerm::Const(c) => Property::Const(*c),
                PTerm::Range(lo, hi) => Property::Range(*lo, *hi),
            };
            atom.positions()
                .into_iter()
                .enumerate()
                .filter(move |(_, t)| t.as_var() == Some(v))
                .map(move |(pos, _)| (pos, property))
        })
        .collect();
    sig.sort_unstable();
    sig
}

/// Deterministic candidate global variable orders for the body, best guess
/// first:
///
/// 1. atom-frequency descending (hub first), ties broken by each variable's
///    sorted (position, property) signature, so subject-side variables
///    lead object-side ones;
/// 2. signature order alone;
/// 3. when the body has at most [`MAX_EXHAUSTIVE_VARS`] distinct variables,
///    every remaining permutation in lexicographic rank order over (2).
///
/// Only variables of equal signature fall back to first occurrence, so the
/// orders follow the body's structure, not the order its atoms are listed
/// in. Duplicates are removed; the list is never empty unless the body has
/// no variables at all.
pub fn candidate_orders(body: &[Atom]) -> Vec<Vec<Var>> {
    let mut occ: Vec<(Var, usize, Signature)> = occurrences(body)
        .into_iter()
        .map(|(v, n)| {
            let sig = signature(body, &v);
            (v, n, sig)
        })
        .collect();
    if occ.is_empty() {
        return Vec::new();
    }
    // Stable sorts keep first-occurrence order among equal keys.
    occ.sort_by(|a, b| a.2.cmp(&b.2));
    let by_signature: Vec<Var> = occ.iter().map(|(v, ..)| v.clone()).collect();
    occ.sort_by_key(|&(_, n, _)| std::cmp::Reverse(n));
    let freq_desc: Vec<Var> = occ.into_iter().map(|(v, ..)| v).collect();

    let mut out: Vec<Vec<Var>> = Vec::new();
    let push = |order: Vec<Var>, out: &mut Vec<Vec<Var>>| {
        if !out.contains(&order) {
            out.push(order);
        }
    };
    push(freq_desc, &mut out);
    push(by_signature.clone(), &mut out);
    if by_signature.len() <= MAX_EXHAUSTIVE_VARS {
        permute(&by_signature, &mut Vec::new(), &mut out);
    }
    out
}

/// Append every permutation of `rest` (prefixed by `prefix`) to `out`,
/// skipping duplicates, in lexicographic rank order over `rest`'s indices.
fn permute(rest: &[Var], prefix: &mut Vec<Var>, out: &mut Vec<Vec<Var>>) {
    if rest.is_empty() {
        if !out.contains(prefix) {
            out.push(prefix.clone());
        }
        return;
    }
    for i in 0..rest.len() {
        let mut remaining = rest.to_vec();
        let v = remaining.remove(i);
        prefix.push(v);
        permute(&remaining, prefix, out);
        prefix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfref_model::TermId;

    fn v(n: &str) -> Var {
        Var::new(n)
    }

    fn triangle() -> Vec<Atom> {
        let p = TermId(7);
        vec![
            Atom::new(v("x"), p, v("y")),
            Atom::new(v("y"), p, v("z")),
            Atom::new(v("x"), p, v("z")),
        ]
    }

    fn chain() -> Vec<Atom> {
        let p = TermId(7);
        vec![
            Atom::new(v("x"), p, v("y")),
            Atom::new(v("y"), p, v("z")),
            Atom::new(v("z"), p, v("w")),
        ]
    }

    fn star() -> Vec<Atom> {
        let p = TermId(7);
        vec![
            Atom::new(v("h"), p, v("a")),
            Atom::new(v("h"), p, v("b")),
            Atom::new(v("h"), p, v("c")),
        ]
    }

    #[test]
    fn triangle_is_cyclic() {
        assert!(is_cyclic(&triangle()));
    }

    #[test]
    fn chain_and_star_are_acyclic() {
        assert!(!is_cyclic(&chain()));
        assert!(!is_cyclic(&star()));
    }

    #[test]
    fn single_atom_and_empty_are_acyclic() {
        let p = TermId(7);
        assert!(!is_cyclic(&[]));
        assert!(!is_cyclic(&[Atom::new(v("x"), p, v("y"))]));
        // Constant-only atoms contribute nothing.
        assert!(!is_cyclic(&[Atom::new(TermId(1), p, TermId(2))]));
    }

    #[test]
    fn four_cycle_is_cyclic() {
        let p = TermId(7);
        let body = vec![
            Atom::new(v("a"), p, v("b")),
            Atom::new(v("b"), p, v("c")),
            Atom::new(v("c"), p, v("d")),
            Atom::new(v("d"), p, v("a")),
        ];
        assert!(is_cyclic(&body));
    }

    #[test]
    fn hub_found_only_with_three_atoms() {
        assert_eq!(hub(&star()), Some((v("h"), 3)));
        assert_eq!(hub(&chain()), None);
        // Triangle: every variable is in exactly 2 atoms — no hub.
        assert_eq!(hub(&triangle()), None);
    }

    #[test]
    fn occurrences_count_atoms_not_positions() {
        let p = TermId(7);
        // x appears twice inside one atom: counts once for that atom.
        let body = vec![Atom::new(v("x"), p, v("x")), Atom::new(v("x"), p, v("y"))];
        assert_eq!(occurrences(&body), vec![(v("x"), 2), (v("y"), 1)]);
    }

    #[test]
    fn candidate_orders_start_with_frequency_heuristic() {
        let orders = candidate_orders(&star());
        assert_eq!(orders[0][0], v("h"), "hub leads the frequency order");
        // 4 distinct vars ≤ cap: all 24 permutations present (deduped).
        assert_eq!(orders.len(), 24);
        let occ = occurrences(&star());
        for o in &orders {
            assert_eq!(o.len(), occ.len());
        }
    }

    #[test]
    fn candidate_orders_follow_structure_not_listing() {
        // The triangle listed two ways: every variable is in two atoms, so
        // frequency ties everywhere and the signatures decide — ?x is
        // subject twice, ?y once each side, ?z object twice.
        let mut relisted = triangle();
        relisted.rotate_left(1);
        relisted.swap(0, 1);
        let want = vec![v("x"), v("y"), v("z")];
        assert_eq!(candidate_orders(&triangle())[0], want);
        assert_eq!(candidate_orders(&relisted)[0], want);
        // A star's leaves tie on frequency; their properties order them.
        let p = |n: u32| TermId(n);
        let star = vec![
            Atom::new(v("h"), p(9), v("a")),
            Atom::new(v("h"), p(8), v("b")),
        ];
        assert_eq!(candidate_orders(&star)[0], vec![v("h"), v("b"), v("a")]);
    }

    #[test]
    fn candidate_orders_empty_for_constant_body() {
        let body = vec![Atom::new(TermId(1), TermId(2), TermId(3))];
        assert!(candidate_orders(&body).is_empty());
    }
}
