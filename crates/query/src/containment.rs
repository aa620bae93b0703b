//! CQ containment, CQ cores and UCQ minimisation.
//!
//! The EDBT'13 reformulation work prunes the UCQ it produces: a disjunct
//! whose answers are always contained in another disjunct's answers is
//! redundant. Containment of conjunctive queries is decided by the classic
//! homomorphism theorem [Chandra & Merlin 1977]: `q2 ⊑ q1` iff there is a
//! homomorphism from `q1`'s body into `q2`'s body mapping `q1`'s head onto
//! `q2`'s head. The store is evaluated without constraints (they are
//! compiled into the query), so this plain containment is exactly answer
//! containment of two disjuncts.
//!
//! [`minimize_union`] is the pass every reformulated union goes through:
//! drop the disjuncts another disjunct subsumes, then replace each survivor
//! by its *core* ([`minimize`]). One kernel decides all of it, built to be
//! cheap enough to run on every plan:
//!
//! * CQs are compiled once into flat arrays of integers with per-CQ variable
//!   numbers, so a search binds variables in a plain array with an undo
//!   trail and compares integers — no maps, no clones, no allocation per
//!   test;
//! * a pair reaches the search only if every *(position, constant)* token
//!   of the general CQ also occurs in the specific one — a necessary
//!   condition that an index on each CQ's rarest token evaluates without
//!   looking at most pairs, so a union with nothing to prune costs one sweep
//!   over its constants;
//! * the search maps the most constrained atom first;
//! * the whole pass spends at most 64 steps per atom of the union (one step
//!   is one candidate pair looked at or one atom-onto-atom attempt). When the
//!   budget runs out the pass stops where it is: whatever it has not proven
//!   redundant stays, so the result is always equivalent to the input, only
//!   less small.
//!
//! Id intervals ([`PTerm::Range`]) take part: an interval of the general CQ
//! maps onto a constant inside it or onto a narrower interval at the same
//! position, so interval-encoded unions minimise like classic ones. An
//! interval stands for an unnamed value, and two of them need not be equal:
//! a variable maps onto one *occurrence* of an interval, all of its own
//! occurrences onto the same one.
//!
//! An interval is compared with a constant by id, so both must come from one
//! id space. A reformulated union's do not when the store is interval
//! encoded — its constants are still dictionary ids, to be transported by the
//! caller, its intervals already are the store's — and
//! [`minimize_union_with`] takes the transport to see each constant where the
//! intervals live.

use crate::ast::{Cq, PTerm, Ucq};
use crate::var::Var;
use rdfref_model::fxhash::FxHashMap;
use rdfref_model::TermId;

/// Steps [`minimize_union`] may spend per atom (and head) of its input: one
/// step is one candidate pair looked at or one atom-onto-atom attempt of a
/// search. The LUBM mix needs up to 4.3 steps per atom (Q09), the 7 921-CQ
/// product fragment of Example 1 needs 37; the rest is headroom, and what
/// bounds a hostile union (some 13 ns a step).
const WORK_PER_ATOM: u64 = 64;

/// "No such index" in the `u32` index chains below.
const NONE: u32 = u32::MAX;

/// One position of a compiled CQ. Variables are numbered per CQ, in order of
/// first occurrence (head first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok {
    Var(u32),
    Const(TermId),
    Range(TermId, TermId),
}

/// Where one compiled CQ lives in [`Compiled`]'s arrays.
#[derive(Debug, Clone, Copy)]
struct Flat {
    /// Offset and length of the head in `heads`, and how many distinct
    /// variables it holds (they are numbered first).
    head: usize,
    arity: usize,
    head_vars: usize,
    /// Offset and length of the body in `atoms`, and of its search order in
    /// `orders`.
    atoms: usize,
    size: usize,
    /// How many distinct variables it holds.
    nvars: usize,
}

/// CQs compiled into flat arrays, one after the other.
struct Compiled<'q> {
    /// Constant → its id in the space the intervals are in.
    encode: &'q dyn Fn(TermId) -> TermId,
    heads: Vec<Tok>,
    atoms: Vec<[Tok; 3]>,
    /// Per CQ, its atoms most-constrained-first (indices into its own body;
    /// `NONE`s until `plan` fixed the order).
    orders: Vec<u32>,
    /// Scratch: the variables of the CQ being compiled, by number.
    names: Vec<&'q Var>,
    /// Scratch: is the variable bound by the head or an already ordered
    /// atom?
    bound: Vec<bool>,
    /// Where `nth` put the disjuncts it has compiled.
    disjuncts: Vec<Option<Flat>>,
}

/// Constants and intervals share an id space.
fn same_space(c: TermId) -> TermId {
    c
}

impl<'q> Compiled<'q> {
    /// Room for `disjuncts` lazily compiled CQs (see `nth`).
    fn new(encode: &'q dyn Fn(TermId) -> TermId, disjuncts: usize) -> Self {
        Compiled {
            encode,
            heads: Vec::new(),
            atoms: Vec::new(),
            orders: Vec::new(),
            names: Vec::new(),
            bound: Vec::new(),
            disjuncts: vec![None; disjuncts],
        }
    }

    fn tok(&mut self, term: &'q PTerm) -> Tok {
        match term {
            PTerm::Const(c) => Tok::Const((self.encode)(*c)),
            PTerm::Range(lo, hi) => Tok::Range(*lo, *hi),
            PTerm::Var(v) => {
                let known = self.names.iter().position(|n| *n == v);
                Tok::Var(known.unwrap_or_else(|| {
                    self.names.push(v);
                    self.names.len() - 1
                }) as u32)
            }
        }
    }

    /// Compile `cq`.
    fn push(&mut self, cq: &'q Cq) -> Flat {
        self.names.clear();
        let (head, atoms) = (self.heads.len(), self.atoms.len());
        for term in &cq.head {
            let tok = self.tok(term);
            self.heads.push(tok);
        }
        let head_vars = self.names.len();
        for atom in &cq.body {
            let toks = [self.tok(&atom.s), self.tok(&atom.p), self.tok(&atom.o)];
            self.atoms.push(toks);
        }
        self.orders.resize(self.atoms.len(), NONE);
        Flat {
            head,
            arity: cq.head.len(),
            head_vars,
            atoms,
            size: cq.body.len(),
            nvars: self.names.len(),
        }
    }

    /// The order `cq`'s atoms are searched in, fixed on first use: greedily
    /// the atom with the most positions that are constants or variables
    /// already bound (by the head or an earlier atom).
    fn plan(&mut self, cq: Flat) {
        let order = &mut self.orders[cq.atoms..][..cq.size];
        if order.first().is_none_or(|&first| first != NONE) {
            return;
        }
        let body = &self.atoms[cq.atoms..][..cq.size];
        self.bound.clear();
        self.bound.resize(cq.nvars, false);
        self.bound[..cq.head_vars].fill(true);
        for placed in 0..cq.size {
            let bound = &self.bound;
            let fixed = |atom: &[Tok; 3]| {
                let is_fixed = |t: &&Tok| match t {
                    Tok::Var(v) => bound[*v as usize],
                    Tok::Const(_) | Tok::Range(..) => true,
                };
                atom.iter().filter(is_fixed).count()
            };
            let next = (0..cq.size as u32)
                .filter(|i| !order[..placed].contains(i))
                .max_by_key(|&i| (fixed(&body[i as usize]), std::cmp::Reverse(i)));
            let Some(next) = next else { break };
            order[placed] = next;
            for tok in body[next as usize] {
                if let Tok::Var(v) = tok {
                    self.bound[v as usize] = true;
                }
            }
        }
    }

    /// `cqs[i]`, compiled on first use (`disjuncts` holds a slot for each).
    fn nth(&mut self, cqs: &'q [Cq], i: usize) -> Flat {
        match self.disjuncts[i] {
            Some(flat) => flat,
            None => {
                let flat = self.push(&cqs[i]);
                self.disjuncts[i] = Some(flat);
                flat
            }
        }
    }

    fn order(&self, cq: Flat) -> &[u32] {
        &self.orders[cq.atoms..][..cq.size]
    }
}

/// The containment kernel: the state of one homomorphism search and the
/// work budget. Every buffer is reused from test to test.
struct Kernel {
    /// What each variable of the general CQ is mapped to, and where that
    /// is (which only tells interval occurrences apart).
    bind: Vec<Option<(Tok, u32)>>,
    /// The variables bound so far, in binding order.
    trail: Vec<u32>,
    /// Scratch of `core`: the atom order of one removal test.
    order: Vec<u32>,
    /// Steps left.
    budget: u64,
}

impl Kernel {
    fn new(budget: u64) -> Self {
        Kernel {
            bind: Vec::new(),
            trail: Vec::new(),
            order: Vec::new(),
            budget,
        }
    }

    /// Map `g` (a position of the general CQ) onto `s`, position number `at`
    /// of the specific one.
    #[inline]
    fn unify(&mut self, g: Tok, s: Tok, at: u32) -> bool {
        match g {
            Tok::Const(_) => g == s,
            Tok::Range(lo, hi) => match s {
                Tok::Const(c) => lo <= c && c < hi,
                Tok::Range(l, h) => lo <= l && h <= hi,
                Tok::Var(_) => false,
            },
            Tok::Var(v) => match self.bind[v as usize] {
                Some((image, place)) => image == s && (place == at || !matches!(s, Tok::Range(..))),
                None => {
                    self.bind[v as usize] = Some((s, at));
                    self.trail.push(v);
                    true
                }
            },
        }
    }

    /// Map the atoms `order` of `g` into the atoms of `s` not marked in
    /// `dead`, extending the current bindings. `false` also when the budget
    /// ran out.
    fn extend(&mut self, c: &Compiled, g: Flat, order: &[u32], s: Flat, dead: &[bool]) -> bool {
        let Some((&first, rest)) = order.split_first() else {
            return true;
        };
        let [gs, gp, go] = c.atoms[g.atoms + first as usize];
        for (target, &[ts, tp, to]) in c.atoms[s.atoms..][..s.size].iter().enumerate() {
            if dead.get(target).copied().unwrap_or(false) {
                continue;
            }
            if self.budget == 0 {
                return false;
            }
            self.budget -= 1;
            let mark = self.trail.len();
            let at = 3 * (s.atoms + target) as u32;
            // The property first: mostly a constant, and the likeliest to
            // differ.
            if self.unify(gp, tp, at + 1)
                && self.unify(go, to, at + 2)
                && self.unify(gs, ts, at)
                && self.extend(c, g, rest, s, dead)
            {
                return true;
            }
            for v in self.trail.drain(mark..) {
                self.bind[v as usize] = None;
            }
        }
        false
    }

    /// Is there a homomorphism from `g` into `s` without its `dead` atoms
    /// that maps the head positionally, taking `g`'s atoms in `order`?
    fn hom(&mut self, c: &Compiled, g: Flat, order: &[u32], s: Flat, dead: &[bool]) -> bool {
        if g.arity != s.arity {
            return false;
        }
        self.bind.clear();
        self.bind.resize(g.nvars, None);
        self.trail.clear();
        let heads = c.heads[g.head..][..g.arity].iter().zip(&c.heads[s.head..]);
        for (k, (&gh, &sh)) in heads.enumerate() {
            // Head positions count down from the top, clear of the body's.
            if !self.unify(gh, sh, NONE - k as u32) {
                return false;
            }
        }
        self.extend(c, g, order, s, dead)
    }

    /// `specific ⊑ general`?
    fn subsumes(&mut self, c: &mut Compiled, general: Flat, specific: Flat) -> bool {
        c.plan(general);
        self.hom(c, general, c.order(general), specific, &[])
    }

    /// Mark in `dead` (one flag per atom, all clear on entry) the atoms of
    /// `cq` outside its core: an atom goes when the query maps into what is
    /// left without it. One pass over the atoms is enough — an atom that
    /// cannot go now cannot go once others went, since the query still maps
    /// onto what is left.
    fn core(&mut self, c: &mut Compiled, cq: Flat, dead: &mut [bool]) {
        c.plan(cq);
        let mut live = cq.size;
        let mut order = std::mem::take(&mut self.order);
        for atom in 0..cq.size {
            if live == 1 || self.budget == 0 {
                break;
            }
            // The atom to remove goes first: it is the only one the identity
            // does not place.
            order.clear();
            order.push(atom as u32);
            let rest = c.order(cq).iter();
            order.extend(rest.filter(|&&a| a as usize != atom && !dead[a as usize]));
            dead[atom] = true;
            if self.hom(c, cq, &order, cq, dead) {
                live -= 1;
            } else {
                dead[atom] = false;
            }
        }
        self.order = order;
    }
}

/// Is there a homomorphism from `general` into `specific` that maps the head
/// positionally? If so, every answer of `specific` is an answer of
/// `general`: `specific ⊑ general`.
pub fn subsumes(general: &Cq, specific: &Cq) -> bool {
    let mut compiled = Compiled::new(&same_space, 0);
    let general = compiled.push(general);
    let specific = compiled.push(specific);
    Kernel::new(u64::MAX).subsumes(&mut compiled, general, specific)
}

/// Are the two CQs equivalent (mutual containment)?
pub fn equivalent(a: &Cq, b: &Cq) -> bool {
    let mut compiled = Compiled::new(&same_space, 0);
    let a = compiled.push(a);
    let b = compiled.push(b);
    let mut kernel = Kernel::new(u64::MAX);
    kernel.subsumes(&mut compiled, a, b) && kernel.subsumes(&mut compiled, b, a)
}

/// The core of `cq`: the equivalent query left when every atom the rest
/// makes redundant is dropped. Head variables stay bound — a query never
/// maps into a body that lost one.
pub fn minimize(cq: &Cq) -> Cq {
    let mut compiled = Compiled::new(&same_space, 0);
    let flat = compiled.push(cq);
    let mut dead = vec![false; cq.size()];
    Kernel::new(u64::MAX).core(&mut compiled, flat, &mut dead);
    without(cq, &dead)
}

/// Could some atom of `cq` map onto another one? Not if each differs from
/// every other in a constant — then `cq` is its own core, which is the common
/// case and spares compiling it.
fn may_fold(cq: &Cq) -> bool {
    let fits = |a: &PTerm, b: &PTerm| !matches!(a, PTerm::Const(_)) || a == b;
    cq.body.iter().enumerate().any(|(i, a)| {
        let onto = cq.body.iter().enumerate().filter(|(j, _)| *j != i);
        onto.into_iter()
            .any(|(_, b)| fits(&a.p, &b.p) && fits(&a.o, &b.o) && fits(&a.s, &b.s))
    })
}

/// `cq` without its `dead` atoms (the compiled form stays internal: what comes
/// out are the caller's own terms).
fn without(cq: &Cq, dead: &[bool]) -> Cq {
    let body = cq.body.iter().zip(dead).filter(|(_, &d)| !d);
    Cq::new_unchecked(cq.head.clone(), body.map(|(a, _)| a.clone()).collect())
}

/// The *(position, constant)* tokens of each disjunct and the index that
/// finds, for one disjunct, the kept disjuncts whose tokens are a subset of
/// its own.
///
/// A homomorphism maps a constant onto itself at the same position, so
/// `general` subsumes `specific` only if `general`'s tokens are among
/// `specific`'s. Every kept disjunct is filed under its rarest token: the
/// candidates for `specific` are then the few filed under one of *its*
/// tokens (and those without any token).
struct TokenIndex {
    /// Dense token numbers of all disjuncts, each disjunct's run sorted and
    /// free of duplicates.
    toks: Vec<u32>,
    /// Per disjunct: its run in `toks`.
    runs: Vec<(u32, u32)>,
    /// Per disjunct: one bit per token number mod 64.
    sigs: Vec<u64>,
    /// Per token number (slot 0: "no token"): the most recently kept
    /// disjunct filed under it.
    filed: Vec<u32>,
    /// Per disjunct: the disjunct filed before it under the same token.
    next: Vec<u32>,
    /// Per disjunct: the token number it is filed under.
    rarest: Vec<u32>,
}

impl TokenIndex {
    fn new(cqs: &[Cq]) -> TokenIndex {
        // Token 0 is "no token"; real tokens count from 1.
        let mut numbers: FxHashMap<u64, u32> = FxHashMap::default();
        numbers.reserve(cqs.len());
        let mut count: Vec<u32> = vec![0];
        let mut toks: Vec<u32> = Vec::new();
        let mut runs = Vec::with_capacity(cqs.len());
        let mut sigs = Vec::with_capacity(cqs.len());
        for cq in cqs {
            let start = toks.len();
            let head = cq.head.iter().enumerate().map(|(k, t)| (3 + k as u64, t));
            let body = cq
                .body
                .iter()
                .flat_map(|a| [(0, &a.s), (1, &a.p), (2, &a.o)]);
            for (slot, term) in head.chain(body) {
                if let PTerm::Const(c) = term {
                    let fresh = count.len() as u32;
                    let number = *numbers.entry(slot << 32 | u64::from(c.0)).or_insert(fresh);
                    if number == fresh {
                        count.push(0);
                    }
                    toks.push(number);
                }
            }
            let run = &mut toks[start..];
            run.sort_unstable();
            let mut len = 0;
            let mut sig = 0u64;
            for i in 0..run.len() {
                if i == 0 || run[i] != run[i - 1] {
                    run[len] = run[i];
                    len += 1;
                    count[run[i] as usize] += 1;
                    sig |= 1 << (run[i] % 64);
                }
            }
            toks.truncate(start + len);
            runs.push((start as u32, len as u32));
            sigs.push(sig);
        }
        let mut index = TokenIndex {
            toks,
            runs,
            sigs,
            filed: vec![NONE; count.len()],
            next: vec![NONE; cqs.len()],
            rarest: Vec::with_capacity(cqs.len()),
        };
        for i in 0..cqs.len() {
            let rarest = index.run(i).iter().min_by_key(|&&t| count[t as usize]);
            index.rarest.push(rarest.copied().unwrap_or(0));
        }
        index
    }

    fn run(&self, i: usize) -> &[u32] {
        let (start, len) = self.runs[i];
        &self.toks[start as usize..][..len as usize]
    }

    /// Are `g`'s tokens among `s`'s?
    fn covers(&self, s: usize, g: usize) -> bool {
        if self.sigs[g] & !self.sigs[s] != 0 {
            return false;
        }
        let mut have = self.run(s).iter();
        self.run(g).iter().all(|t| have.any(|h| h == t))
    }
}

/// Minimise a union: drop every disjunct another one subsumes, then replace
/// each survivor by its core. Survivors keep their input order.
///
/// The result is equivalent to the input. Up to the work budget (see the
/// module docs) it is also minimal, and then running the pass again changes
/// nothing.
pub fn minimize_union(ucq: Ucq) -> Ucq {
    minimize_union_with(ucq, &same_space)
}

/// [`minimize_union`] for a union whose intervals live in another id space
/// than its constants: `encode` takes a constant there. The result keeps the
/// input's constants as they are.
pub fn minimize_union_with(ucq: Ucq, encode: &dyn Fn(TermId) -> TermId) -> Ucq {
    let mut kernel = Kernel::new(work_budget(&ucq));
    minimize_within(ucq.cqs, encode, &mut kernel)
}

/// The steps minimising `ucq` may take.
fn work_budget(ucq: &Ucq) -> u64 {
    let atoms: usize = ucq.cqs.iter().map(|c| c.size() + 1).sum();
    WORK_PER_ATOM.saturating_mul(atoms as u64)
}

/// Minimise the union of `cqs` for as long as `kernel`'s budget lasts.
fn minimize_within(cqs: Vec<Cq>, encode: &dyn Fn(TermId) -> TermId, kernel: &mut Kernel) -> Ucq {
    let n = cqs.len();
    let mut compiled = Compiled::new(encode, n);
    let mut dropped = vec![false; n];

    if n > 1 {
        let mut index = TokenIndex::new(&cqs);
        // Fewest tokens first: a disjunct can only be subsumed by one with
        // no more tokens than it has, so the general ones are kept before
        // the disjuncts they subsume arrive.
        // (Mostly they all have as many: no sort then, and no sort buffer.)
        let mut sweep: Vec<u32> = (0..n as u32).collect();
        if !sweep.is_sorted_by_key(|&i| index.runs[i as usize].1) {
            sweep.sort_by_key(|&i| index.runs[i as usize].1);
        }
        'sweep: for &s in &sweep {
            let s = s as usize;
            // "No token" (0) after the disjunct's own tokens.
            for token in index.run(s).iter().copied().chain([0]) {
                let mut filed = index.filed[token as usize];
                while filed != NONE {
                    let g = filed as usize;
                    filed = index.next[g];
                    if kernel.budget == 0 {
                        break 'sweep;
                    }
                    kernel.budget -= 1;
                    if dropped[g] || !index.covers(s, g) {
                        continue;
                    }
                    let (general, specific) = (compiled.nth(&cqs, g), compiled.nth(&cqs, s));
                    if kernel.subsumes(&mut compiled, general, specific) {
                        dropped[s] = true;
                        continue 'sweep;
                    }
                    // Same tokens: it may be the other way round.
                    if index.runs[g].1 == index.runs[s].1
                        && kernel.subsumes(&mut compiled, specific, general)
                    {
                        dropped[g] = true;
                    }
                }
            }
            let under = index.rarest[s] as usize;
            index.next[s] = index.filed[under];
            index.filed[under] = s as u32;
        }
    }

    let mut cores: Vec<(usize, Cq)> = Vec::new();
    let mut dead: Vec<bool> = Vec::new();
    for (i, cq) in cqs.iter().enumerate() {
        if dropped[i] || kernel.budget == 0 || !may_fold(cq) {
            continue;
        }
        dead.clear();
        dead.resize(cq.size(), false);
        let flat = compiled.nth(&cqs, i);
        kernel.core(&mut compiled, flat, &mut dead);
        if dead.contains(&true) {
            cores.push((i, without(cq, &dead)));
        }
    }
    let mut cores = cores.into_iter().peekable();
    let survivors = cqs.into_iter().enumerate().filter(|(i, _)| !dropped[*i]);
    Ucq {
        cqs: survivors
            .map(|(i, cq)| cores.next_if(|(j, _)| *j == i).map_or(cq, |(_, core)| core))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Atom;

    fn v(n: &str) -> Var {
        Var::new(n)
    }
    fn c(n: u32) -> TermId {
        TermId(n)
    }
    fn range(lo: u32, hi: u32) -> PTerm {
        PTerm::Range(c(lo), c(hi))
    }

    #[test]
    fn identical_queries_subsume_both_ways() {
        let q = Cq::new(vec![v("x")], vec![Atom::new(v("x"), c(1), v("y"))]).unwrap();
        assert!(subsumes(&q, &q));
        assert!(equivalent(&q, &q));
    }

    #[test]
    fn adding_atoms_specializes() {
        let gen = Cq::new(vec![v("x")], vec![Atom::new(v("x"), c(1), v("y"))]).unwrap();
        let spec = Cq::new(
            vec![v("x")],
            vec![
                Atom::new(v("x"), c(1), v("y")),
                Atom::new(v("x"), c(2), c(9)),
            ],
        )
        .unwrap();
        assert!(subsumes(&gen, &spec));
        assert!(!subsumes(&spec, &gen));
    }

    #[test]
    fn constants_must_match() {
        let a = Cq::new(vec![v("x")], vec![Atom::new(v("x"), c(1), c(5))]).unwrap();
        let b = Cq::new(vec![v("x")], vec![Atom::new(v("x"), c(1), c(6))]).unwrap();
        assert!(!subsumes(&a, &b));
        assert!(!subsumes(&b, &a));
        // A variable generalizes a constant.
        let g = Cq::new(vec![v("x")], vec![Atom::new(v("x"), c(1), v("z"))]).unwrap();
        assert!(subsumes(&g, &a));
        assert!(!subsumes(&a, &g));
    }

    #[test]
    fn heads_constrain_the_homomorphism() {
        // Same body shape, different projected variable.
        let a = Cq::new(vec![v("x")], vec![Atom::new(v("x"), c(1), v("y"))]).unwrap();
        let b = Cq::new(vec![v("y")], vec![Atom::new(v("x"), c(1), v("y"))]).unwrap();
        assert!(!subsumes(&a, &b));
        // Bound-constant heads must agree.
        let ha = Cq::new_unchecked(
            vec![PTerm::Const(c(7))],
            vec![Atom::new(v("x"), c(1), v("y"))],
        );
        let hb = Cq::new_unchecked(
            vec![PTerm::Const(c(8))],
            vec![Atom::new(v("x"), c(1), v("y"))],
        );
        assert!(!subsumes(&ha, &hb));
        assert!(subsumes(&ha, &ha));
    }

    #[test]
    fn nontrivial_homomorphism_found() {
        // gen: (x p y), (y p z) — a path of 2.
        // spec: (a p a) — a self-loop; hom x,y,z ↦ a.
        let gen = Cq::new_unchecked(
            vec![],
            vec![
                Atom::new(v("x"), c(1), v("y")),
                Atom::new(v("y"), c(1), v("z")),
            ],
        );
        let spec = Cq::new_unchecked(vec![], vec![Atom::new(v("a"), c(1), v("a"))]);
        assert!(subsumes(&gen, &spec));
        assert!(!subsumes(&spec, &gen));
    }

    #[test]
    fn search_backtracks_out_of_a_wrong_first_choice() {
        // (x p y) maps onto (a p b) first, which strands (y q z): the search
        // must undo y ↦ b and take (a p c).
        let gen = Cq::new_unchecked(
            vec![],
            vec![
                Atom::new(v("x"), c(1), v("y")),
                Atom::new(v("y"), c(2), v("z")),
            ],
        );
        let spec = Cq::new_unchecked(
            vec![],
            vec![
                Atom::new(v("a"), c(1), v("b")),
                Atom::new(v("a"), c(1), v("c")),
                Atom::new(v("c"), c(2), v("d")),
            ],
        );
        assert!(subsumes(&gen, &spec));
    }

    #[test]
    fn an_interval_maps_onto_what_lies_inside_it() {
        let over =
            |o: PTerm| Cq::new_unchecked(vec![v("x").into()], vec![Atom::new(v("x"), c(1), o)]);
        let general = over(range(10, 20));
        // Constants: inside, both boundaries (half-open), outside.
        assert!(subsumes(&general, &over(c(15).into())));
        assert!(subsumes(&general, &over(c(10).into())));
        assert!(!subsumes(&general, &over(c(20).into())));
        assert!(!subsumes(&general, &over(c(9).into())));
        // Intervals: identical, narrower, overlapping, wider.
        assert!(subsumes(&general, &over(range(10, 20))));
        assert!(subsumes(&general, &over(range(12, 20))));
        assert!(!subsumes(&general, &over(range(15, 25))));
        assert!(!subsumes(&general, &over(range(5, 25))));
        // Never the other way round, and never onto a variable.
        assert!(!subsumes(&over(c(15).into()), &general));
        assert!(!subsumes(&general, &over(v("o").into())));
    }

    #[test]
    fn a_variable_maps_onto_one_occurrence_of_an_interval() {
        let specific = Cq::new_unchecked(
            vec![],
            vec![
                Atom::new(v("x"), c(1), range(10, 20)),
                Atom::new(v("y"), c(2), range(10, 20)),
            ],
        );
        let lone = Cq::new_unchecked(vec![], vec![Atom::new(v("x"), c(1), v("u"))]);
        assert!(subsumes(&lone, &specific));
        // A join on ?u is not implied: the two intervals stand for two values.
        let joined = Cq::new_unchecked(
            vec![],
            vec![
                Atom::new(v("x"), c(1), v("u")),
                Atom::new(v("y"), c(2), v("u")),
            ],
        );
        assert!(!subsumes(&joined, &specific));
        // Two atoms folding onto one meet the same occurrence twice.
        let folded = Cq::new_unchecked(
            vec![],
            vec![
                Atom::new(v("x"), c(1), v("u")),
                Atom::new(v("z"), c(1), v("u")),
            ],
        );
        assert!(subsumes(&folded, &specific));
    }

    fn union(cqs: Vec<Cq>) -> Ucq {
        Ucq::new(cqs).unwrap()
    }

    #[test]
    fn union_loses_subsumed_disjuncts_and_keeps_input_order() {
        let general = Cq::new(vec![v("x")], vec![Atom::new(v("x"), c(1), v("y"))]).unwrap();
        let specific = Cq::new(
            vec![v("x")],
            vec![
                Atom::new(v("x"), c(1), v("y")),
                Atom::new(v("x"), c(2), v("z")),
            ],
        )
        .unwrap();
        let other = Cq::new(vec![v("x")], vec![Atom::new(v("x"), c(3), v("y"))]).unwrap();
        let minimal = minimize_union(union(vec![other.clone(), specific, general.clone()]));
        assert_eq!(minimal.cqs, vec![other, general]);
    }

    #[test]
    fn union_keeps_one_of_an_equivalent_pair() {
        let a = Cq::new(vec![v("x")], vec![Atom::new(v("x"), c(1), v("y"))]).unwrap();
        // Same query with a renamed non-distinguished variable.
        let b = Cq::new(vec![v("x")], vec![Atom::new(v("x"), c(1), v("w"))]).unwrap();
        assert_eq!(minimize_union(union(vec![a.clone(), b])).cqs, vec![a]);
    }

    #[test]
    fn union_drops_a_kept_disjunct_for_a_later_one_with_the_same_tokens() {
        // Both have the one token (p, 1); the self-loop comes first and is
        // the specific one.
        let looped = Cq::new_unchecked(vec![], vec![Atom::new(v("a"), c(1), v("a"))]);
        let edge = Cq::new_unchecked(vec![], vec![Atom::new(v("a"), c(1), v("b"))]);
        assert_eq!(
            minimize_union(union(vec![looped, edge.clone()])).cqs,
            vec![edge]
        );
    }

    #[test]
    fn union_survivors_are_cores() {
        // The type atom is implied by nothing here, but (x p f) folds onto
        // (x p y); the second disjunct is then subsumed by the first's core.
        let wide = Cq::new(
            vec![v("x"), v("y")],
            vec![
                Atom::new(v("x"), c(1), v("f")),
                Atom::new(v("x"), c(1), v("y")),
            ],
        )
        .unwrap();
        let narrow = Cq::new(
            vec![v("x"), v("y")],
            vec![
                Atom::new(v("x"), c(0), c(9)),
                Atom::new(v("x"), c(1), v("y")),
            ],
        )
        .unwrap();
        let minimal = minimize_union(union(vec![narrow, wide]));
        assert_eq!(minimal.len(), 1);
        assert_eq!(minimal.cqs[0].body, vec![Atom::new(v("x"), c(1), v("y"))]);
        assert_eq!(minimize_union(minimal.clone()), minimal, "idempotent");
    }

    #[test]
    fn interval_disjuncts_swallow_the_constants_inside_them() {
        let over =
            |o: PTerm| Cq::new_unchecked(vec![v("x").into()], vec![Atom::new(v("x"), c(1), o)]);
        let minimal = minimize_union(union(vec![
            over(c(12).into()),
            over(range(10, 20)),
            over(range(11, 13)),
            over(c(30).into()),
        ]));
        assert_eq!(minimal.cqs, vec![over(range(10, 20)), over(c(30).into())]);
    }

    #[test]
    fn a_constant_meets_an_interval_in_the_interval_s_id_space() {
        let over =
            |o: PTerm| Cq::new_unchecked(vec![v("x").into()], vec![Atom::new(v("x"), c(1), o)]);
        // Dictionary id 12 is store id 30 and the other way round: it is 30
        // that lies inside [10, 20), and it comes back out as 30.
        let encode = |id: TermId| match id.0 {
            12 => c(30),
            30 => c(12),
            _ => id,
        };
        let input = || {
            union(vec![
                over(c(12).into()),
                over(range(10, 20)),
                over(c(30).into()),
            ])
        };
        assert_eq!(
            minimize_union_with(input(), &encode).cqs,
            vec![over(c(12).into()), over(range(10, 20))]
        );
        assert_eq!(
            minimize_union(input()).cqs,
            vec![over(range(10, 20)), over(c(30).into())]
        );
    }

    #[test]
    fn minimize_drops_redundant_atoms() {
        // (x p y), (x p z): the second atom is a homomorphic duplicate of
        // the first (z ↦ y), so the core is one atom.
        let q = Cq::new(
            vec![v("x")],
            vec![
                Atom::new(v("x"), c(1), v("y")),
                Atom::new(v("x"), c(1), v("z")),
            ],
        )
        .unwrap();
        let m = minimize(&q);
        assert_eq!(m.size(), 1);
    }

    #[test]
    fn minimize_keeps_necessary_atoms() {
        // A genuine path query cannot be shrunk when the middle variable is
        // projected.
        let q = Cq::new(
            vec![v("x"), v("y"), v("z")],
            vec![
                Atom::new(v("x"), c(1), v("y")),
                Atom::new(v("y"), c(1), v("z")),
            ],
        )
        .unwrap();
        assert_eq!(minimize(&q).size(), 2);
        // (x p y) folds onto (x p w) (y is unprojected), so the core is the
        // 2-atom chain; the chain itself is irreducible.
        let q2 = Cq::new(
            vec![v("x")],
            vec![
                Atom::new(v("x"), c(1), v("y")),
                Atom::new(v("x"), c(1), v("w")),
                Atom::new(v("w"), c(2), v("u")),
            ],
        )
        .unwrap();
        let m = minimize(&q2);
        assert_eq!(m.size(), 2);
        assert!(m.body.iter().any(|a| a.p == PTerm::Const(c(2))));
    }

    #[test]
    fn minimize_never_unbinds_head_vars() {
        let q = Cq::new(
            vec![v("y")],
            vec![
                Atom::new(v("x"), c(1), v("y")),
                Atom::new(v("x"), c(1), v("z")),
            ],
        )
        .unwrap();
        let m = minimize(&q);
        // The kept atom must contain y.
        assert!(m.body.iter().any(|a| a.var_set().contains(&v("y"))));
    }

    /// The cost of the pass, in steps — the wall-clock figures (EXPERIMENTS
    /// E14) follow from these at some 13 ns a step.
    #[test]
    fn a_union_with_nothing_to_prune_takes_no_step() {
        // 512 single-atom disjuncts, each over a class of its own: every one
        // is filed under its class, so no pair is even looked at, and a
        // single atom has nothing to fold.
        let member = |i: u32| Cq::new(vec![v("x")], vec![Atom::new(v("x"), c(0), c(100 + i))]);
        let chain = union((0..512).map(|i| member(i).unwrap()).collect());
        let budget = work_budget(&chain);
        assert_eq!(budget, 512 * 2 * WORK_PER_ATOM);
        let mut kernel = Kernel::new(budget);
        let minimal = minimize_within(chain.cqs.clone(), &same_space, &mut kernel);
        assert_eq!(minimal, chain);
        assert_eq!(kernel.budget, budget, "steps were spent");
    }

    #[test]
    fn an_exhausted_budget_keeps_what_it_has_not_proven_redundant() {
        // Nine random edges over one property among six projected variables
        // per disjunct: every pair passes the token filter and takes a
        // search, which is more than the budget pays for. The first disjunct
        // is there twice, and the third (it less an edge) subsumes it.
        let edges = |k: u64, n: usize| {
            let mut state = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) + 1;
            let mut node = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                v(&format!("v{}", (state >> 33) % 6))
            };
            let body = (0..n).map(|_| Atom::new(node(), c(1), node()));
            let head = (0..6).map(|i| v(&format!("v{i}")).into());
            Cq::new_unchecked(head.collect(), body.collect())
        };
        let mut cqs = vec![edges(0, 9), edges(0, 9), edges(0, 8)];
        cqs.extend((1..600).map(|k| edges(k, 9)));
        let input = union(cqs);
        let mut kernel = Kernel::new(work_budget(&input));
        let minimal = minimize_within(input.cqs.clone(), &same_space, &mut kernel);
        assert_eq!(kernel.budget, 0, "the pass stops when its steps are spent");
        assert_eq!(minimal.cqs[0], input.cqs[2], "the work it paid for is done");
        assert!(
            minimal.len() > 300,
            "the budget cannot have paid for the rest"
        );
        for cq in input.cqs.iter().step_by(29) {
            assert!(minimal.cqs.iter().any(|kept| subsumes(kept, cq)));
        }
    }
}
