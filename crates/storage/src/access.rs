//! One access path per atom: which permutation index answers it, and what
//! fixes each of that index's three key levels.
//!
//! An [`Access`] is compiled once per atom (or [`Pattern`]) and read by
//! three drivers: a scan reads the runs of its constant prefix
//! ([`Access::runs`]), a bind join fills the prefix from each probing row
//! first ([`Access::key`]), and the leapfrog seeks level by level, with
//! every variable and interval level bound to one of its slots. One rule
//! picks the index ([`Access::best`]): the most leading key levels fixed
//! before the read, then an interval on the level after them, then SPO /
//! POS / OSP order.

use crate::relation::Relation;
use crate::store::{Bound, Order, Pattern, Store};
use rdfref_model::TermId;
use rdfref_query::ast::{Atom, PTerm};
use rdfref_query::Var;

/// What fixes one key level of an [`Access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Level {
    /// A constant.
    Const(TermId),
    /// A value bound before the level is read: a column of the bind join's
    /// probing row, or a leapfrog slot.
    Bound(usize),
    /// An id interval `[lo, hi)`.
    Range(TermId, TermId),
    /// Output column `j` of the access. A column at two levels is a
    /// repeated variable: the later level must equal the first. (While the
    /// leapfrog plans, `j` is the variable's rank in its global order.)
    Free(usize),
}

impl Level {
    /// The level of a constant or interval position; a variable is the
    /// caller's to place.
    fn of(t: &PTerm) -> Result<Level, &Var> {
        match t {
            PTerm::Const(c) => Ok(Level::Const(*c)),
            PTerm::Range(lo, hi) => Ok(Level::Range(*lo, *hi)),
            PTerm::Var(v) => Err(v),
        }
    }

    /// Is the level's value known before the index is read?
    fn is_fixed(self) -> bool {
        matches!(self, Level::Const(_) | Level::Bound(_))
    }
}

/// One atom's compiled access: a permutation index and what fixes each of
/// its key levels, in key order.
#[derive(Debug, Clone)]
pub(crate) struct Access {
    pub(crate) order: Order,
    pub(crate) levels: [Level; 3],
}

impl Access {
    /// The best feasible index for levels given in `s, p, o` position order:
    /// the most leading fixed levels, then an interval on the next level,
    /// ties to the earliest of SPO / POS / OSP. `None` when no index is
    /// `feasible`.
    pub(crate) fn best(spo: [Level; 3], feasible: impl Fn(&[Level; 3]) -> bool) -> Option<Access> {
        let score = |a: &Access| {
            let fixed = a.fixed_len();
            let interval = matches!(a.levels.get(fixed), Some(Level::Range(..)));
            (fixed, interval)
        };
        let mut best: Option<Access> = None;
        for order in Order::ALL {
            let access = Access {
                order,
                levels: order.permute(spo),
            };
            if feasible(&access.levels) && best.as_ref().is_none_or(|b| score(&access) > score(b)) {
                best = Some(access);
            }
        }
        best
    }

    /// The best index for levels given in `s, p, o` position order.
    fn new(spo: [Level; 3]) -> Access {
        Access::best(spo, |_| true).unwrap_or(Access {
            order: Order::Spo,
            levels: spo,
        })
    }

    /// The access of `atom` probed with values for the variables `bound`
    /// (none for a scan), and its output columns: the atom's other distinct
    /// variables, in `s, p, o` position order.
    pub(crate) fn bind(bound: &[Var], atom: &Atom) -> (Access, Vec<Var>) {
        let mut columns: Vec<Var> = Vec::new();
        let spo = atom.positions().map(|t| {
            Level::of(t).unwrap_or_else(|v| match bound.iter().position(|b| b == v) {
                Some(i) => Level::Bound(i),
                None => Level::Free(columns.iter().position(|c| c == v).unwrap_or_else(|| {
                    columns.push(v.clone());
                    columns.len() - 1
                })),
            })
        });
        (Access::new(spo), columns)
    }

    /// The access of an id pattern; its wildcards are distinct columns.
    pub(crate) fn pattern(pat: &Pattern) -> Access {
        let mut free = 0;
        Access::new([pat.s, pat.p, pat.o].map(|b| match b {
            Bound::Const(c) => Level::Const(c),
            Bound::Range(lo, hi) => Level::Range(lo, hi),
            Bound::Any => {
                free += 1;
                Level::Free(free - 1)
            }
        }))
    }

    /// The leapfrog's access of `atom`: each variable is `Free` at its rank
    /// in `var_order`, and an index is feasible when those ranks ascend in
    /// key order. `None` if no index is.
    pub(crate) fn rank(atom: &Atom, var_order: &[Var]) -> Option<Access> {
        let mut spo = [Level::Free(0); 3];
        for (level, t) in spo.iter_mut().zip(atom.positions()) {
            *level = match Level::of(t) {
                Ok(level) => level,
                Err(v) => Level::Free(var_order.iter().position(|u| u == v)?),
            };
        }
        Access::best(spo, |levels| {
            let ranks = levels.iter().filter_map(|l| match l {
                Level::Free(r) => Some(*r),
                _ => None,
            });
            ranks.clone().zip(ranks.skip(1)).all(|(a, b)| a < b)
        })
    }

    /// How many leading levels are fixed before the index is read.
    fn fixed_len(&self) -> usize {
        self.levels.iter().take_while(|l| l.is_fixed()).count()
    }

    /// The probe key: each constant level, and each bound level's value in
    /// `bound`, at its key position; zero elsewhere.
    pub(crate) fn key(&self, bound: &[TermId]) -> [TermId; 3] {
        self.levels.map(|l| match l {
            Level::Const(c) => c,
            Level::Bound(b) => bound.get(b).copied().unwrap_or(TermId(0)),
            Level::Range(..) | Level::Free(_) => TermId(0),
        })
    }

    /// Does `k` match levels `from..` under the probe `key`?
    fn matches(&self, from: usize, key: &[TermId; 3], k: &[TermId; 3]) -> bool {
        (from..3).all(|i| match self.levels[i] {
            Level::Const(_) | Level::Bound(_) => k[i] == key[i],
            Level::Range(lo, hi) => lo <= k[i] && k[i] < hi,
            Level::Free(j) => k[i] == k[self.first(j)],
        })
    }

    /// The first level holding output column `j`.
    fn first(&self, j: usize) -> usize {
        self.levels
            .iter()
            .position(|l| *l == Level::Free(j))
            .unwrap_or(0)
    }

    /// Hand `f` the keys that match every level under the probe `key`, as
    /// borrowed runs of the access's index in index order: one
    /// `partition_point` read of the fixed prefix (bounded by an interval
    /// on the next level), at most one run per index bucket. Levels the
    /// read cannot serve (a later interval, a repeated variable) split each
    /// run into its maximal matching sub-slices. No run is empty.
    pub(crate) fn runs<'s>(
        &self,
        store: &'s Store,
        key: &[TermId; 3],
        f: &mut dyn FnMut(&'s [[TermId; 3]]),
    ) {
        let index = store.index(self.order);
        let fixed = self.fixed_len();
        let mut residual = |from: usize, run: &'s [[TermId; 3]]| {
            let unchecked =
                |i: usize| matches!(self.levels[i], Level::Free(j) if self.first(j) == i);
            if (from..3).all(unchecked) {
                f(run)
            } else {
                run.split(|k| !self.matches(from, key, k))
                    .filter(|piece| !piece.is_empty())
                    .for_each(&mut *f)
            }
        };
        match self.levels.get(fixed) {
            Some(&Level::Range(lo, hi)) => {
                let (mut from, mut to) = (*key, *key);
                from[fixed] = lo;
                to[fixed] = hi;
                index.for_bounds(&from[..=fixed], &to[..=fixed], &mut |run| {
                    residual(fixed + 1, run)
                });
            }
            _ => index.for_prefix(&key[..fixed], &mut |run| residual(fixed, run)),
        }
    }

    /// Append `prefix ++ (k's output columns)` to `out` for every key `k` of
    /// `run` — a run [`Access::runs`] handed out, so every key matches.
    pub(crate) fn emit(&self, run: &[[TermId; 3]], prefix: &[TermId], out: &mut Relation) {
        let mut cols = [0usize; 3];
        let mut n = 0;
        while n < 3 && self.levels.contains(&Level::Free(n)) {
            cols[n] = self.first(n);
            n += 1;
        }
        out.extend_from_keys(prefix, run.iter(), &cols[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfref_model::EncodedTriple;

    /// The index every `Any` / `Const` / `Range` pattern shape reads, in
    /// `s, p, o` order (`A` any, `C` constant, `R` interval). A constant
    /// outranks an interval: `? [p) o` and `s [p) o` read OSP, whose
    /// leading object level is fixed where POS's property level is only
    /// bounded, as does a bind join probing `(?x, [p), bound ?y)`; a
    /// subject interval beside a fixed position reads the index that fixes
    /// that position first.
    #[test]
    fn every_pattern_shape_reads_one_pinned_index() {
        use Order::{Osp, Pos, Spo};
        #[rustfmt::skip]
        let table = [
            ("AAA", Spo), ("AAC", Osp), ("AAR", Osp),
            ("ACA", Pos), ("ACC", Pos), ("ACR", Pos),
            ("ARA", Pos), ("ARC", Osp), ("ARR", Pos),
            ("CAA", Spo), ("CAC", Osp), ("CAR", Spo),
            ("CCA", Spo), ("CCC", Spo), ("CCR", Spo),
            ("CRA", Spo), ("CRC", Osp), ("CRR", Spo),
            ("RAA", Spo), ("RAC", Osp), ("RAR", Spo),
            ("RCA", Pos), ("RCC", Pos), ("RCR", Pos),
            ("RRA", Spo), ("RRC", Osp), ("RRR", Spo),
        ];
        let bound = |c: u8| match c {
            b'A' => Bound::Any,
            b'C' => Bound::Const(TermId(5)),
            _ => Bound::Range(TermId(3), TermId(9)),
        };
        for (shape, order) in table {
            let [s, p, o] = [0, 1, 2].map(|i| bound(shape.as_bytes()[i]));
            let access = Access::pattern(&Pattern { s, p, o });
            assert_eq!(access.order, order, "shape {shape}");
        }
    }

    #[test]
    fn a_bind_join_fixes_its_bound_columns_first() {
        let (x, y) = (Var::new("x"), Var::new("y"));
        // (?x p ?y) with ?y bound: POS fixes two levels [p, y], OSP one.
        let atom = Atom::new(x.clone(), TermId(7), y.clone());
        let (access, columns) = Access::bind(std::slice::from_ref(&y), &atom);
        assert_eq!(access.order, Order::Pos);
        assert_eq!(columns, vec![x.clone()]);
        assert_eq!(
            access.key(&[TermId(42)]),
            [TermId(7), TermId(42), TermId(0)]
        );
        // An interval property with a bound object: OSP fixes [o], POS only
        // bounds [p); the fixed level wins.
        let atom = Atom::new(x, PTerm::Range(TermId(1), TermId(4)), y.clone());
        let (access, _) = Access::bind(&[y], &atom);
        assert_eq!(access.order, Order::Osp);
    }

    #[test]
    fn runs_filter_repeated_variables_and_later_intervals() {
        let store = Store::from_triples_with_bucket_target(
            &(0..200u32)
                .map(|i| EncodedTriple::new(TermId(i % 9), TermId(i % 4), TermId(i % 7)))
                .collect::<Vec<_>>(),
            8,
        );
        let (x, y) = (Var::new("x"), Var::new("y"));
        for atom in [
            Atom::new(x.clone(), TermId(1), x.clone()),
            Atom::new(x.clone(), y.clone(), PTerm::Range(TermId(2), TermId(5))),
            Atom::new(PTerm::Range(TermId(1), TermId(6)), TermId(2), y.clone()),
        ] {
            let (access, _) = Access::bind(&[], &atom);
            let mut got = Vec::new();
            access.runs(&store, &access.key(&[]), &mut |run| {
                assert!(!run.is_empty());
                got.extend(run.iter().map(|k| access.order.unkey(k)));
            });
            got.sort_unstable();
            let want: Vec<EncodedTriple> = store
                .iter()
                .filter(|t| {
                    let ok = |term: &PTerm, v: TermId| match term {
                        PTerm::Const(c) => *c == v,
                        PTerm::Range(lo, hi) => *lo <= v && v < *hi,
                        PTerm::Var(_) => true,
                    };
                    ok(&atom.s, t.s)
                        && ok(&atom.p, t.p)
                        && ok(&atom.o, t.o)
                        && (atom.s != atom.o || t.s == t.o)
                })
                .collect();
            assert_eq!(got, want, "{atom:?}");
        }
    }
}
