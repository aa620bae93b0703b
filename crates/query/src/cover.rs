//! Query covers — the search space of JUCQ reformulations.
//!
//! A *cover* of a CQ `q` with atoms `t1, …, tn` is a set of non-empty,
//! possibly overlapping fragments (atom groups) whose union is all of
//! `{t1, …, tn}` (§4 of the paper, "Query covering"). Every cover yields an
//! equivalent query answering strategy: reformulate each fragment CQ into a
//! UCQ and join the results.
//!
//! Two distinguished covers correspond to the prior reformulation languages:
//! * [`Cover::one_fragment`] — the whole query in a single fragment ⇒ the
//!   classic UCQ reformulation;
//! * [`Cover::singletons`] — one fragment per atom ⇒ the SCQ reformulation
//!   of Thomazo [IJCAI'13].

use crate::ast::Cq;
use crate::error::{QueryError, Result};
use crate::var::Var;
use rdfref_model::fxhash::FxHashSet;
use std::fmt;

/// A cover: fragments of atom indices into the covered query's body.
///
/// Fragments are kept sorted (both internally and between each other) so
/// covers have a canonical representation: two equal covers compare equal.
///
/// ```
/// use rdfref_query::Cover;
/// // The paper's winning cover for its 6-atom Example 1.
/// let cover = Cover::new(vec![vec![0,2], vec![2,4], vec![1,3], vec![3,5]], 6).unwrap();
/// assert_eq!(cover.to_string(), "{{t1,t3}, {t2,t4}, {t3,t5}, {t4,t6}}");
/// assert!(!cover.is_scq());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cover {
    fragments: Vec<Vec<usize>>,
}

impl Cover {
    /// Build a cover over a query with `n_atoms` atoms, validating:
    /// fragments non-empty, indices in range, union = all atoms.
    pub fn new(mut fragments: Vec<Vec<usize>>, n_atoms: usize) -> Result<Cover> {
        for frag in &mut fragments {
            frag.sort_unstable();
            frag.dedup();
        }
        fragments.sort();
        fragments.dedup();
        let cover = Cover { fragments };
        cover.check(n_atoms)?;
        Ok(cover)
    }

    /// Does this cover fit a query with `n_atoms` atoms: fragments
    /// non-empty, and their union exactly atoms `0..n_atoms`? A cover
    /// records no atom count, so one built for another query fails here.
    pub fn check(&self, n_atoms: usize) -> Result<()> {
        if n_atoms == 0 {
            return Err(QueryError::InvalidCover {
                reason: "cannot cover an empty query".into(),
            });
        }
        let mut covered = vec![false; n_atoms];
        for frag in &self.fragments {
            if frag.is_empty() {
                return Err(QueryError::InvalidCover {
                    reason: "empty fragment".into(),
                });
            }
            for &i in frag {
                let Some(slot) = covered.get_mut(i) else {
                    return Err(QueryError::InvalidCover {
                        reason: format!("atom index {i} out of range (query has {n_atoms} atoms)"),
                    });
                };
                *slot = true;
            }
        }
        let missing: Vec<usize> = (0..n_atoms).filter(|&i| !covered[i]).collect();
        if !missing.is_empty() {
            return Err(QueryError::InvalidCover {
                reason: format!("atoms {missing:?} not covered"),
            });
        }
        Ok(())
    }

    /// The singleton cover `{{t1}, …, {tn}}` (⇒ SCQ reformulation). This is
    /// also GCov's starting point.
    pub fn singletons(n_atoms: usize) -> Cover {
        Cover {
            fragments: (0..n_atoms).map(|i| vec![i]).collect(),
        }
    }

    /// The one-fragment cover `{{t1, …, tn}}` (⇒ UCQ reformulation).
    pub fn one_fragment(n_atoms: usize) -> Cover {
        Cover {
            fragments: vec![(0..n_atoms).collect()],
        }
    }

    /// The fragments (sorted atom-index lists).
    pub fn fragments(&self) -> &[Vec<usize>] {
        &self.fragments
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// True iff there are no fragments (never the case for a valid cover).
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }

    /// Is this the one-fragment (UCQ) cover for an `n`-atom query?
    pub fn is_ucq(&self, n_atoms: usize) -> bool {
        self.fragments.len() == 1 && self.fragments[0].len() == n_atoms
    }

    /// Is this the singleton (SCQ) cover?
    pub fn is_scq(&self) -> bool {
        self.fragments.iter().all(|f| f.len() == 1)
    }

    /// A new cover with atom `atom_idx` added to fragment `frag_idx` —
    /// GCov's move. Fragments that become subsumed (subset of another
    /// fragment) are dropped: they only re-check atoms the bigger fragment
    /// already constrains. Overlapping covers still arise whenever the
    /// enlarged fragment does not fully contain its neighbours (e.g. the
    /// paper's `{{t1,t3},{t3,t5},…}`). Returns `None` if the atom is already
    /// in that fragment.
    pub fn with_atom_in_fragment(&self, frag_idx: usize, atom_idx: usize) -> Option<Cover> {
        let frag = self.fragments.get(frag_idx)?;
        if frag.binary_search(&atom_idx).is_ok() {
            return None;
        }
        let mut fragments = self.fragments.clone();
        fragments[frag_idx].push(atom_idx);
        fragments[frag_idx].sort_unstable();
        fragments = drop_subsumed(fragments);
        fragments.sort();
        fragments.dedup();
        Some(Cover { fragments })
    }

    /// A new cover with fragments `a` and `b` merged — the other GCov move.
    /// Drops fragments that become subsumed (subset of another fragment),
    /// keeping the cover canonical. Returns `None` if `a == b` or out of
    /// range.
    pub fn with_fragments_merged(&self, a: usize, b: usize) -> Option<Cover> {
        if a == b || a >= self.fragments.len() || b >= self.fragments.len() {
            return None;
        }
        let mut merged: Vec<usize> = self.fragments[a]
            .iter()
            .chain(self.fragments[b].iter())
            .copied()
            .collect();
        merged.sort_unstable();
        merged.dedup();
        let mut fragments: Vec<Vec<usize>> = self
            .fragments
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != a && i != b)
            .map(|(_, f)| f.clone())
            .collect();
        fragments.push(merged);
        // Drop strictly subsumed fragments.
        fragments = drop_subsumed(fragments);
        fragments.sort();
        fragments.dedup();
        Some(Cover { fragments })
    }

    /// The columns each fragment must export when the cover is applied to
    /// `cq`: a fragment exports a variable iff it occurs in the fragment and
    /// is either a head variable of `cq` or occurs in *another* fragment
    /// (a join variable). Columns are returned in a deterministic
    /// (first-occurrence within the fragment) order.
    pub fn fragment_columns(&self, cq: &Cq) -> Vec<Vec<Var>> {
        let head: FxHashSet<Var> = cq.head_vars().into_iter().collect();
        let frag_vars: Vec<FxHashSet<Var>> = self
            .fragments
            .iter()
            .map(|frag| {
                frag.iter()
                    .flat_map(|&i| cq.body[i].var_set())
                    .collect::<FxHashSet<Var>>()
            })
            .collect();
        self.fragments
            .iter()
            .enumerate()
            .map(|(fi, frag)| {
                let mut cols = Vec::new();
                let mut seen = FxHashSet::default();
                for &i in frag {
                    for v in cq.body[i].vars() {
                        if seen.contains(v) {
                            continue;
                        }
                        let exported = head.contains(v)
                            || frag_vars
                                .iter()
                                .enumerate()
                                .any(|(fj, vs)| fj != fi && vs.contains(v));
                        if exported {
                            seen.insert(v.clone());
                            cols.push(v.clone());
                        }
                    }
                }
                cols
            })
            .collect()
    }

    /// Enumerate all *partition* covers of an `n`-atom query (set partitions
    /// of `{0..n}`). Exponential — only used by the exhaustive-search
    /// ablation (A4) on small queries. Overlapping covers are not
    /// enumerated; GCov's moves can still reach them.
    pub fn enumerate_partitions(n_atoms: usize) -> Vec<Cover> {
        fn rec(i: usize, n: usize, current: &mut Vec<Vec<usize>>, out: &mut Vec<Cover>) {
            if i == n {
                let mut fragments = current.clone();
                fragments.sort();
                out.push(Cover { fragments });
                return;
            }
            for f in 0..current.len() {
                current[f].push(i);
                rec(i + 1, n, current, out);
                current[f].pop();
            }
            current.push(vec![i]);
            rec(i + 1, n, current, out);
            current.pop();
        }
        let mut out = Vec::new();
        if n_atoms > 0 {
            rec(0, n_atoms, &mut Vec::new(), &mut out);
        }
        out
    }
}

fn drop_subsumed(fragments: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    let mut keep = vec![true; fragments.len()];
    for i in 0..fragments.len() {
        for j in 0..fragments.len() {
            if i != j
                && keep[i]
                && keep[j]
                && is_subset(&fragments[i], &fragments[j])
                && (fragments[i].len() < fragments[j].len() || i > j)
            {
                keep[i] = false;
            }
        }
    }
    fragments
        .into_iter()
        .zip(keep)
        .filter(|&(_, k)| k)
        .map(|(f, _)| f)
        .collect()
}

fn is_subset(a: &[usize], b: &[usize]) -> bool {
    a.iter().all(|x| b.binary_search(x).is_ok())
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, frag) in self.fragments.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{{")?;
            for (j, atom) in frag.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "t{}", atom + 1)?;
            }
            write!(f, "}}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Atom;
    use rdfref_model::TermId;

    fn v(n: &str) -> Var {
        Var::new(n)
    }

    #[test]
    fn validation_rejects_bad_covers() {
        assert!(Cover::new(vec![vec![0], vec![1]], 2).is_ok());
        assert!(Cover::new(vec![vec![0]], 2).is_err()); // atom 1 uncovered
        assert!(Cover::new(vec![vec![0], vec![]], 1).is_err()); // empty fragment
        assert!(Cover::new(vec![vec![0, 5]], 2).is_err()); // out of range
        assert!(Cover::new(vec![], 0).is_err()); // empty query
    }

    #[test]
    fn overlapping_covers_allowed() {
        // The paper's winning cover for Example 1 overlaps on t3 and t4.
        let cover = Cover::new(vec![vec![0, 2], vec![2, 4], vec![1, 3], vec![3, 5]], 6).unwrap();
        assert_eq!(cover.len(), 4);
        assert_eq!(cover.to_string(), "{{t1,t3}, {t2,t4}, {t3,t5}, {t4,t6}}");
    }

    #[test]
    fn distinguished_covers() {
        let scq = Cover::singletons(3);
        assert!(scq.is_scq() && !scq.is_ucq(3));
        let ucq = Cover::one_fragment(3);
        assert!(ucq.is_ucq(3) && !ucq.is_scq());
    }

    #[test]
    fn canonical_representation() {
        let a = Cover::new(vec![vec![1, 0], vec![2]], 3).unwrap();
        let b = Cover::new(vec![vec![2], vec![0, 1]], 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn gcov_moves() {
        let c = Cover::singletons(3);
        let moved = c.with_atom_in_fragment(0, 1).unwrap();
        // {{0,1},{2}} — the subsumed singleton {1} is dropped.
        assert_eq!(moved.len(), 2);
        assert!(moved.fragments().contains(&vec![0, 1]));
        // Overlap arises when fragments are not subsumed: grow {2} with 1.
        let overlapping = moved.with_atom_in_fragment(1, 1).unwrap();
        assert_eq!(overlapping.fragments(), &[vec![0, 1], vec![1, 2]]);
        // Adding an atom already present is a no-op.
        assert!(c.with_atom_in_fragment(0, 0).is_none());

        let merged = c.with_fragments_merged(0, 1).unwrap();
        assert_eq!(merged.len(), 2);
        assert!(merged.fragments().contains(&vec![0, 1]));
        assert!(c.with_fragments_merged(1, 1).is_none());
    }

    #[test]
    fn merge_drops_subsumed_fragments() {
        // {{0,1},{1},{2}}: merging {0,1} with {2} leaves {1} subsumed? No —
        // {1} ⊄ {0,1,2}? It is a subset, so it gets dropped.
        let c = Cover::new(vec![vec![0, 1], vec![1], vec![2]], 3).unwrap();
        let m = c.with_fragments_merged(0, 2).unwrap();
        assert_eq!(m.fragments(), &[vec![0, 1, 2]]);
    }

    #[test]
    fn fragment_columns_export_head_and_join_vars() {
        // q(x) :- (x p y), (y p z), (z p w): head {x}; cover {{0},{1,2}}.
        let p = TermId(9);
        let cq = Cq::new(
            vec![v("x")],
            vec![
                Atom::new(v("x"), p, v("y")),
                Atom::new(v("y"), p, v("z")),
                Atom::new(v("z"), p, v("w")),
            ],
        )
        .unwrap();
        let cover = Cover::new(vec![vec![0], vec![1, 2]], 3).unwrap();
        let cols = cover.fragment_columns(&cq);
        // Fragment {t1}: x (head) and y (join). Fragment {t2,t3}: y (join);
        // z and w are local and not head vars, so not exported.
        assert_eq!(cols[0], vec![v("x"), v("y")]);
        assert_eq!(cols[1], vec![v("y")]);
    }

    #[test]
    fn partition_enumeration_counts_bell_numbers() {
        // Bell numbers: B(1)=1, B(2)=2, B(3)=5, B(4)=15.
        assert_eq!(Cover::enumerate_partitions(1).len(), 1);
        assert_eq!(Cover::enumerate_partitions(2).len(), 2);
        assert_eq!(Cover::enumerate_partitions(3).len(), 5);
        assert_eq!(Cover::enumerate_partitions(4).len(), 15);
    }
}
