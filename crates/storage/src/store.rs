//! The triple store: three sorted permutation indexes over an immutable
//! snapshot of dictionary-encoded triples.
//!
//! Every triple-pattern shape is answered by one run of one of the SPO /
//! POS / OSP orderings, found by galloping forward from a position
//! (`SortedIndex::run`): from the first key for a scan, from the previous
//! probe for a bind join or a leapfrog seek. The crate's one access path
//! (`access.rs`) picks the ordering and reads it.
//!
//! ## Snapshots and copy-on-write deltas
//!
//! Each index stores its sorted keys as a sequence of `Arc`-shared
//! *buckets* (runs of ~`BUCKET_TARGET` keys). [`Store::apply_delta`]
//! produces a new store that shares every bucket the delta does not touch
//! and rebuilds only the touched ones — so a store is cheap to snapshot
//! (`Clone` is a handful of `Arc` bumps) and cheap to evolve under small
//! update batches (cost proportional to the delta's key locality, not the
//! dataset). This is what lets the serving layer publish a fresh immutable
//! store per maintenance batch without ever rebuilding, or blocking readers
//! of, the previous one.

use crate::access::Access;
use rdfref_model::{merge_sorted, sorted_run, EncodedTriple, Graph, TermId};
use rdfref_sync::Arc;

/// Target keys per index bucket. Small enough that a single-triple delta
/// copies ~one bucket, large enough that range scans stay contiguous.
const BUCKET_TARGET: usize = 1024;

/// The three index orderings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// subject, property, object
    Spo,
    /// property, object, subject
    Pos,
    /// object, subject, property
    Osp,
}

impl Order {
    /// Permute an SPO triple into this order's key layout.
    #[inline]
    pub(crate) fn key(self, t: &EncodedTriple) -> [TermId; 3] {
        self.permute([t.s, t.p, t.o])
    }

    /// Permute values given in `s, p, o` position order into this order's
    /// key layout.
    #[inline]
    pub(crate) fn permute<T>(self, [s, p, o]: [T; 3]) -> [T; 3] {
        match self {
            Order::Spo => [s, p, o],
            Order::Pos => [p, o, s],
            Order::Osp => [o, s, p],
        }
    }

    /// Recover the SPO triple from this order's key layout.
    #[inline]
    pub fn unkey(self, k: &[TermId; 3]) -> EncodedTriple {
        match self {
            Order::Spo => EncodedTriple::new(k[0], k[1], k[2]),
            Order::Pos => EncodedTriple::new(k[2], k[0], k[1]),
            Order::Osp => EncodedTriple::new(k[1], k[2], k[0]),
        }
    }

    /// The key position (0–2) a triple position occupies in this layout,
    /// where `pos` is 0 = subject, 1 = property, 2 = object.
    #[inline]
    pub fn key_position(self, pos: usize) -> usize {
        match self {
            Order::Spo => pos,
            Order::Pos => [2, 0, 1][pos],
            Order::Osp => [1, 2, 0][pos],
        }
    }

    /// Short uppercase name, for plan rendering.
    pub fn name(self) -> &'static str {
        match self {
            Order::Spo => "SPO",
            Order::Pos => "POS",
            Order::Osp => "OSP",
        }
    }

    /// All three orderings, in a fixed tie-break order.
    pub(crate) const ALL: [Order; 3] = [Order::Spo, Order::Pos, Order::Osp];
}

/// The index of the first element of `s` that is not `before`, where
/// `before` holds on a prefix of `s`: probe 1, 2, 4, … elements ahead, then
/// binary-search the last doubling.
fn gallop<T>(s: &[T], before: impl Fn(&T) -> bool) -> usize {
    let mut bound = 1;
    while bound <= s.len() && before(&s[bound - 1]) {
        bound *= 2;
    }
    let lo = bound / 2;
    lo + s[lo..bound.min(s.len())].partition_point(&before)
}

/// A position in a [`SortedIndex`]: a bucket and an offset into it. Every
/// position holds a key, except the end (past the last bucket, offset 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Pos {
    bucket: usize,
    offset: usize,
}

impl Pos {
    /// The first position of every index (its end too, when it is empty).
    pub(crate) const START: Pos = Pos {
        bucket: 0,
        offset: 0,
    };
}

/// One sorted permutation index: globally sorted, deduplicated keys split
/// into `Arc`-shared buckets. Buckets are non-empty and pairwise disjoint;
/// cloning the index clones only the bucket handles.
#[derive(Debug, Clone)]
pub(crate) struct SortedIndex {
    buckets: Vec<Arc<Vec<[TermId; 3]>>>,
    len: usize,
    /// Bucket sizing used when (re)building buckets for this index.
    bucket_target: usize,
}

impl SortedIndex {
    fn build(order: Order, triples: &[EncodedTriple], bucket_target: usize) -> SortedIndex {
        let keys = sorted_run(triples.iter().map(|t| order.key(t)).collect());
        SortedIndex::from_sorted_keys(keys, bucket_target)
    }

    /// `keys` must be sorted and deduplicated.
    fn from_sorted_keys(keys: Vec<[TermId; 3]>, bucket_target: usize) -> SortedIndex {
        let target = bucket_target.max(1);
        let len = keys.len();
        let buckets = keys.chunks(target).map(|c| Arc::new(c.to_vec())).collect();
        SortedIndex {
            buckets,
            len,
            bucket_target: target,
        }
    }

    /// The run `[start, stop)` of the keys between two bounds, searched
    /// forward from `from`: `start` is the first position whose key is not
    /// `before`, `stop` the first after it whose key is not `within`. Both
    /// gallop ([`SortedIndex::gallop`]), so a search costs the distance it
    /// moves; from [`Pos::START`] it is a search from the root. `from` must
    /// not lie past the first key that is not `before`.
    pub(crate) fn run(
        &self,
        from: Pos,
        before: impl Fn(&[TermId; 3]) -> bool,
        within: impl Fn(&[TermId; 3]) -> bool,
    ) -> (Pos, Pos) {
        let end = self.end();
        let start = self.gallop(from, end, before);
        (start, self.gallop(start, end, within))
    }

    /// Hand `f` the keys of `[start, stop)` in sorted order, one borrowed
    /// slice per spanned bucket; no slice is empty.
    pub(crate) fn slices<'s>(
        &'s self,
        start: Pos,
        stop: Pos,
        f: &mut dyn FnMut(&'s [[TermId; 3]]),
    ) {
        let mut at = start;
        while at < stop {
            let b = &self.buckets[at.bucket];
            let to = if at.bucket == stop.bucket {
                stop.offset
            } else {
                b.len()
            };
            f(&b[at.offset..to]);
            at = Pos {
                bucket: at.bucket + 1,
                offset: 0,
            };
        }
    }

    fn iter(&self) -> impl Iterator<Item = &[TermId; 3]> {
        self.buckets.iter().flat_map(|b| b.iter())
    }

    /// Point membership of a key.
    pub(crate) fn contains(&self, key: &[TermId; 3]) -> bool {
        let i = self
            .buckets
            .partition_point(|b| b.last().is_some_and(|l| l < key));
        match self.buckets.get(i) {
            Some(b) => b.binary_search(key).is_ok(),
            None => false,
        }
    }

    /// The position one past the last key.
    pub(crate) fn end(&self) -> Pos {
        Pos {
            bucket: self.buckets.len(),
            offset: 0,
        }
    }

    /// The key at `at`; `None` at the end.
    #[inline]
    pub(crate) fn key_at(&self, at: Pos) -> Option<&[TermId; 3]> {
        self.buckets.get(at.bucket).map(|b| &b[at.offset])
    }

    /// The position after `at`, which must not be the end.
    #[inline]
    pub(crate) fn succ(&self, at: Pos) -> Pos {
        if at.offset + 1 < self.buckets[at.bucket].len() {
            Pos {
                offset: at.offset + 1,
                ..at
            }
        } else {
            Pos {
                bucket: at.bucket + 1,
                offset: 0,
            }
        }
    }

    /// The first position in `[from, to)` whose key is not `before` (`to`
    /// if none), where `before` holds on a prefix of that range: an
    /// exponential search forward from `from`, so its cost grows with the
    /// distance moved, not with the index. Whole buckets are skipped by
    /// their last keys, galloping the same way.
    pub(crate) fn gallop(&self, from: Pos, to: Pos, before: impl Fn(&[TermId; 3]) -> bool) -> Pos {
        let mut at = from;
        while at < to {
            let b = &self.buckets[at.bucket];
            let limit = if at.bucket == to.bucket {
                to.offset
            } else {
                b.len()
            };
            if !before(&b[limit - 1]) {
                let offset = at.offset + gallop(&b[at.offset..limit], &before);
                return Pos { offset, ..at };
            }
            if at.bucket == to.bucket {
                break;
            }
            let next = at.bucket + 1;
            let skipped = gallop(&self.buckets[next..to.bucket], |b| {
                b.last().is_some_and(&before)
            });
            at = Pos {
                bucket: next + skipped,
                offset: 0,
            };
        }
        to
    }

    /// Copy-on-write delta application: the result contains
    /// `(self ∪ inserts) ∖ removes`. Buckets whose key span the delta does
    /// not touch are `Arc`-shared with `self`; touched buckets are merged
    /// into fresh ones (and re-split when they outgrow the target size).
    fn apply_delta(
        &self,
        order: Order,
        inserts: &[EncodedTriple],
        removes: &[EncodedTriple],
    ) -> SortedIndex {
        let ins = sorted_run(inserts.iter().map(|t| order.key(t)).collect());
        let rem = sorted_run(removes.iter().map(|t| order.key(t)).collect());
        if ins.is_empty() && rem.is_empty() {
            return self.clone();
        }
        if self.buckets.is_empty() {
            let keys = merge_sorted(&[], &ins, &rem);
            return SortedIndex::from_sorted_keys(keys, self.bucket_target);
        }

        let mut buckets: Vec<Arc<Vec<[TermId; 3]>>> = Vec::with_capacity(self.buckets.len() + 1);
        let mut len = 0usize;
        let (mut ii, mut ri) = (0usize, 0usize);
        for (bi, b) in self.buckets.iter().enumerate() {
            // This bucket's span ends where the next bucket begins; the
            // first bucket's span starts at -inf, the last ends at +inf, so
            // every delta key lands in exactly one span.
            let upper = self.buckets.get(bi + 1).map(|nb| nb[0]);
            let ins_end = match upper {
                Some(u) => ii + ins[ii..].partition_point(|k| *k < u),
                None => ins.len(),
            };
            let rem_end = match upper {
                Some(u) => ri + rem[ri..].partition_point(|k| *k < u),
                None => rem.len(),
            };
            if ins_end == ii && rem_end == ri {
                len += b.len();
                buckets.push(Arc::clone(b));
                continue;
            }
            let merged = merge_sorted(b, &ins[ii..ins_end], &rem[ri..rem_end]);
            ii = ins_end;
            ri = rem_end;
            len += merged.len();
            if merged.len() > 2 * self.bucket_target {
                for c in merged.chunks(self.bucket_target) {
                    buckets.push(Arc::new(c.to_vec()));
                }
            } else if !merged.is_empty() {
                buckets.push(Arc::new(merged));
            }
        }
        SortedIndex {
            buckets,
            len,
            bucket_target: self.bucket_target,
        }
    }
}

/// One position of a [`Pattern`]: wildcard, exact id, or a half-open
/// encoded-id interval `[lo, hi)` (interval-dictionary subtree).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Matches anything.
    Any,
    /// Matches exactly one id.
    Const(TermId),
    /// Matches ids in `[lo, hi)`.
    Range(TermId, TermId),
}

impl Bound {
    /// Does this bound admit the id?
    #[inline]
    pub fn admits(&self, v: TermId) -> bool {
        match *self {
            Bound::Any => true,
            Bound::Const(c) => v == c,
            Bound::Range(lo, hi) => lo <= v && v < hi,
        }
    }
}

/// A triple pattern over ids, whose positions may be id intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pattern {
    /// Subject constraint.
    pub s: Bound,
    /// Property constraint.
    pub p: Bound,
    /// Object constraint.
    pub o: Bound,
}

impl Pattern {
    /// The fully wildcard pattern.
    pub const ALL: Pattern = Pattern {
        s: Bound::Any,
        p: Bound::Any,
        o: Bound::Any,
    };

    /// The triples of property `p`.
    pub fn property(p: TermId) -> Pattern {
        Pattern {
            p: Bound::Const(p),
            ..Pattern::ALL
        }
    }
}

/// The immutable store: a snapshot of a graph's triples, indexed three ways.
///
/// The store is deliberately decoupled from the [`Graph`] that produced it
/// (the saturation experiments build stores from both `G` and `G∞` over the
/// same dictionary). `Clone` is cheap — the indexes are `Arc`-shared bucket
/// sequences — and [`Store::apply_delta`] evolves a store copy-on-write.
#[derive(Debug, Clone)]
pub struct Store {
    spo: SortedIndex,
    pos: SortedIndex,
    osp: SortedIndex,
    len: usize,
}

impl Store {
    /// Build a store over a slice of encoded triples.
    pub fn from_triples(triples: &[EncodedTriple]) -> Store {
        Store::from_triples_with_bucket_target(triples, BUCKET_TARGET)
    }

    /// Build with an explicit bucket size — exposed so tests can exercise
    /// the multi-bucket paths on small datasets.
    #[doc(hidden)]
    pub fn from_triples_with_bucket_target(triples: &[EncodedTriple], target: usize) -> Store {
        let spo = SortedIndex::build(Order::Spo, triples, target);
        let len = spo.len; // post-dedup count
        Store {
            spo,
            pos: SortedIndex::build(Order::Pos, triples, target),
            osp: SortedIndex::build(Order::Osp, triples, target),
            len,
        }
    }

    /// Build a store over a graph's triples.
    pub fn from_graph(graph: &Graph) -> Store {
        Store::from_triples(graph.triples())
    }

    /// A new store containing `(self ∪ inserts) ∖ removes`, sharing every
    /// index bucket the delta does not touch. Keys present in both lists
    /// end up removed. `self` is untouched — readers of the old snapshot
    /// are never disturbed.
    pub fn apply_delta(&self, inserts: &[EncodedTriple], removes: &[EncodedTriple]) -> Store {
        let spo = self.spo.apply_delta(Order::Spo, inserts, removes);
        let len = spo.len;
        Store {
            spo,
            pos: self.pos.apply_delta(Order::Pos, inserts, removes),
            osp: self.osp.apply_delta(Order::Osp, inserts, removes),
            len,
        }
    }

    /// How many index buckets this store shares with `other` (diagnostics
    /// for the copy-on-write tests and the serving metrics).
    #[doc(hidden)]
    pub fn shared_buckets_with(&self, other: &Store) -> usize {
        let count = |a: &SortedIndex, b: &SortedIndex| {
            a.buckets
                .iter()
                .filter(|x| b.buckets.iter().any(|y| Arc::ptr_eq(x, y)))
                .count()
        };
        count(&self.spo, &other.spo) + count(&self.pos, &other.pos) + count(&self.osp, &other.osp)
    }

    /// Total index buckets across the three orderings.
    #[doc(hidden)]
    pub fn bucket_count(&self) -> usize {
        self.spo.buckets.len() + self.pos.buckets.len() + self.osp.buckets.len()
    }

    /// Number of (distinct) triples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Point membership.
    pub fn contains(&self, t: &EncodedTriple) -> bool {
        self.spo.contains(&[t.s, t.p, t.o])
    }

    /// The triples matching a pattern, in the order of the index that
    /// answers it.
    pub fn scan(&self, pat: Pattern) -> impl Iterator<Item = EncodedTriple> + '_ {
        let access = Access::pattern(&pat);
        let mut runs = Vec::new();
        access.runs(self, &access.key(&[]), Pos::START, &mut |run| {
            runs.push(run)
        });
        runs.into_iter()
            .flatten()
            .map(move |k| access.order.unkey(k))
    }

    /// Exact number of matches for a pattern — O(log n) per spanned bucket
    /// when no interval falls behind another constraint.
    pub fn count(&self, pat: Pattern) -> usize {
        let access = Access::pattern(&pat);
        let mut n = 0;
        access.runs(self, &access.key(&[]), Pos::START, &mut |run| {
            n += run.len()
        });
        n
    }

    /// Iterate over all triples in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = EncodedTriple> + '_ {
        self.spo.iter().map(|k| Order::Spo.unkey(k))
    }

    /// The sorted permutation index for an ordering — the trie view the
    /// leapfrog-triejoin driver seeks over.
    pub(crate) fn index(&self, order: Order) -> &SortedIndex {
        match order {
            Order::Spo => &self.spo,
            Order::Pos => &self.pos,
            Order::Osp => &self.osp,
        }
    }

    /// The distinct properties, with the count of triples per property, in
    /// ascending property-id order — one grouped pass over the POS index.
    pub fn property_counts(&self) -> Vec<(TermId, usize)> {
        let mut out: Vec<(TermId, usize)> = Vec::new();
        for k in self.pos.iter() {
            match out.last_mut() {
                Some((p, n)) if *p == k[0] => *n += 1,
                _ => out.push((k[0], 1)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfref_model::{Dictionary, Term};

    fn fixture() -> (Store, Vec<TermId>) {
        let mut d = Dictionary::new();
        let ids: Vec<TermId> = ["a", "b", "c", "p", "q", "v"]
            .iter()
            .map(|n| d.intern(&Term::iri(*n)))
            .collect();
        let (a, b, c, p, q, v) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        let triples = vec![
            EncodedTriple::new(a, p, b),
            EncodedTriple::new(a, p, c),
            EncodedTriple::new(b, p, c),
            EncodedTriple::new(a, q, v),
            EncodedTriple::new(c, q, v),
            EncodedTriple::new(a, p, b), // duplicate, deduped at build
        ];
        (Store::from_triples(&triples), ids)
    }

    /// A deterministic many-triple set that spans several buckets at the
    /// given bucket target.
    fn dense_triples(n: u32) -> Vec<EncodedTriple> {
        (0..n)
            .map(|i| EncodedTriple::new(TermId(i % 37), TermId(i % 11), TermId(i % 53)))
            .collect()
    }

    /// A pattern from optional constants.
    fn pat(s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> Pattern {
        let b = |x: Option<TermId>| x.map_or(Bound::Any, Bound::Const);
        Pattern {
            s: b(s),
            p: b(p),
            o: b(o),
        }
    }

    fn scan(store: &Store, pat: Pattern) -> Vec<EncodedTriple> {
        store.scan(pat).collect()
    }

    /// The triples a pattern's access hands out, in emission order —
    /// checking the run contract on the way: no empty run, every run
    /// strictly ascending.
    fn range_scan(store: &Store, pat: &Pattern) -> Vec<EncodedTriple> {
        let access = Access::pattern(pat);
        let mut out = Vec::new();
        access.runs(store, &access.key(&[]), Pos::START, &mut |run| {
            assert!(!run.is_empty(), "empty run");
            assert!(run.windows(2).all(|w| w[0] < w[1]), "unsorted run");
            out.extend(run.iter().map(|k| access.order.unkey(k)))
        });
        assert_eq!(out, scan(store, *pat));
        out
    }

    #[test]
    fn build_dedups() {
        let (store, _) = fixture();
        assert_eq!(store.len(), 5);
    }

    #[test]
    fn all_pattern_shapes() {
        let (store, ids) = fixture();
        let (a, b, c, p, q, v) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        let n = |s, p, o| store.scan(pat(s, p, o)).count();

        // spo point
        assert_eq!(n(Some(a), Some(p), Some(b)), 1);
        assert_eq!(n(Some(a), Some(p), Some(v)), 0);
        // sp?
        assert_eq!(n(Some(a), Some(p), None), 2);
        // s??
        assert_eq!(n(Some(a), None, None), 3);
        // ?po
        assert_eq!(n(None, Some(q), Some(v)), 2);
        // ?p?
        assert_eq!(n(None, Some(p), None), 3);
        // ??o
        assert_eq!(n(None, None, Some(c)), 2);
        // s?o
        assert_eq!(n(Some(a), None, Some(b)), 1);
        assert_eq!(n(Some(b), None, Some(v)), 0);
        // ???
        assert_eq!(n(None, None, None), 5);
    }

    #[test]
    fn counts_agree_with_scans() {
        let (store, ids) = fixture();
        let all_ids = [None, Some(ids[0]), Some(ids[3]), Some(ids[5])];
        for &s in &all_ids {
            for &p in &all_ids {
                for &o in &all_ids {
                    let pat = pat(s, p, o);
                    assert_eq!(store.count(pat), scan(&store, pat).len(), "pattern {pat:?}");
                }
            }
        }
    }

    #[test]
    fn scan_results_are_spo_triples() {
        let (store, ids) = fixture();
        let (p, v) = (ids[3], ids[5]);
        for t in store.scan(Pattern::property(p)) {
            assert_eq!(t.p, p);
        }
        for t in store.scan(pat(None, None, Some(v))) {
            assert_eq!(t.o, v);
        }
    }

    #[test]
    fn property_counts_grouped() {
        let (store, ids) = fixture();
        let counts = store.property_counts();
        assert_eq!(counts.len(), 2);
        let get = |p: TermId| counts.iter().find(|&&(q, _)| q == p).unwrap().1;
        assert_eq!(get(ids[3]), 3);
        assert_eq!(get(ids[4]), 2);
    }

    #[test]
    fn empty_store() {
        let store = Store::from_triples(&[]);
        assert!(store.is_empty());
        assert_eq!(store.scan(Pattern::ALL).count(), 0);
        assert_eq!(store.property_counts().len(), 0);
    }

    #[test]
    fn iter_in_spo_order() {
        let (store, _) = fixture();
        let v: Vec<_> = store.iter().collect();
        assert_eq!(v.len(), 5);
        assert!(v.windows(2).all(|w| w[0].as_array() <= w[1].as_array()));
    }

    #[test]
    fn small_buckets_answer_every_shape_like_one_bucket() {
        let triples = dense_triples(2000);
        let coarse = Store::from_triples(&triples); // one bucket per index
        let fine = Store::from_triples_with_bucket_target(&triples, 16);
        assert_eq!(coarse.len(), fine.len());
        let ids: Vec<Option<TermId>> =
            [None, Some(TermId(0)), Some(TermId(5)), Some(TermId(36))].to_vec();
        for &s in &ids {
            for &p in &ids {
                for &o in &ids {
                    let pat = pat(s, p, o);
                    assert_eq!(scan(&coarse, pat), scan(&fine, pat), "pattern {pat:?}");
                    assert_eq!(coarse.count(pat), fine.count(pat), "count {pat:?}");
                }
            }
        }
        assert_eq!(
            coarse.iter().collect::<Vec<_>>(),
            fine.iter().collect::<Vec<_>>()
        );
        assert_eq!(coarse.property_counts(), fine.property_counts());
    }

    #[test]
    fn apply_delta_matches_rebuild() {
        let triples = dense_triples(1500);
        let store = Store::from_triples_with_bucket_target(&triples, 32);
        let inserts: Vec<EncodedTriple> = (0..40)
            .map(|i| EncodedTriple::new(TermId(100 + i), TermId(3), TermId(7)))
            .collect();
        let removes: Vec<EncodedTriple> = triples.iter().step_by(17).copied().collect();
        let updated = store.apply_delta(&inserts, &removes);

        let mut expected: Vec<EncodedTriple> = triples.clone();
        expected.extend(inserts.iter().copied());
        let rm: std::collections::HashSet<_> = removes.iter().copied().collect();
        expected.retain(|t| !rm.contains(t));
        let rebuilt = Store::from_triples_with_bucket_target(&expected, 32);
        assert_eq!(updated.len(), rebuilt.len());
        assert_eq!(
            updated.iter().collect::<Vec<_>>(),
            rebuilt.iter().collect::<Vec<_>>()
        );
        // The original snapshot is untouched.
        assert_eq!(store.len(), Store::from_triples(&triples).len());
    }

    #[test]
    fn apply_delta_shares_untouched_buckets() {
        // Keys clustered by subject: a delta on one subject region must
        // leave distant SPO buckets shared.
        let triples: Vec<EncodedTriple> = (0..4000)
            .map(|i| EncodedTriple::new(TermId(i / 4), TermId(i % 2), TermId(i % 97)))
            .collect();
        let store = Store::from_triples_with_bucket_target(&triples, 64);
        let delta = vec![EncodedTriple::new(TermId(2), TermId(0), TermId(999))];
        let updated = store.apply_delta(&delta, &[]);
        let shared = updated.shared_buckets_with(&store);
        let total = updated.bucket_count();
        assert!(
            shared >= total - 6,
            "expected near-total bucket sharing, got {shared}/{total}"
        );
        assert_eq!(updated.len(), store.len() + 1);
        assert!(updated.contains(&delta[0]));
        assert!(!store.contains(&delta[0]));
    }

    #[test]
    fn apply_delta_handles_noop_and_empty_cases() {
        let triples = dense_triples(100);
        let store = Store::from_triples_with_bucket_target(&triples, 16);
        // Inserting existing triples and removing absent ones: no change.
        let same = store.apply_delta(
            &triples[..10],
            &[EncodedTriple::new(TermId(9999), TermId(9999), TermId(9999))],
        );
        assert_eq!(same.len(), store.len());
        // Empty delta clones (shares everything).
        let clone = store.apply_delta(&[], &[]);
        assert_eq!(clone.shared_buckets_with(&store), clone.bucket_count());
        // Delta onto an empty store.
        let empty = Store::from_triples(&[]);
        let filled = empty.apply_delta(&triples, &[]);
        assert_eq!(filled.len(), store.len());
        // Removing everything empties the store.
        let drained = store.apply_delta(&[], &triples);
        assert!(drained.is_empty());
        assert_eq!(drained.scan(Pattern::ALL).count(), 0);
    }

    #[test]
    fn range_scans_match_filtered_full_scans() {
        let triples = dense_triples(3000);
        for target in [usize::MAX, 16] {
            let store = Store::from_triples_with_bucket_target(&triples, target);
            let bounds = [
                Bound::Any,
                Bound::Const(TermId(5)),
                Bound::Range(TermId(3), TermId(9)),
                Bound::Range(TermId(20), TermId(40)),
                Bound::Range(TermId(7), TermId(7)), // empty interval
            ];
            for &s in &bounds {
                for &p in &bounds {
                    for &o in &bounds {
                        let pat = Pattern { s, p, o };
                        let mut got = range_scan(&store, &pat);
                        assert_eq!(store.count(pat), got.len());
                        got.sort_by_key(|t| t.as_array());
                        let mut want: Vec<EncodedTriple> = store
                            .iter()
                            .filter(|t| s.admits(t.s) && p.admits(t.p) && o.admits(t.o))
                            .collect();
                        want.sort_by_key(|t| t.as_array());
                        assert_eq!(got, want, "pattern {pat:?} target {target}");
                    }
                }
            }
        }
    }

    #[test]
    fn apply_delta_key_in_both_lists_is_removed() {
        let t = EncodedTriple::new(TermId(1), TermId(2), TermId(3));
        let store = Store::from_triples(&[]);
        let out = store.apply_delta(&[t], &[t]);
        assert!(out.is_empty());
        let store2 = Store::from_triples(&[t]);
        let out2 = store2.apply_delta(&[t], &[t]);
        assert!(out2.is_empty());
    }

    #[test]
    fn gallop_finds_the_least_key_at_or_after_a_probe() {
        let triples = dense_triples(3000);
        for target in [usize::MAX, 16] {
            let store = Store::from_triples_with_bucket_target(&triples, target);
            for order in Order::ALL {
                let idx = store.index(order);
                let keys: Vec<[TermId; 3]> = idx.iter().copied().collect();
                let key = |at: Pos| idx.key_at(at).copied();
                let (start, end) = (Pos::START, idx.end());
                let root = |probe: &[TermId; 3]| idx.gallop(start, end, |x| x < probe);
                // Every present key is found from the root and, from every
                // earlier position, by galloping; its successor probe lands
                // on the next key (or the end).
                let mut at = start;
                for (i, k) in keys.iter().enumerate() {
                    assert_eq!(key(root(k)), Some(*k), "target {target}");
                    assert_eq!(key(at), Some(*k), "succ walks the keys in order");
                    for back in [0, 1, 7, 100] {
                        let from = root(&keys[i.saturating_sub(back)]);
                        assert_eq!(key(idx.gallop(from, end, |x| x < k)), Some(*k));
                    }
                    let mut succ = *k;
                    succ[2] = TermId(succ[2].0 + 1);
                    let expect = keys[i..].iter().find(|&&n| n >= succ).copied();
                    assert_eq!(key(root(&succ)), expect, "target {target}");
                    // A bound stops the search where it stands.
                    let to = root(k);
                    assert_eq!(idx.gallop(start, to, |x| *x < succ), to);
                    // A run from any position at or before its first key
                    // is the keys of one first component, handed out bucket
                    // by bucket.
                    let first = keys.iter().position(|x| x[0] == k[0]).unwrap_or(0);
                    let from = root(&keys[first.saturating_sub(i % 7)]);
                    let (lo, hi) = idx.run(from, |x| x[0] < k[0], |x| x[0] <= k[0]);
                    let mut run = Vec::new();
                    idx.slices(lo, hi, &mut |s| {
                        assert!(!s.is_empty(), "empty slice");
                        run.extend_from_slice(s);
                    });
                    let want: Vec<_> = keys.iter().filter(|x| x[0] == k[0]).copied().collect();
                    assert_eq!(run, want, "target {target}");
                    at = idx.succ(at);
                }
                assert_eq!(at, end);
                // Probes below the first and above the last key.
                assert_eq!(key(root(&[TermId(0); 3])), keys.first().copied());
                assert_eq!(root(&[TermId(u32::MAX); 3]), end);
            }
        }
    }
}
