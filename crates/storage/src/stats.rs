//! Dataset statistics.
//!
//! Exact statistics computed in one pass over the store's indexes:
//! per-property cardinalities and distinct subject/object counts, per-class
//! instance counts, and overall value distributions. After a write batch
//! [`StatsMaintainer`] moves them by index probes on the updated store:
//! O(|Δ| log n), with no rescan of a touched property. They serve two roles
//! in the demonstrated system:
//!
//! 1. input to the [cost model](crate::cost) (the function `c` of §4);
//! 2. the demo's step 1 ("visualize its statistics: value distributions for
//!    subject, property and object"), regenerated by experiment E7.

use crate::store::{
    Bound::{Any, Const},
    Pattern, Store,
};
use rdfref_model::dictionary::ID_RDF_TYPE;
use rdfref_model::fxhash::{FxHashMap, FxHashSet};
use rdfref_model::{EncodedTriple, TermId};

/// Statistics for one property.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PropStats {
    /// Number of triples with this property.
    pub count: usize,
    /// Number of distinct subjects among those triples.
    pub distinct_subjects: usize,
    /// Number of distinct objects among those triples.
    pub distinct_objects: usize,
}

/// Exact dataset statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Total triples.
    pub total: usize,
    /// Distinct subjects over the whole store.
    pub distinct_subjects: usize,
    /// Distinct properties over the whole store.
    pub distinct_properties: usize,
    /// Distinct objects over the whole store.
    pub distinct_objects: usize,
    /// Per-property statistics.
    pub properties: FxHashMap<TermId, PropStats>,
    /// Per-class instance counts: `c ↦ |{s : (s rdf:type c)}|`.
    pub classes: FxHashMap<TermId, usize>,
    /// Number of `rdf:type` triples.
    pub type_triples: usize,
}

impl Stats {
    /// Compute exact statistics for a store.
    pub fn compute(store: &Store) -> Stats {
        let mut stats = Stats {
            total: store.len(),
            ..Stats::default()
        };

        // Per-property pass over the POS index: triples arrive grouped by
        // (p, o), so distinct objects are run-length counted; subjects need
        // a per-property set. The objects of `rdf:type` are the classes.
        let mut all_subjects: FxHashSet<TermId> = FxHashSet::default();
        let mut all_objects: FxHashSet<TermId> = FxHashSet::default();
        for (p, count) in store.property_counts() {
            let mut subjects: FxHashSet<TermId> = FxHashSet::default();
            let mut distinct_objects = 0usize;
            let mut prev_object: Option<TermId> = None;
            for t in store.scan(Pattern::property(p)) {
                subjects.insert(t.s);
                if prev_object != Some(t.o) {
                    distinct_objects += 1;
                    prev_object = Some(t.o);
                    all_objects.insert(t.o);
                }
                if p == ID_RDF_TYPE {
                    *stats.classes.entry(t.o).or_default() += 1;
                }
            }
            all_subjects.extend(subjects.iter().copied());
            if p == ID_RDF_TYPE {
                stats.type_triples = count;
            }
            stats.properties.insert(
                p,
                PropStats {
                    count,
                    distinct_subjects: subjects.len(),
                    distinct_objects,
                },
            );
        }
        stats.distinct_subjects = all_subjects.len();
        stats.distinct_objects = all_objects.len();
        stats.distinct_properties = stats.properties.len();
        stats
    }

    /// Statistics for a property (zeros if absent).
    pub fn property(&self, p: TermId) -> PropStats {
        self.properties.get(&p).copied().unwrap_or_default()
    }

    /// Instance count of a class (0 if absent).
    pub fn class_count(&self, c: TermId) -> usize {
        self.classes.get(&c).copied().unwrap_or(0)
    }

    /// Number of distinct classes used in `rdf:type` triples.
    pub fn distinct_classes(&self) -> usize {
        self.classes.len()
    }

    /// Total instances over classes whose id falls in `[lo, hi)`.
    ///
    /// With interval dictionary encoding a class subtree occupies a
    /// contiguous id range, so this sum is the exact cardinality of a
    /// `?x rdf:type ∈ [lo, hi)` range scan over these statistics' store.
    pub fn class_count_range(&self, lo: TermId, hi: TermId) -> usize {
        self.classes
            .iter()
            .filter(|&(&c, _)| lo <= c && c < hi)
            .map(|(_, &n)| n)
            .sum()
    }

    /// Aggregate statistics over properties whose id falls in `[lo, hi)`.
    ///
    /// `count` is exact; the distinct counts are summed per property and so
    /// are upper bounds (a subject may appear under several properties),
    /// which keeps the derived selectivities conservative.
    pub fn property_range(&self, lo: TermId, hi: TermId) -> PropStats {
        let mut agg = PropStats::default();
        for (&p, ps) in &self.properties {
            if lo <= p && p < hi {
                agg.count += ps.count;
                agg.distinct_subjects += ps.distinct_subjects;
                agg.distinct_objects += ps.distinct_objects;
            }
        }
        agg
    }

    /// The `k` most frequent properties, descending.
    pub fn top_properties(&self, k: usize) -> Vec<(TermId, usize)> {
        let mut v: Vec<(TermId, usize)> =
            self.properties.iter().map(|(&p, s)| (p, s.count)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// The `k` most frequent classes, descending.
    pub fn top_classes(&self, k: usize) -> Vec<(TermId, usize)> {
        let mut v: Vec<(TermId, usize)> = self.classes.iter().map(|(&c, &n)| (c, n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }
}

/// Incremental maintenance of exact [`Stats`] under triple deltas.
///
/// [`Stats::compute`] is a full pass over the store — fine at load time,
/// too slow to run per maintenance batch in the serving layer. The
/// maintainer keeps no state and never rescans a property: for each key a
/// delta touches — a subject `s`, an object `o`, a pair `(p, s)` or
/// `(p, o)` — the count before the delta is
/// `before(k) = after(k) − added(k) + removed(k)`, and `after(k)` is one
/// prefix count on the permutation index that has `k` as a prefix (SPO for
/// `s` and `(p, s)`, OSP for `o`, POS for `(p, o)`). A distinct count moves
/// by ±1 exactly when one of `before(k)` and `after(k)` is zero. Triple,
/// class and `rdf:type` counts move by the delta's multiplicities, and a
/// property whose count reaches 0 is dropped. One
/// [`apply`](StatsMaintainer::apply) costs O(|Δ| log n) index probes, and
/// its result equals `Stats::compute(store_after)` in every field.
///
/// Contract: `added` must contain only triples genuinely absent before the
/// delta and `removed` only triples genuinely present (and the two must be
/// disjoint) — i.e. the *net* delta, which is exactly what the incremental
/// reasoner reports per batch. Debug builds check it against `store_after`.
#[derive(Debug, Clone, Default)]
pub struct StatsMaintainer;

impl StatsMaintainer {
    /// A maintainer for `store`: it keeps no state, so this is O(1).
    pub fn from_store(_store: &Store) -> StatsMaintainer {
        StatsMaintainer
    }

    /// The exact statistics of `store_after` (the store with the delta
    /// applied). `base` is the statistics of the store *before* the delta.
    pub fn apply(
        &mut self,
        base: &Stats,
        store_after: &Store,
        added: &[EncodedTriple],
        removed: &[EncodedTriple],
    ) -> Stats {
        debug_assert!(
            added.iter().all(|t| store_after.contains(t))
                && !removed.iter().any(|t| store_after.contains(t)),
            "StatsMaintainer::apply needs the net delta that produced `store_after`"
        );
        let delta: Vec<(EncodedTriple, isize)> = (added.iter().map(|&t| (t, 1)))
            .chain(removed.iter().map(|&t| (t, -1)))
            .collect();
        let mut stats = Stats {
            total: store_after.len(),
            ..base.clone()
        };
        for &(t, n) in &delta {
            bump(&mut stats.properties.entry(t.p).or_default().count, n);
            if t.p == ID_RDF_TYPE {
                bump(&mut stats.type_triples, n);
                bump(stats.classes.entry(t.o).or_default(), n);
            }
        }
        let props = &mut stats.properties;
        for (key, m) in presence_moves(&delta, store_after) {
            match key {
                [_, None, None] => bump(&mut stats.distinct_subjects, m),
                [_, None, Some(_)] => bump(&mut stats.distinct_objects, m),
                [_, Some(p), None] => bump(&mut props.entry(p).or_default().distinct_subjects, m),
                [_, Some(p), Some(_)] => bump(&mut props.entry(p).or_default().distinct_objects, m),
            }
        }
        stats.properties.retain(|_, ps| ps.count > 0);
        stats.classes.retain(|_, n| *n > 0);
        stats.distinct_properties = stats.properties.len();
        stats
    }
}

/// A statistics key: the positions it fixes, in `s, p, o` order. A triple
/// touches four — its subject, its object, and its property with either.
type Key = [Option<TermId>; 3];

/// Each key a signed delta (one `(triple, ±1)` per triple) touches, with its
/// presence move: `+1` if the key appears, `−1` if it vanishes, `0`
/// otherwise. Its count after the delta is one prefix count on
/// `store_after`, and its count before is that minus its net multiplicity.
fn presence_moves(delta: &[(EncodedTriple, isize)], store_after: &Store) -> Vec<(Key, isize)> {
    let mut keyed: Vec<(Key, isize)> = Vec::with_capacity(4 * delta.len());
    for &(t, n) in delta {
        let (s, p, o) = (Some(t.s), Some(t.p), Some(t.o));
        keyed
            .extend([[s, None, None], [None, None, o], [s, p, None], [None, p, o]].map(|k| (k, n)));
    }
    keyed.sort_unstable_by_key(|e| e.0);
    let bound = |x: Option<TermId>| x.map_or(Any, Const);
    keyed
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| {
            let [s, p, o] = run[0].0.map(bound);
            let after = store_after.count(Pattern { s, p, o }) as isize;
            let before = after - run.iter().map(|e| e.1).sum::<isize>();
            (run[0].0, isize::from(after > 0) - isize::from(before > 0))
        })
        .collect()
}

/// Move a count by a signed amount (a net delta never drives one below 0).
fn bump(count: &mut usize, by: isize) {
    *count = count.saturating_add_signed(by);
}

/// Value-distribution histograms for the demo's statistics screen (E7):
/// the `k` most frequent subjects and objects with their triple counts.
/// Separate from [`Stats`] because it does a second pass and experiments
/// only need it for reporting.
#[derive(Debug, Clone, Default)]
pub struct ValueDistribution {
    /// Most frequent subjects, descending.
    pub top_subjects: Vec<(TermId, usize)>,
    /// Most frequent objects, descending.
    pub top_objects: Vec<(TermId, usize)>,
}

impl ValueDistribution {
    /// Compute the top-`k` distributions.
    pub fn compute(store: &Store, k: usize) -> ValueDistribution {
        let mut subj_counts: FxHashMap<TermId, usize> = FxHashMap::default();
        let mut obj_counts: FxHashMap<TermId, usize> = FxHashMap::default();
        for t in store.iter() {
            *subj_counts.entry(t.s).or_insert(0) += 1;
            *obj_counts.entry(t.o).or_insert(0) += 1;
        }
        let top = |m: FxHashMap<TermId, usize>| {
            let mut v: Vec<(TermId, usize)> = m.into_iter().collect();
            v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            v.truncate(k);
            v
        };
        ValueDistribution {
            top_subjects: top(subj_counts),
            top_objects: top(obj_counts),
        }
    }
}

/// Attribute-pair statistics: for pairs of properties, how many subjects
/// carry both (the demo's "value distributions … for attribute pairs").
/// Also a refinement signal for join-selectivity estimation: the
/// independence assumption over-estimates the join of two properties that
/// rarely co-occur on a subject.
#[derive(Debug, Clone, Default)]
pub struct PairStats {
    /// `(property a, property b, subjects with both)`, `a < b`, sorted by
    /// co-occurrence count descending.
    pub pairs: Vec<(TermId, TermId, usize)>,
}

impl PairStats {
    /// Compute co-occurrence counts for the `top_k_properties` most frequent
    /// properties (the full quadratic table is rarely interesting).
    pub fn compute(store: &Store, stats: &Stats, top_k_properties: usize) -> PairStats {
        let top: Vec<TermId> = stats
            .top_properties(top_k_properties)
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        // Subject sets per property.
        let subject_sets: Vec<FxHashSet<TermId>> = top
            .iter()
            .map(|&p| store.scan(Pattern::property(p)).map(|t| t.s).collect())
            .collect();
        let mut pairs = Vec::new();
        for i in 0..top.len() {
            for j in (i + 1)..top.len() {
                let (small, large) = if subject_sets[i].len() <= subject_sets[j].len() {
                    (&subject_sets[i], &subject_sets[j])
                } else {
                    (&subject_sets[j], &subject_sets[i])
                };
                let common = small.iter().filter(|s| large.contains(s)).count();
                if common > 0 {
                    let (a, b) = if top[i] < top[j] {
                        (top[i], top[j])
                    } else {
                        (top[j], top[i])
                    };
                    pairs.push((a, b, common));
                }
            }
        }
        pairs.sort_by(|x, y| y.2.cmp(&x.2).then((x.0, x.1).cmp(&(y.0, y.1))));
        PairStats { pairs }
    }

    /// Co-occurrence count for a specific pair (0 if not computed/absent).
    pub fn common_subjects(&self, a: TermId, b: TermId) -> usize {
        let key = if a < b { (a, b) } else { (b, a) };
        self.pairs
            .iter()
            .find(|&&(x, y, _)| (x, y) == key)
            .map(|&(_, _, n)| n)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfref_model::{Dictionary, EncodedTriple, Term};

    fn fixture() -> (Store, Vec<TermId>) {
        let mut d = Dictionary::new();
        let ids: Vec<TermId> = ["a", "b", "c", "p", "q", "C1", "C2"]
            .iter()
            .map(|n| d.intern(&Term::iri(*n)))
            .collect();
        let (a, b, c, p, q, c1, c2) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[6]);
        let triples = vec![
            EncodedTriple::new(a, p, b),
            EncodedTriple::new(a, p, c),
            EncodedTriple::new(b, p, c),
            EncodedTriple::new(a, q, c),
            EncodedTriple::new(a, ID_RDF_TYPE, c1),
            EncodedTriple::new(b, ID_RDF_TYPE, c1),
            EncodedTriple::new(c, ID_RDF_TYPE, c2),
        ];
        (Store::from_triples(&triples), ids)
    }

    #[test]
    fn totals_and_distincts() {
        let (store, _ids) = fixture();
        let s = Stats::compute(&store);
        assert_eq!(s.total, 7);
        assert_eq!(s.distinct_properties, 3); // p, q, rdf:type
        assert_eq!(s.distinct_subjects, 3); // a, b, c
        assert_eq!(s.distinct_objects, 4); // b, c, C1, C2
    }

    #[test]
    fn per_property_stats() {
        let (store, ids) = fixture();
        let s = Stats::compute(&store);
        let p = s.property(ids[3]);
        assert_eq!(p.count, 3);
        assert_eq!(p.distinct_subjects, 2); // a, b
        assert_eq!(p.distinct_objects, 2); // b, c
        let q = s.property(ids[4]);
        assert_eq!(q.count, 1);
        assert_eq!(q.distinct_subjects, 1);
        assert_eq!(q.distinct_objects, 1);
        // Absent property: zeros.
        assert_eq!(s.property(TermId(9999)).count, 0);
    }

    #[test]
    fn class_counts() {
        let (store, ids) = fixture();
        let s = Stats::compute(&store);
        assert_eq!(s.type_triples, 3);
        assert_eq!(s.class_count(ids[5]), 2); // C1
        assert_eq!(s.class_count(ids[6]), 1); // C2
        assert_eq!(s.distinct_classes(), 2);
        assert_eq!(s.class_count(TermId(9999)), 0);
    }

    #[test]
    fn top_k_orders_descending() {
        let (store, ids) = fixture();
        let s = Stats::compute(&store);
        let top = s.top_properties(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].1, 3);
        assert!(top[0].1 >= top[1].1);
        let tc = s.top_classes(10);
        assert_eq!(tc[0], (ids[5], 2));
    }

    #[test]
    fn value_distribution() {
        let (store, ids) = fixture();
        let d = ValueDistribution::compute(&store, 2);
        assert_eq!(d.top_subjects[0], (ids[0], 4)); // a appears 4 times
        assert_eq!(d.top_subjects.len(), 2);
        assert_eq!(d.top_objects[0].1, 3); // c appears 3 times as object
    }

    #[test]
    fn pair_stats_count_co_occurring_subjects() {
        let (store, ids) = fixture();
        let stats = Stats::compute(&store);
        let pairs = PairStats::compute(&store, &stats, 5);
        // Subjects with both p and q: only `a` (p: a,b; q: a).
        assert_eq!(pairs.common_subjects(ids[3], ids[4]), 1);
        // Symmetric lookup.
        assert_eq!(pairs.common_subjects(ids[4], ids[3]), 1);
        // p and rdf:type share subjects a and b.
        assert_eq!(pairs.common_subjects(ids[3], ID_RDF_TYPE), 2);
        // Sorted descending by count.
        assert!(pairs.pairs.windows(2).all(|w| w[0].2 >= w[1].2));
    }

    #[test]
    fn maintainer_matches_full_recompute() {
        let (store, ids) = fixture();
        let (a, b, c, p, q, c1) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        let base = Stats::compute(&store);
        let mut maintainer = StatsMaintainer::from_store(&store);

        // Batch 1: add a fresh property and a type triple; drop a p-triple.
        let added = vec![
            EncodedTriple::new(c, TermId(100), a),
            EncodedTriple::new(c, ID_RDF_TYPE, c1),
        ];
        let removed = vec![EncodedTriple::new(b, p, c)];
        let store2 = store.apply_delta(&added, &removed);
        let inc2 = maintainer.apply(&base, &store2, &added, &removed);
        assert_eq!(inc2, Stats::compute(&store2));

        // Batch 2: remove the last q-triple (property disappears) and the
        // only C2 instance (class disappears).
        let added2 = vec![EncodedTriple::new(b, q, b)];
        let removed2 = vec![
            EncodedTriple::new(a, q, c),
            EncodedTriple::new(c, ID_RDF_TYPE, ids[6]),
        ];
        let store3 = store2.apply_delta(&added2, &removed2);
        let inc3 = maintainer.apply(&inc2, &store3, &added2, &removed2);
        assert_eq!(inc3, Stats::compute(&store3));
        assert_eq!(inc3.class_count(ids[6]), 0);
    }

    #[test]
    fn maintainer_handles_store_drained_to_empty() {
        let (store, _ids) = fixture();
        let base = Stats::compute(&store);
        let mut maintainer = StatsMaintainer::from_store(&store);
        let all: Vec<EncodedTriple> = store.iter().collect();
        let empty = store.apply_delta(&[], &all);
        let inc = maintainer.apply(&base, &empty, &[], &all);
        assert_eq!(inc, Stats::compute(&empty));
        assert_eq!(inc.total, 0);
        assert_eq!(inc.distinct_subjects, 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "net delta")]
    fn maintainer_rejects_a_delta_that_is_not_net() {
        let (store, ids) = fixture();
        let base = Stats::compute(&store);
        // One triple both added and removed: the lists are not disjoint.
        let both = vec![EncodedTriple::new(ids[2], ids[4], ids[0])];
        let after = store.apply_delta(&both, &both);
        StatsMaintainer::from_store(&store).apply(&base, &after, &both, &both);
    }

    #[test]
    fn empty_store_stats() {
        let store = Store::from_triples(&[]);
        let s = Stats::compute(&store);
        assert_eq!(s.total, 0);
        assert_eq!(s.distinct_classes(), 0);
        assert!(ValueDistribution::compute(&store, 5)
            .top_subjects
            .is_empty());
    }
}
