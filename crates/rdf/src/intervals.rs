//! Hierarchy-interval dictionary encoding (LiteMat-style).
//!
//! Classic dictionary encoding assigns [`TermId`]s in interning order, so the
//! subclasses of a class are scattered over the id space and a reformulated
//! query must union one scan per subclass. Interval encoding *re-encodes* the
//! id space so that every `rdfs:subClassOf` / `rdfs:subPropertyOf` subtree
//! occupies a contiguous id interval `[lo, hi)`: the N-way union collapses
//! into a single range scan over a sorted permutation index.
//!
//! The encoding is purely *physical*: the dictionary, parser, reasoner and
//! every logical id in the system stay in the classic ("base") id space
//! forever. Only the triple stores hold remapped ("encoded") ids, related to
//! base ids by the bijection [`HierarchyEncoder::encode`] /
//! [`HierarchyEncoder::decode`]. Query plans are remapped just before
//! evaluation and answer rows are decoded on the way out, so re-encoding on
//! schema change never invalidates ids held by clients.
//!
//! **Layout.** The five built-in vocabulary ids (`rdf:type`, …) keep their
//! fixed positions. Class-hierarchy nodes are then assigned consecutive ids
//! in DFS pre-order over the *primary-parent forest* (each node attached to
//! its smallest declared parent), followed by property-hierarchy nodes,
//! followed by every remaining term in base-id order.
//!
//! **Coverage and the DAG fallback.** A node `c` is *covered* iff its
//! primary-tree span contains exactly `{c} ∪ strict-subclasses(c)`. Under
//! multiple inheritance a node is placed under one parent only, so the other
//! ancestors' spans miss it and fail the size check — those subtrees simply
//! get no interval and reformulation falls back to the classic union. Nodes
//! on subclass cycles are excluded from the forest entirely.
//!
//! **The identity.** [`DictEncoding::Classic`] is the degenerate case where
//! no subtree earns an interval: [`HierarchyEncoder::default`] has an empty
//! bijection, so every id maps to itself and nothing is covered. It costs no
//! per-term memory, and [`HierarchyEncoder::encode_triples`] hands its input
//! back borrowed.

use crate::dictionary::{TermId, BUILTIN_COUNT};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::schema::{Schema, SchemaClosure};
use crate::triple::EncodedTriple;
use std::borrow::Cow;

/// Which dictionary encoding the storage layer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DictEncoding {
    /// Interning-order ids; reformulation unions one scan per subclass.
    #[default]
    Classic,
    /// Hierarchy-interval ids; covered subtrees become single range scans.
    Interval,
}

/// A half-open encoded-id interval `[lo, hi)`.
pub type IdRange = (TermId, TermId);

/// The interval encoder: a bijection between base and encoded id space plus
/// the subtree intervals it makes contiguous. The default is the identity.
#[derive(Debug, Clone, Default)]
pub struct HierarchyEncoder {
    /// `perm[base] = encoded`; a permutation of `[0, universe)`, empty for
    /// the identity.
    perm: Vec<TermId>,
    /// `inv[encoded] = base`; the inverse permutation.
    inv: Vec<TermId>,
    /// Covered class → encoded interval spanning `{c} ∪ subclasses(c)`.
    class_ranges: FxHashMap<TermId, IdRange>,
    /// Covered property → encoded interval spanning `{p} ∪ subproperties(p)`.
    prop_ranges: FxHashMap<TermId, IdRange>,
    /// Inverse of `class_ranges` (range atoms carry only the interval).
    class_of: FxHashMap<IdRange, TermId>,
    /// Inverse of `prop_ranges`.
    prop_of: FxHashMap<IdRange, TermId>,
}

/// One hierarchy's forest-assignment result.
struct ForestPass {
    ranges: FxHashMap<TermId, IdRange>,
}

impl HierarchyEncoder {
    /// Build the encoder for a schema over a dictionary of `universe` terms.
    ///
    /// Declared edges shape the primary-parent forest; the closure supplies
    /// the strict-descendant counts that decide coverage.
    pub fn build(schema: &Schema, closure: &SchemaClosure, universe: usize) -> HierarchyEncoder {
        let mut perm: Vec<TermId> = vec![TermId(u32::MAX); universe];
        // Built-ins keep their well-known slots under any permutation.
        let builtin = (BUILTIN_COUNT as usize).min(universe);
        for (i, slot) in perm.iter_mut().enumerate().take(builtin) {
            *slot = TermId(i as u32);
        }
        let mut next = builtin as u32;

        let classes = assign_forest(
            &schema.subclass,
            &closure.subclasses,
            &closure.superclasses,
            &mut perm,
            &mut next,
        );
        let props = assign_forest(
            &schema.subproperty,
            &closure.subproperties,
            &closure.superproperties,
            &mut perm,
            &mut next,
        );

        // Everything else keeps base order in the remaining encoded slots.
        for slot in perm.iter_mut() {
            if *slot == TermId(u32::MAX) {
                *slot = TermId(next);
                next += 1;
            }
        }
        debug_assert_eq!(next as usize, universe, "perm must be a permutation");

        let mut inv: Vec<TermId> = vec![TermId(0); universe];
        for (base, &enc) in perm.iter().enumerate() {
            inv[enc.index()] = TermId(base as u32);
        }

        let class_of = classes.ranges.iter().map(|(&c, &r)| (r, c)).collect();
        let prop_of = props.ranges.iter().map(|(&p, &r)| (r, p)).collect();
        HierarchyEncoder {
            perm,
            inv,
            class_ranges: classes.ranges,
            prop_ranges: props.ranges,
            class_of,
            prop_of,
        }
    }

    /// Number of terms the bijection was built over. Ids at or beyond this
    /// encode (and decode) to themselves, so a dictionary that has grown
    /// since the build stays consistent until the next re-encode.
    pub fn universe(&self) -> usize {
        self.perm.len()
    }

    /// True for the identity ([`HierarchyEncoder::default`]): base and
    /// encoded ids coincide, so nothing needs transporting.
    pub fn is_identity(&self) -> bool {
        self.perm.is_empty()
    }

    /// Base → encoded id.
    #[inline]
    pub fn encode(&self, id: TermId) -> TermId {
        self.perm.get(id.index()).copied().unwrap_or(id)
    }

    /// Encoded → base id.
    #[inline]
    pub fn decode(&self, id: TermId) -> TermId {
        self.inv.get(id.index()).copied().unwrap_or(id)
    }

    /// Remap a triple into encoded space.
    #[inline]
    pub fn encode_triple(&self, t: &EncodedTriple) -> EncodedTriple {
        EncodedTriple::new(self.encode(t.s), self.encode(t.p), self.encode(t.o))
    }

    /// Remap triples into encoded space: the slice itself, borrowed, under
    /// the identity.
    pub fn encode_triples<'t>(&self, triples: &'t [EncodedTriple]) -> Cow<'t, [EncodedTriple]> {
        if self.is_identity() {
            return Cow::Borrowed(triples);
        }
        Cow::Owned(triples.iter().map(|t| self.encode_triple(t)).collect())
    }

    /// Remap a triple back into base space.
    #[inline]
    pub fn decode_triple(&self, t: &EncodedTriple) -> EncodedTriple {
        EncodedTriple::new(self.decode(t.s), self.decode(t.p), self.decode(t.o))
    }

    /// The encoded interval covering `{c} ∪ subclasses(c)`, if `c`'s subtree
    /// is covered (tree-shaped, acyclic, at least one strict subclass).
    pub fn class_range(&self, c: TermId) -> Option<IdRange> {
        self.class_ranges.get(&c).copied()
    }

    /// The encoded interval covering `{p} ∪ subproperties(p)`, if covered.
    pub fn prop_range(&self, p: TermId) -> Option<IdRange> {
        self.prop_ranges.get(&p).copied()
    }

    /// The base class whose subtree a class interval denotes.
    pub fn class_of_range(&self, r: IdRange) -> Option<TermId> {
        self.class_of.get(&r).copied()
    }

    /// The base property whose subtree a property interval denotes.
    pub fn prop_of_range(&self, r: IdRange) -> Option<TermId> {
        self.prop_of.get(&r).copied()
    }

    /// Number of covered class intervals (report/bench statistic).
    pub fn class_range_count(&self) -> usize {
        self.class_ranges.len()
    }

    /// Number of covered property intervals.
    pub fn prop_range_count(&self) -> usize {
        self.prop_ranges.len()
    }
}

/// Assign one hierarchy's nodes to consecutive encoded ids in DFS pre-order
/// over the primary-parent forest, recording covered subtree intervals.
fn assign_forest(
    declared: &FxHashSet<(TermId, TermId)>,
    strict_subs: &FxHashMap<TermId, FxHashSet<TermId>>,
    strict_sups: &FxHashMap<TermId, FxHashSet<TermId>>,
    perm: &mut [TermId],
    next: &mut u32,
) -> ForestPass {
    let unassigned = TermId(u32::MAX);
    // A node is usable iff it is a real user term, not already placed by an
    // earlier pass, and not on a hierarchy cycle (a cyclic node is a strict
    // "descendant" of itself in the closure).
    let usable = |n: TermId| {
        n.index() >= BUILTIN_COUNT as usize
            && n.index() < perm.len()
            && perm[n.index()] == unassigned
            && !strict_sups.get(&n).map(|s| s.contains(&n)).unwrap_or(false)
    };

    let mut nodes: Vec<TermId> = declared
        .iter()
        .flat_map(|&(a, b)| [a, b])
        .filter(|&n| usable(n))
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    let node_set: FxHashSet<TermId> = nodes.iter().copied().collect();

    // Primary parent: the smallest declared parent that is itself usable.
    let mut primary: FxHashMap<TermId, TermId> = FxHashMap::default();
    for &(sub, sup) in declared {
        if !node_set.contains(&sub) || !node_set.contains(&sup) || sub == sup {
            continue;
        }
        match primary.get_mut(&sub) {
            Some(p) => *p = (*p).min(sup),
            None => {
                primary.insert(sub, sup);
            }
        }
    }
    let mut children: FxHashMap<TermId, Vec<TermId>> = FxHashMap::default();
    for (&sub, &sup) in &primary {
        children.entry(sup).or_default().push(sub);
    }
    for kids in children.values_mut() {
        kids.sort_unstable();
    }

    // Iterative DFS; `spans` records each node's pre-order id and the id
    // right after its subtree.
    let mut spans: FxHashMap<TermId, IdRange> = FxHashMap::default();
    for &root in nodes.iter().filter(|n| !primary.contains_key(n)) {
        // (node, entered) — the second visit closes the span.
        let mut stack: Vec<(TermId, bool)> = vec![(root, false)];
        while let Some((n, entered)) = stack.pop() {
            if entered {
                if let Some(span) = spans.get_mut(&n) {
                    span.1 = TermId(*next);
                }
                continue;
            }
            perm[n.index()] = TermId(*next);
            spans.insert(n, (TermId(*next), TermId(*next)));
            *next += 1;
            stack.push((n, true));
            if let Some(kids) = children.get(&n) {
                for &k in kids.iter().rev() {
                    stack.push((k, false));
                }
            }
        }
    }

    // Coverage: the span holds exactly the primary-tree descendants, all of
    // which are strict closure-descendants, so equal cardinality means the
    // span is exactly {n} ∪ strict-descendants(n).
    let mut ranges: FxHashMap<TermId, IdRange> = FxHashMap::default();
    for (&n, &(lo, hi)) in &spans {
        let span_size = (hi.0 - lo.0) as usize;
        let sub_count = strict_subs.get(&n).map(|s| s.len()).unwrap_or(0);
        if sub_count >= 1 && span_size == 1 + sub_count {
            ranges.insert(n, (lo, hi));
        }
    }
    ForestPass { ranges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::Dictionary;
    use crate::term::Term;

    fn ids(d: &mut Dictionary, names: &[&str]) -> Vec<TermId> {
        names.iter().map(|n| d.intern(&Term::iri(*n))).collect()
    }

    fn build(d: &Dictionary, s: &Schema) -> HierarchyEncoder {
        HierarchyEncoder::build(s, &s.closure(), d.len())
    }

    #[test]
    fn bijection_and_builtins_fixed() {
        let mut d = Dictionary::new();
        let v = ids(&mut d, &["A", "B", "C", "x", "y"]);
        let mut s = Schema::new();
        s.add_subclass(v[1], v[0]);
        s.add_subclass(v[2], v[0]);
        let e = build(&d, &s);
        for i in 0..BUILTIN_COUNT {
            assert_eq!(e.encode(TermId(i)), TermId(i));
        }
        let mut seen = FxHashSet::default();
        for i in 0..d.len() as u32 {
            let enc = e.encode(TermId(i));
            assert!(seen.insert(enc), "encode not injective");
            assert_eq!(e.decode(enc), TermId(i), "decode(encode(x)) != x");
        }
        // Ids beyond the build universe are identity-mapped.
        assert_eq!(e.encode(TermId(1000)), TermId(1000));
        assert_eq!(e.decode(TermId(1000)), TermId(1000));
    }

    #[test]
    fn tree_subtree_is_contiguous_interval() {
        // A ⊒ {B ⊒ {D, E}, C}
        let mut d = Dictionary::new();
        let v = ids(&mut d, &["A", "B", "C", "D", "E"]);
        let (a, b, c, dd, e_) = (v[0], v[1], v[2], v[3], v[4]);
        let mut s = Schema::new();
        s.add_subclass(b, a);
        s.add_subclass(c, a);
        s.add_subclass(dd, b);
        s.add_subclass(e_, b);
        let e = build(&d, &s);

        let (lo, hi) = e.class_range(a).expect("root covered");
        assert_eq!(hi.0 - lo.0, 5);
        for &n in &[a, b, c, dd, e_] {
            let enc = e.encode(n);
            assert!(lo <= enc && enc < hi, "{n} outside root interval");
        }
        let (blo, bhi) = e.class_range(b).expect("inner node covered");
        assert_eq!(bhi.0 - blo.0, 3);
        for &n in &[b, dd, e_] {
            let enc = e.encode(n);
            assert!(blo <= enc && enc < bhi);
        }
        // The inner interval nests inside the root's.
        assert!(lo <= blo && bhi <= hi);
        // Leaves have no interval (nothing to compress).
        assert_eq!(e.class_range(c), None);
        assert_eq!(e.class_range(dd), None);
        // Reverse lookup.
        assert_eq!(e.class_of_range((lo, hi)), Some(a));
        assert_eq!(e.class_of_range((blo, bhi)), Some(b));
    }

    #[test]
    fn diamond_covers_top_not_secondary_parent() {
        // A ⊑ B, A ⊑ C, B ⊑ D, C ⊑ D: D and A's primary parent are covered,
        // the secondary parent is not.
        let mut d = Dictionary::new();
        let v = ids(&mut d, &["A", "B", "C", "D"]);
        let (a, b, c, top) = (v[0], v[1], v[2], v[3]);
        let mut s = Schema::new();
        s.add_subclass(a, b);
        s.add_subclass(a, c);
        s.add_subclass(b, top);
        s.add_subclass(c, top);
        let e = build(&d, &s);

        let (lo, hi) = e.class_range(top).expect("diamond top covered");
        assert_eq!(hi.0 - lo.0, 4);
        // A's primary parent is min(B, C) = B; B's span holds {B, A}.
        assert_eq!(e.class_range(b).map(|(l, h)| h.0 - l.0), Some(2));
        // C's span misses A, so C falls back to classic union.
        assert_eq!(e.class_range(c), None);
    }

    #[test]
    fn cycle_nodes_are_never_covered() {
        let mut d = Dictionary::new();
        let v = ids(&mut d, &["A", "B", "C"]);
        let mut s = Schema::new();
        s.add_subclass(v[0], v[1]);
        s.add_subclass(v[1], v[0]);
        s.add_subclass(v[2], v[0]);
        let e = build(&d, &s);
        assert_eq!(e.class_range(v[0]), None);
        assert_eq!(e.class_range(v[1]), None);
        // Still a valid bijection.
        let mut seen = FxHashSet::default();
        for i in 0..d.len() as u32 {
            assert!(seen.insert(e.encode(TermId(i))));
        }
    }

    #[test]
    fn property_hierarchy_gets_own_intervals() {
        let mut d = Dictionary::new();
        let v = ids(&mut d, &["p", "q", "r", "A", "B"]);
        let (p, q, r, a, b) = (v[0], v[1], v[2], v[3], v[4]);
        let mut s = Schema::new();
        s.add_subproperty(q, p);
        s.add_subproperty(r, p);
        s.add_subclass(b, a);
        let e = build(&d, &s);
        let (lo, hi) = e.prop_range(p).expect("property root covered");
        assert_eq!(hi.0 - lo.0, 3);
        assert_eq!(e.prop_of_range((lo, hi)), Some(p));
        // Class and property intervals live in disjoint blocks.
        let (clo, chi) = e.class_range(a).expect("class root covered");
        assert!(chi <= lo || hi <= clo);
        assert_eq!(e.class_range_count(), 1);
        assert_eq!(e.prop_range_count(), 1);
    }

    #[test]
    fn empty_schema_is_identity() {
        let mut d = Dictionary::new();
        let v = ids(&mut d, &["x", "y"]);
        let s = Schema::new();
        let e = build(&d, &s);
        for &n in &v {
            assert_eq!(e.encode(n), n);
            assert_eq!(e.decode(n), n);
        }
        assert_eq!(e.class_range_count(), 0);
    }

    /// The classic encoding's encoder maps every id to itself, below and
    /// above any universe, covers nothing, and transports triples without a
    /// copy.
    #[test]
    fn the_default_encoder_is_the_identity_and_copies_nothing() {
        let e = HierarchyEncoder::default();
        assert!(e.is_identity());
        for id in [0, 1, BUILTIN_COUNT, 7, 1000, u32::MAX - 1].map(TermId) {
            assert_eq!(e.encode(id), id);
            assert_eq!(e.decode(id), id);
            assert_eq!(e.class_range(id), None);
            assert_eq!(e.prop_range(id), None);
        }
        assert_eq!(e.class_range_count(), 0);
        assert_eq!(e.prop_range_count(), 0);
        let triples = [EncodedTriple::new(TermId(9), TermId(0), TermId(1000))];
        let Cow::Borrowed(same) = e.encode_triples(&triples) else {
            panic!("the identity copied the triples");
        };
        assert!(std::ptr::eq(same, &triples[..]));
        // A built encoder, even over an empty schema, does transport.
        let built = build(&Dictionary::new(), &Schema::new());
        assert!(!built.is_identity());
        assert!(matches!(built.encode_triples(&triples), Cow::Owned(_)));
    }

    #[test]
    fn deep_chain_every_inner_node_covered() {
        let mut d = Dictionary::new();
        let names: Vec<String> = (0..32).map(|i| format!("C{i}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let v = ids(&mut d, &refs);
        let mut s = Schema::new();
        for w in v.windows(2) {
            s.add_subclass(w[1], w[0]); // C_{i+1} ⊑ C_i
        }
        let e = build(&d, &s);
        for (i, &c) in v.iter().enumerate().take(31) {
            let (lo, hi) = e.class_range(c).expect("chain node covered");
            assert_eq!((hi.0 - lo.0) as usize, 32 - i);
        }
        assert_eq!(e.class_range(v[31]), None);
    }
}
