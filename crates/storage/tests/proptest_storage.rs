//! Property tests of the storage layer: index scans vs a naive reference,
//! statistics consistency, relation algebra laws, and union minimisation
//! against evaluation.

use proptest::prelude::*;
use rdfref_model::dictionary::ID_RDF_TYPE;
use rdfref_model::{EncodedTriple, TermId};
use rdfref_query::ast::{Atom, Cq, PTerm, Substitution, Ucq};
use rdfref_query::containment::minimize_union;
use rdfref_query::Var;
use rdfref_storage::evaluator::Evaluator;
use rdfref_storage::relation::Relation;
use rdfref_storage::store::{Bound, Pattern, Store};
use rdfref_storage::{ExecMetrics, JoinAlgorithm, Parallelism, Stats, StatsMaintainer};

fn triples_strategy() -> impl Strategy<Value = Vec<EncodedTriple>> {
    proptest::collection::vec(
        (5u32..15, 0u32..8, 5u32..20).prop_map(|(s, p, o)| {
            // Property pool includes rdf:type (id 0) sometimes.
            let prop = if p == 0 { ID_RDF_TYPE } else { TermId(p + 100) };
            EncodedTriple::new(TermId(s), prop, TermId(o))
        }),
        0..60,
    )
}

/// The property and the class the chained statistics test drives to zero.
const GONE_P: TermId = TermId(103);
const GONE_C: TermId = TermId(9);

/// A triple over small id pools, so triples drawn together share keys:
/// subjects 5..9, objects 5..10 (classes under `rdf:type`), and the
/// properties `rdf:type`, 101, 102 and [`GONE_P`].
fn small_triple() -> impl Strategy<Value = EncodedTriple> {
    (5u32..9, 0u32..4, 5u32..10).prop_map(|(s, p, o)| {
        let prop = if p == 0 { ID_RDF_TYPE } else { TermId(100 + p) };
        EncodedTriple::new(TermId(s), prop, TermId(o))
    })
}

/// Pattern positions over the ids `triples_strategy` draws from, intervals
/// included; `pool` picks subject/object ids or property ids.
fn position(pool: std::ops::Range<u32>) -> impl Strategy<Value = PTerm> {
    let (lo, hi) = (pool.start, pool.end);
    prop_oneof![
        3 => (lo..hi).prop_map(|c| PTerm::Const(TermId(c))),
        4 => (0u8..4).prop_map(|i| PTerm::Var(Var::new(format!("v{i}")))),
        1 => (lo..hi, 1u32..6).prop_map(|(from, len)| PTerm::Range(TermId(from), TermId(from + len))),
    ]
}

fn atom_strategy() -> impl Strategy<Value = Atom> {
    let property = prop_oneof![
        1 => (0u32..1).prop_map(|_| PTerm::Const(ID_RDF_TYPE)),
        4 => position(101..108),
    ];
    (position(5..20), property, position(5..20)).prop_map(|(s, p, o)| Atom { s, p, o })
}

/// A safe unary CQ and a near-specialisation of it (variables substituted,
/// an atom added), so that unions of them hold redundant disjuncts. The head
/// is a body variable, or a constant when the body has none.
fn related_cqs() -> impl Strategy<Value = [Cq; 2]> {
    (
        proptest::collection::vec(atom_strategy(), 1..4),
        0usize..12,
        proptest::collection::vec(proptest::option::of(position(5..20)), 4..5),
        proptest::option::of(atom_strategy()),
    )
        .prop_map(|(body, pick, images, extra)| {
            let vars: Vec<Var> = body.iter().flat_map(|a| a.vars().cloned()).collect();
            let head = match vars.get(pick % vars.len().max(1)) {
                Some(v) => PTerm::Var(v.clone()),
                None => PTerm::Const(TermId(5)),
            };
            let general = Cq::new_unchecked(vec![head], body);
            let mut subst = Substitution::default();
            for (i, image) in images.into_iter().enumerate() {
                // An interval cannot stand in a head.
                if let Some(image) = image.filter(|t| !t.is_range()) {
                    subst.insert(Var::new(format!("v{i}")), image);
                }
            }
            let mut specific = general.apply(&subst);
            specific.body.extend(extra);
            [specific, general]
        })
}

/// Sort-merge natural join — the independent reference the library's hash
/// join is checked against (same rows and columns, other access pattern).
/// Both inputs are sorted on the shared key, then merged with
/// duplicate-group handling; needs at least one shared column.
fn sort_merge_join(left: &Relation, right: &Relation) -> Relation {
    let shared: Vec<(usize, usize)> = left
        .columns()
        .iter()
        .enumerate()
        .filter_map(|(i, v)| right.column_index(v).map(|j| (i, j)))
        .collect();
    assert!(!shared.is_empty(), "merge join needs a key");
    let right_extra: Vec<usize> = (0..right.arity())
        .filter(|j| !shared.iter().any(|&(_, sj)| sj == *j))
        .collect();
    let mut out_cols = left.columns().to_vec();
    out_cols.extend(right_extra.iter().map(|&j| right.columns()[j].clone()));
    let mut out = Relation::empty(out_cols);

    let sorted_keys = |rel: &Relation, idx: Vec<usize>| -> Vec<(Vec<TermId>, usize)> {
        let mut keys: Vec<(Vec<TermId>, usize)> = (0..rel.len())
            .map(|r| (idx.iter().map(|&k| rel.row(r)[k]).collect(), r))
            .collect();
        keys.sort();
        keys
    };
    let lk = sorted_keys(left, shared.iter().map(|&(i, _)| i).collect());
    let rk = sorted_keys(right, shared.iter().map(|&(_, j)| j).collect());
    let (mut li, mut ri) = (0usize, 0usize);
    while li < lk.len() && ri < rk.len() {
        match lk[li].0.cmp(&rk[ri].0) {
            std::cmp::Ordering::Less => li += 1,
            std::cmp::Ordering::Greater => ri += 1,
            std::cmp::Ordering::Equal => {
                // Delimit the duplicate groups on both sides.
                let l_end = li + lk[li..].partition_point(|(k, _)| *k == lk[li].0);
                let r_end = ri + rk[ri..].partition_point(|(k, _)| *k == rk[ri].0);
                for (_, l) in &lk[li..l_end] {
                    for (_, r) in &rk[ri..r_end] {
                        let mut row = left.row(*l).to_vec();
                        row.extend(right_extra.iter().map(|&j| right.row(*r)[j]));
                        out.push_row(&row).unwrap();
                    }
                }
                li = l_end;
                ri = r_end;
            }
        }
    }
    out
}

/// A relation over a random ≤3-column subset of `pool` (optionally
/// reversed, so shared columns sit at different indices on the two sides)
/// with 0–12 rows over a 3-value domain: duplicates, empty sides and
/// zero-arity relations (whose rows are unit rows) all occur.
fn relation_strategy(pool: [&'static str; 4]) -> impl Strategy<Value = Relation> {
    (
        0usize..16,
        any::<bool>(),
        proptest::collection::vec(proptest::collection::vec(0u32..3, 3), 0..12),
    )
        .prop_map(move |(mask, reversed, rows)| {
            let mut cols: Vec<&str> = (0..4)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| pool[i])
                .take(3)
                .collect();
            if reversed {
                cols.reverse();
            }
            let mut rel = Relation::empty(cols.iter().map(|c| Var::new(*c)).collect());
            for row in rows {
                let ids: Vec<TermId> = row[..cols.len()].iter().map(|&v| TermId(v)).collect();
                rel.push_row(&ids).unwrap();
            }
            rel
        })
}

/// Nested-loop natural join in the hash join's documented row order: the
/// larger side (the right one on a tie) is the outer loop, the smaller the
/// inner, both in row order.
fn nested_loop_join(left: &Relation, right: &Relation) -> Vec<Vec<TermId>> {
    let shared: Vec<(usize, usize)> = left
        .columns()
        .iter()
        .enumerate()
        .filter_map(|(i, v)| right.column_index(v).map(|j| (i, j)))
        .collect();
    let emit = |l: &[TermId], r: &[TermId]| -> Option<Vec<TermId>> {
        shared.iter().all(|&(i, j)| l[i] == r[j]).then(|| {
            let mut row = l.to_vec();
            row.extend(
                (0..r.len())
                    .filter(|j| !shared.iter().any(|&(_, sj)| sj == *j))
                    .map(|j| r[j]),
            );
            row
        })
    };
    if left.len() <= right.len() {
        right
            .rows()
            .flat_map(|r| left.rows().filter_map(move |l| emit(l, r)))
            .collect()
    } else {
        left.rows()
            .flat_map(|l| right.rows().filter_map(move |r| emit(l, r)))
            .collect()
    }
}

fn naive_scan(triples: &[EncodedTriple], pat: Pattern) -> Vec<EncodedTriple> {
    let mut out: Vec<EncodedTriple> = triples
        .iter()
        .filter(|t| pat.s.admits(t.s) && pat.p.admits(t.p) && pat.o.admits(t.o))
        .copied()
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every pattern shape, intervals included, agrees with the naive
    /// reference filter.
    #[test]
    fn scans_match_naive_reference(
        triples in triples_strategy(),
        atom in atom_strategy(),
    ) {
        let store = Store::from_triples(&triples);
        let bound = |t: &PTerm| match t {
            PTerm::Var(_) => Bound::Any,
            PTerm::Const(c) => Bound::Const(*c),
            PTerm::Range(lo, hi) => Bound::Range(*lo, *hi),
        };
        let pat = Pattern { s: bound(&atom.s), p: bound(&atom.p), o: bound(&atom.o) };
        let mut got: Vec<EncodedTriple> = store.scan(pat).collect();
        got.sort_unstable();
        let expected = naive_scan(&triples, pat);
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(store.count(pat), expected.len());
    }

    /// Statistics identities: per-property counts sum to the total; class
    /// counts sum to the number of type triples; distinct counts are exact.
    #[test]
    fn stats_identities(triples in triples_strategy()) {
        let store = Store::from_triples(&triples);
        let stats = Stats::compute(&store);
        let total: usize = stats.properties.values().map(|p| p.count).sum();
        prop_assert_eq!(total, store.len());
        let class_sum: usize = stats.classes.values().sum();
        prop_assert_eq!(class_sum, stats.type_triples);
        // Exact distinct subject count.
        let mut subjects: Vec<TermId> = store.iter().map(|t| t.s).collect();
        subjects.sort_unstable();
        subjects.dedup();
        prop_assert_eq!(stats.distinct_subjects, subjects.len());
        // Per-property distincts.
        for (&p, ps) in &stats.properties {
            let mut subs: Vec<TermId> = store
                .iter()
                .filter(|t| t.p == p)
                .map(|t| t.s)
                .collect();
            subs.sort_unstable();
            subs.dedup();
            prop_assert_eq!(ps.distinct_subjects, subs.len());
        }
    }

    /// Copy-on-write delta application over small buckets equals a rebuild
    /// from the updated triple set, for every pattern shape, and keeps exact
    /// statistics maintainable.
    #[test]
    fn apply_delta_matches_rebuild_and_stats_stay_exact(
        base in triples_strategy(),
        inserts in triples_strategy(),
        remove_mask in proptest::collection::vec(any::<bool>(), 60),
        bucket in 1usize..9,
    ) {
        let store = Store::from_triples_with_bucket_target(&base, bucket);
        // Net delta: inserts not already present, removes actually present.
        let removes: Vec<EncodedTriple> = store
            .iter()
            .enumerate()
            .filter(|(i, _)| remove_mask.get(*i).copied().unwrap_or(false))
            .map(|(_, t)| t)
            .collect();
        let mut net_inserts: Vec<EncodedTriple> = inserts
            .iter()
            .filter(|t| !store.contains(t))
            .copied()
            .collect();
        net_inserts.sort_unstable();
        net_inserts.dedup();

        let updated = store.apply_delta(&net_inserts, &removes);
        let mut expected_set: Vec<EncodedTriple> = base.clone();
        expected_set.extend(net_inserts.iter().copied());
        expected_set.retain(|t| !removes.contains(t));
        let rebuilt = Store::from_triples(&expected_set);

        prop_assert_eq!(updated.len(), rebuilt.len());
        prop_assert_eq!(
            updated.iter().collect::<Vec<_>>(),
            rebuilt.iter().collect::<Vec<_>>()
        );
        // Spot-check pattern shapes against the naive reference.
        for pat in [
            Pattern::ALL,
            Pattern { s: Bound::Const(TermId(7)), ..Pattern::ALL },
            Pattern::property(ID_RDF_TYPE),
            Pattern { o: Bound::Const(TermId(9)), ..Pattern::ALL },
            Pattern { s: Bound::Const(TermId(7)), o: Bound::Const(TermId(9)), ..Pattern::ALL },
        ] {
            let mut got: Vec<EncodedTriple> = updated.scan(pat).collect();
            got.sort_unstable();
            prop_assert_eq!(got, naive_scan(&expected_set, pat));
        }
        // Incremental statistics equal a full recompute.
        let base_stats = Stats::compute(&store);
        let mut maintainer = StatsMaintainer::from_store(&store);
        let inc = maintainer.apply(&base_stats, &updated, &net_inserts, &removes);
        prop_assert_eq!(inc, Stats::compute(&updated));
        // The pre-delta snapshot still answers as before (immutability).
        prop_assert_eq!(store.len(), Store::from_triples(&base).len());
    }

    /// One maintainer follows a chain of deltas exactly. Each delta toggles
    /// triples drawn from small pools, so its inserts and removes share
    /// subjects, objects and properties within one `apply`; step 1 drives
    /// one property and one class to zero and step 3 brings both back.
    #[test]
    fn stats_maintenance_is_exact_over_chained_mixed_deltas(
        base in proptest::collection::vec(small_triple(), 0..30),
        toggles in proptest::collection::vec(proptest::collection::vec(small_triple(), 1..12), 4..7),
        bucket in 1usize..9,
    ) {
        let doomed = |t: &EncodedTriple| t.p == GONE_P || (t.p == ID_RDF_TYPE && t.o == GONE_C);
        let revived = [
            EncodedTriple::new(TermId(8), GONE_P, TermId(5)),
            EncodedTriple::new(TermId(8), ID_RDF_TYPE, GONE_C),
        ];
        let mut store = Store::from_triples_with_bucket_target(&[&base[..], &revived[..]].concat(), bucket);
        let mut stats = Stats::compute(&store);
        let mut maintainer = StatsMaintainer::from_store(&store);
        for (step, toggle) in toggles.into_iter().enumerate() {
            let mut toggle = toggle;
            if step == 1 || step == 3 {
                toggle.retain(|t| !doomed(t));
            }
            match step {
                1 => toggle.extend(store.iter().filter(|t| doomed(t))),
                3 => toggle.extend(revived.into_iter().filter(|t| !store.contains(t))),
                _ => {}
            }
            toggle.sort_unstable();
            toggle.dedup();
            let (removed, added): (Vec<_>, Vec<_>) = toggle.into_iter().partition(|t| store.contains(t));
            let next = store.apply_delta(&added, &removed);
            stats = maintainer.apply(&stats, &next, &added, &removed);
            prop_assert_eq!(&stats, &Stats::compute(&next), "after step {}", step);
            store = next;
            match step {
                1 => prop_assert!(stats.property(GONE_P).count == 0 && stats.class_count(GONE_C) == 0),
                3 => prop_assert!(stats.property(GONE_P).count > 0 && stats.class_count(GONE_C) > 0),
                _ => {}
            }
        }
    }

    /// Natural join is commutative up to column order, and joining a
    /// relation with itself is the identity (after dedup).
    #[test]
    fn join_laws(
        left_rows in proptest::collection::vec((0u32..6, 0u32..6), 0..20),
        right_rows in proptest::collection::vec((0u32..6, 0u32..6), 0..20),
    ) {
        let mk = |cols: [&str; 2], rows: &[(u32, u32)]| {
            let mut r = Relation::empty(vec![Var::new(cols[0]), Var::new(cols[1])]);
            for &(a, b) in rows {
                r.push_row(&[TermId(a), TermId(b)]).unwrap();
            }
            r.dedup();
            r
        };
        let l = mk(["x", "y"], &left_rows);
        let r = mk(["y", "z"], &right_rows);

        // Commutativity up to projection order.
        let cols = [Var::new("x"), Var::new("y"), Var::new("z")];
        let mut a = l.natural_join(&r).project(&cols).unwrap();
        let mut b = r.natural_join(&l).project(&cols).unwrap();
        a.sort();
        b.sort();
        prop_assert_eq!(a.to_rows(), b.to_rows());

        // Self-join idempotence.
        let mut selfjoin = l.natural_join(&l);
        selfjoin.dedup();
        selfjoin.sort();
        let mut l_sorted = l.clone();
        l_sorted.sort();
        prop_assert_eq!(selfjoin.to_rows(), l_sorted.to_rows());
    }

    /// The hash join emits exactly the nested-loop oracle's rows, in its
    /// order, over 0–3 shared columns, duplicate rows, unit/zero-arity
    /// relations and empty sides.
    #[test]
    fn natural_join_matches_nested_loop_in_order(
        left in relation_strategy(["a", "b", "c", "d"]),
        right in relation_strategy(["a", "b", "c", "e"]),
    ) {
        let joined = left.natural_join(&right);
        let mut cols = left.columns().to_vec();
        cols.extend(
            right.columns().iter().filter(|c| left.column_index(c).is_none()).cloned(),
        );
        prop_assert_eq!(joined.columns(), &cols[..]);
        prop_assert_eq!(joined.to_rows(), nested_loop_join(&left, &right));
    }

    /// The sort-merge reference computes exactly the hash join's result.
    #[test]
    fn merge_join_matches_hash_join(
        left_rows in proptest::collection::vec((0u32..6, 0u32..6), 0..25),
        right_rows in proptest::collection::vec((0u32..6, 0u32..6), 0..25),
    ) {
        let mk = |cols: [&str; 2], rows: &[(u32, u32)]| {
            let mut r = Relation::empty(vec![Var::new(cols[0]), Var::new(cols[1])]);
            for &(a, b) in rows {
                r.push_row(&[TermId(a), TermId(b)]).unwrap();
            }
            r
        };
        let l = mk(["x", "y"], &left_rows);
        let r = mk(["y", "z"], &right_rows);
        let mut hash = l.natural_join(&r);
        let mut merge = sort_merge_join(&l, &r);
        hash.sort();
        merge.sort();
        prop_assert_eq!(hash.columns(), merge.columns());
        prop_assert_eq!(hash.to_rows(), merge.to_rows());
        // Two shared columns too.
        let r2 = mk(["x", "y"], &right_rows);
        let mut hash2 = l.natural_join(&r2);
        let mut merge2 = sort_merge_join(&l, &r2);
        hash2.sort();
        merge2.sort();
        prop_assert_eq!(hash2.to_rows(), merge2.to_rows());
    }

    /// `Relation::sort` is `Vec::sort` over its rows for arities 0–5, on
    /// whichever kernel runs: ids below 2¹⁰ pack into `u64` keys at every
    /// arity ≥ 2; ids near `u32::MAX` pack only at arity 2 (2 × 32 bits)
    /// and otherwise take the row-index permutation (arity 3–5).
    /// Zero-arity unit rows stay as they are.
    /// `is_sorted` tells a sorted input apart.
    #[test]
    fn sort_matches_vec_sort_on_every_kernel(
        arity in 0usize..6,
        wide in any::<bool>(),
        rows in proptest::collection::vec(
            proptest::collection::vec(prop_oneof![0u32..3, 0u32..1024], 5),
            0..40,
        ),
    ) {
        let id = |x: u32| TermId(if wide { u32::MAX - 1 - x } else { x });
        let cols: Vec<Var> = (0..arity).map(|i| Var::new(format!("c{i}"))).collect();
        let mut rel = Relation::empty(cols);
        for row in &rows {
            let ids: Vec<TermId> = row[..arity].iter().map(|&x| id(x)).collect();
            rel.push_row(&ids).unwrap();
        }
        let mut expected = rel.to_rows();
        let was_sorted = expected.is_sorted();
        expected.sort();
        prop_assert_eq!(rel.is_sorted(), was_sorted);
        rel.sort();
        prop_assert_eq!(rel.len(), rows.len());
        prop_assert_eq!(rel.to_rows(), expected);
        prop_assert!(rel.is_sorted());
    }

    /// Projection then dedup never grows a relation and keeps only listed
    /// columns.
    #[test]
    fn projection_laws(rows in proptest::collection::vec((0u32..5, 0u32..5, 0u32..5), 0..25)) {
        let mut r = Relation::empty(vec![Var::new("a"), Var::new("b"), Var::new("c")]);
        for &(x, y, z) in &rows {
            r.push_row(&[TermId(x), TermId(y), TermId(z)]).unwrap();
        }
        let mut p = r.project(&[Var::new("c"), Var::new("a")]).unwrap();
        p.dedup();
        prop_assert!(p.len() <= r.len().max(1));
        prop_assert_eq!(p.arity(), 2);
        // Every projected row comes from some source row.
        for row in p.rows() {
            prop_assert!(r.rows().any(|orig| orig[2] == row[0] && orig[0] == row[1]));
        }
    }
}

/// Does `t` match the term at one atom position under `binding`? Extends
/// `binding` when `t` binds a fresh variable.
fn match_term(t: &PTerm, v: TermId, binding: &mut Vec<(Var, TermId)>) -> bool {
    match t {
        PTerm::Const(c) => *c == v,
        PTerm::Range(lo, hi) => *lo <= v && v < *hi,
        PTerm::Var(x) => match binding.iter().find(|(y, _)| y == x) {
            Some(&(_, bound)) => bound == v,
            None => {
                binding.push((x.clone(), v));
                true
            }
        },
    }
}

/// Nested-loop CQ evaluation: every atom is matched against every triple,
/// extending the variable binding atom by atom; no index and no access
/// path. Returns the sorted, deduplicated head rows.
fn nested_loop_cq(triples: &[EncodedTriple], cq: &Cq) -> Vec<Vec<TermId>> {
    fn walk(
        triples: &[EncodedTriple],
        cq: &Cq,
        depth: usize,
        binding: &mut Vec<(Var, TermId)>,
        out: &mut Vec<Vec<TermId>>,
    ) {
        let Some(atom) = cq.body.get(depth) else {
            let value = |t: &PTerm| match t {
                PTerm::Var(x) => binding.iter().find(|(y, _)| y == x).map(|b| b.1),
                other => other.as_const(),
            };
            out.push(cq.head.iter().map(|t| value(t).unwrap()).collect());
            return;
        };
        for t in triples {
            let mark = binding.len();
            if match_term(&atom.s, t.s, binding)
                && match_term(&atom.p, t.p, binding)
                && match_term(&atom.o, t.o, binding)
            {
                walk(triples, cq, depth + 1, binding, out);
            }
            binding.truncate(mark);
        }
    }
    let mut out = Vec::new();
    walk(triples, cq, 0, &mut Vec::new(), &mut out);
    out.sort();
    out.dedup();
    out
}

/// A CQ of 1–4 random atoms whose head is a random subset of its
/// variables, in first-occurrence order.
fn oracle_cq() -> impl Strategy<Value = Cq> {
    (proptest::collection::vec(atom_strategy(), 1..5), 0u32..16).prop_map(|(body, mask)| {
        let mut vars: Vec<Var> = Vec::new();
        for v in body.iter().flat_map(|a| a.vars()) {
            if !vars.contains(v) {
                vars.push(v.clone());
            }
        }
        let head = vars
            .into_iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, v)| PTerm::Var(v))
            .collect();
        Cq::new_unchecked(head, body)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// `Evaluator::eval_cq` under every join algorithm, sequential and in
    /// 3-row morsels, returns exactly the rows of a nested-loop evaluation
    /// over `Store::iter()`: constants, intervals and repeated variables in
    /// any position.
    #[test]
    fn eval_cq_matches_a_nested_loop_oracle(
        triples in triples_strategy(),
        cq in oracle_cq(),
    ) {
        let store = Store::from_triples(&triples);
        let stats = Stats::compute(&store);
        let all: Vec<EncodedTriple> = store.iter().collect();
        let expected = nested_loop_cq(&all, &cq);
        let out = rdfref_storage::evaluator::head_names(&cq);
        for algo in [JoinAlgorithm::BindJoin, JoinAlgorithm::Wcoj, JoinAlgorithm::Auto] {
            for parallelism in [Parallelism::Off, Parallelism::Morsels { size: 3 }] {
                let mut ev = Evaluator::new(&store, &stats);
                ev.join_algorithm = algo;
                ev.parallelism = parallelism;
                let mut rel = ev.eval_cq(&cq, &out, &mut ExecMetrics::default()).unwrap();
                rel.sort();
                prop_assert_eq!(
                    rel.to_rows(), expected.clone(), "{:?} {:?} on {:?}", algo, parallelism, cq
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// A minimised union returns the rows of the union it came from, on any
    /// store; minimising again changes nothing.
    #[test]
    fn minimized_unions_answer_like_their_input(
        triples in triples_strategy(),
        pairs in proptest::collection::vec(related_cqs(), 1..4),
    ) {
        let store = Store::from_triples(&triples);
        let stats = Stats::compute(&store);
        let input = Ucq::new(pairs.into_iter().flatten().collect()).unwrap();
        let rows = |ucq: &Ucq| {
            let (mut rel, _) = rdfref_storage::eval_ucq(&store, &stats, ucq).unwrap();
            rel.sort();
            rel.to_rows()
        };
        let minimal = minimize_union(input.clone());
        prop_assert!(minimal.len() <= input.len() && minimal.total_atoms() <= input.total_atoms());
        prop_assert_eq!(rows(&minimal), rows(&input), "{:?} minimised to {:?}", input, minimal);
        prop_assert_eq!(&minimize_union(minimal.clone()), &minimal);
    }
}
