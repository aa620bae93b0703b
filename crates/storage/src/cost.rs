//! The database-textbook cost model — the function `c` of §4 of the paper.
//!
//! "To select the cover leading to the most efficient evaluation, we rely on
//! a cost estimation function `c` which, for a JUCQ `q`, returns the cost of
//! evaluating it through an RDBMS storing the database. […] in \[5\] we
//! computed `c` based on database textbook formulas."
//!
//! Implemented here:
//! * **cardinality estimation** per triple pattern from exact per-property /
//!   per-class statistics; System-R style join selectivity
//!   `1 / max(V(l, v), V(r, v))` per shared variable, with distinct-value
//!   (`V`) propagation through joins;
//! * **cost formulas** mirroring the executor: scans pay per emitted row,
//!   hash joins pay per input and output row, union deduplication pays per
//!   row, and — crucially for the paper's Example 1 — each CQ disjunct pays
//!   a fixed *compilation* overhead (`parse_cost_per_cq`/`_atom`), modeling
//!   the RDBMS's parse/optimize time that made the 318,096-CQ UCQ fail
//!   outright.

use crate::stats::Stats;
use rdfref_model::dictionary::ID_RDF_TYPE;
use rdfref_model::fxhash::FxHashMap;
use rdfref_query::ast::{Atom, Cq, Jucq, PTerm, Ucq};
use rdfref_query::Var;

/// Tunable cost constants (abstract units; only relative magnitudes matter).
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Cost per row emitted by an index scan.
    pub scan_cost_per_row: f64,
    /// Cost per row flowing into or out of a hash join.
    pub join_cost_per_row: f64,
    /// Cost per row of union/projection deduplication.
    pub dedup_cost_per_row: f64,
    /// Cost per index probe of a bind (index nested-loop) join.
    pub probe_cost_per_row: f64,
    /// Fixed compile/optimize overhead per CQ disjunct sent to the engine.
    pub parse_cost_per_cq: f64,
    /// Compile overhead per atom of the query text.
    pub parse_cost_per_atom: f64,
    /// Minimum second-smallest atom cardinality of a star body before the
    /// `Auto` join policy prefers WCOJ over chained bind joins: below this,
    /// intermediate results are too small for the leapfrog setup to pay off.
    pub wcoj_star_min_card: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            scan_cost_per_row: 1.0,
            join_cost_per_row: 1.5,
            dedup_cost_per_row: 0.2,
            probe_cost_per_row: 4.0,
            parse_cost_per_cq: 25.0,
            parse_cost_per_atom: 5.0,
            wcoj_star_min_card: 64.0,
        }
    }
}

/// A cost-model verdict for a (sub)query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Estimated result cardinality.
    pub cardinality: f64,
    /// Estimated total evaluation cost (abstract units).
    pub cost: f64,
}

/// Per-variable distinct-value estimates, propagated through joins.
type VMap = FxHashMap<Var, f64>;

/// The cost model's `Auto` verdict for a CQ body's physical join algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinChoice {
    /// The chosen algorithm (`BindJoin` or `Wcoj`, never `Auto`).
    pub algorithm: crate::evaluator::JoinAlgorithm,
    /// Human-readable rationale, rendered by `explain analyze`.
    pub reason: String,
}

/// The cost model: statistics + parameters.
#[derive(Debug, Clone)]
pub struct CostModel<'a> {
    /// The statistics of the store the query will run against.
    pub stats: &'a Stats,
    /// Cost constants.
    pub params: CostParams,
}

impl<'a> CostModel<'a> {
    /// A model with default parameters.
    pub fn new(stats: &'a Stats) -> Self {
        CostModel {
            stats,
            params: CostParams::default(),
        }
    }

    /// Estimated number of triples matching one pattern.
    pub fn atom_cardinality(&self, atom: &Atom) -> f64 {
        let s = self.stats;
        let card = match &atom.p {
            PTerm::Const(p) if *p == ID_RDF_TYPE => {
                // Class-membership atom. A range object is an interval-encoded
                // class subtree: its cardinality is the exact sum of the
                // member classes' instance counts.
                match (&atom.s, &atom.o) {
                    (_, PTerm::Const(c)) => {
                        let base = s.class_count(*c) as f64;
                        match &atom.s {
                            PTerm::Const(_) => {
                                let ds = s.property(ID_RDF_TYPE).distinct_subjects.max(1) as f64;
                                (base / ds).min(1.0)
                            }
                            PTerm::Var(_) | PTerm::Range(..) => base,
                        }
                    }
                    (_, PTerm::Range(lo, hi)) => {
                        let base = s.class_count_range(*lo, *hi) as f64;
                        match &atom.s {
                            PTerm::Const(_) => {
                                let ds = s.property(ID_RDF_TYPE).distinct_subjects.max(1) as f64;
                                (base / ds).min(1.0)
                            }
                            PTerm::Var(_) | PTerm::Range(..) => base,
                        }
                    }
                    (PTerm::Const(_), PTerm::Var(_)) => {
                        let ps = s.property(ID_RDF_TYPE);
                        ps.count as f64 / ps.distinct_subjects.max(1) as f64
                    }
                    (PTerm::Var(_) | PTerm::Range(..), PTerm::Var(_)) => s.type_triples as f64,
                }
            }
            PTerm::Const(p) => {
                let ps = s.property(*p);
                let mut base = ps.count as f64;
                if matches!(atom.s, PTerm::Const(_)) {
                    base /= ps.distinct_subjects.max(1) as f64;
                }
                if matches!(atom.o, PTerm::Const(_)) {
                    base /= ps.distinct_objects.max(1) as f64;
                }
                base
            }
            PTerm::Range(lo, hi) => {
                // Interval-encoded property subtree: exact triple count over
                // the member properties; per-position constants divide by the
                // aggregated (upper-bound) distinct counts.
                let ps = s.property_range(*lo, *hi);
                let mut base = ps.count as f64;
                if matches!(atom.s, PTerm::Const(_)) {
                    base /= ps.distinct_subjects.max(1) as f64;
                }
                if matches!(atom.o, PTerm::Const(_)) {
                    base /= ps.distinct_objects.max(1) as f64;
                }
                base
            }
            PTerm::Var(_) => {
                let mut base = s.total as f64;
                if matches!(atom.s, PTerm::Const(_)) {
                    base /= s.distinct_subjects.max(1) as f64;
                }
                if matches!(atom.o, PTerm::Const(_)) {
                    base /= s.distinct_objects.max(1) as f64;
                }
                base
            }
        };
        // Repeated variable inside one atom: an equality filter.
        let mut vars: Vec<&Var> = atom.vars().collect();
        vars.sort();
        let dups = vars.windows(2).filter(|w| w[0] == w[1]).count();
        let sel = (1.0 / (self.stats.distinct_subjects.max(2) as f64)).powi(dups as i32);
        (card * sel).max(0.0)
    }

    /// Estimated distinct values of `var` in the scan of `atom`.
    fn atom_var_distinct(&self, atom: &Atom, var: &Var) -> f64 {
        let s = self.stats;
        let card = self.atom_cardinality(atom);
        let mut v = card;
        if atom.s.as_var() == Some(var) {
            v = match &atom.p {
                PTerm::Const(p) => s.property(*p).distinct_subjects as f64,
                PTerm::Range(lo, hi) => s.property_range(*lo, *hi).distinct_subjects as f64,
                PTerm::Var(_) => s.distinct_subjects as f64,
            };
        } else if atom.o.as_var() == Some(var) {
            v = match &atom.p {
                PTerm::Const(p) if *p == ID_RDF_TYPE => s.distinct_classes() as f64,
                PTerm::Const(p) => s.property(*p).distinct_objects as f64,
                PTerm::Range(lo, hi) => s.property_range(*lo, *hi).distinct_objects as f64,
                PTerm::Var(_) => s.distinct_objects as f64,
            };
        } else if atom.p.as_var() == Some(var) {
            v = s.distinct_properties as f64;
        }
        v.min(card).max(if card > 0.0 { 1.0 } else { 0.0 })
    }

    /// Greedy join order for a CQ body: start from the lowest-cardinality
    /// atom, repeatedly add the lowest-cardinality atom connected (by a
    /// shared variable) to what has been joined so far — of equally large
    /// ones the one sharing more variables — falling back to a
    /// cross product only when the remainder is disconnected. Returns atom
    /// indices. Shared by the estimator and the executor so the estimate
    /// models the plan that actually runs.
    pub fn order_atoms(&self, body: &[Atom]) -> Vec<usize> {
        let n = body.len();
        if n == 0 {
            return Vec::new();
        }
        let cards: Vec<f64> = body.iter().map(|a| self.atom_cardinality(a)).collect();
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut order = Vec::with_capacity(n);
        let mut bound: Vec<Var> = Vec::new();

        let Some(first) = remaining
            .iter()
            .min_by(|&&a, &&b| cards[a].total_cmp(&cards[b]))
            .copied()
        else {
            debug_assert!(false, "remaining starts non-empty when n > 0");
            return Vec::new();
        };
        remaining.retain(|&i| i != first);
        order.push(first);
        bound.extend(body[first].vars().cloned());

        while !remaining.is_empty() {
            let connected: Vec<usize> = remaining
                .iter()
                .copied()
                .filter(|&i| body[i].vars().any(|v| bound.contains(v)))
                .collect();
            let pool = if connected.is_empty() {
                &remaining
            } else {
                &connected
            };
            // On a cardinality tie the atom sharing more variables with what
            // is joined so far: it filters where the other one fans out.
            let joined = |i: usize| body[i].vars().filter(|v| bound.contains(v)).count();
            let Some(next) = pool
                .iter()
                .min_by(|&&a, &&b| {
                    let by_card = cards[a].total_cmp(&cards[b]);
                    by_card.then_with(|| joined(b).cmp(&joined(a)))
                })
                .copied()
            else {
                debug_assert!(false, "pool falls back to non-empty remaining");
                break;
            };
            remaining.retain(|&i| i != next);
            order.push(next);
            for v in body[next].vars() {
                if !bound.contains(v) {
                    bound.push(v.clone());
                }
            }
        }
        order
    }

    /// The `Auto` physical-join verdict for a CQ body. Purely structural +
    /// statistical, never data-touching:
    ///
    /// * fewer than 3 atoms — bind join (a single binary join cannot lose
    ///   asymptotically);
    /// * cyclic variable hypergraph (GYO) — WCOJ: binary plans on cyclic
    ///   bodies materialize intermediates a worst-case-optimal join never
    ///   builds (the triangle's `O(N^{3/2})` vs `O(N²)`);
    /// * star body (a hub variable in ≥ 3 atoms) whose second-smallest atom
    ///   is estimated above [`CostParams::wcoj_star_min_card`] — WCOJ: the
    ///   leapfrog intersects the hub's adjacency lists instead of chaining
    ///   bind joins through them;
    /// * otherwise — bind join.
    pub fn choose_join_algorithm(&self, body: &[Atom]) -> JoinChoice {
        use crate::evaluator::JoinAlgorithm;
        use rdfref_query::varorder;
        if body.len() < 3 {
            return JoinChoice {
                algorithm: JoinAlgorithm::BindJoin,
                reason: "auto: fewer than 3 atoms".to_string(),
            };
        }
        if varorder::is_cyclic(body) {
            return JoinChoice {
                algorithm: JoinAlgorithm::Wcoj,
                reason: "auto: cyclic join graph".to_string(),
            };
        }
        if let Some((hub, n)) = varorder::hub(body) {
            let mut cards: Vec<f64> = body.iter().map(|a| self.atom_cardinality(a)).collect();
            cards.sort_by(f64::total_cmp);
            let second_smallest = cards.get(1).copied().unwrap_or(0.0);
            if second_smallest >= self.params.wcoj_star_min_card {
                return JoinChoice {
                    algorithm: JoinAlgorithm::Wcoj,
                    reason: format!("auto: star join (?{} in {} atoms)", hub.name(), n),
                };
            }
        }
        JoinChoice {
            algorithm: JoinAlgorithm::BindJoin,
            reason: "auto: acyclic, bind-join chain is cheap".to_string(),
        }
    }

    /// Estimate a CQ: cardinality + cost, and the distinct-value map of its
    /// variables at the output (used by the JUCQ estimator).
    fn cq_estimate_full(&self, cq: &Cq) -> (CostEstimate, VMap) {
        let p = &self.params;
        if cq.body.is_empty() {
            return (
                CostEstimate {
                    cardinality: 1.0,
                    cost: 0.0,
                },
                VMap::default(),
            );
        }
        let order = self.order_atoms(&cq.body);
        let mut iter = order.iter();
        let Some(&first_idx) = iter.next() else {
            // order_atoms returns one index per atom and the body is
            // non-empty (checked above) — treat a broken order as empty.
            debug_assert!(false, "order_atoms covers every atom");
            return (
                CostEstimate {
                    cardinality: 1.0,
                    cost: 0.0,
                },
                VMap::default(),
            );
        };
        let first = &cq.body[first_idx];
        let mut card = self.atom_cardinality(first);
        let mut cost = p.scan_cost_per_row * card;
        let mut vmap: VMap = VMap::default();
        for v in first.vars() {
            vmap.insert(v.clone(), self.atom_var_distinct(first, v));
        }
        for &idx in iter {
            let atom = &cq.body[idx];
            let a_card = self.atom_cardinality(atom);
            let mut selectivity = 1.0;
            let mut shares = false;
            let mut atom_vs: Vec<(Var, f64)> = Vec::new();
            for v in atom.vars() {
                let av = self.atom_var_distinct(atom, v);
                if let Some(&rv) = vmap.get(v) {
                    selectivity /= rv.max(av).max(1.0);
                    shares = true;
                }
                atom_vs.push((v.clone(), av));
            }
            let out = card * a_card * selectivity;
            // The executor picks scan+hash or index nested-loop (bind) join
            // by the same criterion; price whichever it will use.
            let hash_cost =
                p.scan_cost_per_row * a_card + p.join_cost_per_row * (card + a_card + out);
            let bind_cost = p.probe_cost_per_row * card + p.scan_cost_per_row * out;
            if shares && card * p.probe_cost_per_row < a_card {
                cost += bind_cost;
            } else {
                cost += hash_cost;
            }
            card = out;
            for (v, av) in atom_vs {
                let merged = match vmap.get(&v) {
                    Some(&rv) => rv.min(av),
                    None => av,
                };
                vmap.insert(v, merged.min(card).max(if card > 0.0 { 1.0 } else { 0.0 }));
            }
            for val in vmap.values_mut() {
                *val = val.min(card).max(if card > 0.0 { 1.0 } else { 0.0 });
            }
        }
        (
            CostEstimate {
                cardinality: card,
                cost,
            },
            vmap,
        )
    }

    /// Estimate one CQ.
    pub fn cq_estimate(&self, cq: &Cq) -> CostEstimate {
        self.cq_estimate_full(cq).0
    }

    /// Estimate a UCQ evaluated as union-distinct of its disjuncts, with the
    /// per-disjunct compile overhead included.
    pub fn ucq_estimate(&self, ucq: &Ucq) -> CostEstimate {
        self.ucq_estimate_full(ucq, &[]).0
    }

    /// UCQ estimate plus distinct-value estimates for named output columns.
    fn ucq_estimate_full(&self, ucq: &Ucq, columns: &[Var]) -> (CostEstimate, VMap) {
        let p = &self.params;
        let mut card = 0.0;
        let mut cost = 0.0;
        let mut col_vs: VMap = VMap::default();
        for cq in &ucq.cqs {
            let (est, vmap) = self.cq_estimate_full(cq);
            card += est.cardinality;
            cost += est.cost;
            for (pos, col) in columns.iter().enumerate() {
                let member_v = match cq.head.get(pos) {
                    Some(PTerm::Var(v)) => vmap.get(v).copied().unwrap_or(est.cardinality),
                    Some(PTerm::Const(_) | PTerm::Range(..)) => 1.0_f64.min(est.cardinality),
                    None => 0.0,
                };
                *col_vs.entry(col.clone()).or_insert(0.0) += member_v;
            }
        }
        cost += p.dedup_cost_per_row * card;
        cost += p.parse_cost_per_cq * ucq.len() as f64;
        cost += p.parse_cost_per_atom * ucq.total_atoms() as f64;
        for v in col_vs.values_mut() {
            *v = v.min(card).max(if card > 0.0 { 1.0 } else { 0.0 });
        }
        (
            CostEstimate {
                cardinality: card,
                cost,
            },
            col_vs,
        )
    }

    /// Estimate a JUCQ: fragment estimates plus the join of fragment
    /// results, ordered smallest-first preferring shared columns (mirroring
    /// the executor).
    pub fn jucq_estimate(&self, jucq: &Jucq) -> CostEstimate {
        let p = &self.params;
        let mut card_total_cost = 0.0;
        let mut frags: Vec<(f64, VMap, Vec<Var>)> = Vec::new();
        for frag in &jucq.fragments {
            let (est, vs) = self.ucq_estimate_full(&frag.ucq, &frag.columns);
            card_total_cost += est.cost;
            frags.push((est.cardinality, vs, frag.columns.clone()));
        }
        if frags.is_empty() {
            return CostEstimate {
                cardinality: 0.0,
                cost: card_total_cost,
            };
        }
        // Greedy join order over fragments.
        let mut remaining: Vec<usize> = (0..frags.len()).collect();
        remaining.sort_by(|&a, &b| frags[a].0.total_cmp(&frags[b].0));
        let first = remaining.remove(0);
        let (mut card, mut vmap, mut cols) = frags[first].clone();
        let mut cost = card_total_cost;
        while !remaining.is_empty() {
            let pos = remaining
                .iter()
                .position(|&i| frags[i].2.iter().any(|c| cols.contains(c)))
                .unwrap_or(0);
            let idx = remaining.remove(pos);
            let (f_card, f_vs, f_cols) = frags[idx].clone();
            let mut selectivity = 1.0;
            for c in &f_cols {
                if cols.contains(c) {
                    let lv = vmap.get(c).copied().unwrap_or(card);
                    let rv = f_vs.get(c).copied().unwrap_or(f_card);
                    selectivity /= lv.max(rv).max(1.0);
                }
            }
            let out = card * f_card * selectivity;
            cost += p.join_cost_per_row * (card + f_card + out);
            card = out;
            for c in &f_cols {
                let fv = f_vs.get(c).copied().unwrap_or(f_card);
                let merged = match vmap.get(c) {
                    Some(&lv) => lv.min(fv),
                    None => fv,
                };
                vmap.insert(c.clone(), merged);
                if !cols.contains(c) {
                    cols.push(c.clone());
                }
            }
            for v in vmap.values_mut() {
                *v = v.min(card).max(if card > 0.0 { 1.0 } else { 0.0 });
            }
        }
        // Final projection + dedup on the head.
        cost += p.dedup_cost_per_row * card;
        CostEstimate {
            cardinality: card,
            cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use rdfref_model::{Dictionary, EncodedTriple, Term, TermId};
    use rdfref_query::ast::Fragment;

    /// A small store: 100 `p` triples over 10 subjects, 20 `type C1`,
    /// 2 `type C2`.
    fn fixture() -> (Stats, Vec<TermId>) {
        let mut d = Dictionary::new();
        let p = d.intern(&Term::iri("p"));
        let c1 = d.intern(&Term::iri("C1"));
        let c2 = d.intern(&Term::iri("C2"));
        let mut triples = Vec::new();
        let id = |n: String, d: &mut Dictionary| d.intern(&Term::iri(n));
        for i in 0..10 {
            let s = id(format!("s{i}"), &mut d);
            for j in 0..10 {
                let o = id(format!("o{j}"), &mut d);
                triples.push(EncodedTriple::new(s, p, o));
            }
        }
        for i in 0..20 {
            let s = id(format!("s{}", i % 10), &mut d);
            let extra = id(format!("t{i}"), &mut d);
            let _ = extra;
            triples.push(EncodedTriple::new(
                s,
                ID_RDF_TYPE,
                if i < 18 { c1 } else { c2 },
            ));
        }
        let store = Store::from_triples(&triples);
        (Stats::compute(&store), vec![p, c1, c2])
    }

    fn v(n: &str) -> Var {
        Var::new(n)
    }

    #[test]
    fn auto_join_choice_triangle_star_chain() {
        use crate::evaluator::JoinAlgorithm;
        let (stats, ids) = fixture();
        let m = CostModel::new(&stats);
        let p = ids[0];
        let triangle = vec![
            Atom::new(v("x"), p, v("y")),
            Atom::new(v("y"), p, v("z")),
            Atom::new(v("x"), p, v("z")),
        ];
        let chain = vec![
            Atom::new(v("x"), p, v("y")),
            Atom::new(v("y"), p, v("z")),
            Atom::new(v("z"), p, v("w")),
        ];
        let star = vec![
            Atom::new(v("h"), p, v("a")),
            Atom::new(v("h"), p, v("b")),
            Atom::new(v("h"), p, v("c")),
        ];
        let two = vec![Atom::new(v("x"), p, v("y")), Atom::new(v("y"), p, v("z"))];
        let c = m.choose_join_algorithm(&triangle);
        assert_eq!(c.algorithm, JoinAlgorithm::Wcoj);
        assert!(c.reason.contains("cyclic"), "{}", c.reason);
        let c = m.choose_join_algorithm(&chain);
        assert_eq!(c.algorithm, JoinAlgorithm::BindJoin, "{}", c.reason);
        // Star over the 100-row p-relation: every atom card = 100 ≥ 64.
        let c = m.choose_join_algorithm(&star);
        assert_eq!(c.algorithm, JoinAlgorithm::Wcoj);
        assert!(c.reason.contains("star"), "{}", c.reason);
        let c = m.choose_join_algorithm(&two);
        assert_eq!(c.algorithm, JoinAlgorithm::BindJoin);
        assert!(c.reason.contains("fewer than 3"), "{}", c.reason);
    }

    #[test]
    fn small_star_stays_bind_join() {
        use crate::evaluator::JoinAlgorithm;
        let (stats, ids) = fixture();
        let mut m = CostModel::new(&stats);
        // Raise the gate above the 100-row atoms: the star falls back.
        m.params.wcoj_star_min_card = 1_000.0;
        let p = ids[0];
        let star = vec![
            Atom::new(v("h"), p, v("a")),
            Atom::new(v("h"), p, v("b")),
            Atom::new(v("h"), p, v("c")),
        ];
        let c = m.choose_join_algorithm(&star);
        assert_eq!(c.algorithm, JoinAlgorithm::BindJoin, "{}", c.reason);
    }

    #[test]
    fn atom_cardinalities_follow_stats() {
        let (stats, ids) = fixture();
        let m = CostModel::new(&stats);
        let p = ids[0];
        // (?x p ?y): all 100 p-triples.
        let all = Atom::new(v("x"), p, v("y"));
        assert!((m.atom_cardinality(&all) - 100.0).abs() < 1e-9);
        // (s p ?y): 100 / 10 subjects = 10.
        let s_bound = Atom::new(TermId(7), p, v("y"));
        assert!((m.atom_cardinality(&s_bound) - 10.0).abs() < 1e-9);
        // Type atoms use class counts: C2 has 2 instances, C1 has 10
        // (each subject typed; duplicates dedup to 10 and 2... class_count reflects store).
        let c2_atom = Atom::new(v("x"), ID_RDF_TYPE, ids[2]);
        assert_eq!(
            m.atom_cardinality(&c2_atom),
            stats.class_count(ids[2]) as f64
        );
        // Variable property: whole store.
        let any = Atom::new(v("x"), v("p"), v("y"));
        assert_eq!(m.atom_cardinality(&any), stats.total as f64);
    }

    #[test]
    fn join_selectivity_reduces_cardinality() {
        let (stats, ids) = fixture();
        let m = CostModel::new(&stats);
        let p = ids[0];
        let two_atoms = Cq::new(
            vec![v("x")],
            vec![
                Atom::new(v("x"), p, v("y")),
                Atom::new(v("x"), ID_RDF_TYPE, ids[2]),
            ],
        )
        .unwrap();
        let est = m.cq_estimate(&two_atoms);
        // Joining with the selective C2 atom must shrink below 100.
        assert!(est.cardinality < 100.0);
        assert!(est.cardinality > 0.0);
        assert!(est.cost > 0.0);
    }

    #[test]
    fn order_atoms_puts_selective_first() {
        let (stats, ids) = fixture();
        let m = CostModel::new(&stats);
        let p = ids[0];
        let body = vec![
            Atom::new(v("x"), p, v("y")),           // card 100
            Atom::new(v("x"), ID_RDF_TYPE, ids[2]), // card 2
        ];
        let order = m.order_atoms(&body);
        assert_eq!(order[0], 1);
    }

    #[test]
    fn order_atoms_prefers_connected() {
        let (stats, ids) = fixture();
        let m = CostModel::new(&stats);
        let p = ids[0];
        // (x type C2) [selective], (x p y) [connected], (a p b) [disconnected but equally big]
        let body = vec![
            Atom::new(v("a"), p, v("b")),
            Atom::new(v("x"), p, v("y")),
            Atom::new(v("x"), ID_RDF_TYPE, ids[2]),
        ];
        let order = m.order_atoms(&body);
        assert_eq!(order[0], 2);
        assert_eq!(order[1], 1, "connected atom joins before cross product");
    }

    #[test]
    fn order_atoms_breaks_cardinality_ties_by_bound_variables() {
        // The shape of a raw Q09 disjunct: once (x advisor z) has bound x and
        // z, the two takesCourse atoms are equally large and both connected.
        // (x takes z) only filters; (f takes z) fans out to everyone taking
        // z, and used to win by standing first.
        let (advisor, takes) = (TermId(100), TermId(101));
        let mut triples = vec![EncodedTriple::new(TermId(1), advisor, TermId(50))];
        for student in 1..=10 {
            triples.push(EncodedTriple::new(TermId(student), takes, TermId(50)));
        }
        let stats = Stats::compute(&Store::from_triples(&triples));
        let m = CostModel::new(&stats);
        let body = vec![
            Atom::new(v("f"), takes, v("z")),
            Atom::new(v("x"), takes, v("z")),
            Atom::new(v("x"), advisor, v("z")),
        ];
        assert_eq!(m.atom_cardinality(&body[0]), m.atom_cardinality(&body[1]));
        assert_eq!(m.order_atoms(&body), vec![2, 1, 0]);
    }

    #[test]
    fn ucq_cost_includes_per_cq_overhead() {
        let (stats, ids) = fixture();
        let m = CostModel::new(&stats);
        let p = ids[0];
        let cq = Cq::new(vec![v("x")], vec![Atom::new(v("x"), p, v("y"))]).unwrap();
        let one = Ucq::new(vec![cq.clone()]).unwrap();
        let many = Ucq::new(vec![cq.clone(); 100]).unwrap();
        let est1 = m.ucq_estimate(&one);
        let est100 = m.ucq_estimate(&many);
        // 100 identical disjuncts: ≥ 100x the data cost plus 100x overhead.
        assert!(est100.cost > 99.0 * est1.cost);
        assert!(est100.cost - 100.0 * est1.cost < 1e-6);
    }

    #[test]
    fn jucq_estimate_prefers_selective_grouping() {
        // The Example-1 effect in miniature: joining the huge type scan
        // with a selective atom inside one fragment beats joining two
        // fragment results where one is huge.
        let (stats, ids) = fixture();
        let m = CostModel::new(&stats);
        let p = ids[0];
        let type_atom = Atom::new(v("x"), ID_RDF_TYPE, v("u"));
        let sel_atom = Atom::new(TermId(7), p, v("x"));

        // Cover A (SCQ-like): two singleton fragments.
        let f1 = Fragment::new(
            vec![v("x"), v("u")],
            Ucq::new(vec![Cq::new_unchecked(
                vec![v("x").into(), v("u").into()],
                vec![type_atom.clone()],
            )])
            .unwrap(),
        )
        .unwrap();
        let f2 = Fragment::new(
            vec![v("x")],
            Ucq::new(vec![Cq::new_unchecked(
                vec![v("x").into()],
                vec![sel_atom.clone()],
            )])
            .unwrap(),
        )
        .unwrap();
        let scq = Jucq::new(vec![v("x"), v("u")], vec![f1, f2]).unwrap();

        // Cover B (grouped): one fragment with both atoms.
        let grouped = Jucq::new(
            vec![v("x"), v("u")],
            vec![Fragment::new(
                vec![v("x"), v("u")],
                Ucq::new(vec![Cq::new_unchecked(
                    vec![v("x").into(), v("u").into()],
                    vec![type_atom, sel_atom],
                )])
                .unwrap(),
            )
            .unwrap()],
        )
        .unwrap();

        let est_scq = m.jucq_estimate(&scq);
        let est_grouped = m.jucq_estimate(&grouped);
        assert!(
            est_grouped.cost < est_scq.cost,
            "grouped {} !< scq {}",
            est_grouped.cost,
            est_scq.cost
        );
    }

    #[test]
    fn empty_body_cq() {
        let (stats, _) = fixture();
        let m = CostModel::new(&stats);
        let cq = Cq::new_unchecked(vec![], vec![]);
        let est = m.cq_estimate(&cq);
        assert_eq!(est.cardinality, 1.0);
        assert_eq!(est.cost, 0.0);
    }
}
