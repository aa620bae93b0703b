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
//!   outright;
//! * **the bind-or-materialise rule** (`CostModel::binds`) the evaluator
//!   applies at both of its join levels: an atom joined into a CQ's chain,
//!   and a fragment joined into a JUCQ (`CostModel::seeds_fragment`).

use crate::stats::Stats;
use crate::wcoj::JoinReason;
use rdfref_model::dictionary::ID_RDF_TYPE;
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
}

/// Minimum second-smallest atom cardinality of a star body before `Auto`
/// prefers WCOJ ([`JoinReason::Star`]): below this, intermediate results are
/// too small for the leapfrog setup to pay off.
const WCOJ_STAR_MIN_CARD: f64 = 64.0;

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            scan_cost_per_row: 1.0,
            join_cost_per_row: 1.5,
            dedup_cost_per_row: 0.2,
            probe_cost_per_row: 4.0,
            parse_cost_per_cq: 25.0,
            parse_cost_per_atom: 5.0,
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
        // Repeated variable inside one atom: an equality filter per position
        // repeating an earlier one.
        let positions = atom.positions();
        let dups = (1..3)
            .filter(|&j| {
                let v = positions[j].as_var();
                v.is_some() && positions[..j].iter().any(|t| t.as_var() == v)
            })
            .count();
        let sel = (1.0 / (self.stats.distinct_subjects.max(2) as f64)).powi(dups as i32);
        (card * sel).max(0.0)
    }

    /// Estimated distinct values of `var` in the scan of `atom`, whose
    /// cardinality is `card`.
    fn atom_var_distinct(&self, atom: &Atom, card: f64, var: &Var) -> f64 {
        let s = self.stats;
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
    ///
    /// A chain seeded by rows that already bind the variables `bound` (see
    /// `CostModel::seeds_fragment`) starts from those rows: its first atom
    /// is one connected to them.
    pub fn order_atoms(&self, body: &[Atom], bound: &[&Var]) -> Vec<usize> {
        let mut state = CqState::default();
        let seed: Vec<(&Var, f64)> = bound.iter().map(|&v| (v, 1.0)).collect();
        state.load(self, body, &seed);
        state.order
    }

    /// The `Auto` physical-join verdict for a CQ body: the first of
    /// [`JoinReason`]'s `FewAtoms`, `Cyclic`, `Star` and `Acyclic` whose
    /// condition holds. Purely structural + statistical, never data-touching.
    pub fn choose_join_algorithm(&self, body: &[Atom]) -> JoinReason {
        use rdfref_query::varorder;
        if body.len() < 3 {
            return JoinReason::FewAtoms;
        }
        if varorder::is_cyclic(body) {
            return JoinReason::Cyclic;
        }
        if let Some((hub, atoms)) = varorder::hub(body) {
            let mut cards: Vec<f64> = body.iter().map(|a| self.atom_cardinality(a)).collect();
            cards.sort_by(f64::total_cmp);
            if cards.get(1).is_some_and(|&card| card >= WCOJ_STAR_MIN_CARD) {
                return JoinReason::Star { hub, atoms };
            }
        }
        JoinReason::Acyclic
    }

    /// Estimate a CQ body: cardinality + cost. Leaves the distinct values of
    /// its variables at the output in `state` (read by the union
    /// estimator). With a `seed` the chain starts from that many bound rows
    /// instead of from its first atom's scan: every atom is then a join step
    /// (see `CostModel::seeds_fragment`).
    fn cq_estimate_full<'q>(
        &self,
        body: &'q [Atom],
        state: &mut CqState<'q>,
        seed: Option<&Seed<'_>>,
    ) -> CostEstimate {
        let p = &self.params;
        state.load(self, body, seed.map_or(&[], |s| &s.vars));
        let CqState {
            vars,
            slots,
            cards,
            distinct,
            order,
            ..
        } = state;
        let (mut card, mut cost, joins) = match seed {
            Some(seed) => (seed.rows, 0.0, &order[..]),
            None => {
                let Some(&first_idx) = order.first() else {
                    return CostEstimate {
                        cardinality: 1.0,
                        cost: 0.0,
                    };
                };
                let first = &body[first_idx];
                let card = cards[first_idx];
                for slot in slots[first_idx].into_iter().flatten() {
                    distinct[slot] = Some(self.atom_var_distinct(first, card, vars[slot]));
                }
                (card, p.scan_cost_per_row * card, &order[1..])
            }
        };
        for &idx in joins {
            let atom = &body[idx];
            let a_card = cards[idx];
            let mut selectivity = 1.0;
            let mut shares = false;
            let mut atom_vs = [(0, 0.0); 3];
            let mut n_vs = 0;
            for slot in slots[idx].into_iter().flatten() {
                let av = self.atom_var_distinct(atom, a_card, vars[slot]);
                if let Some(rv) = distinct[slot] {
                    selectivity /= rv.max(av).max(1.0);
                    shares = true;
                }
                atom_vs[n_vs] = (slot, av);
                n_vs += 1;
            }
            let out = card * a_card * selectivity;
            // The executor picks scan+hash or index nested-loop (bind) join
            // by the same rule; price whichever it will use.
            let hash_cost =
                p.scan_cost_per_row * a_card + p.join_cost_per_row * (card + a_card + out);
            let bind_cost = p.probe_cost_per_row * card + p.scan_cost_per_row * out;
            if self.binds_atom(shares, card, a_card) {
                cost += bind_cost;
            } else {
                cost += hash_cost;
            }
            card = out;
            for &(slot, av) in &atom_vs[..n_vs] {
                let merged = match distinct[slot] {
                    Some(rv) => rv.min(av),
                    None => av,
                };
                distinct[slot] = Some(merged.min(card).max(if card > 0.0 { 1.0 } else { 0.0 }));
            }
            for val in distinct.iter_mut().flatten() {
                *val = val.min(card).max(if card > 0.0 { 1.0 } else { 0.0 });
            }
        }
        CostEstimate {
            cardinality: card,
            cost,
        }
    }

    /// Estimate one CQ.
    pub fn cq_estimate(&self, cq: &Cq) -> CostEstimate {
        self.cq_estimate_full(&cq.body, &mut CqState::default(), None)
    }

    /// Estimate a UCQ evaluated as union-distinct of its disjuncts, with the
    /// per-disjunct compile overhead included.
    pub fn ucq_estimate(&self, ucq: &Ucq) -> CostEstimate {
        self.fragment_estimate(ucq, &[]).estimate
    }

    /// Estimate one JUCQ fragment: its union `ucq` (see
    /// [`CostModel::ucq_estimate`]) and the distinct values of each of its
    /// `columns`, which [`CostModel::join_estimate`] joins on.
    pub fn fragment_estimate(&self, ucq: &Ucq, columns: &[Var]) -> FragmentEstimate {
        let p = &self.params;
        let mut card = 0.0;
        let mut cost = 0.0;
        // A column name repeated in `columns` sums into its first position.
        let first_of: Vec<usize> = columns
            .iter()
            .enumerate()
            .map(|(pos, col)| columns[..pos].iter().position(|c| c == col).unwrap_or(pos))
            .collect();
        let mut col_vs = vec![0.0; columns.len()];
        let mut state = CqState::default();
        for cq in &ucq.cqs {
            let est = self.cq_estimate_full(&cq.body, &mut state, None);
            card += est.cardinality;
            cost += est.cost;
            for (pos, &first) in first_of.iter().enumerate() {
                let member_v = match cq.head.get(pos) {
                    Some(PTerm::Var(v)) => state.distinct_of(v).unwrap_or(est.cardinality),
                    Some(PTerm::Const(_) | PTerm::Range(..)) => 1.0_f64.min(est.cardinality),
                    None => 0.0,
                };
                col_vs[first] += member_v;
            }
        }
        cost += p.dedup_cost_per_row * card;
        cost += p.parse_cost_per_cq * ucq.len() as f64;
        cost += p.parse_cost_per_atom * ucq.total_atoms() as f64;
        for v in &mut col_vs {
            *v = v.min(card).max(if card > 0.0 { 1.0 } else { 0.0 });
        }
        FragmentEstimate {
            estimate: CostEstimate {
                cardinality: card,
                cost,
            },
            columns: columns
                .iter()
                .zip(first_of)
                .map(|(col, first)| (col.clone(), col_vs[first]))
                .collect(),
        }
    }

    /// Estimate a JUCQ: fragment estimates plus the join of fragment
    /// results, in `CostModel::join_order`, each materialised and
    /// hash-joined.
    pub fn jucq_estimate(&self, jucq: &Jucq) -> CostEstimate {
        let frags: Vec<FragmentEstimate> = jucq
            .fragments
            .iter()
            .map(|f| self.fragment_estimate(&f.ucq, &f.columns))
            .collect();
        self.join_estimate(&frags.iter().collect::<Vec<_>>())
    }

    /// Join fragment estimates, in JUCQ fragment order: the fragments' own
    /// costs plus a hash join of their materialised results in
    /// `CostModel::join_order`. This prices the materialised path only;
    /// the evaluator seeds a fragment instead when
    /// `CostModel::seeds_fragment` says so.
    pub fn join_estimate(&self, frags: &[&FragmentEstimate]) -> CostEstimate {
        let p = &self.params;
        let mut cost = 0.0;
        for frag in frags {
            cost += frag.estimate.cost;
        }
        let order = Self::join_order(frags);
        let Some((&first, rest)) = order.split_first() else {
            return CostEstimate {
                cardinality: 0.0,
                cost,
            };
        };
        let mut card = frags[first].estimate.cardinality;
        let mut joined = JoinedColumns::new(frags[first], card);
        for &i in rest {
            let frag = frags[i];
            let f_card = frag.estimate.cardinality;
            let out = card * f_card * joined.selectivity(frag).1;
            cost += p.join_cost_per_row * (card + f_card + out);
            card = out;
            joined.absorb(frag, card);
        }
        // Final projection + dedup on the head.
        cost += p.dedup_cost_per_row * card;
        CostEstimate {
            cardinality: card,
            cost,
        }
    }

    /// The order in which a JUCQ joins its fragments: the one of least
    /// estimated cardinality first, then repeatedly the least of those
    /// sharing a column with what is joined so far, a cross product only
    /// when none does. Shared by the estimator and the evaluator.
    pub(crate) fn join_order(frags: &[&FragmentEstimate]) -> Vec<usize> {
        let mut remaining: Vec<usize> = (0..frags.len()).collect();
        remaining.sort_by(|&a, &b| {
            let card = |i: usize| frags[i].estimate.cardinality;
            card(a).total_cmp(&card(b))
        });
        let mut order: Vec<usize> = Vec::with_capacity(frags.len());
        while !remaining.is_empty() {
            let pos = remaining
                .iter()
                .position(|&i| {
                    frags[i].columns.iter().any(|(c, _)| {
                        order
                            .iter()
                            .any(|&j| frags[j].columns.iter().any(|(d, _)| d == c))
                    })
                })
                .unwrap_or(0);
            order.push(remaining.remove(pos));
        }
        order
    }

    /// The bind-or-materialise rule of both join levels of the evaluator,
    /// and of the estimator that prices them: bind the accumulated rows into
    /// the next input (probe it per row) when they share a variable with it
    /// and the bound evaluation is priced below materialising the input on
    /// its own. See `CostModel::binds_atom` and
    /// `CostModel::seeds_fragment` for the two prices.
    pub(crate) fn binds(&self, shares: bool, bound: f64, materialised: f64) -> bool {
        shares && bound < materialised
    }

    /// `CostModel::binds` for one atom of a CQ's chain: `rows` index
    /// probes against a scan of the atom's `atom_card` rows.
    pub(crate) fn binds_atom(&self, shares: bool, rows: f64, atom_card: f64) -> bool {
        let p = &self.params;
        self.binds(
            shares,
            rows * p.probe_cost_per_row,
            p.scan_cost_per_row * atom_card,
        )
    }

    /// `CostModel::binds` for one JUCQ fragment whose union is `ucq` and
    /// whose estimate is `frag`, joined into the rows `joined` describes,
    /// which hold `keys` distinct values on the columns they share with it.
    ///
    /// Seeded, every CQ of the union starts its chain from those key
    /// values: its variables at the shared columns are bound from the
    /// start, a head constant there filters the keys, and a head variable
    /// repeated over two shared columns is an equality. Each chain is priced
    /// as the executor runs it, atom by atom from the seed, and the union
    /// this leaves is hash-joined with the rows. Materialised, the fragment
    /// costs its own estimate plus that hash join. Both prices carry the
    /// union's per-CQ overhead and deduplication. The seeded price must fall
    /// below the materialised one twice: as the probes alone, one per key
    /// and CQ of the union (`keys × probe × |CQs|`, which also spares pricing
    /// every chain of a long union against many keys), and as the chains.
    pub(crate) fn seeds_fragment(
        &self,
        joined: &JoinedColumns,
        keys: usize,
        ucq: &Ucq,
        frag: &FragmentEstimate,
    ) -> bool {
        let p = &self.params;
        let keys = keys as f64;
        let (shares, selectivity) = joined.selectivity(frag);
        let rows = joined.rows;
        let f_card = frag.estimate.cardinality;
        let out = rows * f_card * selectivity;
        let materialised = frag.estimate.cost + p.join_cost_per_row * (rows + f_card + out);
        let probes = keys * p.probe_cost_per_row * ucq.len() as f64;
        if !self.binds(shares, probes, materialised) {
            return false;
        }
        // The shared columns, each once, with its distinct values and the
        // fragment column it meets: the first of its name, as a natural
        // join meets it.
        let mut shared: Vec<(usize, f64)> = Vec::new();
        for (pos, (col, _)) in frag.columns.iter().enumerate() {
            let first = frag.columns.iter().position(|(c, _)| c == col) == Some(pos);
            if let Some(d) = joined.lookup(col).filter(|_| first) {
                shared.push((pos, d.min(keys)));
            }
        }
        // The union's overhead and its join's fixed part, then each CQ's
        // chain with its rows' deduplication and share of the join: the
        // price only grows, so pricing stops once it reaches `materialised`.
        let mut cost = p.parse_cost_per_cq * ucq.len() as f64
            + p.parse_cost_per_atom * ucq.total_atoms() as f64
            + p.join_cost_per_row * (rows + out);
        let mut state = CqState::default();
        for cq in &ucq.cqs {
            let mut seed = Seed {
                rows: keys,
                vars: Vec::new(),
            };
            for &(pos, d) in &shared {
                match cq.head.get(pos) {
                    Some(PTerm::Var(w)) => match seed.vars.iter().find(|(v, _)| *v == w) {
                        Some(&(_, e)) => seed.rows /= d.max(e).max(1.0),
                        None => seed.vars.push((w, d)),
                    },
                    Some(PTerm::Const(_)) => seed.rows /= d.max(1.0),
                    Some(PTerm::Range(..)) | None => {}
                }
            }
            for (_, d) in &mut seed.vars {
                *d = d.min(seed.rows);
            }
            let est = self.cq_estimate_full(&cq.body, &mut state, Some(&seed));
            cost += est.cost + (p.dedup_cost_per_row + p.join_cost_per_row) * est.cardinality;
            if !self.binds(shares, cost, materialised) {
                return false;
            }
        }
        true
    }
}

/// The columns a JUCQ has joined so far, each with its estimated distinct
/// values, and the number of rows they hold: what
/// [`CostModel::join_estimate`] folds over and what
/// `CostModel::seeds_fragment` prices a seed from. A name's first entry is
/// the one read and updated.
#[derive(Debug, Clone)]
pub(crate) struct JoinedColumns {
    columns: Vec<(Var, f64)>,
    rows: f64,
}

impl JoinedColumns {
    /// The columns of the first fragment joined, holding `rows` rows.
    pub(crate) fn new(first: &FragmentEstimate, rows: f64) -> JoinedColumns {
        let mut joined = JoinedColumns {
            columns: first.columns.clone(),
            rows,
        };
        joined.clamp();
        joined
    }

    /// Whether `frag` shares a column with these, and the selectivity of
    /// joining it: `1 / max(V(l, c), V(r, c))` per shared column `c`.
    fn selectivity(&self, frag: &FragmentEstimate) -> (bool, f64) {
        let mut shares = false;
        let mut selectivity = 1.0;
        for (col, rv) in &frag.columns {
            if let Some(lv) = self.lookup(col) {
                shares = true;
                selectivity /= lv.max(*rv).max(1.0);
            }
        }
        (shares, selectivity)
    }

    fn lookup(&self, col: &Var) -> Option<f64> {
        self.columns.iter().find(|(c, _)| c == col).map(|&(_, v)| v)
    }

    /// `frag` joined in, the result holding `rows` rows.
    pub(crate) fn absorb(&mut self, frag: &FragmentEstimate, rows: f64) {
        for (col, fv) in &frag.columns {
            match self.columns.iter_mut().find(|(c, _)| c == col) {
                Some((_, lv)) => *lv = lv.min(*fv),
                None => self.columns.push((col.clone(), *fv)),
            }
        }
        self.rows = rows;
        self.clamp();
    }

    /// No column has more distinct values than there are rows.
    fn clamp(&mut self) {
        let rows = self.rows;
        for (_, v) in &mut self.columns {
            *v = v.min(rows).max(if rows > 0.0 { 1.0 } else { 0.0 });
        }
    }
}

/// The rows a seeded CQ chain starts from (see
/// `CostModel::seeds_fragment`): how many, and the distinct values of each
/// CQ variable they bind.
struct Seed<'a> {
    rows: f64,
    vars: Vec<(&'a Var, f64)>,
}

/// One JUCQ fragment's estimate (see [`CostModel::fragment_estimate`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentEstimate {
    /// The fragment union's cardinality and cost.
    pub estimate: CostEstimate,
    /// Each column, in column order, with its estimated distinct values.
    columns: Vec<(Var, f64)>,
}

/// The estimator's per-CQ state, reused across the members of a union: the
/// body's variables as dense slots, and per atom its cardinality and the
/// slot of each of its `s`, `p`, `o` positions.
#[derive(Default)]
struct CqState<'q> {
    /// The body's distinct variables; a variable's slot is its index.
    vars: Vec<&'q Var>,
    /// Per atom, the slot of each variable position.
    slots: Vec<[Option<usize>; 3]>,
    /// Per atom, its estimated cardinality.
    cards: Vec<f64>,
    /// Per slot, the running distinct-value estimate (`None` until an atom
    /// holding the variable is joined).
    distinct: Vec<Option<f64>>,
    /// The greedy join order ([`CostModel::order_atoms`]).
    order: Vec<usize>,
    remaining: Vec<usize>,
    bound: Vec<bool>,
}

impl<'q> CqState<'q> {
    /// Take `body`: its variable slots, atom cardinalities and join order,
    /// with the variables of `seed` bound from the start at their distinct
    /// values.
    fn load(&mut self, model: &CostModel<'_>, body: &'q [Atom], seed: &[(&Var, f64)]) {
        self.vars.clear();
        self.slots.clear();
        self.cards.clear();
        for atom in body {
            let mut at = [None; 3];
            for (slot, term) in at.iter_mut().zip(atom.positions()) {
                if let Some(v) = term.as_var() {
                    *slot = Some(match self.vars.iter().position(|w| *w == v) {
                        Some(i) => i,
                        None => {
                            self.vars.push(v);
                            self.vars.len() - 1
                        }
                    });
                }
            }
            self.slots.push(at);
            self.cards.push(model.atom_cardinality(atom));
        }
        self.distinct.clear();
        self.distinct.resize(self.vars.len(), None);
        for &(var, d) in seed {
            if let Some(slot) = self.vars.iter().position(|w| *w == var) {
                self.distinct[slot] = Some(d);
            }
        }
        self.order_atoms();
    }

    /// The greedy join order of the loaded body into `order` (see
    /// [`CostModel::order_atoms`]), from the seeded variables.
    fn order_atoms(&mut self) {
        let CqState {
            slots,
            cards,
            distinct,
            order,
            remaining,
            bound,
            ..
        } = self;
        order.clear();
        remaining.clear();
        remaining.extend(0..cards.len());
        bound.clear();
        bound.extend(distinct.iter().map(Option::is_some));
        while !remaining.is_empty() {
            let connected = |i: usize| slots[i].into_iter().flatten().any(|s| bound[s]);
            // On a cardinality tie the atom sharing more variables with what
            // is joined so far: it filters where the other one fans out.
            let joined = |i: usize| slots[i].into_iter().flatten().filter(|&s| bound[s]).count();
            let any_connected = remaining.iter().any(|&i| connected(i));
            let Some(next) = remaining
                .iter()
                .copied()
                .filter(|&i| !any_connected || connected(i))
                .min_by(|&a, &b| {
                    let by_card = cards[a].total_cmp(&cards[b]);
                    by_card.then_with(|| joined(b).cmp(&joined(a)))
                })
            else {
                debug_assert!(false, "the pool falls back to the non-empty remainder");
                break;
            };
            remaining.retain(|&i| i != next);
            order.push(next);
            for s in slots[next].into_iter().flatten() {
                bound[s] = true;
            }
        }
    }

    /// The distinct-value estimate of `var` after the loaded CQ's last join.
    fn distinct_of(&self, var: &Var) -> Option<f64> {
        let slot = self.vars.iter().position(|w| *w == var)?;
        self.distinct[slot]
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
        assert_eq!(m.choose_join_algorithm(&triangle), JoinReason::Cyclic);
        assert_eq!(m.choose_join_algorithm(&chain), JoinReason::Acyclic);
        // Star over the 100-row p-relation: every atom card = 100 ≥ 64.
        let c = m.choose_join_algorithm(&star);
        assert_eq!(
            c,
            JoinReason::Star {
                hub: v("h"),
                atoms: 3
            }
        );
        assert_eq!(c.to_string(), "auto: star join (?h in 3 atoms)");
        assert_eq!(m.choose_join_algorithm(&two), JoinReason::FewAtoms);
    }

    #[test]
    fn small_star_stays_bind_join() {
        use crate::evaluator::JoinAlgorithm;
        let (stats, ids) = fixture();
        let m = CostModel::new(&stats);
        let (p, c1, c2) = (ids[0], ids[1], ids[2]);
        // A hub in 3 atoms whose second-smallest atom is C1's 10 members,
        // below the 64-row gate: the star stays on bind join.
        let star = vec![
            Atom::new(v("h"), p, v("a")),
            Atom::new(v("h"), ID_RDF_TYPE, c1),
            Atom::new(v("h"), ID_RDF_TYPE, c2),
        ];
        assert!(m.atom_cardinality(&star[1]) < WCOJ_STAR_MIN_CARD);
        let c = m.choose_join_algorithm(&star);
        assert_eq!(c, JoinReason::Acyclic);
        assert_eq!(c.algorithm(), JoinAlgorithm::BindJoin);
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
        let order = m.order_atoms(&body, &[]);
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
        let order = m.order_atoms(&body, &[]);
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
        assert_eq!(m.order_atoms(&body, &[]), vec![2, 1, 0]);
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

        // GCov prices a cover by joining per-fragment estimates: the same
        // numbers, bit for bit, in any fragment order.
        let bits = |e: CostEstimate| (e.cost.to_bits(), e.cardinality.to_bits());
        for jucq in [&scq, &grouped] {
            let frags: Vec<FragmentEstimate> = jucq
                .fragments
                .iter()
                .map(|f| m.fragment_estimate(&f.ucq, &f.columns))
                .collect();
            let joined = m.join_estimate(&frags.iter().collect::<Vec<_>>());
            assert_eq!(bits(joined), bits(m.jucq_estimate(jucq)));
            let reversed = Jucq::new(
                jucq.head.clone(),
                jucq.fragments.iter().rev().cloned().collect(),
            )
            .unwrap();
            let joined = m.join_estimate(&frags.iter().rev().collect::<Vec<_>>());
            assert_eq!(bits(joined), bits(m.jucq_estimate(&reversed)));
            for (frag, est) in jucq.fragments.iter().zip(&frags) {
                assert_eq!(bits(est.estimate), bits(m.ucq_estimate(&frag.ucq)));
            }
        }
        assert_eq!(
            m.join_estimate(&[]),
            m.jucq_estimate(&Jucq::new(vec![], vec![]).unwrap())
        );
    }

    #[test]
    fn a_repeated_variable_filters_once_per_repeat() {
        let (stats, ids) = fixture();
        let m = CostModel::new(&stats);
        // 10 distinct subjects: each repeat keeps a tenth.
        assert_eq!(stats.distinct_subjects, 10);
        // (?x p ?x): the 100 p-triples, filtered once.
        let xpx = Atom::new(v("x"), ids[0], v("x"));
        assert_eq!(m.atom_cardinality(&xpx), 10.0);
        // (?x ?x ?x): all 112 triples, filtered twice.
        let xxx = Atom::new(v("x"), v("x"), v("x"));
        assert_eq!(stats.total, 112);
        assert_eq!(m.atom_cardinality(&xxx), 1.12);
        // (?x ?y ?x): one repeat, whatever its positions.
        let xyx = Atom::new(v("x"), v("y"), v("x"));
        assert_eq!(m.atom_cardinality(&xyx), 11.200000000000001);
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
