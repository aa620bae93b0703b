//! Worst-case-optimal join: a leapfrog-triejoin driver over the existing
//! sorted permutation indexes.
//!
//! No new storage format: each atom of a CQ body compiles the same access a
//! scan or bind join reads (one permutation index, what fixes each key
//! level), restricted to indexes whose key order lists the atom's variables
//! compatibly with one *global* variable order; the sorted bucket runs of
//! that index are read as a trie (each key level = one trie level).
//! [`plan`] performs the binding; `eval` runs the leapfrog driver over the
//! bound tries, optionally morsel-parallel; [`physical_choice`] is the
//! single arbitration point — the evaluator dispatches on its verdict and
//! records that same value for `Explain`, so the executed plan and the
//! rendered plan can never drift.
//!
//! ## Trie levels
//!
//! Every key level of a bound atom is a constant or a slot:
//!
//! * **constant** — the driver pins it in the probe key;
//! * **named slot** — a variable of the global order; it joins the
//!   leapfrog intersection at that variable's slot;
//! * **range slot** — an interval-dictionary `[lo, hi)` position (produced
//!   by the `RangeScan` reformulation); an *anonymous* slot the driver
//!   iterates over the contiguous run, clamped to the interval — one
//!   range-bounded trie level instead of a union of point lookups.
//!
//! An (atom, index) pair is feasible iff the atom's variables appear in key
//! order compatibly with the global order (strictly increasing ranks); of
//! the feasible indexes the access rule picks one. Constants *below* an
//! open level are folded into the seek probe when contiguous, and deferred
//! to the next open level's seek otherwise — both are sound; the fold just
//! prunes earlier.
//!
//! ## Counters
//!
//! * `op.lfj.seeks` — sorted-run seeks (`partition_point` probes), exact;
//! * `op.lfj.next`  — successful binds that descended a trie level, exact;
//! * `op.lfj.rows`  — rows emitted before final dedup, exact;
//! * `op.lfj.atoms` — atoms participating per evaluation, exact.
//!
//! Morsel-parallel runs split by slot-0 *value*, so every counter is
//! identical to the sequential run — parallelism is observable only through
//! `op.morsel.*` and wall time.

use crate::access::{Access, Level};
use crate::cost::CostModel;
use crate::error::{Result, StorageError};
use crate::evaluator::JoinAlgorithm;
use crate::morsel::{self, UNSPLIT};
use crate::relation::Relation;
use crate::stats::Stats;
use crate::store::{SortedIndex, Store};
use crate::Parallelism;
use rdfref_model::TermId;
use rdfref_obs::Obs;
use rdfref_query::ast::Atom;
use rdfref_query::varorder::candidate_orders;
use rdfref_query::Var;
use rdfref_sync::Mutex;
use std::fmt;

/// What a leapfrog slot binds: a query variable, or an anonymous
/// interval-dictionary range some atom iterates without exporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotKind {
    /// A named query variable; its bound value is projected into output.
    Named(Var),
    /// A `[lo, hi)` id interval from a `PTerm::Range` position; iterated as
    /// one range-bounded trie level, never projected.
    Range {
        /// Inclusive lower bound.
        lo: TermId,
        /// Exclusive upper bound.
        hi: TermId,
    },
}

/// One slot of the global leapfrog order and the (atom, key level) pairs
/// that intersect at it.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    kind: SlotKind,
    /// `(atom index, key level)` pairs participating in this slot's
    /// intersection. Never empty by construction.
    participants: Vec<(usize, usize)>,
}

/// A complete leapfrog-triejoin physical plan for a CQ body.
#[derive(Debug, Clone)]
pub struct WcojPlan {
    slots: Vec<Slot>,
    /// Each atom's access: every level a constant or `Bound` to a slot.
    atoms: Vec<Access>,
    var_order: Vec<Var>,
    /// Slot index of each variable in `var_order` (same length/order).
    named_slots: Vec<usize>,
}

impl WcojPlan {
    /// The global variable order, outermost first.
    pub fn var_order(&self) -> &[Var] {
        &self.var_order
    }

    /// Number of atoms bound by the plan.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }
}

/// The global variable order and each atom's trie binding in body order,
/// one line each, every line after a newline: `  var order : ?x ?y`, then
/// `  t1 : SPO [?x #7 ?y]` with atom positions in SPO order, constants as
/// `#id` and ranges as `[lo,hi)`. Labels are padded to the formatter's width.
impl fmt::Display for WcojPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = f.width().unwrap_or(0);
        write!(f, "\n{:<width$}:", "  var order")?;
        for var in &self.var_order {
            write!(f, " ?{}", var.name())?;
        }
        for (i, access) in self.atoms.iter().enumerate() {
            let label = format!("  t{}", i + 1);
            write!(f, "\n{label:<width$}: {} [", access.order.name())?;
            for pos in 0..3 {
                f.write_str(if pos == 0 { "" } else { " " })?;
                match access.levels[access.order.key_position(pos)] {
                    Level::Const(c) => write!(f, "#{}", c.0)?,
                    Level::Bound(s) => match &self.slots[s].kind {
                        SlotKind::Named(v) => write!(f, "?{}", v.name())?,
                        SlotKind::Range { lo, hi } => write!(f, "[{},{})", lo.0, hi.0)?,
                    },
                    Level::Range(..) | Level::Free(_) => f.write_str("?")?,
                }
            }
            f.write_str("]")?;
        }
        Ok(())
    }
}

/// Does the atom repeat a variable? Those atoms carry an intra-atom equality
/// constraint the trie driver does not express; the planner bails to bind
/// join.
fn repeats_var(atom: &Atom) -> bool {
    let vars: Vec<&Var> = atom.vars().collect();
    for i in 0..vars.len() {
        for j in (i + 1)..vars.len() {
            if vars[i] == vars[j] {
                return true;
            }
        }
    }
    false
}

/// Build a leapfrog-triejoin plan for `body`, or `None` when no global
/// variable order admits a feasible access for every atom (the caller falls
/// back to bind join). Rejects empty bodies, bodies with no variables, and
/// bodies containing repeated-variable atoms.
pub fn plan(body: &[Atom]) -> Option<WcojPlan> {
    if body.is_empty() || body.iter().any(repeats_var) {
        return None;
    }
    candidate_orders(body).into_iter().find_map(|var_order| {
        let atoms = body
            .iter()
            .map(|atom| Access::rank(atom, &var_order))
            .collect::<Option<Vec<_>>>()?;
        Some(assemble(var_order, atoms))
    })
}

/// Lay out the plan's slots and bind every variable (`Free` at its rank)
/// and interval level of `atoms` to one of them.
fn assemble(var_order: Vec<Var>, mut atoms: Vec<Access>) -> WcojPlan {
    // Anonymous range levels are placed as *late* as possible: immediately
    // before the atom's next named level (so the range iteration nests
    // inside every prefix constraint it depends on), or at the very end if
    // the atom has no later named level. `anon[r]` lists the (atom, key
    // level) pairs placed just before named rank `r`; `anon[n]` the end.
    let n = var_order.len();
    let mut anon: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n + 1];
    for (a, access) in atoms.iter().enumerate() {
        for kp in 0..3 {
            if let Level::Range(..) = access.levels[kp] {
                let next_named = access.levels[kp + 1..].iter().find_map(|l| match l {
                    Level::Free(r) => Some(*r),
                    _ => None,
                });
                anon[next_named.unwrap_or(n)].push((a, kp));
            }
        }
    }
    fn push_slot(
        slots: &mut Vec<Slot>,
        atoms: &mut [Access],
        kind: SlotKind,
        participants: Vec<(usize, usize)>,
    ) {
        for &(a, kp) in &participants {
            atoms[a].levels[kp] = Level::Bound(slots.len());
        }
        slots.push(Slot { kind, participants });
    }
    let mut slots: Vec<Slot> = Vec::new();
    let mut named_slots: Vec<usize> = Vec::with_capacity(n);
    for (r, pending) in anon.into_iter().enumerate() {
        for (a, kp) in pending {
            if let Level::Range(lo, hi) = atoms[a].levels[kp] {
                let kind = SlotKind::Range { lo, hi };
                push_slot(&mut slots, &mut atoms, kind, vec![(a, kp)]);
            }
        }
        let Some(v) = var_order.get(r) else { break };
        let participants: Vec<(usize, usize)> = atoms
            .iter()
            .enumerate()
            .flat_map(|(a, access)| {
                (0..3)
                    .filter(move |&kp| access.levels[kp] == Level::Free(r))
                    .map(move |kp| (a, kp))
            })
            .collect();
        named_slots.push(slots.len());
        let kind = SlotKind::Named(v.clone());
        push_slot(&mut slots, &mut atoms, kind, participants);
    }
    debug_assert!(atoms.iter().all(|access| {
        // Every open level has a slot, and slots ascend in key order.
        let mut last: Option<usize> = None;
        access.levels.iter().all(|l| match *l {
            Level::Const(_) => true,
            Level::Bound(s) => last.replace(s).is_none_or(|l| l < s),
            Level::Range(..) | Level::Free(_) => false,
        })
    }));
    WcojPlan {
        slots,
        atoms,
        var_order,
        named_slots,
    }
}

/// Exact `op.lfj.*` counters, accumulated locally and flushed once —
/// including on the error path, so budget aborts still report their work.
#[derive(Debug, Default, Clone, Copy)]
struct LfjCounters {
    seeks: u64,
    next: u64,
    rows: u64,
}

impl LfjCounters {
    fn add(&mut self, other: LfjCounters) {
        self.seeks += other.seeks;
        self.next += other.next;
        self.rows += other.rows;
    }

    fn flush(self, obs: &Obs) {
        obs.add("op.lfj.seeks", self.seeks);
        obs.add("op.lfj.next", self.next);
        obs.add("op.lfj.rows", self.rows);
    }
}

/// The leapfrog driver: per-atom probe keys + per-slot bindings over the
/// bound tries.
struct Driver<'a> {
    plan: &'a WcojPlan,
    tries: &'a [&'a SortedIndex],
    /// Probe key per atom; constants prefilled, open levels
    /// written when their slot binds.
    keys: Vec<[TermId; 3]>,
    /// Bound value per slot (valid for slots above the recursion point).
    bindings: Vec<TermId>,
    counters: LfjCounters,
}

impl<'a> Driver<'a> {
    fn new(plan: &'a WcojPlan, tries: &'a [&'a SortedIndex]) -> Driver<'a> {
        let keys = plan.atoms.iter().map(|access| access.key(&[])).collect();
        Driver {
            plan,
            tries,
            keys,
            bindings: vec![TermId(0); plan.slots.len()],
            counters: LfjCounters::default(),
        }
    }

    /// Least value `m ≥ v` at key position `kp` of atom `a` such that some
    /// key matches the atom's probe prefix, `m` at `kp`, and every
    /// contiguous constant level directly after `kp`. `None` when exhausted.
    ///
    /// This is a probe-and-bump loop over the sorted run: each probe is one
    /// `seek_from`; a returned key either matches (hit), disagrees at `kp`
    /// (jump `v` forward to it), or matches `kp` but disagrees in the constant
    /// suffix (bump `v` by one).
    fn seek_match(&mut self, a: usize, kp: usize, mut v: TermId) -> Option<TermId> {
        // Contiguous constant suffix directly after kp, foldable into the
        // probe.
        let suffix_len = self.plan.atoms[a].levels[kp + 1..]
            .iter()
            .take_while(|l| matches!(l, Level::Const(_)))
            .count();
        loop {
            let mut probe = [TermId(0); 3];
            probe[..kp].copy_from_slice(&self.keys[a][..kp]);
            probe[kp] = v;
            probe[kp + 1..kp + 1 + suffix_len]
                .copy_from_slice(&self.keys[a][kp + 1..kp + 1 + suffix_len]);
            self.counters.seeks += 1;
            let r = self.tries[a].seek_from(&probe)?;
            if r[..kp] != self.keys[a][..kp] {
                return None; // left the bound prefix: exhausted
            }
            let suffix_ok = r[kp + 1..kp + 1 + suffix_len] == probe[kp + 1..kp + 1 + suffix_len];
            if r[kp] == v && suffix_ok {
                return Some(v);
            }
            if r[kp] == v {
                // Right value, wrong constant suffix: bump to the next value.
                v = TermId(v.0.checked_add(1)?);
            } else {
                // seek_from never goes backward within the prefix.
                v = r[kp];
                if suffix_ok {
                    return Some(v);
                }
            }
        }
    }

    /// Leapfrog intersection at `slot` starting from `v`: cycle passes over
    /// the participants until one full pass leaves `v` unchanged (all
    /// agree) or any participant is exhausted.
    fn leapfrog(&mut self, slot: usize, mut v: TermId) -> Option<TermId> {
        let n = self.plan.slots[slot].participants.len();
        debug_assert!(n > 0, "slot with no participants");
        if n == 0 {
            return None;
        }
        loop {
            let start = v;
            for pi in 0..n {
                let (a, kp) = self.plan.slots[slot].participants[pi];
                v = self.seek_match(a, kp, v)?;
            }
            if v == start {
                return Some(v);
            }
        }
    }

    /// Starting value and exclusive clamp for a slot.
    fn slot_bounds(&self, slot: usize) -> (TermId, Option<TermId>) {
        match self.plan.slots[slot].kind {
            SlotKind::Named(_) => (TermId(0), None),
            SlotKind::Range { lo, hi } => (lo, Some(hi)),
        }
    }

    /// Bind `m` at `slot` (write probe keys + binding) and descend.
    fn bind_and_descend(
        &mut self,
        slot: usize,
        m: TermId,
        out: &mut Relation,
        budget: Option<usize>,
    ) -> Result<()> {
        for pi in 0..self.plan.slots[slot].participants.len() {
            let (a, kp) = self.plan.slots[slot].participants[pi];
            self.keys[a][kp] = m;
        }
        self.bindings[slot] = m;
        self.recurse(slot + 1, out, budget)
    }

    /// Enumerate all bindings for slots `s..`, emitting rows at full depth.
    fn recurse(&mut self, s: usize, out: &mut Relation, budget: Option<usize>) -> Result<()> {
        if s == self.plan.slots.len() {
            let row: Vec<TermId> = self
                .plan
                .named_slots
                .iter()
                .map(|&ns| self.bindings[ns])
                .collect();
            out.push_row(&row)?;
            self.counters.rows += 1;
            if let Some(b) = budget {
                if out.len() > b {
                    return Err(StorageError::RowBudgetExceeded { budget: b });
                }
            }
            return Ok(());
        }
        let (start, clamp) = self.slot_bounds(s);
        let mut v = start;
        loop {
            let Some(m) = self.leapfrog(s, v) else {
                return Ok(());
            };
            if clamp.is_some_and(|hi| m >= hi) {
                return Ok(());
            }
            self.bind_and_descend(s, m, out, budget)?;
            self.counters.next += 1;
            let Some(nv) = m.0.checked_add(1) else {
                return Ok(());
            };
            v = TermId(nv);
        }
    }

    /// All matching values of `slot`, for morsel staging. Counts the same
    /// seeks `recurse` would spend finding them; the caller adds the one
    /// `next` per value that `recurse` counts when it descends.
    fn slot_values(&mut self, slot: usize) -> Vec<TermId> {
        let (start, clamp) = self.slot_bounds(slot);
        let mut out = Vec::new();
        let mut v = start;
        loop {
            let Some(m) = self.leapfrog(slot, v) else {
                return out;
            };
            if clamp.is_some_and(|hi| m >= hi) {
                return out;
            }
            out.push(m);
            let Some(nv) = m.0.checked_add(1) else {
                return out;
            };
            v = TermId(nv);
        }
    }
}

/// All-constant atoms (no open levels) are existence filters: one probe
/// each; any miss empties the result.
fn fixed_atoms_present(
    plan: &WcojPlan,
    tries: &[&SortedIndex],
    counters: &mut LfjCounters,
) -> bool {
    for (a, access) in plan.atoms.iter().enumerate() {
        if access.levels.iter().all(|l| matches!(l, Level::Const(_))) {
            let probe = access.key(&[]);
            counters.seeks += 1;
            match tries[a].seek_from(&probe) {
                Some(k) if k == probe => {}
                _ => return false,
            }
        }
    }
    true
}

/// Evaluate a leapfrog-triejoin plan over its bound tries. Output columns
/// are the plan's variable order; rows come out in lexicographic binding
/// order (sorted, duplicate-free per binding, but a final [`Relation::dedup`]
/// upstream still collapses projection duplicates).
///
/// `Off` runs the driver from slot 0. `Morsels` stages the slot-0 values
/// first, then gives each morsel of them a private driver that re-binds
/// each value and descends. Value-based splitting makes morsel outputs
/// disjoint and order-stitchable, and staging spends exactly the slot-0
/// seeks the driver would, so output and `op.lfj.*` counters are identical
/// under both policies.
pub(crate) fn eval(
    store: &Store,
    plan: &WcojPlan,
    parallelism: Parallelism,
    row_budget: Option<usize>,
    obs: &Obs,
) -> Result<Relation> {
    obs.add("op.lfj.atoms", plan.atoms.len() as u64);
    let tries: Vec<&SortedIndex> = plan.atoms.iter().map(|a| store.index(a.order)).collect();
    let tries = &tries[..];
    let mut driver = Driver::new(plan, tries);
    let size = parallelism.morsel_size();
    // `plan()` rejects var-free bodies, so `slots` is never empty; stay total.
    let res = if !fixed_atoms_present(plan, tries, &mut driver.counters) || plan.slots.is_empty() {
        Ok(Relation::empty(plan.var_order.clone()))
    } else if size == UNSPLIT {
        let mut out = Relation::empty(plan.var_order.clone());
        driver.recurse(0, &mut out, row_budget).map(|()| out)
    } else {
        let values = driver.slot_values(0);
        driver.counters.next += values.len() as u64;
        let descended = Mutex::new(LfjCounters::default());
        let res = morsel::run(values.len(), size, &plan.var_order, obs, |range, out| {
            let mut worker = Driver::new(plan, tries);
            let res = values[range]
                .iter()
                .try_for_each(|&v| worker.bind_and_descend(0, v, out, row_budget));
            descended.lock().add(worker.counters);
            res
        });
        driver.counters.add(descended.into_inner());
        res
    };
    // Each morsel checks the budget against its own rows; check the union.
    let res = res.and_then(|out| match row_budget {
        Some(budget) if out.len() > budget => Err(StorageError::RowBudgetExceeded { budget }),
        _ => Ok(out),
    });
    driver.counters.flush(obs);
    if let Err(StorageError::RowBudgetExceeded { .. }) = &res {
        obs.add("op.budget_abort", 1);
    }
    res
}

/// Why a CQ body runs on the operator it does: the request, or the cost
/// model's `Auto` verdict ([`CostModel::choose_join_algorithm`]). `Display`
/// prints it as `Explain` shows it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinReason {
    /// `BindJoin` was requested.
    BindJoinRequested,
    /// `Wcoj` was requested.
    WcojRequested,
    /// `Auto`, fewer than 3 atoms — bind join: a single binary join cannot
    /// lose asymptotically.
    FewAtoms,
    /// `Auto`, a cyclic variable hypergraph (GYO) — WCOJ: binary plans
    /// materialize intermediates a worst-case-optimal join never builds (the
    /// triangle's `O(N²)` wedges for an `O(N^{3/2})` answer).
    Cyclic,
    /// `Auto`, a star: `hub` in `atoms` ≥ 3 atoms, the second-smallest
    /// estimated at 64 rows or more — WCOJ: the leapfrog intersects the hub's
    /// adjacency lists instead of chaining bind joins through them.
    Star { hub: Var, atoms: usize },
    /// `Auto`, otherwise (acyclic, no large star) — bind join.
    Acyclic,
}

impl JoinReason {
    /// The operator this reason asks for (`BindJoin` or `Wcoj`).
    pub fn algorithm(&self) -> JoinAlgorithm {
        match self {
            Self::BindJoinRequested | Self::FewAtoms | Self::Acyclic => JoinAlgorithm::BindJoin,
            Self::WcojRequested | Self::Cyclic | Self::Star { .. } => JoinAlgorithm::Wcoj,
        }
    }
}

impl fmt::Display for JoinReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BindJoinRequested => f.write_str("bind join requested"),
            Self::WcojRequested => f.write_str("wcoj requested"),
            Self::FewAtoms => f.write_str("auto: fewer than 3 atoms"),
            Self::Cyclic => f.write_str("auto: cyclic join graph"),
            Self::Star { hub, atoms } => {
                write!(f, "auto: star join (?{} in {atoms} atoms)", hub.name())
            }
            Self::Acyclic => f.write_str("auto: acyclic, bind-join chain is cheap"),
        }
    }
}

/// The arbitrated physical choice for a CQ body: why, and the bound
/// leapfrog plan iff WCOJ runs. A reason that asks for WCOJ without a plan
/// is the fallback to bind join when no feasible trie binding exists.
#[derive(Debug, Clone)]
pub struct PhysicalChoice {
    /// The request or the cost model's verdict.
    pub reason: JoinReason,
    /// The leapfrog plan; `None` runs the bind-join chain.
    pub plan: Option<WcojPlan>,
}

impl fmt::Display for PhysicalChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.reason)?;
        if self.plan.is_none() && self.reason.algorithm() == JoinAlgorithm::Wcoj {
            f.write_str("; fell back to bind join (no feasible trie binding)")?;
        }
        Ok(())
    }
}

/// Resolve the physical join algorithm for `body`: the one arbitration the
/// evaluator dispatches on and records for `Explain`. `requested == Auto`
/// consults the cost model; a WCOJ verdict (requested or auto) still falls
/// back to bind join when no feasible trie binding exists.
pub fn physical_choice(stats: &Stats, requested: JoinAlgorithm, body: &[Atom]) -> PhysicalChoice {
    let reason = match requested {
        JoinAlgorithm::BindJoin => JoinReason::BindJoinRequested,
        JoinAlgorithm::Wcoj => JoinReason::WcojRequested,
        JoinAlgorithm::Auto => CostModel::new(stats).choose_join_algorithm(body),
    };
    let plan = match reason.algorithm() {
        JoinAlgorithm::Wcoj => plan(body),
        _ => None,
    };
    PhysicalChoice { reason, plan }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::Evaluator;
    use rdfref_model::EncodedTriple;
    use rdfref_query::ast::PTerm;

    fn v(n: &str) -> Var {
        Var::new(n)
    }

    /// A small digraph with triangles: edges p over vertices 0..n.
    fn edge_store(edges: &[(u32, u32)], p: u32) -> Store {
        let triples: Vec<EncodedTriple> = edges
            .iter()
            .map(|&(s, o)| EncodedTriple::new(TermId(1000 + s), TermId(p), TermId(1000 + o)))
            .collect();
        Store::from_triples(&triples)
    }

    fn run_wcoj(store: &Store, body: &[Atom], parallelism: Parallelism) -> (Relation, WcojPlan) {
        let p = plan(body).expect("plan");
        let rel = eval(store, &p, parallelism, None, &Obs::disabled()).expect("eval");
        (rel, p)
    }

    /// Oracle: bind-join evaluation of the same body projected to the
    /// plan's variable order, sorted.
    fn oracle(store: &Store, body: &[Atom], out: &[Var]) -> Vec<Vec<TermId>> {
        let stats = Stats::compute(store);
        let ev = Evaluator::new(store, &stats);
        let cq = rdfref_query::ast::Cq::new(out.to_vec(), body.to_vec()).expect("cq");
        let mut metrics = crate::exec::ExecMetrics::default();
        let rel = ev.eval_cq(&cq, out, &mut metrics).expect("oracle eval");
        let mut rows = rel.to_rows();
        rows.sort();
        rows
    }

    fn sorted_rows(rel: &Relation) -> Vec<Vec<TermId>> {
        let mut rows = rel.to_rows();
        rows.sort();
        rows
    }

    #[test]
    fn triangle_matches_bind_join_oracle() {
        let edges: Vec<(u32, u32)> = vec![
            (0, 1),
            (1, 2),
            (0, 2), // triangle 0-1-2
            (1, 3),
            (3, 4),
            (1, 4), // triangle 1-3-4
            (2, 5),
            (5, 6), // dangling path
        ];
        let store = edge_store(&edges, 7);
        let p = TermId(7);
        let body = vec![
            Atom::new(v("x"), p, v("y")),
            Atom::new(v("y"), p, v("z")),
            Atom::new(v("x"), p, v("z")),
        ];
        let (rel, pl) = run_wcoj(&store, &body, Parallelism::Off);
        let mut want = oracle(&store, &body, pl.var_order());
        want.dedup();
        assert_eq!(sorted_rows(&rel), want);
        assert_eq!(rel.len(), 2, "two triangles");
    }

    #[test]
    fn chain_and_star_match_oracle() {
        let edges: Vec<(u32, u32)> = (0..30u32).map(|i| (i % 6, (i * 7 + 1) % 11)).collect();
        let store = edge_store(&edges, 7);
        let p = TermId(7);
        let chain = vec![Atom::new(v("x"), p, v("y")), Atom::new(v("y"), p, v("z"))];
        let star = vec![
            Atom::new(v("h"), p, v("a")),
            Atom::new(v("h"), p, v("b")),
            Atom::new(v("h"), p, v("c")),
        ];
        for body in [chain, star] {
            let (rel, pl) = run_wcoj(&store, &body, Parallelism::Off);
            let mut want = oracle(&store, &body, pl.var_order());
            want.dedup();
            assert_eq!(sorted_rows(&rel), want);
            assert!(!rel.is_empty());
        }
    }

    #[test]
    fn range_atom_is_one_bounded_trie_level() {
        // type ∈ [lo, hi) over a class hierarchy interval: POS run clamp.
        let t = 3u32; // rdf:type
        let mut triples = Vec::new();
        for i in 0..20u32 {
            // instance 100+i has class 50 + i%8
            triples.push(EncodedTriple::new(
                TermId(100 + i),
                TermId(t),
                TermId(50 + i % 8),
            ));
            // and an edge to another instance
            triples.push(EncodedTriple::new(
                TermId(100 + i),
                TermId(7),
                TermId(100 + (i + 1) % 20),
            ));
        }
        let store = Store::from_triples(&triples);
        let body = vec![
            Atom::new(v("x"), TermId(t), PTerm::Range(TermId(52), TermId(55))),
            Atom::new(v("x"), TermId(7), v("y")),
        ];
        let p = plan(&body).expect("range body plans");
        let registry = std::sync::Arc::new(rdfref_obs::MetricsRegistry::default());
        let obs = Obs::collecting(registry.clone());
        let rel = eval(&store, &p, Parallelism::Off, None, &obs).unwrap();
        // Classes 52..55 are i%8 in {2,3,4}: instances 100+{2,3,4,10,11,12,18,19}
        // minus none → 8 x-bindings, each with exactly one outgoing edge.
        assert_eq!(rel.len(), 8);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("op.lfj.atoms"), 2);
        assert!(snap.counter("op.lfj.seeks") > 0);
        // One anonymous slot + x + y.
        assert_eq!(p.var_order().len(), 2);
    }

    #[test]
    fn morsel_output_and_counters_match_sequential() {
        let edges: Vec<(u32, u32)> = (0..60u32)
            .flat_map(|i| [(i % 9, (i * 5 + 2) % 13), ((i * 3) % 13, i % 9)])
            .collect();
        let store = edge_store(&edges, 7);
        let p = TermId(7);
        let body = vec![
            Atom::new(v("x"), p, v("y")),
            Atom::new(v("y"), p, v("z")),
            Atom::new(v("x"), p, v("z")),
        ];
        let run = |par: Parallelism| {
            let registry = std::sync::Arc::new(rdfref_obs::MetricsRegistry::default());
            let obs = Obs::collecting(registry.clone());
            let pl = plan(&body).unwrap();
            let rel = eval(&store, &pl, par, None, &obs).unwrap();
            let snap = registry.snapshot();
            (
                rel.to_rows(),
                snap.counter("op.lfj.seeks"),
                snap.counter("op.lfj.next"),
                snap.counter("op.lfj.rows"),
            )
        };
        let seq = run(Parallelism::Off);
        for size in [1, 3, 64] {
            let par = run(Parallelism::Morsels { size });
            assert_eq!(seq, par, "morsel size {size}");
        }
    }

    #[test]
    fn fully_fixed_atom_filters_existence() {
        let store = edge_store(&[(0, 1), (1, 2)], 7);
        let p = TermId(7);
        let present = vec![
            Atom::new(v("x"), p, v("y")),
            Atom::new(TermId(1000), p, TermId(1001)), // exists
        ];
        let absent = vec![
            Atom::new(v("x"), p, v("y")),
            Atom::new(TermId(1000), p, TermId(1002)), // missing edge
        ];
        let (rel, _) = run_wcoj(&store, &present, Parallelism::Off);
        assert_eq!(rel.len(), 2);
        let (rel, _) = run_wcoj(&store, &absent, Parallelism::Off);
        assert!(rel.is_empty());
    }

    #[test]
    fn repeated_var_atom_declines_to_plan() {
        let p = TermId(7);
        let body = vec![Atom::new(v("x"), p, v("x")), Atom::new(v("x"), p, v("y"))];
        assert!(plan(&body).is_none());
        assert!(plan(&[]).is_none());
    }

    #[test]
    fn row_budget_aborts_with_counters_flushed() {
        let edges: Vec<(u32, u32)> = (0..20u32).flat_map(|i| [(0, i), (i, 0)]).collect();
        let store = edge_store(&edges, 7);
        let p = TermId(7);
        let body = vec![Atom::new(v("x"), p, v("y")), Atom::new(v("y"), p, v("z"))];
        let pl = plan(&body).unwrap();
        for par in [Parallelism::Off, Parallelism::Morsels { size: 1 }] {
            let registry = std::sync::Arc::new(rdfref_obs::MetricsRegistry::default());
            let obs = Obs::collecting(registry.clone());
            let err = eval(&store, &pl, par, Some(3), &obs).unwrap_err();
            assert_eq!(
                err,
                StorageError::RowBudgetExceeded { budget: 3 },
                "{par:?}"
            );
            let snap = registry.snapshot();
            assert_eq!(snap.counter("op.budget_abort"), 1, "{par:?}");
            assert!(snap.counter("op.lfj.rows") >= 4, "{par:?}");
            assert!(snap.counter("op.lfj.seeks") > 0, "{par:?}");
        }
    }

    #[test]
    fn plan_renders_trie_bindings() {
        let p = TermId(7);
        let body = vec![
            Atom::new(v("x"), p, v("y")),
            Atom::new(v("x"), TermId(3), PTerm::Range(TermId(10), TermId(20))),
        ];
        let pl = plan(&body).expect("plan");
        let lines = [
            "",
            "  var order : ?x ?y",
            "  t1        : SPO [?x #7 ?y]",
            "  t2        : POS [?x #3 [10,20)]",
        ];
        assert_eq!(format!("{pl:12}"), lines.join("\n"));
    }
}
