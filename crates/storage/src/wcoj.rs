//! Worst-case-optimal join: a leapfrog-triejoin driver over the existing
//! sorted permutation indexes.
//!
//! No new storage format: each atom of a CQ body binds one of the SPO / POS
//! / OSP permutations whose key order lists the atom's variables compatibly
//! with one *global* variable order, and the sorted bucket runs of that
//! permutation are read as a trie (each key position = one trie level).
//! [`plan`] performs the binding; `eval` runs the leapfrog driver over the
//! bound tries, optionally morsel-parallel; [`physical_choice`] is the
//! single arbitration point — evaluator dispatch and `Explain` both go
//! through it so the executed plan and the rendered plan can never drift.
//!
//! ## Trie levels
//!
//! For an atom bound to permutation `order`, each of the three key
//! positions is classified:
//!
//! * **Fixed** — a constant; the driver pins it in the probe key.
//! * **Named** — a variable shared with the global order; it joins the
//!   leapfrog intersection at that variable's slot.
//! * **Range** — an interval-dictionary `[lo, hi)` position (produced by
//!   the `RangeScan` reformulation); it becomes an *anonymous* slot the
//!   driver iterates over the contiguous run, clamped to the interval —
//!   one range-bounded trie level instead of a union of point lookups.
//!
//! An (atom, order) pair is feasible iff the atom's named variables appear
//! in key order compatibly with the global order (strictly increasing
//! slot ranks). Fixed positions *below* an open level are folded into the
//! seek probe when contiguous, and deferred to the next open level's seek
//! otherwise — both are sound; the fold just prunes earlier.
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

use crate::cost::CostModel;
use crate::error::{Result, StorageError};
use crate::evaluator::JoinAlgorithm;
use crate::morsel::{self, UNSPLIT};
use crate::relation::Relation;
use crate::stats::Stats;
use crate::store::{Order, SortedIndex, Store};
use crate::Parallelism;
use rdfref_model::TermId;
use rdfref_obs::Obs;
use rdfref_query::ast::{Atom, PTerm};
use rdfref_query::{varorder, Var};
use rdfref_sync::Mutex;

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

/// One slot of the global leapfrog order and the (atom, key position)
/// pairs that intersect at it.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    kind: SlotKind,
    /// `(atom index, key position)` pairs participating in this slot's
    /// intersection. Never empty by construction.
    participants: Vec<(usize, usize)>,
}

/// How one key position of a bound atom behaves in the trie.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LevelBinding {
    /// Constant, pinned into the probe key.
    Fixed(TermId),
    /// Open level, bound at this slot of the global order.
    Slot(usize),
}

/// One atom's binding: the permutation it reads and what each of the three
/// key positions does.
#[derive(Debug, Clone)]
pub struct AtomPlan {
    order: Order,
    levels: [LevelBinding; 3],
}

/// A complete leapfrog-triejoin physical plan for a CQ body.
#[derive(Debug, Clone)]
pub struct WcojPlan {
    slots: Vec<Slot>,
    atoms: Vec<AtomPlan>,
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

    /// Human-readable rendering of each atom's trie binding, in body order:
    /// `"SPO [?x #7 ?y]"` — constants as `#id`, ranges as `[lo,hi)`.
    pub fn atom_renderings(&self) -> Vec<String> {
        self.atoms
            .iter()
            .map(|ap| {
                let mut parts: Vec<String> = Vec::with_capacity(3);
                // Render in SPO position order (what the query author wrote),
                // not key order.
                for pos in 0..3 {
                    let kp = ap.order.key_position(pos);
                    let s = match ap.levels[kp] {
                        LevelBinding::Fixed(c) => format!("#{}", c.0),
                        LevelBinding::Slot(s) => match self.slots.get(s).map(|sl| &sl.kind) {
                            Some(SlotKind::Named(v)) => format!("?{}", v.name()),
                            Some(SlotKind::Range { lo, hi }) => format!("[{},{})", lo.0, hi.0),
                            None => "?".to_string(),
                        },
                    };
                    parts.push(s);
                }
                format!("{} [{}]", ap.order.name(), parts.join(" "))
            })
            .collect()
    }
}

/// Per-position classification of an atom under a candidate permutation,
/// ordered by key position.
enum KeyInfo {
    Fixed(TermId),
    /// Rank of the variable in the global order.
    Named(usize),
    Range(TermId, TermId),
}

/// Classify `atom` under `order` against `rank(var)`; `None` if the atom
/// repeats a variable (bind join handles those).
fn classify(atom: &Atom, order: Order, rank: &[(Var, usize)]) -> Option<[KeyInfo; 3]> {
    let positions = atom.positions();
    let mut out: [Option<KeyInfo>; 3] = [None, None, None];
    for (pos, term) in positions.iter().enumerate() {
        let kp = order.key_position(pos);
        let info = match term {
            PTerm::Const(c) => KeyInfo::Fixed(*c),
            PTerm::Range(lo, hi) => KeyInfo::Range(*lo, *hi),
            PTerm::Var(v) => {
                let (_, r) = rank.iter().find(|(u, _)| u == v)?;
                KeyInfo::Named(*r)
            }
        };
        out[kp] = Some(info);
    }
    // All three filled by construction (key_position is a permutation).
    let [a, b, c] = out;
    Some([a?, b?, c?])
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

/// Pick the best feasible permutation for `atom` under the global order
/// described by `rank`. Feasible = named ranks strictly increase in key
/// order. Best = most leading Fixed positions (cheapest probes); ties break
/// by [`Order::ALL`] position.
fn bind_atom(atom: &Atom, rank: &[(Var, usize)]) -> Option<(Order, [KeyInfo; 3])> {
    let mut best: Option<(usize, Order, [KeyInfo; 3])> = None;
    for order in Order::ALL {
        let Some(infos) = classify(atom, order, rank) else {
            continue;
        };
        let mut last_rank: Option<usize> = None;
        let mut feasible = true;
        for info in &infos {
            if let KeyInfo::Named(r) = info {
                if last_rank.is_some_and(|l| l >= *r) {
                    feasible = false;
                    break;
                }
                last_rank = Some(*r);
            }
        }
        if !feasible {
            continue;
        }
        let leading_fixed = infos
            .iter()
            .take_while(|i| matches!(i, KeyInfo::Fixed(_)))
            .count();
        let better = match &best {
            None => true,
            Some((score, _, _)) => leading_fixed > *score,
        };
        if better {
            best = Some((leading_fixed, order, infos));
        }
    }
    best.map(|(_, order, infos)| (order, infos))
}

/// Build a leapfrog-triejoin plan for `body`, or `None` when no global
/// variable order admits a feasible permutation binding for every atom
/// (the caller falls back to bind join). Rejects empty bodies, bodies with
/// no variables, and bodies containing repeated-variable atoms.
pub fn plan(body: &[Atom]) -> Option<WcojPlan> {
    if body.is_empty() || body.iter().any(repeats_var) {
        return None;
    }
    for var_order in varorder::candidate_orders(body) {
        let rank: Vec<(Var, usize)> = var_order
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, v)| (v, i))
            .collect();
        let mut bindings: Vec<(Order, [KeyInfo; 3])> = Vec::with_capacity(body.len());
        let mut ok = true;
        for atom in body {
            match bind_atom(atom, &rank) {
                Some(b) => bindings.push(b),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            return Some(assemble(body, var_order, bindings));
        }
    }
    None
}

/// Assemble the plan structures from per-atom feasible bindings.
fn assemble(body: &[Atom], var_order: Vec<Var>, bindings: Vec<(Order, [KeyInfo; 3])>) -> WcojPlan {
    let n_named = var_order.len();
    // Anonymous range levels are placed as *late* as possible: immediately
    // before the atom's next named level (so the range iteration nests
    // inside every prefix constraint it depends on), or at the very end if
    // the atom has no later named level.
    //   anon_before[r] — anon slots to insert just before named rank r;
    //   anon_end      — anon slots appended after every named slot.
    // Each entry: (atom, key position, lo, hi).
    let mut anon_before: Vec<Vec<(usize, usize, TermId, TermId)>> = vec![Vec::new(); n_named];
    let mut anon_end: Vec<(usize, usize, TermId, TermId)> = Vec::new();
    for (a, (_, infos)) in bindings.iter().enumerate() {
        for (kp, info) in infos.iter().enumerate() {
            if let KeyInfo::Range(lo, hi) = info {
                let next_named = infos[kp + 1..].iter().find_map(|i| match i {
                    KeyInfo::Named(r) => Some(*r),
                    _ => None,
                });
                match next_named {
                    Some(r) => anon_before[r].push((a, kp, *lo, *hi)),
                    None => anon_end.push((a, kp, *lo, *hi)),
                }
            }
        }
    }
    // Lay out slots: for each named rank, first its pending anon slots,
    // then the named slot itself; trailing anons last.
    let mut slots: Vec<Slot> = Vec::new();
    let mut named_slots: Vec<usize> = Vec::with_capacity(n_named);
    // level_slot[atom][kp] = slot index of that open level.
    let mut level_slot: Vec<[Option<usize>; 3]> = vec![[None; 3]; body.len()];
    let push_anon = |entries: &[(usize, usize, TermId, TermId)],
                     slots: &mut Vec<Slot>,
                     level_slot: &mut Vec<[Option<usize>; 3]>| {
        for &(a, kp, lo, hi) in entries {
            level_slot[a][kp] = Some(slots.len());
            slots.push(Slot {
                kind: SlotKind::Range { lo, hi },
                participants: vec![(a, kp)],
            });
        }
    };
    for (r, v) in var_order.iter().enumerate() {
        push_anon(&anon_before[r], &mut slots, &mut level_slot);
        let mut participants: Vec<(usize, usize)> = Vec::new();
        for (a, (_, infos)) in bindings.iter().enumerate() {
            for (kp, info) in infos.iter().enumerate() {
                if matches!(info, KeyInfo::Named(rr) if *rr == r) {
                    participants.push((a, kp));
                }
            }
        }
        named_slots.push(slots.len());
        for &(a, kp) in &participants {
            level_slot[a][kp] = Some(slots.len());
        }
        slots.push(Slot {
            kind: SlotKind::Named(v.clone()),
            participants,
        });
    }
    push_anon(&anon_end, &mut slots, &mut level_slot);

    let atoms: Vec<AtomPlan> = bindings
        .iter()
        .enumerate()
        .map(|(a, (order, infos))| {
            let mut levels = [LevelBinding::Fixed(TermId(0)); 3];
            for (kp, info) in infos.iter().enumerate() {
                levels[kp] = match info {
                    KeyInfo::Fixed(c) => LevelBinding::Fixed(*c),
                    KeyInfo::Named(_) | KeyInfo::Range(..) => match level_slot[a][kp] {
                        Some(s) => LevelBinding::Slot(s),
                        None => {
                            debug_assert!(false, "open level without a slot");
                            LevelBinding::Fixed(TermId(0))
                        }
                    },
                };
            }
            AtomPlan {
                order: *order,
                levels,
            }
        })
        .collect();
    debug_assert!(atoms.iter().all(|ap| {
        // Per-atom slot indexes strictly increase with key position.
        let mut last: Option<usize> = None;
        ap.levels.iter().all(|l| match l {
            LevelBinding::Fixed(_) => true,
            LevelBinding::Slot(s) => {
                let ok = last.is_none_or(|l| l < *s);
                last = Some(*s);
                ok
            }
        })
    }));
    WcojPlan {
        slots,
        atoms,
        var_order,
        named_slots,
    }
}

/// The trie view (sorted permutation index) each atom reads.
pub(crate) fn tries<'a>(store: &'a Store, plan: &WcojPlan) -> Vec<&'a SortedIndex> {
    plan.atoms.iter().map(|ap| store.index(ap.order)).collect()
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
    /// Probe key per atom; Fixed positions prefilled, open positions
    /// written when their slot binds.
    keys: Vec<[TermId; 3]>,
    /// Bound value per slot (valid for slots above the recursion point).
    bindings: Vec<TermId>,
    counters: LfjCounters,
}

impl<'a> Driver<'a> {
    fn new(plan: &'a WcojPlan, tries: &'a [&'a SortedIndex]) -> Driver<'a> {
        let keys = plan
            .atoms
            .iter()
            .map(|ap| {
                let mut k = [TermId(0); 3];
                for (kp, l) in ap.levels.iter().enumerate() {
                    if let LevelBinding::Fixed(c) = l {
                        k[kp] = *c;
                    }
                }
                k
            })
            .collect();
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
    /// contiguous Fixed position directly after `kp`. `None` when exhausted.
    ///
    /// This is a probe-and-bump loop over the sorted run: each probe is one
    /// `seek_from`; a returned key either matches (hit), disagrees at `kp`
    /// (jump `v` forward to it), or matches `kp` but disagrees in the Fixed
    /// suffix (bump `v` by one).
    fn seek_match(&mut self, a: usize, kp: usize, mut v: TermId) -> Option<TermId> {
        let ap = &self.plan.atoms[a];
        // Contiguous Fixed suffix directly after kp, foldable into the probe.
        let suffix_len = ap.levels[kp + 1..]
            .iter()
            .take_while(|l| matches!(l, LevelBinding::Fixed(_)))
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
                // Right value, wrong Fixed suffix: bump to the next value.
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

/// Fully-Fixed atoms (no open levels) are existence filters: one probe
/// each; any miss empties the result.
fn fixed_atoms_present(
    plan: &WcojPlan,
    tries: &[&SortedIndex],
    counters: &mut LfjCounters,
) -> bool {
    for (a, ap) in plan.atoms.iter().enumerate() {
        if ap
            .levels
            .iter()
            .all(|l| matches!(l, LevelBinding::Fixed(_)))
        {
            let mut probe = [TermId(0); 3];
            for (kp, l) in ap.levels.iter().enumerate() {
                if let LevelBinding::Fixed(c) = l {
                    probe[kp] = *c;
                }
            }
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
    tries: &[&SortedIndex],
    plan: &WcojPlan,
    parallelism: Parallelism,
    row_budget: Option<usize>,
    obs: &Obs,
) -> Result<Relation> {
    obs.add("op.lfj.atoms", plan.atoms.len() as u64);
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

/// The arbitrated physical choice for a CQ body: the algorithm that will
/// actually run (never `Auto`), a human-readable reason, and the bound plan
/// when WCOJ was chosen.
#[derive(Debug, Clone)]
pub struct PhysicalChoice {
    /// The resolved algorithm (`BindJoin` or `Wcoj`, never `Auto`).
    pub algorithm: JoinAlgorithm,
    /// Why — cost-model verdict plus any fallback suffix.
    pub reason: String,
    /// The leapfrog plan, present iff `algorithm == Wcoj`.
    pub plan: Option<WcojPlan>,
}

/// Resolve the physical join algorithm for `body`: the single source of
/// truth shared by evaluator dispatch and `Explain`, so the rendered plan
/// always matches the executed one. `requested == Auto` consults the cost
/// model; a WCOJ verdict (requested or auto) still falls back to bind join
/// when no feasible trie binding exists.
pub fn physical_choice(stats: &Stats, requested: JoinAlgorithm, body: &[Atom]) -> PhysicalChoice {
    let (want_wcoj, reason) = match requested {
        JoinAlgorithm::BindJoin => {
            return PhysicalChoice {
                algorithm: JoinAlgorithm::BindJoin,
                reason: "bind join requested".to_string(),
                plan: None,
            }
        }
        JoinAlgorithm::Wcoj => (true, "wcoj requested".to_string()),
        JoinAlgorithm::Auto => {
            let choice = CostModel::new(stats).choose_join_algorithm(body);
            (choice.algorithm == JoinAlgorithm::Wcoj, choice.reason)
        }
    };
    if !want_wcoj {
        return PhysicalChoice {
            algorithm: JoinAlgorithm::BindJoin,
            reason,
            plan: None,
        };
    }
    let Some(p) = plan(body) else {
        return PhysicalChoice {
            algorithm: JoinAlgorithm::BindJoin,
            reason: format!("{reason}; fell back to bind join (no feasible trie binding)"),
            plan: None,
        };
    };
    PhysicalChoice {
        algorithm: JoinAlgorithm::Wcoj,
        reason,
        plan: Some(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::Evaluator;
    use rdfref_model::EncodedTriple;

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
        let t = tries(store, &p);
        let rel = eval(&t, &p, parallelism, None, &Obs::disabled()).expect("eval");
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
        let tr = tries(&store, &p);
        let registry = std::sync::Arc::new(rdfref_obs::MetricsRegistry::default());
        let obs = Obs::collecting(registry.clone());
        let rel = eval(&tr, &p, Parallelism::Off, None, &obs).unwrap();
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
            let tr = tries(&store, &pl);
            let rel = eval(&tr, &pl, par, None, &obs).unwrap();
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
        let tr = tries(&store, &pl);
        for par in [Parallelism::Off, Parallelism::Morsels { size: 1 }] {
            let registry = std::sync::Arc::new(rdfref_obs::MetricsRegistry::default());
            let obs = Obs::collecting(registry.clone());
            let err = eval(&tr, &pl, par, Some(3), &obs).unwrap_err();
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
        let rendered = pl.atom_renderings();
        assert_eq!(rendered.len(), 2);
        assert!(
            rendered[0].contains("?x") && rendered[0].contains("#7"),
            "{rendered:?}"
        );
        assert!(rendered[1].contains("[10,20)"), "{rendered:?}");
    }
}
