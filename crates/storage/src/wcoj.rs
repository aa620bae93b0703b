//! Worst-case-optimal join: a leapfrog-triejoin driver over the existing
//! sorted permutation indexes.
//!
//! No new storage format: each atom of a CQ body compiles the same access a
//! scan or bind join reads (one permutation index, what fixes each key
//! level), restricted to indexes whose key order lists the atom's variables
//! compatibly with one *global* variable order; the sorted bucket runs of
//! that index are read as a trie (each key level = one trie level).
//! [`plan`] performs the binding; `eval` runs the leapfrog driver over the
//! bound tries; [`physical_choice`] is the single arbitration point — the
//! evaluator dispatches on its verdict and records that same value for
//! `Explain`, so the executed plan and the rendered plan can never drift.
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
//! the feasible indexes the access rule picks one. The constants directly
//! after an open level (up to the next one) are its *suffix*, computed once
//! per plan and folded into every seek at that level.
//!
//! ## Cursors
//!
//! `eval` reads each atom's index through one trie cursor. For every open
//! key level the cursor holds the run of keys matching all levels above it
//! (a `[start, end)` pair of bucket-and-offset positions) and where the
//! level's next read starts. One binary search from the root places the
//! first level's run on the atom's constant prefix; binding a level to a
//! value narrows the next open level's run to the keys under that value and
//! its suffix. A seek gallops forward from where the level last read,
//! bounded by the run, so its cost grows with the distance moved.
//!
//! Entering a slot *opens* each participant's level: one seek to the first
//! value at or above the slot's lower bound. A slot with one participant
//! then *steps*: its next value starts where the bound value's keys end,
//! with the suffix checked as a filter and a range slot clamped to
//! `[lo, hi)`. A slot with two or more participants leapfrogs: each seeks in
//! turn to the candidate and raises it to what it lands on, until all agree.
//! Rows go straight into the output relation's flat buffer.
//!
//! ## Counters
//!
//! * `op.lfj.seeks` — level opens plus gallops: one per participant each
//!   time its slot is entered, one per later seek of a participant of a
//!   slot with two or more, and one per probe of an all-constant atom;
//!   exact, and at least one per evaluation;
//! * `op.lfj.steps` — a lone participant's moves to its next value after
//!   the open (the last one finds its run exhausted), exact;
//! * `op.lfj.next`  — values bound at any slot (level descents), exact;
//! * `op.lfj.rows`  — rows emitted before final dedup, exact;
//! * `op.lfj.atoms` — atoms participating per evaluation, exact.

use crate::access::{Access, Level};
use crate::cost::CostModel;
use crate::error::{Result, StorageError};
use crate::evaluator::JoinAlgorithm;
use crate::relation::Relation;
use crate::stats::Stats;
use crate::store::{Pos, SortedIndex, Store};
use rdfref_model::TermId;
use rdfref_obs::Obs;
use rdfref_query::ast::{Atom, PTerm};
use rdfref_query::varorder::candidate_orders;
use rdfref_query::Var;
use std::cmp::Ordering;
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

/// One slot of the global leapfrog order and the atom key levels that
/// intersect at it.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    kind: SlotKind,
    /// The levels participating in this slot's intersection. Never empty by
    /// construction.
    participants: Vec<Participant>,
}

/// One atom's key level at a slot.
#[derive(Debug, Clone, Copy)]
struct Participant {
    atom: usize,
    level: usize,
    /// How many constant levels directly follow `level`; a seek at the
    /// level folds them into its probe.
    suffix: usize,
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

    /// Atom `a`'s terms in `s, p, o` order, each slot as the variable or the
    /// interval it binds. (An unplaced level, which a built plan never has,
    /// reads as the nameless variable.)
    fn terms(&self, a: usize) -> [PTerm; 3] {
        let access = &self.atoms[a];
        [0, 1, 2].map(|pos| match access.levels[access.order.key_position(pos)] {
            Level::Const(c) => PTerm::Const(c),
            Level::Bound(s) => match &self.slots[s].kind {
                SlotKind::Named(v) => PTerm::Var(v.clone()),
                SlotKind::Range { lo, hi } => PTerm::Range(*lo, *hi),
            },
            Level::Range(lo, hi) => PTerm::Range(lo, hi),
            Level::Free(_) => PTerm::Var(Var::new("")),
        })
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
            for (pos, term) in self.terms(i).iter().enumerate() {
                f.write_str(if pos == 0 { "" } else { " " })?;
                match term {
                    PTerm::Const(c) => write!(f, "#{}", c.0)?,
                    PTerm::Var(v) => write!(f, "?{}", v.name())?,
                    PTerm::Range(lo, hi) => write!(f, "[{},{})", lo.0, hi.0)?,
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
        levels: Vec<(usize, usize)>,
    ) {
        let participants = levels
            .into_iter()
            .map(|(atom, level)| {
                let after = &atoms[atom].levels[level + 1..];
                let suffix = after
                    .iter()
                    .take_while(|l| matches!(l, Level::Const(_)))
                    .count();
                atoms[atom].levels[level] = Level::Bound(slots.len());
                Participant {
                    atom,
                    level,
                    suffix,
                }
            })
            .collect();
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
    /// Participants placed on a level as its slot is entered.
    opens: u64,
    /// Later seeks of a participant of a slot with two or more.
    gallops: u64,
    /// Moves of a slot's lone participant after its open.
    steps: u64,
    next: u64,
    rows: u64,
}

impl LfjCounters {
    fn flush(self, obs: &Obs) {
        obs.add("op.lfj.seeks", self.opens + self.gallops);
        obs.add("op.lfj.steps", self.steps);
        obs.add("op.lfj.next", self.next);
        obs.add("op.lfj.rows", self.rows);
    }
}

/// One atom's trie cursor: its probe key, and for each open key level the
/// run it reads and where its next read starts. A run is the keys that
/// match every level above: binding a level narrows the next open level's
/// run to the keys under the bound value and its constant suffix.
struct Cursor<'a> {
    index: &'a SortedIndex,
    /// Each constant level, and each open level's value once its slot binds.
    key: [TermId; 3],
    /// `[start, end)` of the run each open level reads.
    runs: [(Pos, Pos); 3],
    /// Where each open level's next read starts.
    at: [Pos; 3],
}

impl<'a> Cursor<'a> {
    /// The cursor of `access` over `index`, its first open level's run
    /// placed on the keys of its constant prefix: one search from the root
    /// per evaluation. An all-constant atom has no open level.
    fn new(index: &'a SortedIndex, access: &Access) -> Cursor<'a> {
        let key = access.key(&[]);
        let fixed = access
            .levels
            .iter()
            .take_while(|l| matches!(l, Level::Const(_)))
            .count();
        let end = index.end();
        let mut runs = [(end, end); 3];
        if let Some(run) = runs.get_mut(fixed) {
            let mut probe = [TermId(0); 3];
            probe[..fixed].copy_from_slice(&key[..fixed]);
            let start = index.lower_bound(&probe);
            *run = (
                start,
                index.gallop(start, end, |k| k[..fixed] <= key[..fixed]),
            );
        }
        Cursor {
            index,
            key,
            runs,
            at: [end; 3],
        }
    }

    /// Open `level`: its next read starts at its run's first key.
    fn open(&mut self, level: usize) {
        self.at[level] = self.runs[level].0;
    }

    /// The least value `m >= v` at `p`'s level, from where the level's last
    /// read left off, such that some key of the run holds `m` and then the
    /// level's constant suffix; `None` when the run is exhausted. Leaves
    /// the level's read position on the first such key. Each probe
    /// gallops forward; a key that holds the value but not the suffix
    /// moves the probe on to the next value.
    fn seek(&mut self, p: Participant, mut v: TermId) -> Option<TermId> {
        let (level, last) = (p.level, p.level + p.suffix);
        let end = self.runs[level].1;
        let mut probe = self.key;
        probe[last + 1..].fill(TermId(0));
        loop {
            probe[level] = v;
            let at = self.index.gallop(self.at[level], end, |k| *k < probe);
            self.at[level] = at;
            let k = self.index.key_at(at).filter(|_| at < end)?;
            match k[level + 1..=last].cmp(&probe[level + 1..=last]) {
                Ordering::Equal => return Some(k[level]),
                // No key of this value holds the suffix: try the next one.
                Ordering::Greater => v = TermId(k[level].0.checked_add(1)?),
                // A later value; its keys may hold the suffix further on.
                Ordering::Less => v = k[level],
            }
        }
    }

    /// Bind `p`'s level to `m`, which [`Cursor::seek`] just found: narrow
    /// the next open level's run to the keys under `m` and the suffix, and
    /// start the level's next read after them. Under the last level that
    /// is the next key; otherwise one gallop finds the end.
    fn bind(&mut self, p: Participant, m: TermId) {
        let (level, last) = (p.level, p.level + p.suffix);
        self.key[level] = m;
        let at = self.at[level];
        let after = if last == 2 {
            self.index.succ(at)
        } else {
            let key = self.key;
            let run = self
                .index
                .gallop(at, self.runs[level].1, |k| k[..=last] <= key[..=last]);
            self.runs[last + 1] = (at, run);
            run
        };
        self.at[level] = after;
    }
}

/// The leapfrog driver: one trie cursor per atom, and each slot's bound
/// value (valid for slots above the recursion point).
struct Driver<'a> {
    plan: &'a WcojPlan,
    cursors: Vec<Cursor<'a>>,
    bindings: Vec<TermId>,
    counters: LfjCounters,
}

impl<'a> Driver<'a> {
    fn new(store: &'a Store, plan: &'a WcojPlan) -> Driver<'a> {
        let cursors = plan
            .atoms
            .iter()
            .map(|access| Cursor::new(store.index(access.order), access))
            .collect();
        Driver {
            plan,
            cursors,
            bindings: vec![TermId(0); plan.slots.len()],
            counters: LfjCounters::default(),
        }
    }

    /// All-constant atoms (no open levels) are existence filters: one probe
    /// each (an open); any miss empties the result.
    fn fixed_atoms_present(&mut self) -> bool {
        let plan = self.plan;
        plan.atoms
            .iter()
            .zip(&self.cursors)
            .all(|(access, cursor)| {
                if access.levels.iter().any(|l| !matches!(l, Level::Const(_))) {
                    return true;
                }
                self.counters.opens += 1;
                cursor.index.contains(&cursor.key)
            })
    }

    /// The least value `>= v` on which every participant of `slot` agrees:
    /// each seeks in turn to the candidate, which moves up to whatever it
    /// lands on, until all of them have landed on the same value. On
    /// `entry` each participant's first seek opens its level.
    fn next_value(&mut self, slot: &Slot, mut v: TermId, entry: bool) -> Option<TermId> {
        let n = slot.participants.len();
        let (mut agreed, mut i) = (0, 0);
        let mut unopened = if entry { n } else { 0 };
        loop {
            let counter = match (unopened, n) {
                (0, 1) => &mut self.counters.steps,
                (0, _) => &mut self.counters.gallops,
                _ => {
                    unopened -= 1;
                    &mut self.counters.opens
                }
            };
            *counter += 1;
            let p = slot.participants[i];
            let w = self.cursors[p.atom].seek(p, v)?;
            if w == v {
                agreed += 1;
            } else {
                (v, agreed) = (w, 1);
            }
            if agreed == n {
                return Some(v);
            }
            i = (i + 1) % n;
        }
    }

    /// Enumerate all bindings for slots `s..`, emitting rows at full depth.
    /// Entering a slot opens each participant's level with one seek; after
    /// that a lone participant steps through its run, and two or more
    /// leapfrog.
    fn recurse(&mut self, s: usize, out: &mut Relation, budget: Option<usize>) -> Result<()> {
        let plan = self.plan;
        let Some(slot) = plan.slots.get(s) else {
            return self.emit(out, budget);
        };
        let (mut v, hi) = match slot.kind {
            SlotKind::Named(_) => (TermId(0), None),
            SlotKind::Range { lo, hi } => (lo, Some(hi)),
        };
        for p in &slot.participants {
            self.cursors[p.atom].open(p.level);
        }
        let mut entry = true;
        loop {
            let found = self.next_value(slot, v, entry);
            let Some(m) = found.filter(|m| hi.is_none_or(|hi| *m < hi)) else {
                return Ok(());
            };
            entry = false;
            for &p in &slot.participants {
                self.cursors[p.atom].bind(p, m);
            }
            self.bindings[s] = m;
            self.recurse(s + 1, out, budget)?;
            self.counters.next += 1;
            let Some(nv) = m.0.checked_add(1) else {
                return Ok(());
            };
            v = TermId(nv);
        }
    }

    /// Write the named slots' values as one row of `out`, and check the row
    /// budget.
    fn emit(&mut self, out: &mut Relation, budget: Option<usize>) -> Result<()> {
        #[cfg(feature = "strict-invariants")]
        self.check_row();
        out.push_picked(&self.bindings, &self.plan.named_slots);
        self.counters.rows += 1;
        match budget {
            Some(b) if out.len() > b => Err(StorageError::RowBudgetExceeded { budget: b }),
            _ => Ok(()),
        }
    }

    /// `strict-invariants`: the row is an answer — under the slots'
    /// bindings every atom's key is in its index, and every range slot's
    /// value lies in its interval.
    #[cfg(feature = "strict-invariants")]
    fn check_row(&self) {
        for (access, cursor) in self.plan.atoms.iter().zip(&self.cursors) {
            let key = access.levels.map(|l| match l {
                Level::Const(c) => c,
                Level::Bound(s) => self.bindings[s],
                Level::Range(..) | Level::Free(_) => TermId(0),
            });
            debug_assert!(
                cursor.index.contains(&key),
                "leapfrog row binds {key:?}, absent from {}",
                access.order.name()
            );
        }
        for (slot, &v) in self.plan.slots.iter().zip(&self.bindings) {
            if let SlotKind::Range { lo, hi } = slot.kind {
                debug_assert!(
                    lo <= v && v < hi,
                    "range slot {v:?} outside [{lo:?}, {hi:?})"
                );
            }
        }
    }
}

/// Evaluate a leapfrog-triejoin plan over its bound tries, descending from
/// slot 0. Output columns are the plan's variable order; rows come out
/// in lexicographic binding order (sorted, duplicate-free per binding, but a
/// final [`Relation::dedup`] upstream still collapses projection duplicates).
pub(crate) fn eval(
    store: &Store,
    plan: &WcojPlan,
    row_budget: Option<usize>,
    obs: &Obs,
) -> Result<Relation> {
    obs.add("op.lfj.atoms", plan.atoms.len() as u64);
    let (res, counters) = run(store, plan, row_budget);
    counters.flush(obs);
    if let Err(StorageError::RowBudgetExceeded { .. }) = &res {
        obs.add("op.budget_abort", 1);
    }
    res
}

/// [`eval`]'s result, and the driver's counters whatever it is.
fn run(
    store: &Store,
    plan: &WcojPlan,
    row_budget: Option<usize>,
) -> (Result<Relation>, LfjCounters) {
    let mut driver = Driver::new(store, plan);
    let mut out = Relation::empty(plan.var_order.clone());
    // `plan()` rejects var-free bodies, so `slots` is never empty; stay total.
    let res = if driver.fixed_atoms_present() && !plan.slots.is_empty() {
        driver.recurse(0, &mut out, row_budget)
    } else {
        Ok(())
    };
    (res.map(|()| out), driver.counters)
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

impl PhysicalChoice {
    /// Restate the choice in the terms of the query its CQ was planned
    /// from: every variable it names (a star's hub, the plan's variables)
    /// through `rename`, and the plan's atoms renumbered. With an `order`
    /// that is a permutation of them, `t{i+1}` is the atom that was
    /// `order[i]`; with none (a JUCQ fragment's CQ, which lists its atoms
    /// as its union was built) they are sorted by their terms, so one CQ
    /// reads alike however it was listed. A choice that names no variable
    /// is left as it is.
    pub fn restate(&mut self, rename: impl Fn(&Var) -> Var, order: Option<&[usize]>) {
        if let JoinReason::Star { hub, .. } = &mut self.reason {
            *hub = rename(hub);
        }
        let Some(plan) = &mut self.plan else {
            return;
        };
        for var in &mut plan.var_order {
            *var = rename(var);
        }
        for slot in &mut plan.slots {
            if let SlotKind::Named(var) = &mut slot.kind {
                *var = rename(var);
            }
        }
        let n = plan.atoms.len();
        let sorted: Vec<usize>;
        let order = match order {
            Some(order) => order,
            None => {
                let terms: Vec<[PTerm; 3]> = (0..n).map(|a| plan.terms(a)).collect();
                let mut by_terms: Vec<usize> = (0..n).collect();
                by_terms.sort_by(|&i, &j| terms[i].cmp(&terms[j]));
                sorted = by_terms;
                &sorted
            }
        };
        let mut position = vec![n; n];
        for (i, &j) in order.iter().enumerate() {
            if let Some(p) = position.get_mut(j) {
                *p = i;
            }
        }
        if order.len() != n || position.contains(&n) {
            return;
        }
        plan.atoms = order.iter().map(|&j| plan.atoms[j].clone()).collect();
        for slot in &mut plan.slots {
            for p in &mut slot.participants {
                p.atom = position[p.atom];
            }
        }
    }
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

    fn run_wcoj(store: &Store, body: &[Atom]) -> (Relation, WcojPlan) {
        let p = plan(body).expect("plan");
        let rel = eval(store, &p, None, &Obs::disabled()).expect("eval");
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
        let (rel, pl) = run_wcoj(&store, &body);
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
            let (rel, pl) = run_wcoj(&store, &body);
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
        let rel = eval(&store, &p, None, &obs).unwrap();
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
        let (rel, _) = run_wcoj(&store, &present);
        assert_eq!(rel.len(), 2);
        let (rel, _) = run_wcoj(&store, &absent);
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
        let registry = std::sync::Arc::new(rdfref_obs::MetricsRegistry::default());
        let obs = Obs::collecting(registry.clone());
        let err = eval(&store, &pl, Some(3), &obs).unwrap_err();
        assert_eq!(err, StorageError::RowBudgetExceeded { budget: 3 });
        let snap = registry.snapshot();
        assert_eq!(snap.counter("op.budget_abort"), 1);
        assert!(snap.counter("op.lfj.rows") >= 4);
        assert!(snap.counter("op.lfj.seeks") > 0);
    }

    #[test]
    fn restate_renames_and_renumbers_and_still_runs() {
        let (p, q) = (TermId(7), TermId(8));
        let triples: Vec<EncodedTriple> = (0..60u32)
            .flat_map(|i| {
                let (s, o) = (TermId(1000 + i % 9), TermId(1000 + (i * 5 + 2) % 13));
                [EncodedTriple::new(s, p, o), EncodedTriple::new(o, q, s)]
            })
            .collect();
        let store = Store::from_triples(&triples);
        let body = vec![
            Atom::new(v("a"), p, v("b")),
            Atom::new(v("a"), q, v("c")),
            Atom::new(v("b"), p, v("c")),
        ];
        let mut choice = PhysicalChoice {
            reason: JoinReason::Star {
                hub: v("a"),
                atoms: 3,
            },
            plan: plan(&body),
        };
        let before = run_wcoj(&store, &body).0.to_rows();
        choice.restate(|var| Var::new(var.name().to_uppercase()), Some(&[0, 2, 1]));
        assert_eq!(choice.to_string(), "auto: star join (?A in 3 atoms)");
        let pl = choice.plan.expect("plan");
        let lines = [
            "",
            "  var order : ?A ?B ?C",
            "  t1        : SPO [?A #7 ?B]",
            "  t2        : SPO [?B #7 ?C]",
            "  t3        : SPO [?A #8 ?C]",
        ];
        assert_eq!(format!("{pl:12}"), lines.join("\n"));
        let after = eval(&store, &pl, None, &Obs::disabled()).unwrap();
        assert_eq!(after.columns(), &[v("A"), v("B"), v("C")]);
        assert_eq!(after.to_rows(), before);
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

    /// Runs `body` under the leapfrog on `store` and checks its rows, set
    /// for set, against the bind-join oracle; returns the driver's counters.
    fn checked(store: &Store, body: &[Atom]) -> LfjCounters {
        let p = plan(body).expect("plan");
        let (rel, counters) = run(store, &p, None);
        let mut got = sorted_rows(&rel.expect("eval"));
        got.dedup();
        let mut want = oracle(store, body, p.var_order());
        want.dedup();
        assert_eq!(got, want, "{p}");
        counters
    }

    /// Subjects `1000 + i % 40` with keys under properties 10, 20 and 30,
    /// some with none under 20 — so a level stepping over subjects toward
    /// `#20` meets keys whose next level is below it, above it, or missing.
    fn mixed_store(bucket_target: usize) -> Store {
        let triples: Vec<EncodedTriple> = (0..240u32)
            .map(|i| {
                let s = 1000 + i % 40;
                let p = match i % 7 {
                    0 | 3 if s % 3 == 0 => 20,
                    0 | 1 => 10,
                    2 | 3 => 30,
                    _ => 20 + (s % 2) * 10,
                };
                EncodedTriple::new(TermId(s), TermId(p), TermId(1000 + (i * 13) % 47))
            })
            .collect();
        Store::from_triples_with_bucket_target(&triples, bucket_target)
    }

    #[test]
    fn a_stepped_level_filters_the_constant_folded_after_it() {
        // (?x #20 ?y) reads SPO [?x #20 ?y]: ?x is a lone level whose next
        // key level is the constant, so stepping over subjects must skip
        // those without a #20 key; (?z #30 ?w) is a second component, a
        // lone level again at ?z.
        let (p, q) = (TermId(20), TermId(30));
        let bodies = [
            vec![Atom::new(v("x"), p, v("y"))],
            vec![Atom::new(v("x"), p, v("y")), Atom::new(v("z"), q, v("w"))],
        ];
        for target in [usize::MAX, 4] {
            let store = mixed_store(target);
            for body in &bodies {
                let pl = plan(body).expect("plan");
                assert!(format!("{pl}").contains("SPO [?x #20 ?y]"), "{pl}");
                let c = checked(&store, body);
                assert!(c.steps > 0 && c.next > 0, "{c:?}");
            }
        }
    }

    #[test]
    fn a_range_slot_can_be_the_last_level() {
        // ([1005,1020) #30 ?x) reads POS [#30 ?x [1005,1020)]: the subject
        // interval has no named level after it, so it is the last slot.
        let body = vec![
            Atom::new(v("x"), TermId(20), v("y")),
            Atom::new(PTerm::Range(TermId(1005), TermId(1020)), TermId(30), v("x")),
        ];
        let pl = plan(&body).expect("plan");
        assert!(format!("{pl}").contains("POS [[1005,1020) #30 ?x]"), "{pl}");
        assert!(matches!(
            pl.slots.last().map(|s| &s.kind),
            Some(SlotKind::Range { .. })
        ));
        for target in [usize::MAX, 4] {
            let c = checked(&mixed_store(target), &body);
            assert!(c.rows > 0 && c.steps > 0, "{c:?}");
        }
    }

    #[test]
    fn a_one_atom_body_opens_each_level_once_and_steps_the_rest() {
        // Every level is lone: one seek opens ?x, one per subject opens ?y,
        // and every further value is a step.
        let store = mixed_store(4);
        let body = vec![Atom::new(v("x"), TermId(20), v("y"))];
        let c = checked(&store, &body);
        let subjects = store
            .scan(crate::store::Pattern::property(TermId(20)))
            .map(|t| t.s)
            .collect::<std::collections::BTreeSet<_>>()
            .len() as u64;
        assert_eq!(c.opens, 1 + subjects);
        assert_eq!(c.gallops, 0);
        assert_eq!(
            c.rows,
            store.count(crate::store::Pattern::property(TermId(20))) as u64
        );
        assert_eq!(c.next, subjects + c.rows);
        assert_eq!(c.steps, c.next);
    }

    #[test]
    fn shared_levels_gallop_across_buckets() {
        let edges: Vec<(u32, u32)> = (0..90u32).map(|i| (i % 13, (i * 7 + 3) % 17)).collect();
        let p = TermId(7);
        let triangle = vec![
            Atom::new(v("x"), p, v("y")),
            Atom::new(v("y"), p, v("z")),
            Atom::new(v("x"), p, v("z")),
        ];
        let path = vec![Atom::new(v("x"), p, v("y")), Atom::new(v("y"), p, v("z"))];
        for target in [usize::MAX, 3] {
            let triples: Vec<EncodedTriple> = edges
                .iter()
                .map(|&(s, o)| EncodedTriple::new(TermId(1000 + s), p, TermId(1000 + o)))
                .collect();
            let store = Store::from_triples_with_bucket_target(&triples, target);
            for body in [&triangle, &path] {
                let c = checked(&store, body);
                assert!(c.gallops > 0 && c.rows > 0, "{c:?}");
            }
        }
    }

    #[test]
    fn a_row_budget_crossed_while_stepping_aborts_with_counters_flushed() {
        let store = mixed_store(4);
        let body = vec![Atom::new(v("x"), TermId(20), v("y"))];
        let pl = plan(&body).unwrap();
        let registry = std::sync::Arc::new(rdfref_obs::MetricsRegistry::default());
        let obs = Obs::collecting(registry.clone());
        let err = eval(&store, &pl, Some(3), &obs).unwrap_err();
        assert_eq!(err, StorageError::RowBudgetExceeded { budget: 3 });
        let snap = registry.snapshot();
        assert_eq!(snap.counter("op.budget_abort"), 1);
        assert_eq!(snap.counter("op.lfj.rows"), 4);
        // The fourth row came from a step inside the first subject's run
        // or a later one: both levels stepped, nothing galloped.
        assert!(snap.counter("op.lfj.steps") >= 3);
        assert!(snap.counter("op.lfj.seeks") >= 2);
    }
}
