//! Physical operators: pattern scans, bind joins and execution metrics.
//!
//! Hash joins and projections live on [`Relation`];
//! this module contributes the store-facing operators and the metrics
//! the experiments report (intermediate result sizes — the quantities the
//! paper quotes for Example 1, e.g. "33,328,108 results each").

use crate::access::Access;
use crate::relation::Relation;
use crate::store::{Pos, Store};
use crate::wcoj::PhysicalChoice;
use rdfref_model::TermId;
use rdfref_obs::Obs;
use rdfref_query::ast::Atom;
use std::fmt;
use std::ops::Range;
use std::time::Duration;

/// What an [`ExecStep`] ran. Atom numbers are 1-based positions in the CQ
/// body (`t1`, `t2`, …), as the paper writes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepLabel {
    /// `scan t{n}`: exact index scan of atom `n`.
    Scan(usize),
    /// `range-scan t{n}`: interval scan of atom `n`.
    RangeScan(usize),
    /// `bind-join t{n}`: index nested-loop join probing atom `n`.
    BindJoin(usize),
    /// `join`: hash join with the preceding scan.
    Join,
    /// `lfj({n} atoms)`: leapfrog triejoin over an `n`-atom body.
    Lfj(usize),
    /// `project+dedup`: head projection of one CQ.
    ProjectDedup,
    /// `union-dedup`: deduplicated union of a UCQ's disjuncts.
    UnionDedup,
    /// `fragment {i}`: the evaluated `i`-th (0-based) JUCQ fragment.
    Fragment(usize),
    /// `fragment-join`: hash join of two fragment results.
    FragmentJoin,
    /// `seeded fragment {i}`: the `i`-th JUCQ fragment evaluated bound by
    /// the rows already joined, its union deduplicated: the join of those
    /// rows with the fragment.
    SeededFragment(usize),
}

impl StepLabel {
    /// The `op.*` counters the step adds to: its operator's run count, and
    /// its output rows. The leapfrog counts its own (`op.lfj.*`).
    pub(crate) fn counters(self) -> (Option<&'static str>, Option<&'static str>) {
        match self {
            StepLabel::Scan(_) => (Some("op.scan.count"), Some("op.scan.rows")),
            StepLabel::RangeScan(_) => (Some("op.range_scan.count"), Some("op.range_scan.rows")),
            StepLabel::BindJoin(_) => (Some("op.bind_join.count"), Some("op.bind_join.rows")),
            StepLabel::Join => (Some("op.join.count"), Some("op.join.rows")),
            StepLabel::UnionDedup => (None, Some("op.union.rows")),
            StepLabel::Fragment(_) => (None, Some("op.fragment.rows")),
            StepLabel::SeededFragment(_) => (
                Some("op.seeded_fragment.count"),
                Some("op.seeded_fragment.rows"),
            ),
            StepLabel::Lfj(_) | StepLabel::ProjectDedup | StepLabel::FragmentJoin => (None, None),
        }
    }
}

impl fmt::Display for StepLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad` so `{:<22}`-style widths in reports apply to the label.
        match *self {
            StepLabel::Scan(n) => f.pad(&format!("scan t{n}")),
            StepLabel::RangeScan(n) => f.pad(&format!("range-scan t{n}")),
            StepLabel::BindJoin(n) => f.pad(&format!("bind-join t{n}")),
            StepLabel::Join => f.pad("join"),
            StepLabel::Lfj(n) => f.pad(&format!("lfj({n} atoms)")),
            StepLabel::ProjectDedup => f.pad("project+dedup"),
            StepLabel::UnionDedup => f.pad("union-dedup"),
            StepLabel::Fragment(i) => f.pad(&format!("fragment {i}")),
            StepLabel::FragmentJoin => f.pad("fragment-join"),
            StepLabel::SeededFragment(i) => f.pad(&format!("seeded fragment {i}")),
        }
    }
}

/// One recorded execution step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecStep {
    /// The operator that ran; renders as e.g. `scan t1` or `join`.
    pub label: StepLabel,
    /// Rows produced by the operator.
    pub rows: usize,
    /// Operator wall time. `Duration::ZERO` unless a recorder was installed
    /// when the step ran (timing is only measured under observation).
    pub wall: Duration,
}

/// Which join operator the evaluator dispatched, tallied over every CQ body
/// it ran — under a UCQ/JUCQ plan that is each reformulated CQ, not the
/// user's query — and how a JUCQ joined each fragment after its first.
#[derive(Debug, Clone, Default)]
pub struct Dispatched {
    /// CQ bodies run as bind-join / hash-join chains.
    pub bind_join_cqs: usize,
    /// CQ bodies run by the leapfrog triejoin.
    pub wcoj_cqs: usize,
    /// JUCQ fragments evaluated bound by the rows already joined.
    pub seeded_fragments: usize,
    /// JUCQ fragments materialised and hash-joined with the rows already
    /// joined.
    pub hash_joined_fragments: usize,
    /// The arbitration behind the tally: that of the first CQ run by WCOJ
    /// if any was, else of the first CQ run. `None` iff no CQ body ran.
    pub choice: Option<PhysicalChoice>,
}

impl Dispatched {
    /// Record the arbitration of one CQ body that ran.
    pub(crate) fn record(&mut self, choice: PhysicalChoice) {
        let wcoj = choice.plan.is_some();
        if wcoj {
            self.wcoj_cqs += 1;
        } else {
            self.bind_join_cqs += 1;
        }
        let first_wcoj = |old: &PhysicalChoice| wcoj && old.plan.is_none();
        if self.choice.as_ref().is_none_or(first_wcoj) {
            self.choice = Some(choice);
        }
    }

    /// Record how a JUCQ joined one fragment after its first.
    pub(crate) fn record_fragment(&mut self, seeded: bool) {
        if seeded {
            self.seeded_fragments += 1;
        } else {
            self.hash_joined_fragments += 1;
        }
    }
}

/// `wcoj (auto: cyclic join graph)`, or `wcoj ×2, bind join ×5 (…)` when
/// the CQs split, then `; fragments seeded ×3, hash-joined ×1` when a JUCQ
/// joined fragments; when the reported CQ was leapfrogged, its plan's lines
/// follow, their labels padded to the formatter's width. Empty when no CQ
/// body ran.
impl fmt::Display for Dispatched {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some(choice) = &self.choice else {
            return Ok(());
        };
        match (self.wcoj_cqs, self.bind_join_cqs) {
            (_, 0) => write!(f, "wcoj ({choice})")?,
            (0, _) => write!(f, "bind join ({choice})")?,
            (w, b) => write!(f, "wcoj ×{w}, bind join ×{b} ({choice})")?,
        }
        if self.seeded_fragments + self.hash_joined_fragments > 0 {
            write!(
                f,
                "; fragments seeded ×{}, hash-joined ×{}",
                self.seeded_fragments, self.hash_joined_fragments
            )?;
        }
        match &choice.plan {
            Some(plan) => fmt::Display::fmt(plan, f),
            None => Ok(()),
        }
    }
}

/// Execution metrics: the operator trace and the join operators that ran.
#[derive(Debug, Clone, Default)]
pub struct ExecMetrics {
    /// Ordered operator trace.
    pub steps: Vec<ExecStep>,
    /// The join operators that actually ran.
    pub dispatched: Dispatched,
}

impl ExecMetrics {
    /// Record an operator's output size and wall time.
    pub fn record(&mut self, label: StepLabel, rows: usize, wall: Duration) {
        self.steps.push(ExecStep { label, rows, wall });
    }

    /// Renumber the atoms of a UCQ's trace, CQ by CQ: `position(k, j)` is
    /// the position, if any, to report for atom `j` (0-based) of the `k`-th
    /// CQ run. Each CQ's steps end with its `project+dedup`; a trace that
    /// holds another number of those than `cqs` is left as it is.
    pub fn renumber(&mut self, cqs: usize, position: impl Fn(usize, usize) -> Option<usize>) {
        let ends = self
            .steps
            .iter()
            .filter(|s| s.label == StepLabel::ProjectDedup);
        if ends.count() != cqs {
            return;
        }
        let mut k = 0;
        for step in &mut self.steps {
            match &mut step.label {
                StepLabel::ProjectDedup => k += 1,
                StepLabel::Scan(n) | StepLabel::RangeScan(n) | StepLabel::BindJoin(n) => {
                    if let Some(p) = position(k, *n - 1) {
                        *n = p + 1;
                    }
                }
                _ => {}
            }
        }
    }

    /// Renumber the JUCQ fragments the trace names: `position(i)` is the
    /// position, if any, to report for fragment `i`.
    pub fn renumber_fragments(&mut self, position: impl Fn(usize) -> Option<usize>) {
        for step in &mut self.steps {
            if let StepLabel::Fragment(i) | StepLabel::SeededFragment(i) = &mut step.label {
                if let Some(p) = position(*i) {
                    *i = p;
                }
            }
        }
    }

    /// Total rows emitted by scans.
    pub fn rows_scanned(&self) -> usize {
        self.steps
            .iter()
            .filter(|step| matches!(step.label, StepLabel::Scan(_) | StepLabel::RangeScan(_)))
            .map(|step| step.rows)
            .sum()
    }

    /// Largest intermediate relation observed.
    pub fn peak_intermediate(&self) -> usize {
        self.steps.iter().map(|step| step.rows).max().unwrap_or(0)
    }
}

/// Scan one triple pattern into a relation whose columns are the atom's
/// distinct variables in `s, p, o` position order. Constants and id
/// intervals constrain the index scan (intervals bind no column); repeated
/// variables become equality filters. The atom's access reads its matching
/// index runs, borrowed from the store, and projects them in order.
pub fn scan_atom(store: &Store, atom: &Atom) -> Relation {
    let (access, columns) = Access::bind(&[], atom);
    let mut out = Relation::empty(columns);
    access.runs(store, &access.key(&[]), Pos::START, &mut |run| {
        access.emit(run, &[], &mut out)
    });
    out
}

/// Bind join of `atom` to the rows of `acc` (an index nested-loop join):
/// each row fills the atom's probe key from its bound columns, and gets
/// every match appended (row ++ the atom's other variables).
///
/// The rows are visited in ascending key order (`Access::probe_order`),
/// so each probe gallops forward through the index from where the previous
/// one began instead of searching from the root, and rows with equal keys
/// are adjacent: the first reads the index, the rest copy its matches.
/// Output rows come in key order. Counts one `op.bind_join.probes` per
/// index read, that is per distinct key.
pub fn bind_join(store: &Store, acc: &Relation, atom: &Atom, obs: &Obs) -> Relation {
    let (access, new_columns) = Access::bind(acc.columns(), atom);
    let mut columns = acc.columns().to_vec();
    columns.extend(new_columns);
    let mut out = Relation::empty(columns);
    let mut from = Pos::START;
    let mut probes = 0u64;
    let mut last: Option<([TermId; 3], Range<usize>)> = None;
    for i in access.probe_order(acc) {
        let row = acc.row(i);
        let key = access.key(row);
        match &last {
            Some((same, matches)) if *same == key => out.repeat_rows(matches.clone(), row),
            _ => {
                let begin = out.len();
                let start = access.runs(store, &key, from, &mut |run| {
                    access.emit(run, row, &mut out)
                });
                // The forward-only contract the gallop relies on: the keys
                // ascend, and each probe's keys begin (where a search from
                // the root lands) at or after the previous probe's.
                #[cfg(feature = "strict-invariants")]
                {
                    debug_assert!(
                        last.as_ref().is_none_or(|(prev, _)| *prev < key),
                        "bind-join probe keys do not ascend: {last:?} then {key:?}"
                    );
                    let root = access.runs(store, &key, Pos::START, &mut |_| {});
                    debug_assert!(
                        from <= root && start == root,
                        "probe {key:?} searched forward from {from:?}, past its keys at {root:?}"
                    );
                }
                from = start;
                probes += 1;
                last = Some((key, begin..out.len()));
            }
        }
    }
    obs.add("op.bind_join.probes", probes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use rdfref_model::{Dictionary, EncodedTriple, Term, TermId};
    use rdfref_query::Var;

    fn v(n: &str) -> Var {
        Var::new(n)
    }

    fn fixture() -> (Store, Vec<TermId>) {
        let mut d = Dictionary::new();
        let ids: Vec<TermId> = ["a", "b", "p"]
            .iter()
            .map(|n| d.intern(&Term::iri(*n)))
            .collect();
        let (a, b, p) = (ids[0], ids[1], ids[2]);
        let store = Store::from_triples(&[
            EncodedTriple::new(a, p, b),
            EncodedTriple::new(a, p, a), // self-loop
            EncodedTriple::new(b, p, a),
        ]);
        (store, ids)
    }

    #[test]
    fn scan_binds_variables_in_position_order() {
        let (store, ids) = fixture();
        let rel = scan_atom(&store, &Atom::new(v("x"), ids[2], v("y")));
        assert_eq!(rel.columns(), &[v("x"), v("y")]);
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn scan_with_constant_filters() {
        let (store, ids) = fixture();
        let rel = scan_atom(&store, &Atom::new(ids[0], ids[2], v("y")));
        assert_eq!(rel.columns(), &[v("y")]);
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn repeated_variable_is_equality_filter() {
        let (store, ids) = fixture();
        // (?x p ?x) matches only the self-loop.
        let rel = scan_atom(&store, &Atom::new(v("x"), ids[2], v("x")));
        assert_eq!(rel.columns(), &[v("x")]);
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.row(0), &[ids[0]]);
    }

    #[test]
    fn all_constant_atom_yields_zero_column_rows() {
        let (store, ids) = fixture();
        let rel = scan_atom(&store, &Atom::new(ids[0], ids[2], ids[1]));
        assert_eq!(rel.arity(), 0);
        assert_eq!(rel.len(), 1); // matched: acts as a "true" unit row
        let rel2 = scan_atom(&store, &Atom::new(ids[1], ids[2], ids[1]));
        assert!(rel2.is_empty()); // no match: "false"
    }

    #[test]
    fn variable_property_scans_everything() {
        let (store, _) = fixture();
        let rel = scan_atom(&store, &Atom::new(v("s"), v("p"), v("o")));
        assert_eq!(rel.arity(), 3);
        assert_eq!(rel.len(), 3);
    }

    /// `acc` holds `b` twice, not next to each other, and a key no triple
    /// has: the probes visit `a`, `b`, `c` once each, in key order, and the
    /// second `b` copies the first one's matches.
    #[test]
    fn a_bind_join_reads_the_index_once_per_distinct_key_in_key_order() {
        let (store, ids) = fixture();
        let (a, b, p) = (ids[0], ids[1], ids[2]);
        let c = TermId(a.0.max(b.0).max(p.0) + 1);
        let mut acc = Relation::empty(vec![v("x"), v("n")]);
        for (x, n) in [(b, 0), (c, 1), (a, 2), (b, 3)] {
            acc.push_row(&[x, TermId(n)]).unwrap();
        }
        let registry = std::sync::Arc::new(rdfref_obs::MetricsRegistry::default());
        let atom = Atom::new(v("x"), p, v("y"));
        let joined = bind_join(&store, &acc, &atom, &Obs::collecting(registry.clone()));
        assert_eq!(registry.snapshot().counter("op.bind_join.probes"), 3);
        assert_eq!(joined.columns(), &[v("x"), v("n"), v("y")]);
        let n = TermId;
        assert_eq!(
            joined.to_rows(),
            vec![
                vec![a, n(2), a],
                vec![a, n(2), b],
                vec![b, n(0), a],
                vec![b, n(3), a],
            ]
        );
        let mut want = acc.natural_join(&scan_atom(&store, &atom));
        let mut got = joined;
        want.sort();
        got.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn metrics_aggregate() {
        let mut m = ExecMetrics::default();
        m.record(StepLabel::Scan(1), 10, Duration::ZERO);
        m.record(StepLabel::Join, 50, Duration::ZERO);
        m.record(StepLabel::RangeScan(2), 7, Duration::ZERO);
        m.record(StepLabel::Join, 100, Duration::ZERO);
        assert_eq!(m.rows_scanned(), 17);
        assert_eq!(m.peak_intermediate(), 100);
        assert_eq!(m.steps.len(), 4);
    }
}
