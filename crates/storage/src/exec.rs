//! Physical operators: pattern scans and execution metrics.
//!
//! Joins and projections live on [`Relation`];
//! this module contributes the store-facing scan operator and the metrics
//! the experiments report (intermediate result sizes — the quantities the
//! paper quotes for Example 1, e.g. "33,328,108 results each").

use crate::error::Result;
use crate::evaluator::JoinAlgorithm;
use crate::morsel;
use crate::relation::Relation;
use crate::store::Store;
use crate::wcoj::PhysicalChoice;
use rdfref_obs::Obs;
use rdfref_query::ast::Atom;
use std::fmt;
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
/// user's query.
#[derive(Debug, Clone, Default)]
pub struct Dispatched {
    /// CQ bodies run as bind-join / hash-join chains.
    pub bind_join_cqs: usize,
    /// CQ bodies run by the leapfrog triejoin.
    pub wcoj_cqs: usize,
    /// The arbitration behind the tally: that of the first CQ run by WCOJ
    /// if any was, else of the first CQ arbitrated at all. `None` when bind
    /// join was requested outright (nothing is arbitrated).
    pub choice: Option<PhysicalChoice>,
}

/// Execution metrics: per-operator row counts and aggregates.
#[derive(Debug, Clone, Default)]
pub struct ExecMetrics {
    /// Ordered operator trace.
    pub steps: Vec<ExecStep>,
    /// Total rows emitted by scans.
    pub rows_scanned: usize,
    /// Largest intermediate relation observed.
    pub peak_intermediate: usize,
    /// The join operators that actually ran.
    pub dispatched: Dispatched,
}

impl ExecMetrics {
    /// Record an operator's output size and wall time; a scan's rows also
    /// count in `rows_scanned`.
    pub fn record(&mut self, label: StepLabel, rows: usize, wall: Duration) {
        if let StepLabel::Scan(_) | StepLabel::RangeScan(_) = label {
            self.rows_scanned += rows;
        }
        self.steps.push(ExecStep { label, rows, wall });
        self.peak_intermediate = self.peak_intermediate.max(rows);
    }

    /// Record which operator ran one CQ body (`choice` = its arbitration,
    /// if one took place).
    pub(crate) fn record_dispatch(&mut self, wcoj: bool, choice: Option<PhysicalChoice>) {
        if wcoj {
            self.dispatched.wcoj_cqs += 1;
        } else {
            self.dispatched.bind_join_cqs += 1;
        }
        self.dispatched.prefer(choice);
    }
}

impl Dispatched {
    /// Keep the first WCOJ arbitration seen, else the first of any kind.
    fn prefer(&mut self, choice: Option<PhysicalChoice>) {
        let is_wcoj = |c: &PhysicalChoice| c.algorithm == JoinAlgorithm::Wcoj;
        if let Some(new) = choice {
            if self
                .choice
                .as_ref()
                .is_none_or(|old| is_wcoj(&new) && !is_wcoj(old))
            {
                self.choice = Some(new);
            }
        }
    }
}

/// Scan one triple pattern into a relation whose columns are the atom's
/// distinct variables in `s, p, o` position order. Constants and id
/// intervals constrain the index scan (intervals bind no column); repeated
/// variables become equality filters. One morsel: the whole scan.
pub fn scan_atom(store: &Store, atom: &Atom) -> Result<Relation> {
    morsel::scan_atom_morsels(store, atom, morsel::UNSPLIT, &Obs::disabled())
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
        let rel = scan_atom(&store, &Atom::new(v("x"), ids[2], v("y"))).unwrap();
        assert_eq!(rel.columns(), &[v("x"), v("y")]);
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn scan_with_constant_filters() {
        let (store, ids) = fixture();
        let rel = scan_atom(&store, &Atom::new(ids[0], ids[2], v("y"))).unwrap();
        assert_eq!(rel.columns(), &[v("y")]);
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn repeated_variable_is_equality_filter() {
        let (store, ids) = fixture();
        // (?x p ?x) matches only the self-loop.
        let rel = scan_atom(&store, &Atom::new(v("x"), ids[2], v("x"))).unwrap();
        assert_eq!(rel.columns(), &[v("x")]);
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.row(0), &[ids[0]]);
    }

    #[test]
    fn all_constant_atom_yields_zero_column_rows() {
        let (store, ids) = fixture();
        let rel = scan_atom(&store, &Atom::new(ids[0], ids[2], ids[1])).unwrap();
        assert_eq!(rel.arity(), 0);
        assert_eq!(rel.len(), 1); // matched: acts as a "true" unit row
        let rel2 = scan_atom(&store, &Atom::new(ids[1], ids[2], ids[1])).unwrap();
        assert!(rel2.is_empty()); // no match: "false"
    }

    #[test]
    fn variable_property_scans_everything() {
        let (store, _) = fixture();
        let rel = scan_atom(&store, &Atom::new(v("s"), v("p"), v("o"))).unwrap();
        assert_eq!(rel.arity(), 3);
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn metrics_aggregate() {
        let mut m = ExecMetrics::default();
        m.record(StepLabel::Scan(1), 10, Duration::ZERO);
        m.record(StepLabel::Join, 50, Duration::ZERO);
        m.record(StepLabel::RangeScan(2), 7, Duration::ZERO);
        m.record(StepLabel::Join, 100, Duration::ZERO);
        assert_eq!(m.rows_scanned, 17);
        assert_eq!(m.peak_intermediate, 100);
        assert_eq!(m.steps.len(), 4);
    }
}
