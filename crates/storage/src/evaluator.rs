//! Evaluation of CQs, UCQs and JUCQs against a store.
//!
//! Mirrors how the demo's RDBMS back-ends evaluate reformulations:
//! * a CQ runs as a left-deep chain of hash joins over index scans, in the
//!   greedy order chosen by the cost model (so estimates model the actual
//!   plan);
//! * a UCQ is the deduplicated union of its disjuncts;
//! * a JUCQ joins its fragments' UCQ results on shared column names and
//!   projects the query head — the "query answering strategy" induced by a
//!   cover (§4).
//!
//! All evaluations are guarded by an optional *row budget*: exceeding it
//! aborts with [`StorageError::RowBudgetExceeded`], reproducing the paper's
//! "could not be evaluated in our experimental setting" outcome for
//! pathological reformulations.

use crate::cost::CostModel;
use crate::error::{Result, StorageError};
use crate::exec::{ExecMetrics, StepLabel};
use crate::morsel;
use crate::relation::{ColumnSource, Relation};
use crate::stats::Stats;
use crate::store::Store;
use rdfref_model::TermId;
use rdfref_obs::Obs;
use rdfref_query::ast::{Atom, Cq, Jucq, PTerm, Ucq};
use rdfref_query::Var;
use std::time::Duration;

/// Default morsel size for [`Parallelism::Morsels`]: large enough to
/// amortize scheduling, small enough that skewed scans still split into
/// many work units.
pub const DEFAULT_MORSEL_SIZE: usize = 4096;

/// Intra-query parallelism policy: how scans, bind joins and leapfrog
/// joins cut their input into morsels.
///
/// * `Off` — the whole input is one morsel, run on the calling thread (the
///   default); no `op.morsel.*` counter is reported.
/// * `Morsels { size }` — `size`-row morsels; two or more are claimed off a
///   shared counter by a worker pool (work-stealing self-scheduling), and
///   output order is preserved by stitching partial buffers back in morsel
///   order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Parallelism {
    /// One morsel per operator, run sequentially.
    #[default]
    Off,
    /// Morsel-driven parallel scans, bind joins and leapfrog joins.
    Morsels {
        /// Rows per morsel (clamped to at least 1).
        size: usize,
    },
}

impl Parallelism {
    /// Morsel-driven parallelism with the default morsel size.
    pub fn morsels() -> Self {
        Parallelism::Morsels {
            size: DEFAULT_MORSEL_SIZE,
        }
    }

    /// The morsel size operators run with: [`morsel::UNSPLIT`] (one
    /// morsel) for `Off`, `size` clamped to at least 1 for `Morsels`.
    pub(crate) fn morsel_size(self) -> usize {
        match self {
            Parallelism::Off => morsel::UNSPLIT,
            Parallelism::Morsels { size } => size.max(1),
        }
    }
}

/// Physical join algorithm policy for CQ bodies.
///
/// * `BindJoin` — the classic left-deep chain of index-nested-loop /
///   hash joins (the default; what the paper's RDBMS back-ends run).
/// * `Wcoj` — the worst-case-optimal leapfrog triejoin of
///   [`crate::wcoj`]; falls back to bind join per-CQ when no feasible
///   trie binding exists (repeated-variable atoms).
/// * `Auto` — the cost model picks per CQ: WCOJ for cyclic and big-star
///   bodies, bind join otherwise
///   ([`crate::cost::CostModel::choose_join_algorithm`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum JoinAlgorithm {
    /// Left-deep bind-join / hash-join chains (the classic evaluator).
    #[default]
    BindJoin,
    /// Worst-case-optimal leapfrog triejoin over the permutation indexes.
    Wcoj,
    /// Cost-model choice per CQ body.
    Auto,
}

/// The evaluation engine: a store, its statistics, and execution limits.
#[derive(Debug, Clone)]
pub struct Evaluator<'a> {
    /// The store to evaluate against.
    pub store: &'a Store,
    /// Statistics driving join ordering.
    pub stats: &'a Stats,
    /// Abort when any intermediate relation exceeds this many rows.
    pub row_budget: Option<usize>,
    /// Intra-query parallelism policy.
    pub parallelism: Parallelism,
    /// Physical join algorithm policy.
    pub join_algorithm: JoinAlgorithm,
    /// Observability sink; disabled by default (one branch per event).
    pub obs: Obs,
}

impl<'a> Evaluator<'a> {
    /// A sequential evaluator without a row budget.
    pub fn new(store: &'a Store, stats: &'a Stats) -> Self {
        Evaluator {
            store,
            stats,
            row_budget: None,
            parallelism: Parallelism::Off,
            join_algorithm: JoinAlgorithm::BindJoin,
            obs: Obs::disabled(),
        }
    }

    /// Same evaluator, recording into `obs`.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Record one operator step: into `metrics`, and into the `op.*`
    /// counters its label names.
    fn step(&self, metrics: &mut ExecMetrics, label: StepLabel, rows: usize, wall: Duration) {
        metrics.record(label, rows, wall);
        let (count, rows_counter) = label.counters();
        if let Some(name) = count {
            self.obs.add(name, 1);
        }
        if let Some(name) = rows_counter {
            self.obs.add(name, rows as u64);
        }
    }

    /// Scan atom `idx` of a body: an interval atom is a range scan (its own
    /// `op.range_scan.*` counters and trace label).
    fn scan(&self, atom: &Atom, idx: usize, metrics: &mut ExecMetrics) -> Result<Relation> {
        let size = self.parallelism.morsel_size();
        let sw = self.obs.stopwatch();
        let scanned = morsel::scan_atom_morsels(self.store, atom, size, &self.obs)?;
        let label = if atom.has_range() {
            StepLabel::RangeScan(idx + 1)
        } else {
            StepLabel::Scan(idx + 1)
        };
        self.step(metrics, label, scanned.len(), sw.elapsed());
        self.check_budget(scanned.len())?;
        Ok(scanned)
    }

    fn check_budget(&self, rows: usize) -> Result<()> {
        match self.row_budget {
            Some(budget) if rows > budget => {
                self.obs.add("op.budget_abort", 1);
                Err(StorageError::RowBudgetExceeded { budget })
            }
            _ => Ok(()),
        }
    }

    /// Evaluate a CQ, naming the output columns `out` (aligned with the CQ
    /// head, which may contain bound constants). Output is deduplicated
    /// (set semantics).
    ///
    /// Atoms join in the cost model's greedy order. Each join is executed
    /// either as *scan + hash join* or — when the accumulated relation is
    /// small compared to the atom's estimated cardinality and shares a
    /// variable with it — as an *index nested-loop (bind) join* that probes
    /// the store per accumulated row. Bind joins are what make grouped
    /// covers efficient: the paper's `(t1,t3)` fragment probes the huge
    /// `rdf:type` relation only for the few degree-holders instead of
    /// scanning it (33,328,108 rows in the paper's setting).
    pub fn eval_cq(&self, cq: &Cq, out: &[Var], metrics: &mut ExecMetrics) -> Result<Relation> {
        if out.len() != cq.head.len() {
            return Err(StorageError::HeadMismatch {
                head: cq.head.len(),
                columns: out.len(),
            });
        }
        let _span = self.obs.span("eval.cq");
        let model = CostModel::new(self.stats);
        let mut acc = Relation::unit();
        // Physical dispatch: the arbitration in `wcoj::physical_choice`
        // decides, and what actually ran is tallied in
        // `metrics.dispatched` for `Explain` to render. A `BindJoin`
        // verdict (requested, cost-model, or fallback) takes the classic
        // chain below.
        let mut wcoj_done = false;
        if !cq.body.is_empty() {
            let choice = (self.join_algorithm != JoinAlgorithm::BindJoin)
                .then(|| crate::wcoj::physical_choice(self.stats, self.join_algorithm, &cq.body));
            if let Some(plan) = choice.as_ref().and_then(|c| c.plan.as_ref()) {
                let sw = self.obs.stopwatch();
                acc = crate::wcoj::eval(
                    self.store,
                    plan,
                    self.parallelism,
                    self.row_budget,
                    &self.obs,
                )?;
                let label = StepLabel::Lfj(plan.atom_count());
                self.step(metrics, label, acc.len(), sw.elapsed());
                wcoj_done = true;
            }
            metrics.record_dispatch(wcoj_done, choice);
        }
        if wcoj_done && acc.is_empty() {
            self.step(metrics, StepLabel::ProjectDedup, 0, Duration::ZERO);
            return Ok(Relation::empty(out.to_vec()));
        }
        let mut first = true;
        for &idx in &model.order_atoms(&cq.body) {
            if wcoj_done {
                break;
            }
            let atom = &cq.body[idx];
            if first {
                acc = self.scan(atom, idx, metrics)?;
                first = false;
            } else {
                acc = self.join_atom(&acc, atom, idx, metrics)?;
            }
            if acc.is_empty() {
                // Annihilated: the result is empty regardless of the
                // remaining atoms (whose columns were never materialized).
                self.step(metrics, StepLabel::ProjectDedup, 0, Duration::ZERO);
                return Ok(Relation::empty(out.to_vec()));
            }
        }

        // Build the output relation from the head.
        if cq.body.is_empty() {
            // Degenerate constant-only query over an empty body: one row.
            let consts: Option<Vec<TermId>> = cq.head.iter().map(|t| t.as_const()).collect();
            if let Some(row) = consts {
                let mut result = Relation::empty(out.to_vec());
                result.push_row(&row)?;
                return Ok(result);
            }
        }
        let sources: Vec<ColumnSource> = cq
            .head
            .iter()
            .map(|t| match t {
                PTerm::Const(c) => Ok(ColumnSource::Const(*c)),
                // Reformulation binds head variables to constants only;
                // an interval can never reach a head position.
                PTerm::Range(..) => Err(StorageError::UnknownColumn("[range]".to_string())),
                PTerm::Var(v) => acc
                    .column_index(v)
                    .map(ColumnSource::Column)
                    .ok_or_else(|| StorageError::UnknownColumn(v.name().to_string())),
            })
            .collect::<Result<_>>()?;
        let mut result = acc.select(out.to_vec(), &sources);
        result.dedup();
        self.step(
            metrics,
            StepLabel::ProjectDedup,
            result.len(),
            Duration::ZERO,
        );
        Ok(result)
    }

    /// One step of a CQ's join chain: `acc` joined with `atom` over the
    /// store, checked against the row budget. When `acc` shares a variable
    /// with `atom` and is small next to the atom's estimated cardinality,
    /// this is a *bind join* that probes the store once per `acc` row;
    /// otherwise the atom is scanned and hash-joined. `idx` is the atom's
    /// position in its body, for the step labels.
    pub fn join_atom(
        &self,
        acc: &Relation,
        atom: &Atom,
        idx: usize,
        metrics: &mut ExecMetrics,
    ) -> Result<Relation> {
        let model = CostModel::new(self.stats);
        let size = self.parallelism.morsel_size();
        let shares = atom.vars().any(|v| acc.column_index(v).is_some());
        let joined = if shares
            && (acc.len() as f64) * model.params.probe_cost_per_row < model.atom_cardinality(atom)
        {
            let sw = self.obs.stopwatch();
            let joined = morsel::bind_join_morsels(self.store, acc, atom, size, &self.obs)?;
            self.step(
                metrics,
                StepLabel::BindJoin(idx + 1),
                joined.len(),
                sw.elapsed(),
            );
            joined
        } else {
            let scanned = self.scan(atom, idx, metrics)?;
            let sw = self.obs.stopwatch();
            let joined = acc.natural_join(&scanned);
            self.step(metrics, StepLabel::Join, joined.len(), sw.elapsed());
            joined
        };
        self.check_budget(joined.len())?;
        Ok(joined)
    }

    /// Evaluate a UCQ as the deduplicated union of its disjuncts.
    pub fn eval_ucq(&self, ucq: &Ucq, out: &[Var], metrics: &mut ExecMetrics) -> Result<Relation> {
        let _span = self.obs.span("eval.ucq");
        let mut cqs = ucq.cqs.iter();
        let mut union = match cqs.next() {
            Some(cq) => self.eval_cq(cq, out, metrics)?,
            None => Relation::empty(out.to_vec()),
        };
        self.check_budget(union.len())?;
        for cq in cqs {
            union.absorb_rows(&self.eval_cq(cq, out, metrics)?)?;
            self.check_budget(union.len())?;
        }
        // One disjunct is already a set: `eval_cq` deduplicates.
        if ucq.cqs.len() > 1 {
            union.dedup();
        }
        self.step(metrics, StepLabel::UnionDedup, union.len(), Duration::ZERO);
        Ok(union)
    }

    /// Evaluate a JUCQ: fragments joined on shared column names, projected
    /// on the head, deduplicated.
    pub fn eval_jucq(&self, jucq: &Jucq, metrics: &mut ExecMetrics) -> Result<Relation> {
        let _span = self.obs.span("eval.jucq");
        let mut frag_rels: Vec<Relation> = Vec::with_capacity(jucq.fragments.len());
        for (i, frag) in jucq.fragments.iter().enumerate() {
            let rel = self.eval_ucq(&frag.ucq, &frag.columns, metrics)?;
            self.step(metrics, StepLabel::Fragment(i), rel.len(), Duration::ZERO);
            frag_rels.push(rel);
        }
        if frag_rels.is_empty() {
            return Ok(Relation::empty(jucq.head.clone()));
        }

        // Join order: smallest first, preferring fragments that share a
        // column with the accumulated result (avoids cross products).
        let mut order: Vec<usize> = (0..frag_rels.len()).collect();
        order.sort_by_key(|&i| frag_rels[i].len());
        let mut remaining = order;
        let first = remaining.remove(0);
        let mut acc = std::mem::replace(&mut frag_rels[first], Relation::empty(Vec::new()));
        while !remaining.is_empty() {
            let pos = remaining
                .iter()
                .position(|&i| {
                    frag_rels[i]
                        .columns()
                        .iter()
                        .any(|c| acc.column_index(c).is_some())
                })
                .unwrap_or(0);
            let idx = remaining.remove(pos);
            acc = acc.natural_join(&frag_rels[idx]);
            self.step(metrics, StepLabel::FragmentJoin, acc.len(), Duration::ZERO);
            self.check_budget(acc.len())?;
            if acc.is_empty() {
                self.step(metrics, StepLabel::ProjectDedup, 0, Duration::ZERO);
                return Ok(Relation::empty(jucq.head.clone()));
            }
        }
        // Fragments are sets, and a natural join keeps every column of both
        // sides, so `acc` is a set: only a projection that drops a column
        // (one no head variable selects) can make two rows equal.
        let drops_a_column = acc
            .columns()
            .iter()
            .enumerate()
            .any(|(i, c)| acc.column_index(c) != Some(i) || !jucq.head.contains(c));
        let mut result = if acc.columns() == jucq.head.as_slice() {
            acc
        } else {
            acc.project(&jucq.head)?
        };
        if drops_a_column {
            result.dedup();
        }
        self.step(
            metrics,
            StepLabel::ProjectDedup,
            result.len(),
            Duration::ZERO,
        );
        Ok(result)
    }
}

/// Convenience: evaluate a CQ whose head is all variables.
pub fn eval_cq(store: &Store, stats: &Stats, cq: &Cq) -> Result<(Relation, ExecMetrics)> {
    let out = head_names(cq);
    let mut metrics = ExecMetrics::default();
    let rel = Evaluator::new(store, stats).eval_cq(cq, &out, &mut metrics)?;
    Ok((rel, metrics))
}

/// Convenience: evaluate a UCQ using the first member's head names.
pub fn eval_ucq(store: &Store, stats: &Stats, ucq: &Ucq) -> Result<(Relation, ExecMetrics)> {
    let out = ucq.cqs.first().map(head_names).unwrap_or_default();
    let mut metrics = ExecMetrics::default();
    let rel = Evaluator::new(store, stats).eval_ucq(ucq, &out, &mut metrics)?;
    Ok((rel, metrics))
}

/// Convenience: evaluate a JUCQ.
pub fn eval_jucq(store: &Store, stats: &Stats, jucq: &Jucq) -> Result<(Relation, ExecMetrics)> {
    let mut metrics = ExecMetrics::default();
    let rel = Evaluator::new(store, stats).eval_jucq(jucq, &mut metrics)?;
    Ok((rel, metrics))
}

/// Column names for a CQ head: variables keep their names; bound constant
/// positions get synthetic `_col{i}` names.
pub fn head_names(cq: &Cq) -> Vec<Var> {
    cq.head
        .iter()
        .enumerate()
        .map(|(i, t)| match t {
            PTerm::Var(v) => v.clone(),
            PTerm::Const(_) | PTerm::Range(..) => Var::new(format!("_col{i}")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use rdfref_model::dictionary::ID_RDF_TYPE;
    use rdfref_model::{Dictionary, EncodedTriple, Term};
    use rdfref_query::ast::{Atom, Fragment};

    fn v(n: &str) -> Var {
        Var::new(n)
    }

    /// Store: a small social graph.
    /// knows: a→b, b→c, a→c; type: a:Person, b:Person, c:Robot.
    fn fixture() -> (Store, Stats, Vec<TermId>) {
        let mut d = Dictionary::new();
        let ids: Vec<TermId> = ["a", "b", "c", "knows", "Person", "Robot"]
            .iter()
            .map(|n| d.intern(&Term::iri(*n)))
            .collect();
        let (a, b, c, knows, person, robot) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        let store = Store::from_triples(&[
            EncodedTriple::new(a, knows, b),
            EncodedTriple::new(b, knows, c),
            EncodedTriple::new(a, knows, c),
            EncodedTriple::new(a, ID_RDF_TYPE, person),
            EncodedTriple::new(b, ID_RDF_TYPE, person),
            EncodedTriple::new(c, ID_RDF_TYPE, robot),
        ]);
        let stats = Stats::compute(&store);
        (store, stats, ids)
    }

    #[test]
    fn single_atom_cq() {
        let (store, stats, ids) = fixture();
        let cq = Cq::new(
            vec![v("x"), v("y")],
            vec![Atom::new(v("x"), ids[3], v("y"))],
        )
        .unwrap();
        let (rel, metrics) = eval_cq(&store, &stats, &cq).unwrap();
        assert_eq!(rel.len(), 3);
        assert_eq!(metrics.rows_scanned, 3);
    }

    #[test]
    fn two_atom_join() {
        let (store, stats, ids) = fixture();
        // Who does a person know? q(x,y) :- (x knows y), (x type Person)
        let cq = Cq::new(
            vec![v("x"), v("y")],
            vec![
                Atom::new(v("x"), ids[3], v("y")),
                Atom::new(v("x"), ID_RDF_TYPE, ids[4]),
            ],
        )
        .unwrap();
        let (rel, _) = eval_cq(&store, &stats, &cq).unwrap();
        assert_eq!(rel.len(), 3); // a→b, a→c, b→c (a and b are persons)
    }

    #[test]
    fn triangle_join_projection() {
        let (store, stats, ids) = fixture();
        // q(x) :- (x knows y), (y knows z), (x knows z): only x=a works.
        let cq = Cq::new(
            vec![v("x")],
            vec![
                Atom::new(v("x"), ids[3], v("y")),
                Atom::new(v("y"), ids[3], v("z")),
                Atom::new(v("x"), ids[3], v("z")),
            ],
        )
        .unwrap();
        let (rel, _) = eval_cq(&store, &stats, &cq).unwrap();
        assert_eq!(rel.to_rows(), vec![vec![ids[0]]]);
    }

    #[test]
    fn forced_wcoj_matches_bind_join() {
        let (store, stats, ids) = fixture();
        let bodies = vec![
            // triangle
            vec![
                Atom::new(v("x"), ids[3], v("y")),
                Atom::new(v("y"), ids[3], v("z")),
                Atom::new(v("x"), ids[3], v("z")),
            ],
            // chain + type filter
            vec![
                Atom::new(v("x"), ids[3], v("y")),
                Atom::new(v("x"), ID_RDF_TYPE, ids[4]),
            ],
            // single atom
            vec![Atom::new(v("x"), ids[3], v("y"))],
        ];
        for body in bodies {
            let head: Vec<Var> = vec![v("x")];
            let cq = Cq::new(head.clone(), body).unwrap();
            let mut m1 = ExecMetrics::default();
            let base = Evaluator::new(&store, &stats)
                .eval_cq(&cq, &head, &mut m1)
                .unwrap();
            for algo in [JoinAlgorithm::Wcoj, JoinAlgorithm::Auto] {
                let mut ev = Evaluator::new(&store, &stats);
                ev.join_algorithm = algo;
                let mut m2 = ExecMetrics::default();
                let got = ev.eval_cq(&cq, &head, &mut m2).unwrap();
                let mut a = base.to_rows();
                let mut b = got.to_rows();
                a.sort();
                b.sort();
                assert_eq!(a, b, "{algo:?}");
            }
        }
    }

    #[test]
    fn wcoj_dispatch_records_lfj_step_and_counters() {
        let (store, stats, ids) = fixture();
        let cq = Cq::new(
            vec![v("x")],
            vec![
                Atom::new(v("x"), ids[3], v("y")),
                Atom::new(v("y"), ids[3], v("z")),
                Atom::new(v("x"), ids[3], v("z")),
            ],
        )
        .unwrap();
        let registry = std::sync::Arc::new(rdfref_obs::MetricsRegistry::default());
        let mut ev = Evaluator::new(&store, &stats).with_obs(Obs::collecting(registry.clone()));
        ev.join_algorithm = JoinAlgorithm::Wcoj;
        let mut m = ExecMetrics::default();
        let rel = ev.eval_cq(&cq, &[v("x")], &mut m).unwrap();
        assert_eq!(rel.to_rows(), vec![vec![ids[0]]]);
        assert!(m.steps.iter().any(|s| s.label == StepLabel::Lfj(3)));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("op.lfj.atoms"), 3);
        assert!(snap.counter("op.lfj.seeks") > 0);
        assert_eq!(snap.counter("op.lfj.rows"), 1);
    }

    #[test]
    fn join_algorithm_default_is_bind_join() {
        let (store, stats, _) = fixture();
        let ev = Evaluator::new(&store, &stats);
        assert_eq!(ev.join_algorithm, JoinAlgorithm::BindJoin);
        assert_eq!(JoinAlgorithm::default(), JoinAlgorithm::BindJoin);
    }

    #[test]
    fn bound_head_constant_emitted() {
        let (store, stats, ids) = fixture();
        // Reformulation-style CQ: q(x, Person) :- (x type Person).
        let cq = Cq::new_unchecked(
            vec![PTerm::Var(v("x")), PTerm::Const(ids[4])],
            vec![Atom::new(v("x"), ID_RDF_TYPE, ids[4])],
        );
        let out = vec![v("x"), v("u")];
        let mut m = ExecMetrics::default();
        let rel = Evaluator::new(&store, &stats)
            .eval_cq(&cq, &out, &mut m)
            .unwrap();
        assert_eq!(rel.len(), 2);
        for row in rel.rows() {
            assert_eq!(row[1], ids[4]);
        }
    }

    #[test]
    fn ucq_union_dedups_across_members() {
        let (store, stats, ids) = fixture();
        let knows_x = Cq::new(vec![v("x")], vec![Atom::new(v("x"), ids[3], v("y"))]).unwrap();
        let person_x = Cq::new(vec![v("x")], vec![Atom::new(v("x"), ID_RDF_TYPE, ids[4])]).unwrap();
        let ucq = Ucq::new(vec![knows_x, person_x]).unwrap();
        let (rel, _) = eval_ucq(&store, &stats, &ucq).unwrap();
        // knowers {a, b} ∪ persons {a, b} = {a, b}.
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn jucq_matches_monolithic_cq() {
        let (store, stats, ids) = fixture();
        // q(x, y) :- (x knows y), (y type Person)
        let whole = Cq::new(
            vec![v("x"), v("y")],
            vec![
                Atom::new(v("x"), ids[3], v("y")),
                Atom::new(v("y"), ID_RDF_TYPE, ids[4]),
            ],
        )
        .unwrap();
        let (expected, _) = eval_cq(&store, &stats, &whole).unwrap();

        // Same query as a two-fragment JUCQ.
        let f0 = Fragment::new(
            vec![v("x"), v("y")],
            Ucq::single(
                Cq::new(
                    vec![v("x"), v("y")],
                    vec![Atom::new(v("x"), ids[3], v("y"))],
                )
                .unwrap(),
            ),
        )
        .unwrap();
        let f1 = Fragment::new(
            vec![v("y")],
            Ucq::single(
                Cq::new(vec![v("y")], vec![Atom::new(v("y"), ID_RDF_TYPE, ids[4])]).unwrap(),
            ),
        )
        .unwrap();
        let jucq = Jucq::new(vec![v("x"), v("y")], vec![f0, f1]).unwrap();
        let (got, _) = eval_jucq(&store, &stats, &jucq).unwrap();

        let mut e = expected.clone();
        let mut g = got.clone();
        e.sort();
        g.sort();
        assert_eq!(e.to_rows(), g.to_rows());
    }

    /// `rel` is exactly what a forced extra `dedup()` would leave.
    fn assert_set(rel: &Relation) {
        let mut forced = rel.clone();
        forced.dedup();
        assert_eq!(&forced, rel, "the skipped dedup would have removed a row");
    }

    #[test]
    fn one_disjunct_union_is_its_cq_without_a_second_dedup() {
        let (store, stats, ids) = fixture();
        // q(x) :- x knows y: `a` knows two, so the projection deduplicates.
        let cq = Cq::new(vec![v("x")], vec![Atom::new(v("x"), ids[3], v("y"))]).unwrap();
        let out = [v("x")];
        let ev = Evaluator::new(&store, &stats);
        let mut cq_metrics = ExecMetrics::default();
        let alone = ev.eval_cq(&cq, &out, &mut cq_metrics).unwrap();
        let mut metrics = ExecMetrics::default();
        let union = ev.eval_ucq(&Ucq::single(cq), &out, &mut metrics).unwrap();
        assert_set(&union);
        assert_eq!(union, alone);
        assert_eq!(union.to_rows(), vec![vec![ids[0]], vec![ids[1]]]);
        cq_metrics.record(StepLabel::UnionDedup, union.len(), Duration::ZERO);
        assert_eq!(metrics.steps, cq_metrics.steps);
    }

    #[test]
    fn a_join_keeping_every_column_needs_no_dedup() {
        let (store, stats, ids) = fixture();
        // q(x, y) :- (x knows y), (y type Person) as two fragments.
        let f0 = Fragment::new(
            vec![v("x"), v("y")],
            Ucq::single(
                Cq::new(
                    vec![v("x"), v("y")],
                    vec![Atom::new(v("x"), ids[3], v("y"))],
                )
                .unwrap(),
            ),
        )
        .unwrap();
        let f1 = Fragment::new(
            vec![v("y")],
            Ucq::single(
                Cq::new(vec![v("y")], vec![Atom::new(v("y"), ID_RDF_TYPE, ids[4])]).unwrap(),
            ),
        )
        .unwrap();
        let jucq = Jucq::new(vec![v("x"), v("y")], vec![f0, f1]).unwrap();
        let (rel, metrics) = eval_jucq(&store, &stats, &jucq).unwrap();
        assert_set(&rel);
        assert_eq!(rel.to_rows(), vec![vec![ids[0], ids[1]]]);
        let steps: Vec<_> = metrics.steps.iter().map(|s| (s.label, s.rows)).collect();
        assert_eq!(
            steps[steps.len() - 2..],
            [(StepLabel::FragmentJoin, 1), (StepLabel::ProjectDedup, 1)]
        );
    }

    #[test]
    fn a_projection_dropping_the_middle_of_a_path_still_deduplicates() {
        // Two `y`s between the same `(x, z)`: a→b→c and a→d→c.
        let mut d = Dictionary::new();
        let [a, b, c, dd, knows] = ["a", "b", "c", "d", "knows"].map(|n| d.intern(&Term::iri(n)));
        let store = Store::from_triples(&[
            EncodedTriple::new(a, knows, b),
            EncodedTriple::new(a, knows, dd),
            EncodedTriple::new(b, knows, c),
            EncodedTriple::new(dd, knows, c),
        ]);
        let stats = Stats::compute(&store);
        let edge = |from: &str, to: &str| {
            Fragment::new(
                vec![v(from), v(to)],
                Ucq::single(
                    Cq::new(vec![v(from), v(to)], vec![Atom::new(v(from), knows, v(to))]).unwrap(),
                ),
            )
            .unwrap()
        };
        let jucq = Jucq::new(vec![v("x"), v("z")], vec![edge("x", "y"), edge("y", "z")]).unwrap();
        let (rel, metrics) = eval_jucq(&store, &stats, &jucq).unwrap();
        assert_eq!(rel.to_rows(), vec![vec![a, c]]);
        let steps: Vec<_> = metrics.steps.iter().map(|s| (s.label, s.rows)).collect();
        assert_eq!(
            steps[steps.len() - 2..],
            [(StepLabel::FragmentJoin, 2), (StepLabel::ProjectDedup, 1)]
        );
    }

    #[test]
    fn boolean_jucq_fragment() {
        let (store, stats, ids) = fixture();
        // Boolean fragment: is there any Robot? joined with all knowers.
        let knowers = Fragment::new(
            vec![v("x")],
            Ucq::single(Cq::new(vec![v("x")], vec![Atom::new(v("x"), ids[3], v("y"))]).unwrap()),
        )
        .unwrap();
        let any_robot = Fragment::new(
            vec![],
            Ucq::single(Cq::new_unchecked(
                vec![],
                vec![Atom::new(v("z"), ID_RDF_TYPE, ids[5])],
            )),
        )
        .unwrap();
        let jucq = Jucq::new(vec![v("x")], vec![knowers, any_robot]).unwrap();
        let (rel, _) = eval_jucq(&store, &stats, &jucq).unwrap();
        assert_eq!(rel.len(), 2); // {a, b}: robot exists, so identity join
    }

    #[test]
    fn row_budget_aborts() {
        let (store, stats, ids) = fixture();
        let cq = Cq::new(
            vec![v("x"), v("y")],
            vec![Atom::new(v("x"), ids[3], v("y"))],
        )
        .unwrap();
        let mut m = ExecMetrics::default();
        let mut ev = Evaluator::new(&store, &stats);
        ev.row_budget = Some(2);
        let err = ev.eval_cq(&cq, &[v("x"), v("y")], &mut m).unwrap_err();
        assert!(matches!(err, StorageError::RowBudgetExceeded { budget: 2 }));
    }

    #[test]
    fn morsel_evaluation_matches_sequential() {
        // Tiny morsels (size 1) force the maximum number of work units;
        // results and row order must be identical to sequential evaluation
        // for scans, joins, and bind-joins alike.
        let (store, stats, ids) = fixture();
        let queries = vec![
            // Single-atom scan.
            Cq::new(
                vec![v("x"), v("y")],
                vec![Atom::new(v("x"), ids[3], v("y"))],
            )
            .unwrap(),
            // Two-atom join (bind-join or hash-join per cost model).
            Cq::new(
                vec![v("x"), v("y")],
                vec![
                    Atom::new(v("x"), ids[3], v("y")),
                    Atom::new(v("x"), ID_RDF_TYPE, ids[4]),
                ],
            )
            .unwrap(),
            // Triangle: exercises repeated probes.
            Cq::new(
                vec![v("x")],
                vec![
                    Atom::new(v("x"), ids[3], v("y")),
                    Atom::new(v("y"), ids[3], v("z")),
                    Atom::new(v("x"), ids[3], v("z")),
                ],
            )
            .unwrap(),
        ];
        for (size, cq) in [1usize, 2, 4096].iter().flat_map(|s| {
            let qs = &queries;
            qs.iter().map(move |q| (*s, q))
        }) {
            let seq_ev = Evaluator::new(&store, &stats);
            let mut mor_ev = Evaluator::new(&store, &stats);
            mor_ev.parallelism = Parallelism::Morsels { size };
            let out = head_names(cq);
            let mut m1 = ExecMetrics::default();
            let mut m2 = ExecMetrics::default();
            let a = seq_ev.eval_cq(cq, &out, &mut m1).unwrap();
            let b = mor_ev.eval_cq(cq, &out, &mut m2).unwrap();
            // Exact row order must match, not just the set: morsel output
            // is stitched back in morsel order.
            assert_eq!(a.to_rows(), b.to_rows(), "size={size}");
        }
    }

    #[test]
    fn parallelism_default_is_off() {
        assert_eq!(Parallelism::default(), Parallelism::Off);
        assert_eq!(
            Parallelism::morsels(),
            Parallelism::Morsels {
                size: DEFAULT_MORSEL_SIZE
            }
        );
    }

    #[test]
    fn head_mismatch_rejected() {
        let (store, stats, ids) = fixture();
        let cq = Cq::new(vec![v("x")], vec![Atom::new(v("x"), ids[3], v("y"))]).unwrap();
        let mut m = ExecMetrics::default();
        let err = Evaluator::new(&store, &stats)
            .eval_cq(&cq, &[v("x"), v("y")], &mut m)
            .unwrap_err();
        assert!(matches!(err, StorageError::HeadMismatch { .. }));
    }

    #[test]
    fn empty_pattern_no_rows() {
        let (store, stats, _) = fixture();
        // A property id that no triple uses.
        let absent = TermId(9999);
        let cq = Cq::new(vec![v("x")], vec![Atom::new(v("x"), absent, v("y"))]).unwrap();
        let (rel, _) = eval_cq(&store, &stats, &cq).unwrap();
        assert!(rel.is_empty());
    }

    #[test]
    fn empty_body_constant_head_yields_one_row() {
        // Regression: a body-less CQ with an all-constant head (the shape a
        // fully-bound reformulation can collapse to) must produce exactly
        // one row of the constants, not panic in head resolution.
        let (store, stats, ids) = fixture();
        let cq = Cq::new_unchecked(vec![PTerm::Const(ids[4]), PTerm::Const(ids[5])], vec![]);
        let (rel, _) = eval_cq(&store, &stats, &cq).unwrap();
        assert_eq!(rel.to_rows(), vec![vec![ids[4], ids[5]]]);
    }

    #[test]
    fn empty_body_unbound_var_is_typed_error() {
        // Regression: a head variable no atom binds surfaces as
        // UnknownColumn — the evaluator must never panic on it.
        let (store, stats, _) = fixture();
        let cq = Cq::new_unchecked(vec![PTerm::Var(v("x"))], vec![]);
        let err = eval_cq(&store, &stats, &cq).unwrap_err();
        assert!(matches!(err, StorageError::UnknownColumn(ref c) if c == "x"));
    }

    #[test]
    fn unbound_head_var_after_joins_is_typed_error() {
        // Same property with a non-empty body: ?z never occurs in any atom.
        let (store, stats, ids) = fixture();
        let cq = Cq::new_unchecked(
            vec![PTerm::Var(v("x")), PTerm::Var(v("z"))],
            vec![Atom::new(v("x"), ids[3], v("y"))],
        );
        let err = eval_cq(&store, &stats, &cq).unwrap_err();
        assert!(matches!(err, StorageError::UnknownColumn(ref c) if c == "z"));
    }

    #[test]
    fn worker_panic_error_displays() {
        // Morsel dispatch maps a panicked worker to a typed error rather
        // than propagating the panic; pin the variant and its message.
        let err = StorageError::WorkerPanicked;
        assert!(err.to_string().contains("worker thread panicked"));
    }
}
