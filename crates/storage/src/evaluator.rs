//! Evaluation of CQs, UCQs and JUCQs against a store.
//!
//! * a CQ runs as a left-deep join chain in the greedy order chosen by the
//!   cost model (so estimates model the actual plan): each atom after the
//!   first is either bound by the rows joined so far (an index nested-loop
//!   *bind join*) or scanned and hash-joined, by `CostModel::binds_atom`;
//! * a UCQ is the deduplicated union of its disjuncts;
//! * a JUCQ joins its fragments on shared column names, in the cost model's
//!   order, and projects the query head — the "query answering strategy"
//!   induced by a cover (§4). The same rule lifted one level
//!   (`CostModel::seeds_fragment`) decides per fragment whether its union
//!   is materialised, as the paper's RDBMS back-ends evaluate it, or
//!   *seeded*: every CQ of the union starts its chain from the key values
//!   the rows joined so far hold, so a fragment like Example 1's `(x τ u)`
//!   is probed for a few keys instead of scanned whole.
//!
//! All evaluations are guarded by an optional *row budget*: exceeding it
//! aborts with [`StorageError::RowBudgetExceeded`], reproducing the paper's
//! "could not be evaluated in our experimental setting" outcome for
//! pathological reformulations.

use crate::access::Access;
use crate::cost::{CostModel, FragmentEstimate, JoinedColumns};
use crate::error::{Result, StorageError};
use crate::exec::{scan_atom, ExecMetrics, StepLabel};
use crate::relation::{ColumnSource, Relation};
use crate::stats::Stats;
use crate::store::Store;
use rdfref_model::TermId;
use rdfref_obs::Obs;
use rdfref_query::ast::{Atom, Cq, Fragment, Jucq, PTerm, Ucq};
use rdfref_query::Var;
use std::ops::Range;
use std::time::Duration;

/// Kept for the reference benchmark's replay, which compiles against
/// `Parallelism::{Off, morsels()}` and passes it to
/// `QueryRequest::parallelism`. It changes nothing: every scan, bind join
/// and leapfrog join runs sequentially on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Parallelism {
    /// Sequential evaluation.
    #[default]
    Off,
    /// Sequential evaluation too; `size` is not read.
    Morsels {
        /// Unused.
        size: usize,
    },
}

impl Parallelism {
    /// `Morsels { size: 4096 }`, the value the replay passes.
    pub fn morsels() -> Self {
        Parallelism::Morsels { size: 4096 }
    }
}

/// Physical join algorithm policy for CQ bodies, resolved per CQ by
/// [`crate::wcoj::physical_choice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum JoinAlgorithm {
    /// Left-deep index-nested-loop / hash-join chains: the classic evaluator,
    /// what the paper's RDBMS back-ends run.
    #[default]
    BindJoin,
    /// The worst-case-optimal leapfrog triejoin of [`crate::wcoj`]; a CQ with
    /// no feasible trie binding (a repeated-variable atom) falls back to bind
    /// join.
    Wcoj,
    /// The cost model's verdict per CQ body ([`crate::wcoj::JoinReason`]).
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
        let sw = self.obs.stopwatch();
        let scanned = scan_atom(self.store, atom);
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
        // Physical dispatch: the arbitration in `wcoj::physical_choice`
        // decides, and is recorded in `metrics.dispatched` for `Explain`.
        let mut acc = Relation::unit();
        let choice = (!cq.body.is_empty())
            .then(|| crate::wcoj::physical_choice(self.stats, self.join_algorithm, &cq.body));
        match choice.as_ref().and_then(|c| c.plan.as_ref()) {
            Some(plan) => {
                let sw = self.obs.stopwatch();
                acc = crate::wcoj::eval(self.store, plan, self.row_budget, &self.obs)?;
                let label = StepLabel::Lfj(plan.atom_count());
                self.step(metrics, label, acc.len(), sw.elapsed());
            }
            None => {
                let model = CostModel::new(self.stats);
                for (i, &idx) in model.order_atoms(&cq.body, &[]).iter().enumerate() {
                    let atom = &cq.body[idx];
                    acc = match i {
                        0 => self.scan(atom, idx, metrics)?,
                        _ => self.join_atom(&acc, atom, idx, metrics)?,
                    };
                    if acc.is_empty() {
                        break;
                    }
                }
            }
        }
        if let Some(choice) = choice {
            metrics.dispatched.record(choice);
        }
        if acc.is_empty() {
            // Annihilated: the result is empty regardless of the remaining
            // atoms (whose columns were never materialized).
            self.step(metrics, StepLabel::ProjectDedup, 0, Duration::ZERO);
            return Ok(Relation::empty(out.to_vec()));
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
        let shares = atom.vars().any(|v| acc.column_index(v).is_some());
        let joined = if model.binds_atom(shares, acc.len() as f64, model.atom_cardinality(atom)) {
            let sw = self.obs.stopwatch();
            let joined = bind_join(self.store, acc, atom);
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
    ///
    /// Fragments join in the cost model's `CostModel::join_order`. The
    /// first is materialised. Each later one sharing a column with the rows
    /// joined so far is either *seeded* — every CQ of its union runs its
    /// join chain from the distinct values those rows hold on the shared
    /// columns, leaving only the fragment rows that meet them — or
    /// materialised, as `CostModel::seeds_fragment` decides; either way
    /// the rows are then hash-joined with it. A fragment with a CQ the
    /// leapfrog would run is always materialised. A seeded fragment records
    /// `seeded fragment {i}` (`op.seeded_fragment.*`), a materialised one
    /// `fragment {i}` (`op.fragment.rows`), and the verdict joins
    /// [`ExecMetrics::dispatched`].
    pub fn eval_jucq(&self, jucq: &Jucq, metrics: &mut ExecMetrics) -> Result<Relation> {
        let _span = self.obs.span("eval.jucq");
        let model = CostModel::new(self.stats);
        let estimates: Vec<FragmentEstimate> = jucq
            .fragments
            .iter()
            .map(|f| model.fragment_estimate(&f.ucq, &f.columns))
            .collect();
        let order = CostModel::join_order(&estimates.iter().collect::<Vec<_>>());
        let Some((&first, rest)) = order.split_first() else {
            return Ok(Relation::empty(jucq.head.clone()));
        };
        let frag = &jucq.fragments[first];
        let mut acc = self.eval_ucq(&frag.ucq, &frag.columns, metrics)?;
        self.step(
            metrics,
            StepLabel::Fragment(first),
            acc.len(),
            Duration::ZERO,
        );
        let mut joined = JoinedColumns::new(&estimates[first], acc.len() as f64);
        for &i in rest {
            if acc.is_empty() {
                break;
            }
            let frag = &jucq.fragments[i];
            let keys = join_keys(&acc, &frag.columns)?;
            let seeded = keys.as_ref().is_some_and(|keys| {
                !self.leapfrogs_any(&frag.ucq)
                    && model.seeds_fragment(&joined, keys.len(), &frag.ucq, &estimates[i])
            });
            metrics.dispatched.record_fragment(seeded);
            let rel = match keys.filter(|_| seeded) {
                Some(keys) => self.eval_seeded(keys, frag, i, metrics)?,
                None => {
                    let rel = self.eval_ucq(&frag.ucq, &frag.columns, metrics)?;
                    self.step(metrics, StepLabel::Fragment(i), rel.len(), Duration::ZERO);
                    rel
                }
            };
            let sw = self.obs.stopwatch();
            acc = acc.natural_join(&rel);
            self.step(metrics, StepLabel::FragmentJoin, acc.len(), sw.elapsed());
            self.check_budget(acc.len())?;
            joined.absorb(&estimates[i], acc.len() as f64);
        }
        if acc.is_empty() {
            self.step(metrics, StepLabel::ProjectDedup, 0, Duration::ZERO);
            return Ok(Relation::empty(jucq.head.clone()));
        }
        // Fragments are sets, and a join keeps every column of both sides,
        // so `acc` is a set: only a projection that drops a column (one no
        // head variable selects) can make two rows equal.
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

    /// Whether some CQ of `ucq` would run on the leapfrog.
    fn leapfrogs_any(&self, ucq: &Ucq) -> bool {
        self.join_algorithm != JoinAlgorithm::BindJoin
            && ucq.cqs.iter().any(|cq| {
                crate::wcoj::physical_choice(self.stats, self.join_algorithm, &cq.body)
                    .plan
                    .is_some()
            })
    }

    /// Fragment `i` evaluated bound by `keys`, the distinct values the rows
    /// joined so far hold on the columns they share with it (see
    /// [`join_keys`]): the fragment's rows that meet a key, in the columns
    /// `keys`, then the fragment's others, deduplicated. Joining it with
    /// those rows is joining them with the whole fragment.
    ///
    /// Each CQ of the fragment's union starts its join chain from `keys`. A
    /// key column meets the first fragment column of its name, which is the
    /// CQ's head term there: a variable names the column, so the chain binds
    /// it; a constant filters the keys; a variable already naming an earlier
    /// key column is an equality between the two.
    fn eval_seeded(
        &self,
        keys: Relation,
        frag: &Fragment,
        i: usize,
        metrics: &mut ExecMetrics,
    ) -> Result<Relation> {
        let sw = self.obs.stopwatch();
        let mut columns = keys.columns().to_vec();
        let key_pos: Vec<usize> = columns
            .iter()
            .map(|name| frag.columns.iter().position(|c| c == name))
            .collect::<Option<_>>()
            .ok_or_else(|| StorageError::UnknownColumn("[join key]".to_string()))?;
        let extra: Vec<usize> = (0..frag.columns.len())
            .filter(|j| !key_pos.contains(j))
            .collect();
        columns.extend(extra.iter().map(|&j| frag.columns[j].clone()));
        let mut union = Relation::empty(columns);
        let model = CostModel::new(self.stats);
        let mut seed = keys;
        for cq in &frag.ucq.cqs {
            // The keys under this CQ's names, and the filters its head puts
            // on them.
            let mut names: Vec<Var> = Vec::with_capacity(key_pos.len());
            let mut equal: Vec<(usize, usize)> = Vec::new();
            let mut constant: Vec<(usize, TermId)> = Vec::new();
            for (c, &k) in key_pos.iter().enumerate() {
                match &cq.head[k] {
                    PTerm::Var(w) => match names.iter().position(|n| n == w) {
                        Some(first) => equal.push((first, c)),
                        None => {
                            names.push(w.clone());
                            continue;
                        }
                    },
                    PTerm::Const(k) => constant.push((c, *k)),
                    PTerm::Range(..) => {
                        return Err(StorageError::UnknownColumn("[range]".to_string()))
                    }
                }
                // Not a name of any CQ: the parser admits no `#`.
                names.push(Var::new(format!("#{c}")));
            }
            seed = seed.with_columns(names)?;
            if !cq.body.is_empty() {
                metrics.dispatched.record(crate::wcoj::physical_choice(
                    self.stats,
                    self.join_algorithm,
                    &cq.body,
                ));
            }
            let filtered = (!equal.is_empty() || !constant.is_empty()).then(|| {
                seed.filtered(|row| {
                    equal.iter().all(|&(a, b)| row[a] == row[b])
                        && constant.iter().all(|&(c, k)| row[c] == k)
                })
            });
            let start = filtered.as_ref().unwrap_or(&seed);
            let bound: Vec<&Var> = start.columns().iter().collect();
            let mut chain: Option<Relation> = None;
            for idx in model.order_atoms(&cq.body, &bound) {
                let from = chain.as_ref().unwrap_or(start);
                if from.is_empty() {
                    break;
                }
                chain = Some(self.join_atom(from, &cq.body[idx], idx, metrics)?);
            }
            let rows = chain.as_ref().unwrap_or(start);
            if rows.is_empty() {
                continue;
            }
            // Every step keeps its input's columns first, so the key columns
            // stand at `0..key_pos.len()`.
            let mut sources: Vec<ColumnSource> =
                (0..key_pos.len()).map(ColumnSource::Column).collect();
            for &j in &extra {
                sources.push(match &cq.head[j] {
                    PTerm::Const(c) => ColumnSource::Const(*c),
                    PTerm::Range(..) => {
                        return Err(StorageError::UnknownColumn("[range]".to_string()))
                    }
                    PTerm::Var(v) => rows
                        .column_index(v)
                        .map(ColumnSource::Column)
                        .ok_or_else(|| StorageError::UnknownColumn(v.name().to_string()))?,
                });
            }
            union.absorb_gathered(rows, &sources);
            self.check_budget(union.len())?;
        }
        union.dedup();
        self.step(
            metrics,
            StepLabel::SeededFragment(i),
            union.len(),
            sw.elapsed(),
        );
        Ok(union)
    }
}

/// The distinct values `acc` holds on the columns it shares with a fragment
/// of `columns`, each shared name once, in `acc`'s order; `None` when they
/// share none.
fn join_keys(acc: &Relation, columns: &[Var]) -> Result<Option<Relation>> {
    let mut names: Vec<Var> = Vec::new();
    for name in acc.columns() {
        if columns.contains(name) && !names.contains(name) {
            names.push(name.clone());
        }
    }
    if names.is_empty() {
        return Ok(None);
    }
    let mut keys = acc.project(&names)?;
    keys.dedup();
    Ok(Some(keys))
}

/// Bind join ([`Evaluator::join_atom`]'s probe side): each `acc` row fills
/// the atom's probe key from its bound columns and appends every match
/// (acc row ++ new values); a row whose key equals the previous row's copies
/// that probe's matches instead of reading the index again.
fn bind_join(store: &Store, acc: &Relation, atom: &Atom) -> Relation {
    let (access, new_columns) = Access::bind(acc.columns(), atom);
    let mut columns = acc.columns().to_vec();
    columns.extend(new_columns);
    let mut out = Relation::empty(columns);
    let mut last: Option<([TermId; 3], Range<usize>)> = None;
    for row in acc.rows() {
        let key = access.key(row);
        match &last {
            Some((same, matches)) if *same == key => out.repeat_rows(matches.clone(), row),
            _ => {
                let start = out.len();
                access.runs(store, &key, &mut |run| access.emit(run, row, &mut out));
                last = Some((key, start..out.len()));
            }
        }
    }
    out
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
        assert_eq!(metrics.rows_scanned(), 3);
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

    /// Under `Wcoj`, a UCQ whose CQs split: `(?x knows ?x)` repeats a
    /// variable, so no trie binding exists and its CQ falls back to bind
    /// join, while the triangle is leapfrogged. The tally counts both and
    /// reports the leapfrogged CQ's arbitration.
    #[test]
    fn split_dispatch_tallies_both_operators() {
        let (store, stats, ids) = fixture();
        let knows = ids[3];
        let self_loop = Cq::new(vec![v("x")], vec![Atom::new(v("x"), knows, v("x"))]).unwrap();
        let triangle = Cq::new(
            vec![v("x")],
            vec![
                Atom::new(v("x"), knows, v("y")),
                Atom::new(v("y"), knows, v("z")),
                Atom::new(v("x"), knows, v("z")),
            ],
        )
        .unwrap();
        let fallback = crate::wcoj::physical_choice(&stats, JoinAlgorithm::Wcoj, &self_loop.body);
        assert!(fallback.plan.is_none());
        assert_eq!(
            fallback.to_string(),
            "wcoj requested; fell back to bind join (no feasible trie binding)"
        );
        let mut ev = Evaluator::new(&store, &stats);
        ev.join_algorithm = JoinAlgorithm::Wcoj;
        let mut m = ExecMetrics::default();
        let ucq = Ucq::new(vec![self_loop, triangle]).unwrap();
        let rel = ev.eval_ucq(&ucq, &[v("x")], &mut m).unwrap();
        assert_eq!(rel.to_rows(), vec![vec![ids[0]]]);
        let ran = &m.dispatched;
        assert_eq!((ran.wcoj_cqs, ran.bind_join_cqs), (1, 1));
        let choice = ran.choice.as_ref().expect("a CQ body ran");
        assert_eq!(choice.reason, crate::wcoj::JoinReason::WcojRequested);
        assert!(choice.plan.is_some());
        let rendered = format!("{ran:5}");
        assert!(
            rendered.starts_with("wcoj ×1, bind join ×1 (wcoj requested)\n"),
            "{rendered}"
        );
        assert_eq!(rendered.lines().count(), 5, "{rendered}");
        assert!(rendered.contains("\n  t3 : "), "{rendered}");
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

    /// Store for the seeded path: `knows` a→b, b→c, c→c; a, b and c are
    /// persons among 300 more, d is a robot. A one-row-per-edge fragment
    /// joined with the person fragment is seeded.
    fn seeding_fixture() -> (Store, Stats, [TermId; 6]) {
        let mut d = Dictionary::new();
        let [a, b, c, dd, knows, person] =
            ["a", "b", "c", "d", "knows", "Person"].map(|n| d.intern(&Term::iri(n)));
        let robot = d.intern(&Term::iri("Robot"));
        let mut triples = vec![
            EncodedTriple::new(a, knows, b),
            EncodedTriple::new(b, knows, c),
            EncodedTriple::new(c, knows, c),
            EncodedTriple::new(dd, ID_RDF_TYPE, robot),
        ];
        for who in [a, b, c] {
            triples.push(EncodedTriple::new(who, ID_RDF_TYPE, person));
        }
        for i in 0..300 {
            let p = d.intern(&Term::iri(format!("p{i}")));
            triples.push(EncodedTriple::new(p, ID_RDF_TYPE, person));
        }
        let store = Store::from_triples(&triples);
        let stats = Stats::compute(&store);
        (store, stats, [a, b, c, dd, knows, person])
    }

    /// `q(x, y) :- x knows y`, over columns `[x, y]`.
    fn edges(knows: TermId) -> Fragment {
        let cq = Cq::new(vec![v("x"), v("y")], vec![Atom::new(v("x"), knows, v("y"))]).unwrap();
        Fragment::new(vec![v("x"), v("y")], Ucq::single(cq)).unwrap()
    }

    /// `jucq` as the parent of the seeded path evaluated it: every fragment
    /// materialised, joined in fragment order, projected, sorted.
    fn materialised(store: &Store, stats: &Stats, jucq: &Jucq) -> Vec<Vec<TermId>> {
        let ev = Evaluator::new(store, stats);
        let mut m = ExecMetrics::default();
        let mut acc = Relation::unit();
        for f in &jucq.fragments {
            acc = acc.natural_join(&ev.eval_ucq(&f.ucq, &f.columns, &mut m).unwrap());
        }
        let mut out = acc.project(&jucq.head).unwrap();
        out.dedup();
        out.sort();
        out.to_rows()
    }

    /// `jucq` evaluated, sorted, checked to have seeded exactly one
    /// fragment and to agree with [`materialised`].
    fn seeded_rows(store: &Store, stats: &Stats, jucq: &Jucq) -> Vec<Vec<TermId>> {
        let mut m = ExecMetrics::default();
        let mut got = Evaluator::new(store, stats)
            .eval_jucq(jucq, &mut m)
            .unwrap();
        got.sort();
        assert_eq!(m.dispatched.seeded_fragments, 1, "{:?}", m.steps);
        assert!(m
            .steps
            .iter()
            .any(|s| s.label == StepLabel::SeededFragment(1)));
        assert_eq!(got.to_rows(), materialised(store, stats, jucq));
        got.to_rows()
    }

    #[test]
    fn a_seeded_fragment_joins_as_the_materialised_one() {
        let (store, stats, [a, b, c, _, knows, person]) = seeding_fixture();
        let persons = Fragment::new(
            vec![v("y")],
            Ucq::single(
                Cq::new(vec![v("p")], vec![Atom::new(v("p"), ID_RDF_TYPE, person)]).unwrap(),
            ),
        )
        .unwrap();
        let jucq = Jucq::new(vec![v("x"), v("y")], vec![edges(knows), persons]).unwrap();
        let rows = seeded_rows(&store, &stats, &jucq);
        assert_eq!(rows, vec![vec![a, b], vec![b, c], vec![c, c]]);
    }

    #[test]
    fn a_head_constant_on_a_seeded_column_filters_the_rows() {
        let (store, stats, [a, b, _, _, knows, person]) = seeding_fixture();
        // q(x, b) :- x a Person over columns [x, y]: x binds, and only the
        // rows whose y is b stay.
        let to_b = Fragment::new(
            vec![v("x"), v("y")],
            Ucq::single(Cq::new_unchecked(
                vec![PTerm::Var(v("x")), PTerm::Const(b)],
                vec![Atom::new(v("x"), ID_RDF_TYPE, person)],
            )),
        )
        .unwrap();
        let jucq = Jucq::new(vec![v("x"), v("y")], vec![edges(knows), to_b]).unwrap();
        assert_eq!(seeded_rows(&store, &stats, &jucq), vec![vec![a, b]]);
    }

    #[test]
    fn a_head_variable_over_two_seeded_columns_is_an_equality() {
        let (store, stats, [_, _, c, _, knows, person]) = seeding_fixture();
        // q(w, w) :- w a Person over columns [x, y]: only the self-loop.
        let same = Fragment::new(
            vec![v("x"), v("y")],
            Ucq::single(Cq::new_unchecked(
                vec![PTerm::Var(v("w")), PTerm::Var(v("w"))],
                vec![Atom::new(v("w"), ID_RDF_TYPE, person)],
            )),
        )
        .unwrap();
        let jucq = Jucq::new(vec![v("x"), v("y")], vec![edges(knows), same]).unwrap();
        assert_eq!(seeded_rows(&store, &stats, &jucq), vec![vec![c, c]]);
    }

    #[test]
    fn a_repeated_fragment_column_joins_on_its_first_occurrence() {
        let (store, stats, [a, b, c, _, knows, person]) = seeding_fixture();
        // Columns [y, y]: the joined rows meet the first `y`; the second
        // (any person) rides along as a natural join carries it.
        let twice = Fragment::new(
            vec![v("y"), v("y")],
            Ucq::single(Cq::new_unchecked(
                vec![PTerm::Var(v("p")), PTerm::Var(v("q"))],
                vec![
                    Atom::new(v("p"), ID_RDF_TYPE, person),
                    Atom::new(v("q"), ID_RDF_TYPE, person),
                ],
            )),
        )
        .unwrap();
        let jucq = Jucq::new(vec![v("x"), v("y")], vec![edges(knows), twice]).unwrap();
        let rows = seeded_rows(&store, &stats, &jucq);
        assert_eq!(rows, vec![vec![a, b], vec![b, c], vec![c, c]]);
    }

    #[test]
    fn a_row_budget_crossed_inside_a_seeded_fragment_is_a_typed_error() {
        let (store, stats, [_, _, _, _, knows, person]) = seeding_fixture();
        // Every edge fans out to all 303 persons: 909 rows inside the
        // seeded chain, against a budget the edges and the persons fit.
        let everyone = Fragment::new(
            vec![v("y"), v("p")],
            Ucq::single(
                Cq::new(
                    vec![v("y"), v("p")],
                    vec![
                        Atom::new(v("y"), ID_RDF_TYPE, person),
                        Atom::new(v("p"), ID_RDF_TYPE, person),
                    ],
                )
                .unwrap(),
            ),
        )
        .unwrap();
        let jucq = Jucq::new(vec![v("x"), v("p")], vec![edges(knows), everyone]).unwrap();
        let mut ev = Evaluator::new(&store, &stats);
        ev.row_budget = Some(400);
        let mut m = ExecMetrics::default();
        let err = ev.eval_jucq(&jucq, &mut m).unwrap_err();
        assert!(matches!(
            err,
            StorageError::RowBudgetExceeded { budget: 400 }
        ));
        assert_eq!(m.dispatched.seeded_fragments, 1);
    }

    #[test]
    fn parallelism_default_is_off() {
        assert_eq!(Parallelism::default(), Parallelism::Off);
        assert_eq!(Parallelism::morsels(), Parallelism::Morsels { size: 4096 });
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
}
