//! Model-checked scenarios for the snapshot publication protocol
//! (DESIGN.md §5d). Compiled only under the `model-check` feature, where
//! the `rdfref_sync` facade swaps in deterministic-scheduler shims: every
//! atomic, mutex and channel operation below is a schedule exploration
//! point, and `Relaxed`/`Acquire` loads may observe any coherence-allowed
//! stale value.
//!
//! Each scenario is a small closed program over the *real* protocol code —
//! [`PubCell`], [`PlanCache::lookup_at`], [`BatchTicket::wait`],
//! [`Database::pinned_cache_lookup`] — with its invariant asserted inline.
//! [`run_all`] drives the whole suite and dumps a replayable trace to
//! `target/modelcheck/<scenario>.trace` for any violation, which is what
//! the CI `modelcheck` job uploads on failure.
//!
//! The two `modelcheck_mutation` cfgs re-introduce seeded protocol bugs
//! (see `pubcell.rs` and `answer.rs`); the `mutation_*_is_caught` tests
//! prove each one produces a minimal counterexample schedule that
//! [`replay`] reproduces exactly.

use crate::answer::Database;
use crate::cache::{CacheKey, CachedPlan, PlanCache, StrategyTag};
use crate::gcov::GcovOptions;
use crate::pubcell::{PubCell, Published};
use crate::serving::{BatchReport, BatchTicket};
use rdfref_model::{Graph, TermId};
use rdfref_query::ast::{Atom, Cq, Ucq};
use rdfref_query::Var;
use rdfref_sync::modelcheck::{explore, replay, BugReport, ExploreOptions, Outcome};
use rdfref_sync::{mpsc, thread, Arc};
use std::path::PathBuf;

/// A published value for the pure-cell scenarios: the seq *is* the state.
struct V(u64);

impl Published for V {
    fn seq(&self) -> u64 {
        self.0
    }
}

/// Exploration budget. The default keeps the whole suite inside the CI
/// job's 120 s envelope on one core; `MODELCHECK_DEEP=1` widens the
/// preemption bound and adds an order of magnitude of seeded-random deep
/// schedules for the nightly-style pass.
fn opts() -> ExploreOptions {
    let deep = std::env::var_os("MODELCHECK_DEEP").is_some_and(|v| v != "0");
    ExploreOptions {
        preemption_bound: if deep { 3 } else { 2 },
        random_iters: if deep { 12_000 } else { 1_500 },
        ..ExploreOptions::default()
    }
}

// ---------------------------------------------------------------------------
// Scenario bodies. Each is a plain `fn` so the mutation tests can hand the
// same body to `replay` that `explore` searched.
// ---------------------------------------------------------------------------

/// `SnapshotCell::version` publish monotonicity: racing publishers can
/// never make a reader observe the version counter move backwards, and the
/// newest seq always wins.
fn b_publish_monotonic() {
    let cell = Arc::new(PubCell::new(Arc::new(V(0))));
    let c1 = Arc::clone(&cell);
    let w1 = thread::spawn(move || c1.publish(Arc::new(V(2))));
    let c2 = Arc::clone(&cell);
    let w2 = thread::spawn(move || c2.publish(Arc::new(V(1))));
    let s1 = cell.current().seq();
    let s2 = cell.current().seq();
    assert!(
        s2 >= s1,
        "reader observed snapshot seq go backwards: {s1} then {s2}"
    );
    let _ = w1.join();
    let _ = w2.join();
    assert_eq!(
        cell.current().seq(),
        2,
        "newest publication must win the race"
    );
}

/// Publication release/acquire contract: a reader's `Acquire` load that
/// observes a published version must have synchronized with the `Release`
/// store that wrote it — this is what lets the TLS fast path trust the
/// version counter without taking the slot lock. The `relaxed_version`
/// mutation downgrades the store and is caught here.
fn b_publish_synchronizes() {
    let cell = Arc::new(PubCell::new(Arc::new(V(0))));
    let c = Arc::clone(&cell);
    let w = thread::spawn(move || c.publish(Arc::new(V(1))));
    let (v, synced) = cell.probe_version();
    if v != 0 {
        assert!(
            synced,
            "reader observed published version {v} without synchronizing \
             with its store (publication store must be Release)"
        );
    }
    let _ = w.join();
}

/// Cache key used by the epoch scenarios: gcov-tagged so entries carry a
/// data epoch and both halves of the `(schema, data)` pair participate.
fn epoch_key() -> CacheKey {
    let v = Var::new("mv0");
    CacheKey {
        query: Cq::new_unchecked(
            vec![v.clone().into()],
            vec![Atom::new(v, TermId(7), TermId(0))],
        ),
        tag: StrategyTag::gcov(&GcovOptions::default()),
        algo: rdfref_storage::JoinAlgorithm::BindJoin,
    }
}

/// A plan whose identity is recoverable from the outside: `arity` CQs.
fn marked_plan(arity: usize) -> CachedPlan {
    let v = Var::new("mv0");
    let cq = Cq::new_unchecked(
        vec![v.clone().into()],
        vec![Atom::new(v, TermId(7), TermId(0))],
    );
    CachedPlan::Ucq(Ucq {
        cqs: vec![cq; arity],
    })
}

fn plan_mark(plan: &CachedPlan) -> usize {
    match plan {
        CachedPlan::Ucq(u) => u.cqs.len(),
        _ => usize::MAX,
    }
}

/// No torn epoch pairs: whatever `lookup_at` returns under a pinned
/// `(schema, data)` pair was inserted under *exactly* that pair, even while
/// a writer bumps both epochs and republishes between the reader's two
/// epoch loads.
fn b_no_torn_epoch_pairs() {
    let cache = Arc::new(PlanCache::new(8));
    cache.insert_at(epoch_key(), marked_plan(1), 0, 0);
    let wc = Arc::clone(&cache);
    let w = thread::spawn(move || {
        wc.bump_schema_epoch();
        wc.bump_data_epoch();
        wc.insert_at(epoch_key(), marked_plan(2), 1, 1);
    });
    let schema = cache.schema_epoch();
    let data = cache.data_epoch();
    if let Some(plan) = cache.lookup_at(&epoch_key(), schema, data) {
        let expected = match (schema, data) {
            (0, 0) => 1,
            (1, 1) => 2,
            torn => panic!("lookup_at returned a plan under torn epoch pair {torn:?}"),
        };
        assert_eq!(
            plan_mark(&plan),
            expected,
            "plan from epochs other than the pinned ({schema}, {data})"
        );
    }
    let _ = w.join();
}

/// `BatchTicket::wait` read-your-writes: a client that submitted a batch
/// and blocks on its ticket gets a report covering (at least) its own
/// batch, under every interleaving of the writer's receive/apply/reply
/// loop with the submission.
fn b_ticket_read_your_writes() {
    let (job_tx, job_rx) = mpsc::channel::<u64>();
    let (report_tx, report_rx) = mpsc::channel::<BatchReport>();
    let writer = thread::spawn(move || {
        let mut seq = 0u64;
        while let Ok(delta) = job_rx.recv() {
            seq += delta;
            let report = BatchReport {
                seq,
                ..BatchReport::default()
            };
            if report_tx.send(report).is_err() {
                break;
            }
        }
    });
    let ticket = BatchTicket::from_reply(report_rx);
    job_tx.send(1).expect("writer alive");
    let report = ticket.wait().expect("writer replies before shutdown");
    assert!(
        report.seq() >= 1,
        "ticket resolved to seq {} before the submitted batch was applied",
        report.seq()
    );
    drop(job_tx);
    let _ = writer.join();
}

/// TLS snapshot-cache staleness bound: per-thread caching may serve an old
/// snapshot, but never one older than a snapshot this thread already
/// observed, and never older than a version its own `Acquire` probe
/// returned.
fn b_tls_staleness() {
    let cell = Arc::new(PubCell::new(Arc::new(V(0))));
    let c = Arc::clone(&cell);
    let w = thread::spawn(move || {
        c.publish(Arc::new(V(1)));
        c.publish(Arc::new(V(2)));
    });
    let s1 = cell.current().seq();
    let s2 = cell.current().seq();
    assert!(s2 >= s1, "TLS cache served {s2} after this thread saw {s1}");
    let (v, _) = cell.probe_version();
    let s3 = cell.current().seq();
    assert!(
        s3 >= v,
        "TLS cache served seq {s3} staler than observed version {v}"
    );
    let _ = w.join();
}

/// Snapshot-pinned plan-cache isolation: a [`Database`] pinned to epoch
/// pair `(0, 0)` must never be handed a plan a concurrent writer inserted
/// under newer epochs, no matter how the lookup interleaves with the bump
/// and insert. The `unpinned_lookup` mutation validates against live
/// epochs instead and is caught here.
fn b_cache_pinned() {
    let db = Database::builder()
        .build(Graph::new())
        .with_pinned_epochs((0, 0));
    let cache = Arc::clone(db.plan_cache());
    cache.insert_at(epoch_key(), marked_plan(1), 0, 0);
    let wc = Arc::clone(&cache);
    let w = thread::spawn(move || {
        wc.bump_data_epoch();
        wc.insert_at(epoch_key(), marked_plan(2), 0, 1);
    });
    if let Some(plan) = db.pinned_cache_lookup(&epoch_key()) {
        assert_eq!(
            plan_mark(&plan),
            1,
            "snapshot pinned to (0, 0) was served a plan from a newer epoch"
        );
    }
    let _ = w.join();
}

// ---------------------------------------------------------------------------
// Public scenario entry points and the suite driver.
// ---------------------------------------------------------------------------

/// The suite, in documentation order: `(name, body)`.
pub const SCENARIOS: &[(&str, fn())] = &[
    ("publish_monotonic", b_publish_monotonic),
    ("publish_synchronizes", b_publish_synchronizes),
    ("no_torn_epoch_pairs", b_no_torn_epoch_pairs),
    ("ticket_read_your_writes", b_ticket_read_your_writes),
    ("tls_staleness", b_tls_staleness),
    ("cache_pinned", b_cache_pinned),
];

/// Explore one scenario by name under the suite's budget.
pub fn check(name: &str) -> Outcome {
    let body = SCENARIOS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown scenario {name:?}"))
        .1;
    explore(name, opts(), body)
}

/// Replay one scenario by name from a recorded choice vector.
pub fn check_replay(name: &str, choices: &[u32]) -> Outcome {
    let body = SCENARIOS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown scenario {name:?}"))
        .1;
    replay(name, opts(), choices, body)
}

/// One scenario's result inside a [`SuiteReport`].
#[derive(Debug)]
pub struct ScenarioReport {
    pub name: &'static str,
    pub schedules: u64,
    pub bug: Option<BugReport>,
}

/// The whole suite's result.
#[derive(Debug)]
pub struct SuiteReport {
    pub scenarios: Vec<ScenarioReport>,
}

impl SuiteReport {
    /// Total schedules explored across all scenarios.
    pub fn total_schedules(&self) -> u64 {
        self.scenarios.iter().map(|s| s.schedules).sum()
    }

    /// Scenarios that found a protocol violation.
    pub fn failures(&self) -> Vec<&ScenarioReport> {
        self.scenarios.iter().filter(|s| s.bug.is_some()).collect()
    }

    /// Human-readable summary, one scenario per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.scenarios {
            out.push_str(&format!(
                "{:<26} {:>7} schedules  {}\n",
                s.name,
                s.schedules,
                if s.bug.is_some() { "VIOLATION" } else { "ok" }
            ));
        }
        out.push_str(&format!("total: {} schedules\n", self.total_schedules()));
        out
    }
}

/// Where violation traces go: `target/modelcheck/<scenario>.trace`,
/// relative to the workspace root (the CI job uploads this directory as an
/// artifact on failure).
fn trace_dir() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let ws = root.ancestors().nth(2).map(PathBuf::from).unwrap_or(root);
    ws.join("target").join("modelcheck")
}

/// Dump a violation's replayable trace; ignores IO errors (the trace is
/// also embedded in the panic message, the file is a CI convenience).
fn dump_trace(bug: &BugReport) {
    let dir = trace_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{}.trace", bug.scenario)), bug.render());
    }
}

/// Run the full suite, dumping a replayable trace for every violation.
pub fn run_all() -> SuiteReport {
    let scenarios = SCENARIOS
        .iter()
        .map(|&(name, body)| {
            let outcome = explore(name, opts(), body);
            let (schedules, bug) = match outcome {
                Outcome::Pass(stats) => (stats.schedules, None),
                Outcome::Bug(report) => {
                    dump_trace(&report);
                    (report.schedules, Some(report))
                }
            };
            ScenarioReport {
                name,
                schedules,
                bug,
            }
        })
        .collect();
    SuiteReport { scenarios }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The clean-protocol tests only make sense when no mutation cfg has
    /// re-introduced a seeded bug.
    #[cfg(not(any(
        modelcheck_mutation = "relaxed_version",
        modelcheck_mutation = "unpinned_lookup"
    )))]
    mod clean {
        use super::*;

        #[test]
        fn modelcheck_suite_is_clean_and_explores_enough() {
            let report = run_all();
            if let Some(failure) = report.failures().first() {
                panic!(
                    "protocol violation in {}:\n{}",
                    failure.name,
                    failure.bug.as_ref().unwrap().render()
                );
            }
            let total = report.total_schedules();
            assert!(
                total >= 9_000,
                "suite explored only {total} schedules (budget demands >= 9k):\n{}",
                report.render()
            );
        }
    }

    /// Shared shape of the two mutation self-tests: the scenario must
    /// find the seeded bug, produce a non-empty trace, and the recorded
    /// choice vector must deterministically reproduce it under `replay`.
    #[allow(dead_code)]
    fn assert_caught(scenario: &str) {
        let outcome = check(scenario);
        let bug = match outcome {
            Outcome::Bug(bug) => bug,
            Outcome::Pass(stats) => panic!(
                "seeded mutation not caught by {scenario} after {} schedules",
                stats.schedules
            ),
        };
        assert!(
            !bug.trace.is_empty(),
            "counterexample must carry a schedule trace"
        );
        dump_trace(&bug);
        match check_replay(scenario, &bug.choices) {
            Outcome::Bug(again) => assert_eq!(
                again.message, bug.message,
                "replay must reproduce the same violation"
            ),
            Outcome::Pass(_) => panic!("replaying the recorded schedule lost the bug"),
        }
    }

    #[cfg(modelcheck_mutation = "relaxed_version")]
    #[test]
    fn mutation_relaxed_version_is_caught() {
        assert_caught("publish_synchronizes");
    }

    #[cfg(modelcheck_mutation = "unpinned_lookup")]
    #[test]
    fn mutation_unpinned_lookup_is_caught() {
        assert_caught("cache_pinned");
    }
}
