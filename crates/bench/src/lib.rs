//! # rdfref-bench — the experiment harness
//!
//! One binary per experiment of `DESIGN.md` §4 (run them with
//! `cargo run -p rdfref-bench --release --bin exp_<name>`, or all of the
//! `EXPERIMENTS.md` rows at once with `--bin exp_all`), plus the reference
//! benchmark (`src/bin/benchmark/`, declared by `BENCHMARK.json`), which is
//! the one harness behind E9–E14. `EXPERIMENTS.md` records the outputs
//! against the numbers the paper reports.
//!
//! | binary | experiment |
//! |--------|------------|
//! | `exp_example1` | E1 — §4 Example 1: UCQ vs SCQ vs JUCQ vs GCov |
//! | `exp_strategies` | E2 — all techniques over the LUBM query mix |
//! | `exp_cover_space` | E3 — explored covers: estimated vs actual cost |
//! | `exp_constraints` | E4 — ontology depth/fan-out sweeps |
//! | `exp_data_sweep` | E5 — data scale sweeps |
//! | `exp_maintenance` | E6 — Sat maintenance vs Ref |
//! | `exp_dataset_stats` | E7 — dataset statistics screens |
//! | `exp_completeness` | E8 — incomplete Ref profiles |
//! | `exp_ablations` | A1–A6 — design-decision ablations |
//! | `benchmark` | E9–E14 — plan cache, serving under churn, interval encoding, WCOJ, and every before/after claim |

pub mod report;

use rdfref_core::answer::{AnswerOptions, Database, Strategy};
use rdfref_core::CoreError;
use rdfref_obs::{MetricsRegistry, Obs, Recorder};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The metrics sink shared by the `exp_*` binaries: `--metrics-out <path>`
/// selects a JSON destination; a Prometheus text rendering goes to the
/// sibling `<path>.prom` file. When the flag is absent the registry stays
/// unused and answering runs with observability disabled (the no-op path).
pub struct MetricsSink {
    /// Aggregates recorded by every instrumented call.
    pub registry: Arc<MetricsRegistry>,
    /// Destination from `--metrics-out`, if given.
    pub out: Option<PathBuf>,
}

impl MetricsSink {
    /// Build from the process arguments (scans for `--metrics-out <path>`).
    pub fn from_args() -> MetricsSink {
        let mut out = None;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            if arg == "--metrics-out" {
                out = args.next().map(PathBuf::from);
            } else if let Some(path) = arg.strip_prefix("--metrics-out=") {
                out = Some(PathBuf::from(path));
            }
        }
        MetricsSink {
            registry: Arc::new(MetricsRegistry::new()),
            out,
        }
    }

    /// The observability handle to install on the database: collecting when
    /// `--metrics-out` was given, disabled (one never-taken branch) otherwise.
    pub fn obs(&self) -> Obs {
        match self.out {
            Some(_) => {
                let recorder: Arc<dyn Recorder> = Arc::clone(&self.registry) as _;
                Obs::collecting(recorder)
            }
            None => Obs::disabled(),
        }
    }

    /// Write the JSON and Prometheus renderings if a destination was chosen.
    /// Returns the `(json, prom)` paths written.
    pub fn flush(&self) -> std::io::Result<Option<(PathBuf, PathBuf)>> {
        let Some(json_path) = &self.out else {
            return Ok(None);
        };
        std::fs::write(json_path, self.registry.to_json())?;
        let mut prom_path = json_path.as_os_str().to_owned();
        prom_path.push(".prom");
        let prom_path = PathBuf::from(prom_path);
        std::fs::write(&prom_path, self.registry.to_prometheus_text())?;
        Ok(Some((json_path.clone(), prom_path)))
    }
}

/// Time a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// The outcome of running one strategy on one query.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Strategy display name.
    pub strategy: String,
    /// `Ok(answer count)` or the failure message.
    pub answers: Result<usize, String>,
    /// Wall-clock of the whole answering call.
    pub wall: Duration,
    /// Reformulation size (CQ disjuncts), if applicable.
    pub reformulation_cqs: usize,
    /// Peak intermediate relation size.
    pub peak_rows: usize,
}

/// Run one strategy, tolerating typed failures (reformulation blow-ups and
/// row budgets are *results* in these experiments, not errors).
pub fn run_strategy(
    db: &Database,
    cq: &rdfref_query::Cq,
    strategy: Strategy,
    opts: &AnswerOptions,
) -> Outcome {
    let name = strategy.name().to_string();
    let start = Instant::now();
    match db.run_query(cq, &strategy, opts) {
        Ok(answer) => Outcome {
            strategy: name,
            answers: Ok(answer.len()),
            wall: answer.explain.wall,
            reformulation_cqs: answer.explain.reformulation_cqs,
            peak_rows: answer.explain.metrics.peak_intermediate,
        },
        Err(CoreError::ReformulationTooLarge { size, limit }) => Outcome {
            strategy: name,
            answers: Err(format!("reformulation > {limit} CQs (≥{size})")),
            wall: start.elapsed(),
            reformulation_cqs: size,
            peak_rows: 0,
        },
        Err(e) => Outcome {
            strategy: name,
            answers: Err(e.to_string()),
            wall: start.elapsed(),
            reformulation_cqs: 0,
            peak_rows: 0,
        },
    }
}

/// Render a duration compactly (µs/ms/s).
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfref_datagen::lubm::{generate, LubmConfig};

    #[test]
    fn run_strategy_reports_failures_as_outcomes() {
        let ds = generate(&LubmConfig::default());
        let q = rdfref_datagen::queries::example1(&ds, 0).expect("workload is well-formed");
        let db = Database::builder().build(ds.graph.clone());
        let opts = AnswerOptions::new()
            .with_limits(rdfref_core::ReformulationLimits::new().with_max_cqs(10));
        let outcome = run_strategy(&db, &q, Strategy::RefUcq, &opts);
        assert!(outcome.answers.is_err());
        let ok = run_strategy(&db, &q, Strategy::RefScq, &opts);
        assert!(ok.answers.is_err() || ok.answers.is_ok()); // SCQ may hit the tiny limit too
    }

    #[test]
    fn metrics_out_round_trips_through_both_exporters() {
        let ds = generate(&LubmConfig::default());
        let nq = rdfref_datagen::queries::lubm_mix(&ds)
            .expect("workload is well-formed")
            .into_iter()
            .next()
            .expect("mix is non-empty");
        let sink = MetricsSink {
            registry: Arc::new(MetricsRegistry::new()),
            out: Some(std::env::temp_dir().join("rdfref_bench_metrics_roundtrip.json")),
        };
        let db = Database::builder()
            .build(ds.graph.clone())
            .with_obs(sink.obs());
        db.run_query(&nq.cq, &Strategy::RefGCov, &AnswerOptions::default())
            .expect("GCov answers");

        let (json_path, prom_path) = sink.flush().expect("write").expect("destination set");
        let json_text = std::fs::read_to_string(&json_path).expect("read json");
        let value = rdfref_obs::json::parse(&json_text).expect("emitted JSON parses");
        let calls = value
            .get("counters")
            .and_then(|c| c.get("answer.calls"))
            .and_then(|v| v.as_f64());
        assert_eq!(calls, Some(1.0));
        assert!(value.get("spans").and_then(|s| s.get("answer")).is_some());

        let prom_text = std::fs::read_to_string(&prom_path).expect("read prom");
        let samples =
            rdfref_obs::export::parse_prometheus_text(&prom_text).expect("emitted text parses");
        assert!(samples
            .iter()
            .any(|s| s.name == "rdfref_answer_calls_total" && s.value == 1.0));
        assert!(samples.iter().any(|s| s.name.contains("span_seconds")
            && s.labels.iter().any(|(k, v)| k == "span" && v == "answer")));

        let _ = std::fs::remove_file(&json_path);
        let _ = std::fs::remove_file(&prom_path);
    }

    #[test]
    fn metrics_sink_is_disabled_without_the_flag() {
        let sink = MetricsSink {
            registry: Arc::new(MetricsRegistry::new()),
            out: None,
        };
        assert!(!sink.obs().enabled());
        assert!(sink.flush().expect("no-op flush").is_none());
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }
}
