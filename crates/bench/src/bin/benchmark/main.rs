//! The repository's one reference benchmark. See `README.md` beside this
//! file for workloads, metrics and how to run and compare.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload; the last stdout line is the result as one JSON object
//! benchmark [--seed <n>] [--seconds <s>] [--runs <k>] [--out <dir>] [--smoke]
//!     every workload: <k> untraced runs, then one traced run; writes
//!     result.json and trace-<workload>.json to <dir> (default
//!     <target>/benchmark/)
//! benchmark compare <a.json> <b.json>
//!     per (metric, workload): both medians, relative change, verdict
//! benchmark --write-expected [--seed <n>]...
//!     regenerate expected.json for the given seeds (default 1 and 2)
//! ```

mod affinity;
mod alloc;
mod check;
mod churn;
mod compare;
mod probe;
mod replay;
mod report;
mod stats;
mod trace;
mod workload;

use check::Expected;
use replay::TracedRun;
use report::WorkloadReport;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Dataset, ReadWorkload, Sizes, UntracedRun, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// The source directory of the benchmark, relative to the repository root
/// (where `--write-expected` is run from).
const SOURCE_DIR: &str = "crates/bench/src/bin/benchmark";

/// Seconds per run when `--seconds` is not given (BENCHMARK.json's
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 30.0;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seeds: Vec<u64>,
    seconds: f64,
    trace: bool,
    runs: usize,
    smoke: bool,
    write_expected: bool,
    compare: Option<(PathBuf, PathBuf)>,
    /// Where result and trace files go.
    out: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seeds: Vec::new(),
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 1,
        smoke: false,
        write_expected: false,
        compare: None,
        out: report::default_out_dir(),
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "compare" => {
                args.compare = Some((value("compare")?.into(), value("compare")?.into()));
            }
            "--workload" => {
                let name = value("--workload")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}; known: {WORKLOADS:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seeds.push(
                value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?,
            ),
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            "--out" => args.out = value("--out")?.into(),
            "--smoke" => args.smoke = true,
            "--write-expected" => args.write_expected = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One of the four workloads, built from its seed.
enum AnyWorkload {
    Read(ReadWorkload),
    Churn(churn::ChurnWorkload),
}

impl AnyWorkload {
    fn build(name: &str, sizes: &Sizes, seed: u64) -> AnyWorkload {
        match name {
            "lubm_mix" => AnyWorkload::Read(workload::lubm_mix(sizes, seed)),
            "plan_cold" => AnyWorkload::Read(workload::plan_cold(sizes, seed)),
            "cyclic_join" => AnyWorkload::Read(workload::cyclic_join(sizes, seed)),
            "churn" => AnyWorkload::Churn(churn::churn(sizes, seed)),
            other => unreachable!("workload names are validated at parse time: {other}"),
        }
    }

    fn datasets(&self) -> Vec<&Dataset> {
        match self {
            AnyWorkload::Read(w) => w.datasets.iter().collect(),
            AnyWorkload::Churn(w) => vec![&w.dataset],
        }
    }

    fn untraced(&self, sizes: &Sizes, seconds: f64) -> UntracedRun {
        match self {
            AnyWorkload::Read(w) => workload::run_untraced(w, sizes, seconds),
            AnyWorkload::Churn(w) => {
                pin_churn();
                workload::run_untraced(w, sizes, seconds)
            }
        }
    }

    fn traced(&self) -> TracedRun {
        match self {
            AnyWorkload::Read(w) => replay::run_traced(w),
            AnyWorkload::Churn(w) => {
                pin_churn();
                replay::run_traced_churn(w)
            }
        }
    }

    /// The oracle's fingerprints, keyed `dataset/query`.
    fn oracle(&self) -> BTreeMap<String, check::Fingerprint> {
        self.datasets()
            .into_iter()
            .flat_map(|d| {
                d.queries
                    .iter()
                    .zip(d.oracle())
                    .map(|(q, fp)| (format!("{}/{}", d.name, q.name), fp))
            })
            .collect()
    }
}

/// `churn` runs with its client and its serving writer on one CPU (see
/// `affinity.rs`); it is the last workload, so nothing is undone after it.
fn pin_churn() {
    match affinity::pin_to_one_cpu() {
        Some(cpu) => println!("churn: client and serving writer pinned to CPU {cpu}"),
        None => println!("churn: CPU affinity unavailable, running unpinned"),
    }
}

/// For seeds recorded in `expected.json` (full sizes only), the oracle
/// itself must still say what was committed. Reports the queries that
/// drifted and returns how many; each counts as a failed request.
fn oracle_drift(name: &str, w: &AnyWorkload, sizes: &Sizes, seed: u64) -> u64 {
    if *sizes != Sizes::FULL {
        return 0;
    }
    let Some(committed) = check::committed(seed) else {
        return 0;
    };
    let recorded = committed.get(name).cloned().unwrap_or_default();
    let mut drifted = 0;
    for (query, fp) in w.oracle() {
        if recorded.get(&query) != Some(&fp) {
            eprintln!(
                "expected.json: {name}: {query} oracle says {fp:?}, recorded {:?}",
                recorded.get(&query)
            );
            drifted += 1;
        }
    }
    drifted
}

/// The driver contract: one workload, traced or not, one JSON result line.
/// Returns whether every answer was correct.
fn run_single(name: &str, args: &Args, sizes: &Sizes) -> Result<bool, String> {
    let seed = args.seeds.first().copied().unwrap_or(1);
    let w = AnyWorkload::build(name, sizes, seed);
    let drifted = oracle_drift(name, &w, sizes, seed);
    if args.trace {
        let run = w.traced();
        report::print_metrics(name, &run.metrics);
        println!(
            "{name}: {} traced requests, {} spans",
            run.traced_requests,
            run.tracer.spans().len()
        );
        let path = args.out.join(format!("trace-{name}.json"));
        report::write_file(&path, &report::trace_json(&run))?;
        let failed = run.failed + drifted;
        println!(
            "{}",
            report::result_line(run.attempted + drifted, failed, &run.metrics)
        );
        return Ok(failed == 0);
    }
    let run = w.untraced(sizes, args.seconds);
    let e2e = run
        .end_to_end()
        .map_err(|e| format!("{name}: {e} ({} timed requests)", run.rec.timed_requests()))?;
    report::print_metrics(name, &e2e.values());
    println!(
        "{name}: times are scaled to the reference machine; the probe read this one {:.3}x slower over the timed window",
        e2e.speed_factor
    );
    println!(
        "{name}: failed_share {} ({} of {} requests; {} timed over {} passes, percentiles over {} blocks); failing cells: {:?}",
        e2e.failed_share,
        e2e.failed,
        e2e.attempted,
        e2e.timed_requests,
        e2e.passes,
        e2e.blocks,
        run.rec.failed_cells()
    );
    let failed = e2e.failed + drifted;
    println!(
        "{}",
        report::result_line(e2e.attempted + drifted, failed, &e2e.values())
    );
    Ok(failed == 0)
}

/// Every workload: `--runs` untraced runs, one traced run, result.json.
/// Returns whether every answer was correct.
fn run_all(args: &Args, sizes: &Sizes) -> Result<bool, String> {
    let seed = args.seeds.first().copied().unwrap_or(1);
    let out = &args.out;
    let mut reports = Vec::new();
    let mut all_correct = true;
    for name in WORKLOADS {
        let w = AnyWorkload::build(name, sizes, seed);
        let mut report = WorkloadReport::new(name);
        report.failed = oracle_drift(name, &w, sizes, seed);
        report.attempted = report.failed;
        for _ in 0..args.runs {
            let run = w.untraced(sizes, args.seconds);
            match run.end_to_end() {
                Ok(e2e) => report.add_untraced(&e2e, &run),
                // Without p99 the workload's end-to-end row is refused as a
                // whole; smoke sizes run one short pass and never get there.
                Err(e) if args.smoke => report.add_refused(&run, &e.to_string()),
                Err(e) => return Err(format!("{name}: {e}")),
            }
        }
        let traced = w.traced();
        report::write_file(
            &out.join(format!("trace-{name}.json")),
            &report::trace_json(&traced),
        )?;
        report.add_traced(&traced);
        report.print();
        all_correct &= report.failed == 0;
        reports.push(report);
    }
    let header = report::Header::collect(seed, args.seconds, args.runs, sizes.label);
    let path = out.join("result.json");
    report::write_file(&path, &report::result_json(&header, &reports))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

/// Regenerate `expected.json` from the oracle, for review by hand.
fn write_expected(args: &Args) -> Result<(), String> {
    let seeds = if args.seeds.is_empty() {
        vec![1, 2]
    } else {
        args.seeds.clone()
    };
    let mut per_seed: BTreeMap<u64, Expected> = BTreeMap::new();
    for seed in seeds {
        let expected = per_seed.entry(seed).or_default();
        for name in WORKLOADS {
            let w = AnyWorkload::build(name, &Sizes::FULL, seed);
            expected.insert(name.to_string(), w.oracle());
        }
    }
    let path = PathBuf::from(SOURCE_DIR).join("expected.json");
    report::write_file(&path, &check::render(&per_seed))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        return compare::compare(a, b);
    }
    if args.write_expected {
        return write_expected(args).map(|()| true);
    }
    let sizes = if args.smoke {
        Sizes::SMOKE
    } else {
        Sizes::FULL
    };
    match &args.workload {
        Some(name) => run_single(name, args, &sizes),
        None => run_all(args, &sizes),
    }
}

fn main() -> ExitCode {
    // Before the first large allocation; where the allocator is not glibc's
    // the run goes on with the platform's behaviour.
    alloc::keep_freed_memory();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&raw).and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "churn",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload.as_deref(), Some("churn"));
        assert_eq!(
            (a.seeds.as_slice(), a.seconds, a.trace),
            (&[7][..], 3.0, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }

    /// Keeps the whole harness — every workload, untraced and traced,
    /// checks, report and result file — compiling and running under
    /// `cargo test`: one short pass at smoke sizes (1.5 s in a release
    /// build, under 10 s in a debug build).
    #[test]
    fn smoke_run_answers_everything_correctly() {
        let out = std::env::temp_dir().join(format!("rdfref-benchmark-{}", std::process::id()));
        let out_arg = out.to_str().expect("UTF-8 temp dir");
        let a = args(&["--smoke", "--seconds", "0.05", "--out", out_arg]).expect("valid");
        assert_eq!(run(&a), Ok(true));
        let text = std::fs::read_to_string(out.join("result.json")).expect("written");
        let _ = std::fs::remove_dir_all(&out);
        let doc = rdfref_obs::json::parse(&text).expect("result.json is JSON");
        for name in WORKLOADS {
            let w = doc.get("workloads").and_then(|w| w.get(name));
            assert!(w.is_some(), "{name} missing from result.json");
        }
    }

    /// BENCHMARK.json at the repository root names exactly the workloads
    /// and metrics this binary reports.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let spec = rdfref_obs::json::parse(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json is JSON");
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .and_then(|v| v.as_array())
                .expect("array")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let e2e: Vec<&str> = workload::END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<&str> = replay::PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names("per_layer"), layers);
        assert_eq!(
            spec.get("run_seconds").and_then(|v| v.as_f64()),
            Some(DEFAULT_SECONDS)
        );
    }
}
