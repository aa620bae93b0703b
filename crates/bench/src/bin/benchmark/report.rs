//! What a run prints and writes: every metric by name with its unit, the
//! one-line JSON result, and `result.json`.

use crate::replay::TracedRun;
use crate::workload::{EndToEnd, UntracedRun};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

pub type Metric = (&'static str, f64, &'static str);

/// `<target>/benchmark`, where `<target>` is `CARGO_TARGET_DIR` if set and
/// `target` otherwise, relative to the working directory.
pub fn default_out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark")
}

pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A float as a JSON number, with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The trace file of a run: per span name the count, total and self time
/// over the whole run, then the spans of the replayed set-ups and of the
/// requests.
pub fn trace_json(run: &TracedRun) -> String {
    let mut by_name = run.tracer.totals();
    for (name, t) in run.setup_tracer.totals() {
        let sum = by_name.entry(name).or_default();
        sum.count += t.count;
        sum.total_ns += t.total_ns;
        sum.self_ns += t.self_ns;
    }
    let by_name: Vec<String> = by_name
        .iter()
        .map(|(name, t)| {
            format!(
                "\n{}: {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                json_string(name),
                t.count,
                t.total_ns,
                t.self_ns
            )
        })
        .collect();
    format!(
        "{{\"by_name\": {{{}\n}},\n\"setup\": {},\"requests\": {}}}\n",
        by_name.join(","),
        run.setup_tracer.to_json(),
        run.tracer.to_json()
    )
}

pub fn print_metrics(workload: &str, metrics: &[Metric]) {
    for (name, value, unit) in metrics {
        println!("{workload:12} {name:42} {value:>18.6} {unit}");
    }
}

/// The result of one run as one JSON object on one line: `correct`,
/// `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        metrics.join(", ")
    )
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how a result was measured.
pub struct Header {
    pub nproc: usize,
    pub commit: String,
    pub rustc: String,
    pub seed: u64,
    pub seconds: f64,
    pub runs: usize,
    pub sizes: &'static str,
}

impl Header {
    pub fn collect(seed: u64, seconds: f64, runs: usize, sizes: &'static str) -> Header {
        Header {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit: command_line("git", &["rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["-V"]),
            seed,
            seconds,
            runs,
            sizes,
        }
    }
}

/// Everything measured on one workload: one value per untraced run for the
/// end-to-end metrics, one traced run for the per-layer metrics.
#[derive(Default)]
pub struct WorkloadReport {
    pub name: &'static str,
    /// Per end-to-end metric, one value per run.
    pub end_to_end: Vec<(&'static str, &'static str, Vec<f64>)>,
    pub per_layer: Vec<Metric>,
    /// Per run: timed requests, passes, and the probe's speed factor over
    /// the timed window (the times above are measured times over about this).
    pub requests: Vec<usize>,
    pub passes: Vec<usize>,
    pub speed_factors: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failed_cells: Vec<String>,
    /// Median latency per cell (µs) of the last untraced run.
    pub cells: Vec<(String, f64)>,
    /// Why the end-to-end row is missing, if it was refused.
    pub refused: Option<String>,
}

impl WorkloadReport {
    pub fn new(name: &'static str) -> WorkloadReport {
        WorkloadReport {
            name,
            ..WorkloadReport::default()
        }
    }

    fn add_run(&mut self, run: &UntracedRun) {
        self.requests.push(run.rec.timed_requests());
        self.passes.push(run.rec.passes);
        self.speed_factors.push(run.rec.reading().speed_factor());
        self.attempted += run.rec.attempted;
        self.failed += run.rec.failed;
        for cell in &run.rec.failed_cells() {
            if !self.failed_cells.contains(cell) {
                self.failed_cells.push(cell.clone());
            }
        }
        self.cells = run.rec.cell_median_us();
    }

    pub fn add_untraced(&mut self, e2e: &EndToEnd, run: &UntracedRun) {
        self.add_run(run);
        if self.end_to_end.is_empty() {
            self.end_to_end = e2e
                .values()
                .into_iter()
                .map(|(name, _, unit)| (name, unit, Vec::new()))
                .collect();
        }
        for ((_, _, values), (_, value, _)) in self.end_to_end.iter_mut().zip(e2e.values()) {
            values.push(value);
        }
    }

    /// A run whose end-to-end row was refused (too few requests for p99).
    pub fn add_refused(&mut self, run: &UntracedRun, why: &str) {
        self.add_run(run);
        self.refused = Some(why.to_string());
    }

    pub fn add_traced(&mut self, traced: &TracedRun) {
        self.per_layer = traced.metrics.clone();
        self.attempted += traced.attempted;
        self.failed += traced.failed;
    }

    pub fn print(&self) {
        println!("== {} ==", self.name);
        for (name, unit, values) in &self.end_to_end {
            let median = crate::stats::median(values);
            println!(
                "{:12} {name:42} {median:>18.6} {unit}  (median of {} run(s))",
                self.name,
                values.len()
            );
        }
        if let Some(why) = &self.refused {
            println!("{:12} end-to-end metrics refused: {why}", self.name);
        }
        println!(
            "{:12} {:42} {:>18.6} share  ({} of {} requests; timed requests per run {:?}, passes {:?})",
            self.name,
            "failed_share",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted,
            self.requests,
            self.passes
        );
        println!(
            "{:12} times are scaled to the reference machine; speed factor per run {:.3?}",
            self.name, self.speed_factors
        );
        if !self.failed_cells.is_empty() {
            println!("{:12} failing cells: {:?}", self.name, self.failed_cells);
        }
        print_metrics(self.name, &self.per_layer);
    }

    fn to_json(&self) -> String {
        let e2e: Vec<String> = self
            .end_to_end
            .iter()
            .map(|(name, unit, values)| {
                let values: Vec<String> = values.iter().map(|v| json_number(*v)).collect();
                format!(
                    "      {}: {{\"unit\": {}, \"values\": [{}]}}",
                    json_string(name),
                    json_string(unit),
                    values.join(", ")
                )
            })
            .collect();
        let layers: Vec<String> = self
            .per_layer
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "      {}: {{\"unit\": {}, \"value\": {}}}",
                    json_string(name),
                    json_string(unit),
                    json_number(*value)
                )
            })
            .collect();
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|(name, us)| format!("      {}: {}", json_string(name), json_number(*us)))
            .collect();
        let strings = |items: &[String]| {
            items
                .iter()
                .map(|s| json_string(s))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\n    \"attempted\": {},\n    \"failed\": {},\n    \"failed_share\": {},\n    \
             \"timed_requests\": {:?},\n    \"passes\": {:?},\n    \"speed_factor\": {:?},\n    \
             \"failed_cells\": [{}],\n    \
             \"end_to_end\": {{\n{}\n    }},\n    \
             \"per_layer\": {{\n{}\n    }},\n    \"cell_median_us\": {{\n{}\n    }}\n  }}",
            self.attempted,
            self.failed,
            json_number(self.failed as f64 / self.attempted.max(1) as f64),
            self.requests,
            self.passes,
            self.speed_factors,
            strings(&self.failed_cells),
            e2e.join(",\n"),
            layers.join(",\n"),
            cells.join(",\n"),
        )
    }
}

pub fn result_json(header: &Header, reports: &[WorkloadReport]) -> String {
    let workloads: Vec<String> = reports
        .iter()
        .map(|r| format!("  {}: {}", json_string(r.name), r.to_json()))
        .collect();
    format!(
        "{{\n\"header\": {{\"nproc\": {}, \"commit\": {}, \"rustc\": {}, \"seed\": {}, \
         \"seconds\": {}, \"runs\": {}, \"sizes\": {}}},\n\"workloads\": {{\n{}\n}}\n}}\n",
        header.nproc,
        json_string(&header.commit),
        json_string(&header.rustc),
        header.seed,
        json_number(header.seconds),
        header.runs,
        json_string(header.sizes),
        workloads.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfref_obs::json;

    #[test]
    fn result_line_is_the_contracted_object() {
        let line = result_line(
            1000,
            0,
            &[("latency_ms_p50", 1.2034, "ms"), ("setup_s", 0.8127, "s")],
        );
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).expect("one JSON object");
        let keys: Vec<&String> = doc.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&json::Value::Bool(true)));
        let p50 = doc.get("metrics").and_then(|m| m.get("latency_ms_p50"));
        assert_eq!(
            p50.and_then(|m| m.get("value")).and_then(|v| v.as_f64()),
            Some(1.2034)
        );
        assert_eq!(
            p50.and_then(|m| m.get("unit")).and_then(|v| v.as_str()),
            Some("ms")
        );
        let wrong = json::parse(&result_line(10, 1, &[])).expect("JSON");
        assert_eq!(wrong.get("correct"), Some(&json::Value::Bool(false)));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
