//! # rdfref-bench — the experiment harness
//!
//! The paper's tables (E1–E8 of `DESIGN.md` §4) and the design ablations
//! (A1–A6) are row families of this library ([`families`]); one binary,
//! `exp_all <out.json>`, runs them all in-process
//! (`cargo run --release -p rdfref-bench --bin exp_all -- <out.json>`). Every
//! measured cell is sampled [`SAMPLES`] times and becomes one [`Record`]:
//! `{row, cell, metric, unit, samples, median, q1, q3}`. Counts take the same
//! shape, so a count that differs between samples is visible. The run that
//! `EXPERIMENTS.md` quotes is committed as `crates/bench/experiments.json`.
//!
//! The reference benchmark (`src/bin/benchmark/`, declared by
//! `BENCHMARK.json`) is a package of its own and the one harness behind
//! E9–E18.

pub mod families;

use rdfref_core::answer::{AnswerOptions, Database, Strategy};
use rdfref_core::CoreError;
use rdfref_storage::StorageError;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Samples per measured cell: a constant, so every record's spread is over
/// the same number of runs.
pub const SAMPLES: usize = 7;

/// What a record measures, and so whether its samples may differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Wall-clock microseconds.
    Us,
    /// A statistic of the timings taken in one sample: a ratio of two, or
    /// the rank correlation of a sample's times with exact estimates.
    Ratio,
    /// An exact count: every sample must agree.
    Count,
    /// A value every sample must agree on that is no count: a cost-model
    /// estimate or a share of counts.
    Exact,
}

impl Unit {
    /// The name written to the record.
    pub fn name(self) -> &'static str {
        match self {
            Unit::Us => "us",
            Unit::Ratio => "ratio",
            Unit::Count => "count",
            Unit::Exact => "exact",
        }
    }

    /// Whether every sample must carry the same value.
    pub fn exact(self) -> bool {
        matches!(self, Unit::Count | Unit::Exact)
    }
}

/// One measured quantity of one cell, over every sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The table row, e.g. `E1 scale=4`.
    pub row: String,
    /// The cell within the row, e.g. `Ref/SCQ`.
    pub cell: String,
    /// What was measured, e.g. `wall`.
    pub metric: &'static str,
    /// Its unit.
    pub unit: Unit,
    /// One value per sample, in sampling order.
    pub samples: Vec<f64>,
}

impl Record {
    /// The median of the samples.
    pub fn median(&self) -> f64 {
        self.quantile(2)
    }

    /// The first and third quartiles: positions `k(n+1)/4` of the sorted
    /// samples, linearly interpolated and clamped to the sample range
    /// (Python's `statistics.quantiles(n=4)`, the benchmark's rule).
    pub fn quartiles(&self) -> (f64, f64) {
        (self.quantile(1), self.quantile(3))
    }

    fn quantile(&self, k: usize) -> f64 {
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        let pos = (k * (v.len() + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, v.len());
        let hi = (lo + 1).min(v.len());
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * (pos - lo as f64).clamp(0.0, 1.0)
    }
}

/// The observations of one sample: `(row, cell, metric, unit, value)`.
#[derive(Debug, Default)]
pub struct Sample(Vec<(String, String, &'static str, Unit, f64)>);

impl Sample {
    /// Record one value.
    pub fn put(&mut self, row: &str, cell: &str, metric: &'static str, unit: Unit, value: f64) {
        self.0
            .push((row.to_string(), cell.to_string(), metric, unit, value));
    }

    /// Record a wall-clock time, in microseconds.
    pub fn time(&mut self, row: &str, cell: &str, metric: &'static str, d: Duration) {
        self.put(row, cell, metric, Unit::Us, d.as_secs_f64() * 1e6);
    }

    /// Record an exact count.
    pub fn count(&mut self, row: &str, cell: &str, metric: &'static str, n: usize) {
        self.put(row, cell, metric, Unit::Count, n as f64);
    }
}

/// A run of row families: how many samples each cell takes, which of a
/// family's configured points it visits, and the records so far.
#[derive(Debug)]
pub struct Run {
    samples: usize,
    smallest: bool,
    /// Every record, in the order the families produced them.
    pub records: Vec<Record>,
}

impl Run {
    /// [`SAMPLES`] samples per cell at every configured point: the run
    /// `EXPERIMENTS.md` quotes.
    pub fn full() -> Run {
        Run {
            samples: SAMPLES,
            smallest: false,
            records: Vec::new(),
        }
    }

    /// `samples` per cell at each family's smallest configured point only:
    /// the shape and the exact counts of a full run in a fraction of its time.
    pub fn smallest(samples: usize) -> Run {
        Run {
            samples,
            smallest: true,
            records: Vec::new(),
        }
    }

    /// The configured points this run visits.
    pub fn points<'a, T>(&self, all: &'a [T]) -> &'a [T] {
        if self.smallest {
            &all[..1]
        } else {
            all
        }
    }

    /// Call `f` once per sample and append one record per observation.
    /// Every call must make the same observations in the same order.
    pub fn sample(&mut self, mut f: impl FnMut(&mut Sample)) {
        let start = self.records.len();
        for i in 0..self.samples {
            let mut sample = Sample::default();
            f(&mut sample);
            if i == 0 {
                for (row, cell, metric, unit, _) in &sample.0 {
                    self.records.push(Record {
                        row: row.clone(),
                        cell: cell.clone(),
                        metric,
                        unit: *unit,
                        samples: Vec::with_capacity(self.samples),
                    });
                }
            }
            let records = &mut self.records[start..];
            assert_eq!(sample.0.len(), records.len(), "samples differ");
            for (record, (row, cell, metric, _, value)) in records.iter_mut().zip(sample.0) {
                assert!(record.row == row && record.cell == cell && record.metric == metric);
                record.samples.push(value);
            }
        }
    }

    /// The record of `(row, cell, metric)`.
    pub fn get(&self, row: &str, cell: &str, metric: &str) -> Option<&Record> {
        self.records
            .iter()
            .find(|r| r.row == row && r.cell == cell && r.metric == metric)
    }
}

/// Time a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// The outcome of one answering call. A typed refusal is a result of these
/// experiments, not an error.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Answered.
    Answered {
        /// Wall-clock of the whole call (`Explain.wall`).
        wall: Duration,
        /// Answer count.
        answers: usize,
        /// CQ disjuncts evaluated.
        cqs: usize,
        /// Peak intermediate relation size.
        peak_rows: usize,
    },
    /// Refused by the reformulation size limit, at `size` CQs.
    TooLarge {
        /// The size that was refused.
        size: usize,
    },
    /// Refused by the row budget.
    OverBudget {
        /// The budget that was exceeded.
        budget: usize,
    },
}

impl Outcome {
    /// Record this outcome as cell `cell` of `row`: wall-clock and answer
    /// count, or the size that was refused.
    pub fn put(&self, s: &mut Sample, row: &str, cell: &str) {
        match *self {
            Outcome::Answered { wall, answers, .. } => {
                s.time(row, cell, "wall", wall);
                s.count(row, cell, "answers", answers);
            }
            Outcome::TooLarge { size } => s.count(row, cell, "refused_cqs", size),
            Outcome::OverBudget { budget } => s.count(row, cell, "refused_rows", budget),
        }
    }
}

/// Answer `cq` with `strategy`. Refusals by the size limit or the row
/// budget are outcomes; any other error is a defect and panics.
pub fn run_strategy(
    db: &Database,
    cq: &rdfref_query::Cq,
    strategy: &Strategy,
    opts: &AnswerOptions,
) -> Outcome {
    match db.run_query(cq, strategy, opts) {
        Ok(answer) => Outcome::Answered {
            wall: answer.explain.wall,
            answers: answer.len(),
            cqs: answer.explain.reformulation_cqs,
            peak_rows: answer.explain.metrics.peak_intermediate(),
        },
        Err(CoreError::ReformulationTooLarge { size, .. }) => Outcome::TooLarge { size },
        Err(CoreError::Storage(StorageError::RowBudgetExceeded { budget })) => {
            Outcome::OverBudget { budget }
        }
        Err(e) => panic!("{}: {e}", strategy.name()),
    }
}

/// Where a run was made: written as the document's header.
#[derive(Debug, Clone)]
pub struct Header {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The commit the harness was built from.
    pub commit: String,
    /// Whether the working tree had uncommitted changes.
    pub dirty: bool,
    /// `rustc --version`.
    pub rustc: String,
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

/// `v` to `digits` significant figures, integers whole.
fn significant(v: f64, digits: i32) -> String {
    if v.fract() == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (digits - 1 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.decimals$}")
}

/// The JSON document: the header, then one record per line, in run order.
pub fn to_json(header: &Header, records: &[Record]) -> String {
    let mut out = format!(
        "{{\"header\": {{\"nproc\": {}, \"commit\": {}, \"dirty\": {}, \"rustc\": {}}},\n\"records\": [",
        header.nproc,
        json_string(&header.commit),
        header.dirty,
        json_string(&header.rustc)
    );
    for (i, r) in records.iter().enumerate() {
        let samples: Vec<String> = r.samples.iter().map(|&v| significant(v, 6)).collect();
        let (q1, q3) = r.quartiles();
        let _ = write!(
            out,
            "{}\n{{\"row\": {}, \"cell\": {}, \"metric\": {}, \"unit\": {}, \"samples\": [{}], \"median\": {}, \"q1\": {}, \"q3\": {}}}",
            if i == 0 { "" } else { "," },
            json_string(&r.row),
            json_string(&r.cell),
            json_string(r.metric),
            json_string(r.unit.name()),
            samples.join(", "),
            significant(r.median(), 6),
            significant(q1, 6),
            significant(q3, 6),
        );
    }
    out.push_str("\n]}\n");
    out
}

/// One plain line per record, grouped under its row: median [q1–q3] unit (n).
pub fn render(records: &[Record]) -> String {
    let mut out = String::new();
    let mut row = "";
    for r in records {
        if r.row != row {
            row = &r.row;
            let _ = writeln!(out, "\n## {row}");
        }
        let (q1, q3) = r.quartiles();
        let value = if r.unit.exact() {
            significant(r.median(), 3)
        } else {
            format!(
                "{} [{}–{}]",
                significant(r.median(), 3),
                significant(q1, 3),
                significant(q3, 3)
            )
        };
        let _ = writeln!(
            out,
            "  {:<44} {:<14} {value} {} (n={})",
            r.cell,
            r.metric,
            r.unit.name(),
            r.samples.len()
        );
    }
    out
}

/// One record of a written document, as [`against`] reads it back.
#[derive(Debug, Clone, PartialEq)]
struct Written {
    row: String,
    cell: String,
    metric: String,
    unit: String,
    median: f64,
    q1: f64,
    q3: f64,
}

impl Written {
    fn key(&self) -> (&str, &str, &str) {
        (&self.row, &self.cell, &self.metric)
    }

    fn find<'a>(records: &'a [Written], key: (&str, &str, &str)) -> Option<&'a Written> {
        records.iter().find(|r| r.key() == key)
    }
}

/// The records of a document [`to_json`] wrote, in document order.
fn read_records(text: &str) -> Result<Vec<Written>, String> {
    let doc = rdfref_obs::json::parse(text)?;
    let records = doc
        .get("records")
        .and_then(|r| r.as_array())
        .ok_or("no records")?;
    records
        .iter()
        .map(|r| {
            let text = |k: &str| {
                r.get(k)
                    .and_then(|v| v.as_str())
                    .map(str::to_string)
                    .ok_or(format!("a record without {k}"))
            };
            let number = |k: &str| {
                r.get(k)
                    .and_then(|v| v.as_f64())
                    .ok_or(format!("a record without {k}"))
            };
            Ok(Written {
                row: text("row")?,
                cell: text("cell")?,
                metric: text("metric")?,
                unit: text("unit")?,
                median: number("median")?,
                q1: number("q1")?,
                q3: number("q3")?,
            })
        })
        .collect()
}

/// The records of document `new` against those of `old` (two documents
/// [`to_json`] wrote), one line per record both hold: the ratio of medians,
/// new over old, flagged `IQRs apart` when the two interquartile ranges do
/// not overlap — the frozen benchmark's `compare` rule of reading a shift
/// against the spread of both sides, here with the spread as the bound.
/// Then every `count`/`exact` record whose value changed, and the records
/// only one side holds.
pub fn against(old: &str, new: &str) -> Result<String, String> {
    let old = read_records(old).map_err(|e| format!("old document: {e}"))?;
    let new = read_records(new).map_err(|e| format!("new document: {e}"))?;
    let mut out = String::new();
    let mut changed = Vec::new();
    let (mut shared, mut apart) = (0, 0);
    for n in &new {
        let Some(o) = Written::find(&old, n.key()) else {
            continue;
        };
        shared += 1;
        let (row, cell, metric) = n.key();
        if matches!(n.unit.as_str(), "count" | "exact") {
            if o.median != n.median || o.unit != n.unit {
                changed.push(format!(
                    "  {row} | {cell} | {metric}: {} → {}",
                    significant(o.median, 6),
                    significant(n.median, 6)
                ));
            }
            continue;
        }
        let flag = if n.q3 < o.q1 || o.q3 < n.q1 {
            apart += 1;
            "  IQRs apart"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{row} | {cell} | {metric}: {} [{}–{}] → {} [{}–{}] {} ×{}{flag}",
            significant(o.median, 3),
            significant(o.q1, 3),
            significant(o.q3, 3),
            significant(n.median, 3),
            significant(n.q1, 3),
            significant(n.q3, 3),
            n.unit,
            significant(n.median / o.median, 3),
        );
    }
    let _ = writeln!(
        out,
        "\n{shared} shared records, {apart} with IQRs apart; {} count/exact records changed:",
        changed.len()
    );
    for line in &changed {
        let _ = writeln!(out, "{line}");
    }
    for (side, mine, theirs) in [("old", &old, &new), ("new", &new, &old)] {
        for r in mine.iter() {
            if Written::find(theirs, r.key()).is_none() {
                let (row, cell, metric) = r.key();
                let _ = writeln!(out, "only in {side}: {row} | {cell} | {metric}");
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn against_reads_ratios_flags_apart_iqrs_and_lists_changed_counts() {
        let header = Header {
            nproc: 2,
            commit: "c".into(),
            dirty: false,
            rustc: "r".into(),
        };
        let record = |cell: &str, metric: &'static str, unit: Unit, samples: Vec<f64>| Record {
            row: "E1 scale=1".into(),
            cell: cell.into(),
            metric,
            unit,
            samples,
        };
        let old = to_json(
            &header,
            &[
                record("Ref/SCQ", "wall", Unit::Us, vec![90.0, 100.0, 110.0]),
                record("paper cover", "wall", Unit::Us, vec![10.0, 11.0, 12.0]),
                record("Ref/SCQ", "answers", Unit::Count, vec![5.0; 3]),
                record("Ref/UCQ", "refused_cqs", Unit::Count, vec![7.0; 3]),
                record("gone", "wall", Unit::Us, vec![1.0; 3]),
            ],
        );
        let new = to_json(
            &header,
            &[
                record("Ref/SCQ", "wall", Unit::Us, vec![9.0, 10.0, 11.0]),
                record("paper cover", "wall", Unit::Us, vec![11.0, 12.0, 13.0]),
                record("Ref/SCQ", "answers", Unit::Count, vec![5.0; 3]),
                record("Ref/UCQ", "refused_cqs", Unit::Count, vec![8.0; 3]),
                record("new", "wall", Unit::Us, vec![1.0; 3]),
            ],
        );
        let report = against(&old, &new).expect("both documents parse");
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(
            lines,
            [
                "E1 scale=1 | Ref/SCQ | wall: 100 [90–110] → 10 [9–11] us ×0.100  IQRs apart",
                "E1 scale=1 | paper cover | wall: 11 [10–12] → 12 [11–13] us ×1.09",
                "",
                "4 shared records, 1 with IQRs apart; 1 count/exact records changed:",
                "  E1 scale=1 | Ref/UCQ | refused_cqs: 7 → 8",
                "only in old: E1 scale=1 | gone | wall",
                "only in new: E1 scale=1 | new | wall",
            ]
        );
        assert!(against("{}", &new).is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        let record = |samples: Vec<f64>| Record {
            row: "r".into(),
            cell: "c".into(),
            metric: "m",
            unit: Unit::Us,
            samples,
        };
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let r = record((1..=10).map(f64::from).collect());
        assert_eq!((r.quartiles(), r.median()), ((2.75, 8.25), 5.5));
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let r = record(vec![7.0, 1.0, 6.0, 2.0, 5.0, 3.0, 4.0]);
        assert_eq!((r.quartiles(), r.median()), ((2.0, 6.0), 4.0));
        let r = record(vec![3.0]);
        assert_eq!((r.quartiles(), r.median()), ((3.0, 3.0), 3.0));
    }

    #[test]
    fn cells_with_quotes_and_backslashes_round_trip_through_the_document() {
        let header = Header {
            nproc: 1,
            commit: "c".into(),
            dirty: true,
            rustc: "r".into(),
        };
        let cell = "literal \"a\\b\"\n";
        let record = Record {
            row: "r".into(),
            cell: cell.into(),
            metric: "m",
            unit: Unit::Ratio,
            samples: vec![0.0668498, 2.0],
        };
        let doc = rdfref_obs::json::parse(&to_json(&header, &[record])).expect("parses");
        let records = doc
            .get("records")
            .and_then(|r| r.as_array())
            .expect("records");
        assert_eq!(records[0].get("cell").and_then(|c| c.as_str()), Some(cell));
        let median = records[0].get("median").and_then(|m| m.as_f64());
        assert_eq!(median, Some(1.03342));
    }
}
