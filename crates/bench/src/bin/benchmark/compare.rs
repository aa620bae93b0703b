//! `benchmark compare <a.json> <b.json>`: two result files against the
//! bounds in `BENCHMARK.json`, one row per (metric, workload).
//!
//! `a` is the base (the parent commit, or the first of two run sets of the
//! same commit); every ratio is printed with it. A metric whose run-to-run
//! spread is wider than its bound is `unresolved`, not `ok`.

use crate::stats;
use crate::workload::WORKLOADS;
use rdfref_obs::json::{self, Value};
use std::path::Path;

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread between runs of one side exceeds the bound, so a shift of
    /// the size of the bound could not be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Interquartile range as a share of the median; 0 for a single run.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = stats::quartiles(values);
    (q3 - q1) / stats::median(values).abs()
}

/// `(base median, other median, relative change, verdict)`.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (f64, f64, f64, Verdict) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let change = (mb - ma) / ma.abs();
    let worsening = if lower_is_better { change } else { -change };
    let verdict = if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (ma, mb, change, verdict)
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn numbers(v: Option<&Value>) -> Vec<f64> {
    v.and_then(Value::as_array)
        .map(|items| items.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Compare two result files; `Ok(true)` when no row regressed or is
/// unresolved. Reads the bounds from `BENCHMARK.json` in the working
/// directory.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let spec = load(Path::new("BENCHMARK.json"))?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (side, doc) in [("a", &a), ("b", &b)] {
        if let Some(h) = doc.get("header") {
            let field = |k: &str| match h.get(k) {
                Some(Value::String(s)) => s.clone(),
                Some(Value::Number(n)) => n.to_string(),
                _ => "?".to_string(),
            };
            println!(
                "{side}: commit {} seed {} seconds {} runs {} nproc {} sizes {} ({})",
                field("commit"),
                field("seed"),
                field("seconds"),
                field("runs"),
                field("nproc"),
                field("sizes"),
                field("rustc"),
            );
        }
    }
    let workload =
        |doc: &Value, name: &str| doc.get("workloads").and_then(|w| w.get(name)).cloned();
    let mut all_ok = true;
    println!(
        "{:22} {:12} {:>16} {:>16} {:>9} {:>6}  verdict",
        "metric", "workload", "a (base)", "b", "change", "bound"
    );
    let metrics = spec
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    for metric in metrics {
        let name = metric.get("name").and_then(Value::as_str).unwrap_or("?");
        let bound = metric.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
        let lower = metric.get("better").and_then(Value::as_str) != Some("higher");
        for w in WORKLOADS {
            let values = |doc: &Value| {
                numbers(
                    workload(doc, w)
                        .as_ref()
                        .and_then(|w| w.get("end_to_end"))
                        .and_then(|m| m.get(name))
                        .and_then(|m| m.get("values")),
                )
            };
            let (va, vb) = (values(&a), values(&b));
            if va.is_empty() || vb.is_empty() {
                println!("{name:22} {w:12} missing from one side");
                all_ok = false;
                continue;
            }
            let (ma, mb, change, verdict) = judge(&va, &vb, lower, bound);
            all_ok &= verdict == Verdict::Ok;
            println!(
                "{name:22} {w:12} {ma:>16.6} {mb:>16.6} {:>+8.2}% {:>5.0}%  {}",
                change * 100.0,
                bound * 100.0,
                verdict.label()
            );
        }
    }
    // `failed_share` must be 0: any failure is a regression.
    for w in WORKLOADS {
        let failed = |doc: &Value| {
            workload(doc, w)
                .as_ref()
                .and_then(|w| w.get("failed_share"))
                .and_then(Value::as_f64)
        };
        let (fa, fb) = (failed(&a).unwrap_or(0.0), failed(&b).unwrap_or(0.0));
        let verdict = if fb > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        all_ok &= verdict == Verdict::Ok;
        println!(
            "{:22} {w:12} {fa:>16} {fb:>16} {:>9} {:>6}  {}",
            "failed_share",
            "",
            "0",
            verdict.label()
        );
    }
    // The layer split has no bounds; the deltas say where a change landed.
    println!("\nper-layer (one traced run each; no verdict):");
    for w in WORKLOADS {
        let layers = |doc: &Value| workload(doc, w).and_then(|w| w.get("per_layer").cloned());
        let (Some(la), Some(lb)) = (layers(&a), layers(&b)) else {
            continue;
        };
        for (name, entry) in la.as_object().into_iter().flatten() {
            let value = |e: Option<&Value>| e.and_then(|e| e.get("value")).and_then(Value::as_f64);
            let (Some(x), Some(y)) = (value(Some(entry)), value(lb.get(name))) else {
                continue;
            };
            if x == 0.0 && y == 0.0 {
                continue;
            }
            let change = if x == 0.0 {
                "new".to_string()
            } else {
                format!("{:+.2}%", (y - x) / x.abs() * 100.0)
            };
            println!("{name:42} {w:12} {x:>16.6} {y:>16.6} {change:>9}");
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better: +3 % is within a 5 % bound, +8 % is not.
        assert_eq!(judge(&steady, &[103.0], true, 0.05).3, Verdict::Ok);
        assert_eq!(judge(&steady, &[108.0], true, 0.05).3, Verdict::Regressed);
        // Higher is better: the same +8 % is an improvement, −8 % regresses.
        assert_eq!(judge(&steady, &[108.0], false, 0.05).3, Verdict::Ok);
        assert_eq!(judge(&steady, &[92.0], false, 0.05).3, Verdict::Regressed);
        // Runs that scatter wider than the bound settle nothing.
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(&noisy, &steady, true, 0.05).3, Verdict::Unresolved);
        assert_eq!(judge(&steady, &noisy, true, 0.05).3, Verdict::Unresolved);
        let (ma, mb, change, _) = judge(&[10.0], &[11.0], true, 0.25);
        assert_eq!((ma, mb), (10.0, 11.0));
        assert!((change - 0.1).abs() < 1e-12);
    }
}
