//! Exporters: Prometheus text exposition and a JSON profile document.
//!
//! Both render from a [`Snapshot`] so exporting never holds registry locks
//! while formatting. The Prometheus side also ships a small line parser
//! ([`parse_prometheus_text`]) so tests can round-trip what we emit.

use crate::registry::{MetricsRegistry, Snapshot, SpanStats};
use std::fmt::Write as _;

/// Metric-name prefix for everything this workspace exports.
const PREFIX: &str = "rdfref";

/// Replace characters outside `[a-zA-Z0-9_:]` (notably the dots in span
/// paths) so the name is a valid Prometheus metric name component.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

impl MetricsRegistry {
    /// Render the current aggregates in Prometheus text exposition format.
    pub fn to_prometheus_text(&self) -> String {
        self.snapshot().to_prometheus_text()
    }

    /// Render the current aggregates as a JSON document.
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }
}

impl Snapshot {
    /// Prometheus text exposition: counters as `_total`, spans as
    /// count/sum/max series labelled by path, histograms with cumulative
    /// `_bucket{le=…}` series.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let metric = format!("{PREFIX}_{}_total", sanitize(name));
            let _ = writeln!(out, "# TYPE {metric} counter");
            let _ = writeln!(out, "{metric} {value}");
        }
        for (name, value) in &self.gauges {
            let metric = format!("{PREFIX}_{}", sanitize(name));
            let _ = writeln!(out, "# TYPE {metric} gauge");
            let _ = writeln!(out, "{metric} {value}");
        }
        if !self.spans.is_empty() {
            let _ = writeln!(out, "# TYPE {PREFIX}_span_seconds summary");
            for (
                path,
                SpanStats {
                    count,
                    total_ns,
                    max_ns,
                },
            ) in &self.spans
            {
                let label = escape_label(path);
                let _ = writeln!(
                    out,
                    "{PREFIX}_span_seconds_count{{span=\"{label}\"}} {count}"
                );
                let _ = writeln!(
                    out,
                    "{PREFIX}_span_seconds_sum{{span=\"{label}\"}} {}",
                    *total_ns as f64 / 1e9
                );
                let _ = writeln!(
                    out,
                    "{PREFIX}_span_seconds_max{{span=\"{label}\"}} {}",
                    *max_ns as f64 / 1e9
                );
            }
        }
        for (name, hist) in &self.histograms {
            let metric = format!("{PREFIX}_{}", sanitize(name));
            let _ = writeln!(out, "# TYPE {metric} histogram");
            let mut cumulative = 0u64;
            for (i, bucket) in hist.buckets.iter().enumerate() {
                cumulative += bucket;
                // Skip empty tail buckets below +Inf to keep the output small.
                if *bucket == 0 && i + 1 != hist.buckets.len() {
                    continue;
                }
                let le = if i + 1 == hist.buckets.len() {
                    "+Inf".to_string()
                } else {
                    (1u64 << i).to_string()
                };
                let _ = writeln!(out, "{metric}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{metric}_sum {}", hist.sum);
            let _ = writeln!(out, "{metric}_count {}", hist.count);
        }
        out
    }

    /// JSON document with `counters`, `spans` and `histograms` sections.
    /// All numbers stay well under 2^53, so `f64` round-trips are exact.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"generator\": \"rdfref-obs\",\n  \"counters\": {");
        let mut first = true;
        for (name, value) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {value}", escape_label(name));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (name, value) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {value}", escape_label(name));
        }
        out.push_str("\n  },\n  \"spans\": {");
        first = true;
        for (path, s) in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"total_ns\": {}, \"max_ns\": {}}}",
                escape_label(path),
                s.count,
                s.total_ns,
                s.max_ns
            );
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [",
                escape_label(name),
                h.count,
                h.sum,
                h.max
            );
            for (i, b) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// One parsed Prometheus sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name.
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// Parse Prometheus text exposition (the subset we emit: no timestamps,
/// no exemplars). Comment and blank lines are skipped; a malformed sample
/// line is an error.
pub fn parse_prometheus_text(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {line}", lineno + 1);
        let (head, value) = line.rsplit_once(' ').ok_or_else(|| err("missing value"))?;
        let value: f64 = value.parse().map_err(|_| err("bad value"))?;
        let (name, labels) = match head.split_once('{') {
            None => (head.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| err("unterminated labels"))?;
                let mut labels = Vec::new();
                for pair in body.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair.split_once('=').ok_or_else(|| err("bad label"))?;
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| err("unquoted label value"))?;
                    labels.push((k.to_string(), v.replace("\\\"", "\"").replace("\\\\", "\\")));
                }
                (name.to_string(), labels)
            }
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(err("bad metric name"));
        }
        samples.push(PromSample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Obs, Recorder};
    use std::sync::Arc;
    use std::time::Duration;

    fn sample_registry() -> Arc<MetricsRegistry> {
        let reg = Arc::new(MetricsRegistry::new());
        let obs = Obs::collecting(reg.clone());
        obs.add("plan_cache.hit", 4);
        obs.add("op.scan.rows", 123);
        obs.gauge("serving.snapshot.seq", 17);
        reg.span_end("answer.plan", Duration::from_micros(250));
        reg.span_end("answer.plan", Duration::from_micros(750));
        obs.observe("serving.batch.apply_us", 9);
        obs.observe("serving.batch.apply_us", 1000);
        reg
    }

    #[test]
    fn prometheus_round_trips_counters_and_spans() {
        let reg = sample_registry();
        let text = reg.to_prometheus_text();
        let samples = parse_prometheus_text(&text).unwrap();

        let find = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing {name} in:\n{text}"))
        };
        assert_eq!(find("rdfref_plan_cache_hit_total").value, 4.0);
        assert_eq!(find("rdfref_op_scan_rows_total").value, 123.0);
        assert_eq!(find("rdfref_serving_snapshot_seq").value, 17.0);
        assert!(
            text.contains("# TYPE rdfref_serving_snapshot_seq gauge"),
            "gauge must carry a gauge TYPE line:\n{text}"
        );
        let count = find("rdfref_span_seconds_count");
        assert_eq!(
            count.labels,
            vec![("span".to_string(), "answer.plan".to_string())]
        );
        assert_eq!(count.value, 2.0);
        assert!((find("rdfref_span_seconds_sum").value - 0.001).abs() < 1e-9);
        let bucket_total: f64 = samples
            .iter()
            .filter(|s| s.name == "rdfref_serving_batch_apply_us_bucket")
            .filter(|s| s.labels.iter().any(|(_, v)| v == "+Inf"))
            .map(|s| s.value)
            .sum();
        assert_eq!(bucket_total, 2.0, "+Inf bucket must be cumulative total");
        assert_eq!(find("rdfref_serving_batch_apply_us_count").value, 2.0);
    }

    #[test]
    fn json_round_trips_through_parser() {
        let reg = sample_registry();
        let doc = crate::json::parse(&reg.to_json()).unwrap();
        assert_eq!(
            doc.get("generator").and_then(|v| v.as_str()),
            Some("rdfref-obs")
        );
        let counters = doc.get("counters").unwrap();
        assert_eq!(
            counters.get("plan_cache.hit").and_then(|v| v.as_f64()),
            Some(4.0)
        );
        let gauges = doc.get("gauges").unwrap();
        assert_eq!(
            gauges.get("serving.snapshot.seq").and_then(|v| v.as_f64()),
            Some(17.0)
        );
        let spans = doc.get("spans").unwrap();
        let plan = spans.get("answer.plan").unwrap();
        assert_eq!(plan.get("count").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(
            plan.get("total_ns").and_then(|v| v.as_f64()),
            Some(1_000_000.0)
        );
        let hists = doc.get("histograms").unwrap();
        let h = hists.get("serving.batch.apply_us").unwrap();
        assert_eq!(h.get("count").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(
            h.get("buckets").and_then(|v| v.as_array()).map(|a| a.len()),
            Some(33)
        );
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus_text("metric_without_value").is_err());
        assert!(parse_prometheus_text("bad-name 1").is_err());
        assert!(parse_prometheus_text("m{le=1} 2").is_err());
        assert!(parse_prometheus_text("# comment only\n\n")
            .unwrap()
            .is_empty());
    }
}
