//! Order statistics over latency samples.

use std::fmt;

/// A percentile is reported only when at least this many samples lie
/// beyond it, so the number is not one outlier's latency.
pub const MIN_SAMPLES_BEYOND: usize = 10;

#[derive(Debug, PartialEq)]
pub enum StatsError {
    /// Too few samples to report this percentile honestly.
    TooFewSamples {
        percentile: f64,
        have: usize,
        need: usize,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::TooFewSamples {
                percentile,
                have,
                need,
            } => write!(
                f,
                "p{} needs at least {need} samples ({MIN_SAMPLES_BEYOND} beyond it), have {have}: \
                 lengthen the run instead of reporting a thinner percentile under the same name",
                percentile * 100.0
            ),
        }
    }
}

/// Samples needed before `p` (in `(0,1)`) has [`MIN_SAMPLES_BEYOND`] samples
/// beyond it.
pub fn samples_needed(p: f64) -> usize {
    (MIN_SAMPLES_BEYOND as f64 / (1.0 - p)).ceil() as usize
}

/// Refuse percentile `p` of a sample of `have` requests when fewer than
/// [`MIN_SAMPLES_BEYOND`] of them lie beyond it.
pub fn require_samples(p: f64, have: usize) -> Result<(), StatsError> {
    let need = samples_needed(p);
    if have < need {
        return Err(StatsError::TooFewSamples {
            percentile: p,
            have,
            need,
        });
    }
    Ok(())
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a non-empty slice (sorts a copy; mean of the middle two for
/// even lengths).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// First and third quartile, by the same method as Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance check computes spreads with. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k(n+1)/4 on a 1-based scale, linearly interpolated and
        // clamped to the sample range.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(
            require_samples(0.99, 999),
            Err(StatsError::TooFewSamples {
                percentile: 0.99,
                have: 999,
                need: 1000
            })
        );
        assert_eq!(require_samples(0.99, 1000), Ok(()));
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Nearest rank: the 990th of 1000, leaving exactly ten beyond.
        assert_eq!(percentile(&enough, 0.99), 990.0);
        assert_eq!(percentile(&enough, 0.5), 500.0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        // Every cell counts equally: one 1000× slower cell moves the
        // geomean by 1000^(1/3), not by its arithmetic weight.
        assert!((geomean(&[1.0, 1.0, 1000.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
    }
}
