//! Thread-safe metric aggregation: counters, span stats, log₂ histograms.
//!
//! ## Striping
//!
//! The registry is written from every reader thread on the serving hot
//! path (operator counters fire per scan). A single mutex per metric
//! family would serialize all readers on one cache line, which showed up
//! directly in the E10 per-thread allocation/throughput profile. Instead
//! the monotone families (counters, spans, histograms) are split across
//! [`STRIPE_COUNT`] *stripes*: each thread is assigned a stripe
//! round-robin on first use and only ever locks its own stripe, so
//! threads ≤ stripes never contend. [`MetricsRegistry::snapshot`] merges
//! the stripes; merging monotone aggregates is exact (sum of sums, max of
//! maxes), so the exactness tests (`N` threads × `M` increments must
//! total exactly `N·M`) still hold. Gauges are last-write-wins and need a
//! global write order, so they stay under one (rarely taken) lock.

use crate::recorder::Recorder;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Number of histogram buckets: `value <= 2^i` for `i in 0..32`, plus +inf.
pub(crate) const HISTOGRAM_BUCKETS: usize = 33;

/// Number of lock stripes for the monotone metric families. Power of two,
/// comfortably above the thread counts the experiments use (16 readers).
const STRIPE_COUNT: usize = 16;

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// How many times the span closed.
    pub count: u64,
    /// Total wall time across closures, in nanoseconds.
    pub total_ns: u64,
    /// Longest single closure, in nanoseconds.
    pub max_ns: u64,
}

impl SpanStats {
    /// Total wall time as a [`Duration`].
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.total_ns)
    }

    fn merge(&mut self, other: &SpanStats) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Aggregated log₂-bucket histogram for one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Cumulative-style raw bucket counts: bucket `i < 32` counts values
    /// `<= 2^i`; the last bucket counts the rest.
    pub buckets: Vec<u64>,
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistogramSnapshot {
    fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        let idx = (0..32u32)
            .find(|i| value <= 1u64 << i)
            .map(|i| i as usize)
            .unwrap_or(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// One stripe of the monotone metric families.
#[derive(Default)]
struct Stripe {
    counters: Mutex<BTreeMap<&'static str, u64>>,
    spans: Mutex<BTreeMap<&'static str, SpanStats>>,
    histograms: Mutex<BTreeMap<&'static str, HistogramSnapshot>>,
}

/// Global-free metric store. One registry is created per collection scope
/// (a request, an experiment run, a test) and handed down via
/// [`crate::Obs::collecting`]; nothing in this crate is a process global
/// except the thread → stripe assignment counter.
#[derive(Default)]
pub struct MetricsRegistry {
    stripes: [Stripe; STRIPE_COUNT],
    gauges: Mutex<BTreeMap<&'static str, u64>>,
}

/// Round-robin stripe assignment: the first thread to record gets stripe
/// 0, the next stripe 1, … wrapping at [`STRIPE_COUNT`]. Stable for the
/// thread's lifetime, so a thread's writes always land in one stripe.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPE_COUNT;
}

/// Recover the guard even if a panicking thread poisoned the lock: metrics
/// are monotone aggregates, so the data is still usable.
fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl MetricsRegistry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The calling thread's stripe.
    fn stripe(&self) -> &Stripe {
        &self.stripes[THREAD_STRIPE.with(|s| *s)]
    }

    /// Consistent-enough copy of all aggregates: stripes are merged one at
    /// a time, each under its own lock.
    pub fn snapshot(&self) -> Snapshot {
        let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut spans: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        let mut histograms: BTreeMap<&'static str, HistogramSnapshot> = BTreeMap::new();
        for stripe in &self.stripes {
            for (name, v) in lock_or_recover(&stripe.counters).iter() {
                *counters.entry(name).or_insert(0) += v;
            }
            for (name, s) in lock_or_recover(&stripe.spans).iter() {
                spans.entry(name).or_default().merge(s);
            }
            for (name, h) in lock_or_recover(&stripe.histograms).iter() {
                histograms
                    .entry(name)
                    .or_insert_with(HistogramSnapshot::empty)
                    .merge(h);
            }
        }
        Snapshot {
            counters,
            gauges: lock_or_recover(&self.gauges).clone(),
            spans,
            histograms,
        }
    }

    /// Drop all recorded data, keeping the registry installed.
    pub fn reset(&self) {
        for stripe in &self.stripes {
            lock_or_recover(&stripe.counters).clear();
            lock_or_recover(&stripe.spans).clear();
            lock_or_recover(&stripe.histograms).clear();
        }
        lock_or_recover(&self.gauges).clear();
    }
}

impl Recorder for MetricsRegistry {
    fn span_end(&self, path: &'static str, wall: Duration) {
        let ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        let mut spans = lock_or_recover(&self.stripe().spans);
        let stats = spans.entry(path).or_default();
        stats.count += 1;
        stats.total_ns = stats.total_ns.saturating_add(ns);
        stats.max_ns = stats.max_ns.max(ns);
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        *lock_or_recover(&self.stripe().counters)
            .entry(name)
            .or_insert(0) += delta;
    }

    fn gauge_set(&self, name: &'static str, value: u64) {
        lock_or_recover(&self.gauges).insert(name, value);
    }

    fn histogram_observe(&self, name: &'static str, value: u64) {
        lock_or_recover(&self.stripe().histograms)
            .entry(name)
            .or_insert_with(HistogramSnapshot::empty)
            .observe(value);
    }
}

/// Point-in-time copy of a registry's aggregates, with typed accessors.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge values by name (last write wins).
    pub gauges: BTreeMap<&'static str, u64>,
    /// Span statistics by dotted path.
    pub spans: BTreeMap<&'static str, SpanStats>,
    /// Histograms by name.
    pub histograms: BTreeMap<&'static str, HistogramSnapshot>,
}

impl Snapshot {
    /// Counter value, `0` when never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, `None` when never set (a gauge legitimately holds `0`).
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// How many times the span at `path` closed (`0` when never).
    pub fn span_count(&self, path: &str) -> u64 {
        self.spans.get(path).map(|s| s.count).unwrap_or(0)
    }

    /// Histogram aggregate, if any value was observed.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// True when nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.spans.is_empty()
            && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;
    use std::sync::Arc;

    #[test]
    fn counters_spans_histograms_aggregate() {
        let reg = Arc::new(MetricsRegistry::new());
        let obs = Obs::collecting(reg.clone());
        obs.add("c.a", 2);
        obs.add("c.a", 3);
        {
            let _g = obs.span("s.x");
        }
        {
            let _g = obs.span("s.x");
        }
        obs.observe("h.rows", 1);
        obs.observe("h.rows", 5);
        obs.observe("h.rows", 1 << 40);
        obs.gauge("g.level", 7);
        obs.gauge("g.level", 3); // last write wins

        let snap = reg.snapshot();
        assert_eq!(snap.counter("c.a"), 5);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("g.level"), Some(3));
        assert_eq!(snap.gauge("missing"), None);
        assert_eq!(snap.span_count("s.x"), 2);
        let h = snap.histogram("h.rows").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 6 + (1 << 40));
        assert_eq!(h.max, 1 << 40);
        assert_eq!(h.buckets[0], 1); // 1 <= 2^0
        assert_eq!(h.buckets[3], 1); // 5 <= 2^3
        assert_eq!(h.buckets[HISTOGRAM_BUCKETS - 1], 1); // overflow bucket
    }

    #[test]
    fn concurrent_increments_lose_nothing() {
        let reg = Arc::new(MetricsRegistry::new());
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let obs = Obs::collecting(reg.clone());
                scope.spawn(move || {
                    for i in 0..per_thread {
                        obs.add("hammer", 1);
                        obs.observe("hist", i % 17);
                        if i % 100 == 0 {
                            let _g = obs.span("span.hammer");
                        }
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hammer"), threads * per_thread);
        assert_eq!(snap.histogram("hist").unwrap().count, threads * per_thread);
        assert_eq!(snap.span_count("span.hammer"), threads * per_thread / 100);
    }

    #[test]
    fn stripes_merge_exactly_across_many_threads() {
        // More threads than stripes: assignments wrap, several threads
        // share a stripe, and the merged snapshot still totals exactly.
        let reg = Arc::new(MetricsRegistry::new());
        let threads = 2 * STRIPE_COUNT + 3;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let obs = Obs::collecting(reg.clone());
                scope.spawn(move || {
                    obs.add("wrap.counter", t as u64 + 1);
                    obs.observe("wrap.hist", t as u64);
                });
            }
        });
        let snap = reg.snapshot();
        let expect: u64 = (1..=threads as u64).sum();
        assert_eq!(snap.counter("wrap.counter"), expect);
        let h = snap.histogram("wrap.hist").unwrap();
        assert_eq!(h.count, threads as u64);
        assert_eq!(h.max, threads as u64 - 1);
    }

    #[test]
    fn reset_clears_everything() {
        let reg = Arc::new(MetricsRegistry::new());
        let obs = Obs::collecting(reg.clone());
        obs.add("c", 1);
        obs.gauge("g", 1);
        obs.observe("h", 1);
        {
            let _g = obs.span("s");
        }
        assert!(!reg.snapshot().is_empty());
        reg.reset();
        assert!(reg.snapshot().is_empty());
    }
}
