//! The recorder trait and the `Obs` handle threaded through the pipeline.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sink for instrumentation events.
///
/// Implementations must be cheap and thread-safe: spans, counters and
/// histogram observations arrive from parallel-union workers concurrently.
/// Names are `&'static str` dotted paths so recording never allocates.
pub trait Recorder: Send + Sync {
    /// A span named `path` just closed after running for `wall`.
    fn span_end(&self, path: &'static str, wall: Duration);
    /// Add `delta` to the counter named `name`.
    fn counter_add(&self, name: &'static str, delta: u64);
    /// Observe one `value` in the histogram named `name`.
    fn histogram_observe(&self, name: &'static str, value: u64);
    /// Set the gauge named `name` to `value` (last write wins). Gauges
    /// report level-style facts — the serving layer's published snapshot
    /// sequence number, queue depth — where only the latest value matters.
    /// Default no-op so existing recorders keep compiling.
    fn gauge_set(&self, name: &'static str, value: u64) {
        let _ = (name, value);
    }
}

/// Cloneable observability handle: either disabled (`None`, the default) or
/// pointing at a shared [`Recorder`].
///
/// Every instrumentation method starts with a branch on the `Option`; when
/// disabled nothing else happens — no clock reads, no locks — which is what
/// keeps the no-op overhead under the 2% budget on `exp_strategies`.
#[derive(Clone, Default)]
pub struct Obs {
    recorder: Option<Arc<dyn Recorder>>,
}

impl Obs {
    /// The disabled handle: all instrumentation collapses to one branch.
    pub fn disabled() -> Self {
        Obs { recorder: None }
    }

    /// A handle recording into `recorder`.
    pub fn collecting(recorder: Arc<dyn Recorder>) -> Self {
        Obs {
            recorder: Some(recorder),
        }
    }

    /// Whether a recorder is installed.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// This handle if enabled, otherwise `fallback` — used to let a
    /// per-request recorder override the database-wide one.
    pub fn or<'a>(&'a self, fallback: &'a Obs) -> &'a Obs {
        if self.enabled() {
            self
        } else {
            fallback
        }
    }

    /// Open a span; its wall time is recorded when the guard drops.
    #[inline]
    #[must_use = "a span records on Drop; binding it to `_` closes it immediately"]
    pub fn span(&self, path: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            active: self
                .recorder
                .as_deref()
                .map(|rec| (rec, path, Instant::now())),
        }
    }

    /// Add `delta` to counter `name` (no-op when disabled).
    #[inline]
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some(rec) = self.recorder.as_deref() {
            rec.counter_add(name, delta);
        }
    }

    /// Observe `value` in histogram `name` (no-op when disabled).
    #[inline]
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(rec) = self.recorder.as_deref() {
            rec.histogram_observe(name, value);
        }
    }

    /// Set gauge `name` to `value` (no-op when disabled).
    #[inline]
    pub fn gauge(&self, name: &'static str, value: u64) {
        if let Some(rec) = self.recorder.as_deref() {
            rec.gauge_set(name, value);
        }
    }

    /// Start a stopwatch that only reads the clock when enabled; pair with
    /// [`Stopwatch::elapsed`] for operator timings that land in
    /// `ExecStep.wall` rather than in a named span.
    #[inline]
    pub fn stopwatch(&self) -> Stopwatch {
        Stopwatch {
            start: self.recorder.as_ref().map(|_| Instant::now()),
        }
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// RAII guard returned by [`Obs::span`]; records the span on drop.
pub struct SpanGuard<'a> {
    active: Option<(&'a dyn Recorder, &'static str, Instant)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((rec, path, start)) = self.active.take() {
            rec.span_end(path, start.elapsed());
        }
    }
}

/// A clock read gated on the handle being enabled (see [`Obs::stopwatch`]).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Option<Instant>,
}

impl Stopwatch {
    /// Elapsed wall time, or `Duration::ZERO` when the handle was disabled.
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.start.map(|s| s.elapsed()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Default)]
    struct Log {
        events: Mutex<Vec<String>>,
    }

    impl Recorder for Log {
        fn span_end(&self, path: &'static str, _wall: Duration) {
            self.events.lock().unwrap().push(format!("span:{path}"));
        }
        fn counter_add(&self, name: &'static str, delta: u64) {
            self.events
                .lock()
                .unwrap()
                .push(format!("ctr:{name}+{delta}"));
        }
        fn histogram_observe(&self, name: &'static str, value: u64) {
            self.events
                .lock()
                .unwrap()
                .push(format!("hist:{name}={value}"));
        }
    }

    #[test]
    fn disabled_handle_records_nothing_and_is_default() {
        let obs = Obs::default();
        assert!(!obs.enabled());
        {
            let _g = obs.span("x");
            obs.add("c", 1);
            obs.observe("h", 2);
        }
        assert_eq!(obs.stopwatch().elapsed(), Duration::ZERO);
    }

    #[test]
    fn enabled_handle_records_span_on_drop() {
        let log = Arc::new(Log::default());
        let obs = Obs::collecting(log.clone());
        assert!(obs.enabled());
        {
            let _g = obs.span("a.b");
            obs.add("k", 3);
        }
        obs.observe("h", 7);
        let events = log.events.lock().unwrap().clone();
        assert_eq!(events, vec!["ctr:k+3", "span:a.b", "hist:h=7"]);
    }

    #[test]
    fn or_prefers_enabled_handle() {
        let log: Arc<dyn Recorder> = Arc::new(Log::default());
        let on = Obs::collecting(log);
        let off = Obs::disabled();
        assert!(off.or(&on).enabled());
        assert!(on.or(&off).enabled());
        assert!(!off.or(&Obs::disabled()).enabled());
    }

    #[test]
    fn span_macro_compiles_and_scopes() {
        let log = Arc::new(Log::default());
        let obs = Obs::collecting(log.clone());
        {
            crate::span!(obs, "m.scope");
        }
        let events = log.events.lock().unwrap().clone();
        assert_eq!(events, vec!["span:m.scope"]);
    }
}
