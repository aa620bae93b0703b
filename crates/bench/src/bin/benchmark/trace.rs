//! In-memory span recorder for the traced pass.
//!
//! The benchmark wraps its own calls into each layer's public functions in
//! spans `{name, start, end, parent, request}`; nothing inside the engine is
//! touched. Spans stay in memory and are written out when the run ends. A
//! span's *self time* is its duration minus the durations of its direct
//! children, so nested layers are not counted twice.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one request share this identifier (0 = set-up).
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Spans recorded from now on belong to request `id` (0 = set-up).
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under whichever span is
    /// open. `f` receives the tracer back so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        value
    }

    /// Duration of the most recently closed span named `name`.
    pub fn last_ns(&self, name: &str) -> Option<u64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(Span::duration_ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.spans)
    }

    /// The trace as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// Aggregate spans by name: count, total duration and self time.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children_ns[p] += s.duration_ns();
        }
    }
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, child_ns) in spans.iter().zip(children_ns) {
        let t = by_name.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(child_ns);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // request [0,100) ⊃ plan [10,40) ⊃ gcov [15,35); request ⊃ eval [40,90)
        let spans = vec![
            span("request", 0, 100, None),
            span("plan", 10, 40, Some(0)),
            span("gcov", 15, 35, Some(1)),
            span("eval", 40, 90, Some(0)),
        ];
        let t = totals(&spans);
        assert_eq!(t["request"].self_ns, 100 - 30 - 50);
        assert_eq!(t["plan"].self_ns, 30 - 20);
        assert_eq!(t["gcov"].self_ns, 20);
        assert_eq!(t["eval"].total_ns, 50);
        // Self times partition the root: nothing is counted twice.
        let sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn tracer_nests_spans_and_tags_requests() {
        let mut tracer = Tracer::new();
        tracer.span("setup", |_| ());
        let id = 7;
        tracer.set_request(id);
        tracer.span("request", |t| {
            t.span("parse", |_| ());
            t.span("eval", |t| t.span("decode", |_| ()));
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!((spans[0].parent, spans[0].request), (None, 0));
        assert_eq!((spans[1].parent, spans[1].request), (None, id));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(1));
        assert_eq!(spans[4].parent, Some(3));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(rdfref_obs::json::parse(&tracer.to_json()).is_ok());
    }
}
