//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer can be wrapped in a span:
//! a name, a start and an end (nanoseconds since the run's epoch), the
//! span that was open when it started, and the id of the request it
//! belongs to. Spans stay in memory and are written out once, as Chrome
//! trace JSON, when the run ends. A disabled tracer only runs the wrapped
//! closure, so untraced runs pay one branch per layer call.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, named `<crate>.<operation>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or pass) the span belongs to.
    pub req: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A per-thread span recorder; thread recorders are merged at the end.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder sharing `epoch` with its siblings; records only if `on`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer { on, epoch, spans: Vec::new(), open: Vec::new() }
    }

    /// A recorder for another thread of the same run.
    pub fn sibling(&self) -> Self {
        Tracer::new(self.on, self.epoch)
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (traced runs alternate).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
    }

    /// All recorded spans, in start order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete event per span, the request id as the thread lane.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"req\": {}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.req,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.req
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("outer", 7, |t| t.span("inner", 7, |_| ()));
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(t.to_chrome_json().contains("\"parent\": 0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", 0, |_| 3), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.span("a", 0, |_| ());
        let mut b = a.sibling();
        b.span("b", 1, |t| t.span("c", 1, |_| ()));
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
