//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span has a name, the layer it is charged to, start and end times, the
//! span that caused it and a request id.  Spans stay in memory and are
//! written out when the run ends.  A layer's self time is the duration of
//! its spans minus the part their child spans cover.  With tracing off
//! every call is a no-op, so the untraced run measures the program alone.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// The layers spans are charged to: the workspace modules the benchmark
/// calls, plus the benchmark's own generator.
pub const LAYERS: [&str; 6] = [
    "bench",
    "ccprotocols",
    "cccounter",
    "cccore",
    "ccchecker",
    "ccserve",
];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The layer the span is charged to (one of [`LAYERS`]).
    pub layer: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// Request (or operation) id shared by the spans of one request.
    pub req: u64,
}

/// A span recorder; disabled tracers record nothing.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a span over `[start, end]`; returns its index.
    pub fn record(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans.push(Span {
            name,
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        });
        Some(spans.len() - 1)
    }

    /// Runs `f` inside a span with no children.
    pub fn time<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(layer, name, None, req, start, Instant::now());
        out
    }

    /// Number of spans recorded so far: marks a window of spans.
    pub fn mark(&self) -> usize {
        self.spans.lock().expect("span list lock poisoned").len()
    }

    /// Self time per layer, in milliseconds, over the spans with indices
    /// in `window` (children of a span in the window are in it too).
    pub fn self_ms(&self, window: (usize, usize)) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span list lock poisoned");
        let spans = &spans[window.0..window.1];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p - window.0] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for (s, child) in spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(child);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Median duration in milliseconds of the spans named `name` with
    /// request id `req`.
    pub fn median_ms(&self, name: &str, req: u64) -> Option<f64> {
        let spans = self.spans.lock().expect("span list lock poisoned");
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name && s.req == req)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6)
            .collect();
        crate::stats::median(&d)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list lock poisoned");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.layer, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}
