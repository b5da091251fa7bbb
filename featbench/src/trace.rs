//! In-memory span recorder for the traced run.
//!
//! A span marks one call into a layer: its layer name, the call's name, its
//! start and end, the span that caused it, and the trace it belongs to (one
//! trace id per replayed fit or serving phase). Spans stay in memory while the
//! benchmark runs and are written out as JSON lines at exit. A layer's self
//! time is the sum of its spans' durations minus the part covered by their
//! direct children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub trace: usize,
    pub parent: Option<usize>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
        }
    }

    /// Start a new trace (one replayed fit, or one serving phase).
    pub fn begin_trace(&mut self) {
        self.trace += 1;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span under the innermost open span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            trace: self.trace,
            parent: self.open.last().copied(),
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let end_ns = self.ns(Instant::now());
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn leaf<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(layer, name);
        let out = f();
        self.exit(id);
        out
    }

    /// Record a span timed elsewhere (another thread), under the innermost
    /// open span.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            trace: self.trace,
            parent: self.open.last().copied(),
            layer,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }

    /// Seconds of self time per layer, over every span recorded so far.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *out.entry(span.layer).or_insert(0.0) +=
                span.duration_ns().saturating_sub(children) as f64 / 1e9;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"trace\":{},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
