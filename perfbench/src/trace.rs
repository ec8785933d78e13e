//! In-memory span recorder for the traced run.
//!
//! Every public layer call the benchmark makes is wrapped in a span
//! (name, start, end, parent span, request id). A span's name is
//! `<layer>.<call>`. Spans stay in memory and are written once, as
//! JSON lines, when the run ends. Self times are derived afterwards: a
//! span's duration minus the part of it its child spans cover.

use std::io::Write;
use std::time::Instant;

struct Span {
    name: &'static str,
    request: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Calls and seconds summed over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Request id stamped on new spans (see [`Tracer::request`]).
    current: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            current: 0,
        }
    }

    /// A tracer that records nothing: the untraced path runs the same
    /// code with tracing off.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records `f` as a span; spans opened inside `f` become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            request: self.current,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        let out = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Records a leaf call as a span.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, |_| f())
    }

    /// Records `f` as the span of request `id` (a sweep candidate or a
    /// scenario run); every span opened inside carries the same id.
    pub fn request<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let outer = std::mem::replace(&mut self.current, id);
        let out = self.span(name, f);
        self.current = outer;
        out
    }

    /// Totals over the spans whose name starts with `prefix` (a layer
    /// such as `"quality."`, or one full span name).
    pub fn totals(&self, prefix: &str) -> Totals {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut t = Totals::default();
        for (s, child) in self.spans.iter().zip(child_ns) {
            if s.name.starts_with(prefix) {
                let dur = s.end_ns - s.start_ns;
                t.calls += 1;
                t.total_s += dur as f64 * 1e-9;
                t.self_s += dur.saturating_sub(child) as f64 * 1e-9;
            }
        }
        t
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
