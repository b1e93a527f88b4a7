//! In-memory span recording for the traced runs.
//!
//! The benchmark wraps each call it makes into a layer's public function in
//! a span: name, start, end, parent span, and an op id shared by every span
//! of one request, device lot, or build cycle. Spans stay in memory (one
//! [`Trace`] per thread, merged at the end) and are written out once, when
//! the run finishes. With tracing off, [`Trace::time`] is a plain call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the root span every op hangs its layer spans under. A root's
/// self time is the part of the op no layer span covers.
pub const OP: &str = "op";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    /// Index of the parent span in the same [`Trace`] (global index after
    /// [`merge`]).
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// One thread's span buffer.
pub struct Trace {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Self {
        Self {
            on,
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off (the traced run alternates traced and
    /// untraced stretches to measure the tracing overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now; returns its handle (`None` when tracing is off).
    pub fn start(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: now,
            end_ns: now,
            thread: self.thread,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`start`](Self::start).
    pub fn end(&mut self, span: Option<usize>) {
        if let Some(index) = span {
            self.spans[index].end_ns = self.ns(Instant::now());
        }
    }

    /// Records an already-finished span with explicit endpoints.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
            thread: self.thread,
        });
        Some(self.spans.len() - 1)
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.start(name, op, parent);
        let result = f();
        self.end(span);
        result
    }
}

/// Concatenates per-thread traces, rebasing parent indices.
pub fn merge(traces: impl IntoIterator<Item = Trace>) -> Vec<Span> {
    let mut all: Vec<Span> = Vec::new();
    for trace in traces {
        let base = all.len();
        all.extend(trace.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }
    all
}

/// Per-name durations and self times.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    /// Every span's duration, seconds.
    pub durations: Vec<f64>,
    /// Sum of self times (duration minus child spans), seconds.
    pub self_secs: f64,
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut child_secs = vec![0.0f64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_secs[parent] += span.secs();
        }
    }
    let mut by_name: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (index, span) in spans.iter().enumerate() {
        let entry = by_name.entry(span.name).or_default();
        entry.durations.push(span.secs());
        entry.self_secs += span.secs() - child_secs[index];
    }
    by_name
}

/// `1 − Σ layer self time / Σ op time` over every op root: the share of op
/// time that no layer span accounts for.
pub fn unaccounted_share(stats: &BTreeMap<&'static str, NameStats>) -> f64 {
    match stats.get(OP) {
        Some(op) => {
            let total: f64 = op.durations.iter().sum();
            if total > 0.0 {
                op.self_secs / total
            } else {
                0.0
            }
        }
        None => 0.0,
    }
}

/// Ops whose spans [`dump`] writes; set-up and probe spans (op 0) are
/// always written. A transport-bound run records over a million spans.
const DUMP_OPS: usize = 20_000;

/// Writes the spans as JSON lines after a header line naming the run: every
/// set-up and probe span, and the spans of the first [`DUMP_OPS`] ops. A
/// last line counts the spans recorded and written.
pub fn dump(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    let mut ops = std::collections::HashSet::new();
    let mut written = 0usize;
    for (id, span) in spans.iter().enumerate() {
        if span.op != 0 && !ops.contains(&span.op) {
            if ops.len() == DUMP_OPS {
                continue;
            }
            ops.insert(span.op);
        }
        let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            span.name, span.op, span.thread, span.start_ns, span.end_ns
        )?;
        written += 1;
    }
    writeln!(
        out,
        "{{\"spans_recorded\":{},\"spans_written\":{written}}}",
        spans.len()
    )?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_root_self_is_unaccounted() {
        let epoch = Instant::now();
        let mut trace = Trace::new(true, epoch, 0);
        let t = |ms: u64| epoch + std::time::Duration::from_millis(ms);
        let root = trace.record(OP, 1, None, t(0), t(10));
        trace.record("layer.a", 1, root, t(1), t(5));
        trace.record("layer.b", 1, root, t(5), t(9));
        let spans = merge([trace]);
        let stats = summarize(&spans);
        assert!((stats["layer.a"].self_secs - 0.004).abs() < 1e-9);
        assert!((unaccounted_share(&stats) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn untraced_records_nothing() {
        let mut trace = Trace::new(false, Instant::now(), 0);
        assert_eq!(trace.time("x", 1, None, || 7), 7);
        assert!(merge([trace]).is_empty());
    }
}
