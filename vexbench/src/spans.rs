//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A [`Tracer`] times every call the benchmark measures, traced or not,
//! so the untraced and traced runs share one timing path. With tracing
//! on it also keeps one [`Span`] per call — name, layer, start, end,
//! parent span and op id — in memory; they are written out once the run
//! ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// Seconds since the run's epoch.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    pub op: u64,
    /// Load thread that recorded the span.
    pub thread: usize,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: usize,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, thread: usize) -> Tracer {
        Tracer { enabled, epoch, thread, op: 0, stack: Vec::new(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Ties the spans that follow to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` as span `name` of `layer` and returns its result with
    /// its wall time in seconds.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        if !self.enabled {
            let t0 = Instant::now();
            let r = f(self);
            return (r, t0.elapsed().as_secs_f64());
        }
        let idx = self.spans.len();
        let start = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            layer,
            start,
            end: start,
            parent: self.stack.last().copied(),
            op: self.op,
            thread: self.thread,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans[idx].end = end;
        (r, end - start)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Spans of every thread of a run, with the helpers that turn them into
/// per-layer figures.
#[derive(Debug, Default)]
pub struct SpanLog {
    /// Each tracer's spans; parent indices are local to their tracer.
    pub groups: Vec<Vec<Span>>,
}

impl SpanLog {
    pub fn add(&mut self, tracer: Tracer) {
        self.groups.push(tracer.into_spans());
    }

    fn all(&self) -> impl Iterator<Item = &Span> {
        self.groups.iter().flatten()
    }

    /// Durations of every span named `name`, seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.all().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Mean duration of the spans named `name`, milliseconds.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            return 0.0;
        }
        d.iter().sum::<f64>() / d.len() as f64 * 1e3
    }

    /// Self time per layer, seconds: each span's duration minus the
    /// time its direct children cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for group in &self.groups {
            let mut child = vec![0.0; group.len()];
            for s in group {
                if let Some(p) = s.parent {
                    child[p] += s.secs();
                }
            }
            for (s, c) in group.iter().zip(child) {
                *out.entry(s.layer).or_insert(0.0) += (s.secs() - c).max(0.0);
            }
        }
        out
    }

    /// Seconds of `[from, to]` covered by at least one span.
    pub fn covered(&self, from: f64, to: f64) -> f64 {
        let mut iv: Vec<(f64, f64)> = self
            .all()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start.max(from), s.end.min(to)))
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut total = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (a, b) in iv {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    total += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            total += cb - ca;
        }
        total
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (g, group) in self.groups.iter().enumerate() {
            for (i, sp) in group.iter().enumerate() {
                let parent = sp.parent.map_or("null".to_owned(), |p| format!("\"{g}.{p}\""));
                let _ = writeln!(
                    s,
                    "{{\"id\":\"{g}.{i}\",\"name\":\"{}\",\"layer\":\"{}\",\"start_s\":{:.9},\
                     \"end_s\":{:.9},\"parent\":{parent},\"op\":{},\"thread\":{}}}",
                    sp.name, sp.layer, sp.start, sp.end, sp.op, sp.thread
                );
            }
        }
        s
    }
}
