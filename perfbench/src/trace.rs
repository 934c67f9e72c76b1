//! In-memory span recorder for the traced run.
//!
//! Spans are taken from the benchmark's own side of each call into a
//! module's public API: name, the operation (frame, alignment or
//! query) they belong to, the span that caused them, start and end.
//! They stay in memory while the workload runs and are written out as
//! JSON lines when it ends.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, `module.stage`.
    pub name: &'static str,
    /// The operation the span belongs to; spans of one frame,
    /// alignment or query share it.
    pub op: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Nanoseconds from the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer. Tracers of one run share an origin so
/// their spans merge onto one timeline.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that ends at [`close`](Tracer::close).
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span measured elsewhere (an interval that starts on
    /// one loop turn and ends on another, such as a queued request).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent: None,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Moves `other`'s spans into this tracer (same origin assumed).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in milliseconds of every span named `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Mean duration in milliseconds of the spans named `name` over
    /// `per` operations (`0.0` when there are none).
    pub fn mean_ms(&self, name: &str, per: usize) -> f64 {
        let total: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        crate::stats::ratio(total as f64 / 1e6, per as f64)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }

    /// Writes the run's spans to `.bench_out/trace-<workload>-<seed>.jsonl`
    /// in the working directory, reporting where they went.
    pub fn write_run(&self, workload: &str, seed: u64) {
        let path = PathBuf::from(format!(".bench_out/trace-{workload}-{seed}.jsonl"));
        match self.write_jsonl(&path) {
            Ok(()) => println!("spans: {} written to {}", self.spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
}
