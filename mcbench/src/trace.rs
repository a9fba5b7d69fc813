//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around each call the benchmark makes into a layer.
//! They stay in memory until [`Tracer::write`] writes them once, at the
//! end, as JSON lines.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (1-based; 0 means "no parent").
    pub id: u64,
    /// Layer call, e.g. `cuts.enumerate`.
    pub name: &'static str,
    /// Microseconds since the tracer started.
    pub start_us: f64,
    /// Microseconds since the tracer started.
    pub end_us: f64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    /// Request or circuit the span belongs to.
    pub trace_id: u64,
}

/// The span store. Cheap enough to share between client threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; span times are relative to now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span (`f` gets the span's id, to parent child
    /// spans on) and returns its result.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        trace_id: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        self.timed(name, parent, trace_id, f).0
    }

    /// [`Tracer::span`] that also returns the span's duration in seconds.
    pub fn timed<R>(
        &self,
        name: &'static str,
        parent: u64,
        trace_id: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (R, f64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_us = self.now_us();
        let out = f(id);
        let end_us = self.now_us();
        self.spans.lock().expect("span store").push(Span {
            id,
            name,
            start_us,
            end_us,
            parent,
            trace_id,
        });
        (out, (end_us - start_us) / 1e6)
    }

    /// Records a span measured elsewhere (e.g. a daemon's own trace
    /// event), `start_us`/`dur_us` already relative to this tracer.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        trace_id: u64,
        start_us: f64,
        dur_us: f64,
    ) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.spans.lock().expect("span store").push(Span {
            id,
            name,
            start_us,
            end_us: start_us + dur_us,
            parent,
            trace_id,
        });
    }

    /// Microseconds since the tracer started, for [`Tracer::record`].
    pub fn elapsed_us(&self) -> f64 {
        self.now_us()
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store").len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{},\"trace_id\":{}}}",
                s.id, s.name, s.start_us, s.end_us, s.parent, s.trace_id
            )?;
        }
        out.flush()
    }
}

/// Runs `f` in a span when there is a tracer, plainly otherwise.
pub fn in_span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    trace_id: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, 0, trace_id, |_| f()),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_stay_in_memory_until_written() {
        let t = Tracer::new();
        let inner = t.span("outer", 0, 7, |outer| t.span("inner", outer, 7, |_| 41) + 1);
        assert_eq!(inner, 42);
        assert_eq!(t.len(), 2);
        let spans = t.spans.lock().unwrap().clone();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.trace_id, 7);
        assert!(outer.start_us <= inner.start_us && inner.end_us <= outer.end_us);
    }
}
