//! In-memory spans around the calls into each layer.
//!
//! A span is {name, start, end, parent, op id}. Spans are kept in memory
//! and written out once, when the traced run ends. A disabled tracer
//! runs the same closures with no clock reads, which is how the traced
//! run measures its own overhead.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary this span wraps, e.g. `mc.simrel`.
    pub name: &'static str,
    /// Identifier shared by every span of one op.
    pub op: u32,
    /// Index of the enclosing span, `None` for an op's root.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Not shared between threads: every span is opened and
/// closed by the benchmark's single driver thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Tracer {
    /// A tracer that records spans (`enabled`) or only runs the closures.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Starts a new op: later spans carry a fresh op id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, op: self.op, parent, start_ns, end_ns: start_ns });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// The id spans opened now would carry.
    pub fn op(&self) -> u32 {
        self.op
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent in spans named `name`, children included.
    pub fn total_s(&self, name: &str) -> f64 {
        total_s(&self.spans, name)
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self_ns(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, selfs[i]
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.duration_ns());
        }
    }
    out
}

/// Seconds covered by spans named `name`, children included.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum::<u64>() as f64 / 1e9
}

/// Seconds of self time summed over every span of op `op` that has a
/// parent: what the layers account for, leaving out the root's own
/// remainder.
pub fn attributed_s(spans: &[Span], op: u32) -> f64 {
    let selfs = self_ns(spans);
    let layers = spans.iter().zip(&selfs).filter(|(s, _)| s.op == op && s.parent.is_some());
    layers.map(|(_, ns)| *ns).sum::<u64>() as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, op: 1, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 holds a 10..40 and b 50..90; a holds c 20..30.
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("c", Some(1), 20, 30),
            span("b", Some(0), 50, 90),
        ];
        assert_eq!(self_ns(&spans), vec![30, 20, 10, 40]);
        // a + c + b: everything under the root, once.
        assert!((attributed_s(&spans, 1) - 70e-9).abs() < 1e-15);
        assert_eq!(attributed_s(&spans, 2), 0.0);
        assert!((total_s(&spans, "a") - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_records_parents_and_op_ids() {
        let mut t = Tracer::new(true);
        t.next_op();
        t.span("root", |t| {
            t.span("x", |_| ());
            t.span("y", |t| t.span("z", |_| ()));
        });
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            vec![("root", None, 1), ("x", Some(0), 1), ("y", Some(0), 1), ("z", Some(2), 1)]
        );
        for s in t.spans() {
            assert!(s.end_ns >= s.start_ns);
        }
    }

    #[test]
    fn disabled_tracer_runs_the_closure_and_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("root", |t| t.span("x", |_| 7)), 7);
        assert!(t.spans().is_empty());
    }
}
