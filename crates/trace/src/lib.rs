//! # ccr-trace — structured event tracing for the refinement pipeline
//!
//! The paper's claims are *trajectory* claims: messages per rendezvous
//! (§3.3), state-space sizes (Table 3), forward progress (§2.5). This
//! crate gives every execution layer a common, cheap way to narrate its
//! trajectory: a [`TraceEvent`] enum covering the events the paper
//! reasons about, and a [`TraceSink`] trait with three implementations —
//!
//! * [`NullSink`] — the default; `enabled()` is `false` and `emit` is an
//!   empty inlineable body, so instrumented code costs one predictable
//!   branch per step when tracing is off.
//! * [`RingSink`] — a bounded in-memory ring keeping the last `cap`
//!   events; what you want for counterexample tails.
//! * [`JsonlSink`] — a buffered writer emitting one serde-serialized
//!   JSON object per line (JSONL), the interchange format of the `ccr`
//!   CLI's `--trace` flag and the model checker's counterexample export.
//!   Its first line is the versioned [`HEADER`]; readers take the events
//!   after it with [`events`], which refuses any other version.
//!
//! Event producers live in `ccr-runtime` (per-step simulator events),
//! `ccr-mc` (counterexample paths and search outcomes) and `ccr-dsm`
//! (machine runs). Every event is a deterministic function of the run:
//! periodic progress is the flight recorder's (`ccr-metrics`), not the
//! trace's. See `docs/observability.md` for the schema.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use serde::Serialize;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// The trace schema version this build writes and reads.
pub const VERSION: u64 = 1;

/// The first line of every JSONL trace: `{"trace":{"version":1}}`.
pub const HEADER: &str = "{\"trace\":{\"version\":1}}";

/// The event lines of a JSONL trace `text`, after its [`HEADER`]. A trace
/// without that header, or with another version's, is refused.
pub fn events(text: &str) -> Result<std::str::Lines<'_>, String> {
    let mut lines = text.lines();
    let first = lines.next().unwrap_or("");
    if first == HEADER {
        return Ok(lines);
    }
    let version = first
        .strip_prefix("{\"trace\":{\"version\":")
        .and_then(|rest| rest.strip_suffix("}}"))
        .unwrap_or("none");
    Err(format!("trace version {version} is not supported (this build reads {VERSION})"))
}

/// One observable event in a protocol execution or a state-space search.
///
/// Serialized (externally tagged) as `{"<Variant>":{...fields...}}`, one
/// object per JSONL line. `seq` is the 0-based step index of the run the
/// event belongs to; several events may share a `seq` (a transition plus
/// the sends/receives it performs).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum TraceEvent {
    /// A transition fired: which process moved, under which rule of the
    /// paper's Tables 1–2 (`C1`–`C3`, `T1`–`T6`, `buf`, `tau`) or of the
    /// fault closure (`fault/drop`, `fault/dup`, `fault/reorder`,
    /// `fault/retransmit`), and the label kind (`Tau`, `Rendezvous`,
    /// `Request`, `Deliver`, `Complete`, `Nacked`, `Fault`).
    Step {
        /// Step index within the run.
        seq: u64,
        /// Process that moved (`h` or `r<i>`).
        actor: String,
        /// Label kind.
        kind: String,
        /// Rule identifier from the paper's tables.
        rule: String,
        /// Optional user tag (e.g. the workload action name).
        tag: Option<String>,
    },
    /// A wire message was enqueued on a link.
    Send {
        /// Step index within the run.
        seq: u64,
        /// Sending endpoint.
        from: String,
        /// Receiving endpoint.
        to: String,
        /// Wire kind: `Req`, `Ack` or `Nack`.
        wire: String,
        /// Message type name for `Req` wires.
        msg: Option<String>,
        /// Link occupancy immediately after the enqueue, when known.
        occupancy: Option<u32>,
    },
    /// A wire message was consumed from a link.
    Recv {
        /// Step index within the run.
        seq: u64,
        /// Endpoint the message came from.
        from: String,
        /// Endpoint that consumed it.
        to: String,
        /// Wire kind: `Req`, `Ack` or `Nack`.
        wire: String,
        /// Message type name for `Req` wires.
        msg: Option<String>,
    },
    /// A rendezvous completed (async level: request acknowledged; the
    /// abstraction maps this to one atomic rendezvous step).
    Rendezvous {
        /// Step index within the run.
        seq: u64,
        /// The active party whose rendezvous completed.
        actor: String,
        /// Message type of the rendezvous.
        msg: String,
    },
    /// A nack was consumed, so the rejected request will be retried
    /// (the refinement's implicit retransmission loop).
    Retransmit {
        /// Step index within the run.
        seq: u64,
        /// The process that will retry.
        actor: String,
        /// Rule that delivered the nack (`T2` at remotes).
        rule: String,
    },
    /// Home buffer occupancy changed (sampled per step; §3.2's k ≥ 2
    /// bound with reserved progress/ack slots).
    HomeBuffer {
        /// Step index within the run.
        seq: u64,
        /// Entries currently buffered.
        used: u32,
        /// Configured capacity `k`.
        capacity: u32,
    },
    /// Terminal event: how the run or search ended.
    Outcome {
        /// Outcome name (`Complete`, `Deadlock`, `InvariantViolated`, ...).
        outcome: String,
        /// Violation message or failure detail, when any.
        detail: Option<String>,
        /// Length of the counterexample path that precedes this event,
        /// when one was emitted.
        steps: Option<u64>,
    },
}

impl TraceEvent {
    /// The event's JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }
}

/// Where trace events go. Instrumented code guards event construction
/// with [`TraceSink::enabled`], so disabled sinks cost one branch.
pub trait TraceSink {
    /// Whether events should be constructed and emitted at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event.
    fn emit(&mut self, ev: &TraceEvent);

    /// Flush any buffered output.
    fn flush(&mut self) {}

    /// The first write error, if any occurred since the last call. A
    /// sink never fails an emit; whoever owns it asks here once the run
    /// is over. Sinks that cannot fail have none.
    fn take_error(&mut self) -> Option<io::Error> {
        None
    }
}

/// A sink that drops everything; `enabled()` is `false`, so callers skip
/// event construction entirely and the cost is one predictable branch.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn emit(&mut self, _ev: &TraceEvent) {}
}

/// A bounded in-memory ring keeping the most recent `cap` events — the
/// tail of an execution, which is what a counterexample wants.
#[derive(Debug, Clone)]
pub struct RingSink {
    cap: usize,
    buf: VecDeque<TraceEvent>,
}

impl RingSink {
    /// Ring keeping the last `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        RingSink { cap: cap.max(1), buf: VecDeque::new() }
    }

    /// The retained tail, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the ring, yielding the retained tail oldest first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.buf.into()
    }
}

impl TraceSink for RingSink {
    fn emit(&mut self, ev: &TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(ev.clone());
    }
}

/// A buffered JSONL writer: the [`HEADER`] line, then one
/// serde-serialized [`TraceEvent`] per line.
///
/// I/O errors are sticky: the first failure disables further writes and
/// is reported by [`TraceSink::take_error`].
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: BufWriter<W>,
    lines: u64,
    error: Option<io::Error>,
}

impl JsonlSink<File> {
    /// Create (truncating) a JSONL trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(File::create(path)?))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wrap any writer, writing the [`HEADER`] line first.
    pub fn new(w: W) -> Self {
        let mut out = BufWriter::new(w);
        let error = writeln!(out, "{HEADER}").err();
        JsonlSink { out, lines: 0, error }
    }

    /// Event lines successfully written so far (the header not counted).
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flush and return the underlying writer.
    pub fn into_inner(self) -> io::Result<W> {
        self.out.into_inner().map_err(|e| e.into_error())
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn emit(&mut self, ev: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let line = ev.to_json();
        if let Err(e) = self.out.write_all(line.as_bytes()).and_then(|()| self.out.write_all(b"\n"))
        {
            self.error = Some(e);
            return;
        }
        self.lines += 1;
    }

    fn flush(&mut self) {
        if let Err(e) = self.out.flush() {
            if self.error.is_none() {
                self.error = Some(e);
            }
        }
    }

    fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }
}

/// Forwarding impl so `&mut S` is itself a sink (handy for passing a
/// sink down through several layers without giving it up).
impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    fn emit(&mut self, ev: &TraceEvent) {
        (**self).emit(ev);
    }
    fn flush(&mut self) {
        (**self).flush();
    }
    fn take_error(&mut self) -> Option<io::Error> {
        (**self).take_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64) -> TraceEvent {
        TraceEvent::Step {
            seq,
            actor: "h".into(),
            kind: "Tau".into(),
            rule: "tau".into(),
            tag: None,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.emit(&ev(0));
    }

    #[test]
    fn ring_keeps_the_tail() {
        let mut s = RingSink::new(3);
        for i in 0..10 {
            s.emit(&ev(i));
        }
        assert_eq!(s.len(), 3);
        let seqs: Vec<u64> = s
            .into_events()
            .iter()
            .map(|e| match e {
                TraceEvent::Step { seq, .. } => *seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn jsonl_writes_one_object_per_line() {
        let mut s = JsonlSink::new(Vec::new());
        s.emit(&ev(0));
        s.emit(&TraceEvent::Outcome { outcome: "Complete".into(), detail: None, steps: Some(1) });
        s.flush();
        assert_eq!(s.lines(), 2);
        let bytes = s.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with(&format!("{HEADER}\n")), "{text}");
        let lines: Vec<&str> = events(&text).unwrap().collect();
        assert_eq!(lines.len(), 2);
        for line in text.lines() {
            assert!(ccr_metrics::jsonval::Json::parse(line).is_ok(), "{line}");
        }
    }

    #[test]
    fn other_versions_are_refused() {
        let body = format!("{}\n", ev(0).to_json());
        assert_eq!(events(&format!("{HEADER}\n{body}")).unwrap().count(), 1);
        let newer = format!("{{\"trace\":{{\"version\":2}}}}\n{body}");
        assert_eq!(
            events(&newer).unwrap_err(),
            "trace version 2 is not supported (this build reads 1)"
        );
        // The traces of the previous build began with their first event.
        assert_eq!(
            events(&body).unwrap_err(),
            "trace version none is not supported (this build reads 1)"
        );
        assert!(events("").is_err());
    }

    #[test]
    fn event_json_is_externally_tagged() {
        let json = ev(3).to_json();
        assert_eq!(
            json,
            "{\"Step\":{\"seq\":3,\"actor\":\"h\",\"kind\":\"Tau\",\"rule\":\"tau\",\"tag\":null}}"
        );
    }
}
