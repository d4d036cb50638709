//! Flight recorder: wall-clock time-series telemetry for long runs.
//!
//! Every other observability surface in this workspace is an *endpoint*
//! artifact — a metrics snapshot, a folded profile, a final report. A
//! ten-hour search that collapses to a crawl at hour three (spill
//! onset, termination-detection pathology, allocator thrash) looks
//! identical to one that ran flat. This module closes that gap: a
//! [`Recorder`] rides the engines' existing heartbeat cadence (the
//! `SearchObserver` wall-clock gate — one clock probe serves
//! heartbeats, status snapshots and the flight record alike) and
//! appends one delta-encoded sample per interval to an append-only
//! `timeline.jsonl` in the run directory.
//!
//! The recorder follows the same null-object discipline as the
//! registry and the profiler: [`Recorder::disabled`] carries no
//! storage, every operation on it is one predictable branch, and
//! `tests/timeline.rs` pins the stronger property that recording off
//! is *invisible* — byte-identical traces and identical deterministic
//! metric snapshots whether the recorder exists or not. The engine hot
//! path never touches the recorder: sampling happens only after the
//! observer's wall-clock interval gate passes, so the per-expansion
//! cost with a recorder attached is unchanged.
//!
//! # The record stream
//!
//! One JSON object per line, discriminated by a `"k"` tag:
//!
//! * `run` — header: spec, sampling interval, watchdog threshold.
//! * `phase` — a named phase begins (`explore/async`, …); cumulative
//!   counters restart from zero for the new phase.
//! * `s` — one sample. Monotone cumulative counters (elapsed time,
//!   states, transitions, spill/compaction bytes) are **delta-encoded**
//!   against the previous record; instantaneous gauges (frontier,
//!   store bytes, RSS, checkpoint seq, epoch) are absolute. Per-kind
//!   span occupancy shares over the interval come from the profiler.
//! * `stall` — the watchdog: no forward progress (neither states nor
//!   transitions advanced) across `stall_after` consecutive samples.
//!   Carries the evidence a stuck run needs: per-worker dominant span
//!   over the stalled window, chunk-queue depths, frontier (`epoch`
//!   stays in the schema for files written by the sharded engine; the
//!   sweep has none and writes `null`).
//!   Emitted once per stall episode; progress re-arms it.
//! * `end` — terminal record: outcome, final absolutes of the last
//!   phase, total sample/stall counts. [`Timeline::validate`] checks
//!   the delta sums reconstruct exactly to these totals, which is what
//!   makes the file self-validating.
//!
//! [`Timeline`] is the reader half: it parses a `timeline.jsonl`,
//! reconstructs absolute series per phase, validates the encoding, and
//! [`Timeline::analyze`] computes per-phase rate statistics and
//! detects rate shifts (e.g. the throughput collapse at spill onset).
//! `ccr timeline <run-dir>` is the CLI front end.

use crate::jsonval::Json;
use crate::profile::{ProfileAgg, Profiler, SpanKind};
use crate::Registry;
use serde::Serializer;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Number of span kinds tracked per worker.
const N_KINDS: usize = SpanKind::ALL.len();

/// Default number of no-progress samples before the watchdog fires.
pub const DEFAULT_STALL_AFTER: u32 = 5;

/// Resident set size of the current process in bytes, from
/// `/proc/self/statm` (field 2, resident pages). Returns `None` off
/// Linux or when procfs is unavailable. Page size is taken as 4096 —
/// true for every Linux target this workspace builds on.
pub fn process_rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages * 4096)
}

/// Everything one sample needs from the engine, gathered by the
/// observer at its heartbeat gate. Cumulative fields are absolute here;
/// the recorder delta-encodes them itself.
#[derive(Debug, Clone, Default)]
pub struct SampleInput<'a> {
    /// States discovered so far in the current phase.
    pub states: u64,
    /// Transitions generated so far in the current phase.
    pub transitions: u64,
    /// Current frontier size.
    pub frontier: u64,
    /// Approximate store footprint in bytes.
    pub store_bytes: u64,
    /// Current BFS depth / level, when the engine tracks it.
    pub depth: Option<u64>,
    /// Cumulative bytes appended to the spill log (`--spill-dir` runs).
    pub spill_bytes: u64,
    /// Cumulative dead log bytes reclaimed by compaction.
    pub compacted_bytes: u64,
    /// Checkpoints (manifests) committed so far.
    pub checkpoint_seq: u64,
    /// Always `None`: the termination-detection epoch of the deleted
    /// sharded engine, kept because the schema (version 1) names it.
    pub epoch: Option<u64>,
    /// A threaded sweep waiting for its workers: `[chunks handed out and
    /// not yet back, chunks back and waiting their turn]`. Empty
    /// otherwise.
    pub queues: &'a [u64],
}

impl<'a> SampleInput<'a> {
    /// A sample carrying only the fields every engine has.
    pub fn basic(states: u64, transitions: u64, frontier: u64, store_bytes: u64) -> Self {
        SampleInput { states, transitions, frontier, store_bytes, ..SampleInput::default() }
    }
}

/// Cumulative counters the recorder delta-encodes, tracked per phase.
#[derive(Debug, Clone, Copy, Default)]
struct Cumulative {
    t_ms: u64,
    states: u64,
    transitions: u64,
    spill_bytes: u64,
    compacted_bytes: u64,
}

struct Inner {
    out: Box<dyn Write + Send>,
    err: Option<io::Error>,
    started: std::time::Instant,
    stall_after: u32,
    prev: Cumulative,
    /// Per-worker span nanos at the previous sample, for occupancy
    /// shares over the interval (worker id → nanos per kind).
    prev_spans: Vec<(usize, [u64; N_KINDS])>,
    samples: u64,
    stalls: u64,
    no_progress: u32,
    stall_open: bool,
}

impl Inner {
    fn write_line(&mut self, line: String) {
        if self.err.is_some() {
            return;
        }
        let mut doc = line;
        doc.push('\n');
        if let Err(e) = self.out.write_all(doc.as_bytes()) {
            self.err = Some(e);
        }
    }

    /// Milliseconds since the recorder was created.
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

/// The flight recorder: appends delta-encoded telemetry records to a
/// writer (normally `timeline.jsonl` in a `--run-dir` bundle) and runs
/// the stall watchdog over them. Cheap to clone; all clones share one
/// stream, so the several phases of a `ccr verify` run append to the
/// same timeline.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl Recorder {
    /// A null recorder: every operation is a no-op costing one branch.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// A recorder appending to `out`, with the `run` header written
    /// immediately (an empty run still leaves a valid timeline).
    /// `interval_ms` is advisory — the observer owns the cadence — and
    /// is recorded in the header for the analyzer.
    pub fn to_writer(
        out: Box<dyn Write + Send>,
        spec: &str,
        interval_ms: u64,
        stall_after: u32,
    ) -> Recorder {
        let mut inner = Inner {
            out,
            err: None,
            started: std::time::Instant::now(),
            stall_after: stall_after.max(1),
            prev: Cumulative::default(),
            prev_spans: Vec::new(),
            samples: 0,
            stalls: 0,
            no_progress: 0,
            stall_open: false,
        };
        let mut ser = Serializer::new();
        {
            let mut map = ser.begin_map();
            map.entry("k", "run");
            map.entry("version", &1u64);
            map.entry("spec", spec);
            map.entry("interval_ms", &interval_ms);
            map.entry("stall_after", &(stall_after.max(1) as u64));
            map.end();
        }
        inner.write_line(ser.into_string());
        Recorder { inner: Some(Arc::new(Mutex::new(inner))) }
    }

    /// A recorder appending to a fresh file at `path`.
    pub fn create(
        path: &Path,
        spec: &str,
        interval_ms: u64,
        stall_after: u32,
    ) -> io::Result<Recorder> {
        let file = std::fs::File::create(path)?;
        Ok(Recorder::to_writer(Box::new(io::BufWriter::new(file)), spec, interval_ms, stall_after))
    }

    /// Whether this recorder is live (false for [`Recorder::disabled`]).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Marks the start of a named phase. Cumulative counters restart
    /// from zero: each phase is its own delta-encoded series.
    pub fn set_phase(&self, name: &str) {
        let Some(inner) = &self.inner else { return };
        let mut g = inner.lock().expect("recorder");
        let now = g.now_ms();
        let dt = now.saturating_sub(g.prev.t_ms);
        let mut ser = Serializer::new();
        {
            let mut map = ser.begin_map();
            map.entry("k", "phase");
            map.entry("dt_ms", &dt);
            map.entry("name", name);
            map.end();
        }
        g.write_line(ser.into_string());
        g.prev = Cumulative { t_ms: now, ..Cumulative::default() };
        g.no_progress = 0;
        g.stall_open = false;
    }

    /// Appends one sample, delta-encoding the cumulative counters and
    /// folding in span occupancy shares from `profiler` and the process
    /// RSS. Runs the stall watchdog: `stall_after` consecutive samples
    /// without forward progress emit one `stall` diagnostic record.
    pub fn sample(&self, input: &SampleInput<'_>, profiler: &Profiler) {
        let Some(inner) = &self.inner else { return };
        let mut g = inner.lock().expect("recorder");
        let now = g.now_ms();
        let dt = now.saturating_sub(g.prev.t_ms);
        let ds = input.states.saturating_sub(g.prev.states);
        let dx = input.transitions.saturating_sub(g.prev.transitions);
        let dspill = input.spill_bytes.saturating_sub(g.prev.spill_bytes);
        let dcompact = input.compacted_bytes.saturating_sub(g.prev.compacted_bytes);
        let agg = if profiler.enabled() { Some(profiler.aggregate()) } else { None };
        let spans = agg.as_ref().map(|a| span_shares(a, &g.prev_spans));
        let rss = process_rss_bytes();
        let mut ser = Serializer::new();
        {
            let mut map = ser.begin_map();
            map.entry("k", "s");
            map.entry("dt_ms", &dt);
            map.entry("ds", &ds);
            map.entry("dx", &dx);
            map.entry("frontier", &input.frontier);
            map.entry("store_bytes", &input.store_bytes);
            map.entry("dspill", &dspill);
            map.entry("dcompact", &dcompact);
            map.entry("ckpt", &input.checkpoint_seq);
            map.entry("rss_bytes", &rss);
            map.entry("depth", &input.depth);
            map.entry("epoch", &input.epoch);
            map.entry_with("spans", |ser| {
                let mut m = ser.begin_map();
                if let Some(shares) = &spans {
                    for (name, share) in shares {
                        m.entry(name, share);
                    }
                }
                m.end();
            });
            map.end();
        }
        g.write_line(ser.into_string());
        g.samples += 1;
        // The watchdog: forward progress is new states *or* new
        // transitions (a frontier churning through duplicates still
        // counts as alive).
        if ds == 0 && dx == 0 {
            g.no_progress += 1;
            if g.no_progress >= g.stall_after && !g.stall_open {
                g.stall_open = true;
                g.stalls += 1;
                let record = stall_record(&g, input, agg.as_ref());
                g.write_line(record);
            }
        } else {
            g.no_progress = 0;
            g.stall_open = false;
        }
        if let Some(a) = &agg {
            g.prev_spans = worker_nanos(a);
        }
        g.prev = Cumulative {
            t_ms: now,
            states: input.states,
            transitions: input.transitions,
            spill_bytes: input.spill_bytes,
            compacted_bytes: input.compacted_bytes,
        };
    }

    /// Writes the terminal `end` record and flushes. The absolutes are
    /// the final counts of the last phase; the analyzer validates its
    /// delta reconstruction against them.
    pub fn finish(&self, outcome: &str, states: u64, transitions: u64) {
        let Some(inner) = &self.inner else { return };
        let mut g = inner.lock().expect("recorder");
        let now = g.now_ms();
        let dt = now.saturating_sub(g.prev.t_ms);
        let mut ser = Serializer::new();
        {
            let mut map = ser.begin_map();
            map.entry("k", "end");
            map.entry("dt_ms", &dt);
            map.entry("outcome", outcome);
            map.entry("states", &states);
            map.entry("transitions", &transitions);
            map.entry("samples", &g.samples);
            map.entry("stalls", &g.stalls);
            map.end();
        }
        g.write_line(ser.into_string());
        if g.err.is_none() {
            if let Err(e) = g.out.flush() {
                g.err = Some(e);
            }
        }
    }

    /// Folds the recorder's own counters into `reg`. Sample and stall
    /// counts are wall-clock artifacts, so both register
    /// nondeterministic — the deterministic snapshot view is unchanged
    /// by recording (the invisibility guarantee).
    pub fn publish(&self, reg: &Registry) {
        let Some(inner) = &self.inner else { return };
        if !reg.enabled() {
            return;
        }
        let g = inner.lock().expect("recorder");
        reg.counter_nondet("mc_timeline_samples_total", "Flight-recorder samples written")
            .add(g.samples);
        reg.counter_nondet("mc_timeline_stalls_total", "Stall-watchdog diagnostics emitted")
            .add(g.stalls);
    }

    /// The first sticky write error, if any. Recording is advisory and
    /// never aborts a verification; the CLI surfaces this at the end.
    pub fn take_error(&self) -> Option<io::Error> {
        let inner = self.inner.as_ref()?;
        inner.lock().expect("recorder").err.take()
    }
}

/// Per-kind share of profiled time over the interval since `prev`,
/// summed across workers. Only kinds with activity in the window.
fn span_shares(agg: &ProfileAgg, prev: &[(usize, [u64; N_KINDS])]) -> Vec<(&'static str, f64)> {
    let mut delta = [0u64; N_KINDS];
    for w in &agg.workers {
        let base = prev.iter().find(|(id, _)| *id == w.worker).map(|(_, row)| *row);
        for (k, kind) in SpanKind::ALL.iter().enumerate() {
            let now = w.kind(*kind).nanos;
            let before = base.map(|row| row[k]).unwrap_or(0);
            delta[k] += now.saturating_sub(before);
        }
    }
    let total: u64 = delta.iter().sum();
    if total == 0 {
        return Vec::new();
    }
    SpanKind::ALL
        .iter()
        .enumerate()
        .filter(|(k, _)| delta[*k] > 0)
        .map(|(k, kind)| (kind.name(), delta[k] as f64 / total as f64))
        .collect()
}

/// Per-worker span nanos, for the next interval's share computation.
fn worker_nanos(agg: &ProfileAgg) -> Vec<(usize, [u64; N_KINDS])> {
    agg.workers
        .iter()
        .map(|w| {
            let mut row = [0u64; N_KINDS];
            for (k, kind) in SpanKind::ALL.iter().enumerate() {
                row[k] = w.kind(*kind).nanos;
            }
            (w.worker, row)
        })
        .collect()
}

/// Renders the watchdog's diagnostic record: everything needed to
/// debug a wedged run from the timeline alone.
fn stall_record(g: &Inner, input: &SampleInput<'_>, agg: Option<&ProfileAgg>) -> String {
    let mut ser = Serializer::new();
    {
        let mut map = ser.begin_map();
        map.entry("k", "stall");
        map.entry("dt_ms", &0u64);
        map.entry("intervals", &(g.no_progress as u64));
        map.entry("states", &input.states);
        map.entry("transitions", &input.transitions);
        map.entry("frontier", &input.frontier);
        map.entry("depth", &input.depth);
        map.entry("epoch", &input.epoch);
        map.entry_with("queues", |ser| {
            let mut seq = ser.begin_seq();
            for q in input.queues {
                seq.elem(q);
            }
            seq.end();
        });
        map.entry_with("workers", |ser| {
            let mut seq = ser.begin_seq();
            if let Some(agg) = agg {
                for w in &agg.workers {
                    let base = g.prev_spans.iter().find(|(id, _)| *id == w.worker).map(|(_, r)| *r);
                    let mut dom: (&str, u64) = ("idle", 0);
                    let mut total = 0u64;
                    for (k, kind) in SpanKind::ALL.iter().enumerate() {
                        let before = base.map(|row| row[k]).unwrap_or(0);
                        let d = w.kind(*kind).nanos.saturating_sub(before);
                        total += d;
                        if d > dom.1 {
                            dom = (kind.name(), d);
                        }
                    }
                    let share = if total > 0 { dom.1 as f64 / total as f64 } else { 1.0 };
                    seq.elem_with(|ser| {
                        let mut m = ser.begin_map();
                        m.entry("worker", &(w.worker as u64));
                        m.entry("span", dom.0);
                        m.entry("share", &share);
                        m.end();
                    });
                }
            }
            seq.end();
        });
        map.end();
    }
    ser.into_string()
}

// ---- reader / analyzer -----------------------------------------------------

/// One reconstructed (absolute) sample point.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelinePoint {
    /// Milliseconds since the recorder started.
    pub t_ms: u64,
    /// Index into [`Timeline::phases`] of the phase this point is in.
    pub phase: usize,
    /// States discovered so far in the phase.
    pub states: u64,
    /// Transitions generated so far in the phase.
    pub transitions: u64,
    /// Frontier size at the sample.
    pub frontier: u64,
    /// Store footprint in bytes at the sample.
    pub store_bytes: u64,
    /// Cumulative spill-log bytes appended in the phase.
    pub spill_bytes: u64,
    /// Cumulative compacted bytes in the phase.
    pub compacted_bytes: u64,
    /// Checkpoints committed at the sample.
    pub checkpoint_seq: u64,
    /// Process RSS at the sample, when procfs was readable.
    pub rss_bytes: Option<u64>,
    /// BFS depth, when the engine tracked it.
    pub depth: Option<u64>,
    /// Exploration rate over the interval ending at this point.
    pub states_per_sec: f64,
    /// Transition rate over the interval ending at this point.
    pub transitions_per_sec: f64,
    /// Span occupancy shares over the interval (kind name → share).
    pub spans: Vec<(String, f64)>,
}

/// One parsed `stall` diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct StallRecord {
    /// Milliseconds since recorder start.
    pub t_ms: u64,
    /// No-progress sampling intervals that tripped the watchdog.
    pub intervals: u64,
    /// States at the stall.
    pub states: u64,
    /// Frontier at the stall.
    pub frontier: u64,
    /// Termination-detection epoch, in files the sharded engine wrote.
    pub epoch: Option<u64>,
    /// Chunk-queue depths `[handed out, back and waiting]` (per-worker
    /// inbox depths in files the sharded engine wrote).
    pub queues: Vec<u64>,
    /// Per-worker `(worker, dominant span, share)` over the window.
    pub workers: Vec<(u64, String, f64)>,
}

/// The parsed `end` record.
#[derive(Debug, Clone, PartialEq)]
pub struct EndRecord {
    /// Milliseconds since recorder start.
    pub t_ms: u64,
    /// Outcome name of the run.
    pub outcome: String,
    /// Final states of the last phase.
    pub states: u64,
    /// Final transitions of the last phase.
    pub transitions: u64,
    /// Total samples the recorder wrote.
    pub samples: u64,
    /// Total stall diagnostics the recorder wrote.
    pub stalls: u64,
}

/// A fully parsed and reconstructed timeline.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Spec or workload name from the header.
    pub spec: String,
    /// Advisory sampling interval from the header.
    pub interval_ms: u64,
    /// Watchdog threshold from the header.
    pub stall_after: u64,
    /// Phase names with their start times, in order.
    pub phases: Vec<(u64, String)>,
    /// Reconstructed absolute sample points, in order.
    pub points: Vec<TimelinePoint>,
    /// Watchdog diagnostics, in order.
    pub stalls: Vec<StallRecord>,
    /// Terminal record, when the run finished cleanly.
    pub end: Option<EndRecord>,
}

fn req_u64(j: &Json, key: &str, line: usize) -> Result<u64, String> {
    j.get(key).and_then(Json::as_u64).ok_or_else(|| format!("line {line}: missing `{key}`"))
}

impl Timeline {
    /// Parses a `timeline.jsonl` document, reconstructing absolutes
    /// from the delta encoding. Unknown record kinds are an error:
    /// the format carries its own version in the header.
    pub fn parse(text: &str) -> Result<Timeline, String> {
        let mut tl = Timeline::default();
        let mut cum = Cumulative::default();
        let mut saw_header = false;
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            if raw.trim().is_empty() {
                continue;
            }
            let j = Json::parse(raw).map_err(|e| format!("line {line}: {e}"))?;
            let kind = j
                .get("k")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {line}: missing `k` tag"))?;
            if !saw_header && kind != "run" {
                return Err(format!("line {line}: first record must be the `run` header"));
            }
            match kind {
                "run" => {
                    if saw_header {
                        return Err(format!("line {line}: duplicate `run` header"));
                    }
                    saw_header = true;
                    tl.spec = j.get("spec").and_then(Json::as_str).unwrap_or_default().to_string();
                    tl.interval_ms = req_u64(&j, "interval_ms", line)?;
                    tl.stall_after = req_u64(&j, "stall_after", line)?;
                }
                "phase" => {
                    cum.t_ms += req_u64(&j, "dt_ms", line)?;
                    let name = j
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("line {line}: phase without `name`"))?;
                    tl.phases.push((cum.t_ms, name.to_string()));
                    cum = Cumulative { t_ms: cum.t_ms, ..Cumulative::default() };
                }
                "s" => {
                    let dt = req_u64(&j, "dt_ms", line)?;
                    cum.t_ms += dt;
                    cum.states += req_u64(&j, "ds", line)?;
                    cum.transitions += req_u64(&j, "dx", line)?;
                    cum.spill_bytes += req_u64(&j, "dspill", line)?;
                    cum.compacted_bytes += req_u64(&j, "dcompact", line)?;
                    let secs = dt as f64 / 1e3;
                    let mut spans = Vec::new();
                    if let Some(obj) = j.get("spans").and_then(Json::as_object) {
                        for (name, v) in obj {
                            let share = v.as_f64().ok_or_else(|| {
                                format!("line {line}: span `{name}` not a number")
                            })?;
                            spans.push((name.clone(), share));
                        }
                    }
                    tl.points.push(TimelinePoint {
                        t_ms: cum.t_ms,
                        phase: tl.phases.len().saturating_sub(1),
                        states: cum.states,
                        transitions: cum.transitions,
                        frontier: req_u64(&j, "frontier", line)?,
                        store_bytes: req_u64(&j, "store_bytes", line)?,
                        spill_bytes: cum.spill_bytes,
                        compacted_bytes: cum.compacted_bytes,
                        checkpoint_seq: req_u64(&j, "ckpt", line)?,
                        rss_bytes: j.get("rss_bytes").and_then(Json::as_u64),
                        depth: j.get("depth").and_then(Json::as_u64),
                        states_per_sec: if secs > 0.0 {
                            req_u64(&j, "ds", line)? as f64 / secs
                        } else {
                            0.0
                        },
                        transitions_per_sec: if secs > 0.0 {
                            req_u64(&j, "dx", line)? as f64 / secs
                        } else {
                            0.0
                        },
                        spans,
                    });
                }
                "stall" => {
                    cum.t_ms += req_u64(&j, "dt_ms", line)?;
                    let queues = j
                        .get("queues")
                        .and_then(Json::as_array)
                        .map(|a| a.iter().filter_map(Json::as_u64).collect())
                        .unwrap_or_default();
                    let mut workers = Vec::new();
                    if let Some(ws) = j.get("workers").and_then(Json::as_array) {
                        for w in ws {
                            workers.push((
                                w.get("worker").and_then(Json::as_u64).unwrap_or(0),
                                w.get("span").and_then(Json::as_str).unwrap_or("idle").to_string(),
                                w.get("share").and_then(Json::as_f64).unwrap_or(0.0),
                            ));
                        }
                    }
                    tl.stalls.push(StallRecord {
                        t_ms: cum.t_ms,
                        intervals: req_u64(&j, "intervals", line)?,
                        states: req_u64(&j, "states", line)?,
                        frontier: req_u64(&j, "frontier", line)?,
                        epoch: j.get("epoch").and_then(Json::as_u64),
                        queues,
                        workers,
                    });
                }
                "end" => {
                    if tl.end.is_some() {
                        return Err(format!("line {line}: duplicate `end` record"));
                    }
                    cum.t_ms += req_u64(&j, "dt_ms", line)?;
                    tl.end = Some(EndRecord {
                        t_ms: cum.t_ms,
                        outcome: j
                            .get("outcome")
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string(),
                        states: req_u64(&j, "states", line)?,
                        transitions: req_u64(&j, "transitions", line)?,
                        samples: req_u64(&j, "samples", line)?,
                        stalls: req_u64(&j, "stalls", line)?,
                    });
                }
                other => return Err(format!("line {line}: unknown record kind `{other}`")),
            }
        }
        if !saw_header {
            return Err("empty timeline: no `run` header".to_string());
        }
        Ok(tl)
    }

    /// Reads and parses a timeline file.
    pub fn read(path: &Path) -> Result<Timeline, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Timeline::parse(&text)
    }

    /// Self-validation: sample timestamps are monotone, and when an
    /// `end` record exists its totals match the delta reconstruction —
    /// the sample count, the stall count, and the final phase's
    /// reconstructed states/transitions (when that phase was sampled).
    pub fn validate(&self) -> Result<(), String> {
        for pair in self.points.windows(2) {
            if pair[1].t_ms < pair[0].t_ms {
                return Err(format!("timestamps regress: {} -> {} ms", pair[0].t_ms, pair[1].t_ms));
            }
        }
        let Some(end) = &self.end else { return Ok(()) };
        if end.samples != self.points.len() as u64 {
            return Err(format!(
                "end record claims {} samples, file holds {}",
                end.samples,
                self.points.len()
            ));
        }
        if end.stalls != self.stalls.len() as u64 {
            return Err(format!(
                "end record claims {} stalls, file holds {}",
                end.stalls,
                self.stalls.len()
            ));
        }
        let last_phase = self.phases.len().saturating_sub(1);
        if let Some(last) = self.points.last() {
            if last.phase == last_phase
                && (last.states > end.states || last.transitions > end.transitions)
            {
                return Err(format!(
                    "delta reconstruction ({} states, {} transitions) exceeds the end \
                     record ({}, {})",
                    last.states, last.transitions, end.states, end.transitions
                ));
            }
        }
        Ok(())
    }

    /// Per-phase rate statistics plus rate-shift detection.
    pub fn analyze(&self) -> Analysis {
        let mut phases = Vec::new();
        for (i, (start_ms, name)) in self.phases.iter().enumerate() {
            let pts: Vec<&TimelinePoint> = self.points.iter().filter(|p| p.phase == i).collect();
            let end_ms = pts.last().map(|p| p.t_ms).unwrap_or(*start_ms);
            let rates: Vec<f64> = pts.iter().map(|p| p.states_per_sec).collect();
            let times: Vec<u64> = pts.iter().map(|p| p.t_ms).collect();
            let nonzero: Vec<f64> = rates.iter().copied().filter(|r| *r > 0.0).collect();
            let mean = if nonzero.is_empty() {
                0.0
            } else {
                nonzero.iter().sum::<f64>() / nonzero.len() as f64
            };
            phases.push(PhaseStats {
                name: name.clone(),
                start_ms: *start_ms,
                end_ms,
                samples: pts.len(),
                states: pts.last().map(|p| p.states).unwrap_or(0),
                transitions: pts.last().map(|p| p.transitions).unwrap_or(0),
                mean_states_per_sec: mean,
                peak_states_per_sec: rates.iter().copied().fold(0.0, f64::max),
                min_states_per_sec: nonzero.iter().copied().fold(f64::INFINITY, f64::min).min(mean),
                shifts: detect_shifts(&rates, &times),
                rates,
            });
        }
        Analysis {
            spec: self.spec.clone(),
            interval_ms: self.interval_ms,
            duration_ms: self
                .end
                .as_ref()
                .map(|e| e.t_ms)
                .or_else(|| self.points.last().map(|p| p.t_ms))
                .unwrap_or(0),
            samples: self.points.len(),
            outcome: self.end.as_ref().map(|e| e.outcome.clone()),
            phases,
            stalls: self.stalls.clone(),
            peak_rss_bytes: self.points.iter().filter_map(|p| p.rss_bytes).max(),
            spill_bytes: self.points.iter().map(|p| p.spill_bytes).max().unwrap_or(0),
            compacted_bytes: self.points.iter().map(|p| p.compacted_bytes).max().unwrap_or(0),
        }
    }
}

/// A detected rate shift: windowed mean throughput before vs after.
#[derive(Debug, Clone, PartialEq)]
pub struct RateShift {
    /// Milliseconds since recorder start at the shift point.
    pub t_ms: u64,
    /// Mean states/sec over the window before the shift.
    pub before: f64,
    /// Mean states/sec over the window after the shift.
    pub after: f64,
}

/// Statistics of one phase's sample series.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Phase name (`explore/async`, …).
    pub name: String,
    /// Phase start, ms since recorder start.
    pub start_ms: u64,
    /// Last sample of the phase, ms since recorder start.
    pub end_ms: u64,
    /// Samples taken within the phase.
    pub samples: usize,
    /// Final reconstructed states of the phase.
    pub states: u64,
    /// Final reconstructed transitions of the phase.
    pub transitions: u64,
    /// Mean per-interval rate (zero-rate warmup samples excluded).
    pub mean_states_per_sec: f64,
    /// Fastest per-interval rate.
    pub peak_states_per_sec: f64,
    /// Slowest nonzero per-interval rate.
    pub min_states_per_sec: f64,
    /// Detected throughput shifts (collapse or recovery by ≥ 2×).
    pub shifts: Vec<RateShift>,
    /// The raw per-sample rate series, for sparkline rendering.
    pub rates: Vec<f64>,
}

/// The full analysis of one timeline, renderable as `timeline.json`.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Spec or workload name.
    pub spec: String,
    /// Advisory sampling interval.
    pub interval_ms: u64,
    /// Total recorded duration.
    pub duration_ms: u64,
    /// Total samples across phases.
    pub samples: usize,
    /// Run outcome, when the timeline has an `end` record.
    pub outcome: Option<String>,
    /// Per-phase statistics, in run order.
    pub phases: Vec<PhaseStats>,
    /// Watchdog diagnostics.
    pub stalls: Vec<StallRecord>,
    /// Largest sampled RSS.
    pub peak_rss_bytes: Option<u64>,
    /// Largest cumulative spill volume sampled in any phase.
    pub spill_bytes: u64,
    /// Largest cumulative compaction volume sampled in any phase.
    pub compacted_bytes: u64,
}

impl Analysis {
    /// Renders the machine-readable `timeline.json` document. The
    /// top-level `"timeline"` key marks the document kind.
    pub fn to_json(&self) -> String {
        let mut ser = Serializer::new();
        {
            let mut map = ser.begin_map();
            map.entry_with("timeline", |ser| self.serialize_into(ser));
            map.end();
        }
        ser.into_string()
    }

    /// Writes the analysis map into `ser`, so callers (e.g. `ccr
    /// report`) can embed it under their own key.
    pub fn serialize_into(&self, ser: &mut Serializer) {
        {
            let mut t = ser.begin_map();
            t.entry("spec", &self.spec);
            t.entry("interval_ms", &self.interval_ms);
            t.entry("duration_ms", &self.duration_ms);
            t.entry("samples", &(self.samples as u64));
            t.entry("outcome", &self.outcome);
            t.entry("peak_rss_bytes", &self.peak_rss_bytes);
            t.entry("spill_bytes", &self.spill_bytes);
            t.entry("compacted_bytes", &self.compacted_bytes);
            t.entry_with("phases", |ser| {
                let mut seq = ser.begin_seq();
                for p in &self.phases {
                    seq.elem_with(|ser| {
                        let mut m = ser.begin_map();
                        m.entry("name", &p.name);
                        m.entry("start_ms", &p.start_ms);
                        m.entry("end_ms", &p.end_ms);
                        m.entry("samples", &(p.samples as u64));
                        m.entry("states", &p.states);
                        m.entry("transitions", &p.transitions);
                        m.entry("mean_states_per_sec", &p.mean_states_per_sec);
                        m.entry("peak_states_per_sec", &p.peak_states_per_sec);
                        m.entry("min_states_per_sec", &p.min_states_per_sec);
                        m.entry_with("shifts", |ser| {
                            let mut s = ser.begin_seq();
                            for sh in &p.shifts {
                                s.elem_with(|ser| {
                                    let mut m = ser.begin_map();
                                    m.entry("t_ms", &sh.t_ms);
                                    m.entry("before", &sh.before);
                                    m.entry("after", &sh.after);
                                    m.end();
                                });
                            }
                            s.end();
                        });
                        m.end();
                    });
                }
                seq.end();
            });
            t.entry_with("stalls", |ser| {
                let mut seq = ser.begin_seq();
                for s in &self.stalls {
                    seq.elem_with(|ser| {
                        let mut m = ser.begin_map();
                        m.entry("t_ms", &s.t_ms);
                        m.entry("intervals", &s.intervals);
                        m.entry("states", &s.states);
                        m.entry("frontier", &s.frontier);
                        m.entry("epoch", &s.epoch);
                        m.entry_with("queues", |ser| {
                            let mut q = ser.begin_seq();
                            for d in &s.queues {
                                q.elem(d);
                            }
                            q.end();
                        });
                        m.entry_with("workers", |ser| {
                            let mut w = ser.begin_seq();
                            for (id, span, share) in &s.workers {
                                w.elem_with(|ser| {
                                    let mut m = ser.begin_map();
                                    m.entry("worker", id);
                                    m.entry("span", span);
                                    m.entry("share", share);
                                    m.end();
                                });
                            }
                            w.end();
                        });
                        m.end();
                    });
                }
                seq.end();
            });
            t.end();
        }
    }
}

/// Windowed change-point detection over a rate series: a shift is a
/// ≥ 2× jump or ≤ ½× collapse of the windowed mean. Deterministic and
/// intentionally simple — it flags the spill-onset collapse and the
/// level-structure phase changes, not subtle drift.
pub fn detect_shifts(rates: &[f64], t_ms: &[u64]) -> Vec<RateShift> {
    let w = (rates.len() / 8).max(3);
    let mut shifts = Vec::new();
    if rates.len() < 2 * w {
        return shifts;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let mut i = w;
    while i + w <= rates.len() {
        let before = mean(&rates[i - w..i]);
        let after = mean(&rates[i..i + w]);
        if before > 0.0 && (after >= 2.0 * before || after <= before / 2.0) {
            shifts.push(RateShift { t_ms: t_ms[i], before, after });
            i += w; // cool down: one report per window
        } else {
            i += 1;
        }
    }
    shifts
}

/// Renders `values` as a unicode sparkline at most `width` characters
/// wide (bucket means when the series is longer), scaled to the series
/// maximum. Empty or all-zero series render as flat baseline bars.
pub fn sparkline(values: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let cols = width.min(values.len());
    let mut resampled = Vec::with_capacity(cols);
    for c in 0..cols {
        let lo = c * values.len() / cols;
        let hi = (((c + 1) * values.len()) / cols).max(lo + 1);
        let bucket = &values[lo..hi];
        resampled.push(bucket.iter().sum::<f64>() / bucket.len() as f64);
    }
    let max = resampled.iter().copied().fold(0.0, f64::max);
    resampled
        .iter()
        .map(|v| {
            if max <= 0.0 {
                BARS[0]
            } else {
                let idx = ((v / max) * 7.0).round() as usize;
                BARS[idx.min(7)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` sink tests can read back out from under the recorder.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    fn recorder(buf: &SharedBuf, stall_after: u32) -> Recorder {
        Recorder::to_writer(Box::new(buf.clone()), "specs/test.ccp", 0, stall_after)
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let rec = Recorder::disabled();
        assert!(!rec.enabled());
        rec.set_phase("explore");
        rec.sample(&SampleInput::basic(1, 1, 1, 1), &Profiler::disabled());
        rec.finish("Complete", 1, 1);
        assert!(rec.take_error().is_none());
        let reg = Registry::new();
        rec.publish(&reg);
        assert!(reg.snapshot().counters.is_empty());
    }

    #[test]
    fn samples_are_delta_encoded_and_reconstruct() {
        let buf = SharedBuf::default();
        let rec = recorder(&buf, 5);
        rec.set_phase("explore/async");
        let prof = Profiler::disabled();
        rec.sample(&SampleInput::basic(10, 25, 4, 800), &prof);
        rec.sample(&SampleInput::basic(30, 70, 9, 1600), &prof);
        rec.finish("Complete", 30, 70);
        let text = buf.text();
        // The second sample's cumulative fields are raw deltas on disk.
        let second = text.lines().nth(3).unwrap();
        let j = Json::parse(second).unwrap();
        assert_eq!(j.get("ds").and_then(Json::as_u64), Some(20));
        assert_eq!(j.get("dx").and_then(Json::as_u64), Some(45));
        let tl = Timeline::parse(&text).unwrap();
        tl.validate().unwrap();
        assert_eq!(tl.points.len(), 2);
        assert_eq!(tl.points[1].states, 30);
        assert_eq!(tl.points[1].transitions, 70);
        assert_eq!(tl.phases, vec![(tl.phases[0].0, "explore/async".to_string())]);
        let end = tl.end.unwrap();
        assert_eq!((end.states, end.samples, end.stalls), (30, 2, 0));
    }

    #[test]
    fn phase_change_restarts_the_cumulative_series() {
        let buf = SharedBuf::default();
        let rec = recorder(&buf, 5);
        let prof = Profiler::disabled();
        rec.set_phase("explore/rendezvous");
        rec.sample(&SampleInput::basic(100, 200, 1, 64), &prof);
        rec.set_phase("explore/async");
        rec.sample(&SampleInput::basic(40, 90, 2, 64), &prof);
        rec.finish("Complete", 40, 90);
        let tl = Timeline::parse(&buf.text()).unwrap();
        tl.validate().unwrap();
        assert_eq!(tl.phases.len(), 2);
        assert_eq!(tl.points[0].phase, 0);
        assert_eq!(tl.points[0].states, 100);
        // The second phase reconstructs from its own zero baseline.
        assert_eq!(tl.points[1].phase, 1);
        assert_eq!(tl.points[1].states, 40);
    }

    #[test]
    fn watchdog_fires_once_per_episode_and_rearms() {
        let buf = SharedBuf::default();
        let rec = recorder(&buf, 3);
        let prof = Profiler::disabled();
        rec.set_phase("explore");
        rec.sample(&SampleInput::basic(5, 9, 1, 64), &prof);
        // Three stuck samples: the third trips the watchdog, once.
        for _ in 0..5 {
            rec.sample(&SampleInput::basic(5, 9, 1, 64), &prof);
        }
        // Progress re-arms it; three more stuck samples trip it again.
        rec.sample(&SampleInput::basic(6, 11, 1, 64), &prof);
        for _ in 0..3 {
            rec.sample(&SampleInput::basic(6, 11, 1, 64), &prof);
        }
        rec.finish("Complete", 6, 11);
        let tl = Timeline::parse(&buf.text()).unwrap();
        tl.validate().unwrap();
        assert_eq!(tl.stalls.len(), 2);
        assert_eq!(tl.stalls[0].intervals, 3);
        assert_eq!(tl.stalls[0].states, 5);
        assert_eq!(tl.end.unwrap().stalls, 2);
    }

    #[test]
    fn stall_records_carry_engine_diagnostics() {
        let buf = SharedBuf::default();
        let rec = recorder(&buf, 2);
        let prof = Profiler::new();
        let mut t = prof.worker(3);
        t.lap(SpanKind::BarrierWait, 1);
        drop(t);
        rec.set_phase("explore");
        let input =
            SampleInput { epoch: Some(17), queues: &[4, 0], ..SampleInput::basic(5, 9, 2, 64) };
        for _ in 0..3 {
            rec.sample(&input, &prof);
        }
        rec.finish("Unfinished", 5, 9);
        let tl = Timeline::parse(&buf.text()).unwrap();
        assert_eq!(tl.stalls.len(), 1);
        let stall = &tl.stalls[0];
        assert_eq!(stall.epoch, Some(17));
        assert_eq!(stall.queues, vec![4, 0]);
        assert_eq!(stall.workers.len(), 1);
        assert_eq!(stall.workers[0].0, 3);
    }

    #[test]
    fn corrupt_timelines_fail_parse_or_validate() {
        assert!(Timeline::parse("").is_err());
        assert!(Timeline::parse("{\"k\":\"s\"}").is_err());
        assert!(Timeline::parse(
            "{\"k\":\"run\",\"interval_ms\":0,\"stall_after\":1}\n{\"k\":\"wat\"}"
        )
        .is_err());
        // An end record lying about the sample count fails validation.
        let buf = SharedBuf::default();
        let rec = recorder(&buf, 5);
        rec.set_phase("explore");
        rec.sample(&SampleInput::basic(1, 1, 1, 1), &Profiler::disabled());
        rec.finish("Complete", 1, 1);
        let mut text = buf.text();
        text = text.replace("\"samples\":1", "\"samples\":7");
        let tl = Timeline::parse(&text).unwrap();
        assert!(tl.validate().is_err());
    }

    #[test]
    fn analysis_detects_a_rate_collapse_and_round_trips_json() {
        let buf = SharedBuf::default();
        let rec = recorder(&buf, 50);
        let prof = Profiler::disabled();
        rec.set_phase("explore/async");
        // Fast regime then a 10x collapse; dt is 0 in-process, so feed
        // the detector via parse-level rates by spacing the deltas.
        let mut states = 0u64;
        let mut series = Vec::new();
        for i in 0..24 {
            states += if i < 12 { 1000 } else { 100 };
            series.push(states);
        }
        for s in &series {
            rec.sample(&SampleInput::basic(*s, *s * 2, 5, 64), &prof);
        }
        rec.finish("Complete", states, states * 2);
        let mut tl = Timeline::parse(&buf.text()).unwrap();
        tl.validate().unwrap();
        // In-process dt is ~0 ms, so synthesize per-sample timing to
        // exercise the analyzer deterministically.
        for (i, p) in tl.points.iter_mut().enumerate() {
            p.t_ms = (i as u64 + 1) * 100;
        }
        let mut prev = 0u64;
        for p in tl.points.iter_mut() {
            p.states_per_sec = (p.states - prev) as f64 * 10.0;
            prev = p.states;
        }
        let analysis = tl.analyze();
        assert_eq!(analysis.phases.len(), 1);
        let phase = &analysis.phases[0];
        assert!(!phase.shifts.is_empty(), "10x collapse not detected");
        assert!(phase.shifts[0].before > phase.shifts[0].after);
        let doc = analysis.to_json();
        let parsed = Json::parse(&doc).expect("timeline.json parses");
        assert!(parsed.path("timeline.phases").is_some());
        assert_eq!(parsed.path("timeline.samples").and_then(Json::as_u64), Some(24));
    }

    #[test]
    fn sparkline_scales_and_resamples() {
        assert_eq!(sparkline(&[], 10), "");
        assert_eq!(sparkline(&[0.0, 0.0], 10), "▁▁");
        let line = sparkline(&[1.0, 2.0, 4.0, 8.0], 4);
        assert_eq!(line.chars().count(), 4);
        assert!(line.ends_with('█'));
        // Longer series resample down to the requested width.
        let long: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(sparkline(&long, 12).chars().count(), 12);
    }

    #[test]
    fn publish_tags_everything_nondeterministic() {
        let buf = SharedBuf::default();
        let rec = recorder(&buf, 5);
        rec.sample(&SampleInput::basic(1, 2, 1, 1), &Profiler::disabled());
        rec.finish("Complete", 1, 2);
        let reg = Registry::new();
        rec.publish(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["mc_timeline_samples_total"], 1);
        for name in ["mc_timeline_samples_total", "mc_timeline_stalls_total"] {
            assert!(snap.nondeterministic.contains(&name.to_string()), "{name} untagged");
        }
        assert!(snap.deterministic().counters.is_empty());
    }

    #[test]
    fn rss_probe_reads_procfs() {
        // The test environment is Linux; a live process has nonzero RSS.
        let rss = process_rss_bytes().expect("procfs");
        assert!(rss > 0);
    }
}
