//! Flight recorder: wall-clock time-series telemetry for long runs.
//!
//! Every other observability surface in this workspace is an *endpoint*
//! artifact — a metrics snapshot, a folded profile, a final report. A
//! ten-hour search that collapses to a crawl at hour three (spill
//! onset, termination-detection pathology, allocator thrash) looks
//! identical to one that ran flat. This module closes that gap: a
//! [`Recorder`] rides the engines' existing heartbeat cadence (the
//! `SearchObserver` wall-clock gate — one clock reading serves the
//! heartbeat, the timeline and the status file alike) and builds one
//! sample per interval. It appends the sample, delta-encoded, to an
//! append-only `timeline.jsonl`, and rewrites the live status file with
//! the same sample in absolute form. It is the only writer of
//! per-heartbeat telemetry.
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
//! # The timeline (version 2)
//!
//! One JSON object per line, discriminated by a `"k"` tag:
//!
//! * `run` — header: `version` (2), spec, sampling interval, watchdog
//!   threshold.
//! * `phase` — a named phase begins (`explore/async`, …); cumulative
//!   counters restart from zero for the new phase.
//! * `s` — one sample. Monotone cumulative counters (elapsed time,
//!   states, transitions, spill/compaction bytes) are **delta-encoded**
//!   against the previous record (`dt_ms`, `ds`, `dx`, `dspill`,
//!   `dcompact`); gauges (`frontier`, `store_bytes`, `ckpt`,
//!   `rss_bytes`) are absolute. `spans` holds the per-kind share of
//!   profiled time over the interval.
//! * `stall` — the watchdog: no forward progress (neither states nor
//!   transitions advanced) across `stall_after` consecutive samples.
//!   Carries the evidence a stuck run needs: per-worker dominant span
//!   over the stalled window, chunk-queue depths and frontier. Emitted
//!   once per stall episode; progress re-arms it.
//! * `end` — terminal record: outcome, final absolutes of the last
//!   phase, total sample/stall counts. [`Timeline::validate`] checks
//!   the delta sums reconstruct exactly to these totals, which is what
//!   makes the file self-validating.
//!
//! Version 1 also carried the BFS level and termination counter of the
//! deleted sharded engine, `null` ever since; this build refuses it
//! rather than misread it.
//!
//! # The status document (version 2)
//!
//! One JSON object, replaced by rename at every sample so a concurrent
//! reader (`ccr watch`) sees the previous document or the new one,
//! never a torn mix. It is the latest sample in absolute form —
//! `elapsed_ms` (since the run began), `states`, `transitions`,
//! `spill_bytes`, `compacted_bytes` and `states_per_sec` in place of the
//! deltas, then the same gauges and `spans` — plus `version`, `spec`,
//! `phase`, `eta_ms` (against the state budget), `finished`, `outcome`,
//! a `seq` that grows with every write and the writer's `pid`.
//! [`Recorder::finish`] writes the terminal document (`finished`, the
//! exact final counts, the whole-run average rate). [`Status`] reads it
//! with the timeline's sample parser.
//!
//! [`Timeline`] is the reader half: it parses a `timeline.jsonl`,
//! reconstructs absolute series per phase, validates the encoding, and
//! [`Timeline::analyze`] computes per-phase rate statistics and
//! detects rate shifts (e.g. the throughput collapse at spill onset).
//! `ccr timeline <run-dir>` is the CLI front end.

use crate::jsonval::Json;
use crate::profile::{ProfileAgg, Profiler, SpanKind};
use crate::Registry;
use serde::{MapSer, Serializer};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of span kinds tracked per worker.
const N_KINDS: usize = SpanKind::ALL.len();

/// Default number of no-progress samples before the watchdog fires.
pub const DEFAULT_STALL_AFTER: u32 = 5;

/// The timeline and status schema version this build writes and reads.
pub const VERSION: u64 = 2;

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
    /// Cumulative bytes appended to the spill log (`--spill-dir` runs).
    pub spill_bytes: u64,
    /// Cumulative dead log bytes reclaimed by compaction.
    pub compacted_bytes: u64,
    /// Checkpoints (manifests) committed so far.
    pub checkpoint_seq: u64,
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

/// Refuses a timeline header or status document (`what`) whose `version`
/// is not [`VERSION`].
fn check_version(j: &Json, what: &str) -> Result<(), String> {
    match j.get("version").and_then(Json::as_u64) {
        Some(VERSION) => Ok(()),
        found => Err(format!(
            "{what} version {} is not supported (this build reads {VERSION})",
            found.map_or_else(|| "none".to_string(), |v| v.to_string())
        )),
    }
}

/// A status file and the hidden sibling it is written through (`.{name}.tmp`,
/// so the rename stays on one filesystem).
struct StatusFile {
    path: PathBuf,
    tmp: PathBuf,
}

struct Inner {
    /// The timeline stream, when one is recorded.
    timeline: Option<Box<dyn Write + Send>>,
    /// The first timeline write error; the status file's are dropped.
    err: Option<io::Error>,
    status: Option<StatusFile>,
    started: Instant,
    spec: String,
    /// State count the status ETA is computed against.
    budget: Option<u64>,
    stall_after: u32,
    phase: String,
    /// The last sample, or the zero baseline a phase starts from.
    prev: TimelinePoint,
    /// Per-worker span nanos at the previous sample, for occupancy
    /// shares over the interval (worker id → nanos per kind).
    prev_spans: Vec<(usize, [u64; N_KINDS])>,
    samples: u64,
    stalls: u64,
    no_progress: u32,
    stall_open: bool,
    /// Status documents written so far.
    seq: u64,
}

impl Inner {
    fn write_line(&mut self, line: String) {
        let Some(out) = &mut self.timeline else { return };
        if self.err.is_some() {
            return;
        }
        let mut doc = line;
        doc.push('\n');
        if let Err(e) = out.write_all(doc.as_bytes()) {
            self.err = Some(e);
        }
    }

    /// Milliseconds from the start of the run to `now`, never before the
    /// previous record.
    fn ms(&self, now: Instant) -> u64 {
        (now.saturating_duration_since(self.started).as_millis() as u64).max(self.prev.t_ms)
    }

    /// Replaces the status file with `point` in absolute form. Errors
    /// are dropped: status is advisory and never fails a run.
    fn write_status(&mut self, point: &TimelinePoint, eta_ms: Option<u64>, outcome: Option<&str>) {
        let Some(file) = &self.status else { return };
        self.seq += 1;
        let mut ser = Serializer::new();
        {
            let mut map = ser.begin_map();
            map.entry("version", &VERSION);
            map.entry("spec", &self.spec);
            map.entry("phase", &self.phase);
            point.write(&mut map, None);
            map.entry("eta_ms", &eta_ms);
            map.entry("finished", &outcome.is_some());
            map.entry("outcome", &outcome);
            map.entry("seq", &self.seq);
            map.entry("pid", &(std::process::id() as u64));
            map.end();
        }
        let mut doc = ser.into_string();
        doc.push('\n');
        let _ =
            std::fs::write(&file.tmp, doc).and_then(|()| std::fs::rename(&file.tmp, &file.path));
    }
}

/// The flight recorder: builds one sample per heartbeat, appends it
/// delta-encoded to the timeline, rewrites the status file with it, and
/// runs the stall watchdog over the samples. Cheap to clone; all clones
/// share one recording, so the several phases of a `ccr verify` run
/// append to the same timeline.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl Recorder {
    /// A null recorder: every operation is a no-op costing one branch.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// A recorder appending the timeline to `timeline` (its `run` header
    /// is written at once, so an empty run still leaves a valid timeline)
    /// and keeping the status document at `status`; [`Recorder::disabled`]
    /// when both are `None`. `interval_ms` is advisory — the observer
    /// owns the cadence — and is recorded in the header for the analyzer;
    /// `budget` is the state count the status ETA is computed against.
    /// The run's clock starts here.
    pub fn new(
        spec: &str,
        interval_ms: u64,
        stall_after: u32,
        budget: Option<u64>,
        timeline: Option<Box<dyn Write + Send>>,
        status: Option<PathBuf>,
    ) -> Recorder {
        if timeline.is_none() && status.is_none() {
            return Recorder::disabled();
        }
        let status = status.map(|path| {
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            let tmp = path.with_file_name(format!(".{}.tmp", name.unwrap_or_default()));
            StatusFile { path, tmp }
        });
        let mut inner = Inner {
            timeline,
            err: None,
            status,
            started: Instant::now(),
            spec: spec.to_string(),
            budget,
            stall_after: stall_after.max(1),
            phase: String::new(),
            prev: TimelinePoint::default(),
            prev_spans: Vec::new(),
            samples: 0,
            stalls: 0,
            no_progress: 0,
            stall_open: false,
            seq: 0,
        };
        let mut ser = Serializer::new();
        {
            let mut map = ser.begin_map();
            map.entry("k", "run");
            map.entry("version", &VERSION);
            map.entry("spec", spec);
            map.entry("interval_ms", &interval_ms);
            map.entry("stall_after", &(inner.stall_after as u64));
            map.end();
        }
        inner.write_line(ser.into_string());
        Recorder { inner: Some(Arc::new(Mutex::new(inner))) }
    }

    /// A recorder appending the timeline alone to a fresh file at `path`.
    pub fn create(
        path: &Path,
        spec: &str,
        interval_ms: u64,
        stall_after: u32,
    ) -> io::Result<Recorder> {
        let out = io::BufWriter::new(std::fs::File::create(path)?);
        Ok(Recorder::new(spec, interval_ms, stall_after, None, Some(Box::new(out)), None))
    }

    /// Whether this recorder is live (false for [`Recorder::disabled`]).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Marks the start of a named phase at `now`. Cumulative counters
    /// restart from zero: each phase is its own delta-encoded series.
    pub fn set_phase(&self, name: &str, now: Instant) {
        let Some(inner) = &self.inner else { return };
        let mut g = inner.lock().expect("recorder");
        let t_ms = g.ms(now);
        let mut ser = Serializer::new();
        {
            let mut map = ser.begin_map();
            map.entry("k", "phase");
            map.entry("dt_ms", &(t_ms - g.prev.t_ms));
            map.entry("name", name);
            map.end();
        }
        g.write_line(ser.into_string());
        g.phase = name.to_string();
        g.prev = TimelinePoint { t_ms, ..TimelinePoint::default() };
        g.no_progress = 0;
        g.stall_open = false;
    }

    /// Takes one sample at `now`, when the observer measured
    /// `states_per_sec` since its previous gate: folds in span occupancy
    /// shares from `profiler` and the process RSS, appends the
    /// delta-encoded line to the timeline and rewrites the status file.
    /// Runs the stall watchdog: `stall_after` consecutive samples without
    /// forward progress emit one `stall` diagnostic record.
    pub fn sample(
        &self,
        input: &SampleInput<'_>,
        now: Instant,
        states_per_sec: f64,
        profiler: &Profiler,
    ) {
        let Some(inner) = &self.inner else { return };
        let mut g = inner.lock().expect("recorder");
        let agg = if profiler.enabled() { Some(profiler.aggregate()) } else { None };
        let point = TimelinePoint {
            t_ms: g.ms(now),
            phase: 0,
            states: input.states,
            transitions: input.transitions,
            frontier: input.frontier,
            store_bytes: input.store_bytes,
            spill_bytes: input.spill_bytes,
            compacted_bytes: input.compacted_bytes,
            checkpoint_seq: input.checkpoint_seq,
            rss_bytes: process_rss_bytes(),
            states_per_sec,
            spans: agg.as_ref().map(|a| span_shares(a, &g.prev_spans)).unwrap_or_default(),
        };
        let mut ser = Serializer::new();
        {
            let mut map = ser.begin_map();
            map.entry("k", "s");
            point.write(&mut map, Some(&g.prev));
            map.end();
        }
        g.write_line(ser.into_string());
        let eta_ms = match g.budget {
            Some(budget) if budget > point.states && states_per_sec > 0.0 => {
                Some(((budget - point.states) as f64 / states_per_sec * 1e3) as u64)
            }
            _ => None,
        };
        g.write_status(&point, eta_ms, None);
        g.samples += 1;
        // The watchdog: forward progress is new states *or* new
        // transitions (a frontier churning through duplicates still
        // counts as alive).
        if point.states <= g.prev.states && point.transitions <= g.prev.transitions {
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
        g.prev = point;
    }

    /// Ends the recording: the timeline's `end` record (flushed) and the
    /// terminal status document — `finished`, the exact final counts and
    /// store footprint of the last phase, the whole-run average rate, the
    /// last sample's other gauges and the span shares since it.
    pub fn finish(
        &self,
        outcome: &str,
        states: u64,
        transitions: u64,
        store_bytes: u64,
        profiler: &Profiler,
    ) {
        let Some(inner) = &self.inner else { return };
        let mut guard = inner.lock().expect("recorder");
        let g = &mut *guard;
        let t_ms = g.ms(Instant::now());
        let mut ser = Serializer::new();
        {
            let mut map = ser.begin_map();
            map.entry("k", "end");
            map.entry("dt_ms", &(t_ms - g.prev.t_ms));
            map.entry("outcome", outcome);
            map.entry("states", &states);
            map.entry("transitions", &transitions);
            map.entry("samples", &g.samples);
            map.entry("stalls", &g.stalls);
            map.end();
        }
        g.write_line(ser.into_string());
        if let (Some(out), None) = (&mut g.timeline, &g.err) {
            if let Err(e) = out.flush() {
                g.err = Some(e);
            }
        }
        let spans = if profiler.enabled() {
            span_shares(&profiler.aggregate(), &g.prev_spans)
        } else {
            Vec::new()
        };
        let point = TimelinePoint {
            t_ms,
            states,
            transitions,
            frontier: 0,
            store_bytes,
            rss_bytes: process_rss_bytes(),
            // Whole-run average, so a run too quick for any live sample
            // still reports a rate.
            states_per_sec: if t_ms > 0 { states as f64 / (t_ms as f64 / 1e3) } else { 0.0 },
            spans,
            ..g.prev.clone()
        };
        g.phase = "done".to_string();
        g.write_status(&point, Some(0), Some(outcome));
    }

    /// Folds the recorder's own counters into `reg` when it records a
    /// timeline. Sample and stall counts are wall-clock artifacts, so
    /// both register nondeterministic — the deterministic snapshot view
    /// is unchanged by recording (the invisibility guarantee).
    pub fn publish(&self, reg: &Registry) {
        let Some(inner) = &self.inner else { return };
        let g = inner.lock().expect("recorder");
        if !reg.enabled() || g.timeline.is_none() {
            return;
        }
        reg.counter_nondet("mc_timeline_samples_total", "Flight-recorder samples written")
            .add(g.samples);
        reg.counter_nondet("mc_timeline_stalls_total", "Stall-watchdog diagnostics emitted")
            .add(g.stalls);
    }

    /// The first sticky timeline write error, if any. Recording is
    /// advisory and never aborts a verification; the CLI surfaces this at
    /// the end.
    pub fn take_error(&self) -> Option<io::Error> {
        let inner = self.inner.as_ref()?;
        inner.lock().expect("recorder").err.take()
    }
}

/// Per-kind share of profiled time over the interval since `prev`,
/// summed across workers. Only kinds with activity in the window.
fn span_shares(agg: &ProfileAgg, prev: &[(usize, [u64; N_KINDS])]) -> Vec<(String, f64)> {
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
        .map(|(k, kind)| (kind.name().to_string(), delta[k] as f64 / total as f64))
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

/// One sample in absolute form: a reconstructed timeline point, or the
/// sample a status document holds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimelinePoint {
    /// Milliseconds since the run started.
    pub t_ms: u64,
    /// Index into [`Timeline::phases`] of the phase this point is in (0
    /// in a status document, which names its phase).
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
    /// Exploration rate over the interval ending at this point.
    pub states_per_sec: f64,
    /// Span occupancy shares over the interval (kind name → share).
    pub spans: Vec<(String, f64)>,
}

/// `total` plus the delta `key` of record `j`, or a `line N:` error when
/// the sum leaves `u64`.
fn plus(total: u64, j: &Json, key: &str, line: usize) -> Result<u64, String> {
    total
        .checked_add(req_u64(j, key, line)?)
        .ok_or_else(|| format!("line {line}: `{key}` overflows the running total"))
}

impl TimelinePoint {
    /// Writes this sample into `map`: its cumulative counters as deltas
    /// on `base` (a timeline `s` line, whose rate they imply), or
    /// absolute with the rate (a status document) when `base` is `None`;
    /// then the gauges and span shares both forms share.
    fn write(&self, map: &mut MapSer<'_>, base: Option<&TimelinePoint>) {
        match base {
            Some(b) => {
                map.entry("dt_ms", &self.t_ms.saturating_sub(b.t_ms));
                map.entry("ds", &self.states.saturating_sub(b.states));
                map.entry("dx", &self.transitions.saturating_sub(b.transitions));
                map.entry("dspill", &self.spill_bytes.saturating_sub(b.spill_bytes));
                map.entry("dcompact", &self.compacted_bytes.saturating_sub(b.compacted_bytes));
            }
            None => {
                map.entry("elapsed_ms", &self.t_ms);
                map.entry("states", &self.states);
                map.entry("transitions", &self.transitions);
                map.entry("spill_bytes", &self.spill_bytes);
                map.entry("compacted_bytes", &self.compacted_bytes);
                map.entry("states_per_sec", &self.states_per_sec);
            }
        }
        map.entry("frontier", &self.frontier);
        map.entry("store_bytes", &self.store_bytes);
        map.entry("ckpt", &self.checkpoint_seq);
        map.entry("rss_bytes", &self.rss_bytes);
        map.entry_with("spans", |ser| {
            let mut m = ser.begin_map();
            for (name, share) in &self.spans {
                m.entry(name, share);
            }
            m.end();
        });
    }

    /// The inverse of [`TimelinePoint::write`]: record `j` (line `line`)
    /// read as deltas on `base`, whose phase it inherits, or as a status
    /// document's absolutes when `base` is `None`.
    fn parse(j: &Json, line: usize, base: Option<&TimelinePoint>) -> Result<TimelinePoint, String> {
        let mut point = match base {
            Some(b) => {
                let mut p = TimelinePoint {
                    t_ms: plus(b.t_ms, j, "dt_ms", line)?,
                    phase: b.phase,
                    states: plus(b.states, j, "ds", line)?,
                    transitions: plus(b.transitions, j, "dx", line)?,
                    spill_bytes: plus(b.spill_bytes, j, "dspill", line)?,
                    compacted_bytes: plus(b.compacted_bytes, j, "dcompact", line)?,
                    ..TimelinePoint::default()
                };
                let secs = (p.t_ms - b.t_ms) as f64 / 1e3;
                if secs > 0.0 {
                    p.states_per_sec = (p.states - b.states) as f64 / secs;
                }
                p
            }
            None => TimelinePoint {
                t_ms: req_u64(j, "elapsed_ms", line)?,
                states: req_u64(j, "states", line)?,
                transitions: req_u64(j, "transitions", line)?,
                spill_bytes: req_u64(j, "spill_bytes", line)?,
                compacted_bytes: req_u64(j, "compacted_bytes", line)?,
                states_per_sec: j
                    .get("states_per_sec")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("line {line}: missing `states_per_sec`"))?,
                ..TimelinePoint::default()
            },
        };
        point.frontier = req_u64(j, "frontier", line)?;
        point.store_bytes = req_u64(j, "store_bytes", line)?;
        point.checkpoint_seq = req_u64(j, "ckpt", line)?;
        point.rss_bytes = j.get("rss_bytes").and_then(Json::as_u64);
        if let Some(obj) = j.get("spans").and_then(Json::as_object) {
            for (name, v) in obj {
                let share =
                    v.as_f64().ok_or_else(|| format!("line {line}: span `{name}` not a number"))?;
                point.spans.push((name.clone(), share));
            }
        }
        Ok(point)
    }
}

/// A parsed status document: the recorder's latest sample in absolute
/// form, with the run it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Status {
    /// Spec path or workload name the run is verifying.
    pub spec: String,
    /// Current phase (`explore/async`, …; `done` once finished).
    pub phase: String,
    /// The sample; its `t_ms` counts from the start of the run.
    pub sample: TimelinePoint,
    /// Estimated milliseconds until the state budget is reached, when
    /// the rate is known.
    pub eta_ms: Option<u64>,
    /// The run's outcome name, once it has finished.
    pub outcome: Option<String>,
    /// Write sequence number: grows with every document.
    pub seq: u64,
    /// PID of the writing process, so a watcher can tell a stalled run
    /// from a dead one (`/proc/<pid>` gone ⇒ the run died).
    pub pid: u64,
}

impl Status {
    /// Reads a status document already parsed as JSON; any version but
    /// [`VERSION`] is refused.
    pub fn from_json(j: &Json) -> Result<Status, String> {
        check_version(j, "status")?;
        let str_of = |key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("status missing `{key}`"))
        };
        Ok(Status {
            spec: str_of("spec")?,
            phase: str_of("phase")?,
            sample: TimelinePoint::parse(j, 1, None)?,
            eta_ms: j.get("eta_ms").and_then(Json::as_u64),
            outcome: j.get("outcome").and_then(Json::as_str).map(str::to_string),
            seq: req_u64(j, "seq", 1)?,
            pid: req_u64(j, "pid", 1)?,
        })
    }

    /// Reads and parses a status file.
    pub fn read(path: &Path) -> Result<Status, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Status::from_json(&Json::parse(&text)?)
    }
}

/// One parsed `stall` diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct StallRecord {
    /// Milliseconds since the run started.
    pub t_ms: u64,
    /// No-progress sampling intervals that tripped the watchdog.
    pub intervals: u64,
    /// States at the stall.
    pub states: u64,
    /// Frontier at the stall.
    pub frontier: u64,
    /// Chunk-queue depths `[handed out, back and waiting]`.
    pub queues: Vec<u64>,
    /// Per-worker `(worker, dominant span, share)` over the window.
    pub workers: Vec<(u64, String, f64)>,
}

/// The parsed `end` record.
#[derive(Debug, Clone, PartialEq)]
pub struct EndRecord {
    /// Milliseconds since the run started.
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
    /// from the delta encoding. A header of another version, an unknown
    /// record kind and a running total that leaves `u64` are errors.
    pub fn parse(text: &str) -> Result<Timeline, String> {
        let mut tl = Timeline::default();
        // The running totals deltas add to: the last sample, or the zero
        // baseline of a phase.
        let mut base = TimelinePoint::default();
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
                    check_version(&j, "timeline").map_err(|e| format!("line {line}: {e}"))?;
                    tl.spec = j.get("spec").and_then(Json::as_str).unwrap_or_default().to_string();
                    tl.interval_ms = req_u64(&j, "interval_ms", line)?;
                    tl.stall_after = req_u64(&j, "stall_after", line)?;
                }
                "phase" => {
                    let t_ms = plus(base.t_ms, &j, "dt_ms", line)?;
                    let name = j
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("line {line}: phase without `name`"))?;
                    tl.phases.push((t_ms, name.to_string()));
                    base = TimelinePoint { t_ms, phase: tl.phases.len() - 1, ..Default::default() };
                }
                "s" => {
                    base = TimelinePoint::parse(&j, line, Some(&base))?;
                    tl.points.push(base.clone());
                }
                "stall" => {
                    base.t_ms = plus(base.t_ms, &j, "dt_ms", line)?;
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
                        t_ms: base.t_ms,
                        intervals: req_u64(&j, "intervals", line)?,
                        states: req_u64(&j, "states", line)?,
                        frontier: req_u64(&j, "frontier", line)?,
                        queues,
                        workers,
                    });
                }
                "end" => {
                    if tl.end.is_some() {
                        return Err(format!("line {line}: duplicate `end` record"));
                    }
                    tl.end = Some(EndRecord {
                        t_ms: plus(base.t_ms, &j, "dt_ms", line)?,
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

    /// Self-validation against the `end` record, when one exists: the
    /// sample count, the stall count, and the final phase's reconstructed
    /// states/transitions (when that phase was sampled). Timestamps need
    /// no check: [`Timeline::parse`] builds them from unsigned deltas
    /// with checked adds, so they never regress.
    pub fn validate(&self) -> Result<(), String> {
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
    /// Milliseconds since the run started at the shift point.
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
    /// Phase start, ms since the run started.
    pub start_ms: u64,
    /// Last sample of the phase, ms since the run started.
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
        Recorder::new("specs/test.ccp", 0, stall_after, None, Some(Box::new(buf.clone())), None)
    }

    /// One sample taken now, at a rate of zero.
    fn sample(rec: &Recorder, input: &SampleInput<'_>, prof: &Profiler) {
        rec.sample(input, Instant::now(), 0.0, prof);
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ccr-timeseries-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let rec = Recorder::disabled();
        assert!(!rec.enabled());
        assert!(!Recorder::new("x", 0, 5, None, None, None).enabled());
        rec.set_phase("explore", Instant::now());
        sample(&rec, &SampleInput::basic(1, 1, 1, 1), &Profiler::disabled());
        rec.finish("Complete", 1, 1, 64, &Profiler::disabled());
        assert!(rec.take_error().is_none());
        let reg = Registry::new();
        rec.publish(&reg);
        assert!(reg.snapshot().counters.is_empty());
    }

    #[test]
    fn samples_are_delta_encoded_and_reconstruct() {
        let buf = SharedBuf::default();
        let rec = recorder(&buf, 5);
        rec.set_phase("explore/async", Instant::now());
        let prof = Profiler::disabled();
        sample(&rec, &SampleInput::basic(10, 25, 4, 800), &prof);
        sample(&rec, &SampleInput::basic(30, 70, 9, 1600), &prof);
        rec.finish("Complete", 30, 70, 64, &prof);
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
        rec.set_phase("explore/rendezvous", Instant::now());
        sample(&rec, &SampleInput::basic(100, 200, 1, 64), &prof);
        rec.set_phase("explore/async", Instant::now());
        sample(&rec, &SampleInput::basic(40, 90, 2, 64), &prof);
        rec.finish("Complete", 40, 90, 64, &prof);
        let tl = Timeline::parse(&buf.text()).unwrap();
        tl.validate().unwrap();
        assert_eq!(tl.phases.len(), 2);
        assert_eq!(tl.points[0].phase, 0);
        assert_eq!(tl.points[0].states, 100);
        // The second phase reconstructs from its own zero baseline.
        assert_eq!(tl.points[1].phase, 1);
        assert_eq!(tl.points[1].states, 40);
    }

    /// The status file and the timeline are one recording: the status
    /// clock runs from the start of the run across phases, and the
    /// terminal document states what the `end` record states.
    #[test]
    fn status_follows_the_run_clock_across_phases_and_ends_with_the_end_record() {
        let dir = tmp_dir("phases");
        let path = dir.join("status.json");
        let buf = SharedBuf::default();
        let rec = Recorder::new(
            "specs/test.ccp",
            0,
            5,
            Some(1000),
            Some(Box::new(buf.clone())),
            Some(path.clone()),
        );
        let prof = Profiler::disabled();
        // Reads the status document, which must not have gone back in time.
        let mut last = 0;
        let mut read = || {
            let st = Status::read(&path).unwrap();
            assert!(
                st.sample.t_ms >= last,
                "elapsed_ms went back: {} after {last}",
                st.sample.t_ms
            );
            last = st.sample.t_ms;
            st
        };
        rec.set_phase("explore/rendezvous", Instant::now());
        let mut before = 0;
        for states in [10, 20] {
            std::thread::sleep(std::time::Duration::from_millis(3));
            let at = SampleInput::basic(states, 2 * states, 1, 4096);
            rec.sample(&at, Instant::now(), 50.0, &prof);
            before = read().sample.t_ms;
        }
        rec.set_phase("explore/async", Instant::now());
        rec.sample(&SampleInput::basic(5, 7, 3, 8192), Instant::now(), 25.0, &prof);
        let live = read();
        assert!(before >= 6, "the first phase ran for two 3 ms sleeps");
        assert_eq!((live.phase.as_str(), live.sample.states), ("explore/async", 5));
        assert_eq!(live.sample.states_per_sec, 25.0, "the observer's rate");
        assert_eq!(live.eta_ms, Some(((1000 - 5) as f64 / 25.0 * 1e3) as u64));
        assert_eq!(live.seq, 3);
        rec.finish("Complete", 9, 11, 16384, &prof);
        let done = read();
        let end = Timeline::parse(&buf.text()).unwrap().end.unwrap();
        assert_eq!(done.outcome.as_deref(), Some(end.outcome.as_str()));
        assert_eq!((done.sample.states, done.sample.transitions), (end.states, end.transitions));
        assert_eq!(done.sample.t_ms, end.t_ms, "one clock");
        assert_eq!(done.sample.store_bytes, 16384, "the final store bytes");
        assert_eq!((done.phase.as_str(), done.eta_ms, done.seq), ("done", Some(0), 4));
        assert_eq!(done.pid, std::process::id() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_status_only_recorder_writes_no_timeline_and_publishes_nothing() {
        let dir = tmp_dir("status-only");
        let path = dir.join("status.json");
        let rec = Recorder::new("specs/test.ccp", 0, 5, None, None, Some(path.clone()));
        assert!(rec.enabled());
        rec.set_phase("explore", Instant::now());
        sample(&rec, &SampleInput::basic(3, 4, 1, 64), &Profiler::disabled());
        assert_eq!(Status::read(&path).unwrap().sample.states, 3);
        rec.finish("Complete", 3, 4, 64, &Profiler::disabled());
        let reg = Registry::new();
        rec.publish(&reg);
        assert!(reg.snapshot().counters.is_empty());
        assert!(!dir.join(".status.json.tmp").exists(), "temp file renamed away");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watchdog_fires_once_per_episode_and_rearms() {
        let buf = SharedBuf::default();
        let rec = recorder(&buf, 3);
        let prof = Profiler::disabled();
        rec.set_phase("explore", Instant::now());
        sample(&rec, &SampleInput::basic(5, 9, 1, 64), &prof);
        // Three stuck samples: the third trips the watchdog, once.
        for _ in 0..5 {
            sample(&rec, &SampleInput::basic(5, 9, 1, 64), &prof);
        }
        // Progress re-arms it; three more stuck samples trip it again.
        sample(&rec, &SampleInput::basic(6, 11, 1, 64), &prof);
        for _ in 0..3 {
            sample(&rec, &SampleInput::basic(6, 11, 1, 64), &prof);
        }
        rec.finish("Complete", 6, 11, 64, &prof);
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
        rec.set_phase("explore", Instant::now());
        let input = SampleInput { queues: &[4, 0], ..SampleInput::basic(5, 9, 2, 64) };
        for _ in 0..3 {
            sample(&rec, &input, &prof);
        }
        rec.finish("Unfinished", 5, 9, 64, &prof);
        let tl = Timeline::parse(&buf.text()).unwrap();
        assert_eq!(tl.stalls.len(), 1);
        let stall = &tl.stalls[0];
        assert_eq!(stall.queues, vec![4, 0]);
        assert_eq!(stall.workers.len(), 1);
        assert_eq!(stall.workers[0].0, 3);
    }

    #[test]
    fn corrupt_timelines_fail_parse_or_validate() {
        assert!(Timeline::parse("").is_err());
        assert!(Timeline::parse("{\"k\":\"s\"}").is_err());
        assert!(Timeline::parse(
            "{\"k\":\"run\",\"version\":2,\"interval_ms\":0,\"stall_after\":1}\n{\"k\":\"wat\"}"
        )
        .is_err());
        // An end record lying about the sample count fails validation.
        let buf = SharedBuf::default();
        let rec = recorder(&buf, 5);
        rec.set_phase("explore", Instant::now());
        sample(&rec, &SampleInput::basic(1, 1, 1, 1), &Profiler::disabled());
        rec.finish("Complete", 1, 1, 64, &Profiler::disabled());
        let mut text = buf.text();
        text = text.replace("\"samples\":1", "\"samples\":7");
        let tl = Timeline::parse(&text).unwrap();
        assert!(tl.validate().is_err());
    }

    #[test]
    fn running_totals_that_leave_u64_are_line_numbered_errors() {
        let head = "{\"k\":\"run\",\"version\":2,\"interval_ms\":0,\"stall_after\":1}\n\
                    {\"k\":\"phase\",\"dt_ms\":0,\"name\":\"explore\"}\n";
        let s = |key: &str, v: u64| {
            let mut fields = [("dt_ms", 0), ("ds", 0), ("dx", 0), ("dspill", 0), ("dcompact", 0)];
            fields.iter_mut().find(|(k, _)| *k == key).unwrap().1 = v;
            let deltas: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            format!(
                "{{\"k\":\"s\",{},\"frontier\":0,\"store_bytes\":0,\"ckpt\":0,\"spans\":{{}}}}\n",
                deltas.join(",")
            )
        };
        for key in ["dt_ms", "ds", "dx", "dspill", "dcompact"] {
            let text = format!("{head}{}{}", s(key, u64::MAX), s(key, 5));
            let err = Timeline::parse(&text).unwrap_err();
            assert_eq!(err, format!("line 4: `{key}` overflows the running total"));
        }
        let stall = "{\"k\":\"stall\",\"dt_ms\":2,\"intervals\":1,\"states\":0,\"frontier\":0}\n";
        let text = format!("{head}{}{stall}", s("dt_ms", u64::MAX));
        assert_eq!(
            Timeline::parse(&text).unwrap_err(),
            "line 4: `dt_ms` overflows the running total"
        );
    }

    #[test]
    fn other_versions_are_refused_not_misread() {
        let v1 =
            "{\"k\":\"run\",\"version\":1,\"spec\":\"x\",\"interval_ms\":1000,\"stall_after\":5}";
        assert_eq!(
            Timeline::parse(v1).unwrap_err(),
            "line 1: timeline version 1 is not supported (this build reads 2)"
        );
        let bare = "{\"k\":\"run\",\"spec\":\"x\",\"interval_ms\":1000,\"stall_after\":5}";
        assert!(Timeline::parse(bare).unwrap_err().contains("version none is not supported"));
        // The status document the previous build wrote carried no version.
        let old = Json::parse(
            "{\"spec\":\"x\",\"phase\":\"explore\",\"states\":1,\"transitions\":0,\"frontier\":1,\
             \"depth\":null,\"states_per_sec\":0.0,\"store_bytes\":0,\"elapsed_ms\":10,\
             \"eta_ms\":null,\"spans\":{},\"finished\":false,\"outcome\":null,\"seq\":1,\"pid\":1}",
        )
        .unwrap();
        assert_eq!(
            Status::from_json(&old).unwrap_err(),
            "status version none is not supported (this build reads 2)"
        );
    }

    #[test]
    fn analysis_detects_a_rate_collapse_and_round_trips_json() {
        let buf = SharedBuf::default();
        let rec = recorder(&buf, 50);
        let prof = Profiler::disabled();
        rec.set_phase("explore/async", Instant::now());
        // Fast regime then a 10x collapse; dt is 0 in-process, so feed
        // the detector via parse-level rates by spacing the deltas.
        let mut states = 0u64;
        let mut series = Vec::new();
        for i in 0..24 {
            states += if i < 12 { 1000 } else { 100 };
            series.push(states);
        }
        for s in &series {
            sample(&rec, &SampleInput::basic(*s, *s * 2, 5, 64), &prof);
        }
        rec.finish("Complete", states, states * 2, 64, &prof);
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
        sample(&rec, &SampleInput::basic(1, 2, 1, 1), &Profiler::disabled());
        rec.finish("Complete", 1, 2, 64, &Profiler::disabled());
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
