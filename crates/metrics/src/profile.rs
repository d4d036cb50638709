//! Per-worker span timelines for the search.
//!
//! The phase timers in the parent module answer "how long did the
//! explore phase take"; this module answers "where inside the explore
//! did worker 3 spend its time" — the attribution the `--threads`
//! performance work runs on. A [`Profiler`] follows the registry's
//! null-object pattern: [`Profiler::disabled`] hands out timers whose
//! every call is one branch, so the instrumentation can stay compiled
//! into the hot loops permanently.
//!
//! # Span model
//!
//! Workers time themselves by **lap timing**: a [`SpanTimer`] keeps one
//! `Instant` cursor, and [`SpanTimer::lap`] charges the interval since
//! the previous lap to a [`SpanKind`] — one clock read per span
//! boundary, not two per span. Kinds partition a worker's wall time:
//!
//! | kind           | the sweep (worker 0)                       | `--threads` workers (1..=T) |
//! |----------------|--------------------------------------------|---------------------|
//! | `compute`      | `successors()` per expanded state (threaded: the count only) | `successors()`, time only |
//! | `encode`       | successor encode into the arena slot (threaded: the count only) | successor encode + hash, time only |
//! | `insert`       | duplicate probe + commit, per successor    | —                   |
//! | `check`        | a checker's per-edge work (Equation 1, the progress check's graph), per successor; absent from a plain exploration | — |
//! | `ship`         | threaded: handing a chunk of frontier states out | handing an expanded chunk back |
//! | `drain`        | threaded: waiting for the next chunk in order | —                |
//! | `barrier_wait` | —                                          | waiting for a chunk to expand |
//! | `progress`     | CSR build + backward livelock propagation  | —                   |
//! | `checkpoint`   | log sync, index rewrite, manifest          | —                   |
//!
//! Timers accumulate into thread-local buffers (one row of kinds) and
//! merge into the shared profiler at batch granularity — every
//! [`FLUSH_LAPS`] laps and on drop — so the per-lap path touches no
//! shared memory.
//!
//! # Determinism
//!
//! Span *timings* are wall-clock and therefore nondeterministic:
//! [`Profiler::publish`] registers every `profile_*` metric through the
//! `_nondet` constructors, so [`crate::Snapshot::deterministic`] views
//! are identical whether profiling ran or not. Span *counts* for
//! `compute` (states expanded), `encode` (successors processed),
//! `insert` (store insertions attempted) and `check` (edges a checker
//! judged) are properties of the state
//! space, charged by the sweep as it expands each state whoever
//! generated the successors: they are equal at every thread count (see
//! [`SpanKind::deterministic_count`]).

use crate::Registry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Laps between automatic flushes of a timer's local buffer into the
/// shared profiler (a mutex acquisition); drop flushes too.
pub const FLUSH_LAPS: u32 = 4096;

/// What a span interval was spent on. See the module docs for the
/// engine-side meaning of each kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// Successor generation (`successors()`).
    Compute,
    /// Successor encoding and hashing.
    Encode,
    /// State-store insertion: duplicate probe plus arena commit (inline:
    /// in-place slot commit; threaded: insert by the worker's hash).
    Insert,
    /// What a checker other than plain exploration does with each edge:
    /// Equation 1's judgement, the progress check's graph. A plain
    /// exploration never laps it.
    Check,
    /// Handing a chunk between the sweep and a worker.
    Ship,
    /// The sweep waiting for the next chunk in order.
    Drain,
    /// A worker waiting for a chunk to expand.
    BarrierWait,
    /// Livelock-check graph work (the components pass over the progress graph).
    Progress,
    /// Persistence: log sync, index rewrite and manifest checkpointing.
    Checkpoint,
}

/// Number of span kinds (the fixed width of every row).
pub const N_SPAN_KINDS: usize = 9;

impl SpanKind {
    /// Every kind, in canonical (output) order.
    pub const ALL: [SpanKind; N_SPAN_KINDS] = [
        SpanKind::Compute,
        SpanKind::Encode,
        SpanKind::Insert,
        SpanKind::Check,
        SpanKind::Ship,
        SpanKind::Drain,
        SpanKind::BarrierWait,
        SpanKind::Progress,
        SpanKind::Checkpoint,
    ];

    fn idx(self) -> usize {
        match self {
            SpanKind::Compute => 0,
            SpanKind::Encode => 1,
            SpanKind::Insert => 2,
            SpanKind::Check => 3,
            SpanKind::Ship => 4,
            SpanKind::Drain => 5,
            SpanKind::BarrierWait => 6,
            SpanKind::Progress => 7,
            SpanKind::Checkpoint => 8,
        }
    }

    /// Stable name used in folded stacks, metric names and reports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::Encode => "encode",
            SpanKind::Insert => "insert",
            SpanKind::Check => "check",
            SpanKind::Ship => "ship",
            SpanKind::Drain => "drain",
            SpanKind::BarrierWait => "barrier_wait",
            SpanKind::Progress => "progress",
            SpanKind::Checkpoint => "checkpoint",
        }
    }

    /// Inverse of [`SpanKind::name`].
    pub fn from_name(name: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether this kind's aggregate *count* is a property of the state
    /// space (identical at every thread count) rather than of the
    /// schedule.
    pub fn deterministic_count(self) -> bool {
        matches!(self, SpanKind::Compute | SpanKind::Encode | SpanKind::Insert | SpanKind::Check)
    }
}

/// Accumulated time and unit count for one `(worker, kind)` cell.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpanTotals {
    /// Wall-clock nanoseconds charged to this cell.
    pub nanos: u64,
    /// Work units (kind-specific: states, successors, chunks).
    pub count: u64,
}

impl SpanTotals {
    fn add(&mut self, other: SpanTotals) {
        self.nanos += other.nanos;
        self.count += other.count;
    }

    /// Seconds charged to this cell.
    pub fn secs(&self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

type Row = [SpanTotals; N_SPAN_KINDS];

fn row_is_zero(row: &Row) -> bool {
    row.iter().all(|t| t.nanos == 0 && t.count == 0)
}

#[derive(Default)]
struct ProfInner {
    workers: Mutex<BTreeMap<usize, Row>>,
}

/// Handle to a span store, or the null profiler when profiling is off.
/// Clones share the same store, mirroring [`Registry`].
#[derive(Clone, Default)]
pub struct Profiler {
    inner: Option<Arc<ProfInner>>,
}

impl Profiler {
    /// An enabled profiler with an empty store.
    pub fn new() -> Self {
        Profiler { inner: Some(Arc::new(ProfInner::default())) }
    }

    /// The null profiler: every timer is a no-op costing one branch.
    pub fn disabled() -> Self {
        Profiler { inner: None }
    }

    /// Whether this profiler actually records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A lap timer for worker `worker`. The timer buffers locally and
    /// merges into this profiler at batch granularity and on drop.
    pub fn worker(&self, worker: usize) -> SpanTimer {
        SpanTimer {
            shared: self.inner.clone(),
            worker,
            last: Instant::now(),
            local: Row::default(),
            pending: 0,
        }
    }

    /// Point-in-time aggregate of everything flushed so far.
    pub fn aggregate(&self) -> ProfileAgg {
        let mut agg = ProfileAgg::default();
        let Some(inner) = &self.inner else { return agg };
        let workers = inner.workers.lock().unwrap();
        agg.workers.extend(workers.iter().map(|(&worker, &kinds)| WorkerAgg { worker, kinds }));
        agg
    }

    /// Renders the whole store as folded stacks (one `worker<N>;<kind>
    /// value` line per nonzero cell, value in nanoseconds) — the input
    /// format of flamegraph tooling. Lines are ordered by worker, then
    /// kind.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        let Some(inner) = &self.inner else { return out };
        let workers = inner.workers.lock().unwrap();
        for (&worker, row) in workers.iter() {
            for (k, t) in row.iter().enumerate() {
                if t.nanos > 0 || t.count > 0 {
                    out.push_str(&format!(
                        "worker{worker};{} {}\n",
                        SpanKind::ALL[k].name(),
                        t.nanos
                    ));
                }
            }
        }
        out
    }

    /// Folds the aggregate into `reg` as `profile_<kind>_nanos_total` /
    /// `profile_<kind>_spans_total` counters. All of them are registered
    /// nondeterministic (timings are wall-clock; counts of the
    /// schedule-dependent kinds vary with thread count), so the
    /// deterministic snapshot view is identical with profiling on or
    /// off.
    pub fn publish(&self, reg: &Registry) {
        if !self.enabled() || !reg.enabled() {
            return;
        }
        let totals = self.aggregate().totals();
        for kind in SpanKind::ALL {
            let t = totals[kind.idx()];
            if t.nanos == 0 && t.count == 0 {
                continue;
            }
            reg.counter_nondet(
                &format!("profile_{}_nanos_total", kind.name()),
                &format!("Wall-clock nanoseconds in {} spans across workers", kind.name()),
            )
            .add(t.nanos);
            reg.counter_nondet(
                &format!("profile_{}_spans_total", kind.name()),
                &format!("Work units charged to {} spans across workers", kind.name()),
            )
            .add(t.count);
        }
    }
}

/// A worker-owned lap timer; create via [`Profiler::worker`].
pub struct SpanTimer {
    shared: Option<Arc<ProfInner>>,
    worker: usize,
    last: Instant,
    local: Row,
    pending: u32,
}

impl SpanTimer {
    /// Charges the interval since the previous lap (or [`mark`]) to
    /// `kind`, crediting `count` work units, and restarts the cursor.
    /// One branch when profiling is off.
    ///
    /// [`mark`]: SpanTimer::mark
    #[inline]
    pub fn lap(&mut self, kind: SpanKind, count: u64) {
        if self.shared.is_none() {
            return;
        }
        self.lap_enabled(kind, count);
    }

    fn lap_enabled(&mut self, kind: SpanKind, count: u64) {
        let now = Instant::now();
        let nanos = u64::try_from(now.duration_since(self.last).as_nanos()).unwrap_or(u64::MAX);
        self.last = now;
        self.local[kind.idx()].add(SpanTotals { nanos, count });
        self.pending += 1;
        if self.pending >= FLUSH_LAPS {
            self.flush();
        }
    }

    /// Restarts the cursor without charging the elapsed interval to any
    /// kind (discard uninteresting time, e.g. setup).
    #[inline]
    pub fn mark(&mut self) {
        if self.shared.is_some() {
            self.last = Instant::now();
        }
    }

    /// Merges the local buffer into the shared profiler.
    pub fn flush(&mut self) {
        let Some(shared) = &self.shared else { return };
        self.pending = 0;
        if row_is_zero(&self.local) {
            return;
        }
        let mut workers = shared.workers.lock().unwrap();
        let row = workers.entry(self.worker).or_default();
        for (k, t) in self.local.iter().enumerate() {
            row[k].add(*t);
        }
        self.local = Row::default();
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.flush();
    }
}

/// One worker's per-kind totals.
#[derive(Debug, Clone)]
pub struct WorkerAgg {
    /// Worker index (0 is the sweep).
    pub worker: usize,
    /// Totals indexed in [`SpanKind::ALL`] order.
    pub kinds: Row,
}

impl WorkerAgg {
    /// Totals for one kind.
    pub fn kind(&self, kind: SpanKind) -> SpanTotals {
        self.kinds[kind.idx()]
    }

    /// Nanoseconds across every kind.
    pub fn total_nanos(&self) -> u64 {
        self.kinds.iter().map(|t| t.nanos).sum()
    }
}

/// Aggregated profile: per-worker and overall per-kind totals.
#[derive(Debug, Clone, Default)]
pub struct ProfileAgg {
    /// Per-worker totals, ordered by worker index.
    pub workers: Vec<WorkerAgg>,
}

impl ProfileAgg {
    /// Per-kind totals summed across workers, in [`SpanKind::ALL`]
    /// order.
    pub fn totals(&self) -> Row {
        let mut totals = Row::default();
        for w in &self.workers {
            for (k, t) in w.kinds.iter().enumerate() {
                totals[k].add(*t);
            }
        }
        totals
    }

    /// Overall totals for one kind.
    pub fn kind(&self, kind: SpanKind) -> SpanTotals {
        self.totals()[kind.idx()]
    }

    /// Nanoseconds across every worker and kind.
    pub fn total_nanos(&self) -> u64 {
        self.workers.iter().map(WorkerAgg::total_nanos).sum()
    }

    /// Whether anything was recorded at all.
    pub fn is_empty(&self) -> bool {
        self.total_nanos() == 0 && self.workers.iter().all(|w| w.kinds.iter().all(|t| t.count == 0))
    }

    /// Rebuilds per-worker, per-kind totals from parsed folded stacks
    /// (the inverse of [`Profiler::folded`] up to unit counts, which the
    /// folded format does not carry). Stacks whose values sum past `u64`
    /// are refused: every total of the aggregate — per kind, per worker
    /// and overall — must fit.
    pub fn from_folded(entries: &[FoldedEntry]) -> Result<ProfileAgg, String> {
        let mut map: BTreeMap<usize, Row> = BTreeMap::new();
        let mut grand = 0u64;
        for e in entries {
            grand = grand.checked_add(e.value).ok_or_else(|| {
                format!("stack `{}`: the profile's total leaves u64", e.frames.join(";"))
            })?;
            let (first, last) = match (e.frames.first(), e.frames.last()) {
                (Some(f), Some(l)) if e.frames.len() >= 2 => (f, l),
                _ => {
                    return Err(format!(
                        "stack `{}` needs worker and kind frames",
                        e.frames.join(";")
                    ))
                }
            };
            let worker: usize = first
                .strip_prefix("worker")
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| format!("bad worker frame `{first}`"))?;
            let kind =
                SpanKind::from_name(last).ok_or_else(|| format!("bad kind frame `{last}`"))?;
            map.entry(worker).or_default()[kind.idx()].nanos += e.value;
        }
        Ok(ProfileAgg {
            workers: map.into_iter().map(|(worker, kinds)| WorkerAgg { worker, kinds }).collect(),
        })
    }
}

/// One parsed folded-stack line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedEntry {
    /// Stack frames, outermost first.
    pub frames: Vec<String>,
    /// The sample value (nanoseconds in this crate's output).
    pub value: u64,
}

/// Parses folded-stack text (`frame;frame;frame value` per line; blank
/// lines ignored) — accepts anything flamegraph tooling would.
pub fn parse_folded(text: &str) -> Result<Vec<FoldedEntry>, String> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let (stack, value) =
            line.rsplit_once(' ').ok_or_else(|| format!("line {}: no value separator", i + 1))?;
        let value: u64 =
            value.parse().map_err(|_| format!("line {}: bad value `{value}`", i + 1))?;
        if stack.is_empty() {
            return Err(format!("line {}: empty stack", i + 1));
        }
        entries.push(FoldedEntry { frames: stack.split(';').map(str::to_string).collect(), value });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_a_noop() {
        let prof = Profiler::disabled();
        assert!(!prof.enabled());
        let mut t = prof.worker(0);
        t.lap(SpanKind::Compute, 5);
        t.lap(SpanKind::Encode, 1);
        t.flush();
        drop(t);
        assert!(prof.aggregate().is_empty());
        assert_eq!(prof.folded(), "");
    }

    #[test]
    fn laps_accumulate_per_worker() {
        let prof = Profiler::new();
        let mut t0 = prof.worker(0);
        t0.lap(SpanKind::Compute, 2);
        t0.lap(SpanKind::Encode, 7);
        t0.flush();
        t0.lap(SpanKind::BarrierWait, 1);
        drop(t0);
        let mut t1 = prof.worker(1);
        t1.lap(SpanKind::Compute, 3);
        drop(t1);

        let agg = prof.aggregate();
        assert_eq!(agg.workers.len(), 2);
        assert_eq!(agg.kind(SpanKind::Compute).count, 5);
        assert_eq!(agg.kind(SpanKind::Encode).count, 7);
        assert_eq!(agg.kind(SpanKind::BarrierWait).count, 1);
        let folded = prof.folded();
        assert!(folded.contains("worker0;compute "));
        assert!(folded.contains("worker0;barrier_wait "));
        assert!(folded.contains("worker1;compute "));
    }

    #[test]
    fn folded_round_trips_through_the_parser() {
        let prof = Profiler::new();
        let mut t = prof.worker(2);
        t.lap(SpanKind::Compute, 1);
        t.lap(SpanKind::Ship, 4);
        drop(t);
        let folded = prof.folded();
        let entries = parse_folded(&folded).unwrap();
        let rebuilt = ProfileAgg::from_folded(&entries).unwrap();
        let agg = prof.aggregate();
        assert_eq!(rebuilt.workers.len(), agg.workers.len());
        for (r, a) in rebuilt.workers.iter().zip(agg.workers.iter()) {
            assert_eq!(r.worker, a.worker);
            for kind in SpanKind::ALL {
                assert_eq!(r.kind(kind).nanos, a.kind(kind).nanos, "{}", kind.name());
            }
        }
        // Profiles written while the search still had BFS levels carry an
        // `L<n>` frame in the middle; they aggregate all the same.
        let old =
            parse_folded("worker1;L12;barrier_wait 48\nworker1;L13;barrier_wait 2\n").unwrap();
        let old = ProfileAgg::from_folded(&old).unwrap();
        assert_eq!((old.workers[0].worker, old.kind(SpanKind::BarrierWait).nanos), (1, 50));
    }

    #[test]
    fn parse_folded_rejects_malformed_lines() {
        assert!(parse_folded("no_value_here").is_err());
        assert!(parse_folded("a;b notanumber").is_err());
        assert!(parse_folded(" 5").is_err());
        assert!(parse_folded("").unwrap().is_empty());
    }

    #[test]
    fn from_folded_refuses_totals_past_u64() {
        let max = u64::MAX;
        // One kind, two kinds of one worker, and two workers.
        for text in [
            format!("worker0;compute {max}\nworker0;compute 2"),
            format!("worker0;compute {max}\nworker0;encode 2"),
            format!("worker0;compute {max}\nworker1;compute 2"),
        ] {
            let err = ProfileAgg::from_folded(&parse_folded(&text).unwrap()).unwrap_err();
            assert!(err.starts_with("stack `worker"), "{err}");
        }
        let fits = format!("worker0;compute {}\nworker1;encode 1", max - 1);
        assert_eq!(
            ProfileAgg::from_folded(&parse_folded(&fits).unwrap()).unwrap().total_nanos(),
            max
        );
    }

    #[test]
    fn publish_registers_only_nondet_metrics() {
        let prof = Profiler::new();
        let mut t = prof.worker(0);
        t.lap(SpanKind::Compute, 3);
        drop(t);
        let reg = Registry::new();
        prof.publish(&reg);
        let snap = reg.snapshot();
        assert!(snap.counters.contains_key("profile_compute_nanos_total"));
        assert_eq!(snap.counters["profile_compute_spans_total"], 3);
        for name in snap.counters.keys() {
            assert!(
                snap.nondeterministic.contains(name),
                "{name} must be nondet so deterministic views ignore profiling"
            );
        }
        assert_eq!(reg.snapshot().deterministic().counters.len(), 0);
    }

    #[test]
    fn span_kind_names_round_trip() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SpanKind::from_name("nope"), None);
        assert!(SpanKind::Compute.deterministic_count());
        assert!(!SpanKind::Ship.deterministic_count());
    }
}
