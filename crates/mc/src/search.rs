//! Breadth-first reachability analysis with budgets.
//!
//! This regenerates the measurements of the paper's Table 3: number of
//! states visited and wall time, with a budget standing in for SPIN's 64 MB
//! memory limit — exceeding it yields [`Outcome::Unfinished`], matching the
//! paper's "Unfinished" table entries.
//!
//! There is one sweep, `drive`, on the calling thread at every thread
//! count. What [`Search::threads`] selects is only where a state's
//! successors and their encodings come from: generated inline
//! (`Inline`), or by worker threads that expand the frontier ahead of
//! the sweep in chunks it merges strictly in discovery order (`Fed`) —
//! see `docs/parallel_checking.md`. What a sweep is *for* is its
//! checker's business, and checkers share: [`Search::verify`] answers
//! reachability, Equation 1 and forward progress on one call of it
//! (DESIGN.md, "Who rides which sweep").

use crate::persist::{
    CrashSwitch, LockGuard, LogTier, Manifest, ManifestWriter, PResult, PersistError, PhaseDir,
};
use crate::progress::{self, ForwardGraph, ProgressGraph};
use crate::report::{ExploreReport, Outcome, ProgressReport, SearchReport, SimRelReport};
use crate::simrel::{Equation1, ImageAudit};
use crate::steps::{LocalSteps, StepAudit, StepStats, Taken};
use crate::store::{hash_encoded, KeyAudit, Marking, Visited};
use crate::trace::{conclude_with_trail, trail_to};
use ccr_core::encode::Segment;
use ccr_metrics::profile::{Profiler, SpanKind, SpanTimer};
use ccr_metrics::timeseries::{Recorder, SampleInput};
use ccr_metrics::Registry;
use ccr_runtime::asynch::{AsyncState, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_runtime::{next_parent_id, Label, Origin, RuntimeError, TransitionSystem, Written};
use ccr_trace::{NullSink, TraceEvent, TraceSink};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::VecDeque;
use std::ops::{ControlFlow, Range};
use std::path::Path;
use std::time::{Duration, Instant};

/// Inclusive `le` bounds for the store probe-displacement histogram.
pub(crate) const PROBE_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32];
/// Inclusive `le` bounds for the encoded-state-length histogram.
pub(crate) const STATE_BYTES_BOUNDS: &[u64] = &[8, 16, 24, 32, 48, 64, 96, 128];

/// Folds one finished search into `reg` (a no-op on a null registry):
/// the deterministic run totals plus the post-hoc store-shape
/// histograms — probe displacements (tagged nondeterministic: a property
/// of the table layout, not of the state space) and stored tuple lengths
/// (a multiset property of the reachable set) — the segment tables'
/// sizes behind the tuples, and the local-step table's figures.
pub(crate) fn record_search_run(reg: &Registry, run: &DriveRun) {
    if !reg.enabled() {
        return;
    }
    let (store, transitions, peak_frontier) = (&run.store, run.transitions, run.peak_frontier);
    let states = store.len();
    run.steps.record(reg);
    reg.counter("mc_runs_total", "Search runs folded into this registry").inc();
    reg.counter("mc_states_total", "Distinct states stored, summed over runs").add(states as u64);
    reg.counter("mc_transitions_total", "Transitions generated, summed over runs")
        .add(transitions as u64);
    reg.gauge("mc_peak_frontier", "Largest BFS frontier observed in any run")
        .record_max(peak_frontier as u64);
    reg.gauge("mc_store_bytes", "Largest state-store footprint observed in any run")
        .record_max(store.approx_bytes() as u64);
    let probes = reg.histogram_nondet(
        "mc_store_probe_len",
        "Open-addressing probe displacement per occupied slot",
        PROBE_BOUNDS,
    );
    for displacement in store.tuples().probe_displacements() {
        probes.observe(displacement);
    }
    let lengths = reg.histogram(
        "mc_state_bytes",
        "Stored state length in bytes: its tuple of segment ids",
        STATE_BYTES_BOUNDS,
    );
    for len in store.tuples().entry_lengths() {
        lengths.observe(len);
    }
    for (kind, name) in [(Segment::Home, "home"), (Segment::Remote, "remote")] {
        let table = store.segments(kind);
        reg.gauge(
            &format!("mc_store_{name}_segments"),
            "Distinct segments of this kind interned by any run",
        )
        .record_max(table.len() as u64);
        reg.gauge(
            &format!("mc_store_{name}_segment_bytes"),
            "Bytes of the distinct segments of this kind interned by any run",
        )
        .record_max(table.entry_lengths().sum());
    }
}

/// Resource limits for a search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Budget {
    /// Maximum number of distinct states to visit.
    pub max_states: usize,
    /// Maximum approximate bytes of visited-set memory (the paper's runs
    /// were limited to 64 MB).
    pub max_bytes: usize,
    /// Optional wall-clock limit.
    pub max_time: Option<Duration>,
}

impl Default for Budget {
    fn default() -> Self {
        Self { max_states: usize::MAX, max_bytes: usize::MAX, max_time: None }
    }
}

impl Budget {
    /// Budget bounded by state count only.
    pub fn states(n: usize) -> Self {
        Self { max_states: n, ..Self::default() }
    }

    /// Budget bounded by approximate memory only (e.g. `64 << 20`).
    pub fn bytes(b: usize) -> Self {
        Self { max_bytes: b, ..Self::default() }
    }

    /// The one budget test: [`drive`] asks it after every newly stored
    /// state. The byte budget is held before the next insert: the sweep
    /// ends once one more state could take the visited set past
    /// `max_bytes` ([`Visited::headroom`]) — a probe table doubling
    /// included — so a sweep's store never reads more than its budget
    /// while no key is longer than the longest before it.
    fn exceeded(&self, store: &Visited, started: Instant) -> bool {
        store.len() >= self.max_states
            || (self.max_bytes < usize::MAX
                && store.approx_bytes().saturating_add(store.headroom()) > self.max_bytes)
            || self.max_time.map(|t| started.elapsed() >= t).unwrap_or(false)
    }
}

/// A visitor of a walk behind a trait object.
pub(crate) type DynVisit<'a, S> = dyn FnMut(usize, Label, &S, Written) -> ControlFlow<()> + 'a;

/// An invariant [`Search::explore`] holds every new state to: `Some`
/// describes a violation.
pub type Invariant<'a, S> = dyn Fn(&S) -> Option<String> + 'a;

/// An invariant that may keep state of its own between calls.
pub(crate) type InvariantMut<'a, S> = dyn FnMut(&S) -> Option<String> + 'a;

/// Expansions between clock probes. Samples are wall-clock-interval
/// based, but reading the clock on every expansion of a fast in-memory
/// search would be measurable, so the observer only probes every
/// `PROBE_EVERY` ticks (a zero interval drops the countdown to 1 so
/// tests can demand a sample per tick).
const PROBE_EVERY: u32 = 16;

/// Which telemetry is on for a run: the one decision every search phase
/// of an invocation shares. Build it once (`Telemetry { registry,
/// ..Telemetry::off() }`), hand it to [`SearchObserver::for_phase`] for
/// each phase, and end the run with [`Telemetry::finish`].
///
/// Every part is a null object when off — a disabled registry, profiler
/// and recorder — so [`Telemetry::off`] costs a search nothing and leaves
/// no trace in its outputs.
#[derive(Clone)]
pub struct Telemetry {
    /// Metrics registry searches fold their run totals and store-shape
    /// histograms into.
    pub registry: Registry,
    /// Span profiler the sweep and its workers time themselves into;
    /// samples carry its per-kind split.
    pub profiler: Profiler,
    /// Flight recorder: one sample per interval of its own cadence, to
    /// the timeline, the live status file `ccr watch` follows and the
    /// `--progress` line.
    pub timeline: Recorder,
}

impl Telemetry {
    /// All telemetry off.
    pub fn off() -> Self {
        Telemetry {
            registry: Registry::disabled(),
            profiler: Profiler::disabled(),
            timeline: Recorder::disabled(),
        }
    }

    /// Ends the run, in the order the artifacts depend on each other:
    /// the profiler's (nondeterministic-tagged) counters go into the
    /// registry, then the recorder ends the timeline, writes the terminal
    /// status document (the final `states`, `transitions` and
    /// `store_bytes`) and folds its own counters in — so a metrics
    /// snapshot taken afterwards is complete. A sticky timeline write
    /// error is the only failure; recording never aborts a search, so
    /// this is where it surfaces.
    pub fn finish(
        &self,
        outcome: &Outcome,
        states: u64,
        transitions: u64,
        store_bytes: u64,
    ) -> Result<(), String> {
        self.profiler.publish(&self.registry);
        self.timeline.finish(outcome.name(), states, transitions, store_bytes, &self.profiler);
        self.timeline.publish(&self.registry);
        match self.timeline.take_error() {
            Some(e) => Err(format!("timeline: {e}")),
            None => Ok(()),
        }
    }
}

/// One search phase's view of the run's [`Telemetry`]: the [`TraceSink`]
/// its sweeps narrate their endings to, the registry and profiler they
/// record into, and the clock gate that hands the recorder one sample
/// per interval of the recorder's cadence.
///
/// Without a recorder the per-expansion cost is the one comparison at
/// the top of [`SearchObserver::tick`].
pub struct SearchObserver<'s> {
    sink: &'s mut dyn TraceSink,
    /// Whether a tick has anywhere to report to: the recorder is live.
    live: bool,
    telemetry: Telemetry,
    /// The recorder phase the sweeps report under, and whether one has
    /// already run in it.
    phase: String,
    swept: bool,
    last_time: Instant,
    probe_countdown: u32,
}

impl<'s> SearchObserver<'s> {
    /// Endings to `sink` and nothing else: [`Telemetry::off`].
    pub fn new(sink: &'s mut dyn TraceSink) -> Self {
        Self::for_phase(sink, &Telemetry::off(), "")
    }

    /// The observer of one named phase of a run: endings to `sink`,
    /// everything else as `telemetry` says. The recorder starts a new
    /// phase named `phase`.
    pub fn for_phase(sink: &'s mut dyn TraceSink, telemetry: &Telemetry, phase: &str) -> Self {
        let now = Instant::now();
        telemetry.timeline.set_phase(phase, now);
        Self {
            sink,
            live: telemetry.timeline.enabled(),
            telemetry: telemetry.clone(),
            phase: phase.to_string(),
            swept: false,
            last_time: now,
            probe_countdown: 1,
        }
    }

    /// The telemetry this observer reports into ([`Telemetry::off`]
    /// unless built with [`SearchObserver::for_phase`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Called by [`drive`] as a sweep starts. The recorder's counters are
    /// the sweep's own, so a second sweep under one observer opens the
    /// phase again rather than restart them inside it.
    fn sweep_starts(&mut self) {
        if std::mem::replace(&mut self.swept, true) {
            let now = Instant::now();
            self.telemetry.timeline.set_phase(&self.phase, now);
            self.last_time = now;
        }
    }

    /// Called by the sweep once per expanded state with what it knows at
    /// that point (cumulative counts are absolute; fields it does not
    /// track stay at their defaults). A caller that is already
    /// wall-clock paced — the sweep waiting a quantum at a time for its
    /// workers' next chunk — says so, and the clock is read on this tick
    /// instead of being amortised over `PROBE_EVERY` calls, which would
    /// stretch the sampling interval sixteenfold.
    #[inline]
    pub fn tick(&mut self, at: &SampleInput<'_>, paced: bool) {
        if self.live {
            self.gate(at, paced);
        }
    }

    /// The live half of [`SearchObserver::tick`]: probe the clock when
    /// the countdown says so, and hand the recorder one sample per
    /// interval, with that one clock reading.
    fn gate(&mut self, at: &SampleInput<'_>, paced: bool) {
        if !paced {
            self.probe_countdown -= 1;
            if self.probe_countdown != 0 {
                return;
            }
        }
        let interval = self.telemetry.timeline.interval();
        let now = Instant::now();
        if now.duration_since(self.last_time) < interval {
            self.probe_countdown = PROBE_EVERY;
            return;
        }
        self.probe_countdown = if interval.is_zero() { 1 } else { PROBE_EVERY };
        self.telemetry.timeline.sample(at, now, &self.telemetry.profiler);
        self.last_time = now;
    }

    /// Emits the terminal [`TraceEvent::Outcome`] and flushes the sink.
    pub fn finish(&mut self, outcome: &Outcome, steps: Option<u64>) {
        if self.sink.enabled() {
            self.sink.emit(&TraceEvent::Outcome {
                outcome: outcome.name().to_string(),
                detail: outcome.detail(),
                steps,
            });
            self.sink.flush();
        }
    }

    /// Direct access to the underlying sink (for counterexample export).
    pub fn sink(&mut self) -> &mut dyn TraceSink {
        self.sink
    }
}

/// Persistence configuration for a search phase, built by the CLI.
#[derive(Debug, Clone)]
pub struct PersistOpts {
    /// Wall-clock checkpoint cadence; `Duration::ZERO` checkpoints at
    /// every opportunity (every expansion).
    pub interval: Duration,
    /// Arena-byte threshold past which the stored tuples are evicted to
    /// disk; 0 keeps all state bytes in RAM (log-only mode: crash-safe,
    /// not RAM-capped).
    pub evict_at: usize,
    /// Attempt to resume from an existing manifest instead of starting
    /// fresh.
    pub resume: bool,
    /// Simulated kill -9 hook for the crash-recovery harness.
    pub crash: CrashSwitch,
}

impl Default for PersistOpts {
    fn default() -> Self {
        PersistOpts {
            interval: Duration::from_secs(1),
            evict_at: 0,
            resume: false,
            crash: CrashSwitch::default(),
        }
    }
}

/// What [`SerialPersist::open`] returns: either a context to run with,
/// or the terminal manifest of a phase that already finished (nothing to
/// re-run — the report is restored from it).
pub enum SerialPersistOpen {
    /// Run (fresh or resumed) with this context.
    Run(Box<SerialPersist>),
    /// A prior run already finished with this manifest.
    Finished(Manifest),
}

/// The sweep's persistence: the phase directory's writer lock and
/// manifest writer, the recovered (or fresh) store, and the checkpoint
/// cadence. Opened by [`Search::explore`] and threaded through `drive`;
/// checkpoints cut between expansions, so they are the same at every
/// thread count and a run resumes at any other.
pub struct SerialPersist {
    _lock: LockGuard,
    writer: ManifestWriter,
    interval: Duration,
    crash: CrashSwitch,
    elapsed_base: Duration,
    resumed: bool,
    head0: u32,
    transitions0: u64,
    peak0: u64,
    store: Option<Visited>,
    last_ckpt: Instant,
    countdown: u32,
}

impl SerialPersist {
    /// Opens (or creates) the phase directory at `root`, acquiring the
    /// writer lock. With `opts.resume` and an existing manifest the log
    /// is recovered and the store rebuilt; a finished manifest returns
    /// [`SerialPersistOpen::Finished`] instead. Without `opts.resume`
    /// any stale files are wiped and a fresh log is created.
    pub fn open(root: &Path, opts: &PersistOpts) -> PResult<SerialPersistOpen> {
        let dir = PhaseDir::create(root)?;
        let lock = LockGuard::acquire(dir.lock())?;
        let prior = if opts.resume { Manifest::read(&dir.manifest())? } else { None };
        let (store, resumed, head0, transitions0, peak0, elapsed_base, seq0) = match prior {
            Some(m) if m.finished => return Ok(SerialPersistOpen::Finished(m)),
            Some(m) => {
                let &[tuples, home, remote] = &m.committed[..] else {
                    return Err(PersistError::new(
                        dir.manifest(),
                        "manifest does not commit a state log and two segment logs",
                    ));
                };
                let mut store = Visited::new();
                // Segments first, each kind's ids dense in log order: the
                // tuples recovered next name them.
                for (kind, (bytes, records)) in [(Segment::Home, home), (Segment::Remote, remote)] {
                    let table = store.segments_mut(kind);
                    let path = dir.segments(kind);
                    let tier = LogTier::recover(&path, Some(bytes), 0, |_, payload| {
                        table.rebuild_insert(hash_encoded(payload), payload, true);
                    })?;
                    committed_records(&tier, records, path)?;
                    table.attach_tier(Box::new(tier));
                }
                let (bytes, records) = tuples;
                // A spilling run keeps no recovered tuple in memory: every
                // one is checksummed, then left to the log.
                let keep_payloads = opts.evict_at == 0;
                let table = store.tuples_mut();
                let tier =
                    LogTier::recover(dir.log(), Some(bytes), opts.evict_at, |_, payload| {
                        table.rebuild_insert(hash_encoded(payload), payload, keep_payloads);
                    })?;
                committed_records(&tier, records, dir.log())?;
                table.attach_tier(Box::new(tier));
                (
                    store,
                    true,
                    m.head as u32,
                    m.transitions,
                    m.peak_frontier,
                    Duration::from_millis(m.elapsed_ms),
                    m.seq,
                )
            }
            None => {
                dir.wipe()?;
                let mut store = Visited::new();
                for kind in [Segment::Home, Segment::Remote] {
                    let tier = LogTier::create(dir.segments(kind), 0)?;
                    store.segments_mut(kind).attach_tier(Box::new(tier));
                }
                store
                    .tuples_mut()
                    .attach_tier(Box::new(LogTier::create(dir.log(), opts.evict_at)?));
                (store, false, 0, 0, 0, Duration::ZERO, 0)
            }
        };
        let writer = ManifestWriter::create(dir.manifest(), seq0);
        Ok(SerialPersistOpen::Run(Box::new(SerialPersist {
            _lock: lock,
            writer,
            interval: opts.interval,
            crash: opts.crash.clone(),
            elapsed_base,
            resumed,
            head0,
            transitions0,
            peak0,
            store: Some(store),
            last_ckpt: Instant::now(),
            countdown: 1,
        })))
    }

    /// Whether a checkpoint is due (wall-clock cadence, probed every few
    /// expansions like the observer's sampling gate).
    fn due(&mut self) -> bool {
        if self.interval.is_zero() {
            return true;
        }
        self.countdown -= 1;
        if self.countdown != 0 {
            return false;
        }
        self.countdown = PROBE_EVERY;
        self.last_ckpt.elapsed() >= self.interval
    }

    /// Syncs the logs — the segment logs first, so that every segment a
    /// committed tuple names is durable before the tuple is — and
    /// atomically replaces the manifest with frontier cursor `head`, the
    /// three logs' committed geometry and the counters so far.
    fn checkpoint(
        &mut self,
        store: &mut Visited,
        head: u32,
        transitions: u64,
        peak_frontier: u64,
        elapsed: Duration,
        finished: Option<&Outcome>,
    ) -> PResult<()> {
        fn synced(tier: Option<&mut LogTier>) -> PResult<(u64, u64)> {
            let tier = tier.expect("persist run without a tier");
            let committed = tier.sync();
            tier.take_err().map_or(Ok(committed), Err)
        }
        let states = store.len() as u64;
        let home = synced(store.segments_mut(Segment::Home).tier_mut())?;
        let remote = synced(store.segments_mut(Segment::Remote).tier_mut())?;
        let tuples = synced(store.tier_mut())?;
        store.tier_mut().expect("persist run without a tier").stats_mut().checkpoints += 1;
        let mut m = Manifest {
            finished: finished.is_some(),
            outcome_name: finished.map(|o| o.name().to_string()),
            outcome_detail: finished.and_then(Outcome::detail),
            states,
            transitions,
            peak_frontier,
            elapsed_ms: (self.elapsed_base + elapsed).as_millis() as u64,
            head: head as u64,
            committed: vec![tuples, home, remote],
            ..Manifest::default()
        };
        self.writer.write(&mut m)?;
        self.last_ckpt = Instant::now();
        Ok(())
    }

    /// Concludes a finished run: writes the terminal manifest and folds
    /// the tier counters into `reg`. Write errors here are dropped when
    /// the run already failed with a persistence outcome (the diagnostic
    /// the user needs is in the outcome).
    pub(crate) fn conclude(&mut self, run: &mut DriveRun, reg: &Registry) {
        let head = run.store.len() as u32;
        let outcome = run.outcome.clone();
        let res = self.checkpoint(
            &mut run.store,
            head,
            run.transitions as u64,
            run.peak_frontier as u64,
            run.elapsed,
            Some(&outcome),
        );
        if let Err(e) = res {
            if !matches!(run.outcome, Outcome::PersistFailure(_)) {
                run.outcome = Outcome::PersistFailure(e.to_string());
            }
        }
        if let Some(tier) = run.store.tier() {
            tier.stats().publish(reg);
        }
    }

    /// Search time accumulated by prior runs of this phase.
    pub fn elapsed_base(&self) -> Duration {
        self.elapsed_base
    }
}

/// Checks that a recovered log holds the `records` its manifest commits.
fn committed_records(tier: &LogTier, records: u64, path: std::path::PathBuf) -> PResult<()> {
    if tier.records() as u64 == records {
        return Ok(());
    }
    Err(PersistError::new(
        path,
        format!("log holds {} committed records, manifest says {records}", tier.records()),
    ))
}

/// Reconstructs the report of an already-finished persisted phase from
/// its terminal manifest, so `--resume` of a completed run reports the
/// identical counts without re-searching. A restored `RuntimeFailure`
/// cannot rebuild its structured error and surfaces as
/// [`Outcome::PersistFailure`] describing the restoration.
pub fn report_from_manifest(m: &Manifest) -> SearchReport {
    let detail = m.outcome_detail.clone().unwrap_or_default();
    let outcome = match m.outcome_name.as_deref() {
        Some("Complete") => Outcome::Complete,
        Some("Unfinished") => Outcome::Unfinished,
        Some("Deadlock") => Outcome::Deadlock,
        Some("Livelock") => Outcome::Livelock,
        Some("InvariantViolated") => Outcome::InvariantViolated(detail),
        Some("PersistFailure") => Outcome::PersistFailure(detail),
        Some(other) => {
            Outcome::PersistFailure(format!("restored terminal outcome {other}: {detail}"))
        }
        None => Outcome::PersistFailure("finished manifest without an outcome".to_string()),
    };
    SearchReport {
        states: m.states as usize,
        transitions: m.transitions as usize,
        elapsed: Duration::from_millis(m.elapsed_ms),
        store_bytes: 0,
        peak_frontier: m.peak_frontier as usize,
        outcome,
        trail: None,
        restored: true,
    }
}

/// What a search does besides reaching states. [`drive`] owns the sweep
/// — frontier, visited set, budget, checkpoints, samples — and calls
/// these hooks as it goes; a checker keeps whatever it wants to say
/// about the graph afterwards. Every hook defaults to "nothing to add",
/// so a checker names only the events it judges, and a hook that returns
/// an outcome ends the sweep with it (its trail leads to the state the
/// hook was called for).
///
/// Call order, per sweep: `on_new(root, 0)`; then for each state popped
/// from the frontier `on_expand`, then for each successor in order, as
/// it is generated, the store lookup, `on_edge`, and — when the target
/// was new — `on_new` followed by the budget test; then `on_successors`.
/// A successor is lent to these hooks for the call and is gone (rewritten
/// into the next one) when they return. `on_new` and `on_edge` are also
/// shown the visited set, which holds every state they name by then.
/// State indices are dense in discovery order, and a breadth-first sweep
/// expands them in index order. A resumed persisted sweep does not
/// re-announce recovered states through `on_new`.
///
/// Checkers compose: a pair `(A, B)` is the checker that shows every
/// event to `A`, then to `B`, and ends the sweep with the first outcome
/// either returns; [`Riding`] turns a member's outcome into a latched
/// verdict, so that it rides a sweep another member owns.
pub(crate) trait Checker<T: TransitionSystem> {
    /// Whether this checker's per-edge work gets a profile row of its
    /// own: the sweep then laps [`SpanKind::Check`] after every
    /// `on_edge`, instead of leaving that time to the next span. Decided
    /// at compile time, so a plain exploration has neither the row nor
    /// the lap.
    const CHECKS: bool = false;

    /// Whether a hook reads the states it is shown. A sweep whose checker
    /// reads none may take a successor from the local-step table
    /// ([`crate::steps`]) without decoding it, and show the hooks some
    /// other state in its place. Such a checker may still read the
    /// visited set the hooks are shown: a state's tuple of segment ids,
    /// or the state read back (Equation 1 on the concrete space does
    /// both, [`crate::simrel`]).
    fn reads_states(&self) -> bool {
        true
    }

    /// `state` was stored for the first time, as `idx` (the root is 0).
    #[inline]
    fn on_new(&mut self, _store: &Visited, _state: &T::State, _idx: u32) -> Option<Outcome> {
        None
    }

    /// `state` (index `idx`) is about to be expanded; its successors have
    /// not been generated yet.
    #[inline]
    fn on_expand(&mut self, _state: &T::State, _idx: u32) -> Option<Outcome> {
        None
    }

    /// State `idx` had `n` successors, all of them seen by now.
    #[inline]
    fn on_successors(&mut self, _idx: u32, _n: usize) -> Option<Outcome> {
        None
    }

    /// The edge `state --label--> next` was generated and its target
    /// looked up: `state` is stored as `src` and `next` as `dst` — just
    /// now when `is_new`, in which case its `on_new` follows.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn on_edge(
        &mut self,
        _store: &Visited,
        _src: u32,
        _state: &T::State,
        _label: &Label,
        _dst: u32,
        _next: &T::State,
        _is_new: bool,
    ) -> Option<Outcome> {
        None
    }

    /// Called by the sweep after every `on_edge`.
    #[inline]
    fn lap(timer: &mut SpanTimer) {
        if Self::CHECKS {
            timer.lap(SpanKind::Check, 1);
        }
    }
}

impl<T: TransitionSystem, A: Checker<T>, B: Checker<T>> Checker<T> for (A, B) {
    const CHECKS: bool = A::CHECKS || B::CHECKS;

    fn reads_states(&self) -> bool {
        self.0.reads_states() || self.1.reads_states()
    }

    #[inline]
    fn on_new(&mut self, store: &Visited, state: &T::State, idx: u32) -> Option<Outcome> {
        self.0.on_new(store, state, idx).or_else(|| self.1.on_new(store, state, idx))
    }

    #[inline]
    fn on_expand(&mut self, state: &T::State, idx: u32) -> Option<Outcome> {
        self.0.on_expand(state, idx).or_else(|| self.1.on_expand(state, idx))
    }

    #[inline]
    fn on_successors(&mut self, idx: u32, n: usize) -> Option<Outcome> {
        self.0.on_successors(idx, n).or_else(|| self.1.on_successors(idx, n))
    }

    #[inline]
    fn on_edge(
        &mut self,
        store: &Visited,
        src: u32,
        state: &T::State,
        label: &Label,
        dst: u32,
        next: &T::State,
        is_new: bool,
    ) -> Option<Outcome> {
        self.0
            .on_edge(store, src, state, label, dst, next, is_new)
            .or_else(|| self.1.on_edge(store, src, state, label, dst, next, is_new))
    }
}

/// A checker on a sweep it must not end. Only the exploration may end a
/// shared sweep — its report is the complete one either way — so a rider
/// that reaches a verdict *latches* it here and goes quiet: the sweep
/// goes on, and the rider sees no later event (its own counts stop where
/// a sweep of its own would have).
pub(crate) struct Riding<C> {
    pub(crate) checker: C,
    pub(crate) verdict: Option<Outcome>,
}

impl<C> Riding<C> {
    pub(crate) fn new(checker: C) -> Self {
        Riding { checker, verdict: None }
    }
}

impl<T: TransitionSystem, C: Checker<T>> Checker<T> for Riding<C> {
    const CHECKS: bool = C::CHECKS;

    fn reads_states(&self) -> bool {
        self.checker.reads_states()
    }

    #[inline]
    fn on_new(&mut self, store: &Visited, state: &T::State, idx: u32) -> Option<Outcome> {
        if self.verdict.is_none() {
            self.verdict = self.checker.on_new(store, state, idx);
        }
        None
    }

    #[inline]
    fn on_expand(&mut self, state: &T::State, idx: u32) -> Option<Outcome> {
        if self.verdict.is_none() {
            self.verdict = self.checker.on_expand(state, idx);
        }
        None
    }

    #[inline]
    fn on_successors(&mut self, idx: u32, n: usize) -> Option<Outcome> {
        if self.verdict.is_none() {
            self.verdict = self.checker.on_successors(idx, n);
        }
        None
    }

    #[inline]
    fn on_edge(
        &mut self,
        store: &Visited,
        src: u32,
        state: &T::State,
        label: &Label,
        dst: u32,
        next: &T::State,
        is_new: bool,
    ) -> Option<Outcome> {
        if self.verdict.is_none() {
            self.verdict = self.checker.on_edge(store, src, state, label, dst, next, is_new);
        }
        None
    }
}

/// Plain reachability as a checker: an invariant, if any, on every new
/// state and, optionally, "no state without successors".
pub(crate) struct Explore<F> {
    pub(crate) invariant: Option<F>,
    pub(crate) check_deadlock: bool,
}

impl<T: TransitionSystem, F: FnMut(&T::State) -> Option<String>> Checker<T> for Explore<F> {
    fn reads_states(&self) -> bool {
        self.invariant.is_some()
    }

    #[inline]
    fn on_new(&mut self, _store: &Visited, state: &T::State, _idx: u32) -> Option<Outcome> {
        self.invariant
            .as_mut()
            .and_then(|invariant| invariant(state))
            .map(Outcome::InvariantViolated)
    }

    #[inline]
    fn on_successors(&mut self, _idx: u32, n: usize) -> Option<Outcome> {
        (self.check_deadlock && n == 0).then_some(Outcome::Deadlock)
    }
}

/// The raw result of one [`drive`] run: what the sweep itself counted,
/// plus the visited set a checker may need afterwards.
pub(crate) struct DriveRun {
    /// The visited set as it stood when the search ended.
    pub(crate) store: Visited,
    /// Transitions generated.
    pub(crate) transitions: usize,
    /// Largest frontier (BFS queue or DFS stack) observed.
    pub(crate) peak_frontier: usize,
    /// Wall time of the search.
    pub(crate) elapsed: Duration,
    /// How the search ended.
    pub(crate) outcome: Outcome,
    /// For a violating outcome, the stored state its trail leads to:
    /// [`trail_to`] replays the sweep to it. `None` for every other
    /// outcome, and for a resumed sweep, whose recovered states were
    /// never reached by this process.
    pub(crate) leads_to: Option<u32>,
    /// Whether the source expanded states in index order, rather than
    /// from a stack: a replay has to take the same order.
    pub(crate) breadth_first: bool,
    /// What the local-step table did, and the states decoded.
    pub(crate) steps: StepStats,
}

impl DriveRun {
    /// The public view of this run, without a trail; the visited set is
    /// released here.
    pub(crate) fn report(self) -> SearchReport {
        SearchReport {
            states: self.store.len(),
            transitions: self.transitions,
            elapsed: self.elapsed,
            store_bytes: self.store.approx_bytes(),
            peak_frontier: self.peak_frontier,
            outcome: self.outcome,
            trail: None,
            restored: false,
        }
    }

    /// [`DriveRun::report`], with the trail to the state the outcome
    /// names when `trails` asks for one. The trail is replayed only once
    /// the visited set is gone, so a violating run peaks no higher than
    /// its sweep did.
    pub(crate) fn report_with_trail<T: TransitionSystem>(
        self,
        sys: &T,
        trails: bool,
    ) -> SearchReport {
        let (leads_to, breadth_first) = (self.leads_to.filter(|_| trails), self.breadth_first);
        let mut report = self.report();
        report.trail = leads_to.map(|at| trail_to(sys, at, breadth_first));
        report
    }
}

/// Where a sweep's successors and their encodings come from — the one
/// thing [`Search::threads`] selects. [`drive`] is monomorphised over it:
/// [`Inline`] generates and encodes on the sweep's own thread, [`Fed`]
/// takes both from worker threads running ahead of the sweep. Either way
/// the source also holds the frontier, since handing states out for
/// expansion is what the two do differently.
pub(crate) trait Source<T: TransitionSystem> {
    /// Whether states come back in the order they went in (index order).
    /// Checkpoints rest on it.
    fn breadth_first(&self) -> bool {
        true
    }

    /// Queues `state`, just stored in `store` as `idx`, for expansion.
    fn push(&mut self, sys: &T, store: &Visited, state: &T::State, idx: u32);

    /// Queues stored state `idx` of a recovered `store`, of which only
    /// its key is left, for expansion.
    fn requeue(&mut self, sys: &T, store: &Visited, idx: u32) -> Result<(), Outcome>;

    /// States queued and not yet handed back by [`Source::pop`].
    fn len(&self) -> usize;

    /// Whether this kind of source can leave popped states in the store
    /// ([`Source::lazy`]).
    const LAZY: bool = false;

    /// Whether a popped state may stay in `store` until the sweep asks
    /// for it ([`Source::restore`]): its key is the state and is in
    /// memory, and nothing holds the sweep to decoding every state.
    fn lazy(&self, _store: &Visited) -> bool {
        false
    }

    /// Returns the index of the next state to expand, `Ok(None)` once the
    /// frontier is spent; a source that hands over decoded states leaves
    /// it in `into`, and one that does not leaves that to
    /// [`Source::restore`]. A source that has to wait calls `idle` once
    /// per waiting quantum with its queue depths, and gives up with `Err`
    /// when that returns true.
    fn pop(
        &mut self,
        sys: &T,
        store: &Visited,
        into: &mut T::State,
        timer: &mut SpanTimer,
        idle: &mut dyn FnMut(&[u64]) -> bool,
    ) -> Result<Option<u32>, Outcome>;

    /// Leaves state `idx`, the one last popped, in `into`, decoded; false
    /// when its bytes do not decode. Asked at most once per pop.
    fn restore(&mut self, _sys: &T, _store: &Visited, _idx: u32, _into: &mut T::State) -> bool {
        true
    }

    /// Shows `visit` — which gets the source back, to [`Source::insert`]
    /// and [`Source::push`] with — the successors of `state`, the state
    /// last popped, in order until it breaks, each with what its step
    /// wrote. `scratch` is a second state to build them in.
    fn expand(
        &mut self,
        sys: &T,
        state: &T::State,
        scratch: &mut T::State,
        visit: impl FnMut(&mut Self, Label, &T::State, Written) -> ControlFlow<()>,
    ) -> ccr_runtime::Result<()>;

    /// Looks `next` — the successor being visited, reached by the step
    /// `from` — up in `store`, storing it when new.
    fn insert(
        &mut self,
        sys: &T,
        store: &mut Visited,
        next: &T::State,
        from: Origin<'_, T::State>,
        timer: &mut SpanTimer,
    ) -> (u32, bool);

    /// The audit every key the sweep stores or finds is held to, if any
    /// ([`Search::audit`]).
    fn audit(&self) -> Option<&KeyAudit> {
        None
    }

    /// The audit every step the local-step table hands out is held to,
    /// if any ([`Search::step_audit`]).
    fn step_audit(&self) -> Option<&StepAudit> {
        None
    }
}

/// The serial source: a queue (or, `depth_first`, a stack) of pending
/// states, each decoded, expanded in place and its successors encoded
/// when the sweep gets to it. A pending state is an index: its bytes are
/// the visited set's own copy wherever that is the state
/// ([`Inline::reads_store`]), and otherwise a snapshot taken when it was
/// stored, in the one byte queue beside the indices. No decoded state
/// waits here. A breadth-first sweep that reads pending states from the
/// store queues exactly the indices it has stored and not yet expanded,
/// in order, so its frontier is a cursor over them.
pub(crate) struct Inline<'a> {
    /// Per pending state its stored index and the length of its snapshot
    /// in `side` (nothing, when it is read back from the store) — unless
    /// the pending states are `cursor`'s.
    frontier: VecDeque<(u32, u32)>,
    /// The pending states of a breadth-first sweep that reads them from
    /// the store: every index in the range.
    cursor: Range<u32>,
    /// The pending states' snapshots, back to back in frontier order.
    side: VecDeque<u8>,
    depth_first: bool,
    key_is_snapshot: bool,
    /// A pending state's key or snapshot, read back for decoding.
    enc: Vec<u8>,
    /// Holds every key stored or found to the system's plain encoding.
    audit: Option<&'a KeyAudit>,
    /// Holds every step the local-step table hands out to the walk's.
    step_audit: Option<&'a StepAudit>,
}

impl Inline<'_> {
    pub(crate) fn new<T: TransitionSystem>(sys: &T, depth_first: bool) -> Self {
        Inline {
            frontier: VecDeque::new(),
            cursor: 0..0,
            side: VecDeque::new(),
            depth_first,
            key_is_snapshot: sys.key_is_snapshot(),
            enc: Vec::new(),
            audit: None,
            step_audit: None,
        }
    }

    /// Whether pending states are read back from `store`: its key has to
    /// be the state — not an orbit's representative, not a sorted ledger —
    /// and has to stay in memory, which a disk tier does not promise.
    fn reads_store(&self, store: &Visited) -> bool {
        self.key_is_snapshot && store.tier().is_none()
    }

    /// Queues stored state `idx`, read back from the store when popped.
    fn queue(&mut self, idx: u32) {
        if self.depth_first {
            self.frontier.push_back((idx, 0));
        } else if self.cursor.is_empty() {
            self.cursor = idx..idx + 1;
        } else {
            debug_assert_eq!(idx, self.cursor.end, "a cursor's states are queued in index order");
            self.cursor.end = idx + 1;
        }
    }
}

impl<T: TransitionSystem> Source<T> for Inline<'_> {
    const LAZY: bool = true;

    fn breadth_first(&self) -> bool {
        !self.depth_first
    }

    #[inline]
    fn push(&mut self, sys: &T, store: &Visited, state: &T::State, idx: u32) {
        if self.reads_store(store) {
            self.queue(idx);
        } else {
            sys.snapshot_into(state, &mut self.enc);
            self.side.extend(&self.enc);
            self.frontier.push_back((idx, self.enc.len() as u32));
        }
    }

    fn requeue(&mut self, _sys: &T, store: &Visited, idx: u32) -> Result<(), Outcome> {
        if self.reads_store(store) {
            self.queue(idx);
        } else {
            // The key stands in for the snapshot nobody took: the state
            // it decodes to is the one a resumed sweep has always used.
            let key = store.read_entry(idx).ok_or_else(|| unreadable(idx))?;
            self.side.extend(&key);
            self.frontier.push_back((idx, key.len() as u32));
        }
        Ok(())
    }

    #[inline]
    fn len(&self) -> usize {
        self.cursor.len() + self.frontier.len()
    }

    fn lazy(&self, store: &Visited) -> bool {
        self.reads_store(store) && self.audit.is_none()
    }

    #[inline]
    fn pop(
        &mut self,
        _sys: &T,
        store: &Visited,
        _into: &mut T::State,
        _timer: &mut SpanTimer,
        _idle: &mut dyn FnMut(&[u64]) -> bool,
    ) -> Result<Option<u32>, Outcome> {
        if let Some(idx) = self.cursor.next() {
            return Ok(Some(idx));
        }
        let next =
            if self.depth_first { self.frontier.pop_back() } else { self.frontier.pop_front() };
        let Some((idx, len)) = next else { return Ok(None) };
        // A snapshot leaves the side queue now; a stored key is read when
        // the state is restored.
        if !self.reads_store(store) {
            let len = len as usize;
            let at = if self.depth_first { self.side.len() - len } else { 0 };
            self.enc.clear();
            self.enc.extend(self.side.drain(at..at + len));
        }
        Ok(Some(idx))
    }

    #[inline]
    fn restore(&mut self, sys: &T, store: &Visited, idx: u32, into: &mut T::State) -> bool {
        let read = !self.reads_store(store) || store.expand_into(idx, &mut self.enc);
        read && sys.restore_into(&self.enc, into)
    }

    #[inline]
    fn expand(
        &mut self,
        sys: &T,
        state: &T::State,
        scratch: &mut T::State,
        mut visit: impl FnMut(&mut Self, Label, &T::State, Written) -> ControlFlow<()>,
    ) -> ccr_runtime::Result<()> {
        scratch.clone_from(state);
        let generated = sys.for_each_successor(state, scratch, |label, next, written| {
            visit(self, label, next, written)
        });
        debug_assert!(*scratch == *state, "an expansion must leave its scratch state as it was");
        generated
    }

    #[inline]
    fn insert(
        &mut self,
        sys: &T,
        store: &mut Visited,
        next: &T::State,
        from: Origin<'_, T::State>,
        timer: &mut SpanTimer,
    ) -> (u32, bool) {
        store.build_tuple(sys, next, Some(from));
        timer.lap(SpanKind::Encode, 1);
        let r = store.insert_tuple();
        timer.lap(SpanKind::Insert, 1);
        r
    }

    fn audit(&self) -> Option<&KeyAudit> {
        self.audit
    }

    fn step_audit(&self) -> Option<&StepAudit> {
        self.step_audit
    }
}

/// A recovered store that cannot produce the bytes of one of its states.
fn unreadable(idx: u32) -> Outcome {
    Outcome::PersistFailure(format!("cannot read recovered state {idx} back"))
}

/// Frontier states per chunk, and chunks handed out and not yet merged
/// per worker. Together they bound what the workers' head start holds in
/// memory (states × fan-out successors each): at 64 × 2 the large-store
/// shape peaks within 2% of the serial run's RSS at one worker, and
/// 128 × 4 was no faster on either benchmark shape.
const CHUNK_STATES: usize = 64;
const CHUNKS_PER_WORKER: u64 = 2;

/// A run of frontier states in discovery order, and — once a worker has
/// been over it — everything the sweep needs to merge them: each state's
/// successor list and every successor's encoding, with its segments'
/// ends, kinds and hashes ([`Marking`]). The buffers
/// cycle: a merged chunk goes out again as a later job, so in the steady
/// state the lists and byte arena are not reallocated, and nothing a
/// worker allocated is freed on the sweep's thread (`spent` carries the
/// states the sweep is done with back to a worker to drop).
struct Chunk<T: TransitionSystem> {
    seq: u64,
    states: VecDeque<(T::State, u32)>,
    /// `succs[i]` are the successors of the chunk's `i`-th state.
    succs: Vec<Vec<(Label, T::State)>>,
    /// The first state `successors` failed on, with its error. Its list
    /// holds what was generated before the failure; the states after it
    /// were not expanded (the sweep never gets past it).
    failed: Option<(usize, RuntimeError)>,
    /// Per successor, in order: where its marks end in `marks` (they
    /// start where the one before's end).
    keys: Vec<usize>,
    /// The successors' segments, back to back: each one's end in `bytes`
    /// (it starts where the one before ends), kind and hash.
    marks: Vec<(usize, Segment, u64)>,
    bytes: Vec<u8>,
    spent: Vec<T::State>,
}

impl<T: TransitionSystem> Chunk<T> {
    fn new() -> Self {
        Chunk {
            seq: 0,
            states: VecDeque::new(),
            succs: Vec::new(),
            failed: None,
            keys: Vec::new(),
            marks: Vec::new(),
            bytes: Vec::new(),
            spent: Vec::new(),
        }
    }

    /// The worker's half of an expansion, for every state of the chunk:
    /// generate, encode, hash the segments. Workers contribute time to the
    /// profile; the span *counts* are charged when the sweep merges the
    /// state.
    fn expand(&mut self, sys: &T, timer: &mut SpanTimer) {
        self.spent.clear();
        self.keys.clear();
        self.marks.clear();
        self.bytes.clear();
        self.failed = None;
        if self.succs.len() < self.states.len() {
            self.succs.resize_with(self.states.len(), Vec::new);
        }
        for (i, (state, _)) in self.states.iter().enumerate() {
            let generated = sys.successors(state, &mut self.succs[i]);
            timer.lap(SpanKind::Compute, 0);
            for (_, next) in &self.succs[i] {
                let mut sink = Marking::new(&mut self.bytes, &mut self.marks);
                sys.encode_into(next, None, &mut sink);
                sink.finish();
                self.keys.push(self.marks.len());
            }
            timer.lap(SpanKind::Encode, 0);
            if let Err(e) = generated {
                self.failed = Some((i, e));
                return;
            }
        }
    }
}

/// What a worker sends back: an expanded chunk, or `None` from the drop
/// guard of a worker that is unwinding.
type Expanded<T> = Option<Chunk<T>>;

/// Tells the sweep that this worker died: with in-order merging, a chunk
/// that never comes back would otherwise block it forever.
struct Poison<'a, T: TransitionSystem>(&'a Sender<Expanded<T>>);

impl<T: TransitionSystem> Drop for Poison<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.0.send(None);
        }
    }
}

/// One expansion worker: chunks in, expanded chunks out, until the sweep
/// hangs up.
fn work<T: TransitionSystem>(
    sys: &T,
    jobs: Receiver<Chunk<T>>,
    done: Sender<Expanded<T>>,
    stall_ms: u64,
    mut timer: SpanTimer,
) {
    let _poison = Poison::<T>(&done);
    // Injected stall (CI watchdog exercise): the sweep sees no chunk come
    // back while the run is demonstrably alive.
    if stall_ms > 0 {
        std::thread::sleep(Duration::from_millis(stall_ms));
    }
    timer.mark();
    loop {
        let job = jobs.recv();
        timer.lap(SpanKind::BarrierWait, 1);
        let Ok(mut chunk) = job else { return };
        chunk.expand(sys, &mut timer);
        if done.send(Some(chunk)).is_err() {
            return;
        }
        timer.lap(SpanKind::Ship, 1);
    }
}

/// The threaded source: the frontier goes out to the workers in chunks,
/// in discovery order and ahead of the sweep, and the expanded chunks
/// are merged strictly by sequence number — so the sweep sees every
/// state, successor and encoding in exactly the order [`Inline`] would
/// have produced them, and every index, count, stop point, trail and
/// checkpoint is the serial run's by construction. One consumer knows
/// when nothing is outstanding; there is no termination protocol.
pub(crate) struct Fed<'a, T: TransitionSystem> {
    /// Discovered, not yet handed out.
    frontier: VecDeque<(T::State, u32)>,
    /// Discovered, not yet popped: the serial frontier length.
    pending: usize,
    jobs: Sender<Chunk<T>>,
    /// The workers' end of `jobs`, kept to take back what is still queued
    /// when the sweep ends early.
    queued: Receiver<Chunk<T>>,
    done: Receiver<Expanded<T>>,
    workers: u64,
    quantum: Duration,
    /// Chunks handed out, received back, and taken up for merging.
    sent: u64,
    received: u64,
    merged: u64,
    /// Received out of order, waiting for their turn.
    ready: Vec<Chunk<T>>,
    /// The chunk being merged, and the sweep's place in it: the state
    /// last popped, the next key, the start of its marks.
    cur: Chunk<T>,
    at: usize,
    key: usize,
    mark: usize,
    /// Merged chunks, to go out again.
    spare: Vec<Chunk<T>>,
    /// While `expand` shows the sweep a worker's successor: the index the
    /// sweep has queued it under, if it has. The worker's own copy then
    /// goes into the frontier; nothing is cloned on the sweep's thread.
    showing: bool,
    kept: Option<u32>,
    /// Holds every key stored or found to the system's plain encoding.
    audit: Option<&'a KeyAudit>,
}

impl<T: TransitionSystem> Fed<'_, T> {
    /// Hands out frontier states while there is room in flight: full
    /// chunks, and a partial one only when a worker would otherwise idle.
    fn dispatch(&mut self, timer: &mut SpanTimer) {
        while self.sent - self.merged < CHUNKS_PER_WORKER * self.workers
            && (self.frontier.len() >= CHUNK_STATES
                || (!self.frontier.is_empty() && self.sent - self.received < self.workers))
        {
            let mut chunk = self.spare.pop().unwrap_or_else(Chunk::new);
            chunk.seq = self.sent;
            let n = self.frontier.len().min(CHUNK_STATES);
            chunk.states.extend(self.frontier.drain(..n));
            // A failed send means the workers are gone; the wait for this
            // chunk reports it.
            let _ = self.jobs.send(chunk);
            self.sent += 1;
            timer.lap(SpanKind::Ship, 1);
        }
    }

    /// Makes the next chunk in sequence the current one, waiting for it a
    /// waiting quantum at a time.
    fn next_chunk(
        &mut self,
        timer: &mut SpanTimer,
        idle: &mut dyn FnMut(&[u64]) -> bool,
    ) -> Result<(), Outcome> {
        loop {
            if let Some(i) = self.ready.iter().position(|c| c.seq == self.merged) {
                let merged = std::mem::replace(&mut self.cur, self.ready.swap_remove(i));
                self.spare.push(merged);
                self.merged += 1;
                (self.at, self.key, self.mark) = (0, 0, 0);
                timer.lap(SpanKind::Drain, 1);
                return Ok(());
            }
            match self.done.recv_timeout(self.quantum) {
                Ok(Some(chunk)) => {
                    self.received += 1;
                    self.ready.push(chunk);
                }
                Ok(None) | Err(RecvTimeoutError::Disconnected) => panic!("worker panicked"),
                Err(RecvTimeoutError::Timeout) => {
                    if idle(&[self.sent - self.received, self.ready.len() as u64]) {
                        return Err(Outcome::Unfinished);
                    }
                }
            }
        }
    }
}

impl<T: TransitionSystem> Source<T> for Fed<'_, T> {
    /// The workers expand owned states, so a pending state is one here:
    /// the successor `expand` is showing, which it owns — or a copy of the
    /// root.
    fn push(&mut self, _sys: &T, _store: &Visited, state: &T::State, idx: u32) {
        if self.showing {
            self.kept = Some(idx);
        } else {
            self.frontier.push_back((state.clone(), idx));
        }
        self.pending += 1;
    }

    fn requeue(&mut self, sys: &T, store: &Visited, idx: u32) -> Result<(), Outcome> {
        let key = store.read_entry(idx).ok_or_else(|| unreadable(idx))?;
        let mut state = sys.initial();
        if !sys.restore_into(&key, &mut state) {
            return Err(Outcome::PersistFailure(format!("recovered state {idx} does not decode")));
        }
        self.frontier.push_back((state, idx));
        self.pending += 1;
        Ok(())
    }

    fn len(&self) -> usize {
        self.pending
    }

    fn pop(
        &mut self,
        _sys: &T,
        _store: &Visited,
        into: &mut T::State,
        timer: &mut SpanTimer,
        idle: &mut dyn FnMut(&[u64]) -> bool,
    ) -> Result<Option<u32>, Outcome> {
        loop {
            self.dispatch(timer);
            if let Some((state, idx)) = self.cur.states.pop_front() {
                self.pending -= 1;
                // The state expanded before this one goes back to a
                // worker to drop.
                self.cur.spent.push(std::mem::replace(into, state));
                return Ok(Some(idx));
            }
            if self.merged == self.sent {
                return Ok(None);
            }
            self.next_chunk(timer, idle)?;
        }
    }

    fn expand(
        &mut self,
        _sys: &T,
        _state: &T::State,
        _scratch: &mut T::State,
        mut visit: impl FnMut(&mut Self, Label, &T::State, Written) -> ControlFlow<()>,
    ) -> ccr_runtime::Result<()> {
        let i = self.at;
        self.at += 1;
        let mut succs = std::mem::take(&mut self.cur.succs[i]);
        let mut visiting = true;
        self.showing = true;
        for (label, next) in succs.drain(..) {
            visiting = visiting && visit(self, label, &next, Written::ALL).is_continue();
            match self.kept.take() {
                Some(idx) => self.frontier.push_back((next, idx)),
                None => self.cur.spent.push(next),
            }
        }
        self.showing = false;
        self.cur.succs[i] = succs;
        match self.cur.failed.take_if(|(at, _)| *at == i) {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    fn insert(
        &mut self,
        _sys: &T,
        store: &mut Visited,
        _next: &T::State,
        _from: Origin<'_, T::State>,
        timer: &mut SpanTimer,
    ) -> (u32, bool) {
        let end = self.cur.keys[self.key];
        let marks = &self.cur.marks[self.mark..end];
        let start = self.mark.checked_sub(1).map_or(0, |last| self.cur.marks[last].0);
        (self.key, self.mark) = (self.key + 1, end);
        timer.lap(SpanKind::Encode, 1);
        store.intern_marked(&self.cur.bytes, start, marks);
        let r = store.insert_tuple();
        timer.lap(SpanKind::Insert, 1);
        r
    }

    fn audit(&self) -> Option<&KeyAudit> {
        self.audit
    }
}

/// An ended sweep wants no more than the chunks already being expanded:
/// what is still queued is taken back before the workers are hung up on.
impl<T: TransitionSystem> Drop for Fed<'_, T> {
    fn drop(&mut self) {
        while self.queued.try_recv().is_ok() {}
    }
}

/// Runs `sweep` with a source fed by `threads` scoped workers (profiled
/// as workers `1..=threads`; the sweep is worker 0), each sleeping
/// `stall_ms` before its first chunk. The workers are gone when this
/// returns, and a worker's panic is the search's — the sweep re-raises it
/// instead of waiting for a chunk that will not come, and the scope does
/// if the sweep ended before it needed that chunk.
fn feed<'a, T, R>(
    sys: &T,
    threads: usize,
    stall_ms: u64,
    audit: Option<&'a KeyAudit>,
    telemetry: &Telemetry,
    sweep: impl FnOnce(Fed<'a, T>) -> R,
) -> R
where
    T: TransitionSystem + Sync,
    T::State: Send,
{
    let (jobs, queued) = unbounded();
    let (outbox, done) = unbounded();
    // The wait between two looks at the budget and the recorder: its
    // cadence, within [1 ms, 100 ms]; without a recorder only the
    // wall-clock budget is looked at.
    let most = Duration::from_millis(100);
    let quantum = if telemetry.timeline.enabled() {
        telemetry.timeline.interval().clamp(Duration::from_millis(1), most)
    } else {
        most
    };
    telemetry
        .registry
        .gauge_nondet("mc_workers", "Worker threads used by the widest threaded search")
        .record_max(threads as u64);
    std::thread::scope(|scope| {
        for w in 1..=threads {
            let (inbox, outbox) = (queued.clone(), outbox.clone());
            let timer = telemetry.profiler.worker(w);
            scope.spawn(move || work(sys, inbox, outbox, stall_ms, timer));
        }
        drop(outbox);
        sweep(Fed {
            frontier: VecDeque::new(),
            pending: 0,
            jobs,
            queued,
            done,
            workers: threads as u64,
            quantum,
            sent: 0,
            received: 0,
            merged: 0,
            ready: Vec::new(),
            cur: Chunk::new(),
            at: 0,
            key: 0,
            mark: 0,
            spare: Vec::new(),
            showing: false,
            kept: None,
            audit,
        })
    })
}

/// The one sweep: reachability over `sys` within `budget`, expanding the
/// states `src` hands back — in BFS order, or DFS from an [`Inline`]
/// stack. It keeps no parent table: a violating run ends with the index
/// of the state its trail leads to, and [`trail_to`] replays the sweep
/// to that state when a trail is wanted. What the sweep is *for* is the
/// `checker`'s business ([`Checker`]): plain exploration, Equation 1
/// ([`crate::simrel`]) and the progress check ([`crate::progress`]) are
/// three checkers on this loop.
///
/// Keeping the expansion loop in one place is also what lets a
/// state-space reduction (e.g. [`crate::symmetry`]) slot in under every
/// check at once via [`ccr_runtime::TransitionSystem::encode`], and what
/// makes threads invisible: every count, index and stop point below is
/// decided here, on one thread, whatever `src` is.
pub(crate) fn drive<T: TransitionSystem, C: Checker<T>, S: Source<T>>(
    sys: &T,
    budget: &Budget,
    checker: &mut C,
    mut src: S,
    obs: &mut SearchObserver<'_>,
    mut persist: Option<&mut SerialPersist>,
) -> DriveRun {
    let started = Instant::now();
    let mut store = persist.as_deref_mut().and_then(|p| p.store.take()).unwrap_or_default();
    // The two decoded states of the sweep: the one being expanded, and
    // the one its successors are built in.
    let mut state = sys.initial();
    let mut scratch = state.clone();
    let mut transitions = 0usize;
    let mut peak_frontier = 0usize;
    let mut timer = obs.telemetry().profiler.worker(0);
    let mut at = SampleInput::default();
    let resumed = persist.as_deref().is_some_and(|p| p.resumed);
    let breadth_first = src.breadth_first();
    // Successors from the steps already taken, where no checker reads a
    // state, the system says what its rule groups read and the source can
    // leave states in the store: a state is then decoded only if one of
    // its groups has to be walked. (Written so that a sweep that can never
    // take this path compiles without it.)
    let groups = sys.groups();
    let by_table = S::LAZY
        && !checker.reads_states()
        && (0..groups).any(|g| sys.group_reads(g).is_some())
        && src.lazy(&store);
    let mut steps = LocalSteps::new(sys);
    // A group's steps from the table; the ids of a successor just stored;
    // the keys of the table's successors, for the step audit.
    let mut taken: Vec<Taken> = Vec::new();
    let mut next_ids: Vec<u32> = Vec::new();
    let mut audited: Vec<(u16, Vec<u8>)> = Vec::new();
    obs.sweep_starts();

    // Ends the sweep with `$outcome`; `$at`, when given, is the state its
    // trail leads to. A resumed run names none: the counts and outcome
    // are byte-identical, the counterexample path is only available from
    // an uninterrupted (or fresh) run.
    macro_rules! done {
        ($outcome:expr) => {
            done!($outcome, None::<u32>)
        };
        ($outcome:expr, $at:expr) => {
            return DriveRun {
                transitions,
                peak_frontier,
                elapsed: started.elapsed(),
                outcome: $outcome,
                leads_to: $at.filter(|_| !resumed),
                breadth_first,
                steps: steps.stats(),
                store,
            }
        };
    }
    // Ends the sweep when a checker hook, called for state `$at`, says so.
    macro_rules! check {
        ($hook:expr, $at:expr) => {
            if let Some(outcome) = $hook {
                done!(outcome, Some($at));
            }
        };
    }

    if persist.is_some() && !breadth_first {
        done!(Outcome::PersistFailure("depth-first search does not support persistence".into()));
    }

    if resumed {
        let p = persist.as_deref().expect("resumed without persist");
        transitions = p.transitions0 as usize;
        peak_frontier = p.peak0 as usize;
        store.learn(sys);
        if let Err(idx) = store.check_tuples() {
            done!(Outcome::PersistFailure(format!(
                "recovered state {idx} names a segment the committed segment logs do not hold"
            )));
        }
        // Recovered states wait like any other pending state, and are
        // decoded when the sweep gets to them.
        for i in p.head0..store.len() as u32 {
            if let Err(outcome) = src.requeue(sys, &store, i) {
                done!(outcome);
            }
        }
    } else {
        // The root is nobody's successor: encoded here whatever the
        // source, and charged to no span.
        store.insert_state(sys, &state, None);
        if let Some(audit) = src.audit() {
            audit.check(sys, &store, &state, 0);
        }
        check!(checker.on_new(&store, &state, 0), 0);
        src.push(sys, &store, &state, 0);
    }

    loop {
        // While the source waits for its workers the sweep stays alive to
        // its observer — samples, status, the stall watchdog — and to
        // the wall-clock budget.
        let popped = src.pop(sys, &store, &mut state, &mut timer, &mut |queues| {
            obs.tick(&SampleInput { queues, ..at.clone() }, true);
            budget.max_time.is_some_and(|t| started.elapsed() >= t)
        });
        let idx = match popped {
            Ok(Some(idx)) => idx,
            Ok(None) => done!(Outcome::Complete),
            Err(outcome) => done!(outcome),
        };
        // Decoded now, unless the table expands it.
        let mut restored = !by_table;
        if restored {
            if !src.restore(sys, &store, idx, &mut state) {
                done!(undecodable(idx));
            }
            steps.stats.restores += u64::from(S::LAZY);
        }
        peak_frontier = peak_frontier.max(src.len() + 1);
        store.expanding(idx);
        if let Some(p) = persist.as_deref_mut() {
            if store.tier().is_some_and(LogTier::has_err) {
                let e = store.tier_mut().and_then(LogTier::take_err).expect("sticky error");
                done!(Outcome::PersistFailure(e.to_string()));
            }
            // Committing `head = idx` *before* expanding puts the cut
            // between expansions: a resume re-expands this state against
            // the already-recovered visited set, reproducing the exact
            // counters an uninterrupted run reports.
            if p.due() {
                if let Err(e) = p.checkpoint(
                    &mut store,
                    idx,
                    transitions as u64,
                    peak_frontier as u64,
                    started.elapsed(),
                    None,
                ) {
                    done!(Outcome::PersistFailure(e.to_string()));
                }
                timer.lap(SpanKind::Checkpoint, 1);
                if let Some(tier) = store.tier() {
                    let stats = tier.stats();
                    at.spill_bytes = stats.bytes_appended;
                    at.compacted_bytes = stats.compacted_bytes;
                    at.checkpoint_seq = stats.checkpoints;
                }
            }
        }
        at.states = store.len() as u64;
        at.transitions = transitions as u64;
        at.frontier = src.len() as u64 + 1;
        at.store_bytes = store.approx_bytes() as u64;
        obs.tick(&at, false);
        check!(checker.on_expand(&state, idx), idx);
        // What ended the sweep in the middle of this expansion, and the
        // state a trail to it leads to.
        let mut ended: Option<(Outcome, Option<u32>)> = None;
        let mut generated: ccr_runtime::Result<()> = Ok(());
        let mut ordinal = 0u32;
        let parent_id = next_parent_id();
        // The rest of a successor's visit, once it is stored as `$nidx`
        // (new when `$is_new`): `$next` is the successor, or — taken from
        // the table — a stand-in no checker reads.
        macro_rules! visit {
            ($src:expr, $label:expr, $next:expr, $nidx:expr, $is_new:expr) => {{
                let (nidx, is_new) = ($nidx, $is_new);
                if let Some(audit) = $src.audit() {
                    audit.check(sys, &store, $next, nidx);
                }
                let judged = checker.on_edge(&store, idx, &state, $label, nidx, $next, is_new);
                C::lap(&mut timer);
                ordinal += 1;
                if let Some(outcome) = judged {
                    ended = Some((outcome, Some(idx)));
                } else if is_new {
                    if let Some(p) = persist.as_deref() {
                        p.crash.tick();
                    }
                    if let Some(outcome) = checker.on_new(&store, $next, nidx) {
                        ended = Some((outcome, Some(nidx)));
                    } else if budget.exceeded(&store, started) {
                        ended = Some((Outcome::Unfinished, None));
                    } else {
                        $src.push(sys, &store, $next, nidx);
                    }
                }
                if ended.is_some() {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            }};
        }
        // Decodes the state being expanded, once, for a walk.
        macro_rules! restore {
            () => {
                if !restored {
                    if !src.restore(sys, &store, idx, &mut state) {
                        ended = Some((undecodable(idx), None));
                        break;
                    }
                    scratch.clone_from(&state);
                    restored = true;
                    steps.stats.restores += 1;
                }
            };
        }
        if by_table {
            // One rule group at a time, in the walk's order: from the
            // table where it holds the group's steps at this state, by
            // the walk otherwise — which fills the table.
            for group in 0..groups {
                if steps.lookup(group, store.parent_ids(), &mut taken) {
                    let walked = if src.step_audit().is_some() {
                        restore!();
                        audited.clear();
                        Some(StepAudit::walk(sys, &state, &mut scratch, group))
                    } else {
                        None
                    };
                    for step in &taken {
                        // The table made this successor: its segments are
                        // the parent's, a few replaced.
                        timer.lap(SpanKind::Compute, 0);
                        transitions += 1;
                        store.build_replaced(step.writes());
                        timer.lap(SpanKind::Encode, 1);
                        let (nidx, is_new) = store.insert_tuple();
                        timer.lap(SpanKind::Insert, 1);
                        if walked.is_some() {
                            audited.push((step.label, store.read_entry(nidx).unwrap_or_default()));
                        }
                        if visit!(src, steps.label(step.label), &state, nidx, is_new).is_break() {
                            break;
                        }
                    }
                    if let (Some(walked), Some(audit)) = (walked, src.step_audit()) {
                        if ended.is_none() {
                            let taken: Vec<_> =
                                audited.drain(..).map(|(l, key)| (steps.label(l), key)).collect();
                            audit.check(idx, group, walked, &taken);
                        }
                    }
                } else {
                    restore!();
                    steps.begin();
                    // Behind trait objects: a miss is rare, and the walk
                    // is then compiled once per system, not once per sweep.
                    let wanted: &dyn Fn(usize) -> bool = &|g| g == group;
                    let walk: &mut DynVisit<'_, T::State> = &mut |_, label, next, written| {
                        timer.lap(SpanKind::Compute, 0);
                        transitions += 1;
                        let from = Origin { parent: &state, parent_id, written };
                        let (nidx, is_new) = src.insert(sys, &mut store, next, from, &mut timer);
                        store.tuple_ids(nidx, &mut next_ids);
                        let remotes = store.segments(Segment::Remote);
                        steps.note(group, &label, store.parent_ids(), &next_ids, remotes);
                        visit!(src, &label, next, nidx, is_new)
                    };
                    generated = sys.for_each_successor_in(&state, &mut scratch, wanted, walk);
                    debug_assert!(
                        scratch == state,
                        "a walk must leave its scratch state as it was"
                    );
                    if generated.is_ok() && ended.is_none() {
                        steps.commit(group, store.parent_ids());
                    }
                }
                if ended.is_some() || generated.is_err() {
                    break;
                }
            }
        } else {
            generated = src.expand(sys, &state, &mut scratch, |src, label, next, written| {
                // Since the last lap, the source made this successor.
                timer.lap(SpanKind::Compute, 0);
                transitions += 1;
                let from = Origin { parent: &state, parent_id, written };
                let (nidx, is_new) = src.insert(sys, &mut store, next, from, &mut timer);
                visit!(src, &label, next, nidx, is_new)
            });
        }
        if let Some((outcome, leads_to)) = ended {
            done!(outcome, leads_to);
        }
        if let Err(e) = generated {
            done!(Outcome::RuntimeFailure(e), Some(idx));
        }
        timer.lap(SpanKind::Compute, 1);
        check!(checker.on_successors(idx, ordinal as usize), idx);
    }
}

/// A pending state whose bytes do not decode.
fn undecodable(idx: u32) -> Outcome {
    Outcome::PersistFailure(format!("pending state {idx} does not decode"))
}

/// The exploration's ending, whatever rode its sweep — in this order:
/// the terminal manifest of a persisted run, the run's metrics, the
/// trail when `trails` asks for one (replayed once the visited set is
/// released) and the observer's ending (the counterexample replayed to
/// its sink when there is a trail, the bare outcome event otherwise).
pub(crate) fn explored<T: TransitionSystem>(
    sys: &T,
    mut run: DriveRun,
    trails: bool,
    obs: &mut SearchObserver<'_>,
    mut persist: Option<&mut SerialPersist>,
) -> SearchReport {
    if let Some(p) = persist.as_deref_mut() {
        p.conclude(&mut run, &obs.telemetry().registry);
    }
    let reg = &obs.telemetry().registry;
    record_search_run(reg, &run);
    let mut report = run.report_with_trail(sys, trails);
    conclude_with_trail(sys, &report.outcome, report.trail.as_deref(), obs);
    if let Some(p) = persist {
        report.elapsed += p.elapsed_base();
    }
    report
}

/// An unthreaded exploration from sweep to report: [`drive`] under the
/// [`Explore`] checker alone, then [`explored`]. Every serial
/// convenience is this function.
pub(crate) fn explore_with<T: TransitionSystem>(
    sys: &T,
    budget: &Budget,
    invariant: Option<&mut InvariantMut<'_, T::State>>,
    check_deadlock: bool,
    trails: bool,
    obs: &mut SearchObserver<'_>,
    mut persist: Option<&mut SerialPersist>,
) -> SearchReport {
    // Type-erased, so the sweep is compiled once per system and source,
    // not once more per caller's closure.
    let mut checker = Explore { invariant, check_deadlock };
    let src = Inline::new(sys, false);
    let run = drive(sys, budget, &mut checker, src, obs, persist.as_deref_mut());
    explored(sys, run, trails, obs, persist)
}

/// How to run a search — the one options value behind every exploration
/// and progress check. `Search::default()` is the plain serial sweep: no
/// deadlock check, no trails, in memory.
#[derive(Debug, Clone, Copy, Default)]
pub struct Search<'a> {
    /// Abort with [`Outcome::Deadlock`] on a state with no successors
    /// (protocols in the paper's model run forever).
    pub check_deadlock: bool,
    /// Give a violating run its shortest counterexample trail, exported
    /// to the observer's sink as a replayed event stream. The sweep keeps
    /// no parent table for it: the trail comes from a second sweep, up to
    /// the offending state, once the first has let its visited set go
    /// ([`crate::trace`]).
    pub trails: bool,
    /// Worker threads generating and encoding successors ahead of the
    /// sweep; 0 does both inline. The sweep itself — and so every count,
    /// outcome, trail, witness and checkpoint — is the same at every
    /// value (`docs/parallel_checking.md`).
    pub threads: usize,
    /// Fault-injection hook of a threaded search: each worker sleeps
    /// this many milliseconds once before its first chunk (provokes the
    /// stall watchdog on purpose).
    pub stall_ms: u64,
    /// Checkpoint the exploration into this phase directory (layout in
    /// `docs/persistence.md`), resuming or restoring per the options.
    pub persist: Option<(&'a Path, &'a PersistOpts)>,
    /// Test hook of the visited set: every key the sweep stores or finds
    /// is read back from its tuple and held to the system's plain
    /// encoding of the state that reached it ([`KeyAudit`]). Costs an
    /// encoding and a read-back per transition; the reports are the
    /// unaudited run's (a [`crate::symmetry::Reduced`] system's orbit
    /// counters also count the audit's canonicalizations).
    pub audit: Option<&'a KeyAudit>,
    /// Test hook of the local-step table ([`crate::steps`]): every rule
    /// group whose steps a serial sweep takes from the table is walked
    /// again at the state itself, and each step's label and successor
    /// key held to the table's ([`StepAudit`]). Costs a decode and a walk
    /// per group the table answers; the reports are the unaudited run's.
    pub step_audit: Option<&'a StepAudit>,
    /// Test hook of Equation 1 on the concrete space
    /// ([`Search::verify`]): every image its memo gives a state is held
    /// to `abs` of the state read back, computed whole ([`ImageAudit`]).
    /// Costs a decode and an `abs` per edge; the reports are the
    /// unaudited run's.
    pub image_audit: Option<&'a ImageAudit>,
}

impl Search<'_> {
    /// One sweep of `sys` under `checker`: the one place a [`Source`] is
    /// chosen. Every entry point below is this call with its own
    /// checker — one member, or several sharing the sweep — followed by
    /// its members' endings.
    pub(crate) fn sweep<T, C>(
        &self,
        sys: &T,
        budget: &Budget,
        checker: &mut C,
        obs: &mut SearchObserver<'_>,
        persist: Option<&mut SerialPersist>,
    ) -> DriveRun
    where
        T: TransitionSystem + Sync,
        T::State: Send,
        C: Checker<T>,
    {
        if self.threads == 0 {
            let src = Inline {
                audit: self.audit,
                step_audit: self.step_audit,
                ..Inline::new(sys, false)
            };
            drive(sys, budget, checker, src, obs, persist)
        } else {
            let telemetry = obs.telemetry().clone();
            feed(sys, self.threads, self.stall_ms, self.audit, &telemetry, |src| {
                drive(sys, budget, checker, src, obs, persist)
            })
        }
    }

    /// Explores the reachable state space of `sys` breadth-first.
    /// `invariant`, if any, is evaluated on every newly discovered state;
    /// returning `Some(description)` aborts with
    /// [`Outcome::InvariantViolated`]. `obs` samples the sweep and receives
    /// the run's ending. Without an invariant nothing reads a state the
    /// sweep reaches, and a serial sweep takes the steps it has taken
    /// before from its local-step table ([`crate::steps`]).
    ///
    /// With `persist`, new states are logged (and spilled past the
    /// eviction threshold), the frontier is checkpointed on the
    /// configured cadence, and a resumed context continues from its last
    /// checkpoint — finishing with the same states, transitions and
    /// outcome as an uninterrupted run, though without a trail: recovered
    /// states carry no parent pointers. A phase whose manifest is already
    /// terminal is not searched again ([`SearchReport::restored`]), and a
    /// directory that cannot be opened (foreign lock, corrupt manifest,
    /// log truncated below its committed prefix, unwritable directory —
    /// the message names the offending path) reports
    /// [`Outcome::PersistFailure`] with zero counts.
    pub fn explore<T>(
        &self,
        sys: &T,
        budget: &Budget,
        invariant: Option<&Invariant<'_, T::State>>,
        obs: &mut SearchObserver<'_>,
    ) -> SearchReport
    where
        T: TransitionSystem + Sync,
        T::State: Send,
    {
        let mut persist = match self.persist.map(|(root, opts)| SerialPersist::open(root, opts)) {
            None => None,
            Some(Ok(SerialPersistOpen::Run(p))) => Some(p),
            Some(Ok(SerialPersistOpen::Finished(m))) => return report_from_manifest(&m),
            Some(Err(e)) => return SearchReport::persist_failure(&e),
        };
        let mut checker = Explore { invariant, check_deadlock: self.check_deadlock };
        let run = self.sweep(sys, budget, &mut checker, obs, persist.as_deref_mut());
        explored(sys, run, self.trails, obs, persist.as_deref_mut())
    }

    /// The §2.5 forward-progress check ([`crate::progress`]) on a sweep
    /// of its own; `is_progress` classifies labels as progress events. Of
    /// the options only `threads` applies: the check always reads its
    /// witness off the graph it records, never persists, and is not a
    /// stall-injection site.
    pub fn progress<T, G>(
        &self,
        sys: &T,
        budget: &Budget,
        is_progress: G,
        obs: &mut SearchObserver<'_>,
    ) -> ProgressReport
    where
        T: TransitionSystem + Sync,
        T::State: Send,
        G: Fn(&Label) -> bool + Sync,
    {
        let mut graph = ForwardGraph::new(is_progress);
        let alone = Search { stall_ms: 0, ..*self };
        let run = alone.sweep(sys, budget, &mut graph, obs, None);
        progress::swept_alone(sys, graph, run, obs)
    }

    /// All three questions `ccr verify` asks of the asynchronous level on
    /// one sweep of `sys` — `async_sys` itself or its
    /// [`crate::symmetry::Reduced`] quotient: [`Search::explore`] with no
    /// invariant, Equation 1 into `rv_sys`
    /// ([`crate::simrel::check_simulation`]) and the progress check, with
    /// every state expanded once. Only the exploration ends the sweep,
    /// and its report is `explore`'s, its own trail answering to
    /// `trails`. The Equation 1 report is `check_simulation`'s — a
    /// violating edge is latched with the counts as they stood, and the
    /// sweep goes on — unless the exploration found something of its own
    /// first, which reads as an incomplete check. On a quotient its counts
    /// are of orbits and its verdict is the concrete space's
    /// (`docs/symmetry.md`, "Equation 1 on the quotient"). The returned
    /// graph is what [`Search::progress`] would have recorded on a sweep
    /// of its own, as long as the exploration ran out (`Complete`) or out
    /// of budget — a violation that ends the exploration leaves a prefix
    /// nobody should judge. [`ProgressGraph::check`] turns it into the
    /// report, whenever the caller gets to it.
    ///
    /// No parent table is kept, for either: the exploration's trail is
    /// replayed once the sweep's visited set is released, when `trails`
    /// wants one, and the progress witness is read off the graph. The
    /// sweep holds the visited set, the frontier and the graph: about 2.4
    /// bytes per transition (a delta-coded target), four per expanded
    /// state and one bit per state.
    ///
    /// `persist` is not consulted: riders must be shown every state, and
    /// a resumed sweep does not re-announce the ones it recovered.
    /// Checkpointed runs explore with [`Search::explore`] and check
    /// separately.
    pub fn verify<T, G>(
        &self,
        sys: &T,
        async_sys: &AsyncSystem<'_>,
        rv_sys: &RendezvousSystem<'_>,
        budget: &Budget,
        is_progress: G,
        obs: &mut SearchObserver<'_>,
    ) -> (SearchReport, SimRelReport, ProgressGraph)
    where
        T: TransitionSystem<State = AsyncState> + Sync,
        G: Fn(&Label) -> bool + Sync,
    {
        let invariant = None::<&Invariant<'_, AsyncState>>;
        let explore = Explore { invariant, check_deadlock: self.check_deadlock };
        let equation1 = Riding::new(Equation1::new(sys, async_sys, rv_sys, self.image_audit));
        let mut checker = (explore, (equation1, ForwardGraph::new(is_progress)));
        let run = self.sweep(sys, budget, &mut checker, obs, None);
        let report = explored(sys, run, self.trails, obs, None);
        let (equation1, graph) = checker.1;
        equation1.checker.record(&obs.telemetry().registry);
        let equation1 = equation1.report(&report.outcome);
        let graph = graph.swept(report.outcome.is_complete());
        (report, equation1, graph)
    }
}

/// Explores the reachable state space of `sys` breadth-first on the
/// calling thread alone, unobserved — [`Search::explore`] for the common
/// case.
///
/// `invariant` is evaluated on every newly discovered state; returning
/// `Some(description)` aborts with [`Outcome::InvariantViolated`]. When
/// `check_deadlock` is set, a state with no successors aborts with
/// [`Outcome::Deadlock`] (protocols in the paper's model run forever).
pub fn explore<T: TransitionSystem>(
    sys: &T,
    budget: &Budget,
    mut invariant: impl FnMut(&T::State) -> Option<String>,
    check_deadlock: bool,
) -> ExploreReport {
    let mut null = NullSink;
    let mut obs = SearchObserver::new(&mut null);
    explore_with(sys, budget, Some(&mut invariant), check_deadlock, false, &mut obs, None)
        .explore_report()
}

/// Convenience: explore with no invariant and no deadlock check.
pub fn explore_plain<T: TransitionSystem>(sys: &T, budget: &Budget) -> ExploreReport {
    let mut null = NullSink;
    let mut obs = SearchObserver::new(&mut null);
    explore_with(sys, budget, None, false, false, &mut obs, None).explore_report()
}

/// Depth-first exploration. Visits the same reachable set as [`explore`]
/// (useful to cross-check the search itself, and as the lower-memory-
/// frontier mode SPIN defaults to); counterexamples found by the BFS
/// variant are shorter, so prefer [`Search::trails`] for debugging.
pub fn explore_dfs<T: TransitionSystem>(
    sys: &T,
    budget: &Budget,
    invariant: impl FnMut(&T::State) -> Option<String>,
    check_deadlock: bool,
) -> ExploreReport {
    let mut null = NullSink;
    let mut obs = SearchObserver::new(&mut null);
    let mut checker = Explore { invariant: Some(invariant), check_deadlock };
    drive(sys, budget, &mut checker, Inline::new(sys, true), &mut obs, None)
        .report()
        .explore_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_core::builder::ProtocolBuilder;
    use ccr_core::encode::Sink;
    use ccr_core::expr::Expr;
    use ccr_core::ids::RemoteId;
    use ccr_core::value::Value;
    use ccr_runtime::rendezvous::RendezvousSystem;

    fn token_spec() -> ccr_core::process::ProtocolSpec {
        let mut b = ProtocolBuilder::new("token");
        let req = b.msg("req");
        let gr = b.msg("gr");
        let rel = b.msg("rel");
        let o = b.home_var("o", Value::Node(RemoteId(0)));
        let f = b.home_state("F");
        let g1 = b.home_state("G1");
        let e = b.home_state("E");
        b.home(f).recv_any(req).bind_sender(o).goto(g1);
        b.home(g1).send_to(Expr::Var(o), gr).goto(e);
        b.home(e).recv_exact(rel, Expr::Var(o)).goto(f);
        let i = b.remote_state("I");
        let w = b.remote_state("W");
        let v = b.remote_state("V");
        b.remote(i).send(req).goto(w);
        b.remote(w).recv(gr).goto(v);
        b.remote(v).send(rel).goto(i);
        b.finish().unwrap()
    }

    #[test]
    fn rendezvous_token_space_is_small_and_complete() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 2);
        let r = explore_plain(&sys, &Budget::default());
        assert!(r.outcome.is_complete());
        // Hand count: home F/G1/E x owner x remote states, reachable subset.
        // The exact number matters less than stability; pin it as a golden
        // value to catch semantic regressions.
        // (F,o=0) (G1,o=0) (G1,o=1) (E,o=0) (E,o=1) (F,o=1)
        assert_eq!(r.states, 6, "reachable rendezvous states for 2 remotes");
        assert!(r.transitions >= r.states - 1);
    }

    #[test]
    fn budget_truncates_search() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 4);
        let full = explore_plain(&sys, &Budget::default());
        assert!(full.outcome.is_complete());
        let r = explore_plain(&sys, &Budget::states(3));
        assert_eq!(r.outcome, Outcome::Unfinished);
        assert!(r.states < full.states);

        let tiny = explore_plain(&sys, &Budget::bytes(64));
        assert_eq!(tiny.outcome, Outcome::Unfinished);
    }

    /// A byte budget is held before the insert that would pass it, a
    /// probe table doubling included: the store a budget-cut sweep
    /// reports never reads more than its budget, serial or threaded.
    #[test]
    fn a_bytes_budgeted_sweep_never_reports_store_bytes_above_its_budget() {
        use ccr_core::refine::{refine, RefineOptions};
        use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
        for (name, n) in [("migratory", 4), ("invalidate", 3)] {
            let path = format!("{}/../../specs/{name}.ccp", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).expect("read spec");
            let spec = ccr_core::text::parse_validated(&text).expect("parses");
            let refined = refine(&spec, &RefineOptions::default()).expect("refines");
            let sys = AsyncSystem::new(&refined, n, AsyncConfig::default());
            for kib in [2usize, 16, 40, 100, 256, 600] {
                let budget = Budget::bytes(kib << 10);
                for threads in [0usize, 2] {
                    let mut null = NullSink;
                    let mut obs = SearchObserver::new(&mut null);
                    let search = Search { threads, ..Search::default() };
                    let r = search.explore(&sys, &budget, None, &mut obs);
                    if kib <= 100 {
                        assert_eq!(r.outcome, Outcome::Unfinished, "{name} {kib} KiB t={threads}");
                    }
                    assert!(
                        r.store_bytes <= budget.max_bytes,
                        "{name} n={n}, {kib} KiB, t={threads}: {} bytes after {} states",
                        r.store_bytes,
                        r.states
                    );
                }
            }
        }
    }

    #[test]
    fn invariant_violation_is_reported() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 2);
        let v = spec.remote.state_by_name("V").unwrap();
        let r = explore(
            &sys,
            &Budget::default(),
            |s| {
                // Claim (falsely) that nobody ever reaches V.
                if s.remotes.iter().any(|r| r.state == v) {
                    Some("a remote reached V".into())
                } else {
                    None
                }
            },
            false,
        );
        assert!(matches!(r.outcome, Outcome::InvariantViolated(_)));
    }

    #[test]
    fn deadlock_detection_on_halting_spec() {
        // A spec whose remote halts after one message: home keeps waiting
        // but remote has a terminal-ish self-loop... we instead build a true
        // deadlock: remote waits for a message home never sends.
        let mut b = ProtocolBuilder::new("dead");
        let m = b.msg("m");
        let never = b.msg("never");
        let h = b.home_state("H");
        b.home(h).recv_any(m).goto(h);
        let r0 = b.remote_state("R0");
        let r1 = b.remote_state("R1");
        b.remote(r0).send(m).goto(r1);
        b.remote(r1).recv(never).goto(r0);
        let spec = b.finish().unwrap();
        let sys = RendezvousSystem::new(&spec, 1);
        let r = explore(&sys, &Budget::default(), |_| None, true);
        assert_eq!(r.outcome, Outcome::Deadlock);
    }

    #[test]
    fn dfs_and_bfs_agree_on_the_reachable_set() {
        let spec = token_spec();
        for n in [1u32, 2, 3] {
            let sys = RendezvousSystem::new(&spec, n);
            let bfs = explore_plain(&sys, &Budget::default());
            let dfs = explore_dfs(&sys, &Budget::default(), |_| None, false);
            assert!(bfs.outcome.is_complete() && dfs.outcome.is_complete());
            assert_eq!(bfs.states, dfs.states, "n={n}");
            assert_eq!(bfs.transitions, dfs.transitions, "n={n}");
        }
    }

    #[test]
    fn dfs_detects_deadlock_too() {
        let mut b = ProtocolBuilder::new("dead");
        let m = b.msg("m");
        let never = b.msg("never");
        let h = b.home_state("H");
        b.home(h).recv_any(m).goto(h);
        let r0 = b.remote_state("R0");
        let r1 = b.remote_state("R1");
        b.remote(r0).send(m).goto(r1);
        b.remote(r1).recv(never).goto(r0);
        let spec = b.finish().unwrap();
        let sys = RendezvousSystem::new(&spec, 1);
        let r = explore_dfs(&sys, &Budget::default(), |_| None, true);
        assert_eq!(r.outcome, Outcome::Deadlock);
    }

    #[test]
    fn observer_emits_the_terminal_outcome_and_nothing_periodic() {
        use ccr_trace::{RingSink, TraceEvent};
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 3);
        let mut sink = RingSink::new(256);
        let mut obs = SearchObserver::for_phase(&mut sink, &Telemetry::off(), "explore");
        let r = Search::default().explore(&sys, &Budget::default(), None, &mut obs);
        assert!(r.outcome.is_complete());
        let events = sink.into_events();
        assert!(matches!(
            &events[..],
            [TraceEvent::Outcome { outcome, .. }] if outcome == "Complete"
        ));
    }

    #[test]
    fn disabled_sink_silences_the_observer() {
        use ccr_trace::NullSink;
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 2);
        let mut null = NullSink;
        let mut obs = SearchObserver::new(&mut null);
        let r = Search::default().explore(&sys, &Budget::default(), None, &mut obs);
        assert!(r.outcome.is_complete());
    }

    fn persist_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ccr-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A persisted exploration of `sys` into `root` on `threads` workers.
    fn explore_persisted(
        sys: &RendezvousSystem<'_>,
        budget: &Budget,
        root: &Path,
        opts: &PersistOpts,
        threads: usize,
    ) -> SearchReport {
        let mut null = NullSink;
        let mut obs = SearchObserver::new(&mut null);
        Search { threads, persist: Some((root, opts)), ..Search::default() }
            .explore(sys, budget, None, &mut obs)
    }

    /// `search` over `sys`, unobserved, with its wall time zeroed so
    /// reports compare whole.
    fn explore_timeless<T>(sys: &T, search: Search<'_>, budget: &Budget) -> SearchReport
    where
        T: TransitionSystem + Sync,
        T::State: Send,
    {
        let mut null = NullSink;
        let mut obs = SearchObserver::new(&mut null);
        let report = search.explore(sys, budget, None, &mut obs);
        SearchReport { elapsed: Duration::ZERO, ..report }
    }

    #[test]
    fn persisted_run_matches_in_memory_run() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 4);
        let plain = explore_plain(&sys, &Budget::default());
        // Log-only (no eviction), then a spilling run (an eviction
        // threshold of a few of its dozen tuples); both checkpoint every
        // expansion, without threads and with.
        for (tag, evict_at, threads) in
            [("basic", 0usize, 0usize), ("spill", 8, 0), ("basic-2t", 0, 2), ("spill-2t", 8, 2)]
        {
            let dir = persist_dir(tag);
            let opts = PersistOpts { interval: Duration::ZERO, evict_at, ..PersistOpts::default() };
            let r = explore_persisted(&sys, &Budget::default(), &dir, &opts, threads);
            assert_eq!(
                (r.states, r.transitions, &r.outcome, r.restored),
                (plain.states, plain.transitions, &plain.outcome, false),
                "{tag}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn finished_manifest_restores_the_report() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 3);
        let plain = explore_plain(&sys, &Budget::default());
        let dir = persist_dir("serial-finished");
        let opts = PersistOpts { interval: Duration::ZERO, ..PersistOpts::default() };
        let r = explore_persisted(&sys, &Budget::default(), &dir, &opts, 0);
        assert!(r.outcome.is_complete() && !r.restored);
        // Resuming a finished phase searches nothing: the report is
        // restored from the terminal manifest with the identical counts.
        let opts = PersistOpts { resume: true, ..opts };
        let restored = explore_persisted(&sys, &Budget::default(), &dir, &opts, 2);
        assert!(restored.restored);
        assert_eq!(restored.states, plain.states);
        assert_eq!(restored.transitions, plain.transitions);
        assert!(restored.outcome.is_complete());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unopenable_directory_is_a_persist_failure() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 2);
        let dir = persist_dir("serial-corrupt");
        let opts = PersistOpts { interval: Duration::ZERO, ..PersistOpts::default() };
        explore_persisted(&sys, &Budget::default(), &dir, &opts, 0);
        std::fs::write(dir.join("manifest.json"), "{broken").unwrap();
        let opts = PersistOpts { resume: true, ..opts };
        let r = explore_persisted(&sys, &Budget::default(), &dir, &opts, 0);
        assert!(
            matches!(&r.outcome, Outcome::PersistFailure(d) if d.contains("corrupt manifest")),
            "{:?}",
            r.outcome
        );
        assert_eq!((r.states, r.restored), (0, false));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_mid_run_checkpoint_reproduces_counts() {
        /// The leg that "crashes": stops under a state budget and is
        /// never concluded.
        fn first_leg<'s>(
            sys: &RendezvousSystem<'s>,
            states: usize,
            src: impl Source<RendezvousSystem<'s>>,
            p: &mut SerialPersist,
        ) {
            let mut null = NullSink;
            let mut obs = SearchObserver::new(&mut null);
            let mut checker = Explore { invariant: Some(|_: &_| None), check_deadlock: false };
            let truncated =
                drive(sys, &Budget::states(states), &mut checker, src, &mut obs, Some(p));
            assert_eq!(truncated.outcome, Outcome::Unfinished);
        }
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 4);
        let plain = explore_plain(&sys, &Budget::default());
        // A checkpoint is the same at every thread count, serial
        // included, so any leg resumes any other.
        for (crash_threads, resume_threads, evict_at) in
            [(0usize, 0usize, 0usize), (0, 0, 8), (0, 2, 0), (4, 0, 8), (2, 4, 0)]
        {
            let tag = format!("resume-{crash_threads}-{resume_threads}-{evict_at}");
            let dir = persist_dir(&tag);
            // First leg: checkpoint every expansion, abandon mid-run via a
            // state budget (the checkpoint written before the budget hit
            // plays the role of the last pre-crash checkpoint).
            let opts = PersistOpts { interval: Duration::ZERO, evict_at, ..PersistOpts::default() };
            let SerialPersistOpen::Run(mut p) = SerialPersist::open(&dir, &opts).expect("open")
            else {
                panic!("unexpected finished manifest");
            };
            let half = plain.states / 2;
            if crash_threads == 0 {
                first_leg(&sys, half, Inline::new(&sys, false), &mut p);
            } else {
                feed(&sys, crash_threads, 0, None, &Telemetry::off(), |src| {
                    first_leg(&sys, half, src, &mut p)
                });
            }
            // Simulate the crash: drop without concluding (the terminal
            // manifest is never written; the log keeps an unflushed tail).
            drop(p);

            // Second leg: resume and finish.
            let opts = PersistOpts { resume: true, ..opts };
            let r = explore_persisted(&sys, &Budget::default(), &dir, &opts, resume_threads);
            assert_eq!(
                (r.states, r.transitions, &r.outcome),
                (plain.states, plain.transitions, &plain.outcome),
                "{tag}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn threads_do_not_change_where_a_search_stops() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 4);
        let traced = Search { trails: true, ..Search::default() };
        // A violated initial state: one state stored, an empty trail.
        for threads in [0usize, 2] {
            let mut null = NullSink;
            let mut obs = SearchObserver::new(&mut null);
            let r = Search { threads, ..traced }.explore(
                &sys,
                &Budget::default(),
                Some(&|_| Some("always".into())),
                &mut obs,
            );
            assert!(matches!(r.outcome, Outcome::InvariantViolated(_)), "t={threads}");
            assert_eq!((r.states, r.trail.as_deref()), (1, Some(&[][..])), "t={threads}");
        }
        // Budgets stop at exactly the state (or byte) the serial run
        // stops at, not at the end of whatever the workers got to.
        let full = explore_plain(&sys, &Budget::default()).states;
        for budget in [Budget::states(3), Budget::states(full / 2), Budget::bytes(64)] {
            let serial = explore_timeless(&sys, traced, &budget);
            assert_eq!(serial.outcome, Outcome::Unfinished);
            for threads in [1usize, 2, 4] {
                let fed = explore_timeless(&sys, Search { threads, ..traced }, &budget);
                assert_eq!(fed, serial, "{budget:?} t={threads}");
            }
        }
    }

    /// A ring of `n` counters, each stepping one or two places on, where
    /// expanding `bad` fails — with a runtime error once its successors
    /// are out, or by panicking.
    struct Ring {
        n: u32,
        bad: u32,
        panics: bool,
    }

    impl TransitionSystem for Ring {
        type State = u32;

        fn initial(&self) -> u32 {
            0
        }

        fn for_each_successor_in(
            &self,
            s: &u32,
            scratch: &mut u32,
            wanted: impl Fn(usize) -> bool,
            mut visit: impl FnMut(usize, Label, &u32, Written) -> ControlFlow<()>,
        ) -> ccr_runtime::Result<()> {
            use ccr_core::ids::ProcessId;
            if !wanted(0) {
                return Ok(());
            }
            let label = Label::new(ProcessId::Home, ccr_runtime::LabelKind::Tau, "step");
            for step in [1, 2] {
                *scratch = (s + step) % self.n;
                let flow = visit(0, label.clone(), scratch, Written::ALL);
                *scratch = *s;
                if flow.is_break() {
                    return Ok(());
                }
            }
            if *s == self.bad {
                assert!(!self.panics, "the marked state was expanded");
                return Err(RuntimeError::BadState { who: ProcessId::Home });
            }
            Ok(())
        }

        fn encode_into(&self, s: &u32, _: Option<Origin<'_, u32>>, out: &mut impl Sink) {
            out.put_all(&s.to_le_bytes());
        }

        fn restore_into(&self, bytes: &[u8], into: &mut u32) -> bool {
            bytes.try_into().map(|b| *into = u32::from_le_bytes(b)).is_ok()
        }

        fn msg_name(&self, m: ccr_core::ids::MsgType) -> String {
            m.to_string()
        }
    }

    #[test]
    fn a_runtime_failure_on_a_worker_is_reported_as_the_serial_one() {
        // Far enough in that several chunks are in flight when it is hit.
        let sys = Ring { n: 20_000, bad: 9_001, panics: false };
        let traced = Search { trails: true, ..Search::default() };
        let serial = explore_timeless(&sys, traced, &Budget::default());
        assert!(matches!(serial.outcome, Outcome::RuntimeFailure(_)), "{:?}", serial.outcome);
        assert!(serial.trail.as_ref().is_some_and(|t| !t.is_empty()));
        // What the failing expansion generated before it failed has been
        // through the sweep — stored and counted — at every thread count.
        assert_eq!(serial.transitions, 2 * (sys.bad as usize + 1));
        assert_eq!(serial.states, sys.bad as usize + 3);
        for threads in [1usize, 2, 4] {
            let fed = explore_timeless(&sys, Search { threads, ..traced }, &Budget::default());
            assert_eq!(fed, serial, "t={threads}");
        }
    }

    #[test]
    fn a_worker_panic_is_a_panic_of_the_search_not_a_hang() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let search = std::panic::catch_unwind(|| {
                let sys = Ring { n: 20_000, bad: 9_001, panics: true };
                explore_timeless(
                    &sys,
                    Search { threads: 2, ..Search::default() },
                    &Budget::default(),
                )
            });
            let _ = tx.send(search.is_err());
        });
        // With in-order merging the sweep waits for exactly the chunk the
        // dead worker held; it must be woken, not left to time out.
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(60)),
            Ok(true),
            "the search must panic with its worker, within the deadline"
        );
    }

    #[test]
    fn state_counts_grow_with_n() {
        let spec = token_spec();
        let mut last = 0;
        for n in [1u32, 2, 4] {
            let sys = RendezvousSystem::new(&spec, n);
            let r = explore_plain(&sys, &Budget::default());
            assert!(r.outcome.is_complete());
            assert!(r.states > last, "n={n}: {} not > {last}", r.states);
            last = r.states;
        }
    }
}
