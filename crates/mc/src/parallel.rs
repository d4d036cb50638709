//! Parallel sharded state-space exploration.
//!
//! [`crate::search::Search::explore`] with `threads > 0` runs this engine:
//! it partitions encoded states by hash across `S` shards, each a lock stripe owning its slice of the visited set (the
//! arena-backed [`StateStore`]) plus its own frontier queue. `T` worker
//! threads (spawned with `std::thread::scope` — no detached threads, no
//! unsafe) each own the shards `s` with `s % T == w` and exchange
//! cross-shard successors through batched queues (the vendored
//! `crossbeam::queue::SegQueue`). Each worker locks its own stripes once
//! for the whole run — stripes are strictly owner-accessed while workers
//! are live — so the hot path is plain `&mut` access, with shared
//! atomics touched once per batch, not per state.
//!
//! # Determinism
//!
//! The search is **level-synchronized**: all states at BFS depth `d` are
//! expanded before any state at depth `d + 1`. Level boundaries are
//! detected *asynchronously* — the last worker to finish a level waits
//! for message quiescence (per-worker sent/received batch counters) and
//! publishes the global decision through an epoch counter, while every
//! other worker keeps draining its inbox instead of parking at a
//! barrier. Because a complete
//! exploration visits the same reachable set in any order, `states`,
//! `transitions` and the outcome are *byte-identical across thread
//! counts*:
//!
//! * **Complete** runs report exactly the counts of the serial
//!   [`crate::search::explore`].
//! * **Violating** runs (invariant violation, deadlock, runtime failure)
//!   finish the level in which the first violation surfaced, then report
//!   the violation at minimal `(depth, encoded-state, kind)` order — a
//!   deterministic choice whatever the thread interleaving. The counts
//!   cover every fully expanded level and are therefore identical across
//!   thread counts, though they can exceed the serial engine's
//!   early-exit counts (the serial BFS stops mid-level).
//! * **Unfinished** runs stop at the end of the level during which the
//!   state or byte budget was crossed (deterministic; overshoot is
//!   bounded by one level). Only the wall-clock budget (and a 2× state
//!   safety valve) aborts mid-level, which is inherently
//!   timing-dependent — exactly as in the serial engine.
//!
//! With [`ParallelConfig::track_trails`] the engine keeps one parent
//! pointer and label per state; a violating run then carries a shortest
//! (minimal-depth) counterexample trail that replays under
//! [`crate::trace::replay_trail`].

use crate::persist::{
    CrashSwitch, LockGuard, LogTier, Manifest, ManifestWriter, PResult, PersistError, PhaseDir,
};
use crate::report::{Outcome, SearchReport};
use crate::search::{Budget, PersistOpen, PersistOpts, SearchObserver};
use crate::store::{hash_encoded, StateStore};
use ccr_core::ids::ProcessId;
use ccr_metrics::profile::{Profiler, SpanKind};
use ccr_metrics::timeseries::SampleInput;
use ccr_metrics::Registry;
use ccr_runtime::{Label, LabelKind, TransitionSystem};
use crossbeam::queue::SegQueue;
use std::path::Path;
use std::sync::atomic::{
    AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering::AcqRel, Ordering::Acquire,
    Ordering::Relaxed, Ordering::Release, Ordering::SeqCst,
};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Tuning knobs of the parallel engine. [`crate::search::Search`] sets
/// `threads`, `track_trails` and `stall_ms` and leaves the rest at their
/// defaults.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Worker threads (≥ 1). 1 runs the same sharded algorithm on a
    /// single worker, which is useful for equivalence testing.
    pub threads: usize,
    /// Shard count (rounded up to a power of two ≥ `threads`). More
    /// shards mean finer lock striping and better balance; 64 is plenty
    /// up to 16 threads.
    pub shards: usize,
    /// Keep a parent pointer + label per state so violating runs carry a
    /// replayable counterexample trail. Costs one `Label` per stored
    /// state.
    pub track_trails: bool,
    /// Cross-worker successor batch size.
    pub batch: usize,
    /// Fault-injection hook: each worker sleeps this many milliseconds
    /// once before its first expansion. 0 (the default) is a no-op; CI
    /// uses it to provoke the stall watchdog on purpose.
    pub stall_ms: u64,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self { threads: 1, shards: 64, track_trails: false, batch: 256, stall_ms: 0 }
    }
}

impl ParallelConfig {
    /// A config with `threads` workers and default everything else.
    pub fn threads(threads: usize) -> Self {
        Self { threads: threads.max(1), ..Self::default() }
    }

    /// Enables counterexample trails.
    pub fn with_trails(mut self) -> Self {
        self.track_trails = true;
        self
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.max(self.threads).max(1).next_power_of_two()
    }
}

/// What [`explore_parallel_traced_observed`] returns: the one report
/// type under the name `benchmark/src/layers.rs` knows it by.
#[doc(hidden)]
pub type ParallelReport = SearchReport;

/// Packed state reference: shard in the high 32 bits, dense in-shard
/// index in the low 32.
pub(crate) fn pack(shard: usize, idx: u32) -> u64 {
    ((shard as u64) << 32) | u64::from(idx)
}

pub(crate) fn unpack(r: u64) -> (usize, u32) {
    ((r >> 32) as usize, r as u32)
}

/// Sentinel parent reference of the initial state.
pub(crate) const ROOT: u64 = u64::MAX;

pub(crate) const FLAG_HAS_SUCC: u8 = 1;
pub(crate) const FLAG_PROGRESS: u8 = 2;
pub(crate) const FLAG_EXPANDED: u8 = 4;

/// Per-shard data behind one lock stripe.
pub(crate) struct ShardData<St> {
    pub(crate) store: StateStore,
    /// Dense index → BFS depth.
    pub(crate) depth: Vec<u32>,
    /// Dense index → parent reference (trails mode).
    pub(crate) parents: Vec<u64>,
    /// Dense index → incoming label (trails mode).
    pub(crate) labels: Vec<Label>,
    /// Dense index → `FLAG_*` bits (progress mode).
    pub(crate) flags: Vec<u8>,
    /// Frontier: states at the level being expanded.
    cur: Vec<(St, u32)>,
    /// Frontier: states discovered for the next level.
    next: Vec<(St, u32)>,
    /// Frontier: states discovered *two* levels out. With asynchronous
    /// termination detection a fast worker can already be expanding
    /// level `d + 1` (shipping `d + 2` successors) while this shard's
    /// owner is still draining its level-`d` wind-down; routing those
    /// early arrivals by depth keeps the level discipline exact. Senders
    /// can never run more than one level ahead (the next decision waits
    /// for this worker's arrival), so two out-queues suffice.
    nextnext: Vec<(St, u32)>,
}

impl<St> ShardData<St> {
    fn new() -> Self {
        Self {
            store: StateStore::new(),
            depth: Vec::new(),
            parents: Vec::new(),
            labels: Vec::new(),
            flags: Vec::new(),
            cur: Vec::new(),
            next: Vec::new(),
            nextnext: Vec::new(),
        }
    }
}

/// One cross-shard successor candidate. The encoded bytes live in the
/// carrying [`Batch`]'s arena (`enc_start..enc_end`) so the receiver
/// never re-encodes.
struct Item<St> {
    hash: u64,
    depth: u32,
    src: u64,
    label: Option<Label>,
    state: St,
    enc_start: u32,
    enc_end: u32,
}

/// A batch of cross-shard candidates plus one shared byte arena for
/// their encodings: two allocations per `batch` states, not two per
/// state.
struct Batch<St> {
    items: Vec<Item<St>>,
    bytes: Vec<u8>,
}

impl<St> Batch<St> {
    fn with_capacity(n: usize) -> Self {
        Self { items: Vec::with_capacity(n), bytes: Vec::new() }
    }
}

/// Per-worker counters on their own cache line, written only by the
/// owning worker (batched, relaxed) and summed by readers (the
/// per-level decision, heartbeats, the final report) — no line all
/// workers fight over.
#[repr(align(64))]
#[derive(Default)]
struct Counters {
    states: AtomicUsize,
    transitions: AtomicUsize,
    /// States discovered for the level being built (reset by `decide`).
    next: AtomicUsize,
    /// Monotone: states ever enqueued on a frontier.
    frontier_in: AtomicUsize,
    /// Monotone: frontier states expanded.
    frontier_out: AtomicUsize,
    /// Absolute byte footprint of this worker's shard stores, published
    /// once per level boundary (not a per-insert delta — keeping the
    /// running tally off the per-successor path).
    bytes: AtomicUsize,
    /// Monotone: cross-worker batches this worker has shipped. Final by
    /// the time the worker arrives at the level boundary — termination
    /// detection sums these once per level.
    sent: AtomicU64,
    /// Monotone: cross-worker batches this worker has fully consumed
    /// (items inserted *and* local tallies flushed before the bump, so a
    /// quiescent `recv == sent` proves the decider sees exact totals).
    recv: AtomicU64,
}

/// Worker-private tallies, flushed into the shared [`Counters`] cell at
/// batch granularity (every drained batch, every 1024 expansions, and at
/// each level boundary) so the per-item hot path touches no shared
/// memory at all. The level decision runs only after every worker has
/// arrived and every batch has been consumed — the arrival and `recv`
/// bumps order every flush before every read.
#[derive(Default)]
struct LocalCounts {
    states: usize,
    transitions: usize,
    next: usize,
    frontier_in: usize,
    frontier_out: usize,
}

/// A violation observed during the sweep; the engine finishes the level,
/// then the minimal one (by `(depth, encoded state, kind)`) wins.
struct Violation {
    depth: u32,
    enc: Vec<u8>,
    rank: u8,
    outcome: Outcome,
    /// Reference of the state the trail should lead to.
    state_ref: u64,
}

const DECIDE_CONTINUE: u8 = 0;
const DECIDE_STOP: u8 = 1;

/// The spin → yield → sleep wait ladder shared by every engine wait
/// loop: stragglers get the core on oversubscribed hosts instead of
/// fighting our spin.
fn backoff(idle: u32) {
    if idle < 16 {
        std::hint::spin_loop();
    } else if idle < 64 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// Pre-created metric handles so the worker paths that record (batch
/// flush/drain, the per-level decision) touch only the atomic cells —
/// never the registry's name map — and compile to a single branch on a
/// null registry.
struct EngineMetrics {
    /// Cross-worker successor batches pushed (timing-dependent).
    batches_flushed: ccr_metrics::Counter,
    /// Cross-worker successor batches consumed (timing-dependent).
    batches_drained: ccr_metrics::Counter,
    /// States per fully built BFS level (deterministic: the search is
    /// level-synchronized).
    level_frontier: ccr_metrics::Histogram,
}

impl EngineMetrics {
    fn new(reg: &Registry) -> Self {
        Self {
            batches_flushed: reg
                .counter_nondet("mc_batches_flushed_total", "Cross-worker successor batches sent"),
            batches_drained: reg.counter_nondet(
                "mc_batches_drained_total",
                "Cross-worker successor batches consumed",
            ),
            level_frontier: reg.histogram(
                "mc_level_frontier",
                "States discovered per BFS level",
                crate::search::LEVEL_FRONTIER_BOUNDS,
            ),
        }
    }
}

/// Everything the workers share by reference.
pub(crate) struct Engine<'e, T: TransitionSystem, F, G> {
    sys: &'e T,
    budget: &'e Budget,
    invariant: &'e F,
    is_progress: Option<&'e G>,
    check_deadlock: bool,
    cfg: &'e ParallelConfig,
    n_shards: usize,
    pub(crate) stripes: Vec<Mutex<ShardData<T::State>>>,
    inboxes: Vec<SegQueue<Batch<T::State>>>,
    pub(crate) started: Instant,
    // Asynchronous termination detection (no barriers): workers arriving
    // at a level boundary bump `arrivals`; the last one becomes the
    // level's *decider*, waits for message quiescence (every shipped
    // batch consumed, per the `Counters::sent`/`recv` sums), takes the
    // global decision and publishes it by bumping `epoch`. Everyone else
    // keeps draining their inbox until they observe the bump.
    arrivals: AtomicUsize,
    epoch: AtomicUsize,
    /// Per-shard `(owner, local stripe index)` routing table. One L1-hot
    /// load on the per-successor path instead of two integer divisions
    /// (`shard % threads`, `shard / threads`).
    route: Vec<(u32, u32)>,
    /// Checkpoint rendezvous: workers that have synced their shards and
    /// published cursors count themselves in; the decider writes the
    /// manifest once all have, then bumps `epoch` a second time.
    ckpt_done: AtomicUsize,
    counters: Vec<Counters>,
    pub(crate) peak_frontier: AtomicUsize,
    pub(crate) level: AtomicUsize,
    decision: AtomicU8,
    stop_mid_level: AtomicBool,
    finished: AtomicBool,
    /// Completion signal for the pump thread: `decide` flips the flag and
    /// notifies, so [`run`] returns as soon as the last level ends instead
    /// of sleeping out a poll quantum (which used to bill up to 100 ms of
    /// dead wait to every parallel measurement).
    finish_mutex: Mutex<bool>,
    finish_cv: Condvar,
    violations: Mutex<Vec<Violation>>,
    pub(crate) budget_hit: AtomicBool,
    metrics: EngineMetrics,
    profiler: Profiler,
    /// Checkpointing state shared by the workers; `None` runs the engine
    /// purely in memory.
    persist: Option<&'e EnginePersist>,
    /// Whether the frontier and counters were restored from a manifest
    /// (set by [`Engine::attach_persist`]); a resumed run skips seeding
    /// and never tracks trails — the recovered states carry no parent
    /// pointers.
    resumed: bool,
}

impl<'e, T, F, G> Engine<'e, T, F, G>
where
    T: TransitionSystem + Sync,
    T::State: Send,
    F: Fn(&T::State) -> Option<String> + Sync,
    G: Fn(&Label) -> bool + Sync,
{
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        sys: &'e T,
        budget: &'e Budget,
        invariant: &'e F,
        is_progress: Option<&'e G>,
        check_deadlock: bool,
        cfg: &'e ParallelConfig,
        reg: &Registry,
        prof: &Profiler,
    ) -> Self {
        let n_shards = cfg.shard_count();
        let threads = cfg.threads.max(1);
        Self {
            sys,
            budget,
            invariant,
            is_progress,
            check_deadlock,
            cfg,
            n_shards,
            stripes: (0..n_shards).map(|_| Mutex::new(ShardData::new())).collect(),
            inboxes: (0..threads).map(|_| SegQueue::new()).collect(),
            started: Instant::now(),
            arrivals: AtomicUsize::new(0),
            epoch: AtomicUsize::new(0),
            route: (0..n_shards).map(|s| ((s % threads) as u32, (s / threads) as u32)).collect(),
            ckpt_done: AtomicUsize::new(0),
            counters: (0..threads).map(|_| Counters::default()).collect(),
            peak_frontier: AtomicUsize::new(0),
            level: AtomicUsize::new(0),
            decision: AtomicU8::new(DECIDE_CONTINUE),
            stop_mid_level: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            finish_mutex: Mutex::new(false),
            finish_cv: Condvar::new(),
            violations: Mutex::new(Vec::new()),
            budget_hit: AtomicBool::new(false),
            metrics: EngineMetrics::new(reg),
            profiler: prof.clone(),
            persist: None,
            resumed: false,
        }
    }

    fn shard_of(&self, hash: u64) -> usize {
        ((hash >> 48) as usize) & (self.n_shards - 1)
    }

    fn owner_of(&self, shard: usize) -> usize {
        shard % self.cfg.threads.max(1)
    }

    fn track_trails(&self) -> bool {
        (self.cfg.track_trails && !self.resumed) || self.is_progress.is_some()
    }

    pub(crate) fn states_total(&self) -> usize {
        self.counters.iter().map(|c| c.states.load(Relaxed)).sum()
    }

    pub(crate) fn transitions_total(&self) -> usize {
        self.counters.iter().map(|c| c.transitions.load(Relaxed)).sum()
    }

    fn bytes_total(&self) -> usize {
        self.counters.iter().map(|c| c.bytes.load(Relaxed)).sum()
    }

    fn frontier_len(&self) -> usize {
        let inn: usize = self.counters.iter().map(|c| c.frontier_in.load(Relaxed)).sum();
        let out: usize = self.counters.iter().map(|c| c.frontier_out.load(Relaxed)).sum();
        inn.saturating_sub(out)
    }

    fn record_violation(&self, v: Violation) {
        self.violations.lock().expect("violations").push(v);
    }

    /// Inserts a candidate into `sh`, its (already locked) shard stripe.
    /// The invariant runs on newly inserted states; violations are
    /// recorded and the level is finished, never expanded past.
    /// `expected` is the owner's next-level depth: candidates one level
    /// beyond it (early arrivals from a worker already expanding the
    /// next level) are queued in `nextnext` instead of `next`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn insert(
        &self,
        sh: &mut ShardData<T::State>,
        shard: usize,
        hash: u64,
        enc: &[u8],
        state: T::State,
        depth: u32,
        expected: u32,
        src: u64,
        label: Option<Label>,
        edges: &mut Vec<(u64, u64)>,
        local: &mut LocalCounts,
    ) {
        let (idx, is_new) = sh.store.insert_hashed_depth(hash, enc, depth);
        if is_new {
            self.record_new(sh, shard, idx, enc, state, depth, expected, src, label, local);
        }
        if self.is_progress.is_some() {
            edges.push((pack(shard, idx), src));
        }
    }

    /// Bookkeeping for a *newly inserted* state: depth/trail/flag rows,
    /// counters, invariant, and frontier routing. Split from the
    /// duplicate probe so the hot path moves `state` across a call
    /// boundary only for the minority of candidates that are actually
    /// new.
    #[allow(clippy::too_many_arguments)]
    fn record_new(
        &self,
        sh: &mut ShardData<T::State>,
        shard: usize,
        idx: u32,
        enc: &[u8],
        state: T::State,
        depth: u32,
        expected: u32,
        src: u64,
        label: Option<Label>,
        local: &mut LocalCounts,
    ) {
        if let Some(p) = self.persist {
            p.crash.tick();
        }
        sh.depth.push(depth);
        if self.track_trails() {
            sh.parents.push(src);
            sh.labels
                .push(label.unwrap_or_else(|| Label::new(ProcessId::Home, LabelKind::Tau, "?")));
        }
        if self.is_progress.is_some() {
            sh.flags.push(0);
        }
        local.states += 1;
        local.next += 1;
        local.frontier_in += 1;
        if let Some(desc) = (self.invariant)(&state) {
            self.record_violation(Violation {
                depth,
                enc: enc.to_vec(),
                rank: 0,
                outcome: Outcome::InvariantViolated(desc),
                state_ref: pack(shard, idx),
            });
        }
        debug_assert!(depth == expected || depth == expected + 1);
        if depth > expected {
            sh.nextnext.push((state, idx));
        } else {
            sh.next.push((state, idx));
        }
    }

    /// Drains one batch from `w`'s inbox, if any. `guards` are the
    /// worker's held stripes (position `s / threads` for shard `s`).
    /// Returns the number of items processed (0: no batch was pending;
    /// flushed batches are never empty).
    ///
    /// Fully consuming a batch — inserts done, local tallies flushed —
    /// is published by a `Release` bump of the worker's `recv` counter,
    /// so a decider that observes `recv == sent` (`Acquire`) sees every
    /// insertion and every count the batch produced.
    fn drain_one(
        &self,
        w: usize,
        expected: u32,
        guards: &mut [MutexGuard<'_, ShardData<T::State>>],
        edges: &mut Vec<(u64, u64)>,
        local: &mut LocalCounts,
        timer: &mut ccr_metrics::profile::SpanTimer,
    ) -> usize {
        let Some(batch) = self.inboxes[w].pop() else {
            return 0;
        };
        timer.lap(SpanKind::Drain, 1);
        let n_items = batch.items.len();
        for item in batch.items {
            let shard = self.shard_of(item.hash);
            let (owner, li) = self.route[shard];
            debug_assert_eq!(owner as usize, w);
            let enc = &batch.bytes[item.enc_start as usize..item.enc_end as usize];
            self.insert(
                &mut guards[li as usize],
                shard,
                item.hash,
                enc,
                item.state,
                item.depth,
                expected,
                item.src,
                item.label,
                edges,
                local,
            );
        }
        timer.lap(SpanKind::Insert, n_items as u64);
        self.flush_counts(w, local);
        self.counters[w].recv.fetch_add(1, Release);
        self.metrics.batches_drained.inc();
        n_items
    }

    /// Publishes worker-private tallies into the worker's shared cell.
    fn flush_counts(&self, w: usize, local: &mut LocalCounts) {
        let c = &self.counters[w];
        c.states.fetch_add(local.states, Relaxed);
        c.transitions.fetch_add(local.transitions, Relaxed);
        c.next.fetch_add(local.next, Relaxed);
        c.frontier_in.fetch_add(local.frontier_in, Relaxed);
        c.frontier_out.fetch_add(local.frontier_out, Relaxed);
        *local = LocalCounts::default();
    }

    /// Ships worker `w`'s non-empty outbox to `dest`'s inbox. Returns
    /// whether a batch was actually sent.
    fn flush(&self, w: usize, dest: usize, outbox: &mut Batch<T::State>) -> bool {
        if outbox.items.is_empty() {
            return false;
        }
        // Relaxed suffices: the decider only reads `sent` totals after
        // every worker's level arrival, whose `AcqRel` bump of
        // `arrivals` orders all earlier sends before the read.
        self.counters[w].sent.fetch_add(1, Relaxed);
        self.metrics.batches_flushed.inc();
        self.inboxes[dest].push(Batch {
            items: std::mem::take(&mut outbox.items),
            bytes: std::mem::take(&mut outbox.bytes),
        });
        true
    }

    /// Mid-level abort checks: wall clock, and a safety valve for levels
    /// that blow far past the state budget.
    fn check_mid_level_abort(&self) {
        let timed_out = self.budget.max_time.map(|t| self.started.elapsed() >= t).unwrap_or(false);
        let blown = self.states_total() >= self.budget.max_states.saturating_mul(2);
        if timed_out || blown {
            self.stop_mid_level.store(true, SeqCst);
            self.budget_hit.store(true, SeqCst);
        }
    }

    /// The worker body: expand, exchange, synchronize — once per level
    /// until the leader decides to stop. Returns the worker's edge list
    /// (progress mode; empty otherwise).
    fn worker(&self, w: usize) -> Vec<(u64, u64)> {
        let threads = self.cfg.threads.max(1);
        let trails = self.track_trails();
        let owned: Vec<usize> = (0..self.n_shards).filter(|s| self.owner_of(*s) == w).collect();
        // Hold every owned stripe for the worker's whole lifetime.
        // Stripes are strictly owner-accessed while workers are live
        // (seeding happens before the scope, trail reconstruction and
        // the progress sweep after it), so the locks exist to satisfy
        // the type system, not to arbitrate — taking them once turns
        // every insert into a plain `&mut` field access. Shard `s` sits
        // at `guards[s / threads]` because `owned` ascends in steps of
        // `threads` from `w`.
        let mut guards: Vec<MutexGuard<'_, ShardData<T::State>>> =
            owned.iter().map(|&s| self.stripes[s].lock().expect("stripe")).collect();
        let mut local = LocalCounts::default();
        let mut enc: Vec<u8> = Vec::new();
        let mut succs: Vec<(Label, T::State)> = Vec::new();
        let mut edges: Vec<(u64, u64)> = Vec::new();
        let mut outboxes: Vec<Batch<T::State>> =
            (0..threads).map(|_| Batch::with_capacity(self.cfg.batch)).collect();
        let mut taken: Vec<(T::State, u32)> = Vec::new();
        let mut timer = self.profiler.worker(w);
        // Zero-copy successor path: systems with an encoding bound are
        // encoded exactly once into this fixed scratch slot — hashed and
        // (for local inserts) committed straight from it, copied only
        // into the outbox when the successor belongs to another worker.
        let fast_cap = self.sys.max_encoded_len();
        let mut scratch: Vec<u8> = vec![0; fast_cap.unwrap_or(0)];
        // The worker's view of the level epoch; the decider's bump past
        // this value publishes the level decision (and, on checkpoint
        // levels, the manifest commit).
        let mut seen_epoch = 0usize;

        // Injected stall (CI watchdog exercise): park before the first
        // expansion so the pump thread sees no forward progress while
        // the run is demonstrably alive.
        if self.cfg.stall_ms > 0 {
            std::thread::sleep(Duration::from_millis(self.cfg.stall_ms));
        }

        loop {
            let depth = self.level.load(SeqCst) as u32;
            timer.set_level(depth);
            timer.mark();
            // Expand phase: all owned shards' current level.
            for (li, &s) in owned.iter().enumerate() {
                std::mem::swap(&mut taken, &mut guards[li].cur);
                let mut i = 0;
                while i < taken.len() {
                    if i & 0x3f == 0x3f {
                        // Periodic duties off the per-item path: keep the
                        // inbox short while other workers expand, check
                        // the wall clock, publish counters.
                        self.drain_one(
                            w,
                            depth + 1,
                            &mut guards,
                            &mut edges,
                            &mut local,
                            &mut timer,
                        );
                        if i & 0x3ff == 0x3ff {
                            self.flush_counts(w, &mut local);
                            self.check_mid_level_abort();
                        }
                        if self.stop_mid_level.load(SeqCst) {
                            // Wall-clock abort: put the unexpanded tail
                            // back so progress mode never judges an
                            // unexpanded state.
                            let tail: Vec<_> = taken.drain(i..).collect();
                            guards[li].cur.extend(tail);
                            break;
                        }
                    }
                    let (state, idx) = &taken[i];
                    let src = pack(s, *idx);
                    local.frontier_out += 1;
                    if let Err(e) = self.sys.successors(state, &mut succs) {
                        if self.is_progress.is_some() {
                            // Judged like the serial checker: expanded,
                            // no successors recorded.
                            guards[li].flags[*idx as usize] |= FLAG_EXPANDED;
                        }
                        self.sys.encode(state, &mut enc);
                        self.record_violation(Violation {
                            depth,
                            enc: enc.clone(),
                            rank: 2,
                            outcome: Outcome::RuntimeFailure(e),
                            state_ref: src,
                        });
                        i += 1;
                        continue;
                    }
                    timer.lap(SpanKind::Compute, 1);
                    local.transitions += succs.len();
                    if self.is_progress.is_some() {
                        let mut bits = FLAG_EXPANDED;
                        if !succs.is_empty() {
                            bits |= FLAG_HAS_SUCC;
                        }
                        if let Some(isp) = self.is_progress {
                            if succs.iter().any(|(l, _)| isp(l)) {
                                bits |= FLAG_PROGRESS;
                            }
                        }
                        guards[li].flags[*idx as usize] |= bits;
                    }
                    if self.check_deadlock && succs.is_empty() {
                        self.sys.encode(state, &mut enc);
                        self.record_violation(Violation {
                            depth,
                            enc: enc.clone(),
                            rank: 1,
                            outcome: Outcome::Deadlock,
                            state_ref: src,
                        });
                        i += 1;
                        continue;
                    }
                    let mut n_remote = 0u64;
                    for (label, next) in succs.drain(..) {
                        // Encode once: into the fixed scratch slot on the
                        // fast path, into the growable Vec otherwise.
                        let bytes: &[u8] = if fast_cap.is_some() {
                            let n = self.sys.encode_into(&next, &mut scratch);
                            &scratch[..n]
                        } else {
                            self.sys.encode(&next, &mut enc);
                            &enc
                        };
                        let hash = hash_encoded(bytes);
                        let shard = self.shard_of(hash);
                        let (dest, li) = self.route[shard];
                        let dest = dest as usize;
                        let label = trails.then_some(label);
                        if dest == w {
                            timer.lap(SpanKind::Encode, 1);
                            // Probe first: only genuinely new states pay
                            // the bookkeeping call (and the state move).
                            let sh = &mut guards[li as usize];
                            let (idx, is_new) =
                                sh.store.insert_hashed_depth(hash, bytes, depth + 1);
                            if is_new {
                                self.record_new(
                                    sh,
                                    shard,
                                    idx,
                                    bytes,
                                    next,
                                    depth + 1,
                                    depth + 1,
                                    src,
                                    label,
                                    &mut local,
                                );
                            }
                            if self.is_progress.is_some() {
                                edges.push((pack(shard, idx), src));
                            }
                            timer.lap(SpanKind::Insert, 1);
                        } else {
                            n_remote += 1;
                            let out = &mut outboxes[dest];
                            let enc_start = out.bytes.len() as u32;
                            out.bytes.extend_from_slice(bytes);
                            let enc_end = out.bytes.len() as u32;
                            out.items.push(Item {
                                hash,
                                depth: depth + 1,
                                src,
                                label,
                                state: next,
                                enc_start,
                                enc_end,
                            });
                            if out.items.len() >= self.cfg.batch {
                                // Close the encode interval first so the
                                // handoff alone is charged to `ship`.
                                timer.lap(SpanKind::Encode, n_remote);
                                n_remote = 0;
                                self.flush(w, dest, &mut outboxes[dest]);
                                timer.lap(SpanKind::Ship, 1);
                            }
                        }
                    }
                    if n_remote > 0 {
                        timer.lap(SpanKind::Encode, n_remote);
                    }
                    i += 1;
                }
                taken.clear();
            }
            let mut shipped = 0u64;
            for (dest, out) in outboxes.iter_mut().enumerate() {
                if dest != w && self.flush(w, dest, out) {
                    shipped += 1;
                }
            }
            if shipped > 0 {
                timer.lap(SpanKind::Ship, shipped);
            }
            // Publish before arriving: the decider reads totals only
            // after every worker has arrived and every batch has been
            // consumed, so it sees exact per-level counts.
            self.flush_counts(w, &mut local);
            // Byte footprint is published as an absolute once per level
            // (64 store sums, not one `approx_bytes` call per insert).
            // Late inserts drained below only grow it, so the budget
            // check reads an under- by at most one level's worth.
            let bytes: usize = guards.iter().map(|g| g.store.approx_bytes()).sum();
            self.counters[w].bytes.store(bytes, Relaxed);
            // Export sticky tier I/O errors before the decision — the
            // decider cannot read our stripes, so the shared error slot
            // is how a failed writer stops the run.
            if let Some(p) = self.persist {
                for g in guards.iter_mut() {
                    if let Some(tier) = g.store.tier_mut() {
                        if let Some(e) = tier.take_err() {
                            p.set_error(e);
                        }
                    }
                }
            }
            // Level boundary, asynchronously: the last worker to arrive
            // is the decider. All sends are final here (flushed above,
            // before the `AcqRel` arrival bump), so the level is over
            // exactly when every shipped batch has been consumed —
            // which the non-deciders keep working towards by draining
            // their inboxes while they wait for the epoch to move. Back
            // off from yielding to sleeping so stragglers get the core
            // on oversubscribed hosts instead of fighting our spin.
            let am_decider = self.arrivals.fetch_add(1, AcqRel) + 1 == threads;
            if am_decider {
                let sent: u64 = self.counters.iter().map(|c| c.sent.load(Relaxed)).sum();
                let mut idle = 0u32;
                loop {
                    if self.drain_one(w, depth + 1, &mut guards, &mut edges, &mut local, &mut timer)
                        > 0
                    {
                        idle = 0;
                        continue;
                    }
                    let recv: u64 = self.counters.iter().map(|c| c.recv.load(Acquire)).sum();
                    if recv == sent {
                        break;
                    }
                    idle += 1;
                    backoff(idle);
                }
                self.decide();
                // Reset the arrival count *before* releasing the epoch:
                // no worker starts the next level (and so can re-arrive)
                // until it observes the bump.
                self.arrivals.store(0, Relaxed);
                self.epoch.fetch_add(1, Release);
            } else {
                let mut idle = 0u32;
                while self.epoch.load(Acquire) == seen_epoch {
                    if self.drain_one(w, depth + 1, &mut guards, &mut edges, &mut local, &mut timer)
                        > 0
                    {
                        idle = 0;
                        continue;
                    }
                    idle += 1;
                    backoff(idle);
                }
            }
            seen_epoch += 1;
            if self.decision.load(SeqCst) == DECIDE_STOP {
                timer.lap(SpanKind::BarrierWait, 1);
                return edges;
            }
            for g in guards.iter_mut() {
                let sh = &mut **g;
                debug_assert!(sh.cur.is_empty());
                std::mem::swap(&mut sh.cur, &mut sh.next);
                std::mem::swap(&mut sh.next, &mut sh.nextnext);
            }
            if let Some(p) = self.persist {
                // The flag is set by the decider before the epoch bump
                // and cleared only after every worker has counted itself
                // into `ckpt_done`, so all workers agree on whether this
                // level checkpoints (and on the extra epoch bump).
                if p.ckpt_flag.load(SeqCst) {
                    timer.lap(SpanKind::BarrierWait, 0);
                    // Each worker commits its own shards: sync the log,
                    // rewrite the index, publish the committed cursor.
                    for (li, &s) in owned.iter().enumerate() {
                        if let Some(tier) = guards[li].store.tier_mut() {
                            let (bytes, records) = tier.sync();
                            tier.write_idx(&p.dir.idx(s));
                            if let Some(e) = tier.take_err() {
                                // Keep the previous committed cursor: the
                                // old prefix is still valid, the run stops
                                // at the next decision.
                                p.set_error(e);
                            } else {
                                p.committed[s].0.store(bytes, SeqCst);
                                p.committed[s].1.store(records, SeqCst);
                            }
                        }
                    }
                    timer.lap(SpanKind::Checkpoint, 1);
                    self.ckpt_done.fetch_add(1, Release);
                    if am_decider {
                        // Every shard's cursor must be published before
                        // the manifest that references them is written;
                        // nobody appends past the synced cursors until
                        // the second bump says the manifest hit disk.
                        let mut idle = 0u32;
                        while self.ckpt_done.load(Acquire) != threads {
                            idle += 1;
                            backoff(idle);
                        }
                        if let Err(e) = p.write_manifest(self.started, false, None) {
                            p.set_error(e);
                        }
                        p.ckpt_flag.store(false, SeqCst);
                        self.ckpt_done.store(0, Relaxed);
                        self.epoch.fetch_add(1, Release);
                    } else {
                        let mut idle = 0u32;
                        while self.epoch.load(Acquire) == seen_epoch {
                            idle += 1;
                            backoff(idle);
                        }
                    }
                    seen_epoch += 1;
                }
            }
            timer.lap(SpanKind::BarrierWait, 1);
        }
    }

    /// The per-level global decision, taken by the level's decider (the
    /// last worker to arrive) once the level is message-quiescent: every
    /// shipped batch consumed and every worker's tallies flushed, so the
    /// sums below are exact.
    fn decide(&self) {
        let next: usize = self.counters.iter().map(|c| c.next.swap(0, Relaxed)).sum();
        self.peak_frontier.fetch_max(next, SeqCst);
        if next > 0 {
            self.metrics.level_frontier.observe(next as u64);
        }
        let states = self.states_total();
        let bytes = self.bytes_total();
        let has_violation = !self.violations.lock().expect("violations").is_empty();
        let persist_err =
            self.persist.is_some_and(|p| p.error.lock().expect("persist error").is_some());
        let timed_out = self.budget.max_time.map(|t| self.started.elapsed() >= t).unwrap_or(false);
        let over_budget = states >= self.budget.max_states || bytes >= self.budget.max_bytes;
        let stop = if persist_err || has_violation {
            true
        } else if over_budget || timed_out || self.stop_mid_level.load(SeqCst) {
            self.budget_hit.store(true, SeqCst);
            true
        } else if next == 0 {
            true
        } else {
            let new_level = self.level.fetch_add(1, SeqCst) + 1;
            // Arm a checkpoint while every other worker is parked: the
            // counters are exact for the level boundary, and the frontier
            // the manifest will describe is exactly the states at
            // `new_level` — all inserted, none expanded.
            if let Some(p) = self.persist {
                if p.ckpt_due() {
                    *p.snapshot.lock().expect("ckpt snapshot") = CkptCounts {
                        states: states as u64,
                        transitions: self.transitions_total() as u64,
                        peak: self.peak_frontier.load(SeqCst).max(1) as u64,
                        level: new_level as u64,
                    };
                    p.ckpt_flag.store(true, SeqCst);
                }
            }
            false
        };
        self.decision.store(if stop { DECIDE_STOP } else { DECIDE_CONTINUE }, SeqCst);
        if stop {
            self.finished.store(true, SeqCst);
            *self.finish_mutex.lock().expect("finish") = true;
            self.finish_cv.notify_all();
        }
    }

    /// Seeds the initial state (mirroring the serial engine: the state is
    /// stored before its invariant runs). Returns the violation outcome
    /// when the invariant already fails there.
    fn seed(&self) -> Option<Outcome> {
        let init = self.sys.initial();
        let mut enc = Vec::new();
        self.sys.encode(&init, &mut enc);
        let hash = hash_encoded(&enc);
        let shard = self.shard_of(hash);
        {
            let mut sh = self.stripes[shard].lock().expect("stripe");
            let (idx, is_new) = sh.store.insert_hashed(hash, &enc);
            debug_assert!(is_new);
            sh.depth.push(0);
            if self.track_trails() {
                sh.parents.push(ROOT);
                sh.labels.push(Label::new(ProcessId::Home, LabelKind::Tau, "init"));
            }
            if self.is_progress.is_some() {
                sh.flags.push(0);
            }
            let b = sh.store.approx_bytes();
            sh.cur.push((init.clone(), idx));
            self.counters[0].bytes.fetch_add(b, Relaxed);
        }
        self.counters[0].states.fetch_add(1, Relaxed);
        self.counters[0].frontier_in.fetch_add(1, Relaxed);
        self.peak_frontier.fetch_max(1, SeqCst);
        self.metrics.level_frontier.observe(1);
        (self.invariant)(&init).map(Outcome::InvariantViolated)
    }

    /// Picks the winning violation: minimal `(depth, encoded state,
    /// kind)`, a total order independent of thread interleavings.
    fn winning_violation(&self) -> Option<Violation> {
        let mut vs = self.violations.lock().expect("violations");
        if vs.is_empty() {
            return None;
        }
        let best = vs
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.depth.cmp(&b.depth).then(a.enc.cmp(&b.enc)).then(a.rank.cmp(&b.rank))
            })
            .map(|(i, _)| i)
            .expect("non-empty");
        Some(vs.swap_remove(best))
    }

    /// Reconstructs the label trail to `state_ref` by walking parent
    /// pointers across shards (single-threaded; workers have exited).
    pub(crate) fn trail_to(&self, state_ref: u64) -> Vec<Label> {
        let mut labels = Vec::new();
        let mut cur = state_ref;
        while cur != ROOT {
            let (shard, idx) = unpack(cur);
            let sh = self.stripes[shard].lock().expect("stripe");
            let parent = sh.parents[idx as usize];
            if parent != ROOT {
                labels.push(sh.labels[idx as usize].clone());
            }
            cur = parent;
        }
        labels.reverse();
        labels
    }

    pub(crate) fn store_bytes(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().expect("stripe").store.approx_bytes()).sum()
    }

    /// Wires a persistence context into the engine before any worker
    /// spawns: every shard store gets its disk tier (fresh, or recovered
    /// from the committed log prefix), and on resume the frontier —
    /// every recovered state at the manifest's level — and the counters
    /// are restored so the run continues exactly where the checkpoint
    /// cut it.
    pub(crate) fn attach_persist(&mut self, p: &'e ParallelPersist) -> PResult<()> {
        let keep = p.eng.evict_per_shard == 0;
        match &p.resume {
            Some(rs) => {
                let mut frontier_total = 0usize;
                let mut bytes_total = 0usize;
                for s in 0..self.n_shards {
                    let mut guard = self.stripes[s].lock().expect("stripe");
                    let sh = &mut *guard;
                    let (bytes, records) = rs.committed[s];
                    let tier = LogTier::recover(
                        p.eng.dir.log(s),
                        &p.eng.dir.idx(s),
                        Some(bytes),
                        p.eng.evict_per_shard,
                        !keep,
                        |rec, payload| {
                            sh.store.rebuild_insert(rec.hash, payload.filter(|_| keep), rec.len);
                            sh.depth.push(rec.depth);
                        },
                    )?;
                    if tier.records() as u64 != records {
                        return Err(PersistError::new(
                            p.eng.dir.log(s),
                            format!(
                                "log holds {} committed records, manifest says {records}",
                                tier.records()
                            ),
                        ));
                    }
                    sh.store.attach_tier(Box::new(tier));
                    for i in 0..sh.store.len() as u32 {
                        if u64::from(sh.depth[i as usize]) != rs.level {
                            continue;
                        }
                        let enc = sh.store.read_entry(i).ok_or_else(|| {
                            PersistError::new(
                                p.eng.dir.log(s),
                                format!("cannot read recovered state {i} back"),
                            )
                        })?;
                        let state = self.sys.decode(&enc).ok_or_else(|| {
                            PersistError::new(
                                p.eng.dir.log(s),
                                format!("recovered state {i} does not decode for this system"),
                            )
                        })?;
                        sh.cur.push((state, i));
                        frontier_total += 1;
                    }
                    bytes_total += sh.store.approx_bytes();
                    p.eng.committed[s].0.store(bytes, SeqCst);
                    p.eng.committed[s].1.store(records, SeqCst);
                }
                self.counters[0].states.store(rs.states as usize, Relaxed);
                self.counters[0].transitions.store(rs.transitions as usize, Relaxed);
                self.counters[0].frontier_in.store(frontier_total, Relaxed);
                self.counters[0].bytes.store(bytes_total, Relaxed);
                self.peak_frontier.store(rs.peak as usize, SeqCst);
                self.level.store(rs.level as usize, SeqCst);
                self.resumed = true;
            }
            None => {
                for s in 0..self.n_shards {
                    let mut sh = self.stripes[s].lock().expect("stripe");
                    let tier = LogTier::create(p.eng.dir.log(s), p.eng.evict_per_shard)?;
                    sh.store.attach_tier(Box::new(tier));
                }
            }
        }
        self.persist = Some(&p.eng);
        Ok(())
    }
}

/// Counters frozen at the level boundary a checkpoint describes; the
/// manifest writer must not re-read the live counters, which other
/// workers may already be advancing.
#[derive(Debug, Clone, Copy, Default)]
struct CkptCounts {
    states: u64,
    transitions: u64,
    peak: u64,
    level: u64,
}

/// The persistence state the workers coordinate through: checkpoint
/// arming, per-shard committed cursors, the frozen counter snapshot,
/// and the first I/O error (which stops the run at the next level
/// decision).
pub(crate) struct EnginePersist {
    dir: PhaseDir,
    writer: ManifestWriter,
    interval: Duration,
    crash: CrashSwitch,
    elapsed_base: Duration,
    evict_per_shard: usize,
    threads: usize,
    ckpt_flag: AtomicBool,
    last_ckpt: Mutex<Instant>,
    /// Per shard: `(bytes, records)` of the last synced log prefix.
    committed: Vec<(AtomicU64, AtomicU64)>,
    snapshot: Mutex<CkptCounts>,
    error: Mutex<Option<PersistError>>,
    /// Manifests written (mid-run and terminal), for the stats report.
    ckpts: AtomicU64,
}

impl EnginePersist {
    /// Records the first persistence error; later ones are dropped (they
    /// are almost always consequences of the first).
    fn set_error(&self, e: PersistError) {
        self.error.lock().expect("persist error").get_or_insert(e);
    }

    /// Whether the wall-clock cadence calls for a checkpoint (leader
    /// only, between the decision barriers).
    fn ckpt_due(&self) -> bool {
        if self.interval.is_zero() {
            return true;
        }
        let mut last = self.last_ckpt.lock().expect("last ckpt");
        if last.elapsed() >= self.interval {
            *last = Instant::now();
            true
        } else {
            false
        }
    }

    /// Atomically replaces the manifest from the frozen snapshot and the
    /// published per-shard cursors.
    fn write_manifest(
        &self,
        started: Instant,
        finished: bool,
        outcome: Option<&Outcome>,
    ) -> PResult<()> {
        let snap = *self.snapshot.lock().expect("ckpt snapshot");
        let committed: Vec<(u64, u64)> =
            self.committed.iter().map(|(b, r)| (b.load(SeqCst), r.load(SeqCst))).collect();
        let mut m = Manifest {
            kind: "parallel".to_string(),
            finished,
            outcome_name: outcome.map(|o| o.name().to_string()),
            outcome_detail: outcome.and_then(Outcome::detail),
            states: snap.states,
            transitions: snap.transitions,
            peak_frontier: snap.peak,
            elapsed_ms: (self.elapsed_base + started.elapsed()).as_millis() as u64,
            head: 0,
            level: snap.level,
            threads: self.threads as u64,
            shards: committed.len() as u64,
            committed,
            evict: self.evict_per_shard > 0,
            ..Manifest::default()
        };
        self.writer.write(&mut m)?;
        self.ckpts.fetch_add(1, SeqCst);
        Ok(())
    }

    /// Committed (synced) log bytes summed over shards, for telemetry.
    fn committed_bytes(&self) -> u64 {
        self.committed.iter().map(|(b, _)| b.load(SeqCst)).sum()
    }

    /// Manifests written so far, for telemetry.
    fn checkpoints(&self) -> u64 {
        self.ckpts.load(SeqCst)
    }
}

/// Frontier and counters of the manifest a resumed run continues from.
struct ResumeData {
    level: u64,
    states: u64,
    transitions: u64,
    peak: u64,
    committed: Vec<(u64, u64)>,
}

/// What [`ParallelPersist::open`] returns.
pub type ParallelPersistOpen = PersistOpen<ParallelPersist>;

/// Parallel-engine persistence: the phase directory (one log + index
/// per shard), its writer lock, and the shared worker-coordination
/// state. Checkpoints land at level boundaries — the natural
/// determinism cut of a level-synchronized search — so a resumed run
/// reproduces the uninterrupted run's counts and outcome exactly, at
/// any thread count (the shard count must match; it fixes the
/// state-to-log mapping).
pub struct ParallelPersist {
    eng: EnginePersist,
    _lock: LockGuard,
    resume: Option<ResumeData>,
}

impl ParallelPersist {
    /// Opens (or creates) the phase directory at `root`, acquiring the
    /// writer lock. With [`PersistOpts::resume`] and an existing
    /// manifest every shard log is recovered to its committed prefix; a
    /// finished manifest returns [`ParallelPersistOpen::Finished`]
    /// instead. Without `resume` any stale files are wiped. The byte
    /// budget `opts.evict_at` is split evenly across the shards.
    pub fn open(
        root: &Path,
        opts: &PersistOpts,
        cfg: &ParallelConfig,
    ) -> PResult<ParallelPersistOpen> {
        let shards = cfg.shard_count();
        let dir = PhaseDir::create(root, shards)?;
        let lock = LockGuard::acquire(dir.lock())?;
        let prior = if opts.resume { Manifest::read(&dir.manifest())? } else { None };
        let (resume, elapsed_base, seq0) = match prior {
            Some(m) if m.finished => return Ok(ParallelPersistOpen::Finished(m)),
            Some(m) => {
                if m.kind != "parallel" {
                    return Err(PersistError::new(
                        dir.manifest(),
                        format!("manifest kind `{}`, expected `parallel`", m.kind),
                    ));
                }
                if m.shards as usize != shards || m.committed.len() != shards {
                    return Err(PersistError::new(
                        dir.manifest(),
                        format!(
                            "checkpoint used {} shards, this run {shards}: the shard count \
                             fixes the state-to-log mapping and cannot change across a resume",
                            m.shards
                        ),
                    ));
                }
                (
                    Some(ResumeData {
                        level: m.level,
                        states: m.states,
                        transitions: m.transitions,
                        peak: m.peak_frontier,
                        committed: m.committed.clone(),
                    }),
                    Duration::from_millis(m.elapsed_ms),
                    m.seq,
                )
            }
            None => {
                dir.wipe()?;
                (None, Duration::ZERO, 0)
            }
        };
        let evict_per_shard = if opts.evict_at == 0 { 0 } else { (opts.evict_at / shards).max(1) };
        let writer = ManifestWriter::create(dir.manifest(), seq0);
        Ok(ParallelPersistOpen::Run(Box::new(ParallelPersist {
            eng: EnginePersist {
                dir,
                writer,
                interval: opts.interval,
                crash: opts.crash.clone(),
                elapsed_base,
                evict_per_shard,
                threads: cfg.threads.max(1),
                ckpt_flag: AtomicBool::new(false),
                last_ckpt: Mutex::new(Instant::now()),
                committed: (0..shards).map(|_| (AtomicU64::new(0), AtomicU64::new(0))).collect(),
                snapshot: Mutex::new(CkptCounts::default()),
                error: Mutex::new(None),
                ckpts: AtomicU64::new(0),
            },
            _lock: lock,
            resume,
        })))
    }

    /// Concludes a finished run (workers have exited, stripes are free):
    /// syncs every shard tier, writes the terminal manifest and folds
    /// the tier counters into `reg`. Any persistence error — sticky from
    /// the run or fresh from this final sync — replaces the outcome with
    /// [`Outcome::PersistFailure`] and leaves the last mid-run manifest
    /// in place, so the phase stays resumable.
    fn conclude<T, F, G>(&self, engine: &Engine<'_, T, F, G>, outcome: &mut Outcome, reg: &Registry)
    where
        T: TransitionSystem + Sync,
        T::State: Send,
        F: Fn(&T::State) -> Option<String> + Sync,
        G: Fn(&Label) -> bool + Sync,
    {
        let mut stats = crate::persist::PersistStats::default();
        let mut err: Option<PersistError> = self.eng.error.lock().expect("persist error").take();
        for s in 0..self.eng.committed.len() {
            let mut sh = engine.stripes[s].lock().expect("stripe");
            if let Some(tier) = sh.store.tier_mut() {
                let (bytes, records) = tier.sync();
                tier.write_idx(&self.eng.dir.idx(s));
                if let Some(e) = tier.take_err() {
                    err.get_or_insert(e);
                } else {
                    self.eng.committed[s].0.store(bytes, SeqCst);
                    self.eng.committed[s].1.store(records, SeqCst);
                }
                stats.merge(&tier.stats());
            }
        }
        *self.eng.snapshot.lock().expect("ckpt snapshot") = CkptCounts {
            states: engine.states_total() as u64,
            transitions: engine.transitions_total() as u64,
            peak: engine.peak_frontier.load(SeqCst).max(1) as u64,
            level: engine.level.load(SeqCst) as u64,
        };
        if err.is_none() {
            if let Err(e) = self.eng.write_manifest(engine.started, true, Some(outcome)) {
                err = Some(e);
            }
        }
        if let Some(e) = err {
            if !matches!(outcome, Outcome::PersistFailure(_)) {
                *outcome = Outcome::PersistFailure(e.to_string());
            }
        }
        stats.checkpoints += self.eng.ckpts.load(SeqCst);
        stats.publish(reg);
    }
}

/// Runs the engine to completion: seeds, spawns the scoped workers,
/// pumps heartbeats from the calling thread, classifies the outcome and
/// reconstructs the trail. Returns `(outcome, trail, edges)`; the caller
/// reads counters off the engine. Shared by the explore and progress
/// entry points.
pub(crate) fn run<T, F, G>(
    engine: &Engine<'_, T, F, G>,
    obs: &mut SearchObserver<'_>,
) -> (Outcome, Option<Vec<Label>>, Vec<(u64, u64)>)
where
    T: TransitionSystem + Sync,
    T::State: Send,
    F: Fn(&T::State) -> Option<String> + Sync,
    G: Fn(&Label) -> bool + Sync,
{
    let reg = obs.telemetry().registry.clone();
    if engine.resumed {
        // The frontier and counters were restored from the manifest by
        // `attach_persist`; re-seeding would double-count the root.
    } else if let Some(v) = engine.seed() {
        record_parallel_run(engine, &reg);
        return (v, engine.track_trails().then(Vec::new), Vec::new());
    }
    let threads = engine.cfg.threads.max(1);
    let mut edges: Vec<(u64, u64)> = Vec::new();
    let mut queues: Vec<u64> = Vec::new();
    let quantum =
        obs.telemetry().interval.min(Duration::from_millis(100)).max(Duration::from_millis(1));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|w| scope.spawn(move || engine.worker(w))).collect();
        // Pump heartbeats until the last level's decision flips the
        // completion flag: a timed condvar wait, so the run returns the
        // moment the workers finish instead of after a poll quantum.
        loop {
            let finished = {
                let done = engine.finish_mutex.lock().expect("finish");
                if *done {
                    true
                } else {
                    let (done, _) = engine.finish_cv.wait_timeout(done, quantum).expect("finish");
                    *done
                }
            };
            if finished {
                break;
            }
            let mut at = SampleInput {
                states: engine.states_total() as u64,
                transitions: engine.transitions_total() as u64,
                frontier: engine.frontier_len() as u64,
                store_bytes: engine.bytes_total() as u64,
                depth: Some(engine.level.load(SeqCst) as u64),
                ..SampleInput::default()
            };
            // What only the flight recorder snapshots: termination epoch,
            // inbox depths, and (when the run persists) the committed
            // spill volume. Cheap atomic reads, and only taken when
            // something will consume them.
            if obs.telemetry().timeline.enabled() {
                queues.clear();
                queues.extend(engine.inboxes.iter().map(|q| q.len() as u64));
                at.epoch = Some(engine.epoch.load(Acquire) as u64);
                at.queues = &queues;
                if let Some(p) = engine.persist {
                    at.spill_bytes = p.committed_bytes();
                    at.checkpoint_seq = p.checkpoints();
                }
            }
            obs.tick(&at, true);
        }
        for h in handles {
            let mut worker_edges = h.join().expect("worker panicked");
            edges.append(&mut worker_edges);
        }
    });
    record_parallel_run(engine, &reg);
    match engine.winning_violation() {
        Some(v) => {
            let trail = engine.track_trails().then(|| engine.trail_to(v.state_ref));
            (v.outcome, trail, edges)
        }
        None if engine.budget_hit.load(SeqCst) => (Outcome::Unfinished, None, edges),
        None => (Outcome::Complete, None, edges),
    }
}

/// Folds one finished parallel run into `reg`: the shared serial/parallel
/// totals (`mc_runs_total`, `mc_states_total`, `mc_transitions_total`,
/// peak frontier, store bytes — see
/// [`crate::search::record_run_totals`]) plus the parallel-only level
/// count, worker-width gauge, and per-stripe store-shape histograms.
/// Called exactly once per run, from [`run`], so every parallel entry
/// point (explore, traced, progress, fault-mode) records the same way.
fn record_parallel_run<T, F, G>(engine: &Engine<'_, T, F, G>, reg: &Registry)
where
    T: TransitionSystem + Sync,
    T::State: Send,
    F: Fn(&T::State) -> Option<String> + Sync,
    G: Fn(&Label) -> bool + Sync,
{
    if !reg.enabled() {
        return;
    }
    crate::search::record_run_totals(
        reg,
        engine.states_total(),
        engine.transitions_total(),
        engine.peak_frontier.load(SeqCst).max(1),
        engine.store_bytes(),
    );
    reg.counter("mc_levels_total", "BFS levels fully expanded, summed over parallel runs")
        .add(engine.level.load(SeqCst) as u64);
    reg.gauge_nondet("mc_workers", "Worker threads used by the widest parallel run")
        .record_max(engine.cfg.threads.max(1) as u64);
    for stripe in &engine.stripes {
        let sh = stripe.lock().expect("stripe");
        crate::search::record_store_shape(reg, &sh.store);
    }
}

/// A parallel exploration from sweep to report — the engine's one entry,
/// behind [`crate::search::Search::explore`]: build the engine (no
/// progress judging), attach the persistence tiers when there are any
/// (recovering on resume), run to completion, write the terminal
/// manifest, and end the observer's stream (the counterexample replayed
/// to its sink when there is a trail, the bare outcome event otherwise).
/// Semantics match the serial sweep; see the module docs for the exact
/// determinism guarantees. Resumed runs report `trail: None`: the
/// recovered states carry no parent pointers (the violation itself is
/// still found and reported deterministically).
pub(crate) fn explore<T, F>(
    sys: &T,
    budget: &Budget,
    invariant: &F,
    check_deadlock: bool,
    cfg: &ParallelConfig,
    obs: &mut SearchObserver<'_>,
    persist: Option<&ParallelPersist>,
) -> SearchReport
where
    T: TransitionSystem + Sync,
    T::State: Send,
    F: Fn(&T::State) -> Option<String> + Sync,
{
    let mut engine: Engine<'_, T, F, fn(&Label) -> bool> = Engine::new(
        sys,
        budget,
        invariant,
        None,
        check_deadlock,
        cfg,
        &obs.telemetry().registry,
        &obs.telemetry().profiler,
    );
    if let Some(p) = persist {
        if let Err(e) = engine.attach_persist(p) {
            return SearchReport::persist_failure(&e);
        }
    }
    let (mut outcome, trail, _) = run(&engine, obs);
    if let Some(p) = persist {
        p.conclude(&engine, &mut outcome, &obs.telemetry().registry);
    }
    let report = SearchReport {
        states: engine.states_total(),
        transitions: engine.transitions_total(),
        elapsed: engine.started.elapsed() + persist.map_or(Duration::ZERO, |p| p.eng.elapsed_base),
        store_bytes: engine.store_bytes(),
        peak_frontier: engine.peak_frontier.load(SeqCst).max(1),
        outcome,
        trail,
        restored: false,
    };
    crate::trace::conclude_with_trail(sys, &report.outcome, report.trail.as_deref(), obs);
    report
}

/// [`crate::search::Search::explore`] on `cfg.threads` workers with
/// trails on. Kept for `benchmark/src/layers.rs` (`benchmark/README.md`,
/// "Entry points into `ccr-*`").
#[doc(hidden)]
pub fn explore_parallel_traced_observed<T, F>(
    sys: &T,
    budget: &Budget,
    invariant: F,
    check_deadlock: bool,
    cfg: &ParallelConfig,
    obs: &mut SearchObserver<'_>,
) -> ParallelReport
where
    T: TransitionSystem + Sync,
    T::State: Send,
    F: Fn(&T::State) -> Option<String> + Sync,
{
    explore(sys, budget, &invariant, check_deadlock, &cfg.clone().with_trails(), obs, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{explore, explore_plain, Telemetry};
    use ccr_core::builder::ProtocolBuilder;
    use ccr_core::expr::Expr;
    use ccr_core::ids::RemoteId;
    use ccr_core::value::Value;
    use ccr_runtime::rendezvous::RendezvousSystem;
    use ccr_trace::NullSink;

    /// The engine's entry, unobserved.
    fn explore_parallel<T, F>(
        sys: &T,
        budget: &Budget,
        invariant: F,
        check_deadlock: bool,
        cfg: &ParallelConfig,
        persist: Option<&ParallelPersist>,
    ) -> SearchReport
    where
        T: TransitionSystem + Sync,
        T::State: Send,
        F: Fn(&T::State) -> Option<String> + Sync,
    {
        let mut null = NullSink;
        let mut obs = SearchObserver::new(&mut null);
        super::explore(sys, budget, &invariant, check_deadlock, cfg, &mut obs, persist)
    }

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

    fn deadlocking_spec() -> ccr_core::process::ProtocolSpec {
        let mut b = ProtocolBuilder::new("dead");
        let m = b.msg("m");
        let never = b.msg("never");
        let h = b.home_state("H");
        b.home(h).recv_any(m).goto(h);
        let r0 = b.remote_state("R0");
        let r1 = b.remote_state("R1");
        b.remote(r0).send(m).goto(r1);
        b.remote(r1).recv(never).goto(r0);
        b.finish().unwrap()
    }

    #[test]
    fn matches_serial_on_complete_spaces() {
        let spec = token_spec();
        for n in [1u32, 2, 3, 4] {
            let sys = RendezvousSystem::new(&spec, n);
            let serial = explore_plain(&sys, &Budget::default());
            for threads in [1usize, 2, 4] {
                let cfg = ParallelConfig::threads(threads);
                let par = explore_parallel(&sys, &Budget::default(), |_| None, false, &cfg, None);
                assert_eq!(par.outcome, Outcome::Complete, "n={n} t={threads}");
                assert_eq!(par.states, serial.states, "n={n} t={threads}");
                assert_eq!(par.transitions, serial.transitions, "n={n} t={threads}");
            }
        }
    }

    #[test]
    fn deterministic_across_thread_counts_on_deadlock() {
        let spec = deadlocking_spec();
        let sys = RendezvousSystem::new(&spec, 3);
        let serial = explore(&sys, &Budget::default(), |_| None, true);
        assert_eq!(serial.outcome, Outcome::Deadlock);
        let mut reference: Option<(usize, usize, usize)> = None;
        for threads in [1usize, 2, 4] {
            let cfg = ParallelConfig::threads(threads).with_trails();
            let par = explore_parallel(&sys, &Budget::default(), |_| None, true, &cfg, None);
            assert_eq!(par.outcome, Outcome::Deadlock, "t={threads}");
            let key = (par.states, par.transitions, par.trail.as_ref().unwrap().len());
            match &reference {
                None => reference = Some(key),
                Some(r) => assert_eq!(&key, r, "t={threads}"),
            }
        }
    }

    #[test]
    fn deadlock_trail_replays() {
        let spec = deadlocking_spec();
        let sys = RendezvousSystem::new(&spec, 2);
        let cfg = ParallelConfig::threads(4).with_trails();
        let par = explore_parallel(&sys, &Budget::default(), |_| None, true, &cfg, None);
        assert_eq!(par.outcome, Outcome::Deadlock);
        let trail = par.trail.clone().expect("trail");
        let end = crate::trace::replay_trail(&sys, &trail).expect("trail replays");
        let mut succs = Vec::new();
        sys.successors(&end, &mut succs).unwrap();
        assert!(succs.is_empty(), "trail must end in the deadlocked state");
        assert!(par.trail_text().contains("rendezvous"));
    }

    #[test]
    fn invariant_violation_found_and_trail_replays() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 3);
        let v = spec.remote.state_by_name("V").unwrap();
        let cfg = ParallelConfig::threads(3).with_trails();
        let par = explore_parallel(
            &sys,
            &Budget::default(),
            |s: &ccr_runtime::rendezvous::RvState| {
                if s.remotes.iter().any(|r| r.state == v) {
                    Some("a remote reached V".into())
                } else {
                    None
                }
            },
            false,
            &cfg,
            None,
        );
        assert!(matches!(par.outcome, Outcome::InvariantViolated(_)));
        let trail = par.trail.clone().expect("trail");
        let end = crate::trace::replay_trail(&sys, &trail).expect("trail replays");
        assert!(end.remotes.iter().any(|r| r.state == v));
    }

    #[test]
    fn violated_initial_state_reports_like_serial() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 2);
        let cfg = ParallelConfig::threads(2).with_trails();
        let par = explore_parallel(
            &sys,
            &Budget::default(),
            |_| Some("always".into()),
            false,
            &cfg,
            None,
        );
        assert!(matches!(par.outcome, Outcome::InvariantViolated(_)));
        assert_eq!(par.states, 1);
        assert_eq!(par.trail.as_deref(), Some(&[][..]));
    }

    #[test]
    fn state_budget_stops_at_a_level_boundary() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 4);
        let full = explore_plain(&sys, &Budget::default());
        let cfg = ParallelConfig::threads(2);
        let par = explore_parallel(&sys, &Budget::states(3), |_| None, false, &cfg, None);
        assert_eq!(par.outcome, Outcome::Unfinished);
        assert!(par.states >= 3 && par.states < full.states);
        let tiny = explore_parallel(&sys, &Budget::bytes(64), |_| None, false, &cfg, None);
        assert_eq!(tiny.outcome, Outcome::Unfinished);
    }

    #[test]
    fn metrics_deterministic_counters_match_serial_at_any_thread_count() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 3);
        let snap_for = |threads: usize| {
            let reg = ccr_metrics::Registry::new();
            let mut null = NullSink;
            let telemetry = Telemetry { registry: reg.clone(), ..Telemetry::off() };
            let mut obs = SearchObserver::for_phase(&mut null, &telemetry, "explore");
            let search = crate::search::Search { threads, ..Default::default() };
            search.explore(&sys, &Budget::default(), |_| None, &mut obs);
            reg.snapshot()
        };
        let serial = snap_for(0);
        let par: Vec<_> = [1usize, 2, 4].iter().map(|&t| snap_for(t)).collect();
        for p in &par {
            // The shared serial/parallel counters agree exactly.
            for name in ["mc_runs_total", "mc_states_total", "mc_transitions_total"] {
                assert_eq!(serial.counters[name], p.counters[name], "{name}");
            }
            // The encoded-length histogram is a multiset property of the
            // reachable set: identical whatever engine visited it.
            assert_eq!(
                serial.histograms["mc_state_bytes"].counts,
                p.histograms["mc_state_bytes"].counts
            );
            // Timing-dependent metrics are tagged as such.
            for name in ["mc_batches_flushed_total", "mc_batches_drained_total", "mc_workers"] {
                assert!(p.nondeterministic.contains(&name.to_string()), "{name}");
            }
        }
        // The deterministic view is byte-identical across thread counts.
        let views: Vec<String> = par.iter().map(|p| p.deterministic().to_json()).collect();
        assert_eq!(views[0], views[1]);
        assert_eq!(views[1], views[2]);
    }

    fn persist_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ccr-par-persist-{tag}-{}", std::process::id()))
    }

    fn open_par(
        root: &Path,
        opts: &crate::search::PersistOpts,
        cfg: &ParallelConfig,
    ) -> ParallelPersist {
        match ParallelPersist::open(root, opts, cfg).expect("open") {
            ParallelPersistOpen::Run(p) => *p,
            ParallelPersistOpen::Finished(_) => panic!("unexpected finished manifest"),
        }
    }

    #[test]
    fn parallel_persisted_run_matches_plain() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 4);
        let plain = explore_plain(&sys, &Budget::default());
        let root = persist_dir("match");
        for threads in [1usize, 4] {
            for evict in [0usize, 2048] {
                let cfg = ParallelConfig::threads(threads);
                let opts = crate::search::PersistOpts {
                    interval: Duration::ZERO,
                    evict_at: evict,
                    ..Default::default()
                };
                let persist = open_par(&root, &opts, &cfg);
                let par = explore_parallel(
                    &sys,
                    &Budget::default(),
                    |_| None,
                    false,
                    &cfg,
                    Some(&persist),
                );
                assert_eq!(par.outcome, Outcome::Complete, "t={threads} evict={evict}");
                assert_eq!(par.states, plain.states, "t={threads} evict={evict}");
                assert_eq!(par.transitions, plain.transitions, "t={threads} evict={evict}");
                drop(persist);
                std::fs::remove_dir_all(&root).unwrap();
            }
        }
    }

    #[test]
    fn parallel_finished_manifest_restores_counts() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 3);
        let plain = explore_plain(&sys, &Budget::default());
        let root = persist_dir("finished");
        let cfg = ParallelConfig::threads(2);
        let opts = crate::search::PersistOpts { interval: Duration::ZERO, ..Default::default() };
        let persist = open_par(&root, &opts, &cfg);
        explore_parallel(&sys, &Budget::default(), |_| None, false, &cfg, Some(&persist));
        drop(persist);
        let reopen = crate::search::PersistOpts { resume: true, ..opts };
        match ParallelPersist::open(&root, &reopen, &cfg).expect("reopen") {
            ParallelPersistOpen::Finished(m) => {
                assert!(m.finished);
                assert_eq!(m.states as usize, plain.states);
                assert_eq!(m.transitions as usize, plain.transitions);
                let report = crate::search::report_from_manifest(&m);
                assert_eq!(report.outcome, Outcome::Complete);
                assert!(report.restored);
            }
            ParallelPersistOpen::Run(_) => panic!("expected a finished manifest"),
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn parallel_resume_from_mid_run_checkpoint_reproduces_counts() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 4);
        let plain = explore_plain(&sys, &Budget::default());
        for (crash_threads, resume_threads, evict) in
            [(1usize, 4usize, 0usize), (4, 4, 0), (4, 1, 2048)]
        {
            let root = persist_dir(&format!("resume-{crash_threads}-{resume_threads}-{evict}"));
            let opts = crate::search::PersistOpts {
                interval: Duration::ZERO,
                evict_at: evict,
                ..Default::default()
            };
            // First leg: run under a state budget that stops mid-space,
            // then drop WITHOUT a terminal manifest — simulating a kill
            // after the last level-boundary checkpoint.
            {
                let cfg = ParallelConfig::threads(crash_threads);
                let persist = open_par(&root, &opts, &cfg);
                let mut null = NullSink;
                let mut obs = SearchObserver::new(&mut null);
                let inv = |_: &ccr_runtime::rendezvous::RvState| None;
                let budget = Budget::states(plain.states / 2);
                let mut engine: Engine<'_, _, _, fn(&Label) -> bool> = Engine::new(
                    &sys,
                    &budget,
                    &inv,
                    None,
                    false,
                    &cfg,
                    &obs.telemetry().registry,
                    &obs.telemetry().profiler,
                );
                engine.attach_persist(&persist).expect("attach");
                let (outcome, _, _) = run(&engine, &mut obs);
                assert_eq!(outcome, Outcome::Unfinished);
            }
            // Second leg: resume with a full budget finishes the space
            // with exactly the uninterrupted counts.
            let cfg = ParallelConfig::threads(resume_threads);
            let reopen = crate::search::PersistOpts { resume: true, ..opts };
            let persist = open_par(&root, &reopen, &cfg);
            let par =
                explore_parallel(&sys, &Budget::default(), |_| None, false, &cfg, Some(&persist));
            assert_eq!(par.outcome, Outcome::Complete, "evict={evict}");
            assert_eq!(par.states, plain.states, "evict={evict}");
            assert_eq!(par.transitions, plain.transitions, "evict={evict}");
            drop(persist);
            std::fs::remove_dir_all(&root).unwrap();
        }
    }

    #[test]
    fn parallel_resume_refuses_a_changed_shard_count() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 2);
        let root = persist_dir("shards");
        let cfg = ParallelConfig { threads: 2, shards: 8, ..ParallelConfig::default() };
        let opts = crate::search::PersistOpts { interval: Duration::ZERO, ..Default::default() };
        let persist = open_par(&root, &opts, &cfg);
        let mut null = NullSink;
        let mut obs = SearchObserver::new(&mut null);
        let inv = |_: &ccr_runtime::rendezvous::RvState| None;
        let budget = Budget::states(4);
        let (reg, prof) = (&obs.telemetry().registry, &obs.telemetry().profiler);
        let mut engine: Engine<'_, _, _, fn(&Label) -> bool> =
            Engine::new(&sys, &budget, &inv, None, false, &cfg, reg, prof);
        engine.attach_persist(&persist).expect("attach");
        let _ = run(&engine, &mut obs);
        drop(engine);
        drop(persist);
        let other = ParallelConfig { threads: 2, shards: 16, ..ParallelConfig::default() };
        let reopen = crate::search::PersistOpts { resume: true, ..opts };
        let err = match ParallelPersist::open(&root, &reopen, &other) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("shard-count change must be refused"),
        };
        assert!(err.contains("shard count"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn single_shard_config_still_works() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 2);
        let serial = explore_plain(&sys, &Budget::default());
        let cfg = ParallelConfig { threads: 2, shards: 1, ..ParallelConfig::default() };
        let par = explore_parallel(&sys, &Budget::default(), |_| None, false, &cfg, None);
        assert_eq!(par.states, serial.states);
        assert_eq!(par.transitions, serial.transitions);
        assert!(cfg.shard_count() >= 2, "shards round up to cover the workers");
    }
}
