//! Model-checker throughput with and without threads: the perf
//! trajectory behind `ccr_mc::search::Search::threads`.
//!
//! Measures states/sec of the serial sweep against the same sweep fed by
//! 1, 2, 4, and 8 worker threads on the async state spaces the paper's
//! Table 3 exercises (the 1-thread row isolates what the hand-off costs
//! from actual parallelism), plus visited-set bytes per state for the
//! arena-backed store against an estimate of the previous
//! `HashMap<Vec<u8>, u32>` layout. Results go to `BENCH_mc.json`
//! (override with `--out <file>`) so future changes have a baseline to
//! regress against.
//!
//! The JSON records `host_parallelism`; on a host with fewer cores than
//! threads (CI containers included: the sweep is one more thread than
//! `--threads` says) the speedup columns measure contention, not
//! scaling, so read them against that field.
//!
//! Each workload also records per-phase wall times (`phases`): the
//! encode microbench, the serial exploration, and one forward-progress
//! check — the axes `ccr bench diff` gates independently. `--workload
//! <name>` restricts the run to a single workload (the CI perf gate uses
//! the headline space only).
//!
//! Each workload further records the flight-recorder cost (`sampler`):
//! a serial exploration with the `--timeline` sampler attached at 50 ms
//! against an identically observed run with the recorder disabled. The
//! `overhead_share` pins the "<2% sampling overhead" claim and is gated
//! absolutely by `ccr bench diff` (skipped under `--counts-only`).
//!
//! Each workload additionally runs one *profiled* serial and one
//! profiled 1-thread repetition (the timed best-of samples stay
//! unprofiled) and records the span `attribution`: both runs' per-kind
//! spans, and how much of the sweep's and its worker's time went into
//! handing chunks over and waiting for each other (ship/drain/
//! barrier-wait: `sync_overhead_share`). Attribution is timing-based and
//! not gated by `ccr bench diff`. `--profile <path>` writes the headline
//! workload's 1-thread folded stacks for flamegraph tooling.
//!
//! Run: `cargo run --release -p ccr-bench --bin mc_perf`
//!
//! The headline workload is the asynchronous migratory protocol at
//! n=3 (data domain widened and home buffer k=3 so the space is large
//! enough that thread startup is noise); each
//! configuration is run `REPEATS` times and the fastest run is kept.
//! `migratory_async_n3_sym` re-runs the headline space under the
//! symmetry reduction (`ccr_mc::Reduced`): its `states` value is the
//! orbit count, so the gate also pins the reduction factor.
//! `migratory_async_n3_spill` re-runs it through the persistence layer
//! with a deliberately tiny in-memory budget (`docs/persistence.md`):
//! the gated counts pin "spilling does not change the answer", and its
//! `spill` submap records the (ungated) spill/recovery overhead.

use ccr_bench::configs;
use ccr_mc::progress::check_progress_default;
use ccr_mc::search::{Budget, PersistOpts, Search, SearchObserver, Telemetry};
use ccr_mc::{CrashSwitch, Reduced, SearchReport};
use ccr_metrics::profile::{ProfileAgg, Profiler, SpanKind};
use ccr_metrics::timeseries::{Recorder, Timeline};
use ccr_protocols::invalidate::{invalidate_refined, InvalidateOptions};
use ccr_protocols::migratory::{migratory_refined, MigratoryOptions};
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::TransitionSystem;
use ccr_trace::NullSink;
use serde::{MapSer, Serializer};
use std::collections::{HashSet, VecDeque};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fastest-of-N repetitions, to strip scheduler noise from the ratios.
const REPEATS: usize = 3;
/// Thread counts measured against the serial run.
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// States in the encode-phase sample (breadth-first from the initial
/// state) and passes per timed repetition of that microbench.
const ENCODE_SAMPLE: usize = 10_000;
const ENCODE_PASSES: usize = 20;

/// One measured engine configuration (serial or a thread count).
struct Sample {
    threads: usize,
    report: SearchReport,
}

impl Sample {
    fn states_per_sec(&self) -> f64 {
        self.report.states as f64 / self.report.elapsed.as_secs_f64().max(1e-9)
    }
}

/// One plain, unobserved exploration as `search` runs it.
fn explore<T>(sys: &T, budget: &Budget, search: &Search<'_>) -> SearchReport
where
    T: TransitionSystem + Sync,
    T::State: Send,
{
    let mut null = NullSink;
    let mut obs = SearchObserver::new(&mut null);
    search.explore(sys, budget, |_| None, &mut obs)
}

/// Best-of-`REPEATS` run on `threads` workers (0 = serial).
fn measure<T>(sys: &T, budget: &Budget, threads: usize) -> SearchReport
where
    T: TransitionSystem + Sync,
    T::State: Send,
{
    let search = Search { threads, ..Search::default() };
    (0..REPEATS)
        .map(|_| explore(sys, budget, &search))
        .min_by_key(|r| r.elapsed)
        .expect("at least one repeat")
}

/// Best-of-`REPEATS` serial run.
fn measure_serial<T>(sys: &T, budget: &Budget) -> Sample
where
    T: TransitionSystem + Sync,
    T::State: Send,
{
    Sample { threads: 1, report: measure(sys, budget, 0) }
}

/// Best-of-`REPEATS` threaded run at `threads` workers.
fn measure_parallel<T>(sys: &T, budget: &Budget, threads: usize) -> Sample
where
    T: TransitionSystem + Sync,
    T::State: Send,
{
    Sample { threads, report: measure(sys, budget, threads) }
}

/// Span attribution of one profiled serial run and one profiled
/// 1-thread run: what the sweep still does itself when a worker feeds it
/// (insert), what moved to the worker (compute, encode), and what the
/// two spend handing chunks over and waiting for each other.
struct Attribution {
    serial_agg: ProfileAgg,
    serial_profiled_secs: f64,
    par1_agg: ProfileAgg,
    par1_profiled_secs: f64,
    /// Folded stacks of the profiled 1-thread run, for `--profile
    /// <path>`.
    par1_folded: String,
}

impl Attribution {
    /// Seconds the 1-thread run's sweep and worker together spent in
    /// ship + drain + barrier-wait spans: the hand-off, and each waiting
    /// for the other.
    fn sync_overhead_secs(&self) -> f64 {
        [SpanKind::Ship, SpanKind::Drain, SpanKind::BarrierWait]
            .iter()
            .map(|k| self.par1_agg.kind(*k).secs())
            .sum()
    }
}

/// Profiled serial and 1-thread runs, best-of-[`REPEATS`] like
/// the unprofiled timed samples (so profiled-vs-unprofiled deltas
/// measure profiling overhead, not first-run noise). A fresh profiler
/// per repetition; the fastest repetition's aggregate is kept.
fn measure_attribution<T>(sys: &T, budget: &Budget) -> Attribution
where
    T: TransitionSystem + Sync,
    T::State: Send,
{
    let best_of = |threads: usize| -> (f64, Profiler) {
        let search = Search { threads, ..Search::default() };
        (0..REPEATS)
            .map(|_| {
                let mut null = NullSink;
                let telemetry = Telemetry { profiler: Profiler::new(), ..Telemetry::off() };
                let t = Instant::now();
                {
                    let mut obs = SearchObserver::for_phase(&mut null, &telemetry, "explore");
                    search.explore(sys, budget, |_| None, &mut obs);
                }
                (t.elapsed().as_secs_f64(), telemetry.profiler)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("at least one repeat")
    };
    let (serial_profiled_secs, serial_prof) = best_of(0);
    let (par1_profiled_secs, par1_prof) = best_of(1);
    Attribution {
        serial_agg: serial_prof.aggregate(),
        serial_profiled_secs,
        par1_agg: par1_prof.aggregate(),
        par1_profiled_secs,
        par1_folded: par1_prof.folded(),
    }
}

/// Serializes one span-kind breakdown (`{kind: {secs, count, share}}`).
fn spans_entry(m: &mut MapSer<'_>, key: &str, agg: &ProfileAgg) {
    let totals = agg.totals();
    let grand: u64 = totals.iter().map(|t| t.nanos).sum();
    m.entry_with(key, |ser| {
        let mut e = ser.begin_map();
        for (i, kind) in SpanKind::ALL.iter().enumerate() {
            if totals[i].nanos == 0 && totals[i].count == 0 {
                continue;
            }
            e.entry_with(kind.name(), |ser| {
                let mut cell = ser.begin_map();
                cell.entry("secs", &totals[i].secs());
                cell.entry("count", &totals[i].count);
                cell.entry(
                    "share",
                    &if grand == 0 { 0.0 } else { totals[i].nanos as f64 / grand as f64 },
                );
                cell.end();
            });
        }
        e.end();
    });
}

/// Sampling interval of the sampler-overhead measurement: aggressive
/// enough (20 Hz) that a sub-second workload still takes several
/// samples, so the measured share bounds any realistic cadence from
/// above.
const SAMPLER_INTERVAL_MS: u64 = 50;

/// Flight-recorder cost: a serial exploration with the timeline sampler
/// attached, against an identically observed run with the recorder
/// disabled. Both sides best-of-[`REPEATS`], their repetitions
/// interleaved, so the share compares two fastest runs of the same code
/// path under the same conditions and isolates the sampler itself.
struct SamplerCost {
    off_secs: f64,
    on_secs: f64,
    samples: u64,
}

impl SamplerCost {
    /// Fraction of wall time the sampler adds (clamped at zero: on a
    /// quiet host the sampled best-of can win the coin flip).
    fn overhead_share(&self) -> f64 {
        (self.on_secs - self.off_secs).max(0.0) / self.off_secs.max(1e-9)
    }
}

fn measure_sampler<T>(name: &str, sys: &T, budget: &Budget) -> SamplerCost
where
    T: TransitionSystem + Sync,
    T::State: Send,
{
    let dir = std::env::temp_dir().join(format!("ccr-mc-perf-sampler-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create sampler dir");
    // Times one exploration with `timeline` attached, then closes the
    // flight record (a write error there fails the measurement).
    let timed_run = |timeline: Recorder| -> f64 {
        let telemetry = Telemetry {
            timeline,
            interval: Duration::from_millis(SAMPLER_INTERVAL_MS),
            ..Telemetry::off()
        };
        let mut null = NullSink;
        let t = Instant::now();
        let report = {
            let mut obs = SearchObserver::for_phase(&mut null, &telemetry, "explore");
            Search::default().explore(sys, budget, |_| None, &mut obs)
        };
        let secs = t.elapsed().as_secs_f64();
        telemetry
            .finish(&report.outcome, report.states as u64, report.transitions as u64)
            .unwrap_or_else(|e| panic!("{name}: sampler write failed: {e}"));
        secs
    };
    // Off and on alternate (off, on, off, on, …) so that drift over the
    // measurement — a warming cache, a neighbour waking up — lands on
    // both sides instead of all on whichever ran second.
    let mut off_secs = f64::INFINITY;
    let mut best: Option<(f64, PathBuf)> = None;
    for rep in 0..REPEATS {
        off_secs = off_secs.min(timed_run(Recorder::disabled()));
        let path = dir.join(format!("{name}-rep{rep}.jsonl"));
        let recorder =
            Recorder::create(&path, name, SAMPLER_INTERVAL_MS, 5).expect("create sampler timeline");
        let secs = timed_run(recorder);
        if best.as_ref().is_none_or(|(b, _)| secs < *b) {
            best = Some((secs, path));
        }
    }
    let (on_secs, best_path) = best.expect("at least one repeat");
    // Dogfood the parser: the sample count comes from reading the best
    // repetition's timeline back, not from a side channel.
    let timeline = Timeline::read(&best_path).expect("read sampler timeline");
    timeline.validate().expect("sampler timeline validates");
    let samples = timeline.points.len() as u64;
    let _ = std::fs::remove_dir_all(&dir);
    SamplerCost { off_secs, on_secs, samples }
}

/// Bytes per state of the retired `HashMap<Vec<u8>, u32>` visited set,
/// from its layout: the encoded key on its own heap allocation, a
/// 24-byte `Vec` header plus the 4-byte index (padded to 32 bytes per
/// bucket), and the table's power-of-two slack (~1.5x buckets per entry
/// at the default 87% max load) with one control byte per bucket.
fn hashmap_bytes_per_state_estimate(encoded_len: usize) -> f64 {
    encoded_len as f64 + 1.5 * 33.0
}

/// Per-phase wall times of one workload, separating the cost of state
/// encoding from the exploration proper and from the progress check —
/// `ccr bench diff` gates each phase independently.
struct Phases {
    /// Best-of-[`REPEATS`] time of [`ENCODE_PASSES`] encode passes over
    /// an [`ENCODE_SAMPLE`]-state breadth-first sample.
    encode_secs: f64,
    /// Serial exploration wall time (the best repetition).
    explore_secs: f64,
    /// One serial forward-progress check (exploration + CSR + backward
    /// propagation).
    progress_secs: f64,
}

/// Breadth-first sample of up to `cap` distinct states, for phase
/// microbenches that need real states without a full exploration.
fn collect_sample<T: TransitionSystem>(sys: &T, cap: usize) -> Vec<T::State> {
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut queue = VecDeque::new();
    let mut out = Vec::new();
    let mut succs = Vec::new();
    let mut enc = Vec::new();
    let init = sys.initial();
    sys.encode(&init, &mut enc);
    seen.insert(enc.clone());
    queue.push_back(init.clone());
    out.push(init);
    'bfs: while let Some(state) = queue.pop_front() {
        succs.clear();
        if sys.successors(&state, &mut succs).is_err() {
            continue;
        }
        for (_, next) in succs.drain(..) {
            sys.encode(&next, &mut enc);
            if seen.insert(enc.clone()) {
                out.push(next.clone());
                queue.push_back(next);
                if out.len() >= cap {
                    break 'bfs;
                }
            }
        }
    }
    out
}

fn measure_phases<T>(sys: &T, serial: &Sample, budget: &Budget) -> Phases
where
    T: TransitionSystem + Sync,
    T::State: Send,
{
    let sample = collect_sample(sys, ENCODE_SAMPLE);
    let mut enc = Vec::new();
    let encode_secs = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..ENCODE_PASSES {
                for state in &sample {
                    sys.encode(state, &mut enc);
                }
            }
            t.elapsed().as_secs_f64()
        })
        .min_by(f64::total_cmp)
        .expect("at least one repeat");
    let t = Instant::now();
    let progress = check_progress_default(sys, budget);
    let progress_secs = t.elapsed().as_secs_f64();
    assert!(progress.complete, "progress phase must fit the budget");
    Phases { encode_secs, explore_secs: serial.report.elapsed.as_secs_f64(), progress_secs }
}

struct Workload {
    name: &'static str,
    description: &'static str,
    serial: Sample,
    parallel: Vec<Sample>,
    encoded_len: usize,
    phases: Phases,
    attribution: Attribution,
    sampler: SamplerCost,
}

fn run_workload<T>(name: &'static str, description: &'static str, sys: &T) -> Workload
where
    T: TransitionSystem + Sync,
    T::State: Send,
{
    let budget = Budget::states(3_000_000);
    let serial = measure_serial(sys, &budget);
    assert!(
        serial.report.outcome.is_complete(),
        "{name}: workload must fit the budget, got {:?}",
        serial.report.outcome
    );
    let parallel: Vec<Sample> =
        THREADS.iter().map(|&t| measure_parallel(sys, &budget, t)).collect();
    for p in &parallel {
        assert_eq!(p.report.states, serial.report.states, "{name}: parallel states diverged");
        assert_eq!(
            p.report.transitions, serial.report.transitions,
            "{name}: parallel transitions diverged"
        );
    }
    let phases = measure_phases(sys, &serial, &budget);
    let attribution = measure_attribution(sys, &budget);
    let sampler = measure_sampler(name, sys, &budget);
    eprintln!(
        "{name}: sampler off {:.3}s, on {:.3}s ({:+.2}%, {} samples)",
        sampler.off_secs,
        sampler.on_secs,
        sampler.overhead_share() * 100.0,
        sampler.samples,
    );
    let mut enc = Vec::new();
    sys.encode(&sys.initial(), &mut enc);
    let delta = |kind: SpanKind| {
        attribution.par1_agg.kind(kind).secs() - attribution.serial_agg.kind(kind).secs()
    };
    eprintln!(
        "{name}: 1t gap {:.3}s — compute {:+.3}s, encode {:+.3}s, insert {:+.3}s, \
         ship+drain+barrier {:.3}s (over two threads)",
        attribution.par1_profiled_secs - attribution.serial_profiled_secs,
        delta(SpanKind::Compute),
        delta(SpanKind::Encode),
        delta(SpanKind::Insert),
        attribution.sync_overhead_secs(),
    );
    eprintln!(
        "{name}: {} states; serial {:.0}/s; {}",
        serial.report.states,
        serial.states_per_sec(),
        parallel
            .iter()
            .map(|p| format!(
                "{}t {:.0}/s ({:.2}x)",
                p.threads,
                p.states_per_sec(),
                p.states_per_sec() / serial.states_per_sec()
            ))
            .collect::<Vec<_>>()
            .join("; ")
    );
    Workload {
        name,
        description,
        serial,
        parallel,
        encoded_len: enc.len(),
        phases,
        attribution,
        sampler,
    }
}

/// In-memory byte budget of the spill workload: far below the headline
/// space's ~2 MB of encoded states, so the arena evicts almost every
/// payload to the on-disk log and interior dedup re-reads hit disk.
const SPILL_EVICT_BYTES: usize = 64 * 1024;
/// Checkpoint cadence of the spill workload. Frequent enough that a
/// sub-second run commits several manifests, without syncing per
/// expansion.
const SPILL_CHECKPOINT_MS: u64 = 10;

/// The headline space explored through the persistence layer
/// (`docs/persistence.md`) under [`SPILL_EVICT_BYTES`]. The
/// `states`/`transitions` counts are gated exactly by `ccr bench diff`
/// — spilling must not change the answer — while the `spill` submap
/// records the overhead axes (wall-time ratio against the in-memory
/// serial run, committed log bytes, finished-checkpoint restore
/// time), which are timing-based and not gated.
struct SpillWorkload {
    name: &'static str,
    description: &'static str,
    report: SearchReport,
    encoded_len: usize,
    in_memory_secs: f64,
    spill_secs: f64,
    log_bytes: u64,
    restore_secs: f64,
}

fn run_spill_workload<T>(name: &'static str, description: &'static str, sys: &T) -> SpillWorkload
where
    T: TransitionSystem + Sync,
    T::State: Send,
{
    let budget = Budget::states(3_000_000);
    let in_memory = measure_serial(sys, &budget);
    let dir = std::env::temp_dir().join(format!("ccr-mc-perf-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = |resume: bool| PersistOpts {
        interval: Duration::from_millis(SPILL_CHECKPOINT_MS),
        evict_at: SPILL_EVICT_BYTES,
        resume,
        crash: CrashSwitch::after(None),
    };
    // Best-of-[`REPEATS`] persisted runs, each into a fresh directory
    // (reusing one would turn later repetitions into resumes).
    let mut best: Option<(f64, PathBuf, SearchReport)> = None;
    for rep in 0..REPEATS {
        let root = dir.join(format!("rep{rep}"));
        std::fs::create_dir_all(&root).expect("create spill dir");
        let fresh = opts(false);
        let t = Instant::now();
        let report =
            explore(sys, &budget, &Search { persist: Some((&root, &fresh)), ..Search::default() });
        let secs = t.elapsed().as_secs_f64();
        assert!(
            report.outcome.is_complete(),
            "{name}: spill run must finish, got {:?}",
            report.outcome
        );
        assert_eq!(report.states, in_memory.report.states, "{name}: spill states diverged");
        assert_eq!(
            report.transitions, in_memory.report.transitions,
            "{name}: spill transitions diverged"
        );
        if best.as_ref().is_none_or(|(b, _, _)| secs < *b) {
            best = Some((secs, root, report));
        }
    }
    let (spill_secs, best_root, report) = best.expect("at least one repeat");
    let log_bytes = std::fs::metadata(best_root.join("log")).expect("spill log exists").len();
    // Restoring the finished checkpoint replays no search: it reads the
    // terminal manifest back into a report.
    let resume = opts(true);
    let t = Instant::now();
    let restored = explore(
        sys,
        &budget,
        &Search { persist: Some((&best_root, &resume)), ..Search::default() },
    );
    let restore_secs = t.elapsed().as_secs_f64();
    assert!(restored.restored, "{name}: a finished run must restore from its manifest");
    assert_eq!(restored.states, report.states, "{name}: restored states diverged");
    assert_eq!(restored.transitions, report.transitions, "{name}: restored transitions diverged");
    let _ = std::fs::remove_dir_all(&dir);
    let mut enc = Vec::new();
    sys.encode(&sys.initial(), &mut enc);
    let in_memory_secs = in_memory.report.elapsed.as_secs_f64();
    eprintln!(
        "{name}: {} states; in-memory {:.3}s, spilled {:.3}s ({:.2}x), \
         log {} KiB, restore {:.4}s",
        report.states,
        in_memory_secs,
        spill_secs,
        spill_secs / in_memory_secs.max(1e-9),
        log_bytes / 1024,
        restore_secs,
    );
    SpillWorkload {
        name,
        description,
        report,
        encoded_len: enc.len(),
        in_memory_secs,
        spill_secs,
        log_bytes,
        restore_secs,
    }
}

fn out_path() -> String {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--out") {
        Some(i) => args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--out requires a file argument");
            std::process::exit(2);
        }),
        None => "BENCH_mc.json".to_string(),
    }
}

/// `--profile <path>` writes the folded stacks of the headline
/// workload's profiled 1-thread parallel run (flamegraph-ready).
fn profile_path() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == "--profile").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--profile requires a file argument");
            std::process::exit(2);
        })
    })
}

/// `--workload <name>` restricts the run to one workload — the CI perf
/// gate measures only the headline space to stay inside its time box.
fn workload_filter() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == "--workload").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--workload requires a workload name");
            std::process::exit(2);
        })
    })
}

fn main() {
    let out = out_path();
    let host = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);

    // The headline space: async migratory at n=3, widened (data domain 4,
    // home buffer 3) so it is large enough to time. The n=4 row keeps the
    // Table 3 checking configuration, and async invalidate n=3 is the
    // largest space that completes, dominating visited-set pressure.
    let mig_wide = migratory_refined(&MigratoryOptions::checking_with_data(4));
    let mig_n3 = AsyncSystem::new(&mig_wide, 3, AsyncConfig::with_home_buffer(3));
    let mig_std = migratory_refined(&MigratoryOptions::checking_with_data(configs::DATA_DOMAIN));
    let mig_n4 = AsyncSystem::new(&mig_std, 4, AsyncConfig::default());
    let inv = invalidate_refined(&InvalidateOptions { data_domain: Some(configs::DATA_DOMAIN) });
    let inv_n3 = AsyncSystem::new(&inv, 3, AsyncConfig::default());

    let defs: [(&'static str, &'static str, &AsyncSystem<'_>); 3] = [
        ("migratory_async_n3", "async migratory, n=3, data domain 4, home buffer k=3", &mig_n3),
        ("migratory_async_n4", "async migratory, n=4, Table 3 checking configuration", &mig_n4),
        ("invalidate_async_n3", "async invalidate, n=3, Table 3 checking configuration", &inv_n3),
    ];
    let filter = workload_filter();
    let mut workloads: Vec<Workload> = defs
        .iter()
        .filter(|(name, _, _)| filter.as_deref().is_none_or(|f| f == *name))
        .map(|(name, description, sys)| run_workload(name, description, *sys))
        .collect();
    // The headline space again, explored modulo remote symmetry. Its
    // `states` count is the orbit count, so the gate pins the reduction
    // factor: states(migratory_async_n3) / states(migratory_async_n3_sym)
    // must not drift.
    let sym_name = "migratory_async_n3_sym";
    if filter.as_deref().is_none_or(|f| f == sym_name) {
        let red_n3 = Reduced::new(&mig_n3);
        workloads.push(run_workload(
            sym_name,
            "headline space under symmetry reduction (states are orbit counts)",
            &red_n3,
        ));
    }
    // The headline space once more, through the persistence layer with
    // a deliberately tiny in-memory budget: the counts pin "spilling
    // does not change the answer", the `spill` submap records the
    // overhead.
    let spill_name = "migratory_async_n3_spill";
    let spill = filter.as_deref().is_none_or(|f| f == spill_name).then(|| {
        run_spill_workload(
            spill_name,
            "headline space through the persistence layer, 64 KiB in-memory budget",
            &mig_n3,
        )
    });
    if workloads.is_empty() && spill.is_none() {
        eprintln!(
            "no workload named {:?}; known: {}, {sym_name}, {spill_name}",
            filter.unwrap_or_default(),
            defs.map(|(n, _, _)| n).join(", ")
        );
        std::process::exit(2);
    }

    let mut s = Serializer::new();
    {
        let mut m = s.begin_map();
        m.entry("bench", "mc_perf");
        m.entry("host_parallelism", &host);
        if host == 1 {
            m.entry(
                "note",
                "single-core host: no parallel speedup is physically possible; \
                 the 1-thread engine_overhead ratio is the meaningful column, \
                 multi-thread speedups only measure contention",
            );
        }
        m.entry("repeats_best_of", &REPEATS);
        m.entry_with("workloads", |ser| {
            let mut seq = ser.begin_seq();
            for w in &workloads {
                seq.elem_with(|ser| {
                    let mut row = ser.begin_map();
                    row.entry("name", w.name);
                    row.entry("description", w.description);
                    row.entry("states", &w.serial.report.states);
                    row.entry("transitions", &w.serial.report.transitions);
                    row.entry("encoded_len_bytes", &w.encoded_len);
                    row.entry_with("serial", |ser| {
                        let mut e = ser.begin_map();
                        e.entry("secs", &w.serial.report.elapsed.as_secs_f64());
                        e.entry("states_per_sec", &w.serial.states_per_sec());
                        e.end();
                    });
                    row.entry_with("parallel", |ser| {
                        let mut ps = ser.begin_seq();
                        for p in &w.parallel {
                            ps.elem_with(|ser| {
                                let mut e = ser.begin_map();
                                e.entry("threads", &p.threads);
                                e.entry("secs", &p.report.elapsed.as_secs_f64());
                                e.entry("states_per_sec", &p.states_per_sec());
                                let ratio = p.states_per_sec() / w.serial.states_per_sec();
                                if p.threads == 1 {
                                    // At one thread the ratio measures what
                                    // handing the work to a worker costs
                                    // over doing it inline — not scaling — so
                                    // name it what it is, and let the gate
                                    // (`ccr bench diff --min-engine-overhead`)
                                    // assert it directly.
                                    e.entry("engine_overhead", &ratio);
                                } else {
                                    e.entry("speedup", &ratio);
                                }
                                e.end();
                            });
                        }
                        ps.end();
                    });
                    row.entry_with("store", |ser| {
                        let mut e = ser.begin_map();
                        e.entry(
                            "arena_bytes_per_state",
                            &(w.serial.report.store_bytes as f64 / w.serial.report.states as f64),
                        );
                        e.entry(
                            "hashmap_bytes_per_state_estimate",
                            &hashmap_bytes_per_state_estimate(w.encoded_len),
                        );
                        e.end();
                    });
                    row.entry_with("phases", |ser| {
                        let mut e = ser.begin_map();
                        e.entry("encode_secs", &w.phases.encode_secs);
                        e.entry("explore_secs", &w.phases.explore_secs);
                        e.entry("progress_secs", &w.phases.progress_secs);
                        e.end();
                    });
                    // Flight-recorder cost: `ccr bench diff` gates
                    // `overhead_share` (the <2% claim) unless running
                    // `--counts-only`.
                    row.entry_with("sampler", |ser| {
                        let mut e = ser.begin_map();
                        e.entry("interval_ms", &SAMPLER_INTERVAL_MS);
                        e.entry("off_secs", &w.sampler.off_secs);
                        e.entry("on_secs", &w.sampler.on_secs);
                        e.entry("overhead_share", &w.sampler.overhead_share());
                        e.entry("samples", &w.sampler.samples);
                        e.end();
                    });
                    // Span attribution of the profiled serial and
                    // 1-thread runs. The 1-thread spans are summed over
                    // the sweep and its worker, which run concurrently,
                    // so they add up to about twice that run's wall
                    // time. Timing-based — `ccr bench diff` does not
                    // gate it.
                    row.entry_with("attribution", |ser| {
                        let a = &w.attribution;
                        let mut e = ser.begin_map();
                        e.entry("serial_profiled_secs", &a.serial_profiled_secs);
                        e.entry("parallel_1t_profiled_secs", &a.par1_profiled_secs);
                        spans_entry(&mut e, "serial_spans", &a.serial_agg);
                        spans_entry(&mut e, "parallel_1t_spans", &a.par1_agg);
                        let sync = a.sync_overhead_secs();
                        e.entry("sync_overhead_secs", &sync);
                        let par1_total = a.par1_agg.total_nanos() as f64 / 1e9;
                        e.entry(
                            "sync_overhead_share",
                            &if par1_total > 0.0 { sync / par1_total } else { 0.0 },
                        );
                        e.entry("gap_secs", &(a.par1_profiled_secs - a.serial_profiled_secs));
                        e.end();
                    });
                    row.end();
                });
            }
            if let Some(sw) = &spill {
                seq.elem_with(|ser| {
                    let mut row = ser.begin_map();
                    row.entry("name", sw.name);
                    row.entry("description", sw.description);
                    row.entry("states", &sw.report.states);
                    row.entry("transitions", &sw.report.transitions);
                    row.entry("encoded_len_bytes", &sw.encoded_len);
                    // Spill/recovery overhead: wall-clock timings, not
                    // gated by `ccr bench diff` (the counts above are).
                    row.entry_with("spill", |ser| {
                        let mut e = ser.begin_map();
                        e.entry("evict_bytes", &SPILL_EVICT_BYTES);
                        e.entry("checkpoint_interval_ms", &SPILL_CHECKPOINT_MS);
                        e.entry("in_memory_secs", &sw.in_memory_secs);
                        e.entry("spill_secs", &sw.spill_secs);
                        e.entry("overhead_ratio", &(sw.spill_secs / sw.in_memory_secs.max(1e-9)));
                        e.entry("log_bytes", &sw.log_bytes);
                        e.entry("restore_secs", &sw.restore_secs);
                        e.end();
                    });
                    row.end();
                });
            }
            seq.end();
        });
        if let Some(headline) = workloads.iter().find(|w| w.name == "migratory_async_n3") {
            let four = headline
                .parallel
                .iter()
                .find(|p| p.threads == 4)
                .expect("4-thread sample")
                .states_per_sec()
                / headline.serial.states_per_sec();
            m.entry("acceptance_speedup_4t_migratory_async_n3", &four);
        }
        if let (Some(full), Some(red)) = (
            workloads.iter().find(|w| w.name == "migratory_async_n3"),
            workloads.iter().find(|w| w.name == sym_name),
        ) {
            m.entry(
                "symmetry_reduction_factor_migratory_async_n3",
                &(full.serial.report.states as f64 / red.serial.report.states as f64),
            );
        }
        m.end();
    }
    let json = s.into_string();
    std::fs::write(&out, format!("{json}\n")).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(2);
    });
    println!("wrote {out}");
    if let Some(path) = profile_path() {
        let w = workloads.iter().find(|w| w.name == "migratory_async_n3").unwrap_or(&workloads[0]);
        std::fs::write(&path, &w.attribution.par1_folded).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("wrote {path} ({} 1-thread folded stacks)", w.name);
    }
}
