//! `ccr` — the command-line front end for the refinement pipeline.
//!
//! ```text
//! ccr fmt     <spec.ccp>                  canonical formatting
//! ccr check   <spec.ccp>                  validate the §2.4 restrictions
//! ccr refine  <spec.ccp> [--no-opt]       show pairs, costs, automata sizes
//! ccr dot     <spec.ccp> [--refined]      Graphviz to stdout
//! ccr verify  <spec.ccp> [-n N] [--budget S] [--no-opt] [--threads T]
//!             [--symmetry on|off|auto] [--trace FILE] [--progress]
//!             [--json] [--faults SPEC] [--seed N] [--fault-budget F]
//!             [--spill-dir DIR] [--spill-bytes B]
//!             [--checkpoint-interval SECS]
//!                                         full pipeline: reachability both
//!                                         levels, safety (deadlock),
//!                                         Equation 1, forward progress,
//!                                         and (opt-in) fault tolerance
//! ccr verify  --resume DIR [flags]        restart a `--spill-dir DIR` run
//!                                         from its last checkpoint; the
//!                                         spec and engine shape replay
//!                                         from DIR/meta.json
//! ccr table   <spec.ccp> [-n N..] [--threads T] [--symmetry on|off|auto]
//!             [--trace FILE] [--progress] [--json]
//!                                         per-N reachability comparison
//! ccr watch   <status-file> [--once] [--interval SECS]
//!             [--stale-timeout SECS]      tail a live run's status file
//!                                         (fails if the run died)
//! ccr report  <run-dir> [--json]          merge a run's trace, metrics,
//!                                         profile, status and timeline
//!                                         into one Markdown (or JSON)
//!                                         report
//! ccr timeline <run-dir|timeline.jsonl> [--json]
//!                                         analyze a flight-recorder
//!                                         timeline: phase rates, rate
//!                                         shifts, stalls, sparklines
//! ccr bench diff <old.json> <new.json> [--tolerance T]
//!             [--bytes-tolerance B]       perf-regression gate over
//!                                         BENCH_*.json reports or
//!                                         --metrics snapshots
//! ```
//!
//! `--threads T` (verify/table) runs the explorations and the progress
//! check on the sharded parallel engine with `T` worker threads — see
//! `docs/parallel_checking.md`. Results are observationally equivalent
//! to the serial engine; Equation 1 stays serial (it is cheap relative
//! to the asynchronous sweep).
//!
//! `--symmetry on|off|auto` (verify/table, default `auto`) dedupes
//! permutation-equivalent global states — the remotes are identical, so
//! states differing only in which remote plays which role form one orbit
//! and only a canonical representative is stored (see
//! `docs/symmetry.md`). `auto` turns the reduction on for `verify`
//! unless a fault flag is present (fault phases track per-link fault
//! ledgers that break the symmetry, so `auto` falls back to `off` and
//! says so), and leaves `table` unreduced for faithful Table 3 counts.
//! Specs that fail the scalarset check — order-sensitive primitives
//! such as `first(mask)`, as in `invalidate.ccp`/`update.ccp` — are
//! never reduced, even under `on`: the reduction would be unsound.
//! Equation 1 always runs on the concrete state spaces. Counterexample
//! trails stay concrete executions and replay on the unreduced engine.
//!
//! Observability flags (verify/table):
//!
//! * `--trace FILE` — write a JSONL event stream to FILE: search
//!   heartbeats and, on a violation, the full counterexample replayed as
//!   `Step`/`Send`/`Recv`/... events ending with an `Outcome` line (the
//!   schema is documented in `docs/observability.md`).
//! * `--progress` — print live heartbeats (states, frontier, rate) to
//!   stderr during long explorations.
//! * `--json` — emit the reports as a single machine-readable JSON
//!   document on stdout instead of the human tables (suitable for
//!   `docs/results/`).
//! * `--metrics PATH|-` — collect pipeline metrics (counters, gauges,
//!   histograms, per-phase wall times) in the `ccr-metrics` registry and
//!   write the snapshot to PATH (`-` = stdout, as the final line). With
//!   the flag absent the registry is null and the pipeline records
//!   nothing.
//! * `--metrics-format json|prometheus` — snapshot encoding (default
//!   `json`; `prometheus` writes text exposition format 0.0.4).
//! * `--profile PATH|-` — record per-worker, per-level span timelines
//!   (compute/encode/ship/drain/barrier-wait/progress) and write them as
//!   folded stacks to PATH (`-` = stdout), plus an attribution summary
//!   (human output and the `profile` key of the JSON report). See
//!   docs/observability.md, "Profiling and live runs".
//! * `--progress-interval SECS` — wall-clock heartbeat/status interval
//!   (fractional seconds, default 1.0).
//! * `--status PATH` — maintain a live status file (atomic-rename JSON)
//!   that `ccr watch PATH` can follow from another process.
//! * `--timeline PATH` — flight recorder: append one delta-encoded
//!   JSONL sample per heartbeat interval (rates, frontier, store and
//!   spill bytes, per-worker span shares, checkpoint seq, process RSS)
//!   to PATH, for `ccr timeline` analysis. Off by default; when off the
//!   run is byte-identical to one without the flag.
//! * `--stall-after K` — stall watchdog threshold: with `--timeline`,
//!   emit a stall diagnostic record (per-worker span states, queue and
//!   frontier depths, epoch counters) after K sampling intervals with
//!   no forward progress (default 5).
//! * `--inject-stall-ms MS` — fault-injection test hook: each parallel
//!   worker sleeps MS milliseconds once before its first expansion, so
//!   CI can provoke the stall watchdog deterministically.
//! * `--run-dir DIR` — shorthand: write trace.jsonl, metrics.json,
//!   profile.folded, status.json, timeline.jsonl and verify.json under
//!   DIR (creating it), ready for `ccr report DIR`. Explicit flags win
//!   over the shorthand paths.
//! * `--async` (verify) — async-level-only mode: skip the rendezvous
//!   level, Equation 1, progress and fault phases; explore only the
//!   refined asynchronous level. This is the engine-profiling loop:
//!   one phase, one state space.
//!
//! Persistence flags (verify only, see `docs/persistence.md`):
//!
//! * `--spill-dir DIR` — checkpoint the two reachability sweeps into
//!   per-phase subdirectories of DIR (`rendezvous/`, `async/`): an
//!   append-only state log with a hash index, a writer lock, and an
//!   atomically renamed manifest, plus a `meta.json` recording the
//!   engine shape for `--resume`. A killed run restarts from its last
//!   checkpoint and finishes with byte-identical counts.
//! * `--spill-bytes B` — in-memory byte budget for each sweep's visited
//!   set; past it, state payloads are evicted to the log and re-read on
//!   demand (0, the default, keeps everything in RAM: crash-safe but
//!   not RAM-capped).
//! * `--checkpoint-interval SECS` — wall-clock checkpoint cadence
//!   (default 1.0; 0 checkpoints at every opportunity).
//! * `--resume DIR` — resume a `--spill-dir DIR` run. Takes the place
//!   of the spec positional: the spec path and engine shape come from
//!   `DIR/meta.json` (flags after `--resume` still override). Phases
//!   whose manifest is terminal are restored without re-searching;
//!   corrupt or truncated-below-manifest logs fail with a diagnostic.
//! * `--crash-after-states N` — test hook for the crash-recovery
//!   harness: abort the process (as kill -9) after N newly inserted
//!   states.
//!
//! Fault-injection flags (verify only, see `docs/fault_injection.md`):
//!
//! * `--faults SPEC` — after the clean pipeline passes, run seeded random
//!   walks through the wire-fault harness. SPEC is comma-separated
//!   `kind=rate` pairs, e.g. `drop=0.05,dup=0.02`; kinds are `drop`,
//!   `dup`, `reorder`, `delay`.
//! * `--seed N` — base seed for the fault walks (default 0); the same
//!   spec + seed reproduces the same faults byte for byte.
//! * `--fault-budget F` — model-check the fault closure: prove safety and
//!   progress under every placement of up to `F` drop/duplicate faults.
//!
//! Specs are written in the textual form of `ccr_core::text` — see the
//! bundled files under `specs/`.

use ccr_core::dot::{dot_automaton, dot_spec};
use ccr_core::refine::{refine, RefineOptions, ReqRepMode};
use ccr_core::text::{parse_validated, to_text};
use ccr_faults::{parse_fault_spec, FaultPlan, FaultRates, FaultSpec, FaultStats};
use ccr_mc::faultmode::FaultClosureReport;
use ccr_mc::report::SearchReport;
use ccr_mc::search::{
    Budget, PersistOpts, Search, SearchObserver, StatusReporter, DEFAULT_HEARTBEAT_INTERVAL,
};
use ccr_mc::simrel::check_simulation;
use ccr_mc::{CrashSwitch, Reduced};
use ccr_metrics::jsonval::Json;
use ccr_metrics::profile::{parse_folded, ProfileAgg, Profiler, SpanKind};
use ccr_metrics::status::{RunStatus, StatusWriter};
use ccr_metrics::timeseries::{
    process_rss_bytes, sparkline, Recorder, Timeline, DEFAULT_STALL_AFTER,
};
use ccr_metrics::Registry;
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_runtime::sched::RandomSched;
use ccr_runtime::sim::Simulator;
use ccr_runtime::{FaultClosure, FaultHarness, TransitionSystem};
use ccr_trace::{JsonlSink, NullSink, TeeSink, TraceEvent, TraceSink};
use serde::{MapSer, Serialize, Serializer};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Writes to standard output for the `print!`/`println!` of this file.
/// A reader that went away (`ccr report <run-dir> | head -1`) is not an
/// error of ours: the process ends quietly, as a tool killed by SIGPIPE
/// would, instead of panicking the way the standard macros do.
fn print_or_end(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// Shadows the standard macro for the rest of the file: same output,
/// closed-pipe handling of [`print_or_end`].
macro_rules! print {
    ($($arg:tt)*) => { print_or_end(format_args!($($arg)*)) };
}

/// Shadows the standard macro for the rest of the file, like [`print!`].
macro_rules! println {
    () => { print_or_end(format_args!("\n")) };
    ($($arg:tt)*) => { print_or_end(format_args!("{}\n", format_args!($($arg)*))) };
}

/// Number of seeded random walks run by `verify --faults`.
const FAULT_WALKS: u32 = 3;

/// Steps per fault walk (scheduler decisions, including recovery waits).
const FAULT_WALK_STEPS: u64 = 20_000;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ccr <fmt|check|refine|dot|verify|table> <spec.ccp> \
         [-n N] [--budget STATES] [--no-opt] [--refined] [--threads T] \
         [--symmetry on|off|auto] [--trace FILE] [--progress] [--json] \
         [--metrics PATH|-] [--metrics-format json|prometheus] \
         [--profile PATH|-] [--progress-interval SECS] [--status PATH] \
         [--run-dir DIR] [--async] \
         [--timeline PATH] [--stall-after K] [--inject-stall-ms MS] \
         [--spill-dir DIR] [--spill-bytes B] [--checkpoint-interval SECS] \
         [--crash-after-states N] \
         [--faults SPEC] [--seed N] [--fault-budget F]\n\
         \x20      ccr verify --resume <spill-dir> [flags]\n\
         \x20      ccr watch <status-file> [--once] [--interval SECS] \
         [--timeout SECS] [--stale-timeout SECS]\n\
         \x20      ccr report <run-dir> [--json]\n\
         \x20      ccr timeline <run-dir|timeline.jsonl> [--json]\n\
         \x20      ccr fuzz [--seed S] [--count N] [-n N] [--budget STATES] \
         [--fault-budget F] [--shrink] [--corpus DIR] [--inject-broken] [--json]\n\
         \x20      ccr bench diff <old.json> <new.json> \
         [--tolerance T] [--bytes-tolerance B]"
    );
    ExitCode::from(2)
}

struct Args {
    cmd: String,
    file: String,
    n: u32,
    budget: usize,
    no_opt: bool,
    refined: bool,
    trace: Option<String>,
    progress: bool,
    json: bool,
    faults: Option<String>,
    seed: u64,
    fault_budget: Option<u32>,
    threads: usize,
    threads_explicit: bool,
    symmetry: Symmetry,
    metrics: Option<String>,
    metrics_format: MetricsFormat,
    profile: Option<String>,
    progress_interval: Duration,
    status: Option<String>,
    run_dir: Option<String>,
    timeline: Option<String>,
    stall_after: u32,
    inject_stall_ms: u64,
    async_only: bool,
    spill_dir: Option<String>,
    spill_bytes: usize,
    checkpoint_interval: Duration,
    resume: bool,
    crash_after: Option<u64>,
}

impl Args {
    /// Worker count handed to the search helpers: 0 selects the serial
    /// engine; any explicit `--threads T` — including `T = 1` — selects
    /// the sharded parallel engine. A 1-worker parallel run is how the
    /// engine's coordination overhead (ship/drain/barrier-wait spans) is
    /// measured against the serial baseline.
    fn engine_threads(&self) -> usize {
        if self.threads_explicit {
            self.threads
        } else {
            0
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    Json,
    Prometheus,
}

/// The `--symmetry` mode: whether to dedupe permutation-equivalent
/// states during exploration (see `docs/symmetry.md`).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    On,
    Off,
    Auto,
}

/// Pulls the value of a flag that takes one, usage error otherwise.
fn req(it: &mut std::vec::IntoIter<String>) -> Result<String, ExitCode> {
    it.next().ok_or_else(usage)
}

/// Parses a flag value, usage error on malformed input.
fn num<T: std::str::FromStr>(s: String) -> Result<T, ExitCode> {
    s.parse().map_err(|_| usage())
}

/// Replays the engine-shaping arguments recorded in `<dir>/meta.json`
/// by the run being resumed, so the resumed search rebuilds the state
/// space the checkpoint belongs to. Flags given alongside `--resume`
/// still override — `--threads` is safe (checkpoints are thread-count
/// agnostic), though serial and parallel checkpoints don't mix and a
/// parallel manifest pins its shard count.
fn apply_resume_meta(out: &mut Args, dir: &str) -> Result<(), ExitCode> {
    let path = format!("{dir}/meta.json");
    let fail = |msg: String| {
        eprintln!("ccr: cannot resume {dir}: {msg}");
        ExitCode::FAILURE
    };
    let text = std::fs::read_to_string(&path).map_err(|e| fail(format!("{path}: {e}")))?;
    let j = Json::parse(&text).map_err(|e| fail(format!("{path}: {e}")))?;
    out.file = j
        .get("spec")
        .and_then(Json::as_str)
        .ok_or_else(|| fail(format!("{path}: no \"spec\" entry")))?
        .to_string();
    if let Some(v) = j.get("n").and_then(Json::as_u64) {
        out.n = v as u32;
    }
    if let Some(v) = j.get("budget_states").and_then(Json::as_u64) {
        out.budget = v as usize;
    }
    if let Some(v) = j.get("no_opt").and_then(Json::as_bool) {
        out.no_opt = v;
    }
    if let Some(v) = j.get("engine_threads").and_then(Json::as_u64) {
        out.threads_explicit = v > 0;
        out.threads = (v as usize).max(1);
    }
    if let Some(v) = j.get("symmetry").and_then(Json::as_str) {
        out.symmetry = if v == "on" { Symmetry::On } else { Symmetry::Off };
    }
    if let Some(v) = j.get("async_only").and_then(Json::as_bool) {
        out.async_only = v;
    }
    if let Some(v) = j.get("spill_bytes").and_then(Json::as_u64) {
        out.spill_bytes = v as usize;
    }
    if let Some(v) = j.get("checkpoint_interval_ms").and_then(Json::as_u64) {
        out.checkpoint_interval = Duration::from_millis(v);
    }
    Ok(())
}

/// Argument parser. A parse failure carries the exit code to return:
/// `usage()`'s code 2 for syntax errors, `FAILURE` after a printed
/// diagnostic (e.g. an unreadable `--resume` meta file).
fn parse_args() -> Result<Args, ExitCode> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return Err(usage());
    }
    let cmd = argv.remove(0);
    let mut out = Args {
        cmd,
        file: String::new(),
        n: 2,
        budget: 2_000_000,
        no_opt: false,
        refined: false,
        trace: None,
        progress: false,
        json: false,
        faults: None,
        seed: 0,
        fault_budget: None,
        threads: 1,
        threads_explicit: false,
        symmetry: Symmetry::Auto,
        metrics: None,
        metrics_format: MetricsFormat::Json,
        profile: None,
        progress_interval: DEFAULT_HEARTBEAT_INTERVAL,
        status: None,
        run_dir: None,
        timeline: None,
        stall_after: DEFAULT_STALL_AFTER,
        inject_stall_ms: 0,
        async_only: false,
        spill_dir: None,
        spill_bytes: 0,
        checkpoint_interval: Duration::from_secs(1),
        resume: false,
        crash_after: None,
    };
    // `--resume DIR` stands in for the spec positional: the spec path
    // and engine shape are replayed from DIR/meta.json.
    if let Some(pos) = argv.iter().position(|a| a == "--resume") {
        if pos + 1 >= argv.len() {
            return Err(usage());
        }
        let dir = argv.remove(pos + 1);
        argv.remove(pos);
        apply_resume_meta(&mut out, &dir)?;
        out.spill_dir = Some(dir);
        out.resume = true;
    } else {
        if argv.is_empty() || argv[0].starts_with('-') {
            return Err(usage());
        }
        out.file = argv.remove(0);
    }
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-n" => out.n = num(req(&mut it)?)?,
            "--budget" => out.budget = num(req(&mut it)?)?,
            "--no-opt" => out.no_opt = true,
            "--refined" => out.refined = true,
            "--trace" => out.trace = Some(req(&mut it)?),
            "--progress" => out.progress = true,
            "--json" => out.json = true,
            "--faults" => out.faults = Some(req(&mut it)?),
            "--seed" => out.seed = num(req(&mut it)?)?,
            "--fault-budget" => out.fault_budget = Some(num(req(&mut it)?)?),
            "--threads" => {
                out.threads = num(req(&mut it)?)?;
                if out.threads < 1 {
                    return Err(usage());
                }
                out.threads_explicit = true;
            }
            "--symmetry" => {
                out.symmetry = match req(&mut it)?.as_str() {
                    "on" => Symmetry::On,
                    "off" => Symmetry::Off,
                    "auto" => Symmetry::Auto,
                    _ => return Err(usage()),
                }
            }
            "--metrics" => out.metrics = Some(req(&mut it)?),
            "--metrics-format" => {
                out.metrics_format = match req(&mut it)?.as_str() {
                    "json" => MetricsFormat::Json,
                    "prometheus" => MetricsFormat::Prometheus,
                    _ => return Err(usage()),
                }
            }
            "--profile" => out.profile = Some(req(&mut it)?),
            "--progress-interval" => {
                let secs: f64 = num(req(&mut it)?)?;
                if secs < 0.0 {
                    return Err(usage());
                }
                out.progress_interval = Duration::from_secs_f64(secs);
            }
            "--status" => out.status = Some(req(&mut it)?),
            "--run-dir" => out.run_dir = Some(req(&mut it)?),
            "--timeline" => out.timeline = Some(req(&mut it)?),
            "--stall-after" => {
                out.stall_after = num(req(&mut it)?)?;
                if out.stall_after < 1 {
                    return Err(usage());
                }
            }
            "--inject-stall-ms" => out.inject_stall_ms = num(req(&mut it)?)?,
            "--async" => out.async_only = true,
            "--spill-dir" => {
                if out.resume {
                    eprintln!(
                        "ccr: --spill-dir conflicts with --resume (the resume \
                         directory is the spill directory)"
                    );
                    return Err(ExitCode::from(2));
                }
                out.spill_dir = Some(req(&mut it)?);
            }
            "--spill-bytes" => out.spill_bytes = num(req(&mut it)?)?,
            "--checkpoint-interval" => {
                let secs: f64 = num(req(&mut it)?)?;
                if secs < 0.0 {
                    return Err(usage());
                }
                out.checkpoint_interval = Duration::from_secs_f64(secs);
            }
            "--crash-after-states" => out.crash_after = Some(num(req(&mut it)?)?),
            _ => return Err(usage()),
        }
    }
    if out.cmd != "verify" && (out.spill_dir.is_some() || out.crash_after.is_some()) {
        eprintln!("ccr: --spill-dir/--resume/--crash-after-states apply to `verify` only");
        return Err(ExitCode::from(2));
    }
    if out.crash_after.is_some() && out.spill_dir.is_none() {
        eprintln!(
            "ccr: --crash-after-states needs --spill-dir (it exercises the \
             crash-recovery harness)"
        );
        return Err(ExitCode::from(2));
    }
    // `--run-dir DIR` is shorthand for the per-artifact flags; explicit
    // flags win.
    if let Some(dir) = &out.run_dir {
        let join = |name: &str| format!("{dir}/{name}");
        out.trace.get_or_insert_with(|| join("trace.jsonl"));
        out.metrics.get_or_insert_with(|| join("metrics.json"));
        out.profile.get_or_insert_with(|| join("profile.folded"));
        out.status.get_or_insert_with(|| join("status.json"));
        out.timeline.get_or_insert_with(|| join("timeline.jsonl"));
    }
    Ok(out)
}

/// Records the engine-shaping arguments of a spill run in
/// `<root>/meta.json`, so `--resume <root>` can replay them without the
/// spec positional. `symmetry` is stored resolved (`on`/`off`), never
/// as the `auto` request: the reduction decides which state space the
/// logs encode, and a resume must rebuild the same one.
fn write_meta(root: &Path, args: &Args, reduce: bool) -> Result<(), ExitCode> {
    let mut s = Serializer::new();
    {
        let mut m = s.begin_map();
        m.entry("spec", args.file.as_str());
        m.entry("n", &args.n);
        m.entry("budget_states", &args.budget);
        m.entry("no_opt", &args.no_opt);
        m.entry("engine_threads", &args.engine_threads());
        m.entry("symmetry", if reduce { "on" } else { "off" });
        m.entry("async_only", &args.async_only);
        m.entry("spill_bytes", &args.spill_bytes);
        m.entry("checkpoint_interval_ms", &(args.checkpoint_interval.as_millis() as u64));
        m.end();
    }
    let path = root.join("meta.json");
    std::fs::write(&path, format!("{}\n", s.into_string())).map_err(|e| {
        eprintln!("ccr: cannot write {}: {e}", path.display());
        ExitCode::FAILURE
    })
}

/// Prints `Heartbeat` events to stderr as live progress lines; every
/// other event is dropped.
struct ProgressSink;

impl TraceSink for ProgressSink {
    fn emit(&mut self, ev: &TraceEvent) {
        if let TraceEvent::Heartbeat { states, frontier, store_bytes, states_per_sec, elapsed_ms } =
            ev
        {
            eprintln!(
                "  [{:>7} ms] {} states, frontier {}, {} KB, {} states/s",
                elapsed_ms,
                states,
                frontier,
                store_bytes / 1024,
                states_per_sec
            );
        }
    }
}

/// Evaluates `$run` with `$s` bound to the system a search phase should
/// sweep: `$sys` itself, or — when `$reduce` is set — its symmetry-reduced
/// quotient, whose orbit metrics are flushed to `$registry` afterwards.
/// Sound for explorations and for the progress check alike (whether *a*
/// completion exists from a state is an orbit property), and trails stay
/// concrete either way: the reduced frontier holds first-discovered orbit
/// representatives and real labels. Under `--spill-dir` the logs of a
/// reduced phase hold canonical representatives — which is why
/// `meta.json` records the resolved choice for `--resume` to replay.
///
/// This is the one decision the CLI takes per phase; which engine runs
/// it, and whether it persists, is [`Search`]'s.
macro_rules! with_symmetry {
    ($sys:expr, $reduce:expr, $registry:expr, |$s:ident| $run:expr) => {
        if $reduce {
            let red = Reduced::new($sys);
            let $s = &red;
            let report = $run;
            red.record_metrics($registry);
            report
        } else {
            let $s = $sys;
            $run
        }
    };
}

/// Builds the `--status` writer, creating missing parent directories up
/// front so an unwritable location is a clean error with the offending
/// path instead of silently dropped heartbeats.
fn status_writer_for(args: &Args) -> Result<Option<StatusWriter>, ExitCode> {
    let Some(path) = &args.status else {
        return Ok(None);
    };
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("ccr: cannot create {}: {e}", parent.display());
                return Err(ExitCode::FAILURE);
            }
        }
    }
    Ok(Some(StatusWriter::create(path.as_str())))
}

/// Builds the `--timeline` flight recorder, creating missing parent
/// directories up front as for `--status`. Disabled (a one-branch null
/// object) when the flag is absent.
fn recorder_for(args: &Args) -> Result<Recorder, ExitCode> {
    let Some(path) = &args.timeline else {
        return Ok(Recorder::disabled());
    };
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("ccr: cannot create {}: {e}", parent.display());
                return Err(ExitCode::FAILURE);
            }
        }
    }
    Recorder::create(
        Path::new(path),
        &args.file,
        args.progress_interval.as_millis() as u64,
        args.stall_after,
    )
    .map_err(|e| {
        eprintln!("ccr: cannot create {path}: {e}");
        ExitCode::FAILURE
    })
}

/// The `--trace` file sink (or a null sink when the flag is absent).
fn file_sink(trace: &Option<String>) -> Result<Box<dyn TraceSink>, ExitCode> {
    match trace {
        Some(path) => match JsonlSink::create(path) {
            Ok(s) => Ok(Box::new(s)),
            Err(e) => {
                eprintln!("ccr: cannot create {path}: {e}");
                Err(ExitCode::FAILURE)
            }
        },
        None => Ok(Box::new(NullSink)),
    }
}

/// Result of the seeded random-walk phase of `ccr verify --faults`.
#[derive(Debug, Serialize)]
struct FaultWalkReport {
    /// Base seed; walk `w` uses `seed + w`.
    seed: u64,
    /// The `--faults` spec as given on the command line.
    rates: String,
    /// Number of independent walks.
    walks: u32,
    /// Scheduler decisions per walk (recovery waits included).
    steps_per_walk: u64,
    /// Rendezvous completions across all faulted walks.
    completed: u64,
    /// Wire messages across all faulted walks, retransmission attempts
    /// included — they consume bandwidth even when lost again.
    messages: u64,
    /// Messages per completion under faults.
    msgs_per_completion: Option<f64>,
    /// Messages per completion of the clean twin runs (same seeds).
    clean_msgs_per_completion: Option<f64>,
    /// Faulted over clean messages-per-completion.
    degradation: Option<f64>,
    /// True if any walk wedged with no recovery pending.
    deadlocked: bool,
    /// Runtime error that aborted a walk — typically a reorder fault
    /// surfacing the protocol's FIFO assumption (e.g. a request overtaking
    /// a writeback). Unlike drops and duplicates, reorders are not masked
    /// by the recovery layer, so this is the probe working as intended.
    error: Option<String>,
    /// Aggregated injection/recovery counters.
    faults: FaultStats,
}

impl FaultWalkReport {
    /// The walks pass when every run kept completing rendezvous.
    fn holds(&self) -> bool {
        self.error.is_none() && !self.deadlocked && self.completed > 0
    }
}

/// Folds aggregated injection/recovery counters into the registry (the
/// `fault_*` family). The walks are seeded, so given the same spec and
/// seed these are deterministic.
fn publish_fault_stats(reg: &Registry, fs: &FaultStats) {
    if !reg.enabled() {
        return;
    }
    let c = |name: &str, help: &str, v: u64| reg.counter(name, help).add(v);
    c("fault_drops_total", "Messages dropped by the fault plan", fs.drops);
    c("fault_dups_total", "Messages duplicated by the fault plan", fs.dups);
    c("fault_reorders_total", "Messages reordered by the fault plan", fs.reorders);
    c("fault_delays_total", "Messages delayed by the fault plan", fs.delays);
    c("fault_retransmits_total", "Retransmission attempts by the recovery layer", fs.retransmits);
    c("fault_recovered_total", "Faults recovered by retransmission", fs.recovered);
    c("fault_absorbed_total", "Faults absorbed without a retransmission", fs.absorbed);
}

/// Runs `FAULT_WALKS` seeded random walks of `asys` through the fault
/// harness, plus a clean twin per walk (same scheduler seed, no faults)
/// for the degradation baseline. Fault events stream to `sink`.
fn run_fault_walks(
    asys: &AsyncSystem<'_>,
    rates: FaultRates,
    spec_text: &str,
    seed: u64,
    sink: &mut dyn TraceSink,
    reg: &Registry,
) -> FaultWalkReport {
    let mut faults = FaultStats::default();
    let mut completed = 0u64;
    let mut messages = 0u64;
    let mut clean_completed = 0u64;
    let mut clean_messages = 0u64;
    let mut deadlocked = false;
    let mut error = None;
    'walks: for w in 0..FAULT_WALKS {
        let wseed = seed.wrapping_add(u64::from(w));
        let sched_seed = wseed ^ 0x5EED_CAB1;

        let mut sim = Simulator::new(asys);
        let mut sched = RandomSched::new(sched_seed);
        match sim.run(&mut sched, FAULT_WALK_STEPS) {
            Ok(clean) => {
                clean_completed += clean.stats.total_completed();
                clean_messages += clean.stats.total_messages();
            }
            Err(e) => {
                error = Some(format!("clean twin: {e}"));
                break;
            }
        }

        let plan = FaultPlan::new(FaultSpec::with_rates(rates), wseed);
        let mut harness = FaultHarness::new(plan);
        let mut sim = Simulator::new(asys);
        let mut sched = RandomSched::new(sched_seed);
        for _ in 0..FAULT_WALK_STEPS {
            let fired = match harness.step(&mut sim, &mut sched, |_| true, sink) {
                Ok(f) => f,
                Err(e) => {
                    error = Some(e.to_string());
                    completed += sim.stats().total_completed();
                    messages += sim.stats().total_messages() + harness.stats().retransmits;
                    faults.merge(harness.stats());
                    sim.stats().publish(reg);
                    break 'walks;
                }
            };
            if fired.is_none() && harness.pending_recoveries() == 0 {
                let mut succ = Vec::new();
                match asys.successors(sim.state(), &mut succ) {
                    Ok(()) => {}
                    Err(e) => {
                        error = Some(e.to_string());
                        succ.clear();
                    }
                }
                if succ.is_empty() {
                    deadlocked = error.is_none();
                    break;
                }
            }
        }
        completed += sim.stats().total_completed();
        messages += sim.stats().total_messages() + harness.stats().retransmits;
        faults.merge(harness.stats());
        sim.stats().publish(reg);
        if error.is_some() {
            break;
        }
    }
    publish_fault_stats(reg, &faults);
    let per_op = |msgs: u64, ops: u64| (ops > 0).then(|| msgs as f64 / ops as f64);
    let msgs_per_completion = per_op(messages, completed);
    let clean_msgs_per_completion = per_op(clean_messages, clean_completed);
    let degradation = match (msgs_per_completion, clean_msgs_per_completion) {
        (Some(a), Some(b)) if b > 0.0 => Some(a / b),
        _ => None,
    };
    FaultWalkReport {
        seed,
        rates: spec_text.to_owned(),
        walks: FAULT_WALKS,
        steps_per_walk: FAULT_WALK_STEPS,
        completed,
        messages,
        msgs_per_completion,
        clean_msgs_per_completion,
        degradation,
        deadlocked,
        error,
        faults,
    }
}

/// Writes the registry snapshot to `--metrics` (stdout for `-`), in the
/// `--metrics-format` encoding. No-op when the flag is absent.
fn write_metrics(args: &Args, registry: &Registry) -> Result<(), ExitCode> {
    let Some(path) = &args.metrics else {
        return Ok(());
    };
    // Memory pressure at snapshot time. Nondet-tagged: RSS depends on
    // allocator behavior and the host, never on the state space.
    if let Some(rss) = process_rss_bytes() {
        registry
            .gauge_nondet("mc_rss_bytes", "Resident set size of the process at snapshot time")
            .record_max(rss);
    }
    let snap = registry.snapshot();
    let text = match args.metrics_format {
        MetricsFormat::Json => snap.to_json(),
        MetricsFormat::Prometheus => snap.to_prometheus(),
    };
    if path == "-" {
        println!("{text}");
        return Ok(());
    }
    std::fs::write(path, format!("{text}\n")).map_err(|e| {
        eprintln!("ccr: cannot write {path}: {e}");
        ExitCode::FAILURE
    })
}

/// Builds one phase's observer: metrics + heartbeat interval + profiler,
/// plus a status reporter when `--status` asked for one.
fn observer<'s>(
    sink: &'s mut dyn TraceSink,
    registry: &Registry,
    profiler: &Profiler,
    args: &Args,
    status_writer: &Option<StatusWriter>,
    timeline: &Recorder,
    phase: &str,
) -> SearchObserver<'s> {
    let mut obs = SearchObserver::with_metrics(sink, registry.clone())
        .with_interval(args.progress_interval)
        .with_profiler(profiler.clone());
    if let Some(writer) = status_writer {
        let mut rep = StatusReporter::new(writer.clone(), &args.file);
        rep.set_phase(phase);
        // ETA against the state budget: an upper bound on remaining
        // work, not a prediction of the reachable-set size.
        rep.set_target(Some(args.budget as u64));
        obs = obs.with_status(rep);
    }
    if timeline.enabled() {
        timeline.set_phase(phase);
        obs = obs.with_timeline(timeline.clone());
    }
    obs
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Nanoseconds across the parallel engine's exchange machinery — the
/// "how much of the run is overhead, not search" bucket the roadmap's
/// parallel-performance work keys on.
fn sync_overhead_nanos(agg: &ProfileAgg) -> u64 {
    [SpanKind::Ship, SpanKind::Drain, SpanKind::BarrierWait]
        .iter()
        .map(|k| agg.kind(*k).nanos)
        .sum()
}

/// Appends the per-worker attribution breakdown as the `profile` key of
/// a JSON report map.
fn profile_entry(m: &mut MapSer<'_>, agg: &ProfileAgg) {
    let totals = agg.totals();
    let grand: u64 = totals.iter().map(|t| t.nanos).sum();
    m.entry_with("profile", |ser| {
        let mut p = ser.begin_map();
        p.entry("total_secs", &(grand as f64 / 1e9));
        p.entry_with("totals", |ser| {
            let mut t = ser.begin_map();
            for (k, kind) in SpanKind::ALL.iter().enumerate() {
                if totals[k].nanos == 0 && totals[k].count == 0 {
                    continue;
                }
                t.entry_with(kind.name(), |ser| {
                    let mut cell = ser.begin_map();
                    cell.entry("secs", &totals[k].secs());
                    cell.entry("count", &totals[k].count);
                    cell.entry("share", &share(totals[k].nanos, grand));
                    cell.end();
                });
            }
            t.end();
        });
        p.entry_with("workers", |ser| {
            let mut seq = ser.begin_seq();
            for w in &agg.workers {
                seq.elem_with(|ser| {
                    let mut wm = ser.begin_map();
                    wm.entry("worker", &w.worker);
                    wm.entry("secs", &(w.total_nanos() as f64 / 1e9));
                    wm.entry_with("share", |ser| {
                        let mut sm = ser.begin_map();
                        for kind in SpanKind::ALL {
                            let t = w.kind(kind);
                            if t.nanos > 0 {
                                sm.entry(kind.name(), &share(t.nanos, w.total_nanos()));
                            }
                        }
                        sm.end();
                    });
                    wm.end();
                });
            }
            seq.end();
        });
        p.entry("sync_overhead_share", &share(sync_overhead_nanos(agg), grand));
        p.end();
    });
}

/// Prints the per-worker attribution table (human output).
fn print_attribution(agg: &ProfileAgg) {
    if agg.is_empty() {
        return;
    }
    for w in &agg.workers {
        let total = w.total_nanos().max(1);
        let cells: Vec<String> = SpanKind::ALL
            .iter()
            .filter(|k| w.kind(**k).nanos > 0)
            .map(|k| format!("{} {:.1}%", k.name(), w.kind(*k).nanos as f64 * 100.0 / total as f64))
            .collect();
        println!("profile: worker {} ({:.4}s): {}", w.worker, total as f64 / 1e9, cells.join(", "));
    }
    let grand = agg.total_nanos();
    println!(
        "profile: ship+drain+barrier_wait share of worker time: {:.1}%",
        share(sync_overhead_nanos(agg), grand) * 100.0
    );
}

/// Writes the folded-stack profile to `--profile` (stdout for `-`).
fn write_profile(path: &str, profiler: &Profiler) -> Result<(), ExitCode> {
    let folded = profiler.folded();
    if path == "-" {
        print!("{folded}");
        return Ok(());
    }
    std::fs::write(path, folded).map_err(|e| {
        eprintln!("ccr: cannot write {path}: {e}");
        ExitCode::FAILURE
    })
}

/// Renders one status snapshot as a watch line.
fn render_status(st: &RunStatus) -> String {
    let eta = match st.eta_ms {
        Some(ms) => format!("{:.1}s", ms as f64 / 1e3),
        None => "-".to_string(),
    };
    let depth = st.depth.map(|d| d.to_string()).unwrap_or_else(|| "-".to_string());
    let spans = if st.spans.is_empty() {
        String::new()
    } else {
        let total: f64 = st.spans.iter().map(|(_, s)| s).sum();
        let cells: Vec<String> = st
            .spans
            .iter()
            .map(|(name, secs)| format!("{name} {:.0}%", secs * 100.0 / total.max(1e-12)))
            .collect();
        format!(" | {}", cells.join(" "))
    };
    format!(
        "[{:>7} ms] {} {}: {} states, {} transitions, frontier {}, depth {}, \
         {:.0} st/s, {} KB, eta {}{}{}",
        st.elapsed_ms,
        st.spec,
        st.phase,
        st.states,
        st.transitions,
        st.frontier,
        depth,
        st.states_per_sec,
        st.store_bytes / 1024,
        eta,
        spans,
        if st.finished {
            format!(" | finished: {}", st.outcome.as_deref().unwrap_or("?"))
        } else {
            String::new()
        }
    )
}

/// Age of a file's last modification, when the filesystem can tell.
fn mtime_age(path: &str) -> Option<Duration> {
    std::fs::metadata(path).ok()?.modified().ok()?.elapsed().ok()
}

/// Whether the process that wrote a status snapshot is still alive
/// (`/proc/<pid>` present). `None` when the snapshot carries no pid or
/// procfs is unavailable — the caller falls back to mtime staleness.
fn writer_alive(st: &RunStatus) -> Option<bool> {
    let pid = st.pid?;
    let proc_dir = format!("/proc/{pid}");
    Path::new(&proc_dir).exists().then_some(true).or(Some(false))
}

/// `ccr watch <status-file> [--once] [--interval SECS] [--timeout SECS]
/// [--stale-timeout SECS]`: tails a live status file (atomic-rename
/// JSON written by `--status`/`--run-dir`), printing a line — with a
/// sparkline of the recent exploration-rate history — whenever the
/// snapshot advances, until the run reports `finished` (or immediately
/// with `--once`). A watcher started before the run is a normal race,
/// not an error: the file is polled until the first snapshot appears,
/// and only a `--timeout` (default 30 s) with no snapshot at all fails
/// the command.
///
/// A run that *died* — snapshot not `finished`, `seq` frozen, and the
/// writing pid gone (or, lacking a pid, the file mtime stale) beyond
/// `--stale-timeout` (default 30 s) — fails the watch with a diagnostic
/// instead of polling forever.
fn cmd_watch(argv: &[String]) -> ExitCode {
    let mut path: Option<&str> = None;
    let mut once = false;
    let mut interval = Duration::from_millis(500);
    let mut timeout = Duration::from_secs(30);
    let mut stale_timeout = Duration::from_secs(30);
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--once" => once = true,
            "--interval" => {
                let Some(secs) = it.next().and_then(|s| s.parse::<f64>().ok()) else {
                    return usage();
                };
                interval = Duration::from_secs_f64(secs.max(0.01));
            }
            "--timeout" => {
                let Some(secs) = it.next().and_then(|s| s.parse::<f64>().ok()) else {
                    return usage();
                };
                timeout = Duration::from_secs_f64(secs.max(0.0));
            }
            "--stale-timeout" => {
                let Some(secs) = it.next().and_then(|s| s.parse::<f64>().ok()) else {
                    return usage();
                };
                stale_timeout = Duration::from_secs_f64(secs.max(0.0));
            }
            _ if path.is_none() && !a.starts_with("--") => path = Some(a),
            _ => return usage(),
        }
    }
    let Some(path) = path else {
        return usage();
    };
    let started = Instant::now();
    let mut seen_any = false;
    let mut last_seq = 0u64;
    let mut last_advance = Instant::now();
    let mut rate_history: Vec<f64> = Vec::new();
    loop {
        match RunStatus::read(Path::new(path)) {
            Ok(st) => {
                seen_any = true;
                if st.seq != last_seq {
                    rate_history.push(st.states_per_sec);
                    let spark = sparkline(&rate_history, 24);
                    if spark.chars().count() > 1 {
                        println!("{}  {spark}", render_status(&st));
                    } else {
                        println!("{}", render_status(&st));
                    }
                    last_seq = st.seq;
                    last_advance = Instant::now();
                }
                if once || st.finished {
                    return ExitCode::SUCCESS;
                }
                // Dead-run detection: the snapshot stopped advancing and
                // the writer is provably gone (pid vanished) or silent
                // past the staleness threshold. A *stalled but alive*
                // run keeps bumping `seq` (status writes ride the
                // heartbeat, not forward progress), so this fires only
                // when the process truly died between snapshots.
                if last_advance.elapsed() > stale_timeout {
                    let dead = match writer_alive(&st) {
                        Some(alive) => !alive,
                        None => mtime_age(path).is_some_and(|age| age > stale_timeout),
                    };
                    if dead {
                        eprintln!(
                            "ccr: watch {path}: run died without finished snapshot \
                             (seq {} frozen for {:.0}s{})",
                            st.seq,
                            last_advance.elapsed().as_secs_f64(),
                            match st.pid {
                                Some(pid) => format!(", pid {pid} gone"),
                                None => ", file stale".to_string(),
                            }
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            // Absent, mid-rename, or mid-write snapshots are all normal
            // while the watched run is alive; the timeout only gates the
            // wait for the *first* snapshot.
            Err(e) => {
                if !seen_any && started.elapsed() > timeout {
                    eprintln!(
                        "ccr: watch {path}: no status snapshot after {:.0}s: {e}",
                        timeout.as_secs_f64()
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        std::thread::sleep(interval);
    }
}

/// Reads and jsonval-validates one run-dir JSON artifact; `None` when
/// the file is absent, an error string when present but invalid.
fn read_artifact(dir: &str, name: &str) -> Result<Option<(String, Json)>, String> {
    let path = format!("{dir}/{name}");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(_) => return Ok(None),
    };
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(Some((text.trim_end().to_string(), json)))
}

/// `ccr report <run-dir> [--json]`: merges a run's artifacts
/// (verify.json, metrics.json, profile.folded, status.json,
/// trace.jsonl, timeline.jsonl — whichever exist) into one
/// self-contained report. Every JSON artifact is validated with the
/// shipped `jsonval` parser, as is the emitted JSON document itself.
fn cmd_report(argv: &[String]) -> ExitCode {
    let mut dir: Option<&str> = None;
    let mut json_out = false;
    for a in argv {
        match a.as_str() {
            "--json" => json_out = true,
            _ if dir.is_none() && !a.starts_with("--") => dir = Some(a),
            _ => return usage(),
        }
    }
    let Some(dir) = dir else {
        return usage();
    };

    let verify = read_artifact(dir, "verify.json");
    let metrics = read_artifact(dir, "metrics.json");
    let status = read_artifact(dir, "status.json");
    let (verify, metrics, status) = match (verify, metrics, status) {
        (Ok(v), Ok(m), Ok(s)) => (v, m, s),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("ccr: report: {e}");
            return ExitCode::FAILURE;
        }
    };
    let profile = match std::fs::read_to_string(format!("{dir}/profile.folded")) {
        Ok(text) => match parse_folded(&text).and_then(|e| ProfileAgg::from_folded(&e)) {
            Ok(agg) => Some(agg),
            Err(e) => {
                eprintln!("ccr: report: profile.folded: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(_) => None,
    };
    // Trace summary: events per variant (externally tagged JSONL).
    let mut trace_counts: Vec<(String, u64)> = Vec::new();
    if let Ok(text) = std::fs::read_to_string(format!("{dir}/trace.jsonl")) {
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let ev = match Json::parse(line) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("ccr: report: trace.jsonl line {}: {e}", i + 1);
                    return ExitCode::FAILURE;
                }
            };
            let variant = ev
                .as_object()
                .and_then(|o| o.first())
                .map(|(k, _)| k.clone())
                .unwrap_or_else(|| "?".to_string());
            match trace_counts.iter_mut().find(|(k, _)| *k == variant) {
                Some((_, n)) => *n += 1,
                None => trace_counts.push((variant, 1)),
            }
        }
    }
    // Flight-recorder timeline, when the run wrote one.
    let timeline = match std::fs::read_to_string(format!("{dir}/timeline.jsonl")) {
        Ok(text) => match Timeline::parse(&text).and_then(|t| {
            t.validate()?;
            Ok(t)
        }) {
            Ok(t) => Some(t.analyze()),
            Err(e) => {
                eprintln!("ccr: report: timeline.jsonl: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(_) => None,
    };
    if verify.is_none() && metrics.is_none() && status.is_none() && profile.is_none() {
        eprintln!("ccr: report: no run artifacts found under {dir}");
        return ExitCode::FAILURE;
    }

    if json_out {
        let mut s = Serializer::new();
        {
            let mut m = s.begin_map();
            m.entry("run_dir", dir);
            for (key, artifact) in [("verify", &verify), ("metrics", &metrics), ("status", &status)]
            {
                match artifact {
                    Some((raw, _)) => m.entry_with(key, |ser| ser.serialize_raw(raw)),
                    None => m.entry(key, &None::<u32>),
                }
            }
            match &profile {
                Some(agg) => profile_entry(&mut m, agg),
                None => m.entry("profile", &None::<u32>),
            }
            m.entry_with("trace_events", |ser| {
                let mut t = ser.begin_map();
                for (k, n) in &trace_counts {
                    t.entry(k, n);
                }
                t.end();
            });
            match &timeline {
                Some(an) => m.entry_with("timeline", |ser| an.serialize_into(ser)),
                None => m.entry("timeline", &None::<u32>),
            }
            m.end();
        }
        let doc = s.into_string();
        if let Err(e) = Json::parse(&doc) {
            eprintln!("ccr: report: emitted JSON failed validation: {e}");
            return ExitCode::FAILURE;
        }
        println!("{doc}");
        return ExitCode::SUCCESS;
    }

    // Markdown rendering.
    let spec = status
        .as_ref()
        .map(|(_, j)| j.get("spec").and_then(Json::as_str).unwrap_or("?").to_string())
        .or_else(|| {
            verify
                .as_ref()
                .map(|(_, j)| j.get("spec").and_then(Json::as_str).unwrap_or("?").to_string())
        })
        .unwrap_or_else(|| "?".to_string());
    println!("# Run report: {spec}");
    println!("\nArtifacts: `{dir}`");
    if let Some((_, v)) = &verify {
        println!("\n## Verification\n");
        let b = |k: &str| v.get(k).and_then(Json::as_bool);
        if let Some(holds) = b("holds") {
            println!("- holds: **{holds}**");
        }
        for key in ["rendezvous", "asynchronous"] {
            if let Some(r) = v.get(key).filter(|r| !matches!(r, Json::Null)) {
                let states = r.get("states").and_then(Json::as_u64).unwrap_or(0);
                let outcome = r
                    .path("outcome.outcome")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .or_else(|| r.get("outcome").and_then(Json::as_str).map(str::to_string))
                    .unwrap_or_else(|| "?".to_string());
                println!("- {key}: {states} states, {outcome}");
            }
        }
    }
    if let Some((raw, _)) = &status {
        println!("\n## Final status\n");
        match RunStatus::parse(raw) {
            Ok(st) => println!("```\n{}\n```", render_status(&st)),
            Err(e) => {
                eprintln!("ccr: report: status.json: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some((_, mjson)) = &metrics {
        if let Some(phases) = mjson.get("phases").and_then(Json::as_object) {
            println!("\n## Phases\n");
            println!("| phase | calls | seconds |");
            println!("|---|---|---|");
            for (name, v) in phases {
                let calls = v.get("calls").and_then(Json::as_u64).unwrap_or(0);
                if let Some(nanos) = v.get("nanos").and_then(Json::as_u64) {
                    println!("| {name} | {calls} | {:.4} |", nanos as f64 / 1e9);
                }
            }
        }
    }
    if let Some(agg) = &profile {
        println!("\n## Profile\n");
        let grand = agg.total_nanos();
        println!("| worker | secs | breakdown |");
        println!("|---|---|---|");
        for w in &agg.workers {
            let total = w.total_nanos().max(1);
            let cells: Vec<String> = SpanKind::ALL
                .iter()
                .filter(|k| w.kind(**k).nanos > 0)
                .map(|k| {
                    format!("{} {:.1}%", k.name(), w.kind(*k).nanos as f64 * 100.0 / total as f64)
                })
                .collect();
            println!("| {} | {:.4} | {} |", w.worker, total as f64 / 1e9, cells.join(", "));
        }
        println!(
            "\nShip + drain + barrier-wait share of worker time: \
             **{:.1}%**",
            share(sync_overhead_nanos(agg), grand) * 100.0
        );
    }
    if let Some(an) = &timeline {
        println!("\n## Timeline\n");
        render_analysis(an);
    }
    if !trace_counts.is_empty() {
        println!("\n## Trace\n");
        for (k, n) in &trace_counts {
            println!("- {k}: {n}");
        }
    }
    ExitCode::SUCCESS
}

/// Human rendering of a timeline analysis: per-phase rate statistics
/// with sparklines, detected rate shifts, and stall diagnostics.
/// Shared by `ccr timeline` and the `## Timeline` report section.
fn render_analysis(an: &ccr_metrics::timeseries::Analysis) {
    println!(
        "{} samples over {:.1}s at {}ms interval ({})",
        an.samples,
        an.duration_ms as f64 / 1e3,
        an.interval_ms,
        an.outcome.as_deref().unwrap_or("no end record")
    );
    for p in &an.phases {
        let spark = sparkline(&p.rates, 32);
        println!(
            "- {}: {} samples, {} states; {:.0}/s mean, {:.0}/s peak  {}",
            p.name, p.samples, p.states, p.mean_states_per_sec, p.peak_states_per_sec, spark
        );
        for sh in &p.shifts {
            println!(
                "  - rate shift at {:.1}s: {:.0}/s -> {:.0}/s",
                sh.t_ms as f64 / 1e3,
                sh.before,
                sh.after
            );
        }
    }
    for st in &an.stalls {
        println!(
            "- stall at {:.1}s: no progress for {} intervals at {} states \
             (frontier {}, queues {:?})",
            st.t_ms as f64 / 1e3,
            st.intervals,
            st.states,
            st.frontier,
            st.queues
        );
        for (w, span, s) in &st.workers {
            println!("  - worker {w}: {span} {:.0}%", s * 100.0);
        }
    }
    if let Some(rss) = an.peak_rss_bytes {
        println!("- peak rss: {:.1} MiB", rss as f64 / (1024.0 * 1024.0));
    }
    if an.spill_bytes > 0 {
        println!(
            "- spill: {:.1} MiB appended, {:.1} MiB compacted",
            an.spill_bytes as f64 / (1024.0 * 1024.0),
            an.compacted_bytes as f64 / (1024.0 * 1024.0)
        );
    }
}

/// `ccr timeline <run-dir|timeline.jsonl> [--json]`: parses and
/// validates a flight-recorder timeline, runs phase/rate analysis,
/// writes the machine summary next to the source as `timeline.json`
/// (self-validated with the shipped `jsonval` parser), and prints the
/// human summary (or the JSON document with `--json`).
fn cmd_timeline(argv: &[String]) -> ExitCode {
    let mut target: Option<&str> = None;
    let mut json_out = false;
    for a in argv {
        match a.as_str() {
            "--json" => json_out = true,
            _ if target.is_none() && !a.starts_with("--") => target = Some(a),
            _ => return usage(),
        }
    }
    let Some(target) = target else {
        return usage();
    };
    let path = if Path::new(target).is_dir() {
        PathBuf::from(target).join("timeline.jsonl")
    } else {
        PathBuf::from(target)
    };
    let timeline = match Timeline::read(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ccr: timeline: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = timeline.validate() {
        eprintln!("ccr: timeline: {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    let analysis = timeline.analyze();
    let doc = analysis.to_json();
    if let Err(e) = Json::parse(&doc) {
        eprintln!("ccr: timeline: emitted JSON failed validation: {e}");
        return ExitCode::FAILURE;
    }
    let out = path.with_file_name("timeline.json");
    if let Err(e) = std::fs::write(&out, format!("{doc}\n")) {
        eprintln!("ccr: timeline: write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    if json_out {
        println!("{doc}");
        return ExitCode::SUCCESS;
    }
    println!("# Timeline: {}", analysis.spec);
    println!();
    render_analysis(&analysis);
    println!("\nSummary written to {}", out.display());
    ExitCode::SUCCESS
}

fn usage_fuzz() -> ExitCode {
    eprintln!(
        "usage: ccr fuzz [--seed S] [--count N] [-n N] [--budget STATES] \
         [--fault-budget F] [--shrink] [--corpus DIR] [--inject-broken] \
         [--json] [--metrics PATH|-] [--metrics-format json|prometheus]"
    );
    ExitCode::from(2)
}

/// `ccr fuzz`: generate `--count` specs from the seeded zoo stream and run
/// each through the differential derivation pipeline (round-trip → refine →
/// Equation 1 → serial/2t/4t/symmetry cross-check → fault closure). Exits
/// nonzero iff any spec fails; `--shrink` minimizes failures and writes
/// them as `.ccp`. Fully deterministic for a given seed and config.
fn cmd_fuzz(argv: &[String]) -> ExitCode {
    let mut seed: u64 = 1;
    let mut count: u64 = 50;
    let mut n: u32 = 2;
    let mut budget: usize = 20_000;
    let mut fault_budget: u32 = 1;
    let mut shrink = false;
    let mut corpus: Option<PathBuf> = None;
    let mut inject = false;
    let mut json = false;
    let mut metrics: Option<String> = None;
    let mut metrics_format = MetricsFormat::Json;
    let mut i = 0;
    while i < argv.len() {
        let value = |i: &mut usize| -> Option<String> {
            *i += 1;
            argv.get(*i).cloned()
        };
        match argv[i].as_str() {
            "--seed" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage_fuzz(),
            },
            "--count" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => count = v,
                None => return usage_fuzz(),
            },
            "-n" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => n = v,
                None => return usage_fuzz(),
            },
            "--budget" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => budget = v,
                None => return usage_fuzz(),
            },
            "--fault-budget" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => fault_budget = v,
                None => return usage_fuzz(),
            },
            "--shrink" => shrink = true,
            "--corpus" => match value(&mut i) {
                Some(v) => corpus = Some(PathBuf::from(v)),
                None => return usage_fuzz(),
            },
            "--inject-broken" => inject = true,
            "--json" => json = true,
            "--metrics" => match value(&mut i) {
                Some(v) => metrics = Some(v),
                None => return usage_fuzz(),
            },
            "--metrics-format" => match value(&mut i).as_deref() {
                Some("json") => metrics_format = MetricsFormat::Json,
                Some("prometheus") => metrics_format = MetricsFormat::Prometheus,
                _ => return usage_fuzz(),
            },
            _ => return usage_fuzz(),
        }
        i += 1;
    }
    let cfg =
        ccr_mc::FuzzConfig { n, budget_states: budget, threads: vec![2, 4], fault_budget, inject };
    if let Some(dir) = &corpus {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("ccr: fuzz: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let registry = if metrics.is_some() { Registry::new() } else { Registry::disabled() };
    let mut rows: Vec<(u64, ccr_mc::SpecVerdict)> = Vec::new();
    let mut shrunk: Vec<(String, String, usize)> = Vec::new();
    let mut failed = 0u64;
    let mut permutable = 0u64;
    let bool_cell = |b: Option<bool>| match b {
        Some(true) => "yes",
        Some(false) => "no",
        None => "-",
    };
    if !json {
        println!(
            "{:>5}  {:<14} {:>4} {:>8} {:>8} {:>9}  {:<11} {:>5} {:>5}  verdict",
            "idx", "name", "sym", "rv", "async", "trans", "outcome", "prog", "fault"
        );
    }
    for idx in 0..count {
        let (shape, verdict) = ccr_mc::fuzz_one(seed, idx, &cfg);
        if let (Some(dir), Ok(spec)) = (&corpus, shape.build()) {
            let path = dir.join(format!("{}.ccp", verdict.name));
            if let Err(e) = std::fs::write(&path, to_text(&spec)) {
                eprintln!("ccr: fuzz: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        if verdict.permutable {
            permutable += 1;
        }
        registry
            .counter("fuzz_rv_states_total", "Rendezvous states explored across the fuzz run")
            .add(verdict.rv_states as u64);
        registry
            .counter("fuzz_async_states_total", "Asynchronous states explored across the fuzz run")
            .add(verdict.async_states as u64);
        if !verdict.passed() {
            failed += 1;
            let kind = verdict.failure.as_ref().map(|f| f.kind()).unwrap_or("unknown");
            registry.counter(&format!("fuzz_fail_{kind}_total"), "Fuzz failures by kind").inc();
            if shrink {
                let sr = ccr_mc::shrink_failing(&shape, &cfg, 256);
                registry
                    .counter("fuzz_shrink_steps_total", "Accepted shrink steps across the run")
                    .add(sr.steps as u64);
                if let Ok(spec) = sr.shape.build() {
                    let text = to_text(&spec);
                    let fname = format!("{}.fail.ccp", verdict.name);
                    if let Some(dir) = &corpus {
                        let path = dir.join(&fname);
                        if let Err(e) = std::fs::write(&path, &text) {
                            eprintln!("ccr: fuzz: cannot write {}: {e}", path.display());
                            return ExitCode::FAILURE;
                        }
                        shrunk.push((fname, path.display().to_string(), sr.steps));
                    } else {
                        if !json {
                            eprintln!(
                                "shrunk counterexample for {} ({} steps):\n{text}",
                                verdict.name, sr.steps
                            );
                        }
                        shrunk.push((fname, "-".to_string(), sr.steps));
                    }
                }
            }
        }
        if !json {
            let (verdict_cell, detail) = match &verdict.failure {
                None => ("pass".to_string(), None),
                Some(f) => (format!("FAIL[{}]", f.kind()), Some(f.to_string())),
            };
            println!(
                "{:>5}  {:<14} {:>4} {:>8} {:>8} {:>9}  {:<11} {:>5} {:>5}  {}",
                idx,
                verdict.name,
                if verdict.permutable { "yes" } else { "no" },
                verdict.rv_states,
                verdict.async_states,
                verdict.async_transitions,
                verdict.outcome.as_ref().map(|o| o.name()).unwrap_or("-"),
                bool_cell(verdict.progress_holds),
                bool_cell(verdict.fault_holds),
                verdict_cell,
            );
            if let Some(d) = detail {
                println!("       ^ {d}");
            }
        }
        rows.push((idx, verdict));
    }
    registry.counter("fuzz_specs_total", "Specs generated and checked").add(count);
    registry.counter("fuzz_failed_total", "Specs that failed the pipeline").add(failed);
    registry
        .counter("fuzz_permutable_total", "Specs that passed the scalarset symmetry check")
        .add(permutable);
    registry
        .counter("fuzz_shrunk_specs_total", "Failing specs minimized by the shrinker")
        .add(shrunk.len() as u64);
    if json {
        let mut s = Serializer::new();
        {
            let mut m = s.begin_map();
            m.entry("seed", &seed);
            m.entry("count", &count);
            m.entry("n", &n);
            m.entry("budget_states", &budget);
            m.entry("fault_budget", &fault_budget);
            m.entry("inject_broken", &inject);
            m.entry("failed", &failed);
            m.entry("permutable", &permutable);
            m.entry_with("specs", |ser| {
                let mut seq = ser.begin_seq();
                for (idx, v) in &rows {
                    seq.elem_with(|ser| {
                        let mut sm = ser.begin_map();
                        sm.entry("index", idx);
                        sm.entry("name", v.name.as_str());
                        sm.entry("permutable", &v.permutable);
                        sm.entry("rv_states", &v.rv_states);
                        sm.entry("async_states", &v.async_states);
                        sm.entry("async_transitions", &v.async_transitions);
                        match &v.outcome {
                            Some(o) => sm.entry("outcome", o.name()),
                            None => sm.entry_with("outcome", |s| s.serialize_null()),
                        }
                        match v.progress_holds {
                            Some(b) => sm.entry("progress_holds", &b),
                            None => sm.entry_with("progress_holds", |s| s.serialize_null()),
                        }
                        match v.fault_holds {
                            Some(b) => sm.entry("fault_holds", &b),
                            None => sm.entry_with("fault_holds", |s| s.serialize_null()),
                        }
                        match &v.failure {
                            Some(f) => sm.entry("failure", &f.to_string()),
                            None => sm.entry_with("failure", |s| s.serialize_null()),
                        }
                        sm.end();
                    });
                }
                seq.end();
            });
            m.entry_with("shrunk", |ser| {
                let mut seq = ser.begin_seq();
                for (name, path, steps) in &shrunk {
                    seq.elem_with(|ser| {
                        let mut sm = ser.begin_map();
                        sm.entry("name", name.as_str());
                        sm.entry("path", path.as_str());
                        sm.entry("steps", steps);
                        sm.end();
                    });
                }
                seq.end();
            });
            m.end();
        }
        println!("{}", s.into_string());
    } else {
        println!(
            "\n{} specs: {} passed, {failed} failed, {permutable} permutable (seed {seed}, n {n}, budget {budget})",
            count,
            count - failed,
        );
        for (name, path, steps) in &shrunk {
            println!("  shrunk {name} ({steps} steps) -> {path}");
        }
    }
    if let Some(path) = &metrics {
        let snap = registry.snapshot();
        let text = match metrics_format {
            MetricsFormat::Json => snap.to_json(),
            MetricsFormat::Prometheus => snap.to_prometheus(),
        };
        if path == "-" {
            println!("{text}");
        } else if let Err(e) = std::fs::write(path, format!("{text}\n")) {
            eprintln!("ccr: fuzz: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    // `ccr bench diff` takes no spec file and none of the pipeline
    // flags; dispatch before the regular argument parse.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("bench") {
        return ccr_bench::diff::cli(&argv[1..]);
    }
    // Same for `watch` and `report`: they operate on run artifacts, not
    // on a spec file.
    if argv.first().map(String::as_str) == Some("watch") {
        return cmd_watch(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("report") {
        return cmd_report(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("timeline") {
        return cmd_timeline(&argv[1..]);
    }
    // `fuzz` generates its own specs; no spec positional either.
    if argv.first().map(String::as_str) == Some("fuzz") {
        return cmd_fuzz(&argv[1..]);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    if let Some(dir) = &args.run_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("ccr: cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }
    // One registry for the whole invocation: real when `--metrics` asked
    // for a snapshot, null (every record a no-op) otherwise.
    let registry = if args.metrics.is_some() { Registry::new() } else { Registry::disabled() };
    let parse_phase = registry.phase("parse");
    let src = match std::fs::read_to_string(&args.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ccr: cannot read {}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };
    let spec = match parse_validated(&src) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ccr: {}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };
    drop(parse_phase);
    let opts =
        RefineOptions { reqrep: if args.no_opt { ReqRepMode::Off } else { ReqRepMode::Auto } };

    match args.cmd.as_str() {
        "fmt" => {
            print!("{}", to_text(&spec));
            ExitCode::SUCCESS
        }
        "check" => {
            // parse_validated already ran the checks.
            println!(
                "ok: {} ({} home states, {} remote states, {} messages)",
                spec.name,
                spec.home.states.len(),
                spec.remote.states.len(),
                spec.msgs.len()
            );
            ExitCode::SUCCESS
        }
        "refine" => {
            let r = match refine(&spec, &opts) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("ccr: refinement failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("protocol {}", spec.name);
            if r.pairs.is_empty() {
                println!("  request/reply pairs: none");
            } else {
                for p in &r.pairs {
                    println!(
                        "  pair: {} answered by {} ({:?})",
                        spec.msg_name(p.req),
                        spec.msg_name(p.repl),
                        p.direction
                    );
                }
            }
            println!(
                "  home automaton: {} states ({} transient), {} edges",
                r.home.states.len(),
                r.home.transient_count(),
                r.home.edges.len()
            );
            println!(
                "  remote automaton: {} states ({} transient), {} edges",
                r.remote.states.len(),
                r.remote.transient_count(),
                r.remote.edges.len()
            );
            println!(
                "  static cost of one round of every rendezvous: {} messages",
                r.total_static_cost()
            );
            ExitCode::SUCCESS
        }
        "dot" => {
            if args.refined {
                match refine(&spec, &opts) {
                    Ok(r) => {
                        print!(
                            "{}",
                            dot_automaton(&r.home, &format!("{} home (refined)", spec.name))
                        );
                        println!();
                        print!(
                            "{}",
                            dot_automaton(&r.remote, &format!("{} remote (refined)", spec.name))
                        );
                    }
                    Err(e) => {
                        eprintln!("ccr: refinement failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                print!("{}", dot_spec(&spec));
            }
            ExitCode::SUCCESS
        }
        "verify" => {
            let budget = Budget::states(args.budget);
            let n = args.n;
            let human = !args.json;
            let fault_rates = match &args.faults {
                Some(spec) => match parse_fault_spec(spec) {
                    Ok(r) => Some(r),
                    Err(e) => {
                        eprintln!("ccr: bad --faults spec: {e}");
                        return usage();
                    }
                },
                None => None,
            };
            let refined = {
                let _p = registry.phase("refine");
                match refine(&spec, &opts) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("ccr: refinement failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            };
            let mut file = match file_sink(&args.trace) {
                Ok(s) => s,
                Err(code) => return code,
            };
            let mut beats: Box<dyn TraceSink> =
                if args.progress { Box::new(ProgressSink) } else { Box::new(NullSink) };
            let mut tee = TeeSink(&mut *file, &mut *beats);
            let run_started = Instant::now();
            let profiler =
                if args.profile.is_some() { Profiler::new() } else { Profiler::disabled() };
            let status_writer: Option<StatusWriter> = match status_writer_for(&args) {
                Ok(w) => w,
                Err(code) => return code,
            };
            let timeline = match recorder_for(&args) {
                Ok(r) => r,
                Err(code) => return code,
            };

            let threads = args.engine_threads();
            // `auto` reduces unless a fault flag is present: the fault
            // phases explore per-link fault ledgers that break remote
            // interchangeability (docs/symmetry.md), and mixing reduced
            // clean phases with concrete fault phases would make the two
            // state counts incomparable. Specs that fail the scalarset
            // check (order-sensitive primitives like `first`) are never
            // reduced, not even under an explicit `on` — it would be
            // unsound.
            let faulty = args.faults.is_some() || args.fault_budget.is_some();
            let permutable = ccr_mc::spec_permutable(&spec);
            let reduce = permutable
                && match args.symmetry {
                    Symmetry::On => true,
                    Symmetry::Off => false,
                    Symmetry::Auto => !faulty,
                };
            if human {
                let asked = match args.symmetry {
                    Symmetry::On => "on",
                    Symmetry::Off => "off",
                    Symmetry::Auto => "auto",
                };
                if args.symmetry != Symmetry::Off && !permutable {
                    println!(
                        "symmetry: {asked} -> off (spec uses order-sensitive \
                         primitives; remotes are not interchangeable, see \
                         docs/symmetry.md)"
                    );
                } else if args.symmetry == Symmetry::Auto && faulty {
                    println!(
                        "symmetry: auto -> off (fault flags present; per-link faults \
                         break remote interchangeability, see docs/symmetry.md)"
                    );
                } else {
                    println!("symmetry: {}", if reduce { "on" } else { "off" });
                }
            }
            // Persistence (tentpole): with `--spill-dir`/`--resume` the
            // two reachability sweeps checkpoint into per-phase
            // subdirectories; `meta.json` records the engine shape for
            // `--resume` to replay (see docs/persistence.md).
            let popts = PersistOpts {
                interval: args.checkpoint_interval,
                evict_at: args.spill_bytes,
                resume: args.resume,
                crash: CrashSwitch::after(args.crash_after),
            };
            let spill_root: Option<PathBuf> = args.spill_dir.as_ref().map(PathBuf::from);
            if let Some(root) = &spill_root {
                if let Err(e) = std::fs::create_dir_all(root) {
                    eprintln!("ccr: cannot create {}: {e}", root.display());
                    return ExitCode::FAILURE;
                }
                if let Err(code) = write_meta(root, &args, reduce) {
                    return code;
                }
            }
            let rv = RendezvousSystem::new(&spec, n);
            // `--async` skips the rendezvous level (and the checks that
            // need it): the async exploration alone, for profiling and
            // benchmarking the parallel engine.
            // Both reachability sweeps of `verify`: deadlock check and
            // trails on, the engine `--threads` picks, checkpointing into
            // the phase's subdirectory under `--spill-dir`.
            let search = Search {
                check_deadlock: true,
                trails: true,
                threads,
                stall_ms: args.inject_stall_ms,
                persist: None,
            };
            let phase_dir = |phase: &str| spill_root.as_ref().map(|root| root.join(phase));
            let r: Option<SearchReport> = if args.async_only {
                None
            } else {
                let rr = {
                    let _p = registry.phase("explore/rendezvous");
                    let mut obs = observer(
                        &mut tee,
                        &registry,
                        &profiler,
                        &args,
                        &status_writer,
                        &timeline,
                        "explore/rendezvous",
                    );
                    let dir = phase_dir("rendezvous");
                    let search = Search { persist: dir.as_deref().map(|d| (d, &popts)), ..search };
                    with_symmetry!(&rv, reduce, &registry, |s| {
                        search.explore(s, &budget, |_| None, &mut obs)
                    })
                };
                if rr.restored && human {
                    println!("rendezvous level: restored from finished checkpoint");
                }
                if let ccr_mc::Outcome::PersistFailure(msg) = &rr.outcome {
                    eprintln!("ccr: persistence failure: {msg}");
                }
                if human {
                    println!("rendezvous level  (n={n}): {} states, {:?}", rr.states, rr.outcome);
                    if rr.trail.is_some() {
                        println!("{}", rr.trail_text());
                    }
                }
                Some(rr)
            };
            let r_ok = r.as_ref().map(|x| x.outcome.is_complete()).unwrap_or(true);

            let asys = AsyncSystem::new(&refined, n, AsyncConfig::default());
            let mut a = None;
            let mut sim = None;
            let mut prog = None;
            if r_ok {
                let ar = {
                    let _p = registry.phase("explore/async");
                    let mut obs = observer(
                        &mut tee,
                        &registry,
                        &profiler,
                        &args,
                        &status_writer,
                        &timeline,
                        "explore/async",
                    );
                    let dir = phase_dir("async");
                    let search = Search { persist: dir.as_deref().map(|d| (d, &popts)), ..search };
                    with_symmetry!(&asys, reduce, &registry, |s| {
                        search.explore(s, &budget, |_| None, &mut obs)
                    })
                };
                if ar.restored && human {
                    println!("asynchronous level: restored from finished checkpoint");
                }
                if let ccr_mc::Outcome::PersistFailure(msg) = &ar.outcome {
                    eprintln!("ccr: persistence failure: {msg}");
                }
                if human {
                    println!("asynchronous level (n={n}): {} states, {:?}", ar.states, ar.outcome);
                    if ar.trail.is_some() {
                        println!("{}", ar.trail_text());
                    }
                }
                let a_ok = ar.outcome.is_complete();
                a = Some(ar);
                if a_ok && !args.async_only {
                    let s = {
                        let _p = registry.phase("check/equation1");
                        check_simulation(&asys, &rv, &budget)
                    };
                    if human {
                        // Running out of budget refutes nothing: only a
                        // counterexample edge is a violation.
                        let verdict = if s.holds() {
                            "holds".to_string()
                        } else if s.violation.is_some() {
                            "VIOLATED".to_string()
                        } else {
                            format!("INCOMPLETE (budget exhausted at {} states)", s.async_states)
                        };
                        println!(
                            "Equation 1: {verdict} ({} transitions, {} stutters, {} mapped)",
                            s.transitions_checked, s.stutters, s.mapped_steps
                        );
                        if let Some(v) = &s.violation {
                            println!("{v}");
                        }
                    }
                    let s_ok = s.holds();
                    sim = Some(s);
                    if s_ok {
                        let p = {
                            let _p = registry.phase("check/progress");
                            let mut obs = observer(
                                &mut tee,
                                &registry,
                                &profiler,
                                &args,
                                &status_writer,
                                &timeline,
                                "check/progress",
                            );
                            with_symmetry!(&asys, reduce, &registry, |s| {
                                search.progress(s, &budget, |l| l.completes.is_some(), &mut obs)
                            })
                        };
                        if human {
                            println!(
                                "forward progress: {} ({} states, {} livelocked, {} deadlocked)",
                                if p.holds() { "holds" } else { "VIOLATED" },
                                p.states,
                                p.livelocked_states,
                                p.deadlocked_states
                            );
                        }
                        prog = Some(p);
                    }
                }
            }
            let clean_ok = if args.async_only {
                r_ok && a.as_ref().map(|x| x.outcome.is_complete()).unwrap_or(false)
            } else {
                r_ok && a.as_ref().map(|x| x.outcome.is_complete()).unwrap_or(false)
                    && sim.as_ref().map(|x| x.holds()).unwrap_or(false)
                    && prog.as_ref().map(|x| x.holds()).unwrap_or(false)
            };

            // Fault phases run only once the clean pipeline has passed:
            // fault tolerance of a protocol that is already broken is
            // meaningless and would only bury the primary counterexample.
            // `--async` skips them with the rest of the checks.
            let mut fclosure = None;
            if clean_ok && !args.async_only {
                if let Some(f) = args.fault_budget {
                    let fc = {
                        let _p = registry.phase("check/fault-closure");
                        let mut obs = observer(
                            &mut tee,
                            &registry,
                            &profiler,
                            &args,
                            &status_writer,
                            &timeline,
                            "check/fault-closure",
                        );
                        // Safety, then progress, over every placement of
                        // up to `f` faults: the closure is one more
                        // transition system for the same two checks.
                        let closure = FaultClosure::new(asys.clone(), f);
                        FaultClosureReport {
                            budget_faults: f,
                            explore: search
                                .explore(&closure, &budget, |_| None, &mut obs)
                                .traced_report(),
                            progress: search.progress(
                                &closure,
                                &budget,
                                |l| l.completes.is_some(),
                                &mut obs,
                            ),
                        }
                    };
                    if human {
                        println!(
                            "fault closure (budget={f}): {} ({} states, {} livelocked, {} deadlocked)",
                            if fc.holds() { "holds" } else { "VIOLATED" },
                            fc.explore.states,
                            fc.progress.livelocked_states,
                            fc.progress.deadlocked_states
                        );
                        if fc.explore.trail.is_some() {
                            println!("{}", fc.explore.trail_text());
                        }
                    }
                    fclosure = Some(fc);
                }
            }
            let fclosure_ok = fclosure.as_ref().map(|x| x.holds()).unwrap_or(clean_ok);
            let mut fwalk = None;
            if clean_ok && fclosure_ok && !args.async_only {
                if let (Some(rates), Some(spec_text)) = (fault_rates, &args.faults) {
                    let w = {
                        let _p = registry.phase("check/fault-walks");
                        run_fault_walks(&asys, rates, spec_text, args.seed, &mut tee, &registry)
                    };
                    if human {
                        let fs = &w.faults;
                        println!(
                            "fault walks ({} seed={}): {} — {} completions in {}x{} steps, \
                             msgs/op {} vs clean {} ({}), injected {} (drop={} dup={} reorder={} delay={}), \
                             rexmit={} recovered={} absorbed={}",
                            w.rates,
                            w.seed,
                            if w.holds() { "ok" } else { "FAILED" },
                            w.completed,
                            w.walks,
                            w.steps_per_walk,
                            w.msgs_per_completion
                                .map(|x| format!("{x:.2}"))
                                .unwrap_or_else(|| "-".into()),
                            w.clean_msgs_per_completion
                                .map(|x| format!("{x:.2}"))
                                .unwrap_or_else(|| "-".into()),
                            w.degradation
                                .map(|x| format!("{x:.2}x"))
                                .unwrap_or_else(|| "-".into()),
                            fs.injected(),
                            fs.drops,
                            fs.dups,
                            fs.reorders,
                            fs.delays,
                            fs.retransmits,
                            fs.recovered,
                            fs.absorbed
                        );
                        if let Some(e) = &w.error {
                            println!("fault walk error: {e}");
                        }
                    }
                    fwalk = Some(w);
                }
            }

            let ok = clean_ok
                && fclosure.as_ref().map(|x| x.holds()).unwrap_or(true)
                && fwalk.as_ref().map(|x| x.holds()).unwrap_or(true);

            // Profiling artifacts: nondet-tagged registry counters (so the
            // deterministic metrics snapshot is unaffected), the folded-
            // stack file, and a human attribution table.
            profiler.publish(&registry);
            let agg = profiler.aggregate();
            if human {
                print_attribution(&agg);
            }
            if let Some(path) = &args.profile {
                if let Err(code) = write_profile(path, &profiler) {
                    return code;
                }
            }

            let json_doc = if args.json || args.run_dir.is_some() {
                let _p = registry.phase("report");
                let mut s = Serializer::new();
                {
                    let mut m = s.begin_map();
                    m.entry("spec", spec.name.as_str());
                    m.entry("command", "verify");
                    m.entry("n", &n);
                    m.entry("budget_states", &args.budget);
                    m.entry("optimized", &!args.no_opt);
                    m.entry("threads", &args.threads);
                    m.entry("symmetry", if reduce { "on" } else { "off" });
                    m.entry("seed", &args.seed);
                    m.entry("async_only", &args.async_only);
                    if let Some(dir) = &args.spill_dir {
                        m.entry("spill_dir", dir.as_str());
                        m.entry("spill_bytes", &args.spill_bytes);
                        m.entry("resumed", &args.resume);
                    }
                    m.entry("rendezvous", &r.as_ref().map(SearchReport::traced_report));
                    m.entry("asynchronous", &a.as_ref().map(SearchReport::traced_report));
                    m.entry("equation1", &sim);
                    m.entry("progress", &prog);
                    m.entry("fault_closure", &fclosure);
                    m.entry("fault_walk", &fwalk);
                    if !agg.is_empty() {
                        profile_entry(&mut m, &agg);
                    }
                    m.entry("holds", &ok);
                    m.end();
                }
                Some(s.into_string())
            } else {
                None
            };
            if args.json {
                println!("{}", json_doc.as_deref().unwrap());
            }
            if let Some(dir) = &args.run_dir {
                let path = format!("{dir}/verify.json");
                if let Err(e) = std::fs::write(&path, format!("{}\n", json_doc.as_deref().unwrap()))
                {
                    eprintln!("ccr: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            // Terminal counts for the status snapshot and the flight
            // record: the exact async-level numbers (what the verify
            // JSON reports), falling back to the rendezvous level.
            let (fin_states, fin_transitions, fin_outcome) = match (&a, &r) {
                (Some(x), _) => (x.states as u64, x.transitions as u64, x.outcome.clone()),
                (None, Some(x)) => (x.states as u64, x.transitions as u64, x.outcome.clone()),
                (None, None) => (0, 0, ccr_mc::Outcome::Unfinished),
            };
            // Close the flight record and fold its (nondet) counters in
            // before the metrics snapshot is written.
            timeline.finish(fin_outcome.name(), fin_states, fin_transitions);
            timeline.publish(&registry);
            if let Some(e) = timeline.take_error() {
                eprintln!("ccr: timeline: {e}");
                return ExitCode::FAILURE;
            }
            if let Err(code) = write_metrics(&args, &registry) {
                return code;
            }

            // One terminal snapshot for the whole invocation, marked
            // `finished` so `ccr watch` exits.
            if let Some(writer) = &status_writer {
                let mut rep = StatusReporter::new(writer.clone(), &args.file);
                rep.set_phase("done");
                rep.finalize(
                    &fin_outcome,
                    fin_states,
                    fin_transitions,
                    run_started.elapsed(),
                    &profiler,
                );
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "table" => {
            let budget = Budget::states(args.budget);
            let refined = {
                let _p = registry.phase("refine");
                match refine(&spec, &opts) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("ccr: refinement failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            };
            let mut file = match file_sink(&args.trace) {
                Ok(s) => s,
                Err(code) => return code,
            };
            let mut beats: Box<dyn TraceSink> =
                if args.progress { Box::new(ProgressSink) } else { Box::new(NullSink) };
            let mut tee = TeeSink(&mut *file, &mut *beats);
            let run_started = Instant::now();
            let profiler =
                if args.profile.is_some() { Profiler::new() } else { Profiler::disabled() };
            let status_writer: Option<StatusWriter> = match status_writer_for(&args) {
                Ok(w) => w,
                Err(code) => return code,
            };
            let timeline = match recorder_for(&args) {
                Ok(r) => r,
                Err(code) => return code,
            };
            // `table` reproduces the paper's Table 3, so `auto` keeps the
            // concrete (unreduced) counts; only an explicit `--symmetry
            // on` switches the cells to orbit counts (and only when the
            // spec passes the scalarset check).
            let permutable = ccr_mc::spec_permutable(&spec);
            let reduce = args.symmetry == Symmetry::On && permutable;
            if !args.json {
                if args.symmetry == Symmetry::On && !permutable {
                    println!(
                        "symmetry: on -> off (spec uses order-sensitive primitives; \
                         remotes are not interchangeable, see docs/symmetry.md)"
                    );
                } else if reduce {
                    println!("symmetry: on (cells count orbits, not concrete states)");
                }
                println!("| {:>3} | {:>18} | {:>18} |", "N", "asynchronous", "rendezvous");
            }
            let search = Search { threads: args.engine_threads(), ..Search::default() };
            let mut rows = Vec::new();
            for n in 1..=args.n {
                let rv = {
                    let _p = registry.phase("explore/rendezvous");
                    let mut obs = observer(
                        &mut tee,
                        &registry,
                        &profiler,
                        &args,
                        &status_writer,
                        &timeline,
                        "explore/rendezvous",
                    );
                    let sys = RendezvousSystem::new(&spec, n);
                    with_symmetry!(&sys, reduce, &registry, |s| {
                        search.explore(s, &budget, |_| None, &mut obs).explore_report()
                    })
                };
                let asy = {
                    let _p = registry.phase("explore/async");
                    let mut obs = observer(
                        &mut tee,
                        &registry,
                        &profiler,
                        &args,
                        &status_writer,
                        &timeline,
                        "explore/async",
                    );
                    let sys = AsyncSystem::new(&refined, n, AsyncConfig::default());
                    with_symmetry!(&sys, reduce, &registry, |s| {
                        search.explore(s, &budget, |_| None, &mut obs).explore_report()
                    })
                };
                if !args.json {
                    println!("| {:>3} | {:>18} | {:>18} |", n, asy.table_cell(), rv.table_cell());
                }
                rows.push((n, asy, rv));
            }
            if args.json {
                let _p = registry.phase("report");
                let mut s = Serializer::new();
                {
                    let mut m = s.begin_map();
                    m.entry("spec", spec.name.as_str());
                    m.entry("command", "table");
                    m.entry("budget_states", &args.budget);
                    m.entry("symmetry", if reduce { "on" } else { "off" });
                    m.entry_with("rows", |ser| {
                        let mut seq = ser.begin_seq();
                        for (n, asy, rv) in &rows {
                            seq.elem_with(|ser| {
                                let mut row = ser.begin_map();
                                row.entry("n", n);
                                row.entry("asynchronous", asy);
                                row.entry("rendezvous", rv);
                                row.end();
                            });
                        }
                        seq.end();
                    });
                    m.end();
                }
                println!("{}", s.into_string());
            }
            profiler.publish(&registry);
            if !args.json {
                print_attribution(&profiler.aggregate());
            }
            if let Some(path) = &args.profile {
                if let Err(code) = write_profile(path, &profiler) {
                    return code;
                }
            }
            let (states, transitions, outcome) = rows
                .last()
                .map(|(_, asy, _)| (asy.states as u64, asy.transitions as u64, asy.outcome.clone()))
                .unwrap_or((0, 0, ccr_mc::Outcome::Unfinished));
            timeline.finish(outcome.name(), states, transitions);
            timeline.publish(&registry);
            if let Some(e) = timeline.take_error() {
                eprintln!("ccr: timeline: {e}");
                return ExitCode::FAILURE;
            }
            if let Err(code) = write_metrics(&args, &registry) {
                return code;
            }
            if let Some(writer) = &status_writer {
                let mut rep = StatusReporter::new(writer.clone(), &args.file);
                rep.set_phase("done");
                rep.finalize(&outcome, states, transitions, run_started.elapsed(), &profiler);
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
