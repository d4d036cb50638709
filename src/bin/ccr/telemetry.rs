//! The telemetry of one `verify`/`table` invocation: what the
//! observability flags turn on, set up once ([`Run::start`]), handed to
//! every search phase ([`Run::explore`], [`Run::explore_ridden`],
//! [`Run::equation1`], [`Run::progress`], [`Run::progress_of`]) and torn
//! down once ([`Run::profile_out`], [`Run::finish`]). Also the one metrics
//! snapshot writer and the profile renderings `report` shares.

use crate::flags::Parsed;
use ccr_mc::report::{ExploreReport, ProgressReport, SearchReport, SimRelReport};
use ccr_mc::search::{Budget, Search, SearchObserver, Telemetry};
use ccr_mc::simrel::check_simulation_observed;
use ccr_mc::{Outcome, ProgressGraph, Reduced, Symmetric};
use ccr_metrics::profile::{ProfileAgg, Profiler, SpanKind};
use ccr_metrics::timeseries::{process_rss_bytes, Recorder};
use ccr_metrics::Registry;
use ccr_runtime::asynch::AsyncSystem;
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_runtime::TransitionSystem;
use ccr_trace::{JsonlSink, TraceEvent, TraceSink};
use serde::MapSer;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Prints `ccr: cannot <verb> <path>: <error>` and yields the failure
/// exit code — the shape of every artifact I/O error.
pub fn io_failure(verb: &str, path: impl std::fmt::Display, e: impl std::fmt::Display) -> ExitCode {
    eprintln!("ccr: cannot {verb} {path}: {e}");
    ExitCode::FAILURE
}

/// The event sink of a run: the `--trace` file and, with `--progress`,
/// heartbeat lines on stderr. Each half only sees events while it is on.
pub struct RunSink {
    file: Option<JsonlSink<File>>,
    progress: bool,
}

impl TraceSink for RunSink {
    fn enabled(&self) -> bool {
        self.file.is_some() || self.progress
    }

    fn emit(&mut self, ev: &TraceEvent) {
        if let Some(file) = &mut self.file {
            file.emit(ev);
        }
        if let (
            true,
            TraceEvent::Heartbeat { states, frontier, store_bytes, states_per_sec, elapsed_ms },
        ) = (self.progress, ev)
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

    fn flush(&mut self) {
        if let Some(file) = &mut self.file {
            file.flush();
        }
    }
}

/// Evaluates `$run` with `$s` bound to the system a search phase should
/// sweep: `$sys` itself, or — when `$reduce` is set — its symmetry-reduced
/// quotient, whose orbit metrics are flushed to `$registry` afterwards
/// (`$exact` of the report: whether its orbit counters are the sweep's
/// own — always without threads, and with them once the phase has swept
/// everything).
/// Sound for explorations and for the progress check alike (whether *a*
/// completion exists from a state is an orbit property), and trails stay
/// concrete either way: the reduced frontier holds first-discovered orbit
/// representatives and real labels. Under `--spill-dir` the logs of a
/// reduced phase hold canonical representatives — which is why
/// `meta.json` records the resolved choice for `--resume` to replay.
///
/// This is the one decision the CLI takes per phase; how many threads
/// feed it, and whether it persists, is [`Search`]'s.
macro_rules! with_symmetry {
    ($sys:expr, $reduce:expr, $registry:expr, $exact:expr, |$s:ident| $run:expr) => {
        if $reduce {
            let red = Reduced::new($sys);
            let $s = &red;
            let report = $run;
            red.record_metrics($registry, $exact(&report));
            report
        } else {
            let $s = $sys;
            $run
        }
    };
}

/// Creates the directory a `--status`/`--timeline` file goes into, up
/// front, so an unwritable location is a clean error with the offending
/// path instead of silently dropped samples.
fn create_parent(path: &str) -> Result<(), ExitCode> {
    match Path::new(path).parent().filter(|p| !p.as_os_str().is_empty()) {
        Some(parent) => {
            std::fs::create_dir_all(parent).map_err(|e| io_failure("create", parent.display(), e))
        }
        None => Ok(()),
    }
}

/// The path of one run artifact: its own flag, else its name under
/// `--run-dir DIR` — the shorthand for the per-artifact flags, which
/// win over it.
pub fn artifact(p: &Parsed, flag: &str, name: &str) -> Option<String> {
    p.text(flag).or_else(|| p.text("--run-dir").map(|dir| format!("{dir}/{name}")))
}

/// One invocation's sink and telemetry, and where its end-of-run
/// artifacts go.
pub struct Run {
    pub sink: RunSink,
    pub telemetry: Telemetry,
    profile: Option<String>,
    metrics: Option<String>,
    prometheus: bool,
}

impl Run {
    /// Opens what the observability flags ask for, in the order a
    /// failure should be reported: the trace file, then the status
    /// file's and the flight recorder's directories. `registry` is the
    /// invocation's (it already timed the parse).
    pub fn start(p: &Parsed, registry: Registry) -> Result<Self, ExitCode> {
        let spec = &p.positionals[0];
        let file = match artifact(p, "--trace", "trace.jsonl") {
            Some(path) => {
                Some(JsonlSink::create(&path).map_err(|e| io_failure("create", &path, e))?)
            }
            None => None,
        };
        let profile = artifact(p, "--profile", "profile.folded");
        let interval = p.secs("--progress-interval");
        let status = match artifact(p, "--status", "status.json") {
            Some(path) => {
                create_parent(&path)?;
                Some(PathBuf::from(path))
            }
            None => None,
        };
        let timeline: Option<Box<dyn Write + Send>> =
            match artifact(p, "--timeline", "timeline.jsonl") {
                Some(path) => {
                    create_parent(&path)?;
                    let file = File::create(&path).map_err(|e| io_failure("create", &path, e))?;
                    Some(Box::new(BufWriter::new(file)))
                }
                None => None,
            };
        let telemetry = Telemetry {
            registry,
            profiler: if profile.is_some() { Profiler::new() } else { Profiler::disabled() },
            timeline: Recorder::new(
                spec,
                interval.as_millis() as u64,
                p.num("--stall-after") as u32,
                // ETA against the state budget: an upper bound on
                // remaining work, not a prediction of the reachable-set
                // size.
                Some(p.num("--budget")),
                timeline,
                status,
            ),
            interval,
        };
        Ok(Run {
            sink: RunSink { file, progress: p.on("--progress") },
            telemetry,
            profile,
            metrics: artifact(p, "--metrics", "metrics.json"),
            prometheus: p.text("--metrics-format").as_deref() == Some("prometheus"),
        })
    }

    /// One reachability phase: `search` over `sys` (its quotient under
    /// `reduce`), timed and observed as `phase`.
    pub fn explore<T>(
        &mut self,
        search: &Search<'_>,
        sys: &T,
        reduce: bool,
        phase: &str,
        budget: &Budget,
    ) -> SearchReport
    where
        T: Symmetric + Sync,
        T::State: Send,
    {
        let registry = &self.telemetry.registry;
        let _p = registry.phase(phase);
        let mut obs = SearchObserver::for_phase(&mut self.sink, &self.telemetry, phase);
        let exact = |r: &SearchReport| search.threads == 0 || r.outcome.is_complete();
        with_symmetry!(sys, reduce, registry, exact, |s| {
            search.explore(s, budget, |_| None, &mut obs)
        })
    }

    /// The asynchronous level's reachability phase with Equation 1 and
    /// the progress check riding its sweep (DESIGN.md, "who rides which
    /// sweep"), on the concrete space or its quotient under `reduce`. The
    /// progress graph comes back for [`Run::progress_of`].
    pub fn explore_ridden(
        &mut self,
        search: &Search<'_>,
        asys: &AsyncSystem<'_>,
        rv: &RendezvousSystem<'_>,
        reduce: bool,
        phase: &str,
        budget: &Budget,
    ) -> (SearchReport, SimRelReport, ProgressGraph) {
        let registry = &self.telemetry.registry;
        let _p = registry.phase(phase);
        let mut obs = SearchObserver::for_phase(&mut self.sink, &self.telemetry, phase);
        let exact = |r: &(SearchReport, _, _)| search.threads == 0 || r.0.outcome.is_complete();
        with_symmetry!(asys, reduce, registry, exact, |s| {
            search.verify(s, asys, rv, budget, |l| l.completes.is_some(), &mut obs)
        })
    }

    /// Equation 1 on a sweep of its own, over the concrete space: where
    /// nothing rides, under `--spill-dir`/`--resume`.
    pub fn equation1(
        &mut self,
        asys: &AsyncSystem<'_>,
        rv: &RendezvousSystem<'_>,
        phase: &str,
        budget: &Budget,
    ) -> SimRelReport {
        let _p = self.telemetry.registry.phase(phase);
        let mut obs = SearchObserver::for_phase(&mut self.sink, &self.telemetry, phase);
        check_simulation_observed(asys, rv, budget, &mut obs)
    }

    /// The forward-progress phase when the exploration's sweep already
    /// recorded its graph: the analysis alone.
    pub fn progress_of<T: TransitionSystem>(
        &mut self,
        graph: ProgressGraph,
        sys: &T,
        phase: &str,
    ) -> ProgressReport {
        let _p = self.telemetry.registry.phase(phase);
        let mut obs = SearchObserver::for_phase(&mut self.sink, &self.telemetry, phase);
        graph.check(sys, &mut obs)
    }

    /// The forward-progress phase on a sweep of its own, as
    /// [`Run::explore`] runs one.
    pub fn progress<T>(
        &mut self,
        search: &Search<'_>,
        sys: &T,
        reduce: bool,
        phase: &str,
        budget: &Budget,
    ) -> ProgressReport
    where
        T: Symmetric + Sync,
        T::State: Send,
    {
        let registry = &self.telemetry.registry;
        let _p = registry.phase(phase);
        let mut obs = SearchObserver::for_phase(&mut self.sink, &self.telemetry, phase);
        let exact = |r: &ProgressReport| search.threads == 0 || r.complete;
        with_symmetry!(sys, reduce, registry, exact, |s| {
            search.progress(s, budget, |l| l.completes.is_some(), &mut obs)
        })
    }

    /// The profiling artifacts: the attribution table on a human report
    /// and the folded-stack file (stdout for `-`). Returns the aggregate
    /// for the JSON report.
    pub fn profile_out(&self, human: bool) -> Result<ProfileAgg, ExitCode> {
        let agg = self.telemetry.profiler.aggregate();
        if human {
            print_attribution(&agg);
        }
        if let Some(path) = &self.profile {
            let folded = self.telemetry.profiler.folded();
            if path == "-" {
                print!("{folded}");
            } else {
                std::fs::write(path, folded).map_err(|e| io_failure("write", path, e))?;
            }
        }
        Ok(agg)
    }

    /// Ends the run with the terminal counts of its `last` search (none:
    /// an unfinished run with nothing counted): [`Telemetry::finish`],
    /// then the `--metrics` snapshot, which by then holds the profiler's
    /// and the flight recorder's own counters.
    pub fn finish(&self, last: Option<ExploreReport>) -> Result<(), ExitCode> {
        let done = match &last {
            Some(x) => {
                let (states, transitions) = (x.states as u64, x.transitions as u64);
                self.telemetry.finish(&x.outcome, states, transitions, x.store_bytes as u64)
            }
            None => self.telemetry.finish(&Outcome::Unfinished, 0, 0, 0),
        };
        done.map_err(|e| {
            eprintln!("ccr: {e}");
            ExitCode::FAILURE
        })?;
        let Some(path) = &self.metrics else {
            return Ok(());
        };
        // Memory pressure at snapshot time. Nondet-tagged: RSS depends on
        // allocator behavior and the host, never on the state space.
        if let Some(rss) = process_rss_bytes() {
            self.telemetry
                .registry
                .gauge_nondet("mc_rss_bytes", "Resident set size of the process at snapshot time")
                .record_max(rss);
        }
        write_metrics(path, self.prometheus, &self.telemetry.registry)
    }
}

/// Writes the registry snapshot to `path` (stdout for `-`, as the final
/// line) in the `--metrics-format` encoding.
pub fn write_metrics(path: &str, prometheus: bool, registry: &Registry) -> Result<(), ExitCode> {
    let snap = registry.snapshot();
    let text = if prometheus { snap.to_prometheus() } else { snap.to_json() };
    if path == "-" {
        println!("{text}");
        return Ok(());
    }
    std::fs::write(path, format!("{text}\n")).map_err(|e| io_failure("write", path, e))
}

pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Share of worker time spent handing chunks between the sweep and its
/// `--threads` workers (ship), the sweep waiting for the next chunk in
/// order (drain) and workers waiting for work (barrier-wait) — the "how
/// much of the run is hand-off, not search" bucket. Zero without
/// `--threads`.
pub fn sync_overhead_share(agg: &ProfileAgg) -> f64 {
    let nanos: u64 = [SpanKind::Ship, SpanKind::Drain, SpanKind::BarrierWait]
        .iter()
        .map(|k| agg.kind(*k).nanos)
        .sum();
    share(nanos, agg.total_nanos())
}

/// Per-worker rows of an attribution table: worker id, profiled seconds
/// and the `kind share%` breakdown of its active span kinds.
pub fn worker_rows(agg: &ProfileAgg) -> impl Iterator<Item = (usize, f64, String)> + '_ {
    agg.workers.iter().map(|w| {
        let total = w.total_nanos().max(1);
        let cells: Vec<String> = SpanKind::ALL
            .iter()
            .filter(|k| w.kind(**k).nanos > 0)
            .map(|k| format!("{} {:.1}%", k.name(), w.kind(*k).nanos as f64 * 100.0 / total as f64))
            .collect();
        (w.worker, total as f64 / 1e9, cells.join(", "))
    })
}

/// Prints the per-worker attribution table (human output).
fn print_attribution(agg: &ProfileAgg) {
    if agg.is_empty() {
        return;
    }
    for (worker, secs, cells) in worker_rows(agg) {
        println!("profile: worker {worker} ({secs:.4}s): {cells}");
    }
    println!(
        "profile: ship+drain+barrier_wait share of worker time: {:.1}%",
        sync_overhead_share(agg) * 100.0
    );
}

/// Appends the per-worker attribution breakdown as the `profile` key of
/// a JSON report map.
pub fn profile_entry(m: &mut MapSer<'_>, agg: &ProfileAgg) {
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
        p.entry("sync_overhead_share", &sync_overhead_share(agg));
        p.end();
    });
}
