//! `ccr verify`: reachability at both levels with the deadlock check,
//! Equation 1, forward progress and — opt-in — fault tolerance (the
//! fault closure and seeded lossy walks), with checkpointing under
//! `--spill-dir` / `--resume`.

use crate::flags::{Parsed, Value};
use crate::telemetry::{io_failure, profile_entry, Run};
use crate::{engine_threads, misuse, refined};
use ccr_core::process::ProtocolSpec;
use ccr_faults::{parse_fault_spec, FaultPlan, FaultRates, FaultSpec, FaultStats};
use ccr_mc::faultmode::FaultClosureReport;
use ccr_mc::report::SearchReport;
use ccr_mc::search::{Budget, PersistOpts, Search, SearchObserver};
use ccr_mc::{CrashSwitch, Outcome};
use ccr_metrics::jsonval::Json;
use ccr_metrics::Registry;
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_runtime::sched::RandomSched;
use ccr_runtime::sim::Simulator;
use ccr_runtime::{FaultClosure, FaultHarness, TransitionSystem};
use ccr_trace::TraceSink;
use serde::{Serialize, Serializer};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Why a spec that fails the scalarset check is not reduced, as `verify`
/// and `table` both say it.
pub const NOT_PERMUTABLE: &str = "spec uses order-sensitive primitives; \
    remotes are not interchangeable, see docs/symmetry.md";

/// Number of seeded random walks run by `verify --faults`.
const FAULT_WALKS: u32 = 3;

/// Steps per fault walk (scheduler decisions, including recovery waits).
const FAULT_WALK_STEPS: u64 = 20_000;

/// Replays the engine shape a `--spill-dir` run recorded in
/// `<dir>/meta.json` beneath the command line, so the resumed search
/// rebuilds the state space the checkpoint belongs to: the spec path
/// becomes the positional, and each recorded value stands where its flag
/// was not given. `--threads` is safe to override: a checkpoint is the
/// same at every thread count.
pub fn replay_meta(p: &mut Parsed, dir: &str) -> Result<(), ExitCode> {
    let path = format!("{dir}/meta.json");
    let fail = |msg: String| {
        eprintln!("ccr: cannot resume {dir}: {msg}");
        ExitCode::FAILURE
    };
    let text = std::fs::read_to_string(&path).map_err(|e| fail(format!("{path}: {e}")))?;
    let doc = Json::parse(&text).map_err(|e| fail(format!("{path}: {e}")))?;
    let spec = doc.get("spec").and_then(Json::as_str);
    p.positionals.push(spec.ok_or_else(|| fail(format!("{path}: no \"spec\" entry")))?.to_string());
    let num = |key: &str| doc.get(key).and_then(Json::as_u64);
    for (flag, key) in
        [("-n", "n"), ("--budget", "budget_states"), ("--spill-bytes", "spill_bytes")]
    {
        if let Some(v) = num(key) {
            p.record(flag, Value::Count(v));
        }
    }
    // `engine_threads: 0` is `--threads` absent.
    if let Some(t) = num("engine_threads").filter(|t| *t > 0) {
        p.record("--threads", Value::Count(t));
    }
    for (flag, key) in [("--no-opt", "no_opt"), ("--async", "async_only")] {
        if doc.get(key).and_then(Json::as_bool) == Some(true) {
            p.record(flag, Value::On);
        }
    }
    if let Some(resolved) = doc.get("symmetry").and_then(Json::as_str) {
        let mode = if resolved == "on" { "on" } else { "off" };
        p.record("--symmetry", Value::Text(mode.to_string()));
    }
    if let Some(ms) = num("checkpoint_interval_ms") {
        p.record("--checkpoint-interval", Value::Seconds(Duration::from_millis(ms)));
    }
    Ok(())
}

/// Records the engine-shaping arguments of a spill run in
/// `<root>/meta.json`, so `--resume <root>` can replay them without the
/// spec positional. `symmetry` is stored resolved (`on`/`off`), never
/// as the `auto` request: the reduction decides which state space the
/// logs encode, and a resume must rebuild the same one.
fn write_meta(root: &Path, p: &Parsed, reduce: bool) -> Result<(), ExitCode> {
    let mut s = Serializer::new();
    {
        let mut m = s.begin_map();
        m.entry("spec", p.positionals[0].as_str());
        m.entry("n", &(p.num("-n") as u32));
        m.entry("budget_states", &p.num("--budget"));
        m.entry("no_opt", &p.on("--no-opt"));
        m.entry("engine_threads", &engine_threads(p));
        m.entry("symmetry", if reduce { "on" } else { "off" });
        m.entry("async_only", &p.on("--async"));
        m.entry("spill_bytes", &p.num("--spill-bytes"));
        m.entry("checkpoint_interval_ms", &(p.secs("--checkpoint-interval").as_millis() as u64));
        m.end();
    }
    let path = root.join("meta.json");
    std::fs::write(&path, format!("{}\n", s.into_string()))
        .map_err(|e| io_failure("write", path.display(), e))
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

    /// The human one-liner (plus the error line, when a walk aborted).
    fn print(&self) {
        let cell = |x: Option<f64>, unit: &str| {
            x.map(|x| format!("{x:.2}{unit}")).unwrap_or_else(|| "-".into())
        };
        let fs = &self.faults;
        println!(
            "fault walks ({} seed={}): {} — {} completions in {}x{} steps, \
             msgs/op {} vs clean {} ({}), injected {} (drop={} dup={} reorder={} delay={}), \
             rexmit={} recovered={} absorbed={}",
            self.rates,
            self.seed,
            if self.holds() { "ok" } else { "FAILED" },
            self.completed,
            self.walks,
            self.steps_per_walk,
            cell(self.msgs_per_completion, ""),
            cell(self.clean_msgs_per_completion, ""),
            cell(self.degradation, "x"),
            fs.injected(),
            fs.drops,
            fs.dups,
            fs.reorders,
            fs.delays,
            fs.retransmits,
            fs.recovered,
            fs.absorbed
        );
        if let Some(e) = &self.error {
            println!("fault walk error: {e}");
        }
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
    for w in 0..FAULT_WALKS {
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
                    break;
                }
            };
            if fired.is_none() && harness.pending_recoveries() == 0 {
                let mut succ = Vec::new();
                if let Err(e) = asys.successors(sim.state(), &mut succ) {
                    error = Some(e.to_string());
                    succ.clear();
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

/// `holds` / `VIOLATED`, the verdict word of the human report.
fn verdict(holds: bool) -> &'static str {
    if holds {
        "holds"
    } else {
        "VIOLATED"
    }
}

pub fn run(p: &Parsed, spec: &ProtocolSpec, registry: Registry) -> Result<ExitCode, ExitCode> {
    let n = p.num("-n") as u32;
    let budget = Budget::states(p.num("--budget") as usize);
    let async_only = p.on("--async");
    let json = p.on("--json");
    let human = !json;
    let faults = p.text("--faults");
    let fault_budget = p.count("--fault-budget").map(|f| f as u32);
    let run_dir = p.text("--run-dir");
    let fault_rates = match &faults {
        Some(text) => {
            Some(parse_fault_spec(text).map_err(|e| misuse(&format!("bad --faults spec: {e}")))?)
        }
        None => None,
    };
    let refined = refined(p, spec, &registry)?;
    let mut run = Run::start(p, registry)?;

    // `auto` reduces unless a fault flag is present: the fault phases
    // explore per-link fault ledgers that break remote interchangeability
    // (docs/symmetry.md), and mixing reduced clean phases with concrete
    // fault phases would make the two state counts incomparable. Specs
    // that fail the scalarset check (order-sensitive primitives like
    // `first`) are never reduced, not even under an explicit `on` — it
    // would be unsound.
    let faulty = faults.is_some() || fault_budget.is_some();
    let permutable = ccr_mc::spec_permutable(spec);
    let asked = p.text("--symmetry").expect("has a default");
    let reduce = permutable && (asked == "on" || (asked == "auto" && !faulty));
    if human {
        if asked != "off" && !permutable {
            println!("symmetry: {asked} -> off ({NOT_PERMUTABLE})");
        } else if asked == "auto" && faulty {
            println!(
                "symmetry: auto -> off (fault flags present; per-link faults \
                 break remote interchangeability, see docs/symmetry.md)"
            );
        } else {
            println!("symmetry: {}", if reduce { "on" } else { "off" });
        }
    }
    // With `--spill-dir`/`--resume` the two reachability sweeps
    // checkpoint into per-phase subdirectories; `meta.json` records the
    // engine shape for `--resume` to replay (see docs/persistence.md).
    let popts = PersistOpts {
        interval: p.secs("--checkpoint-interval"),
        evict_at: p.num("--spill-bytes") as usize,
        resume: p.given("--resume"),
        crash: CrashSwitch::after(p.count("--crash-after-states")),
    };
    let spill_dir = p.text("--resume").or_else(|| p.text("--spill-dir"));
    let spill_root: Option<PathBuf> = spill_dir.as_ref().map(PathBuf::from);
    if let Some(root) = &spill_root {
        std::fs::create_dir_all(root).map_err(|e| io_failure("create", root.display(), e))?;
        write_meta(root, p, reduce)?;
    }
    // Both reachability sweeps of `verify`: deadlock check and trails on,
    // successors from `--threads` workers, checkpointing into the phase's
    // subdirectory under `--spill-dir`.
    let search = Search {
        check_deadlock: true,
        trails: true,
        threads: engine_threads(p),
        stall_ms: p.num("--inject-stall-ms"),
        ..Search::default()
    };
    let phase_dir = |phase: &str| spill_root.as_ref().map(|root| root.join(phase));
    // What every level says about itself once swept.
    let announce = |level: &str, r: &SearchReport| {
        if r.restored && human {
            println!("{level} level: restored from finished checkpoint");
        }
        if let Outcome::PersistFailure(msg) = &r.outcome {
            eprintln!("ccr: persistence failure: {msg}");
        }
        if human {
            println!(
                "{:<17} (n={n}): {} states, {:?}",
                format!("{level} level"),
                r.states,
                r.outcome
            );
            if r.trail.is_some() {
                println!("{}", r.trail_text());
            }
        }
    };

    let rv = RendezvousSystem::new(spec, n);
    // `--async` skips the rendezvous level (and the checks that need
    // it): the async exploration alone, for profiling and benchmarking.
    let r: Option<SearchReport> = (!async_only).then(|| {
        let dir = phase_dir("rendezvous");
        let search = Search { persist: dir.as_deref().map(|d| (d, &popts)), ..search };
        let rr = run.explore(&search, &rv, reduce, "explore/rendezvous", &budget);
        announce("rendezvous", &rr);
        rr
    });
    let r_ok = r.as_ref().map(|x| x.outcome.is_complete()).unwrap_or(true);

    let asys = AsyncSystem::new(&refined, n, AsyncConfig::default());
    let mut a = None;
    let mut sim = None;
    let mut prog = None;
    if r_ok {
        // The checks ride the exploration's sweep whenever it is in
        // memory: every state is then expanded once for all of them. A
        // checkpointed sweep carries no riders — resumed, it would not
        // show them the states it recovered — so `--spill-dir` keeps one
        // sweep per question.
        let ride = spill_root.is_none() && !async_only;
        let (ar, rode, graph) = if ride {
            let (ar, rode, graph) =
                run.explore_ridden(&search, &asys, &rv, reduce, "explore/async", &budget);
            (ar, Some(rode), Some(graph))
        } else {
            let dir = phase_dir("async");
            let persisted = Search { persist: dir.as_deref().map(|d| (d, &popts)), ..search };
            (run.explore(&persisted, &asys, reduce, "explore/async", &budget), None, None)
        };
        announce("asynchronous", &ar);
        let a_ok = ar.outcome.is_complete();
        a = Some(ar);
        // What rode is reported under the conditions its own sweep used
        // to run under: Equation 1 once the exploration completed,
        // progress once Equation 1 held.
        if a_ok && !async_only {
            let s = rode.unwrap_or_else(|| run.equation1(&asys, &rv, "check/equation1", &budget));
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
                let p = match graph {
                    Some(graph) => run.progress_of(graph, &asys, "check/progress"),
                    None => run.progress(&search, &asys, reduce, "check/progress", &budget),
                };
                if human {
                    println!(
                        "forward progress: {} ({} states, {} livelocked, {} deadlocked)",
                        verdict(p.holds()),
                        p.states,
                        p.livelocked_states,
                        p.deadlocked_states
                    );
                }
                prog = Some(p);
            }
        }
    }
    let a_ok = a.as_ref().map(|x| x.outcome.is_complete()).unwrap_or(false);
    let clean_ok = r_ok
        && a_ok
        && (async_only
            || (sim.as_ref().map(|x| x.holds()).unwrap_or(false)
                && prog.as_ref().map(|x| x.holds()).unwrap_or(false)));

    // Fault phases run only once the clean pipeline has passed: fault
    // tolerance of a protocol that is already broken is meaningless and
    // would only bury the primary counterexample. `--async` skips them
    // with the rest of the checks.
    let mut fclosure = None;
    if let (true, false, Some(f)) = (clean_ok, async_only, fault_budget) {
        let fc = {
            let _p = run.telemetry.registry.phase("check/fault-closure");
            let mut obs =
                SearchObserver::for_phase(&mut run.sink, &run.telemetry, "check/fault-closure");
            // Safety, then progress, over every placement of up to `f`
            // faults: the closure is one more transition system for the
            // same two checks.
            let closure = FaultClosure::new(asys.clone(), f);
            FaultClosureReport {
                budget_faults: f,
                explore: search.explore(&closure, &budget, |_| None, &mut obs).traced_report(),
                progress: search.progress(&closure, &budget, |l| l.completes.is_some(), &mut obs),
            }
        };
        if human {
            println!(
                "fault closure (budget={f}): {} ({} states, {} livelocked, {} deadlocked)",
                verdict(fc.holds()),
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
    let fclosure_ok = fclosure.as_ref().map(|x| x.holds()).unwrap_or(clean_ok);
    let mut fwalk = None;
    if clean_ok && fclosure_ok && !async_only {
        if let (Some(rates), Some(spec_text)) = (fault_rates, &faults) {
            let w = {
                let registry = &run.telemetry.registry;
                let _p = registry.phase("check/fault-walks");
                run_fault_walks(&asys, rates, spec_text, p.num("--seed"), &mut run.sink, registry)
            };
            if human {
                w.print();
            }
            fwalk = Some(w);
        }
    }
    let ok = clean_ok && fclosure_ok && fwalk.as_ref().map(|x| x.holds()).unwrap_or(true);

    let agg = run.profile_out(human)?;
    if json || run_dir.is_some() {
        let doc = {
            let _p = run.telemetry.registry.phase("report");
            let mut s = Serializer::new();
            {
                let mut m = s.begin_map();
                m.entry("spec", spec.name.as_str());
                m.entry("command", "verify");
                m.entry("n", &n);
                m.entry("budget_states", &budget.max_states);
                m.entry("optimized", &!p.on("--no-opt"));
                m.entry("threads", &p.count("--threads").unwrap_or(1));
                m.entry("symmetry", if reduce { "on" } else { "off" });
                m.entry("seed", &p.num("--seed"));
                m.entry("async_only", &async_only);
                if let Some(dir) = &spill_dir {
                    m.entry("spill_dir", dir.as_str());
                    m.entry("spill_bytes", &p.num("--spill-bytes"));
                    m.entry("resumed", &p.given("--resume"));
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
            s.into_string()
        };
        if json {
            println!("{doc}");
        }
        if let Some(dir) = &run_dir {
            let path = format!("{dir}/verify.json");
            std::fs::write(&path, format!("{doc}\n")).map_err(|e| io_failure("write", &path, e))?;
        }
    }
    // Terminal counts for the status snapshot and the flight record: the
    // exact async-level numbers (what the verify JSON reports), falling
    // back to the rendezvous level.
    run.finish(a.as_ref().or(r.as_ref()).map(SearchReport::explore_report))?;
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
