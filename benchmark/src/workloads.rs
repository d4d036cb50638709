//! The seven workloads: set-up, the closed measuring loop with one
//! client, and the traced run of each.
//!
//! Load is a closed loop with one client: ops run back to back as child
//! processes of this single driver, each timed spawn to exit, with one
//! host-speed calibration child between every two (`calib.rs`). No op
//! uses more than two threads.

use crate::calib::HostSpeed;
use crate::child::{self, ChildRun};
use crate::expected::{Expected, ExpectedOp};
use crate::layers::{self, DsmRun, VerifyArgs};
use crate::metrics::{PER_LAYER, WORKLOADS};
use crate::ops;
use crate::spans::{attributed_s, Tracer};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Ops measured in a run, however long `--seconds` is.
pub const MIN_OPS: usize = 5;
/// Set-up is repeated until this many passes are in …
const SETUP_PASSES: usize = 3;
/// … or this many seconds are spent, whichever comes first.
const SETUP_BUDGET_S: f64 = 2.0;
/// Generated specs in one `derive_zoo` bundle.
pub const ZOO_SPECS: u64 = 40_000;
/// In-memory budget of `explore_spill`, bytes.
const SPILL_BYTES: usize = 65_536;
/// States in each micro-timing sample, and timed passes over it.
const SAMPLE_STATES: usize = 10_000;
const SAMPLE_PASSES: usize = 5;
/// Zoo specs in the fixed-cost probes (`tiny_run_us`, `fuzz.specs_per_s`).
const PROBE_SPECS: u64 = 200;
/// Rounds of the telemetry on-cost comparison; the faster round counts.
const ON_COST_ROUNDS: usize = 2;
/// `ccr check` children timed for `ccr.process.startup_ms`.
const STARTUP_RUNS: usize = 20;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ccr verify specs/migratory.ccp -n 5 --symmetry off --json`.
    VerifyFull,
    /// `ccr verify specs/invalidate.ccp -n 3 --symmetry off --async --json`.
    ExploreLarge,
    /// `explore_large` with `--threads 1`.
    ExplorePar1,
    /// `ccr verify specs/migratory.ccp -n 7 --symmetry on --async --json`.
    ExploreSym,
    /// `ccr verify specs/token.ccp -n 5 --symmetry off --async` spilling
    /// past 64 KiB into a fresh directory.
    ExploreSpill,
    /// `ccr-benchmark op derive_zoo`.
    DeriveZoo,
    /// `ccr-benchmark op dsm_sim`.
    DsmSim,
}

impl Workload {
    /// Every workload, in running order (the order of `WORKLOADS`).
    pub const ALL: [Workload; 7] = [
        Workload::VerifyFull,
        Workload::ExploreLarge,
        Workload::ExplorePar1,
        Workload::ExploreSym,
        Workload::ExploreSpill,
        Workload::DeriveZoo,
        Workload::DsmSim,
    ];

    /// The name `--workload` takes: the one in the same place of
    /// `WORKLOADS`.
    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].name
    }

    /// The workload named `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `ccr verify` flags of one op, for the workloads that go
    /// through the CLI; `spill_dir` is where a spilling op writes.
    fn verify_args(self, spill_dir: &Path) -> Option<VerifyArgs> {
        let args = |spec: &str, n, symmetry, async_only| VerifyArgs {
            spec: spec.into(),
            n,
            symmetry,
            async_only,
            threads: None,
            spill: None,
        };
        match self {
            Workload::VerifyFull => Some(args("specs/migratory.ccp", 5, false, false)),
            Workload::ExploreLarge => Some(args("specs/invalidate.ccp", 3, false, true)),
            Workload::ExplorePar1 => Some(VerifyArgs {
                threads: Some(1),
                ..args("specs/invalidate.ccp", 3, false, true)
            }),
            Workload::ExploreSym => Some(args("specs/migratory.ccp", 7, true, true)),
            Workload::ExploreSpill => Some(VerifyArgs {
                spill: Some((spill_dir.to_path_buf(), SPILL_BYTES)),
                ..args("specs/token.ccp", 5, false, true)
            }),
            Workload::DeriveZoo | Workload::DsmSim => None,
        }
    }
}

/// Where the programs and the run's files are.
pub struct Ctx {
    /// The `ccr` binary under test.
    pub ccr: PathBuf,
    /// This binary, for the `op` children.
    pub me: PathBuf,
    /// `benchmark/expected.json`.
    pub expected: PathBuf,
    /// This run's scratch directory under `benchmark/out/`.
    pub out: PathBuf,
    /// `--seed`.
    pub seed: u64,
}

impl Ctx {
    fn bundle(&self) -> PathBuf {
        self.out.join("zoo.bundle")
    }

    fn spill_dir(&self) -> PathBuf {
        self.out.join("spill")
    }

    /// Program and arguments of one op of `w`.
    fn command(&self, w: Workload) -> (PathBuf, Vec<String>) {
        match w.verify_args(&self.spill_dir()) {
            Some(args) => (self.ccr.clone(), args.cli()),
            None if w == Workload::DeriveZoo => {
                let bundle = self.bundle().display().to_string();
                (self.me.clone(), strings(&["op", w.name(), "--bundle", &bundle]))
            }
            None => (self.me.clone(), strings(&["op", w.name(), "--seed", &self.seed.to_string()])),
        }
    }
}

fn strings(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|p| p.to_string()).collect()
}

/// Ops checked against `expected.json`, and how many failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    /// Ops (canary and warm-up included) and comparisons attempted.
    pub attempted: u64,
    /// Those whose exit code or output differed from what is expected.
    pub failed: u64,
}

impl Checks {
    fn record(&mut self, what: &str, mismatches: Vec<String>) {
        self.attempted += 1;
        if !mismatches.is_empty() {
            self.failed += 1;
            for m in mismatches {
                eprintln!("FAILED {what}: {m}");
            }
        }
    }
}

/// Runs one op of `w` and checks it. A spilling op gets a fresh
/// directory, removed again once the op has been checked.
fn run_op(
    ctx: &Ctx,
    w: Workload,
    want: &ExpectedOp,
    pinned: bool,
    checks: &mut Checks,
) -> Result<ChildRun, String> {
    let (program, args) = ctx.command(w);
    let _ = std::fs::remove_dir_all(ctx.spill_dir());
    let run = child::run(&program, &args)
        .map_err(|e| format!("cannot run {}: {e}", program.display()))?;
    checks.record(w.name(), want.mismatches(run.exit, &run.stdout, pinned));
    let _ = std::fs::remove_dir_all(ctx.spill_dir());
    Ok(run)
}

/// One host-speed calibration child.
fn calibrate(ctx: &Ctx) -> Result<ChildRun, String> {
    let run = child::run(&ctx.me, &strings(&["op", "calib"]))
        .map_err(|e| format!("cannot run op calib: {e}"))?;
    if run.exit != Some(0) {
        return Err(format!("op calib exited {:?}", run.exit));
    }
    Ok(run)
}

fn run_canary(ctx: &Ctx, expected: &Expected, checks: &mut Checks) -> Result<(), String> {
    let c = &expected.canary;
    let args = strings(&["verify", &c.spec, "-n", &c.n.to_string(), "--json"]);
    let run = child::run(&ctx.ccr, &args)
        .map_err(|e| format!("cannot run {}: {e}", ctx.ccr.display()))?;
    checks.record("canary", c.op.mismatches(run.exit, &run.stdout, false));
    Ok(())
}

/// Makes the inputs of `w` from the seed: the zoo bundle for
/// `derive_zoo`, written by a child so this process stays small; an
/// empty scratch directory for everything else.
fn make_inputs(ctx: &Ctx, w: Workload) -> Result<(), String> {
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("{}: {e}", ctx.out.display()))?;
    if w != Workload::DeriveZoo {
        return Ok(());
    }
    let (seed, count, out) =
        (ctx.seed.to_string(), ZOO_SPECS.to_string(), ctx.bundle().display().to_string());
    let args = strings(&["op", "zoo_bundle", "--seed", &seed, "--count", &count, "--out", &out]);
    let run = child::run(&ctx.me, &args).map_err(|e| format!("cannot run op zoo_bundle: {e}"))?;
    if run.exit != Some(0) {
        return Err(format!("op zoo_bundle exited {:?}", run.exit));
    }
    Ok(())
}

/// One set-up pass: load the expected values, make the inputs, run the
/// canary and one warm-up op.
fn set_up_once(ctx: &Ctx, w: Workload, checks: &mut Checks) -> Result<Expected, String> {
    let expected = Expected::load(&ctx.expected)?;
    make_inputs(ctx, w)?;
    run_canary(ctx, &expected, checks)?;
    run_op(ctx, w, expected.workload(w.name()), ctx.seed == expected.seed, checks)?;
    Ok(expected)
}

/// One timed op and how slow the host ran around it.
pub struct TimedOp {
    /// The op's child.
    pub run: ChildRun,
    /// From the calibrations just before and just after it.
    pub host: HostSpeed,
}

/// An untraced run of one workload.
pub struct Measured {
    /// The timed ops.
    pub ops: Vec<TimedOp>,
    /// Median reference seconds of one set-up pass.
    pub setup_s: f64,
    /// Ops checked, set-up included.
    pub checks: Checks,
    /// Whether the seed is the one `expected.json` pins values for.
    pub pinned: bool,
}

impl Measured {
    fn over_ops(&self, f: fn(&TimedOp) -> f64) -> Vec<f64> {
        self.ops.iter().map(f).collect()
    }

    /// The end-to-end metrics, in the order of `END_TO_END`; the timings
    /// in seconds of the reference host.
    pub fn end_to_end(&self) -> [f64; 4] {
        [
            median(&self.over_ops(|o| o.run.wall_s / o.host.wall)),
            median(&self.over_ops(|o| o.run.cpu_s / o.host.cpu)),
            median(&self.over_ops(|o| o.run.peak_rss_mb)),
            self.setup_s,
        ]
    }

    /// First and third quartile of `op_s` over the ops.
    pub fn op_quartiles(&self) -> (f64, f64) {
        let (q1, _, q3) = quartiles(&self.over_ops(|o| o.run.wall_s / o.host.wall));
        (q1, q3)
    }

    /// What `op_s` was made from: the median wall seconds of an op as
    /// this host ran it, and the median host speed around the ops.
    pub fn as_measured(&self) -> (f64, f64) {
        (median(&self.over_ops(|o| o.run.wall_s)), median(&self.over_ops(|o| o.host.wall)))
    }
}

/// Sets up `w`, then runs its ops back to back for `seconds` seconds
/// (and at least [`MIN_OPS`] ops), checking each. A calibration runs
/// before the first set-up pass and after every pass and op, so each
/// timed interval has one on either side.
pub fn measure(ctx: &Ctx, w: Workload, seconds: f64) -> Result<Measured, String> {
    let mut checks = Checks::default();
    let mut passes = Vec::new();
    let setting_up = Instant::now();
    let mut before = calibrate(ctx)?;
    let expected = loop {
        let pass = Instant::now();
        let expected = set_up_once(ctx, w, &mut checks)?;
        let pass_s = pass.elapsed().as_secs_f64();
        let after = calibrate(ctx)?;
        passes.push(pass_s / HostSpeed::between(&before, &after).wall);
        before = after;
        if passes.len() >= SETUP_PASSES || setting_up.elapsed().as_secs_f64() >= SETUP_BUDGET_S {
            break expected;
        }
    };
    let want = expected.workload(w.name());
    let pinned = ctx.seed == expected.seed;
    let mut ops = Vec::new();
    let measuring = Instant::now();
    while ops.len() < MIN_OPS || measuring.elapsed().as_secs_f64() < seconds {
        let run = run_op(ctx, w, want, pinned, &mut checks)?;
        let after = calibrate(ctx)?;
        ops.push(TimedOp { run, host: HostSpeed::between(&before, &after) });
        before = after;
    }
    checks.record("driver size", driver_outgrew(&ops));
    Ok(Measured { ops, setup_s: median(&passes), checks, pinned })
}

/// Linux reports a spawned child's peak resident set as no less than
/// its parent's at the spawn, so `peak_rss_mb` is only the op's own if
/// this process never grew as large as the smallest op.
fn driver_outgrew(ops: &[TimedOp]) -> Vec<String> {
    let smallest = ops.iter().map(|o| o.run.peak_rss_mb).fold(f64::INFINITY, f64::min);
    let own = std::fs::read_to_string("/proc/self/status").ok().and_then(|status| {
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse::<f64>().ok()
    });
    match own {
        Some(kb) if kb / 1024.0 >= smallest => vec![format!(
            "the driver's peak resident set ({:.1} MB) reaches the smallest op's ({smallest:.1} MB): peak_rss_mb is the driver's, not the op's",
            kb / 1024.0
        )],
        _ => Vec::new(),
    }
}

/// A traced run of one workload.
pub struct Traced {
    /// Every per-layer metric; 0 for a layer this workload's traced run
    /// does not measure.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Ops and comparisons checked.
    pub checks: Checks,
}

/// What the in-process repetition of an op produced.
struct InProcess {
    /// The line the op's child prints.
    json: String,
    /// The reports behind it, for a `ccr verify` op.
    verify: Option<layers::VerifyRun>,
    /// The machine reports behind it, for `dsm_sim`.
    dsm: Vec<DsmRun>,
}

/// `what` summed over `runs`, per second of the machines' own wall time.
fn per_second(runs: &[&DsmRun], what: fn(&DsmRun) -> u64) -> f64 {
    let secs: f64 = runs.iter().map(|r| r.report.elapsed.as_secs_f64()).sum();
    runs.iter().map(|r| what(r)).sum::<u64>() as f64 / secs
}

fn first_async_span(t: &Tracer) -> f64 {
    ["mc.search.async", "mc.parallel.async", "mc.symmetry.async", "mc.persist.async"]
        .iter()
        .map(|name| t.total_s(name))
        .find(|s| *s > 0.0)
        .unwrap_or(0.0)
}

/// Wall seconds of `ccr <args>`, which must exit 0.
fn timed_cli(ctx: &Ctx, args: &[String]) -> Result<f64, String> {
    let run = child::run(&ctx.ccr, args).map_err(|e| format!("cannot run ccr: {e}"))?;
    if run.exit != Some(0) {
        return Err(format!("ccr {} exited {:?}", args.join(" "), run.exit));
    }
    Ok(run.wall_s)
}

/// The traced run of `w`: one reference op as a child, the same op in
/// process under spans, once more without spans, then the micro-timings
/// of the layers `w` exercises. Spans go to `trace_file`.
pub fn trace(ctx: &Ctx, w: Workload, trace_file: &Path) -> Result<Traced, String> {
    let mut checks = Checks::default();
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|p| (p.name, 0.0)).collect();
    let expected = Expected::load(&ctx.expected)?;
    let pinned = ctx.seed == expected.seed;
    let mut t = Tracer::new(true);
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("{}: {e}", ctx.out.display()))?;
    let texts = if w == Workload::DeriveZoo {
        let texts = layers::zoo_texts(ctx.seed, ZOO_SPECS, &mut t)?;
        ops::write_bundle(&texts, &ctx.bundle())?;
        texts
    } else {
        Vec::new()
    };
    run_canary(ctx, &expected, &mut checks)?;

    // The reference op, as users run it.
    let cli = run_op(ctx, w, expected.workload(w.name()), pinned, &mut checks)?;

    // The same op in process: warm-up, without spans, with spans.
    let verify_args = w.verify_args(&ctx.spill_dir());
    let in_process = |t: &mut Tracer| -> Result<InProcess, String> {
        t.next_op();
        match (&verify_args, w) {
            (Some(args), _) => {
                let run = layers::verify(args, t)?;
                Ok(InProcess { json: run.json.clone(), verify: Some(run), dsm: Vec::new() })
            }
            (None, Workload::DeriveZoo) => {
                let json = ops::derive_zoo_json(&ops::derive_zoo(&ctx.bundle(), t)?);
                Ok(InProcess { json, verify: None, dsm: Vec::new() })
            }
            (None, _) => {
                let dsm = layers::dsm_sim(ctx.seed, t)?;
                Ok(InProcess { json: ops::dsm_sim_json(&dsm), verify: None, dsm })
            }
        }
    };
    // One untimed pass first: the first op in a fresh process runs up to a
    // fifth slower than the ones after it, which would read as a span cost.
    let mut untraced_s = 0.0;
    for _ in 0..2 {
        let started = Instant::now();
        in_process(&mut Tracer::new(false))?;
        untraced_s = started.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(ctx.spill_dir());
    }
    let started = Instant::now();
    let InProcess { json, verify: run, dsm: runs } = in_process(&mut t)?;
    let traced_s = started.elapsed().as_secs_f64();
    m.insert("bench.trace_overhead_share", traced_s / untraced_s - 1.0);
    let same = json == cli.stdout.trim_end();
    checks.record(
        "in-process op",
        if same { Vec::new() } else { vec![format!("output differs from the child's: {json}")] },
    );
    m.insert("ccr.verify.unattributed_share", 1.0 - attributed_s(t.spans(), t.op()) / cli.wall_s);
    m.insert("ccr.verify.report_ms", t.total_s("ccr.verify.report") * 1e3);
    let async_s = first_async_span(&t);
    if let Some(a) = run.as_ref().and_then(|r| r.asynchronous.as_ref()) {
        m.insert("mc.search.async_s", async_s);
        m.insert("mc.search.states", a.states as f64);
        m.insert("mc.search.transitions", a.transitions as f64);
        m.insert("mc.search.states_per_s", a.states as f64 / async_s);
    }

    match w {
        Workload::VerifyFull => {
            let run = run.as_ref().expect("a verify workload");
            let simrel_s = t.total_s("mc.simrel");
            let checked = run.equation1.as_ref().map_or(0, |e| e.transitions_checked);
            m.insert("mc.search.rv_s", t.total_s("mc.search.rv"));
            m.insert("mc.simrel.s", simrel_s);
            m.insert("mc.simrel.transitions_per_s", checked as f64 / simrel_s);
            m.insert("mc.progress.s", t.total_s("mc.progress"));
            m.insert("mc.progress.vs_explore", t.total_s("mc.progress") / async_s);
        }
        Workload::ExploreLarge => {
            let args = verify_args.as_ref().expect("a verify workload");
            let s = layers::sample_runtime(&args.spec, args.n, SAMPLE_STATES, SAMPLE_PASSES)?;
            m.insert("runtime.rendezvous.successors_ns", s.rv_successors_ns);
            m.insert("runtime.asynch.successors_ns", s.async_successors_ns);
            m.insert("runtime.asynch.fanout", s.fanout);
            m.insert("runtime.asynch.encode_ns", s.encode_ns);
            m.insert("runtime.asynch.encoded_len", s.encoded_len);
            m.insert("mc.store.insert_ns", s.insert_ns);
            m.insert("mc.store.hit_ns", s.hit_ns);
            m.insert("mc.store.bytes_per_state", s.bytes_per_state);
            // Telemetry on-cost: the op with each flag against the op
            // without, the faster of two rounds each.
            let channels = [
                ("metrics.registry.on_cost", "--metrics", "metrics.json"),
                ("metrics.profile.on_cost", "--profile", "profile.folded"),
                ("metrics.timeseries.on_cost", "--timeline", "timeline.jsonl"),
                ("metrics.status.on_cost", "--status", "status.json"),
                ("trace.jsonl.on_cost", "--trace", "trace.jsonl"),
            ];
            let mut base = f64::INFINITY;
            let mut with_flag = [f64::INFINITY; 5];
            for _ in 0..ON_COST_ROUNDS {
                base = base.min(timed_cli(ctx, &args.cli())?);
                for (best, (_, flag, file)) in with_flag.iter_mut().zip(channels) {
                    let mut cli = args.cli();
                    cli.extend([flag.to_string(), ctx.out.join(file).display().to_string()]);
                    *best = best.min(timed_cli(ctx, &cli)?);
                }
            }
            for (secs, (metric, _, _)) in with_flag.iter().zip(channels) {
                m.insert(metric, secs / base - 1.0);
            }
        }
        Workload::ExplorePar1 => {
            let args = verify_args.as_ref().expect("a verify workload");
            let mut probe = Tracer::new(true);
            layers::verify(&VerifyArgs { threads: None, ..args.clone() }, &mut probe)?;
            layers::verify(&VerifyArgs { threads: Some(2), ..args.clone() }, &mut probe)?;
            let serial_s = probe.total_s("mc.search.async");
            let t2_s = probe.total_s("mc.parallel.async");
            m.insert("mc.parallel.t1_s", async_s);
            m.insert("mc.parallel.engine_overhead", serial_s / async_s);
            m.insert("mc.parallel.t2_s", t2_s);
            m.insert("mc.parallel.speedup_t2", serial_s / t2_s);
        }
        Workload::ExploreSym => {
            let args = verify_args.as_ref().expect("a verify workload");
            let run = run.as_ref().expect("a verify workload");
            let canon_ns = layers::sample_canon(&args.spec, args.n, 2)?;
            m.insert("mc.symmetry.explore_s", async_s);
            m.insert(
                "mc.symmetry.orbits",
                run.asynchronous.as_ref().map_or(0, |a| a.states) as f64,
            );
            m.insert("mc.symmetry.canon_ns", canon_ns);
            m.insert("mc.symmetry.canon_share", canon_ns * run.canon_total as f64 / 1e9 / async_s);
        }
        Workload::ExploreSpill => {
            let args = verify_args.as_ref().expect("a verify workload");
            let phase = ctx.spill_dir().join("async");
            let log_bytes = std::fs::metadata(phase.join("log"))
                .map_err(|e| format!("{}: {e}", phase.display()))?
                .len();
            let (restored, restore_s) = layers::restore(&phase, SPILL_BYTES)?;
            let states = run.as_ref().and_then(|r| r.asynchronous.as_ref()).map_or(0, |a| a.states);
            checks.record(
                "restore",
                if restored == states {
                    Vec::new()
                } else {
                    vec![format!("restored {restored} states, the run had {states}")]
                },
            );
            let mut probe = Tracer::new(true);
            layers::verify(&VerifyArgs { spill: None, ..args.clone() }, &mut probe)?;
            m.insert("mc.persist.spill_s", async_s);
            m.insert("mc.persist.overhead_ratio", async_s / probe.total_s("mc.search.async"));
            m.insert("mc.persist.log_bytes", log_bytes as f64);
            m.insert("mc.persist.restore_s", restore_s);
        }
        Workload::DeriveZoo => {
            let specs = ZOO_SPECS as f64;
            let derived = (ZOO_SPECS + ops::SHIPPED_SPECS.len() as u64) as f64;
            let parse_s = t.total_s("core.text.parse");
            let totals = layers::Json::parse(&json).map_err(|e| format!("derive_zoo line: {e}"))?;
            let total = |key: &str| totals.get(key).and_then(layers::Json::as_f64).unwrap_or(0.0);
            m.insert("core.zoo.build_us", t.total_s("core.zoo.build") * 1e6 / specs);
            m.insert("core.text.print_us", t.total_s("core.text.print") * 1e6 / specs);
            m.insert("core.text.parse_us", parse_s * 1e6 / derived);
            m.insert("core.text.parse_mb_per_s", total("bytes") / 1e6 / parse_s);
            m.insert("core.validate.us", t.total_s("core.validate") * 1e6 / derived);
            m.insert("core.refine.off_us", t.total_s("core.refine.off") * 1e6 / derived);
            m.insert("core.refine.auto_us", t.total_s("core.refine.auto") * 1e6 / derived);
            m.insert("core.refine.transient_states", total("transient_states"));
            m.insert("core.refine.pairs_found", total("pairs_found"));
            m.insert("core.refine.static_msgs", total("static_msgs"));
            // Ledger-only layers, on the first few generated specs.
            let probe = &texts[..PROBE_SPECS as usize];
            m.insert("mc.search.tiny_run_us", layers::tiny_runs(probe, 2)?);
            m.insert("mc.fuzz.specs_per_s", layers::fuzz_rate(probe)?);
            let (closure_s, closure_states) = layers::fault_closure("specs/migratory.ccp", 2, 2)?;
            m.insert("mc.faultmode.closure_s", closure_s);
            m.insert("mc.faultmode.states", closure_states as f64);
            let check = strings(&["check", "specs/token.ccp"]);
            let mut startups = Vec::new();
            for _ in 0..STARTUP_RUNS {
                startups.push(timed_cli(ctx, &check)? * 1e3);
            }
            m.insert("ccr.process.startup_ms", median(&startups));
        }
        Workload::DsmSim => {
            let pick = |f: &dyn Fn(&DsmRun) -> bool| -> Vec<&DsmRun> {
                runs.iter().filter(|r| f(r)).collect()
            };
            let variant = |v: &'static str| {
                pick(&move |r: &DsmRun| r.protocol == "migratory" && r.variant == v)
            };
            let derived = variant("derived");
            let steps = |r: &DsmRun| r.report.steps;
            m.insert("dsm.machine.derived_steps_per_s", per_second(&derived, steps));
            m.insert("dsm.machine.noopt_steps_per_s", per_second(&variant("derived-noopt"), steps));
            m.insert("dsm.machine.hand_steps_per_s", per_second(&variant("hand"), steps));
            m.insert("dsm.machine.msgs_per_s", per_second(&derived, |r| r.report.messages));
            for (metric, workload) in [
                ("dsm.workload.migrating_steps_per_s", "migrating"),
                ("dsm.workload.readmostly_steps_per_s", "read-mostly"),
                ("dsm.workload.writeheavy_steps_per_s", "write-heavy"),
            ] {
                m.insert(metric, per_second(&pick(&|r| r.workload == workload), steps));
            }
            let sum = |f: fn(&DsmRun) -> u64| derived.iter().map(|r| f(r)).sum::<u64>() as f64;
            let cost = ops::message_cost(&runs);
            m.insert("dsm.machine.msgs_per_op", cost.msgs_per_op);
            m.insert("dsm.machine.reqrep_saving", cost.reqrep_saving);
            m.insert("dsm.machine.nack_rate", sum(|r| r.report.nacks) / sum(|r| r.report.messages));
            m.insert(
                "dsm.machine.max_link_occupancy",
                derived.iter().map(|r| r.report.max_link_occupancy).max().unwrap_or(0) as f64,
            );
            m.insert(
                "dsm.machine.fairness",
                derived.iter().filter_map(|r| r.report.fairness).fold(1.0, f64::min),
            );
            m.insert(
                "runtime.sim.step_ns",
                layers::sample_sim_step(
                    "specs/migratory_gated.ccp",
                    4,
                    layers::DSM_STEPS,
                    ctx.seed,
                )?,
            );
        }
    }
    // A spilling op left its directory for the restore probe above.
    let _ = std::fs::remove_dir_all(ctx.spill_dir());
    t.write_jsonl(trace_file).map_err(|e| format!("{}: {e}", trace_file.display()))?;
    Ok(Traced { metrics: m, checks })
}
