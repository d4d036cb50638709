//! The adapter: every call into a `ccr-*` crate lives in this file.
//!
//! The in-process ops below call the same public functions
//! `src/bin/ccr.rs` calls for the flags each workload passes, each call
//! wrapped in a span. `README.md` lists the entry points used, so a
//! change that collapses an API knows which names to keep until a
//! benchmark change moves this adapter.

use crate::spans::Tracer;
use ccr_core::process::ProtocolSpec;
use ccr_core::refine::{refine, RefineOptions, RefinedProtocol, ReqRepMode};
use ccr_core::text::{parse, parse_validated, to_text};
use ccr_core::validate::validate;
use ccr_core::zoo::ZooSpec;
use ccr_dsm::machine::{Machine, MachineConfig};
use ccr_dsm::workload::{Migrating, ReadMostly, Workload};
use ccr_dsm::MachineReport;
use ccr_mc::faultmode::check_fault_closure;
use ccr_mc::fuzz::{run_spec, FuzzConfig};
use ccr_mc::parallel::{explore_parallel_traced_observed, ParallelConfig};
use ccr_mc::progress::check_progress_observed;
use ccr_mc::report::{ProgressReport, SimRelReport};
use ccr_mc::search::{
    explore_plain, report_from_manifest, Budget, PersistOpts, SearchObserver, SerialPersist,
    SerialPersistOpen,
};
use ccr_mc::simrel::check_simulation;
use ccr_mc::store::StateStore;
use ccr_mc::trace::{explore_traced_observed, explore_traced_observed_persist, TracedReport};
use ccr_mc::{canonical_encode, spec_permutable, CrashSwitch, Reduced, Symmetric};
use ccr_protocols::hand::{hand_async_config, migratory_hand};
use ccr_protocols::invalidate::{invalidate_refined, InvalidateOptions};
use ccr_protocols::migratory::{migratory, MigratoryOptions};
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_runtime::sched::RandomSched;
use ccr_runtime::sim::Simulator;
use ccr_runtime::TransitionSystem;
use ccr_trace::NullSink;
use serde::Serializer;
use std::collections::{HashSet, VecDeque};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The JSON reader the benchmark checks child output with.
pub use ccr_metrics::jsonval::Json;

/// `ccr verify`'s default `--budget`.
const CLI_BUDGET_STATES: usize = 2_000_000;

// ---------------------------------------------------------------------------
// `ccr verify`, in process
// ---------------------------------------------------------------------------

/// The `ccr verify` flags the workloads use.
#[derive(Debug, Clone)]
pub struct VerifyArgs {
    /// Spec file, relative to the repository root.
    pub spec: String,
    /// `-n`.
    pub n: u32,
    /// `--symmetry on` (true) or `off`.
    pub symmetry: bool,
    /// `--async`.
    pub async_only: bool,
    /// `--threads T`; `None` selects the serial engine.
    pub threads: Option<usize>,
    /// `--spill-dir DIR --spill-bytes B`.
    pub spill: Option<(PathBuf, usize)>,
}

impl VerifyArgs {
    /// The command line of the equivalent `ccr` child.
    pub fn cli(&self) -> Vec<String> {
        let mut v: Vec<String> = vec!["verify".into(), self.spec.clone(), "-n".into()];
        v.push(self.n.to_string());
        v.push("--symmetry".into());
        v.push(if self.symmetry { "on" } else { "off" }.into());
        if self.async_only {
            v.push("--async".into());
        }
        if let Some(t) = self.threads {
            v.push("--threads".into());
            v.push(t.to_string());
        }
        if let Some((dir, bytes)) = &self.spill {
            v.push("--spill-dir".into());
            v.push(dir.display().to_string());
            v.push("--spill-bytes".into());
            v.push(bytes.to_string());
        }
        v.push("--json".into());
        v
    }
}

/// What one in-process verify produced.
pub struct VerifyRun {
    /// The document `ccr verify --json` prints for the same flags.
    pub json: String,
    /// Asynchronous-level counts.
    pub asynchronous: Option<TracedReport>,
    /// Equation 1.
    pub equation1: Option<SimRelReport>,
    /// Canonicalisations performed by the symmetry wrapper.
    pub canon_total: u64,
}

fn explore<T>(
    sys: &T,
    budget: &Budget,
    threads: Option<usize>,
    spill: Option<(PathBuf, usize)>,
) -> Result<TracedReport, String>
where
    T: TransitionSystem + Sync,
    T::State: Send,
{
    let mut null = NullSink;
    let mut obs = SearchObserver::new(&mut null);
    match (threads, spill) {
        (Some(t), None) => {
            let cfg = ParallelConfig::threads(t).with_trails();
            Ok(explore_parallel_traced_observed(sys, budget, |_| None, true, &cfg, &mut obs)
                .traced_report())
        }
        (None, None) => Ok(explore_traced_observed(sys, budget, |_| None, true, &mut obs)),
        (None, Some((root, evict_at))) => {
            let popts = PersistOpts {
                interval: Duration::from_secs(1),
                evict_at,
                resume: false,
                crash: CrashSwitch::after(None),
            };
            match SerialPersist::open(&root, &popts).map_err(|e| e.to_string())? {
                SerialPersistOpen::Run(mut p) => Ok(explore_traced_observed_persist(
                    sys,
                    budget,
                    |_| None,
                    true,
                    &mut obs,
                    &mut p,
                )),
                SerialPersistOpen::Finished(_) => {
                    Err(format!("{}: not a fresh spill directory", root.display()))
                }
            }
        }
        (Some(_), Some(_)) => Err("no workload spills from the parallel engine".into()),
    }
}

/// `ccr verify` for `args`, phase by phase as `src/bin/ccr.rs` runs it.
pub fn verify(args: &VerifyArgs, t: &mut Tracer) -> Result<VerifyRun, String> {
    t.span("ccr.verify", |t| {
        let spec = t.span("core.text.parse", |_| {
            let src = std::fs::read_to_string(&args.spec)
                .map_err(|e| format!("cannot read {}: {e}", args.spec))?;
            parse_validated(&src).map_err(|e| format!("{}: {e}", args.spec))
        })?;
        let refined = t
            .span("core.refine", |_| refine(&spec, &RefineOptions { reqrep: ReqRepMode::Auto }))
            .map_err(|e| format!("refinement failed: {e}"))?;
        let budget = Budget::states(CLI_BUDGET_STATES);
        let reduce = args.symmetry && spec_permutable(&spec);
        if let Some((dir, _)) = &args.spill {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        // Each sweep spills into its own subdirectory, as the CLI lays them out.
        let spill = |phase: &str| args.spill.as_ref().map(|(dir, b)| (dir.join(phase), *b));
        let rv = RendezvousSystem::new(&spec, args.n);
        let rendezvous = if args.async_only {
            None
        } else {
            Some(t.span("mc.search.rv", |_| {
                if reduce {
                    explore(&Reduced::new(&rv), &budget, args.threads, spill("rendezvous"))
                } else {
                    explore(&rv, &budget, args.threads, spill("rendezvous"))
                }
            })?)
        };
        let rv_ok = rendezvous.as_ref().is_none_or(|r| r.outcome.is_complete());
        let asys = AsyncSystem::new(&refined, args.n, AsyncConfig::default());
        let mut asynchronous = None;
        let mut equation1 = None;
        let mut progress: Option<ProgressReport> = None;
        let mut canon_total = 0;
        if rv_ok {
            let name = match (reduce, args.threads, &args.spill) {
                (true, _, _) => "mc.symmetry.async",
                (_, Some(_), _) => "mc.parallel.async",
                (_, _, Some(_)) => "mc.persist.async",
                _ => "mc.search.async",
            };
            let a = t.span(name, |_| {
                if reduce {
                    let red = Reduced::new(&asys);
                    let r = explore(&red, &budget, args.threads, spill("async"));
                    canon_total = red.canon_total();
                    r
                } else {
                    explore(&asys, &budget, args.threads, spill("async"))
                }
            })?;
            let a_ok = a.outcome.is_complete();
            asynchronous = Some(a);
            if a_ok && !args.async_only {
                let s = t.span("mc.simrel", |_| check_simulation(&asys, &rv, &budget));
                let s_ok = s.holds();
                equation1 = Some(s);
                if s_ok {
                    progress = Some(t.span("mc.progress", |_| {
                        let mut null = NullSink;
                        let mut obs = SearchObserver::new(&mut null);
                        check_progress_observed(&asys, &budget, |l| l.completes.is_some(), &mut obs)
                    }));
                }
            }
        }
        let a_ok = asynchronous.as_ref().is_some_and(|a| a.outcome.is_complete());
        let holds = rv_ok
            && a_ok
            && (args.async_only
                || (equation1.as_ref().is_some_and(SimRelReport::holds)
                    && progress.as_ref().is_some_and(ProgressReport::holds)));
        let json = t.span("ccr.verify.report", |_| {
            let mut s = Serializer::new();
            let mut m = s.begin_map();
            m.entry("spec", spec.name.as_str());
            m.entry("command", "verify");
            m.entry("n", &args.n);
            m.entry("budget_states", &CLI_BUDGET_STATES);
            m.entry("optimized", &true);
            m.entry("threads", &args.threads.unwrap_or(1));
            m.entry("symmetry", if reduce { "on" } else { "off" });
            m.entry("seed", &0u64);
            m.entry("async_only", &args.async_only);
            if let Some((dir, bytes)) = &args.spill {
                m.entry("spill_dir", dir.display().to_string().as_str());
                m.entry("spill_bytes", bytes);
                m.entry("resumed", &false);
            }
            m.entry("rendezvous", &rendezvous);
            m.entry("asynchronous", &asynchronous);
            m.entry("equation1", &equation1);
            m.entry("progress", &progress);
            m.entry("fault_closure", &None::<bool>);
            m.entry("fault_walk", &None::<bool>);
            m.entry("holds", &holds);
            m.end();
            s.into_string()
        });
        Ok(VerifyRun { json, asynchronous, equation1, canon_total })
    })
}

/// Reopens a finished spill phase directory the way `--resume` does and
/// returns the restored state count and the seconds it took.
pub fn restore(phase_dir: &Path, evict_at: usize) -> Result<(usize, f64), String> {
    let popts = PersistOpts {
        interval: Duration::from_secs(1),
        evict_at,
        resume: true,
        crash: CrashSwitch::after(None),
    };
    let started = Instant::now();
    match SerialPersist::open(phase_dir, &popts).map_err(|e| e.to_string())? {
        SerialPersistOpen::Finished(m) => {
            let secs = started.elapsed().as_secs_f64();
            Ok((report_from_manifest(&m).states, secs))
        }
        SerialPersistOpen::Run(_) => {
            Err(format!("{}: finished run did not restore", phase_dir.display()))
        }
    }
}

// ---------------------------------------------------------------------------
// Micro-timings over a sample of real states
// ---------------------------------------------------------------------------

/// Fastest of `passes` timings of `f`, in seconds.
fn best_of(passes: usize, mut f: impl FnMut()) -> f64 {
    (0..passes)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .min_by(f64::total_cmp)
        .expect("at least one pass")
}

/// Breadth-first sample of up to `cap` distinct states, as `mc_perf`
/// samples the encode phase.
fn sample_states<T: TransitionSystem>(sys: &T, cap: usize) -> Vec<T::State> {
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

/// Nanoseconds per `successors` call over `sample`, and successors per
/// state.
fn time_successors<T: TransitionSystem>(sys: &T, sample: &[T::State], passes: usize) -> (f64, f64) {
    let mut succs = Vec::new();
    let mut generated = 0usize;
    let secs = best_of(passes, || {
        generated = 0;
        for s in sample {
            succs.clear();
            let _ = sys.successors(black_box(s), &mut succs);
            generated += succs.len();
        }
        black_box(&succs);
    });
    (secs * 1e9 / sample.len() as f64, generated as f64 / sample.len() as f64)
}

/// Per-call costs of the two executors and of the visited set, over a
/// sample of one spec's state spaces.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuntimeSample {
    /// `RendezvousSystem::successors`, nanoseconds per state.
    pub rv_successors_ns: f64,
    /// `AsyncSystem::successors`, nanoseconds per state.
    pub async_successors_ns: f64,
    /// Successors per asynchronous state.
    pub fanout: f64,
    /// `AsyncSystem::encode`, nanoseconds per state.
    pub encode_ns: f64,
    /// Mean encoded length, bytes.
    pub encoded_len: f64,
    /// `StateStore::insert` of a new state, nanoseconds.
    pub insert_ns: f64,
    /// `StateStore::insert` of a state already present, nanoseconds.
    pub hit_ns: f64,
    /// `StateStore::approx_bytes` per state held.
    pub bytes_per_state: f64,
}

/// Samples `cap` states of `spec_path` at `n` remotes and times each
/// per-state call `passes` times, keeping the fastest pass.
pub fn sample_runtime(
    spec_path: &str,
    n: u32,
    cap: usize,
    passes: usize,
) -> Result<RuntimeSample, String> {
    let (spec, refined) = load(spec_path)?;
    let rv = RendezvousSystem::new(&spec, n);
    let asys = AsyncSystem::new(&refined, n, AsyncConfig::default());
    let rv_sample = sample_states(&rv, cap);
    let (rv_successors_ns, _) = time_successors(&rv, &rv_sample, passes);
    let sample = sample_states(&asys, cap);
    let (async_successors_ns, fanout) = time_successors(&asys, &sample, passes);
    let mut enc = Vec::new();
    let encode_s = best_of(passes, || {
        for s in &sample {
            asys.encode(black_box(s), &mut enc);
        }
        black_box(&enc);
    });
    let encodings: Vec<Vec<u8>> = sample.iter().map(|s| asys.encoded(s)).collect();
    let total_len: usize = encodings.iter().map(Vec::len).sum();
    let mut insert_s = f64::INFINITY;
    let mut hit_s = f64::INFINITY;
    let mut bytes_per_state = 0.0;
    for _ in 0..passes {
        let mut store = StateStore::new();
        let started = Instant::now();
        for e in &encodings {
            black_box(store.insert(e));
        }
        insert_s = insert_s.min(started.elapsed().as_secs_f64());
        let started = Instant::now();
        for e in &encodings {
            black_box(store.insert(e));
        }
        hit_s = hit_s.min(started.elapsed().as_secs_f64());
        bytes_per_state = store.approx_bytes() as f64 / store.len() as f64;
    }
    let per = |secs: f64| secs * 1e9 / sample.len() as f64;
    Ok(RuntimeSample {
        rv_successors_ns,
        async_successors_ns,
        fanout,
        encode_ns: per(encode_s),
        encoded_len: total_len as f64 / sample.len() as f64,
        insert_ns: per(insert_s),
        hit_ns: per(hit_s),
        bytes_per_state,
    })
}

/// Nanoseconds per `canonical_encode` over exactly the states a reduced
/// search of `spec_path` at `n` remotes canonicalises: every successor
/// of every orbit representative. (A breadth-first prefix would not do:
/// states near the initial one have the most interchangeable remotes
/// and cost several times the average.)
pub fn sample_canon(spec_path: &str, n: u32, passes: usize) -> Result<f64, String> {
    let (_, refined) = load(spec_path)?;
    let asys = AsyncSystem::new(&refined, n, AsyncConfig::default());
    if !asys.permutable() {
        return Err(format!("{spec_path}: not permutable, nothing to canonicalise"));
    }
    let mut sample = Vec::new();
    let mut succs = Vec::new();
    for rep in sample_states(&Reduced::new(&asys), usize::MAX) {
        succs.clear();
        asys.successors(&rep, &mut succs).map_err(|e| e.to_string())?;
        sample.extend(succs.drain(..).map(|(_, next)| next));
    }
    let mut enc = Vec::new();
    let secs = best_of(passes, || {
        for s in &sample {
            black_box(canonical_encode(&asys, black_box(s), &mut enc));
        }
    });
    Ok(secs * 1e9 / sample.len() as f64)
}

/// Nanoseconds per `Simulator::step` under a seeded `RandomSched` on the
/// asynchronous space of `spec_path` at `n` remotes.
pub fn sample_sim_step(spec_path: &str, n: u32, steps: u64, seed: u64) -> Result<f64, String> {
    let (_, refined) = load(spec_path)?;
    let asys = AsyncSystem::new(&refined, n, AsyncConfig::default());
    let mut sim = Simulator::new(&asys);
    let mut sched = RandomSched::new(seed);
    let started = Instant::now();
    let mut fired = 0u64;
    for _ in 0..steps {
        match sim.step(&mut sched).map_err(|e| e.to_string())? {
            Some(_) => fired += 1,
            None => break,
        }
    }
    if fired == 0 {
        return Err(format!("{spec_path}: simulator fired no step"));
    }
    Ok(started.elapsed().as_secs_f64() * 1e9 / fired as f64)
}

/// Seconds and states of the fault closure of `spec_path` at `n` remotes
/// under `faults` drop/duplicate faults.
pub fn fault_closure(spec_path: &str, n: u32, faults: u32) -> Result<(f64, usize), String> {
    let (_, refined) = load(spec_path)?;
    let asys = AsyncSystem::new(&refined, n, AsyncConfig::default());
    let started = Instant::now();
    let report = check_fault_closure(&asys, faults, &Budget::states(CLI_BUDGET_STATES), |_| None);
    let secs = started.elapsed().as_secs_f64();
    if !report.holds() {
        return Err(format!("{spec_path}: fault closure (budget {faults}) does not hold"));
    }
    Ok((secs, report.explore.states))
}

fn load(spec_path: &str) -> Result<(ProtocolSpec, RefinedProtocol), String> {
    let src =
        std::fs::read_to_string(spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let spec = parse_validated(&src).map_err(|e| format!("{spec_path}: {e}"))?;
    let refined = refine(&spec, &RefineOptions { reqrep: ReqRepMode::Auto })
        .map_err(|e| format!("{spec_path}: {e}"))?;
    Ok((spec, refined))
}

// ---------------------------------------------------------------------------
// derive_zoo: the front end on generated specs
// ---------------------------------------------------------------------------

/// Separator between spec texts in a bundle file; no spec text holds it.
pub const BUNDLE_SEPARATOR: char = '\0';

/// Specs per span in [`derive`], so a traced op records a few hundred
/// spans and not one per spec.
const DERIVE_CHUNK: usize = 1000;

/// Generates the first `count` zoo specs of stream `seed` and prints
/// them, checking on the way that each text parses back to the spec it
/// was printed from.
pub fn zoo_texts(seed: u64, count: u64, t: &mut Tracer) -> Result<Vec<String>, String> {
    let specs = t.span("core.zoo.build", |_| {
        (0..count)
            .map(|i| ZooSpec::generate(seed, i).build().map_err(|e| format!("zoo {seed}/{i}: {e}")))
            .collect::<Result<Vec<ProtocolSpec>, String>>()
    })?;
    let texts: Vec<String> = t.span("core.text.print", |_| specs.iter().map(to_text).collect());
    t.span("core.text.roundtrip", |_| {
        for (spec, text) in specs.iter().zip(&texts) {
            match parse_validated(text) {
                Ok(back) if back == *spec => {}
                Ok(_) => return Err(format!("{}: parse(print(s)) != s", spec.name)),
                Err(e) => return Err(format!("{}: printed text does not parse: {e}", spec.name)),
            }
        }
        Ok(())
    })?;
    Ok(texts)
}

/// Totals of one `derive_zoo` op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeriveTotals {
    /// Spec texts taken in.
    pub specs: u64,
    /// Bytes of spec text parsed.
    pub bytes: u64,
    /// Texts that failed to parse or validate.
    pub parse_failures: u64,
    /// Refinements (either mode) that returned an error.
    pub refine_failures: u64,
    /// Transient states over all Auto-mode home and remote automata.
    pub transient_states: u64,
    /// Request/reply pairs the §3.3 detector accepted.
    pub pairs_found: u64,
    /// Static message cost summed over Auto-mode refinements.
    pub static_msgs: u64,
    /// Static message cost summed over Off-mode refinements.
    pub static_msgs_off: u64,
}

/// The `derive_zoo` op: parse, validate, refine with the §3.3 detector
/// off, refine with it on, for every text.
pub fn derive<'a>(texts: impl Iterator<Item = &'a str>, t: &mut Tracer) -> DeriveTotals {
    let texts: Vec<&str> = texts.collect();
    let mut tot = DeriveTotals::default();
    t.span("ccr.derive", |t| {
        for chunk in texts.chunks(DERIVE_CHUNK) {
            let parsed: Vec<ProtocolSpec> = t.span("core.text.parse", |_| {
                chunk
                    .iter()
                    .filter_map(|text| {
                        tot.specs += 1;
                        tot.bytes += text.len() as u64;
                        parse(text).map_err(|_| tot.parse_failures += 1).ok()
                    })
                    .collect()
            });
            let valid: Vec<ProtocolSpec> = t.span("core.validate", |_| {
                parsed
                    .into_iter()
                    .filter_map(|spec| match validate(&spec) {
                        Ok(()) => Some(spec),
                        Err(_) => {
                            tot.parse_failures += 1;
                            None
                        }
                    })
                    .collect()
            });
            t.span("core.refine.off", |_| {
                for spec in &valid {
                    match refine(spec, &RefineOptions { reqrep: ReqRepMode::Off }) {
                        Ok(r) => tot.static_msgs_off += u64::from(r.total_static_cost()),
                        Err(_) => tot.refine_failures += 1,
                    }
                }
            });
            t.span("core.refine.auto", |_| {
                for spec in &valid {
                    match refine(spec, &RefineOptions { reqrep: ReqRepMode::Auto }) {
                        Ok(r) => {
                            tot.transient_states +=
                                (r.home.transient_count() + r.remote.transient_count()) as u64;
                            tot.pairs_found += r.pairs.len() as u64;
                            tot.static_msgs += u64::from(r.total_static_cost());
                        }
                        Err(_) => tot.refine_failures += 1,
                    }
                }
            });
        }
    });
    tot
}

/// Microseconds per `explore_plain` of the rendezvous and asynchronous
/// levels of each text at `n` remotes: the fixed cost of one search.
pub fn tiny_runs(texts: &[String], n: u32) -> Result<f64, String> {
    let budget = Budget::states(20_000);
    let mut systems = Vec::new();
    for text in texts {
        let spec = parse_validated(text).map_err(|e| e.to_string())?;
        let refined = refine(&spec, &RefineOptions { reqrep: ReqRepMode::Auto })
            .map_err(|e| format!("{}: {e}", spec.name))?;
        systems.push((spec, refined));
    }
    let started = Instant::now();
    let mut runs = 0u32;
    for (spec, refined) in &systems {
        black_box(explore_plain(&RendezvousSystem::new(spec, n), &budget));
        black_box(explore_plain(&AsyncSystem::new(refined, n, AsyncConfig::default()), &budget));
        runs += 2;
    }
    Ok(started.elapsed().as_secs_f64() * 1e6 / f64::from(runs))
}

/// Specs per second through `ccr fuzz`'s per-spec pipeline (`run_spec`,
/// default configuration); an error if any spec fails it.
pub fn fuzz_rate(texts: &[String]) -> Result<f64, String> {
    let cfg = FuzzConfig::default();
    let specs: Vec<ProtocolSpec> = texts
        .iter()
        .map(|text| parse_validated(text).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let started = Instant::now();
    for spec in &specs {
        let verdict = run_spec(spec, &cfg);
        if let Some(failure) = verdict.failure {
            return Err(format!("{}: {failure}", verdict.name));
        }
    }
    Ok(specs.len() as f64 / started.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------------
// dsm_sim: the generated protocol at run time
// ---------------------------------------------------------------------------

/// Machine steps per simulated run.
pub const DSM_STEPS: u64 = 100_000;

/// One `Machine::run` of the `dsm_sim` op.
#[derive(Debug, Clone)]
pub struct DsmRun {
    /// `migratory` or `invalidate`.
    pub protocol: &'static str,
    /// `derived`, `derived-noopt` or `hand`.
    pub variant: &'static str,
    /// `migrating`, `read-mostly` or `write-heavy`.
    pub workload: &'static str,
    /// The machine's own report.
    pub report: MachineReport,
}

impl DsmRun {
    /// Messages per completed acquisition; 0 when none completed.
    pub fn msgs_per_op(&self) -> f64 {
        self.report.msgs_per_op.unwrap_or(0.0)
    }
}

/// The `dsm_sim` op: migratory derived / derived-noopt / hand on a
/// migrating workload at n ∈ {2, 4, 8}, then invalidate derived on a
/// read-mostly and a write-heavy workload at n = 4. Workload and
/// scheduler seeds derive from `seed` as the `messages` binary derives
/// them.
pub fn dsm_sim(seed: u64, t: &mut Tracer) -> Result<Vec<DsmRun>, String> {
    let opts = MigratoryOptions::default();
    let spec = migratory(&opts);
    let derived = refine(&spec, &RefineOptions::default()).map_err(|e| e.to_string())?;
    let noopt =
        refine(&spec, &RefineOptions { reqrep: ReqRepMode::Off }).map_err(|e| e.to_string())?;
    let hand = migratory_hand(&opts);
    let inval = invalidate_refined(&InvalidateOptions::default());
    let mut runs = Vec::new();
    t.span("ccr.dsm_sim", |t| {
        for n in [2u32, 4, 8] {
            for (variant, refined, is_hand) in [
                ("derived", &derived, false),
                ("derived-noopt", &noopt, false),
                ("hand", &hand, true),
            ] {
                let mut wl = Migrating::new(1000 + u64::from(n) + seed, 0.7, 0.5);
                let report = machine_run(refined, n, is_hand, variant, &mut wl, seed, t)?;
                runs.push(DsmRun { protocol: "migratory", variant, workload: "migrating", report });
            }
        }
        for (workload, write_ratio) in [("read-mostly", 0.05), ("write-heavy", 0.9)] {
            let mut wl = ReadMostly::new(1000 + 4 + seed, write_ratio, 0.7, 0.2);
            let report = machine_run(&inval, 4, false, "derived", &mut wl, seed, t)?;
            runs.push(DsmRun { protocol: "invalidate", variant: "derived", workload, report });
        }
        Ok(runs)
    })
}

fn machine_run(
    refined: &RefinedProtocol,
    n: u32,
    is_hand: bool,
    variant: &str,
    workload: &mut dyn Workload,
    seed: u64,
    t: &mut Tracer,
) -> Result<MachineReport, String> {
    let mut config = MachineConfig::standard(refined, n, DSM_STEPS);
    if is_hand {
        config.asynch = hand_async_config(n);
    }
    let machine = Machine::new(refined, config);
    let mut sched = RandomSched::new(2000 + u64::from(n) + seed);
    t.span("dsm.machine.run", |_| machine.run(variant, workload, &mut sched))
        .map_err(|e| format!("{variant} n={n}: {e}"))
}
