//! Pins, at tier 1, the surface `benchmark/src/layers.rs` compiles against.
//!
//! `benchmark/` is its own workspace, so the root `cargo test` never builds
//! the adapter, and a change that renames or reshapes one of the items below
//! would otherwise first be noticed when the benchmark pipeline fails to
//! build. This file names every `ccr-*` item listed under "Entry points
//! into `ccr-*`" in `benchmark/README.md`, with the signature the adapter
//! uses it at; that part is compile-only — building it is the test.
//!
//! The benchmark's traced run also fails an op ("in-process op") when the
//! line `layers.rs::verify` composes from those entry points differs from
//! what `ccr verify --json` prints. `the_composed_verify_line_is_the_clis`
//! repeats that comparison here, so a `ccr verify` that drifts from the
//! separate entry points by a byte breaks `cargo test`, not the pipeline.
//!
//! An entry may be dropped here only together with the benchmark change
//! that stops using it (and its line in that README list); until then a
//! collapsed API keeps the name as a shim.

// The fn-pointer types are the point, and `'s` names the borrow of a
// system inside them (a generic fn item cannot be higher-ranked over it).
#![allow(clippy::type_complexity, clippy::extra_unused_lifetimes)]

use ccr_core::process::ProtocolSpec;
use ccr_core::refine::{refine, AsyncAutomaton, RefineOptions, RefinedProtocol, ReqRepMode};
use ccr_core::text::{parse, parse_validated, to_text};
use ccr_core::validate::validate;
use ccr_core::zoo::ZooSpec;
use ccr_dsm::machine::{Machine, MachineConfig};
use ccr_dsm::workload::{Migrating, ReadMostly, Workload};
use ccr_dsm::MachineReport;
use ccr_mc::faultmode::{check_fault_closure, FaultClosureReport};
use ccr_mc::fuzz::{run_spec, FuzzConfig, SpecVerdict};
use ccr_mc::parallel::{explore_parallel_traced_observed, ParallelConfig, ParallelReport};
use ccr_mc::progress::check_progress_observed;
use ccr_mc::report::{ExploreReport, ProgressReport, SimRelReport};
use ccr_mc::search::{
    explore_plain, report_from_manifest, Budget, PersistOpts, Search, SearchObserver,
    SerialPersist, SerialPersistOpen,
};
use ccr_mc::simrel::check_simulation;
use ccr_mc::store::StateStore;
use ccr_mc::trace::{explore_traced_observed, explore_traced_observed_persist, TracedReport};
use ccr_mc::{
    canonical_encode, spec_permutable, CrashSwitch, Manifest, OrbitSample, Outcome, PersistError,
    Reduced, Symmetric,
};
use ccr_metrics::jsonval::Json;
use ccr_protocols::hand::{hand_async_config, migratory_hand};
use ccr_protocols::invalidate::{invalidate_refined, InvalidateOptions};
use ccr_protocols::migratory::{migratory, MigratoryOptions};
use ccr_runtime::asynch::{AsyncConfig, AsyncState, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_runtime::sched::{RandomSched, Scheduler};
use ccr_runtime::sim::Simulator;
use ccr_runtime::{Label, RuntimeError, TransitionSystem};
use ccr_trace::{NullSink, TraceSink};
use std::path::Path;
use std::time::Duration;

type Invariant<S> = fn(&S) -> Option<String>;

#[allow(dead_code)]
fn ccr_core_surface() {
    let _: fn(&str) -> ccr_core::Result<ProtocolSpec> = parse;
    let _: fn(&str) -> ccr_core::Result<ProtocolSpec> = parse_validated;
    let _: fn(&ProtocolSpec) -> String = to_text;
    let _: fn(&ProtocolSpec) -> ccr_core::Result<()> = validate;
    let _: fn(&ProtocolSpec, &RefineOptions) -> ccr_core::Result<RefinedProtocol> = refine;
    let _ = [RefineOptions { reqrep: ReqRepMode::Off }, RefineOptions { reqrep: ReqRepMode::Auto }];
    let _: fn(&RefinedProtocol) -> u32 = RefinedProtocol::total_static_cost;
    let _ = |r: &RefinedProtocol| -> usize {
        let (home, remote): (&AsyncAutomaton, &AsyncAutomaton) = (&r.home, &r.remote);
        r.pairs.len() + home.transient_count() + remote.transient_count()
    };
    let _: fn(&AsyncAutomaton) -> usize = AsyncAutomaton::transient_count;
    let _: fn(u64, u64) -> ZooSpec = ZooSpec::generate;
    let _: fn(&ZooSpec) -> ccr_core::Result<ProtocolSpec> = ZooSpec::build;
}

#[allow(dead_code)]
fn ccr_runtime_surface<'s>() {
    let _: fn(&'s ProtocolSpec, u32) -> RendezvousSystem<'s> = RendezvousSystem::new;
    let _: fn(&'s RefinedProtocol, u32, AsyncConfig) -> AsyncSystem<'s> = AsyncSystem::new;
    let _: fn() -> AsyncConfig = AsyncConfig::default;
    let _: fn(&AsyncSystem<'s>) -> AsyncState = TransitionSystem::initial;
    let _: fn(
        &AsyncSystem<'s>,
        &AsyncState,
        &mut Vec<(Label, AsyncState)>,
    ) -> Result<(), RuntimeError> = TransitionSystem::successors;
    let _: fn(&AsyncSystem<'s>, &AsyncState, &mut Vec<u8>) = TransitionSystem::encode;
    let _: fn(&AsyncSystem<'s>, &AsyncState) -> Vec<u8> = TransitionSystem::encoded;
    let _: fn(&'s AsyncSystem<'s>) -> Simulator<'s, AsyncSystem<'s>> = Simulator::new;
    let _: fn(
        &mut Simulator<'s, AsyncSystem<'s>>,
        &mut dyn Scheduler,
    ) -> Result<Option<Label>, RuntimeError> = Simulator::step;
    let _: fn(u64) -> RandomSched = RandomSched::new;
}

#[allow(dead_code)]
fn ccr_mc_surface<'s>() {
    // The four shims, at the three systems the adapter explores.
    let _: fn(
        &AsyncSystem<'s>,
        &Budget,
        Invariant<AsyncState>,
        bool,
        &mut SearchObserver<'_>,
    ) -> TracedReport = explore_traced_observed;
    let _: fn(
        &Reduced<'s, AsyncSystem<'s>>,
        &Budget,
        Invariant<AsyncState>,
        bool,
        &mut SearchObserver<'_>,
    ) -> TracedReport = explore_traced_observed;
    let _: fn(
        &RendezvousSystem<'s>,
        &Budget,
        Invariant<ccr_runtime::rendezvous::RvState>,
        bool,
        &mut SearchObserver<'_>,
        &mut SerialPersist,
    ) -> TracedReport = explore_traced_observed_persist;
    let _: fn(
        &AsyncSystem<'s>,
        &Budget,
        Invariant<AsyncState>,
        bool,
        &ParallelConfig,
        &mut SearchObserver<'_>,
    ) -> ParallelReport = explore_parallel_traced_observed;
    let _: fn(
        &AsyncSystem<'s>,
        &Budget,
        fn(&Label) -> bool,
        &mut SearchObserver<'_>,
    ) -> ProgressReport = check_progress_observed;
    let _: fn(&ParallelReport) -> TracedReport = ParallelReport::traced_report;
    let _: fn(usize) -> ParallelConfig = ParallelConfig::threads;
    let _: fn(ParallelConfig) -> ParallelConfig = ParallelConfig::with_trails;
    let _ = |r: TracedReport| TracedReport {
        states: r.states,
        transitions: r.transitions,
        outcome: r.outcome,
        trail: r.trail,
    };

    // The kept conveniences and the persistence context.
    let _: fn(&AsyncSystem<'s>, &Budget) -> ExploreReport = explore_plain;
    let _: fn(&RendezvousSystem<'s>, &Budget) -> ExploreReport = explore_plain;
    let _: fn(usize) -> Budget = Budget::states;
    let _: fn(&'s mut dyn TraceSink) -> SearchObserver<'s> = SearchObserver::new;
    let _ = PersistOpts {
        interval: Duration::from_secs(1),
        evict_at: 0usize,
        resume: false,
        crash: CrashSwitch::after(None),
    };
    let _: fn(Option<u64>) -> CrashSwitch = CrashSwitch::after;
    let _: fn(&Path, &PersistOpts) -> Result<SerialPersistOpen, PersistError> = SerialPersist::open;
    let _ = |open: SerialPersistOpen| -> Option<usize> {
        match open {
            SerialPersistOpen::Run(p) => {
                let _: Box<SerialPersist> = p;
                None
            }
            SerialPersistOpen::Finished(m) => {
                let m: Manifest = m;
                Some(report_from_manifest(&m).states)
            }
        }
    };
    let _: fn(&AsyncSystem<'_>, &RendezvousSystem<'_>, &Budget) -> SimRelReport = check_simulation;
    let _: fn(&SimRelReport) -> bool = SimRelReport::holds;
    let _: fn(&ProgressReport) -> bool = ProgressReport::holds;
    let _ = |s: &SimRelReport, t: &TracedReport| -> (usize, bool) {
        (s.transitions_checked, matches!(t.outcome, Outcome::Complete))
    };
    let _: fn(&AsyncSystem<'_>, u32, &Budget, Invariant<AsyncState>) -> FaultClosureReport =
        check_fault_closure;
    let _ = |r: &FaultClosureReport| -> usize { r.explore.states };
    let _: fn(&ProtocolSpec, &FuzzConfig) -> SpecVerdict = run_spec;
    let _: fn() -> FuzzConfig = FuzzConfig::default;

    // Symmetry and the store.
    let _: fn(&'s AsyncSystem<'s>) -> Reduced<'s, AsyncSystem<'s>> = Reduced::new;
    let _: fn(&Reduced<'s, AsyncSystem<'s>>) -> u64 = Reduced::canon_total;
    let _: fn(&AsyncSystem<'s>) -> bool = Symmetric::permutable;
    let _: fn(&AsyncSystem<'s>, &AsyncState, &mut Vec<u8>) -> OrbitSample = canonical_encode;
    let _: fn(&ProtocolSpec) -> bool = spec_permutable;
    let _: fn() -> StateStore = StateStore::new;
    let _: fn(&mut StateStore, &[u8]) -> (u32, bool) = StateStore::insert;
    let _: fn(&StateStore) -> usize = StateStore::len;
    let _: fn(&StateStore) -> usize = StateStore::approx_bytes;
}

#[allow(dead_code)]
fn ccr_dsm_and_protocols_surface<'s>() {
    let _: fn(&'s RefinedProtocol, MachineConfig) -> Machine<'s> = Machine::new;
    let _: fn(
        &Machine<'s>,
        &str,
        &mut dyn Workload,
        &mut dyn Scheduler,
    ) -> Result<MachineReport, RuntimeError> = Machine::run;
    let _: fn(&RefinedProtocol, u32, u64) -> MachineConfig = MachineConfig::standard;
    let _ = |c: &mut MachineConfig, a: AsyncConfig| c.asynch = a;
    let _: fn(u64, f64, f64) -> Migrating = Migrating::new;
    let _: fn(u64, f64, f64, f64) -> ReadMostly = ReadMostly::new;
    let _: fn(&MigratoryOptions) -> ProtocolSpec = migratory;
    let _: fn() -> MigratoryOptions = MigratoryOptions::default;
    let _: fn(&MigratoryOptions) -> RefinedProtocol = migratory_hand;
    let _: fn(u32) -> AsyncConfig = hand_async_config;
    let _: fn(&InvalidateOptions) -> RefinedProtocol = invalidate_refined;
    let _: fn() -> InvalidateOptions = InvalidateOptions::default;
}

#[allow(dead_code)]
fn telemetry_surface() {
    let _: &mut dyn TraceSink = &mut NullSink;
    let _: fn(&str) -> Result<Json, String> = Json::parse;
    let _ = serde::Serializer::new().into_string();
}

#[test]
fn the_benchmark_adapter_surface_compiles() {}

/// `benchmark/src/layers.rs::verify` without its spans: the `ccr verify
/// --json` line for `--symmetry on|off [--async] --budget B`, composed
/// phase by phase from the separate pinned entry points. Two cells are
/// the CLI's rather than the adapter's: under `--symmetry on` Equation 1
/// and the progress check run on the quotient, where the adapter would
/// run them on the concrete system (no workload pairs symmetry with a
/// full verify). Equation 1 has no quotient entry of its own, so that
/// cell is read off `Search::verify`'s sweep of the quotient.
fn composed_verify_line(
    path: &str,
    n: u32,
    symmetry: bool,
    async_only: bool,
    budget_states: usize,
) -> String {
    fn explore<T: TransitionSystem>(sys: &T, budget: &Budget) -> TracedReport {
        let mut null = NullSink;
        let mut obs = SearchObserver::new(&mut null);
        explore_traced_observed(sys, budget, |_| None, true, &mut obs)
    }
    fn progress<T>(sys: &T, budget: &Budget) -> ProgressReport
    where
        T: TransitionSystem + Sync,
        T::State: Send,
    {
        let mut null = NullSink;
        let mut obs = SearchObserver::new(&mut null);
        check_progress_observed(sys, budget, |l| l.completes.is_some(), &mut obs)
    }
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let spec = parse_validated(&src).unwrap_or_else(|e| panic!("{path}: {e}"));
    let refined = refine(&spec, &RefineOptions { reqrep: ReqRepMode::Auto }).expect("refines");
    let budget = Budget::states(budget_states);
    let reduce = symmetry && spec_permutable(&spec);
    let rv = RendezvousSystem::new(&spec, n);
    let rendezvous = (!async_only).then(|| {
        if reduce {
            explore(&Reduced::new(&rv), &budget)
        } else {
            explore(&rv, &budget)
        }
    });
    let rv_ok = rendezvous.as_ref().is_none_or(|r| r.outcome == Outcome::Complete);
    let asys = AsyncSystem::new(&refined, n, AsyncConfig::default());
    let mut asynchronous = None;
    let mut equation1 = None;
    let mut progress_report = None;
    if rv_ok {
        let a =
            if reduce { explore(&Reduced::new(&asys), &budget) } else { explore(&asys, &budget) };
        let a_ok = a.outcome == Outcome::Complete;
        asynchronous = Some(a);
        if a_ok && !async_only {
            let s = if reduce {
                let mut null = NullSink;
                let mut obs = SearchObserver::new(&mut null);
                let completes = |l: &Label| l.completes.is_some();
                let red = Reduced::new(&asys);
                Search::default().verify(&red, &asys, &rv, &budget, completes, &mut obs).1
            } else {
                check_simulation(&asys, &rv, &budget)
            };
            let s_ok = s.holds();
            equation1 = Some(s);
            if s_ok {
                progress_report = Some(if reduce {
                    progress(&Reduced::new(&asys), &budget)
                } else {
                    progress(&asys, &budget)
                });
            }
        }
    }
    let a_ok = asynchronous.as_ref().is_some_and(|a| a.outcome == Outcome::Complete);
    let holds = rv_ok
        && a_ok
        && (async_only
            || (equation1.as_ref().is_some_and(SimRelReport::holds)
                && progress_report.as_ref().is_some_and(ProgressReport::holds)));
    let mut s = serde::Serializer::new();
    let mut m = s.begin_map();
    m.entry("spec", spec.name.as_str());
    m.entry("command", "verify");
    m.entry("n", &n);
    m.entry("budget_states", &budget_states);
    m.entry("optimized", &true);
    m.entry("threads", &1usize);
    m.entry("symmetry", if reduce { "on" } else { "off" });
    m.entry("seed", &0u64);
    m.entry("async_only", &async_only);
    m.entry("rendezvous", &rendezvous);
    m.entry("asynchronous", &asynchronous);
    m.entry("equation1", &equation1);
    m.entry("progress", &progress_report);
    m.entry("fault_closure", &None::<bool>);
    m.entry("fault_walk", &None::<bool>);
    m.entry("holds", &holds);
    m.end();
    s.into_string()
}

/// The budget the comparison below runs under, so that the debug build
/// stays inside a tier-1 time budget. The two asynchronous spaces past
/// it at n=3 (invalidate, update) pin the `Unfinished` shape of the
/// document instead; every rendezvous space fits.
const COMPOSED_BUDGET: usize = 50_000;

#[test]
fn the_composed_verify_line_is_the_clis() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut full_verdicts, mut unfinished) = (0, 0);
    for name in [
        "invalidate",
        "migratory",
        "migratory_broken",
        "migratory_gated",
        "token",
        "update",
        "zoo_chain",
        "zoo_unsound_pair",
    ] {
        let path = root.join(format!("specs/{name}.ccp"));
        let path = path.to_str().expect("utf-8 path");
        for symmetry in [false, true] {
            for async_only in [false, true] {
                let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"));
                cmd.args(["verify", path, "-n", "3", "--json", "--budget"])
                    .arg(COMPOSED_BUDGET.to_string())
                    .args(["--symmetry", if symmetry { "on" } else { "off" }]);
                if async_only {
                    cmd.arg("--async");
                }
                let out = cmd.output().expect("spawn ccr");
                let printed = String::from_utf8(out.stdout).expect("utf-8");
                let composed = composed_verify_line(path, 3, symmetry, async_only, COMPOSED_BUDGET);
                let context = format!("{name} symmetry={symmetry} async={async_only}");
                assert_eq!(printed.trim_end(), composed, "{context}");
                assert_eq!(
                    out.status.success(),
                    composed.ends_with("\"holds\":true}"),
                    "{context}"
                );
                full_verdicts += usize::from(composed.contains("\"progress\":{"));
                unfinished += usize::from(composed.contains("\"Unfinished\""));
            }
        }
    }
    assert!(full_verdicts >= 8 && unfinished >= 2, "{full_verdicts} {unfinished}");
}
