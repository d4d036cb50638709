//! End-to-end checks for the fault-injection subsystem: protocols complete
//! workloads safely under seeded drop/duplicate faults, the model checker
//! proves safety and progress under a bounded fault budget, fault events
//! reach the trace, and a run with faults disabled stays byte-identical to
//! a plain run.

use ccr_core::ids::{ProcessId, RemoteId};
use ccr_core::refine::{refine, RefineOptions};
use ccr_core::text::parse_validated;
use ccr_dsm::machine::{Machine, MachineConfig};
use ccr_dsm::metrics::MachineReport;
use ccr_dsm::workload::Migrating;
use ccr_faults::{FaultKind, FaultPlan, FaultRates, FaultSpec, ScriptedFault};
use ccr_mc::faultmode::check_fault_closure;
use ccr_mc::report::Outcome;
use ccr_mc::search::{explore, Budget, Search, SearchObserver};
use ccr_mc::trace::replay_trail;
use ccr_protocols::invalidate::{invalidate_refined, InvalidateOptions};
use ccr_protocols::migratory::{migratory_refined, MigratoryOptions};
use ccr_protocols::props::migratory_async_invariant;
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::sched::RandomSched;
use ccr_runtime::system::TransitionSystem;
use ccr_runtime::FaultHarness;
use ccr_trace::{JsonlSink, NullSink};
use std::path::Path;

/// The acceptance-criterion fault load: 5% drops, 2% duplicates.
const RATES: FaultRates = FaultRates { drop: 0.05, dup: 0.02, reorder: 0.0, delay: 0.0 };
const SEED: u64 = 7;

fn spec_text(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("specs").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Runs `refined` for `steps` machine steps under `rates`, returning the
/// report and the harness's leftover recovery debt.
fn faulted_run(
    refined: &ccr_core::refine::RefinedProtocol,
    rates: FaultRates,
    steps: u64,
) -> (MachineReport, usize) {
    let config = MachineConfig::standard(refined, 3, steps);
    let machine = Machine::new(refined, config);
    let mut wl = Migrating::new(SEED, 0.8, 0.5);
    let mut sched = RandomSched::new(SEED);
    let mut harness = FaultHarness::new(FaultPlan::new(FaultSpec::with_rates(rates), SEED));
    let mut sink = NullSink;
    let report = machine
        .run_faulted("faulted", &mut wl, &mut sched, &mut harness, &mut sink)
        .expect("faults must never surface as protocol errors");
    let pending = harness.pending_recoveries();
    let stats = *harness.stats();
    (report.with_faults(stats), pending)
}

#[test]
fn migratory_completes_workload_under_drops_and_dups() {
    let refined = migratory_refined(&MigratoryOptions::default());
    let (report, pending) = faulted_run(&refined, RATES, 6000);
    assert!(!report.deadlocked, "lossy network must not wedge the machine");
    assert!(report.ops > 0, "acquisitions must still complete: {}", report.summary());
    let faults = report.faults.expect("harness stats attached");
    assert!(faults.drops > 0, "at 5% the run must actually lose messages");
    // `drops` counts events (a lost retransmission drops the same message
    // again); every lost *message* is recovered or still on a timer.
    assert!(
        faults.recovered + pending as u64 <= faults.drops,
        "recovered={} pending={pending} drops={}",
        faults.recovered,
        faults.drops
    );
    assert!(faults.recovered > 0, "retransmission must actually restore messages");
    assert!(faults.retransmits >= faults.recovered);
}

#[test]
fn invalidate_completes_workload_under_drops_and_dups() {
    let refined = invalidate_refined(&InvalidateOptions::default());
    let (report, pending) = faulted_run(&refined, RATES, 6000);
    assert!(!report.deadlocked, "lossy network must not wedge the machine");
    assert!(report.ops > 0, "acquisitions must still complete: {}", report.summary());
    let faults = report.faults.expect("harness stats attached");
    assert!(faults.drops > 0);
    assert!(faults.recovered + pending as u64 <= faults.drops);
    assert!(faults.recovered > 0);
}

#[test]
fn faults_cost_messages_but_not_safety() {
    let refined = migratory_refined(&MigratoryOptions::default());
    let (clean, _) = faulted_run(&refined, FaultRates::default(), 6000);
    let (faulted, _) = faulted_run(&refined, RATES, 6000);
    let degr = faulted.degradation_vs(&clean).expect("both runs completed operations");
    assert!(degr >= 1.0, "recovery traffic cannot make acquisitions cheaper: {degr:.3}");
}

#[test]
fn fault_closure_holds_for_budget_two_on_migratory() {
    let opts = MigratoryOptions::default();
    let refined = migratory_refined(&opts);
    let spec = ccr_protocols::migratory::migratory(&opts);
    let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
    let report =
        check_fault_closure(&sys, 2, &Budget::states(2_000_000), migratory_async_invariant(&spec));
    assert!(
        report.holds(),
        "safety and progress must survive any two wire faults: {:?} / {:?}",
        report.explore.outcome,
        report.progress
    );
    // The adversary genuinely enlarges the state space: the closure at
    // budget 2 reaches strictly more states than the fault-free system.
    let plain = explore(&sys, &Budget::states(2_000_000), |_| None, true);
    assert!(matches!(plain.outcome, Outcome::Complete));
    assert!(
        report.explore.states > plain.states,
        "closure ({}) must exceed the base reachable set ({})",
        report.explore.states,
        plain.states
    );
}

#[test]
fn scripted_faults_reach_the_trace_and_recover() {
    let refined = migratory_refined(&MigratoryOptions::default());
    let config = MachineConfig::standard(&refined, 3, 3000);
    let machine = Machine::new(&refined, config);
    let mut plan = FaultPlan::inactive();
    // A message is not guaranteed in flight at any single step, so script a
    // window of drops on both sides of the r0 link; at least one connects.
    for step in 10..60 {
        for (from, to) in [
            (ProcessId::Remote(RemoteId(0)), ProcessId::Home),
            (ProcessId::Home, ProcessId::Remote(RemoteId(0))),
        ] {
            plan.script(ScriptedFault { step, from, to, kind: FaultKind::Drop });
        }
    }
    let mut harness = FaultHarness::new(plan);
    let mut wl = Migrating::new(SEED, 0.8, 0.5);
    let mut sched = RandomSched::new(SEED);
    let mut sink = JsonlSink::new(Vec::new());
    let report =
        machine.run_faulted("scripted", &mut wl, &mut sched, &mut harness, &mut sink).expect("run");
    assert!(!report.deadlocked);
    let stats = harness.stats();
    assert!(stats.scripted > 0, "the scripted window must hit an in-flight message");
    assert!(stats.recovered > 0, "the dropped message must come back by retransmission");
    let text = String::from_utf8(sink.into_inner().expect("vec sink")).expect("utf8");
    assert!(text.contains("\"FaultInjected\""), "trace must carry injection events");
    assert!(text.contains("\"RetransmitTimeout\""), "trace must carry recovery events");
    assert!(text.contains("\"kind\":\"drop\""), "{text}");
}

#[test]
fn inactive_plan_is_byte_identical_to_a_plain_run() {
    let refined = migratory_refined(&MigratoryOptions::default());
    let run = |faulted: bool| -> Vec<u8> {
        let config = MachineConfig::standard(&refined, 3, 1500);
        let machine = Machine::new(&refined, config);
        let mut wl = Migrating::new(SEED, 0.8, 0.5);
        let mut sched = RandomSched::new(SEED);
        let mut sink = JsonlSink::new(Vec::new());
        if faulted {
            let mut harness = FaultHarness::new(FaultPlan::inactive());
            machine
                .run_faulted("derived", &mut wl, &mut sched, &mut harness, &mut sink)
                .expect("run");
        } else {
            machine.run_observed("derived", &mut wl, &mut sched, &mut sink).expect("run");
        }
        sink.into_inner().expect("vec sink")
    };
    let plain = run(false);
    let inert = run(true);
    assert!(!plain.is_empty());
    assert_eq!(plain, inert, "fault handling must be zero-cost when off");
}

/// The regression the observability pipeline promises: the shipped broken
/// spec yields a deadlock witness, and the witness replays to a genuinely
/// stuck asynchronous state.
#[test]
fn broken_spec_yields_replayable_async_deadlock_witness() {
    let spec = parse_validated(&spec_text("migratory_broken.ccp")).expect("parse");
    let refined = refine(&spec, &RefineOptions::default()).expect("refine");
    let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
    let mut null = NullSink;
    let mut obs = SearchObserver::new(&mut null);
    let report = Search { check_deadlock: true, trails: true, ..Search::default() }.explore(
        &sys,
        &Budget::states(2_000_000),
        |_| None,
        &mut obs,
    );
    assert!(
        matches!(report.outcome, Outcome::Deadlock),
        "broken spec must deadlock: {:?}",
        report.outcome
    );
    let trail = report.trail.as_ref().expect("deadlock must carry a witness trail");
    assert!(!trail.is_empty());
    let end = replay_trail(&sys, trail).expect("witness must replay");
    let mut succ = Vec::new();
    sys.successors(&end, &mut succ).expect("successors");
    assert!(succ.is_empty(), "replayed witness must end in a stuck state");
}
