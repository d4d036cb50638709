//! End-to-end checks for the fault model: seeded walks over the fault
//! closure complete workloads safely under drop/duplicate faults and are
//! closure paths that replay label by label, the model checker proves
//! safety and progress under a bounded fault budget, faults reach the
//! trace as the closure's own steps, and a walk with faults disabled stays
//! byte-identical to a plain run.

use ccr_core::ids::{ProcessId, RemoteId};
use ccr_core::refine::{refine, RefineOptions, RefinedProtocol};
use ccr_core::text::parse_validated;
use ccr_faults::{FaultPlan, FaultRates, FaultStats};
use ccr_mc::faultmode::check_fault_closure;
use ccr_mc::report::Outcome;
use ccr_mc::search::{explore, Budget, Search, SearchObserver};
use ccr_mc::trace::replay_trail;
use ccr_metrics::Registry;
use ccr_protocols::invalidate::{invalidate_refined, InvalidateOptions};
use ccr_protocols::migratory::{migratory_refined, MigratoryOptions};
use ccr_protocols::props::migratory_async_invariant;
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::faults::{DROP, REORDER, RETRANSMIT};
use ccr_runtime::sched::RandomSched;
use ccr_runtime::sim::Simulator;
use ccr_runtime::stats::MsgStats;
use ccr_runtime::system::TransitionSystem;
use ccr_runtime::{
    fault_walk, FaultClosure, FaultState, FaultWalk, Label, LabelKind, RuntimeError,
};
use ccr_trace::{JsonlSink, NullSink};
use std::path::Path;

#[path = "support/specs.rs"]
mod specs;

/// The acceptance-criterion fault load: 5% drops, 2% duplicates.
const RATES: FaultRates = FaultRates { drop: 0.05, dup: 0.02, reorder: 0.0, delay: 0.0 };
const SEED: u64 = 7;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn spec_text(name: &str) -> String {
    let path = root().join("specs").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A seeded walk of `refined` at three remotes for `polls` polls under
/// `rates`, with the simulator's counters.
fn walked(refined: &RefinedProtocol, rates: FaultRates, polls: u64) -> (FaultWalk, MsgStats) {
    let plan = FaultPlan::new(rates, SEED);
    let closure =
        FaultClosure::for_plan(AsyncSystem::new(refined, 3, AsyncConfig::default()), &plan);
    let mut sim = Simulator::new(&closure);
    let walk = fault_walk(&mut sim, &plan, &mut RandomSched::new(SEED), polls, &mut NullSink);
    (walk, sim.stats().clone())
}

/// A lossy walk keeps completing, and every drop it fired is recovered
/// or still a hole: `drops` counts events (a lost retransmission drops
/// the same message again), the trail's `fault/drop` steps count holes.
fn completes_under_drops_and_dups(refined: &RefinedProtocol) {
    let (walk, stats) = walked(refined, RATES, 6000);
    assert!(!walk.deadlocked && walk.error.is_none(), "lossy network must not wedge: {walk:?}");
    assert!(stats.total_completed() > 0, "acquisitions must still complete");
    let faults = walk.stats;
    let holes = walk.trail.iter().filter(|l| l.rule == DROP).count() as u64;
    assert!(holes > 0, "at 5% the walk must actually lose messages");
    assert!(holes <= faults.drops && faults.recovered <= holes, "{faults:?}, {holes} holes");
    assert!(faults.recovered > 0, "retransmission must actually restore messages");
    assert!(faults.retransmits >= faults.recovered);
}

#[test]
fn migratory_completes_workload_under_drops_and_dups() {
    completes_under_drops_and_dups(&migratory_refined(&MigratoryOptions::default()));
}

#[test]
fn invalidate_completes_workload_under_drops_and_dups() {
    completes_under_drops_and_dups(&invalidate_refined(&InvalidateOptions::default()));
}

#[test]
fn faults_cost_messages_but_not_safety() {
    let refined = migratory_refined(&MigratoryOptions::default());
    let per_op = |rates| {
        let (walk, stats) = walked(&refined, rates, 6000);
        assert!(walk.error.is_none() && !walk.deadlocked, "{walk:?}");
        (stats.total_messages() + walk.stats.retransmits) as f64 / stats.total_completed() as f64
    };
    let degr = per_op(RATES) / per_op(FaultRates::default());
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

/// A test places a fault by firing the closure's label: here a drop of
/// the request `r0` just sent. The drop and the walk's retransmission of
/// it reach the trace as the closure's own steps, and the protocol goes
/// on completing rendezvous.
#[test]
fn placed_faults_reach_the_trace_and_recover() {
    let refined = migratory_refined(&MigratoryOptions::default());
    let closure = FaultClosure::new(AsyncSystem::new(&refined, 3, AsyncConfig::default()), 1);
    let mut sim = Simulator::new(&closure);
    let mut sched = RandomSched::new(SEED);
    let mut sink = JsonlSink::new(Vec::new());
    let link = "r0->h";
    loop {
        let label = sim.step_observed(&mut sched, |l| l.kind != LabelKind::Fault, &mut sink);
        let label = label.expect("base step").expect("migratory never deadlocks");
        if label.emissions().any(|m| format!("{}->{}", m.from, m.to) == link) {
            break;
        }
    }
    let drop = |l: &Label| l.rule == DROP && l.tag.as_deref() == Some(link);
    let placed = sim.step_observed(&mut sched, drop, &mut sink).expect("step");
    assert!(placed.is_some(), "the message just sent is the link's tail");
    let walk = fault_walk(&mut sim, &FaultPlan::inactive(), &mut sched, 3000, &mut sink);
    assert!(!walk.deadlocked && walk.error.is_none(), "{walk:?}");
    let retransmitted = FaultStats { retransmits: 1, recovered: 1, ..FaultStats::default() };
    assert_eq!(walk.stats, retransmitted, "the hole's timer fired and the frame came back");
    assert!(sim.stats().total_completed() > 100, "{}", sim.stats().total_completed());
    let text = String::from_utf8(sink.into_inner().expect("vec sink")).expect("utf8");
    let fault_step =
        |rule: &str| format!("\"kind\":\"Fault\",\"rule\":\"{rule}\",\"tag\":\"{link}");
    assert!(text.contains(&fault_step(DROP)), "the drop is a step of the trace");
    assert!(text.contains(&fault_step(RETRANSMIT)), "so is the retransmission");
}

/// With an inactive plan the walk is the plain simulation: the scheduler
/// sees exactly the base system's choices, so the trace bytes and the
/// counters are a plain `Simulator<AsyncSystem>` run's with that seed.
#[test]
fn inactive_plan_is_byte_identical_to_a_plain_run() {
    const POLLS: u64 = 1500;
    let refined = migratory_refined(&MigratoryOptions::default());
    let asys = AsyncSystem::new(&refined, 3, AsyncConfig::default());

    let mut sink = JsonlSink::new(Vec::new());
    let mut plain = Simulator::new(&asys);
    let mut sched = RandomSched::new(SEED);
    for _ in 0..POLLS {
        plain.step_observed(&mut sched, |_| true, &mut sink).expect("step");
    }
    let plain_trace = sink.into_inner().expect("vec sink");

    let plan = FaultPlan::inactive();
    let closure = FaultClosure::for_plan(asys.clone(), &plan);
    let mut sink = JsonlSink::new(Vec::new());
    let mut walked = Simulator::new(&closure);
    let walk = fault_walk(&mut walked, &plan, &mut RandomSched::new(SEED), POLLS, &mut sink);
    let walked_trace = sink.into_inner().expect("vec sink");

    let text = std::str::from_utf8(&plain_trace).expect("utf-8");
    assert!(ccr_trace::events(text).expect("a versioned trace").count() > 0);
    assert_eq!(plain_trace, walked_trace, "fault handling must be zero-cost when off");
    assert_eq!(plain.stats(), walked.stats());
    assert_eq!(walk.stats, FaultStats::default());
    assert_eq!(walk.trail.len() as u64, POLLS);
    assert_eq!(&walked.state().base, plain.state());
}

/// Every seeded walk is a path of the closure it stepped: its labels
/// replay through that closure, label by label, to the state the walk
/// ended in — on every shipped spec, at two and three remotes, three
/// seeds each, under drops and duplicates, with delays, and under
/// reorders (where the walk may end early, at an executor error).
#[test]
fn every_walk_is_a_path_of_the_closure() {
    const POLLS: u64 = 400;
    let loads = [
        FaultRates { drop: 0.1, dup: 0.05, ..FaultRates::default() },
        FaultRates { drop: 0.1, dup: 0.05, delay: 0.2, ..FaultRates::default() },
        FaultRates { reorder: 0.3, ..FaultRates::default() },
    ];
    let (mut fault_steps, mut failed) = (0, 0);
    for (name, spec) in specs::shipped_specs() {
        let refined = refine(&spec, &RefineOptions::default()).expect("refine");
        for n in [2, 3] {
            let asys = AsyncSystem::new(&refined, n, AsyncConfig::default());
            for rates in loads {
                for seed in 1..=3 {
                    let ctx = format!("{name} n={n} {rates:?} seed {seed}");
                    let plan = FaultPlan::new(rates, seed);
                    let closure = FaultClosure::for_plan(asys.clone(), &plan);
                    let mut sim = Simulator::new(&closure);
                    let mut sched = RandomSched::new(seed);
                    let walk = fault_walk(&mut sim, &plan, &mut sched, POLLS, &mut NullSink);
                    let end = replay_trail(&closure, &walk.trail)
                        .unwrap_or_else(|e| panic!("{ctx}: the walk is no closure path: {e}"));
                    assert_eq!(closure.encoded(&end), closure.encoded(sim.state()), "{ctx}");
                    if let Some(e) = &walk.error {
                        let mut succ = Vec::new();
                        assert_eq!(closure.successors(&end, &mut succ).as_ref(), Err(e), "{ctx}");
                        failed += 1;
                    }
                    fault_steps += walk.trail.iter().filter(|l| l.kind == LabelKind::Fault).count();
                }
            }
        }
    }
    assert!(fault_steps > 1000, "the walks must actually fault: {fault_steps}");
    assert!(failed > 0, "some reorder walk must fail, and its trail replay to the failure");
}

/// A walk's published link high-water marks are what its trail shows:
/// replayed through the closure it stepped, every link's highest
/// occupancy along the path is the `runtime_link_high_water_*` gauge the
/// walk publishes. A duplicate or a retransmission adds a frame to a link
/// without sending a message, so the marks must count the frames faults
/// add as well as the messages sent. The walks are the three of `ccr
/// verify specs/migratory.ccp -n 2 --faults drop=0.05,dup=0.02 --seed 7`;
/// in the second, `r0 -> h` reaches 3 only through a fault.
#[test]
fn published_high_water_is_the_trails_highest_occupancy() {
    let spec = parse_validated(&spec_text("migratory.ccp")).expect("parse");
    let refined = refine(&spec, &RefineOptions::default()).expect("refine");
    let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
    let links: Vec<(ProcessId, ProcessId)> = (0..2)
        .map(|i| ProcessId::Remote(RemoteId(i)))
        .flat_map(|r| [(r, ProcessId::Home), (ProcessId::Home, r)])
        .collect();
    for seed in SEED..SEED + 3 {
        let plan = FaultPlan::new(RATES, seed);
        let closure = FaultClosure::for_plan(asys.clone(), &plan);
        let mut sim = Simulator::new(&closure);
        let mut sched = RandomSched::new(seed ^ 0x5EED_CAB1);
        let walk = fault_walk(&mut sim, &plan, &mut sched, 20_000, &mut NullSink);
        assert!(walk.error.is_none() && !walk.deadlocked, "seed {seed}: {walk:?}");
        let reg = Registry::new();
        sim.stats().publish(&reg);
        let published = reg.snapshot().gauges;

        let mut highest = vec![0u64; links.len()];
        let (mut state, mut succ) = (closure.initial(), Vec::new());
        for (i, want) in walk.trail.iter().enumerate() {
            closure.successors(&state, &mut succ).expect("a trail state");
            let at = succ.iter().position(|(l, _)| l == want);
            state = succ.swap_remove(at.unwrap_or_else(|| panic!("step {i} is no closure step"))).1;
            for (high, &(from, to)) in highest.iter_mut().zip(&links) {
                let occ = closure.link_occupancy(&state, from, to).expect("a link");
                *high = (*high).max(u64::from(occ));
            }
        }
        assert!(walk.stats.dups > 0 && walk.stats.recovered > 0, "seed {seed}: {:?}", walk.stats);
        for (&(from, to), &high) in links.iter().zip(&highest) {
            let gauge = published.get(&format!("runtime_link_high_water_{from}_{to}")).copied();
            assert_eq!(gauge.unwrap_or(0), high, "seed {seed}: {from}->{to}");
        }
    }
}

/// The reorder probe bites, and leaves a trail: `ccr verify --faults
/// reorder=0.3` fails with `DuplicateRequest`, and the `fault_walk.trail`
/// it prints replays — label by label, matched on the bytes it printed —
/// through the fault closure to a state whose successors fail with that
/// error. On every state along it, `FaultClosure::new` lists exactly the
/// closure's transitions but the reorders.
#[test]
fn the_reorder_probe_fails_with_a_replayable_trail() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args(["verify", "specs/migratory.ccp", "-n", "2", "--faults", "reorder=0.3"])
        .args(["--seed", "1", "--json"])
        .current_dir(root())
        .output()
        .expect("run ccr");
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8(out.stdout).expect("utf-8");
    assert!(json.contains("\"error\":\"r0 has two outstanding requests\""), "{json}");
    let walk = &json[json.find("\"fault_walk\":").expect("fault_walk")..];
    let mut rest = &walk[walk.find("\"trail\":[").expect("a trail") + "\"trail\":[".len()..];

    let spec = parse_validated(&spec_text("migratory.ccp")).expect("parse");
    let refined = refine(&spec, &RefineOptions::default()).expect("refine");
    let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
    let rates = FaultRates { reorder: 0.3, ..FaultRates::default() };
    let closure = FaultClosure::for_plan(asys.clone(), &FaultPlan::new(rates, 1));
    let (mut state, mut trail, mut succ) = (closure.initial(), Vec::new(), Vec::new());
    let mut reorders = 0;
    while !rest.starts_with(']') {
        closure.successors(&state, &mut succ).expect("a trail state");
        let mut fifo = state.clone();
        fifo.faults_left = 2;
        let mut kept = Vec::new();
        FaultClosure::new(asys.clone(), 2).successors(&fifo, &mut kept).expect("the same state");
        let mut expected = labels(&succ);
        expected.retain(|l| l.rule != REORDER);
        assert_eq!(labels(&kept), expected, "step {}", trail.len());
        reorders += succ.len() - kept.len();

        let printed = |l: &Label| rest.starts_with(&serde::json::to_string(l));
        let (label, next) = succ.drain(..).find(|(l, _)| printed(l)).expect("an enabled label");
        rest = &rest[serde::json::to_string(&label).len()..];
        rest = rest.strip_prefix(',').unwrap_or(rest);
        trail.push(label);
        state = next;
    }
    assert!(reorders > 0, "the reorders are closure transitions");
    assert!(trail.iter().any(|l| l.rule == REORDER), "the walk took some");
    let end = replay_trail(&closure, &trail).expect("the printed trail replays");
    assert_eq!(end, state);
    let mut succ = Vec::new();
    let failure = closure.successors(&end, &mut succ);
    assert!(matches!(failure, Err(RuntimeError::DuplicateRequest { .. })), "{failure:?}");
}

/// The labels of a successor list, in order.
fn labels(succ: &[(Label, FaultState)]) -> Vec<Label> {
    succ.iter().map(|(l, _)| l.clone()).collect()
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
        None,
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
