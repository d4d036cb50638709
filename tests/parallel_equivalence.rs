//! Serial/parallel equivalence over every shipped spec: for each `.ccp`
//! file under `specs/` the multi-threaded engine must report exactly the
//! serial states, transitions, and outcome at 1, 2, and 4 threads — on
//! the rendezvous level and (where the spec refines) on the asynchronous
//! refinement. For the deliberately broken spec the violation must be
//! classified identically, deterministically across thread counts, and
//! its counterexample trail must replay.

use ccr_core::refine::{refine, RefineOptions};
use ccr_core::text::parse_validated;
use ccr_mc::search::{explore, Budget, Search, SearchObserver};
use ccr_mc::{Reduced, SearchReport};
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_runtime::TransitionSystem;
use std::path::Path;

const THREADS: [usize; 3] = [1, 2, 4];

/// Every spec shipped under `specs/`, split by health: the broken one
/// deadlocks at the rendezvous level and never refines cleanly in the
/// verify pipeline, so it gets the violation-equivalence treatment.
const HEALTHY: [&str; 5] =
    ["invalidate.ccp", "migratory.ccp", "migratory_gated.ccp", "token.ccp", "update.ccp"];
const BROKEN: &str = "migratory_broken.ccp";

fn load(name: &str) -> ccr_core::process::ProtocolSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("specs").join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse_validated(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// One unobserved exploration on `threads` workers, deadlock check on.
fn explore_parallel<T>(sys: &T, budget: &Budget, threads: usize, trails: bool) -> SearchReport
where
    T: TransitionSystem + Sync,
    T::State: Send,
{
    let mut null = ccr_trace::NullSink;
    let mut obs = SearchObserver::new(&mut null);
    Search { check_deadlock: true, trails, threads, ..Search::default() }.explore(
        sys,
        budget,
        |_| None,
        &mut obs,
    )
}

/// Serial exploration vs. the parallel engine at each thread count:
/// states, transitions, and outcome must match exactly.
fn assert_matches_serial<T>(sys: &T, budget: &Budget, context: &str)
where
    T: TransitionSystem + Sync,
    T::State: Send,
{
    let serial = explore(sys, budget, |_| None, true);
    for threads in THREADS {
        let par = explore_parallel(sys, budget, threads, false);
        assert_eq!(par.states, serial.states, "{context} t={threads}: states");
        assert_eq!(par.transitions, serial.transitions, "{context} t={threads}: transitions");
        assert_eq!(par.outcome, serial.outcome, "{context} t={threads}: outcome");
    }
}

#[test]
fn healthy_specs_rendezvous_level_matches_serial() {
    let budget = Budget::states(500_000);
    for name in HEALTHY {
        let spec = load(name);
        for n in [2u32, 3] {
            let sys = RendezvousSystem::new(&spec, n);
            assert_matches_serial(&sys, &budget, &format!("{name} rv n={n}"));
        }
    }
}

#[test]
fn healthy_specs_async_refinement_matches_serial() {
    let budget = Budget::states(500_000);
    for name in HEALTHY {
        let spec = load(name);
        let refined = refine(&spec, &RefineOptions::default())
            .unwrap_or_else(|e| panic!("{name}: refine: {e}"));
        let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        assert_matches_serial(&sys, &budget, &format!("{name} async n=2"));
    }
}

#[test]
fn broken_spec_same_classification_and_replayable_trail_at_every_thread_count() {
    let spec = load(BROKEN);
    let budget = Budget::states(500_000);
    let sys = RendezvousSystem::new(&spec, 2);
    let serial = explore(&sys, &budget, |_| None, true);
    assert_eq!(serial.outcome, ccr_mc::Outcome::Deadlock, "broken spec must deadlock serially");

    let mut counts = Vec::new();
    for threads in THREADS {
        let par = explore_parallel(&sys, &budget, threads, true);
        // Same classification as the serial checker.
        assert_eq!(par.outcome, serial.outcome, "t={threads}: outcome");
        counts.push((par.states, par.transitions, par.trail.clone()));

        // The counterexample must replay step for step on a fresh system
        // and land in a state that really has no successors.
        let trail = par.trail.as_ref().expect("deadlock must carry a trail");
        let end = ccr_mc::replay_trail(&sys, trail)
            .unwrap_or_else(|e| panic!("t={threads}: trail replay: {e}"));
        let mut succs = Vec::new();
        sys.successors(&end, &mut succs).expect("replayed state must execute");
        assert!(succs.is_empty(), "t={threads}: replayed trail must end in a deadlock");
    }
    // Violating runs are level-deterministic: identical counts and an
    // identical winning trail no matter how many workers raced.
    for w in counts.windows(2) {
        assert_eq!(w[0], w[1], "violating-run reports must not depend on the thread count");
    }
}

/// Torture case for the asynchronous termination detection: the broken
/// spec aborts mid-level when the deadlock is found, which is exactly
/// when the decider/epoch protocol is easiest to race — workers may be
/// shipping cross-shard batches, draining late arrivals, or parked in a
/// detection round when the stop lands. Every combination of thread
/// count (1/2/4/8 — including oversubscription past the shard-stripe
/// width) and symmetry mode (full space vs. quotient), repeated to give
/// interleavings a chance to differ, must agree byte for byte with every
/// other parallel run of the same space — same states, same transitions,
/// same winning trail — carry the serial outcome, and produce a
/// counterexample that replays step for step on the *unreduced* system
/// into a genuinely stuck state. (The counts legitimately exceed the
/// serial ones: a violating parallel run finishes its level to stay
/// deterministic, the serial engine stops at the first hit.)
#[test]
fn termination_detection_torture_on_the_broken_spec() {
    const TORTURE_THREADS: [usize; 4] = [1, 2, 4, 8];
    const REPEATS: usize = 3;
    let spec = load(BROKEN);
    let budget = Budget::states(500_000);
    for n in [2u32, 3] {
        let sys = RendezvousSystem::new(&spec, n);
        for symmetry in [false, true] {
            // The serial run of the same (reduced or full) space is the
            // byte-exact baseline.
            let (serial, context) = if symmetry {
                (explore(&Reduced::new(&sys), &budget, |_| None, true), format!("n={n} sym"))
            } else {
                (explore(&sys, &budget, |_| None, true), format!("n={n} full"))
            };
            assert_eq!(serial.outcome, ccr_mc::Outcome::Deadlock, "{context}: baseline");
            let mut first: Option<(usize, usize, Option<Vec<ccr_runtime::Label>>)> = None;
            for threads in TORTURE_THREADS {
                for rep in 0..REPEATS {
                    let ctx = format!("{context} t={threads} rep={rep}");
                    let par = if symmetry {
                        explore_parallel(&Reduced::new(&sys), &budget, threads, true)
                    } else {
                        explore_parallel(&sys, &budget, threads, true)
                    };
                    assert_eq!(par.outcome, serial.outcome, "{ctx}: outcome");
                    let row = (par.states, par.transitions, par.trail.clone());
                    match &first {
                        None => first = Some(row),
                        Some(f) => assert_eq!(
                            f, &row,
                            "{ctx}: parallel violating runs must be byte-identical"
                        ),
                    }
                    // Quotient trails hold concrete representatives, so
                    // both modes replay on the unreduced system.
                    let trail = par.trail.as_ref().expect("deadlock must carry a trail");
                    let end = replay_on(&sys, trail, &ctx);
                    let mut succs = Vec::new();
                    sys.successors(&end, &mut succs).expect("replayed state must execute");
                    assert!(succs.is_empty(), "{ctx}: trail must end in a deadlock");
                }
            }
        }
    }
}

fn replay_on<T: TransitionSystem>(sys: &T, trail: &[ccr_runtime::Label], ctx: &str) -> T::State {
    ccr_mc::replay_trail(sys, trail).unwrap_or_else(|e| panic!("{ctx}: trail replay: {e}"))
}
