//! Threads are invisible: a search with `Search::threads` set is the one
//! sweep with worker threads generating its successors, so its report
//! must equal the serial run's field for field — states, transitions,
//! outcome, trail, peak frontier, store bytes — on every shipped spec,
//! at both levels, with and without symmetry reduction, whether the run
//! completes, stops at a budget (at exactly the budgeted state) or finds
//! a violation; and the same goes for the progress check, witness
//! included, and for the fault closure. CI runs this file ten times over
//! to give the interleavings a chance to differ.

use ccr_core::process::ProtocolSpec;
use ccr_core::refine::{refine, RefineOptions};
use ccr_core::text::parse_validated;
use ccr_mc::search::{Budget, Search, SearchObserver};
use ccr_mc::{spec_permutable, Outcome, ProgressReport, Reduced, SearchReport};
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_runtime::{FaultClosure, TransitionSystem};
use std::path::Path;
use std::time::Duration;

/// Past the two vCPUs of the CI host on purpose: oversubscribed workers
/// return their chunks in any order.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Every spec shipped under `specs/`. `migratory_broken` and
/// `zoo_unsound_pair` deadlock at the rendezvous level, so the matrix
/// below covers violating runs and their trails too.
const SPECS: [&str; 8] = [
    "invalidate",
    "migratory",
    "migratory_broken",
    "migratory_gated",
    "token",
    "update",
    "zoo_chain",
    "zoo_unsound_pair",
];

/// What a "complete" run may visit: spaces past it (invalidate and update
/// at n=3) are compared on this prefix instead, which keeps the debug
/// build inside a tier-1 time budget.
const CAP: usize = 20_000;

fn load(name: &str) -> ProtocolSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("specs/{name}.ccp"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse_validated(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// One unobserved exploration on `threads` workers (0: none), deadlock
/// check and trails on, with its wall time zeroed so reports compare
/// whole.
fn explore<T>(sys: &T, budget: &Budget, threads: usize) -> SearchReport
where
    T: TransitionSystem + Sync,
    T::State: Send,
{
    let mut null = ccr_trace::NullSink;
    let mut obs = SearchObserver::new(&mut null);
    let search = Search { check_deadlock: true, trails: true, threads, ..Search::default() };
    let report = search.explore(sys, budget, None, &mut obs);
    SearchReport { elapsed: Duration::ZERO, ..report }
}

fn progress<T>(sys: &T, budget: &Budget, threads: usize) -> ProgressReport
where
    T: TransitionSystem + Sync,
    T::State: Send,
{
    let mut null = ccr_trace::NullSink;
    let mut obs = SearchObserver::new(&mut null);
    Search { threads, ..Search::default() }.progress(
        sys,
        budget,
        |l| l.completes.is_some(),
        &mut obs,
    )
}

/// The serial run against every thread count: under the cap, and cut at
/// three budgets inside the space — which must stop at exactly the
/// budgeted state, not wherever the workers had got to.
fn assert_threads_invisible<T>(sys: &T, context: &str)
where
    T: TransitionSystem + Sync,
    T::State: Send,
{
    let full = explore(sys, &Budget::states(CAP), 0);
    let cuts = [2, full.states / 3, full.states - 1];
    let budgets =
        std::iter::once(CAP).chain(cuts.into_iter().filter(|&k| 2 <= k && k < full.states));
    for k in budgets {
        let serial = explore(sys, &Budget::states(k), 0);
        if k < full.states {
            assert_eq!(
                (serial.states, &serial.outcome),
                (k, &Outcome::Unfinished),
                "{context} k={k}"
            );
        }
        for threads in THREADS {
            let fed = explore(sys, &Budget::states(k), threads);
            assert_eq!(fed, serial, "{context} k={k} t={threads}");
        }
    }
}

/// [`assert_threads_invisible`] on `sys` and, when the spec's remotes are
/// interchangeable, on its symmetry quotient.
fn assert_invisible_on_both_spaces<T>(spec: &ProtocolSpec, sys: &T, context: &str)
where
    T: ccr_mc::Symmetric + Sync,
    T::State: Send,
{
    assert_threads_invisible(sys, &format!("{context} full"));
    if spec_permutable(spec) {
        let reduced = Reduced::new(sys);
        assert!(reduced.active(), "{context}");
        assert_threads_invisible(&reduced, &format!("{context} sym"));
    }
}

#[test]
fn healthy_specs_rendezvous_level_matches_serial() {
    for name in SPECS {
        let spec = load(name);
        for n in [2u32, 3] {
            let sys = RendezvousSystem::new(&spec, n);
            assert_invisible_on_both_spaces(&spec, &sys, &format!("{name} rv n={n}"));
        }
    }
}

#[test]
fn healthy_specs_async_refinement_matches_serial() {
    for name in SPECS {
        let spec = load(name);
        let refined = refine(&spec, &RefineOptions::default())
            .unwrap_or_else(|e| panic!("{name}: refine: {e}"));
        for n in [2u32, 3] {
            let sys = AsyncSystem::new(&refined, n, AsyncConfig::default());
            assert_invisible_on_both_spaces(&spec, &sys, &format!("{name} async n={n}"));
        }
    }
}

#[test]
fn broken_spec_same_classification_and_replayable_trail_at_every_thread_count() {
    for (name, n) in [("migratory_broken", 2u32), ("zoo_unsound_pair", 2)] {
        let spec = load(name);
        let sys = RendezvousSystem::new(&spec, n);
        let serial = explore(&sys, &Budget::states(CAP), 0);
        assert_eq!(serial.outcome, Outcome::Deadlock, "{name} must deadlock");
        for threads in THREADS {
            let fed = explore(&sys, &Budget::states(CAP), threads);
            assert_eq!(fed, serial, "{name} t={threads}");
            // The counterexample must replay step for step on a fresh
            // system and land in a state that really has no successors.
            let trail = fed.trail.as_ref().expect("deadlock must carry a trail");
            let end = replay_on(&sys, trail, &format!("{name} t={threads}"));
            let mut succs = Vec::new();
            sys.successors(&end, &mut succs).expect("replayed state must execute");
            assert!(succs.is_empty(), "{name} t={threads}: replayed trail must end in a deadlock");
        }
    }
}

/// Torture case for early stops: the broken spec ends the sweep the
/// moment the deadlock is merged, which is exactly when workers are
/// furthest ahead of it — chunks queued, being expanded, or already back
/// and waiting their turn. Every combination of thread count (1/2/4/8)
/// and symmetry mode (full space vs. quotient), repeated to give
/// interleavings a chance to differ, must report the serial run of the
/// same space byte for byte — counts, trail and all — and its
/// counterexample must replay on the *unreduced* system into a genuinely
/// stuck state.
#[test]
fn early_stop_torture_on_the_broken_spec() {
    const REPEATS: usize = 3;
    let spec = load("migratory_broken");
    let budget = Budget::states(500_000);
    for n in [2u32, 3] {
        let sys = RendezvousSystem::new(&spec, n);
        for symmetry in [false, true] {
            let run = |threads| {
                if symmetry {
                    explore(&Reduced::new(&sys), &budget, threads)
                } else {
                    explore(&sys, &budget, threads)
                }
            };
            let context = format!("n={n} {}", if symmetry { "sym" } else { "full" });
            let serial = run(0);
            assert_eq!(serial.outcome, Outcome::Deadlock, "{context}: baseline");
            for threads in THREADS {
                for rep in 0..REPEATS {
                    let ctx = format!("{context} t={threads} rep={rep}");
                    let fed = run(threads);
                    assert_eq!(fed, serial, "{ctx}");
                    // Quotient trails hold concrete representatives, so
                    // both modes replay on the unreduced system.
                    let trail = fed.trail.as_ref().expect("deadlock must carry a trail");
                    let end = replay_on(&sys, trail, &ctx);
                    let mut succs = Vec::new();
                    sys.successors(&end, &mut succs).expect("replayed state must execute");
                    assert!(succs.is_empty(), "{ctx}: trail must end in a deadlock");
                }
            }
        }
    }
}

/// The progress check is a checker on the same sweep: its whole report —
/// counts, verdict, witness trail — is the serial one at every thread
/// count, complete or cut by a budget, full space or quotient.
#[test]
fn progress_reports_match_serial_witness_included() {
    fn same_progress<T>(sys: &T, context: &str)
    where
        T: TransitionSystem + Sync,
        T::State: Send,
    {
        let full = progress(sys, &Budget::states(CAP), 0);
        for k in [CAP, (full.states / 2).max(2)] {
            let serial = progress(sys, &Budget::states(k), 0);
            for threads in THREADS {
                assert_eq!(progress(sys, &Budget::states(k), threads), serial, "{context} k={k}");
            }
        }
    }
    let mut stuck = 0;
    for name in SPECS {
        let spec = load(name);
        let refined = refine(&spec, &RefineOptions::default())
            .unwrap_or_else(|e| panic!("{name}: refine: {e}"));
        let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        same_progress(&sys, &format!("{name} async n=2 full"));
        if spec_permutable(&spec) {
            same_progress(&Reduced::new(&sys), &format!("{name} async n=2 sym"));
        }
        stuck += usize::from(progress(&sys, &Budget::states(CAP), 0).witness.is_some());
    }
    assert!(stuck >= 1, "the broken spec must contribute a witness to compare");
}

/// The fault closure is one more transition system for the same two
/// checks (`ccr verify --fault-budget`).
#[test]
fn fault_closure_reports_match_serial() {
    for (name, faults) in [("migratory", 1u32), ("token", 2), ("migratory_broken", 1)] {
        let spec = load(name);
        let refined = refine(&spec, &RefineOptions::default()).expect("refines");
        let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        let closure = FaultClosure::new(asys, faults);
        let budget = Budget::states(CAP);
        let serial = (explore(&closure, &budget, 0), progress(&closure, &budget, 0));
        for threads in THREADS {
            let fed = (explore(&closure, &budget, threads), progress(&closure, &budget, threads));
            assert_eq!(fed, serial, "{name} f={faults} t={threads}");
        }
    }
}

fn replay_on<T: TransitionSystem>(sys: &T, trail: &[ccr_runtime::Label], ctx: &str) -> T::State {
    ccr_mc::replay_trail(sys, trail).unwrap_or_else(|e| panic!("{ctx}: trail replay: {e}"))
}
