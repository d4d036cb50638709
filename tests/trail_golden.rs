//! Counterexample trails are rebuilt, not stored: the serial engines keep
//! an eight-byte `(parent, ordinal)` per state and replay `successors`
//! from the initial state when a violation is reported. These tests pin
//! that the rebuilt trails are the ones the label-per-state tables used
//! to give: every `tests/golden/*.json` was written by the commit *before*
//! the parent-pointer scheme (`ccr verify specs/migratory_broken.ccp ...
//! --json`, and `check_progress_default` serialized), and the trails must
//! still replay into the violating state.

use ccr_core::refine::{refine, RefineOptions};
use ccr_core::text::parse_validated;
use ccr_mc::progress::check_progress_default;
use ccr_mc::search::{Search, SearchObserver};
use ccr_mc::{replay_trail, Budget, Outcome, Reduced, Symmetric};
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_runtime::{Label, TransitionSystem};
use ccr_trace::NullSink;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn golden(name: &str) -> String {
    let path = root().join("tests/golden").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn broken() -> ccr_core::process::ProtocolSpec {
    let text = std::fs::read_to_string(root().join("specs/migratory_broken.ccp")).expect("spec");
    parse_validated(&text).expect("parse")
}

fn assert_replays_to_a_stuck_state<T: TransitionSystem>(sys: &T, trail: &[Label], context: &str) {
    let end = replay_trail(sys, trail).unwrap_or_else(|e| panic!("{context}: {e}"));
    let mut succs = Vec::new();
    sys.successors(&end, &mut succs).expect("successors");
    assert!(succs.is_empty(), "{context}: the trail must end in a state with no successors");
}

/// BFS deadlock trail of `sys`, found concretely and in the quotient;
/// both must replay on the concrete system.
fn assert_bfs_trails_replay<T>(sys: &T, context: &str)
where
    T: Symmetric + Sync,
    T::State: Send,
{
    let budget = Budget::states(100_000);
    let search = Search { check_deadlock: true, trails: true, ..Search::default() };
    let mut null = NullSink;
    let mut obs = SearchObserver::new(&mut null);
    let full = search.explore(sys, &budget, None, &mut obs);
    assert_eq!(full.outcome, Outcome::Deadlock, "{context}");
    assert_replays_to_a_stuck_state(sys, full.trail.as_deref().expect("trail"), context);

    let reduced = search.explore(&Reduced::new(sys), &budget, None, &mut obs);
    assert_eq!(reduced.outcome, Outcome::Deadlock, "{context} (reduced)");
    let trail = reduced.trail.as_deref().expect("reduced trail");
    assert_replays_to_a_stuck_state(sys, trail, &format!("{context} (reduced)"));
}

#[test]
fn bfs_trails_replay_at_both_levels_with_and_without_symmetry() {
    let spec = broken();
    let refined = refine(&spec, &RefineOptions::default()).expect("refine");
    assert_bfs_trails_replay(&RendezvousSystem::new(&spec, 2), "rendezvous n=2");
    assert_bfs_trails_replay(&RendezvousSystem::new(&spec, 3), "rendezvous n=3");
    assert_bfs_trails_replay(&AsyncSystem::new(&refined, 2, AsyncConfig::default()), "async n=2");
}

#[test]
fn progress_witnesses_replay_and_equal_the_golden() {
    let spec = broken();

    // Rendezvous level: the first stuck state is the deadlock itself.
    let rv = RendezvousSystem::new(&spec, 2);
    let report = check_progress_default(&rv, &Budget::default());
    assert_eq!(report.witness_outcome, Some(Outcome::Deadlock));
    assert_replays_to_a_stuck_state(&rv, report.witness.as_deref().expect("witness"), "rv witness");

    // Asynchronous level: BFS meets a livelocked state (it can still step,
    // but only toward the deadlock) before the deadlocked one.
    let refined = refine(&spec, &RefineOptions::default()).expect("refine");
    let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
    let report = check_progress_default(&sys, &Budget::default());
    assert_eq!(report.witness_outcome, Some(Outcome::Livelock));
    let end = replay_trail(&sys, report.witness.as_deref().expect("witness")).expect("replays");
    let mut succs = Vec::new();
    sys.successors(&end, &mut succs).expect("successors");
    assert!(!succs.is_empty() && succs.iter().all(|(l, _)| l.completes.is_none()));
    assert_eq!(
        serde::json::to_string(&report) + "\n",
        golden("migratory_broken_async_n2_progress.json")
    );
}

#[test]
fn cli_json_equals_the_goldens() {
    let cases: [(&str, &[&str]); 5] = [
        ("migratory_broken_rv_n2_sym_on.json", &["-n", "2", "--symmetry", "on"]),
        ("migratory_broken_rv_n2_sym_off.json", &["-n", "2", "--symmetry", "off"]),
        ("migratory_broken_rv_n3_sym_on.json", &["-n", "3", "--symmetry", "on"]),
        ("migratory_broken_async_n2_sym_on.json", &["-n", "2", "--symmetry", "on", "--async"]),
        ("migratory_broken_async_n2_sym_off.json", &["-n", "2", "--symmetry", "off", "--async"]),
    ];
    for (file, flags) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
            .args(["verify", "specs/migratory_broken.ccp", "--json"])
            .args(flags)
            .current_dir(root())
            .output()
            .expect("spawn ccr");
        assert_eq!(out.status.code(), Some(1), "{file}: the broken spec must fail verification");
        assert_eq!(String::from_utf8(out.stdout).expect("utf8"), golden(file), "{file}");
    }
}
