//! A sweep keeps no parent table: a violating run ends with the index of
//! the offending state, and its trail comes from a second sweep of the
//! same system, in the same order, up to that index; a progress witness
//! is read off the forward graph the check recorded. These tests pin the
//! cases `tests/trail_golden.rs` does not reach against trails the
//! parent-table sweeps wrote (`tests/golden/`): a progress witness on a
//! quotient sweep, and exploration trails of threaded sweeps — whose
//! replay is serial. The depth-first case is a unit test of
//! `ccr_mc::trace`, which alone drives a stack.

use ccr_core::refine::{refine, RefineOptions};
use ccr_core::text::parse_validated;
use ccr_mc::search::{Search, SearchObserver};
use ccr_mc::{replay_trail, Budget, Outcome, Reduced};
use ccr_runtime::asynch::{AsyncConfig, AsyncState, AsyncSystem};
use ccr_runtime::TransitionSystem;
use ccr_trace::NullSink;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn golden(name: &str) -> String {
    let path = root().join("tests/golden").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn refined(spec: &str) -> ccr_core::refine::RefinedProtocol {
    let text = std::fs::read_to_string(root().join("specs").join(spec)).expect("spec");
    refine(&parse_validated(&text).expect("parse"), &RefineOptions::default()).expect("refine")
}

/// The quotient's witness is a concrete execution, found at the same
/// index at every thread count.
#[test]
fn a_quotient_progress_witness_equals_the_golden() {
    let refined = refined("migratory_broken.ccp");
    let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
    let red = Reduced::new(&asys);
    let mut text = String::new();
    for threads in [0usize, 2] {
        let mut null = NullSink;
        let mut obs = SearchObserver::new(&mut null);
        let search = Search { threads, ..Search::default() };
        let report = search.progress(&red, &Budget::default(), |l| l.completes.is_some(), &mut obs);
        assert_eq!(report.witness_outcome, Some(Outcome::Livelock), "t={threads}");
        let witness = report.witness.as_deref().expect("witness");
        let end = replay_trail(&asys, witness).expect("the witness replays on the concrete system");
        let mut succs = Vec::new();
        asys.successors(&end, &mut succs).expect("successors");
        let stuck = !succs.is_empty() && succs.iter().all(|(l, _)| l.completes.is_none());
        assert!(stuck, "t={threads}: the witness ends livelocked");
        let line = serde::json::to_string(&report) + "\n";
        if threads == 0 {
            text = line;
        } else {
            assert_eq!(line, text, "t={threads}");
        }
    }
    assert_eq!(text, golden("migratory_broken_async_n2_quotient_progress.json"));
}

/// An invariant the threaded sweep of migratory's asynchronous level at
/// three remotes breaks 898 states in, with the frontier handed out to
/// the workers in chunks of 64, and the CLI's deadlock trail under
/// `--threads 2`.
#[test]
fn threaded_exploration_trails_equal_the_goldens() {
    let refined = refined("migratory.ccp");
    let asys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
    let mut null = NullSink;
    let mut obs = SearchObserver::new(&mut null);
    let search = Search { trails: true, threads: 2, ..Search::default() };
    let report = search.explore(
        &asys,
        &Budget::default(),
        Some(&|s: &AsyncState| (s.in_flight() >= 4).then(|| "four messages in flight".into())),
        &mut obs,
    );
    assert!(matches!(report.outcome, Outcome::InvariantViolated(_)), "{:?}", report.outcome);
    let trail = report.trail.as_deref().expect("trail");
    assert!(replay_trail(&asys, trail).expect("replays").in_flight() >= 4);
    let line = format!("{} {}\n", report.states, serde::json::to_string(&trail));
    assert_eq!(line, golden("migratory_async_n3_in_flight4_threads2.txt"));

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args(["verify", "specs/migratory_broken.ccp", "-n", "2", "--symmetry", "off"])
        .args(["--async", "--threads", "2", "--json"])
        .current_dir(root())
        .output()
        .expect("spawn ccr");
    assert_eq!(out.status.code(), Some(1), "the broken spec must fail verification");
    let json = String::from_utf8(out.stdout).expect("utf8");
    assert_eq!(json, golden("migratory_broken_async_n2_sym_off_threads2.json"));
}
