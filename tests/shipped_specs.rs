//! The `.ccp` spec files shipped under `specs/` parse cleanly, validate,
//! and verify end to end; malformed text is a line-numbered error.

#[path = "support/specs.rs"]
mod specs;

use ccr_core::refine::{refine, RefineOptions};
use ccr_core::text::{parse, parse_validated};
use ccr_mc::search::Budget;
use ccr_mc::simrel::check_simulation;
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;
use specs::shipped_specs;
use std::path::Path;

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("specs").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn shipped_specs_parse_and_validate() {
    let specs = shipped_specs();
    assert!(specs.len() >= 12, "{} specs", specs.len());
    for (name, spec) in specs {
        assert!(!spec.name.is_empty(), "{name}");
    }
}

/// `specs/token.ccp` with one arrow typed as `→`, and with the remote's
/// `W` declared as `É`: the lexer used to step through UTF-8 a byte at a
/// time and slice in the middle of a character.
fn non_ascii_mutants() -> [(String, &'static str); 2] {
    let text = read("token.ccp");
    let arrow = text.replacen("h ! req -> W;", "h ! req \u{2192} W;", 1);
    let state = text.replacen("state W {", "state \u{c9} {", 1);
    assert!(arrow != text && state != text, "the mutation sites moved");
    [(arrow, "line 20: unexpected character '\u{2192}'"), (state, "line 20:")]
}

#[test]
fn non_ascii_input_is_a_line_numbered_error() {
    for (text, expected) in non_ascii_mutants() {
        let err = parse(&text).expect_err("a mutant must not parse");
        assert!(err.to_string().contains(expected), "{err} (expected {expected:?})");
    }
    // Non-ASCII letters are identifier characters.
    let renamed = read("token.ccp").replace("RQ", "\u{c9}t\u{e9}");
    assert_eq!(parse_validated(&renamed).expect("parses").remote.states[1].name, "\u{c9}t\u{e9}");
}

#[test]
fn cli_rejects_non_ascii_input_with_exit_one() {
    let dir = std::env::temp_dir().join(format!("ccr-non-ascii-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (i, (text, expected)) in non_ascii_mutants().into_iter().enumerate() {
        let path = dir.join(format!("mutant{i}.ccp"));
        std::fs::write(&path, text).expect("write mutant");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
            .arg("verify")
            .arg(&path)
            .output()
            .expect("spawn ccr");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains(expected), "{stderr} (expected {expected:?})");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_parsed_shipped_spec_verifies_end_to_end() {
    let spec = parse_validated(&read("migratory.ccp")).unwrap();
    let refined = refine(&spec, &RefineOptions::default()).unwrap();
    assert_eq!(refined.pairs.len(), 2);
    let rv = RendezvousSystem::new(&spec, 2);
    let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
    let sim = check_simulation(&asys, &rv, &Budget::default());
    assert!(sim.holds(), "{sim:?}");
}

/// The fuzzing counterexample (zoo seed 7, index 34, shrunk): the
/// detector used to pair `(m1, m0)` even though the remote sends `m0`
/// spontaneously, and the derived executor trapped on an unexpected ack.
/// Pinned: no pair may be accepted, and the full differential fuzz
/// pipeline (Equation 1, serial/parallel/symmetry cross-check) must pass.
#[test]
fn zoo_unsound_pair_regression() {
    let spec = parse_validated(&read("zoo_unsound_pair.ccp")).unwrap();
    let refined = refine(&spec, &RefineOptions::default()).unwrap();
    assert!(refined.pairs.is_empty(), "unsound pair re-accepted: {:?}", refined.pairs);
    assert!(refined.remote_fire_forget.is_empty());
    let verdict = ccr_mc::run_spec(&spec, &ccr_mc::FuzzConfig::default());
    assert!(verdict.passed(), "pipeline failure: {:?}", verdict.failure);
}

/// The curated zoo member: a 3-message passive chain behind one optimized
/// request hop. Verifies completely (safety, Equation 1, progress).
#[test]
fn zoo_chain_verifies_end_to_end() {
    let spec = parse_validated(&read("zoo_chain.ccp")).unwrap();
    let refined = refine(&spec, &RefineOptions::default()).unwrap();
    assert_eq!(refined.pairs.len(), 1);
    assert_eq!(spec.msg_name(refined.pairs[0].req), "req");
    assert_eq!(spec.msg_name(refined.pairs[0].repl), "a");
    let rv = RendezvousSystem::new(&spec, 2);
    let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
    let sim = check_simulation(&asys, &rv, &Budget::default());
    assert!(sim.holds(), "{sim:?}");
    let verdict = ccr_mc::run_spec(&spec, &ccr_mc::FuzzConfig::default());
    assert!(verdict.passed(), "pipeline failure: {:?}", verdict.failure);
    assert_eq!(verdict.progress_holds, Some(true));
    assert_eq!(verdict.fault_holds, Some(true));
}

#[test]
fn cli_binary_verifies_a_shipped_spec() {
    // Drive the actual `ccr` binary if it has been built; skip silently in
    // bare `cargo test` runs where only the test profile exists.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let exe = root.join("target/release/ccr");
    if !exe.exists() {
        eprintln!("skipping: {} not built", exe.display());
        return;
    }
    let out = std::process::Command::new(&exe)
        .args(["verify", "specs/token.ccp", "-n", "2"])
        .current_dir(root)
        .output()
        .expect("spawn ccr");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Equation 1: holds"), "{stdout}");
    assert!(stdout.contains("forward progress: holds"), "{stdout}");
}

// ---------------------------------------------------------------------------
// The model checker's three checks share one serial sweep
// ---------------------------------------------------------------------------
//
// Exploration, Equation 1 and the progress check are checkers on the same
// `drive` loop, so on one system they must see the same graph and — under a
// budget — cut it at the same state.

mod one_sweep {
    use ccr_core::process::ProtocolSpec;
    use ccr_core::refine::{refine, RefineOptions};
    use ccr_core::text::parse_validated;
    use ccr_core::zoo::ZooSpec;
    use ccr_mc::parallel::{explore_parallel_traced_observed, ParallelConfig};
    use ccr_mc::progress::{check_progress_default, check_progress_observed};
    use ccr_mc::search::{
        explore, Budget, PersistOpts, Search, SearchObserver, SerialPersist, SerialPersistOpen,
    };
    use ccr_mc::simrel::check_simulation;
    use ccr_mc::trace::{explore_traced_observed, explore_traced_observed_persist};
    use ccr_mc::Outcome;
    use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
    use ccr_runtime::rendezvous::RendezvousSystem;
    use ccr_trace::NullSink;
    use std::path::Path;

    /// The seven shipped specs that pass `ccr verify`, and the first eight
    /// specs of the zoo stream CI pins (`tests/fuzz_zoo.rs`).
    fn specs() -> Vec<ProtocolSpec> {
        let shipped = [
            "invalidate",
            "migratory",
            "migratory_gated",
            "token",
            "update",
            "zoo_chain",
            "zoo_unsound_pair",
        ]
        .into_iter()
        .map(|name| {
            let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("specs/{name}.ccp"));
            parse_validated(&std::fs::read_to_string(path).expect("spec")).expect("parse")
        });
        let zoo = (0..8).map(|i| ZooSpec::generate(1998, i).build().expect("zoo spec builds"));
        shipped.chain(zoo).collect()
    }

    #[test]
    fn the_three_checks_see_one_graph_and_share_one_cut() {
        for spec in specs() {
            let name = &spec.name;
            let refined = refine(&spec, &RefineOptions::default()).expect("refines");
            let rv = RendezvousSystem::new(&spec, 2);
            let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());

            let budget = Budget::default();
            let explored = explore(&asys, &budget, |_| None, false);
            let equation1 = check_simulation(&asys, &rv, &budget);
            let progress = check_progress_default(&asys, &budget);
            assert!(explored.outcome.is_complete(), "{name}: {:?}", explored.outcome);
            assert!(equation1.holds(), "{name}: {equation1:?}");
            assert!(progress.complete, "{name}");
            assert_eq!(
                (explored.states, explored.states),
                (equation1.async_states, progress.states),
                "{name}: states"
            );
            assert_eq!(explored.transitions, equation1.transitions_checked, "{name}: transitions");
            assert_eq!(
                equation1.transitions_checked,
                equation1.stutters + equation1.mapped_steps,
                "{name}: every edge is a stutter or a mapped step"
            );

            // The root is stored before the budget is first asked, so the
            // smallest cut is at two states.
            let cuts = [2, explored.states / 3, explored.states - 1];
            for k in cuts.into_iter().filter(|&k| 2 <= k && k < explored.states) {
                let budget = Budget::states(k);
                let explored = explore(&asys, &budget, |_| None, false);
                let equation1 = check_simulation(&asys, &rv, &budget);
                let progress = check_progress_default(&asys, &budget);
                assert_eq!(explored.outcome, Outcome::Unfinished, "{name} k={k}");
                assert!(!equation1.complete && equation1.violation.is_none(), "{name} k={k}");
                assert!(!progress.complete, "{name} k={k}");
                assert_eq!(
                    (explored.states, equation1.async_states, progress.states),
                    (k, k, k),
                    "{name} k={k}: all three stop at the budget"
                );
                assert_eq!(
                    explored.transitions, equation1.transitions_checked,
                    "{name} k={k}: and at the same edge"
                );
            }
        }
    }

    /// The four names `benchmark/src/layers.rs` still calls are the new
    /// entry under another signature: same reports, field for field.
    #[test]
    fn the_benchmark_shims_report_what_the_new_entry_reports() {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("specs/migratory_broken.ccp"),
        )
        .expect("spec");
        let spec = parse_validated(&text).expect("parse");
        let refined = refine(&spec, &RefineOptions::default()).expect("refines");
        let budget = Budget::states(100_000);
        let mut null = NullSink;
        let mut obs = SearchObserver::new(&mut null);
        let traced = Search { check_deadlock: true, trails: true, ..Search::default() };

        // A violating run, so the trail is compared too.
        let rv = RendezvousSystem::new(&spec, 2);
        let new = traced.explore(&rv, &budget, None, &mut obs).traced_report();
        let shim = explore_traced_observed(&rv, &budget, |_| None, true, &mut obs);
        assert_eq!(new.outcome, Outcome::Deadlock);
        assert_eq!(
            (new.states, new.transitions, &new.outcome, &new.trail),
            (shim.states, shim.transitions, &shim.outcome, &shim.trail)
        );

        let par = Search { threads: 2, ..traced }.explore(&rv, &budget, None, &mut obs);
        let cfg = ParallelConfig::threads(2);
        let shim = explore_parallel_traced_observed(&rv, &budget, |_| None, true, &cfg, &mut obs);
        assert_eq!(
            (par.states, par.transitions, &par.outcome, &par.trail),
            (shim.states, shim.transitions, &shim.outcome, &shim.trail)
        );

        let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        let new = Search::default().progress(&asys, &budget, |l| l.completes.is_some(), &mut obs);
        let shim = check_progress_observed(&asys, &budget, |l| l.completes.is_some(), &mut obs);
        assert!(new.witness.is_some(), "the broken spec gets stuck");
        assert_eq!(new, shim);

        let dir = std::env::temp_dir().join(format!("ccr-one-sweep-{}", std::process::id()));
        let opts = PersistOpts::default();
        let new = Search { persist: Some((&dir.join("new"), &opts)), ..traced }
            .explore(&asys, &budget, None, &mut obs)
            .traced_report();
        let SerialPersistOpen::Run(mut p) =
            SerialPersist::open(&dir.join("shim"), &opts).expect("open")
        else {
            panic!("a fresh directory holds no finished run");
        };
        let shim =
            explore_traced_observed_persist(&asys, &budget, |_| None, true, &mut obs, &mut p);
        assert_eq!(
            (new.states, new.transitions, &new.outcome, &new.trail),
            (shim.states, shim.transitions, &shim.outcome, &shim.trail)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
