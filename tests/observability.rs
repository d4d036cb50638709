//! End-to-end checks for the tracing/observability pipeline: deterministic
//! JSONL traces, replayable counterexamples from a broken spec, and the
//! machine-readable CLI surfaces (`--trace`, `--json`).

use ccr_core::text::parse_validated;
use ccr_dsm::machine::{Machine, MachineConfig};
use ccr_dsm::workload::Migrating;
use ccr_mc::search::{Budget, Search, SearchObserver};
use ccr_mc::trace::replay_trail;
use ccr_metrics::jsonval::Json;
use ccr_protocols::migratory::{migratory_refined, MigratoryOptions};
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_runtime::sched::RandomSched;
use ccr_runtime::system::TransitionSystem;
use ccr_trace::{JsonlSink, NullSink};
use std::path::Path;

fn spec_text(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("specs").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// One full derived-machine run, traced into an in-memory JSONL buffer.
fn traced_run(seed: u64) -> Vec<u8> {
    let refined = migratory_refined(&MigratoryOptions::default());
    let config = MachineConfig::standard(&refined, 3, 400);
    let machine = Machine::new(&refined, config);
    let mut wl = Migrating::new(seed, 0.8, 0.5);
    let mut sched = RandomSched::new(seed);
    let mut sink = JsonlSink::new(Vec::new());
    machine.run_observed("derived", &mut wl, &mut sched, &mut sink).expect("run");
    sink.into_inner().expect("no io errors on a Vec")
}

#[test]
fn same_seed_yields_byte_identical_jsonl_traces() {
    let a = traced_run(42);
    let b = traced_run(42);
    assert!(!a.is_empty());
    assert_eq!(a, b, "traced runs with the same seed must be byte-identical");
    let text = String::from_utf8(a).expect("utf8");
    for line in text.lines() {
        assert!(Json::parse(line).is_ok(), "{line}");
    }
}

#[test]
fn different_seeds_yield_different_traces() {
    // Guards against the determinism test passing vacuously (e.g. an
    // always-empty trace would be trivially "identical").
    let a = traced_run(42);
    let b = traced_run(43);
    assert_ne!(a, b);
}

#[test]
fn broken_spec_counterexample_replays_to_a_stuck_state() {
    let spec = parse_validated(&spec_text("migratory_broken.ccp")).expect("parse");
    let rv = RendezvousSystem::new(&spec, 2);
    let mut null = NullSink;
    let mut obs = SearchObserver::new(&mut null);
    let report = Search { check_deadlock: true, trails: true, ..Search::default() }.explore(
        &rv,
        &Budget::states(100_000),
        |_| None,
        &mut obs,
    );
    let trail = report.trail.as_ref().expect("broken spec must yield a counterexample");
    assert!(!trail.is_empty());
    let end = replay_trail(&rv, trail).expect("counterexample must replay");
    let mut succ = Vec::new();
    rv.successors(&end, &mut succ).expect("successors");
    assert!(succ.is_empty(), "replayed counterexample must end in a deadlocked state");
}

#[test]
fn cli_trace_flag_writes_a_replayable_counterexample() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = std::env::temp_dir().join(format!("ccr-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let cex = dir.join("cex.jsonl");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args(["verify", "specs/migratory_broken.ccp", "-n", "2"])
        .arg("--trace")
        .arg(&cex)
        .current_dir(root)
        .output()
        .expect("spawn ccr");
    assert!(!out.status.success(), "broken spec must fail verification");
    let text = std::fs::read_to_string(&cex).expect("trace file written");
    std::fs::remove_dir_all(&dir).ok();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "counterexample trace must be non-empty");
    for line in &lines {
        assert!(Json::parse(line).is_ok(), "{line}");
    }
    assert!(lines.iter().any(|l| l.contains("\"Step\"")), "{text}");
    assert!(
        lines.last().unwrap().contains("\"Deadlock\""),
        "trace must end with the deadlock outcome: {text}"
    );
}

#[test]
fn cli_json_report_is_valid_and_holds() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args(["verify", "specs/migratory.ccp", "-n", "2", "--json"])
        .current_dir(root)
        .output()
        .expect("spawn ccr");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let line = stdout.trim();
    assert!(Json::parse(line).is_ok(), "{line}");
    assert!(line.contains("\"holds\":true"), "{line}");
    assert!(line.contains("\"equation1\""), "{line}");
}

/// Under `--spill-dir` nothing rides, and Equation 1 sweeps the concrete
/// space alone. Under the default `--symmetry auto` a budget that covers
/// the 210 asynchronous orbits of token at n=3 therefore runs out inside
/// it. That refutes nothing and must not read as a refutation; the run
/// still fails (exit 1, `"holds":false`) because nothing was proven.
#[test]
fn cli_budget_exhaustion_in_equation1_reads_incomplete_not_violated() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = std::env::temp_dir().join(format!("ccr-obs-eq1-{}", std::process::id()));
    let run = |extra: &[&str]| {
        let spill = dir.join(extra.len().to_string());
        std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
            .args(["verify", "specs/token.ccp", "-n", "3", "--budget", "300", "--spill-dir"])
            .arg(&spill)
            .args(extra)
            .current_dir(root)
            .output()
            .expect("spawn ccr")
    };
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("asynchronous level (n=3): 210 states, Complete"), "{stdout}");
    assert!(stdout.contains("Equation 1: INCOMPLETE (budget exhausted at 300 states)"), "{stdout}");
    assert!(!stdout.contains("VIOLATED"), "{stdout}");

    let out = run(&["--json"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("\"violation\":null,\"complete\":false"), "{stdout}");
    assert!(stdout.contains("\"holds\":false"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_json_table_is_valid() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args(["table", "specs/migratory.ccp", "-n", "2", "--json"])
        .current_dir(root)
        .output()
        .expect("spawn ccr");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let line = stdout.trim();
    assert!(Json::parse(line).is_ok(), "{line}");
    assert!(line.contains("\"rows\""), "{line}");
}
