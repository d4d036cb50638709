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
    assert_eq!(a, b, "traced runs with the same seed must be byte-identical");
    let text = String::from_utf8(a).expect("utf8");
    let events: Vec<&str> = ccr_trace::events(&text).expect("a versioned trace").collect();
    assert!(!events.is_empty());
    for line in events {
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
        None,
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
    let lines: Vec<&str> = ccr_trace::events(&text).expect("a versioned trace").collect();
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

/// A trace that cannot be written fails a run that holds, naming the
/// file, as a timeline that cannot be written does; the report is still
/// printed whole.
#[test]
fn cli_trace_write_errors_fail_the_run() {
    let full = Path::new("/dev/full");
    if !full.exists() {
        return;
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args(["verify", "specs/migratory.ccp", "-n", "2", "--json", "--trace"])
        .arg(full)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn ccr");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot write /dev/full"), "{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.trim().contains("\"holds\":true"), "{stdout}");
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

/// Runs `ccr verify <spec> -n 3` with `flags` in the repository root and
/// returns (exit code, stdout, stderr).
fn verify_n3(spec: &str, flags: &[&str]) -> (Option<i32>, Vec<u8>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args(["verify", spec, "-n", "3"])
        .args(flags)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn ccr");
    (out.status.code(), out.stdout, String::from_utf8_lossy(&out.stderr).into_owned())
}

/// The trace is the deterministic record of what a run did: the same
/// bytes whatever the sampling cadence and however many threads feed the
/// sweep — on a passing spec and on one whose trace carries a trail.
#[test]
fn cli_traces_are_byte_identical_at_every_interval_and_thread_count() {
    let dir = std::env::temp_dir().join(format!("ccr-obs-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    for (spec, code) in [("specs/migratory.ccp", 0), ("specs/migratory_broken.ccp", 1)] {
        let traces: Vec<Vec<u8>> =
            [&["--progress-interval", "0"][..], &[][..], &["--threads", "2"][..]]
                .iter()
                .enumerate()
                .map(|(i, flags)| {
                    let path = dir.join(format!("trace{i}.jsonl"));
                    let mut args = flags.to_vec();
                    args.extend(["--trace", path.to_str().expect("utf-8 path")]);
                    let (exit, _, err) = verify_n3(spec, &args);
                    assert_eq!(exit, Some(code), "{spec} {flags:?}: {err}");
                    std::fs::read(&path).expect("trace written")
                })
                .collect();
        assert!(!traces[0].is_empty(), "{spec}: the trace holds at least the outcomes");
        for (other, what) in [(&traces[1], "the default interval"), (&traces[2], "--threads 2")] {
            let at = traces[0].iter().zip(other).position(|(a, b)| a != b);
            assert!(
                at.is_none() && traces[0].len() == other.len(),
                "{spec}: interval 0 and {what} differ at byte {}",
                at.unwrap_or(traces[0].len().min(other.len()))
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--progress` prints the flight recorder's samples on stderr, one line
/// per sample in the documented shape, timed from the start of the run:
/// across the phases of a multi-phase run the elapsed time never goes
/// back, although each phase's counters start again. The report on
/// stdout is the one a run without the flag prints.
#[test]
fn progress_lines_are_timed_from_the_start_of_the_run() {
    let (exit, plain, _) = verify_n3("specs/migratory.ccp", &["--fault-budget", "1"]);
    assert_eq!(exit, Some(0));
    let flags = ["--fault-budget", "1", "--progress", "--progress-interval", "0"];
    let (exit, stdout, stderr) = verify_n3("specs/migratory.ccp", &flags);
    assert_eq!(exit, Some(0), "{stderr}");
    assert_eq!(stdout, plain, "--progress changes nothing on stdout");
    let mut last = (0u64, 0u64);
    let mut restarts = 0;
    for line in stderr.lines() {
        // `  [{ms:>7} ms] S states, frontier F, K KB, R states/s`
        let shape = line.strip_prefix("  [").and_then(|l| l.split_once(" ms] "));
        let (ms, rest) = shape.unwrap_or_else(|| panic!("not a progress line: {line:?}"));
        let words: Vec<&str> = rest.split(' ').collect();
        assert!(
            ms.len() >= 7
                && matches!(words[..], [_, "states,", "frontier", _, _, "KB,", _, "states/s"]),
            "not a progress line: {line:?}"
        );
        let num = |w: &str| w.trim_end_matches(',').parse::<u64>().expect(line);
        for count in [words[3], words[4], words[6]] {
            num(count);
        }
        let (ms, states) = (num(ms.trim_start()), num(words[0]));
        assert!(ms >= last.0, "elapsed went back from {} to {ms} ms: {line:?}", last.0);
        restarts += usize::from(states < last.1);
        last = (ms, states);
    }
    assert!(restarts >= 2, "lines from every phase that sweeps:\n{stderr}");
}
