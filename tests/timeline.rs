//! Flight-recorder guarantees (see docs/observability.md, "Flight
//! recorder and timelines"):
//!
//! * recording off is free *and invisible*: byte-identical traces and
//!   identical deterministic metrics snapshots either way;
//! * sample *counts* are deterministic at a fixed interval in the
//!   virtual-time test mode (a zero interval samples every observer
//!   tick, and serial ticks count expansions) — the sampled values that
//!   depend on wall clock or the host (timestamps, RSS) are
//!   nondet-tagged and never gated;
//! * `ccr timeline` round-trips a real `--run-dir` bundle into a valid,
//!   self-validated `timeline.json`;
//! * the injected-stall hook (`--inject-stall-ms`) trips the stall
//!   watchdog end to end through the CLI.

use ccr_core::text::parse_validated;
use ccr_mc::search::{Budget, Search, SearchObserver, Telemetry};
use ccr_metrics::diff::diff_strs;
use ccr_metrics::jsonval::Json;
use ccr_metrics::timeseries::{Recorder, Timeline};
use ccr_metrics::Registry;
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_trace::JsonlSink;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn spec_text(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("specs").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccr-timeline-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// One traced, metered exploration of the migratory rendezvous space,
/// with or without a live flight recorder. Returns (trace bytes,
/// snapshot JSON).
fn traced_metered_run(timeline: Option<&Path>) -> (Vec<u8>, String) {
    let spec = parse_validated(&spec_text("migratory.ccp")).expect("parse");
    let sys = RendezvousSystem::new(&spec, 3);
    let telemetry = Telemetry {
        registry: Registry::new(),
        timeline: match timeline {
            Some(path) => Recorder::create(path, "migratory", 0, 5).expect("create recorder"),
            None => Recorder::disabled(),
        },
        ..Telemetry::off()
    };
    let mut sink = JsonlSink::new(Vec::new());
    let report = {
        let mut obs = SearchObserver::for_phase(&mut sink, &telemetry, "explore");
        Search::default().explore(&sys, &Budget::default(), |_| None, &mut obs)
    };
    telemetry
        .finish(&report.outcome, report.states as u64, report.transitions as u64)
        .expect("no timeline write error");
    (sink.into_inner().expect("vec sink"), telemetry.registry.snapshot().to_json())
}

#[test]
fn recording_off_is_invisible_in_traces_and_deterministic_snapshots() {
    let dir = tmp_dir("invisible");
    let (trace_off, snap_off) = traced_metered_run(None);
    let (trace_on, snap_on) = traced_metered_run(Some(&dir.join("timeline.jsonl")));
    assert!(!trace_off.is_empty());
    assert_eq!(trace_off, trace_on, "recording must not perturb the trace stream byte for byte");
    // The recorder publishes only nondeterministic-tagged counters, so
    // the deterministic view of the two snapshots must be identical
    // (`ccr bench diff` skips nondet-tagged metrics).
    let rep = diff_strs(&snap_off, &snap_on).expect("comparable");
    assert!(rep.ok(), "deterministic snapshot drifted with recording on: {:?}", rep.regressions);
    let rep = diff_strs(&snap_on, &snap_off).expect("comparable");
    assert!(rep.ok(), "deterministic snapshot drifted with recording off: {:?}", rep.regressions);
}

/// One serial exploration sampled at every observer tick (zero
/// interval: virtual-time mode — pacing follows the engine's own tick
/// stream instead of the wall clock).
fn zero_interval_timeline(dir: &Path, rep: usize) -> Timeline {
    let spec = parse_validated(&spec_text("migratory.ccp")).expect("parse");
    let sys = RendezvousSystem::new(&spec, 2);
    let path = dir.join(format!("rep{rep}.jsonl"));
    let telemetry = Telemetry {
        timeline: Recorder::create(&path, "migratory", 0, 5).expect("create recorder"),
        interval: Duration::ZERO,
        ..Telemetry::off()
    };
    let mut null = ccr_trace::NullSink;
    let report = {
        let mut obs = SearchObserver::for_phase(&mut null, &telemetry, "explore");
        Search::default().explore(&sys, &Budget::default(), |_| None, &mut obs)
    };
    telemetry
        .finish(&report.outcome, report.states as u64, report.transitions as u64)
        .expect("no timeline write error");
    let timeline = Timeline::read(&path).expect("read timeline");
    timeline.validate().expect("timeline validates");
    timeline
}

#[test]
fn sample_counts_and_progress_deltas_are_deterministic_at_zero_interval() {
    let dir = tmp_dir("det");
    let a = zero_interval_timeline(&dir, 0);
    let b = zero_interval_timeline(&dir, 1);
    assert!(!a.points.is_empty(), "zero interval must sample every tick");
    assert_eq!(a.points.len(), b.points.len(), "sample count must be deterministic");
    // The reconstructed progress sequence is deterministic; timestamps,
    // rates and RSS are wall-clock/host facts and deliberately not
    // compared.
    for (pa, pb) in a.points.iter().zip(&b.points) {
        assert_eq!(pa.states, pb.states);
        assert_eq!(pa.transitions, pb.transitions);
        assert_eq!(pa.frontier, pb.frontier);
        assert_eq!(pa.phase, pb.phase);
    }
    assert_eq!(a.end.as_ref().map(|e| e.states), b.end.as_ref().map(|e| e.states));
}

#[test]
fn cli_timeline_round_trips_a_run_dir() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = tmp_dir("cli");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args(["verify", "specs/migratory.ccp", "-n", "2", "--run-dir"])
        .arg(&dir)
        .current_dir(root)
        .output()
        .expect("run ccr");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // The run-dir shorthand turns the recorder on; the file must parse
    // and self-validate.
    let timeline = Timeline::read(&dir.join("timeline.jsonl")).expect("timeline.jsonl written");
    timeline.validate().expect("bundle timeline validates");
    assert!(!timeline.phases.is_empty(), "verify phases must be recorded");
    assert!(timeline.end.is_some(), "end record must anchor the file");

    let analyze = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .arg("timeline")
        .arg(&dir)
        .arg("--json")
        .output()
        .expect("run ccr timeline");
    assert!(analyze.status.success(), "{}", String::from_utf8_lossy(&analyze.stderr));
    let doc = Json::parse(std::str::from_utf8(&analyze.stdout).unwrap().trim())
        .expect("ccr timeline --json emits valid JSON");
    assert!(doc.get("timeline").is_some(), "document kind key");
    assert_eq!(
        doc.path("timeline.spec").and_then(Json::as_str),
        Some("specs/migratory.ccp"),
        "analysis carries the spec"
    );
    // The analyzer also writes the summary next to the source.
    let written = std::fs::read_to_string(dir.join("timeline.json")).expect("timeline.json");
    let written = Json::parse(written.trim()).expect("written summary is valid JSON");
    assert!(
        written.path("timeline.phases").and_then(Json::as_array).is_some(),
        "summary has per-phase statistics"
    );

    // The report merges the analysis under its own `timeline` key.
    let report = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .arg("report")
        .arg(&dir)
        .arg("--json")
        .output()
        .expect("run report");
    assert!(report.status.success(), "{}", String::from_utf8_lossy(&report.stderr));
    let merged = Json::parse(std::str::from_utf8(&report.stdout).unwrap().trim())
        .expect("report --json emits valid JSON");
    assert_eq!(merged.path("timeline.spec").and_then(Json::as_str), Some("specs/migratory.ccp"));
}

/// Equation 1 rides the exploration's sweep on the concrete space and on
/// the quotient alike: no phase of its own, and `check/progress` is an
/// analysis that expands nothing. Under `--spill-dir` nothing rides, and
/// the sweep Equation 1 then has to itself is sampled like any other.
#[test]
fn equation_1_is_sampled_when_it_sweeps_alone() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = tmp_dir("equation1");
    let phases = |run: &str, flags: &[&str]| {
        let path = dir.join(format!("{run}.jsonl"));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
            .args(["verify", "specs/migratory.ccp", "-n", "3"])
            .args(flags)
            .args(["--progress-interval", "0", "--timeline"])
            .arg(&path)
            .current_dir(root)
            .output()
            .expect("run ccr");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let timeline = Timeline::read(&path).expect("timeline written");
        timeline.validate().expect("timeline validates");
        let samples = |phase: usize| timeline.points.iter().filter(|p| p.phase == phase).count();
        let names = timeline.phases.iter().map(|(_, name)| name.clone());
        names.enumerate().map(|(i, name)| (name, samples(i))).collect::<Vec<_>>()
    };
    let names = |phases: &[(String, usize)]| -> Vec<String> {
        phases.iter().map(|(name, _)| name.clone()).collect()
    };
    let off = phases("off", &["--symmetry", "off"]);
    assert_eq!(names(&off), ["explore/rendezvous", "explore/async", "check/progress"]);
    assert_eq!((off[1].1, off[2].1), (2082, 0), "{off:?}");
    let on = phases("on", &["--symmetry", "on"]);
    assert_eq!(names(&on), names(&off));
    // One sample per expansion at interval 0: the 367 orbits.
    assert_eq!((on[1].1, on[2].1), (367, 0), "{on:?}");
    let spill = dir.join("spill");
    let spill = spill.to_str().expect("utf-8 path");
    let alone = phases("spill", &["--symmetry", "off", "--spill-dir", spill]);
    assert_eq!(
        names(&alone),
        ["explore/rendezvous", "explore/async", "check/equation1", "check/progress"]
    );
    // One sample per expansion at interval 0: the 2,082 concrete states.
    assert_eq!(alone[2].1, 2082, "{alone:?}");
}

#[test]
fn injected_stall_trips_the_watchdog_through_the_cli() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = tmp_dir("stall");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args([
            "verify",
            "specs/migratory.ccp",
            "-n",
            "2",
            "--async",
            "--threads",
            "2",
            "--inject-stall-ms",
            "1200",
            "--progress-interval",
            "0.05",
            "--stall-after",
            "4",
            "--timeline",
        ])
        .arg(dir.join("timeline.jsonl"))
        .current_dir(root)
        .output()
        .expect("run ccr");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let timeline = Timeline::read(&dir.join("timeline.jsonl")).expect("timeline written");
    timeline.validate().expect("stalled timeline validates");
    assert!(!timeline.stalls.is_empty(), "a 1200 ms injected stall must trip a 4x50 ms watchdog");
    let stall = &timeline.stalls[0];
    assert!(stall.intervals >= 4, "diagnostic carries the interval count");
    assert!(!stall.queues.is_empty(), "diagnostic carries per-worker queue depths");
}
