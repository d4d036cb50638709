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
        Search::default().explore(&sys, &Budget::default(), None, &mut obs)
    };
    telemetry
        .finish(
            &report.outcome,
            report.states as u64,
            report.transitions as u64,
            report.store_bytes as u64,
        )
        .expect("no timeline write error");
    (sink.into_inner().expect("vec sink"), telemetry.registry.snapshot().to_json())
}

#[test]
fn recording_off_is_invisible_in_traces_and_deterministic_snapshots() {
    let dir = tmp_dir("invisible");
    let (trace_off, snap_off) = traced_metered_run(None);
    let (trace_on, snap_on) = traced_metered_run(Some(&dir.join("timeline.jsonl")));
    let text = std::str::from_utf8(&trace_off).expect("utf-8");
    assert!(ccr_trace::events(text).expect("a versioned trace").count() > 0);
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
        ..Telemetry::off()
    };
    let mut null = ccr_trace::NullSink;
    let report = {
        let mut obs = SearchObserver::for_phase(&mut null, &telemetry, "explore");
        Search::default().explore(&sys, &Budget::default(), None, &mut obs)
    };
    telemetry
        .finish(
            &report.outcome,
            report.states as u64,
            report.transitions as u64,
            report.store_bytes as u64,
        )
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

/// Runs `ccr <verb> <target>` and returns (exit code, stderr).
fn ccr_on(verb: &str, target: &Path) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .arg(verb)
        .arg(target)
        .output()
        .unwrap_or_else(|e| panic!("run ccr {verb}: {e}"));
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// A hostile timeline whose delta sums leave `u64` is a line-numbered
/// error with exit 1 for both readers, never a panic or a wrapped sum.
#[test]
fn a_running_total_past_u64_is_a_line_numbered_error() {
    let dir = tmp_dir("overflow");
    let sample = |dt_ms: u64| {
        format!(
            "{{\"k\":\"s\",\"dt_ms\":{dt_ms},\"ds\":1,\"dx\":1,\"frontier\":1,\"store_bytes\":0,\
             \"dspill\":0,\"dcompact\":0,\"ckpt\":0,\"rss_bytes\":null,\"spans\":{{}}}}\n"
        )
    };
    let text = format!(
        "{{\"k\":\"run\",\"version\":2,\"spec\":\"x\",\"interval_ms\":1000,\"stall_after\":5}}\n\
         {{\"k\":\"phase\",\"dt_ms\":0,\"name\":\"explore\"}}\n{}{}",
        sample(u64::MAX),
        sample(5)
    );
    std::fs::write(dir.join("timeline.jsonl"), text).expect("write timeline");
    // `ccr report` wants one more artifact than the timeline.
    std::fs::write(dir.join("verify.json"), "{\"holds\":true}\n").expect("write verify.json");
    for verb in ["timeline", "report"] {
        let (code, err) = ccr_on(verb, &dir);
        assert_eq!(code, Some(1), "ccr {verb}: {err}");
        assert!(err.contains("line 4: `dt_ms` overflows the running total"), "ccr {verb}: {err}");
    }
}

/// The header line docs/observability.md showed for version 1 (which
/// carried the sharded engine's `depth` and `epoch`) is refused by
/// version, not analysed as this build's format.
#[test]
fn a_version_1_timeline_is_refused() {
    let dir = tmp_dir("v1");
    let path = dir.join("timeline.jsonl");
    std::fs::write(
        &path,
        "{\"k\":\"run\",\"version\":1,\"spec\":\"specs/migratory.ccp\",\"interval_ms\":1000,\
         \"stall_after\":5}\n",
    )
    .expect("write timeline");
    let (code, err) = ccr_on("timeline", &path);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("timeline version 1 is not supported (this build reads 2)"), "{err}");
}

/// A `--fault-budget` run sweeps the fault closure once, its progress
/// check riding the exploration, so the recording holds one
/// `check/fault-closure` phase, and the end record holds the closure's
/// counts: `ccr timeline` and `ccr report` read the recording back.
#[test]
fn a_fault_budget_recording_reads_back() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = tmp_dir("fault-budget");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args(["verify", "specs/migratory.ccp", "-n", "2", "--fault-budget", "1"])
        .args(["--progress-interval", "0", "--run-dir"])
        .arg(&dir)
        .current_dir(root)
        .output()
        .expect("run ccr");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for verb in ["timeline", "report"] {
        let (code, err) = ccr_on(verb, &dir);
        assert_eq!(code, Some(0), "ccr {verb}: {err}");
    }
    let timeline = Timeline::read(&dir.join("timeline.jsonl")).expect("timeline written");
    let names: Vec<&str> = timeline.phases.iter().map(|(_, name)| name.as_str()).collect();
    assert_eq!(names[names.len() - 2..], ["check/progress", "check/fault-closure"]);
    let verify = std::fs::read_to_string(dir.join("verify.json")).expect("verify.json");
    let verify = Json::parse(verify.trim()).expect("verify.json parses");
    let closure = |key: &str| verify.path(&format!("fault_closure.explore.{key}"));
    let end = timeline.end.expect("end record");
    assert_eq!(Some(end.states), closure("states").and_then(Json::as_u64));
    assert_eq!(Some(end.transitions), closure("transitions").and_then(Json::as_u64));
}

/// A recorder header, one phase and one sample whose `ds` is `ds`.
fn one_sample_timeline(ds: &str) -> String {
    format!(
        "{{\"k\":\"run\",\"version\":2,\"spec\":\"x\",\"interval_ms\":1000,\"stall_after\":5}}\n\
         {{\"k\":\"phase\",\"dt_ms\":0,\"name\":\"explore\"}}\n\
         {{\"k\":\"s\",\"dt_ms\":5,\"ds\":{ds},\"dx\":1,\"frontier\":1,\"store_bytes\":0,\
         \"dspill\":0,\"dcompact\":0,\"ckpt\":0,\"rss_bytes\":null,\"spans\":{{}}}}\n"
    )
}

/// Counters are read as written: 2^53 + 1 states come back as 2^53 + 1,
/// and 2^64 — one past `u64` — is a line-numbered error, not `u64::MAX`.
#[test]
fn counters_keep_every_digit_and_stop_at_u64() {
    let dir = tmp_dir("exact");
    let path = dir.join("timeline.jsonl");
    std::fs::write(&path, one_sample_timeline("9007199254740993")).expect("write timeline");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .arg("timeline")
        .arg(&path)
        .arg("--json")
        .output()
        .expect("run ccr timeline");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = Json::parse(std::str::from_utf8(&out.stdout).unwrap().trim()).expect("valid JSON");
    let phase = &doc.path("timeline.phases").and_then(Json::as_array).expect("phases")[0];
    assert_eq!(phase.get("states").and_then(Json::as_u64), Some(9_007_199_254_740_993));

    std::fs::write(&path, one_sample_timeline("18446744073709551616")).expect("write timeline");
    let (code, err) = ccr_on("timeline", &path);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("line 3: `ds` is not a whole number within u64"), "{err}");
}

/// `ccr report` reads a run directory that holds one artifact alone,
/// whichever it is — the timeline or the trace included.
#[test]
fn report_reads_a_timeline_or_a_trace_alone() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let full = tmp_dir("alone-full");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args(["verify", "specs/migratory.ccp", "-n", "2", "--run-dir"])
        .arg(&full)
        .current_dir(root)
        .output()
        .expect("run ccr");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for (name, heading) in [("timeline.jsonl", "## Timeline"), ("trace.jsonl", "## Trace")] {
        let dir = tmp_dir(&format!("alone-{name}"));
        std::fs::copy(full.join(name), dir.join(name)).expect("copy artifact");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
            .arg("report")
            .arg(&dir)
            .output()
            .expect("run ccr report");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{name}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(stdout.contains(heading), "{name}: {stdout}");
    }
}

/// `ccr report` counts the events after the trace's versioned header,
/// and refuses a trace with no header (as the previous build wrote) or
/// with another version's.
#[test]
fn report_refuses_a_trace_of_another_version() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let full = tmp_dir("trace-version");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args(["verify", "specs/migratory_broken.ccp", "-n", "2", "--run-dir"])
        .arg(&full)
        .current_dir(root)
        .output()
        .expect("run ccr");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let trace = std::fs::read_to_string(full.join("trace.jsonl")).expect("trace.jsonl");
    let body = trace.strip_prefix(&format!("{}\n", ccr_trace::HEADER)).expect("the header first");
    let report = |text: &str, tag: &str| {
        let dir = tmp_dir(tag);
        std::fs::write(dir.join("trace.jsonl"), text).expect("write trace");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
            .args(["report", "--json"])
            .arg(&dir)
            .output()
            .expect("run ccr report");
        let stdout = String::from_utf8_lossy(&out.stdout);
        (out.status.code(), format!("{stdout}{}", String::from_utf8_lossy(&out.stderr)))
    };
    let (code, out) = report(&trace, "trace-v1");
    assert_eq!(code, Some(0), "{out}");
    let doc = Json::parse(out.trim()).expect("report --json");
    let counts = doc.path("trace_events").and_then(Json::as_object).expect("trace_events");
    let counted: u64 = counts.iter().map(|(_, n)| n.as_u64().expect("a count")).sum();
    assert_eq!(counted, body.lines().count() as u64, "every event counted, the header not: {out}");
    assert!(counts.iter().all(|(k, _)| k != "trace"), "{out}");
    for (text, version) in [(body.to_string(), "none"), (trace.replacen(":1}}", ":2}}", 1), "2")] {
        let (code, err) = report(&text, &format!("trace-v{version}"));
        assert_eq!(code, Some(1), "{err}");
        let want =
            format!("trace.jsonl: trace version {version} is not supported (this build reads 1)");
        assert!(err.contains(&want), "{err}");
    }
}
