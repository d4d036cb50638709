//! End-to-end checks for the metrics pipeline: snapshot determinism
//! across identical runs and thread counts, the Prometheus exposition
//! surface, the `ccr verify --metrics` CLI contract, and the
//! `ccr bench diff` regression gate's exit codes.

use ccr_mc::search::{Budget, Search, SearchObserver, Telemetry};
use ccr_metrics::jsonval::Json;
use ccr_metrics::{promcheck, Registry};
use ccr_protocols::migratory::{migratory_refined, MigratoryOptions};
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_trace::NullSink;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One full exploration of the async migratory space at `n` on `threads`
/// workers (0 = none), metered into a fresh registry.
fn parallel_snapshot(n: u32, threads: usize) -> ccr_metrics::Snapshot {
    let refined = migratory_refined(&MigratoryOptions::default());
    let sys = AsyncSystem::new(&refined, n, AsyncConfig::default());
    let reg = Registry::new();
    let mut null = NullSink;
    let telemetry = Telemetry { registry: reg.clone(), ..Telemetry::off() };
    let mut obs = SearchObserver::for_phase(&mut null, &telemetry, "explore");
    let search = Search { threads, ..Search::default() };
    let r = search.explore(&sys, &Budget::default(), None, &mut obs);
    assert!(r.outcome.is_complete());
    reg.snapshot()
}

fn serial_snapshot(n: u32) -> ccr_metrics::Snapshot {
    parallel_snapshot(n, 0)
}

#[test]
fn identical_serial_runs_yield_identical_snapshots() {
    // Library-level runs record no phases, so the *full* snapshot —
    // nondeterministic-tagged metrics included — must be byte-identical.
    let a = serial_snapshot(2).to_json();
    let b = serial_snapshot(2).to_json();
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

#[test]
fn parallel_deterministic_view_is_thread_count_independent() {
    let serial = serial_snapshot(2);
    assert!(serial.counters["mc_states_total"] > 0);
    for threads in [1usize, 2, 4] {
        let v = parallel_snapshot(2, threads);
        // The one thing a threaded run adds is declared, not silently
        // mixed in ...
        assert!(v.nondeterministic.contains(&"mc_workers".to_string()), "mc_workers untagged");
        assert_eq!(v.gauges["mc_workers"], threads as u64);
        // ... and everything else is the serial run's, byte for byte.
        assert_eq!(v.deterministic().to_json(), serial.deterministic().to_json(), "t={threads}");
    }
}

#[test]
fn exposition_of_a_real_run_passes_the_prometheus_validator() {
    let text = parallel_snapshot(2, 2).to_prometheus();
    assert!(text.contains("mc_state_bytes_bucket{le=\"+Inf\"}"), "{text}");
    promcheck::validate(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccr-metrics-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// Runs `ccr verify specs/migratory.ccp -n 2 --metrics -` and returns the
/// snapshot parsed from the last stdout line.
fn cli_snapshot(extra: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args(["verify", "specs/migratory.ccp", "-n", "2", "--metrics", "-"])
        .args(extra)
        .current_dir(repo_root())
        .output()
        .expect("run ccr");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let last = stdout.lines().last().expect("snapshot line");
    Json::parse(last).unwrap_or_else(|e| panic!("{e}: {last}"))
}

#[test]
fn cli_parallel_snapshot_counters_equal_the_serial_runs() {
    let serial = cli_snapshot(&[]);
    let parallel = cli_snapshot(&["--threads", "4"]);
    // Every metric not declared nondeterministic is the serial run's.
    let deterministic = |j: &Json, section: &str| -> Vec<(String, String)> {
        let tagged = j.get("nondeterministic").and_then(Json::as_array).expect("tag list");
        let entries = j.get(section).and_then(Json::as_object).expect("section");
        entries
            .iter()
            .filter(|(name, _)| !tagged.iter().any(|t| t.as_str() == Some(name)))
            .map(|(name, value)| (name.clone(), format!("{value:?}")))
            .collect()
    };
    for section in ["counters", "gauges", "histograms"] {
        assert_eq!(deterministic(&serial, section), deterministic(&parallel, section), "{section}");
    }
    for name in ["mc_runs_total", "mc_states_total", "mc_transitions_total"] {
        let get = |j: &Json| j.path(&format!("counters.{name}")).and_then(Json::as_u64);
        assert!(get(&serial).expect("present") > 0, "{name} vacuous");
    }
    assert_eq!(parallel.path("gauges.mc_workers").and_then(Json::as_u64), Some(4));
    // The verify pipeline runs through its phases either way.
    for phase in ["parse", "refine", "explore/rendezvous", "explore/async", "check/progress"] {
        assert!(
            serial.path("phases").and_then(|p| p.get(phase)).is_some(),
            "phase {phase} missing"
        );
    }
}

/// `mc_runs_total` counts sweeps, and the phase set says which checks
/// had one of their own: the exploration carries Equation 1 and the
/// progress check, on the concrete space and on the quotient alike, with
/// or without threads; a checkpointed run carries nothing.
/// `check/progress` is the post-sweep analysis whenever the check rode.
/// The fault closure's exploration carries its progress check too: a
/// `--fault-budget` run adds one sweep.
#[test]
fn cli_run_totals_say_who_rode_which_sweep() {
    let dir = tmp_dir("riders");
    let spill = dir.join("spill");
    let spill = spill.to_str().expect("utf-8 path");
    for (flags, runs, equation1_sweeps_alone) in [
        (&["--symmetry", "off"][..], 2, false),
        (&["--symmetry", "on"], 2, false),
        (&["--symmetry", "on", "--threads", "2"], 2, false),
        (&["--symmetry", "off", "--threads", "2"], 2, false),
        (&["--symmetry", "off", "--spill-dir", spill], 4, true),
        (&["--symmetry", "off", "--async"], 1, false),
        (&["--symmetry", "off", "--fault-budget", "1"], 3, false),
    ] {
        let snap = cli_snapshot(flags);
        let counter = |name: &str| snap.path(&format!("counters.{name}")).and_then(Json::as_u64);
        assert_eq!(counter("mc_runs_total"), Some(runs), "{flags:?}");
        let phase = |name: &str| snap.path("phases").and_then(|p| p.get(name)).is_some();
        assert_eq!(phase("check/equation1"), equation1_sweeps_alone, "{flags:?}");
        assert_eq!(phase("check/progress"), !flags.contains(&"--async"), "{flags:?}");
    }
    // migratory n=2: 18 rendezvous and 156 asynchronous states, each
    // counted once per sweep that stored it.
    let states = |flags: &[&str]| {
        cli_snapshot(flags).path("counters.mc_states_total").and_then(Json::as_u64)
    };
    assert_eq!(states(&["--symmetry", "off"]), Some(18 + 156));
    assert_eq!(states(&["--symmetry", "off", "--spill-dir", spill]), Some(18 + 3 * 156));
    std::fs::remove_dir_all(&dir).ok();
}

/// The orbit counters of migratory's reduced asynchronous sweep at eight
/// remotes, as they read when every key was canonicalized in full: a key
/// derived from its parent's orbit counts as one canonicalization, with
/// the sample the full path reports.
#[test]
fn cli_orbit_counters_of_a_reduced_sweep_are_pinned() {
    let out = Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args(["verify", "specs/migratory.ccp", "-n", "8", "--symmetry", "on", "--async"])
        .args(["--metrics", "-"])
        .current_dir(repo_root())
        .output()
        .expect("run ccr");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let last = stdout.lines().last().expect("snapshot line");
    let snap = Json::parse(last).unwrap_or_else(|e| panic!("{e}: {last}"));
    let counter = |name: &str| snap.path(&format!("counters.{name}")).and_then(Json::as_u64);
    assert_eq!(counter("mc_symmetry_orbit_states_total"), Some(120_821));
    assert_eq!(counter("mc_symmetry_orbit_moved_total"), Some(120_205));
    assert_eq!(counter("mc_symmetry_orbit_candidates_total"), Some(120_821));
}

/// A violating reduced sweep's trail comes from a second sweep up to the
/// violating state; the orbit counters leave that replay out and read as
/// the sweep alone: migratory_broken's quotient at two remotes stores 65
/// orbits, one canonicalization per transition and the root's, 113 in
/// all, before it deadlocks.
#[test]
fn cli_orbit_counters_of_a_violating_sweep_leave_out_its_trail_replay() {
    let out = Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args(["verify", "specs/migratory_broken.ccp", "-n", "2", "--symmetry", "on"])
        .args(["--async", "--metrics", "-"])
        .current_dir(repo_root())
        .output()
        .expect("run ccr");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("65 states, Deadlock\n   1: r0 [C1]\n"), "{stdout}");
    let last = stdout.lines().last().expect("snapshot line");
    let snap = Json::parse(last).unwrap_or_else(|e| panic!("{e}: {last}"));
    let counter = |name: &str| snap.path(&format!("counters.{name}")).and_then(Json::as_u64);
    assert_eq!(counter("mc_states_total"), Some(65));
    assert_eq!(counter("mc_symmetry_orbit_states_total"), Some(113));
    assert_eq!(counter("mc_symmetry_orbit_candidates_total"), Some(113));
}

/// What the collapsed visited set holds of migratory's asynchronous
/// sweep at three remotes, serial and threaded alike: 2,082 states made
/// of 153 distinct home and 23 distinct remote segments, interned one
/// table per kind, each state stored as a tuple of four ids: one byte
/// each, but for the 120 states whose home segment's id is past 127.
#[test]
fn cli_segment_gauges_of_a_collapsed_sweep_are_pinned() {
    for threads in [None, Some("2")] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_ccr"));
        cmd.args(["verify", "specs/migratory.ccp", "-n", "3", "--symmetry", "off", "--async"]);
        cmd.args(["--metrics", "-"]).args(threads.map(|t| ["--threads", t]).iter().flatten());
        let out = cmd.current_dir(repo_root()).output().expect("run ccr");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        let last = stdout.lines().last().expect("snapshot line");
        let snap = Json::parse(last).unwrap_or_else(|e| panic!("{e}: {last}"));
        let get = |path: &str| snap.path(path).and_then(Json::as_u64);
        assert_eq!(get("counters.mc_states_total"), Some(2_082), "{threads:?}");
        assert_eq!(get("gauges.mc_store_home_segments"), Some(153), "{threads:?}");
        assert_eq!(get("gauges.mc_store_remote_segments"), Some(23), "{threads:?}");
        assert_eq!(get("gauges.mc_store_home_segment_bytes"), Some(1_752), "{threads:?}");
        assert_eq!(get("gauges.mc_store_remote_segment_bytes"), Some(183), "{threads:?}");
        assert_eq!(get("histograms.mc_state_bytes.sum"), Some(4 * 2_082 + 120), "{threads:?}");
    }
}

/// The progress graph migratory's asynchronous sweep at two remotes
/// records, counted from its lengths — the bytes of its edge stream
/// (every target a zigzag LEB128 delta from the one before it, the first
/// of a list from its source), four per expanded state and one bit per
/// state, rounded up to whole bytes — on the concrete space (156 states,
/// 292 transitions in 339 stream bytes) and on the quotient (78 and 146,
/// in 151), serial and threaded alike.
#[test]
fn cli_progress_graph_bytes_are_pinned() {
    for (symmetry, states, stream) in [("off", 156u64, 339), ("on", 78, 151)] {
        for threads in [&[][..], &["--threads", "2"]] {
            let snap = cli_snapshot(&[&["--symmetry", symmetry][..], threads].concat());
            let bytes = snap.path("gauges.mc_progress_graph_bytes").and_then(Json::as_u64);
            assert_eq!(
                bytes,
                Some(stream + 4 * states + states.div_ceil(8)),
                "{symmetry} {threads:?}"
            );
        }
    }
}

#[test]
fn cli_prometheus_file_output_validates() {
    let dir = tmp_dir("prom");
    let path = dir.join("metrics.prom");
    let out = Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args(["verify", "specs/migratory.ccp", "-n", "2", "--threads", "2"])
        .arg("--metrics")
        .arg(&path)
        .args(["--metrics-format", "prometheus"])
        .current_dir(repo_root())
        .output()
        .expect("run ccr");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&path).expect("metrics file");
    promcheck::validate(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
    assert!(text.contains("ccr_phase_seconds"), "phases missing:\n{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_diff_exit_codes_gate_regressions() {
    let dir = tmp_dir("diff");
    // Two `--metrics` snapshots of one state space, written by the CLI.
    let snapshot = |name: &str, n: &str| {
        let path = dir.join(name);
        let out = Command::new(env!("CARGO_BIN_EXE_ccr"))
            .args(["verify", "specs/migratory.ccp", "--async", "-n", n, "--metrics"])
            .arg(&path)
            .current_dir(repo_root())
            .output()
            .expect("run ccr");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        path
    };
    let old = snapshot("old.json", "2");
    let same = snapshot("same.json", "2");
    let grown = snapshot("grown.json", "3");
    let bench = dir.join("bench.json");
    std::fs::write(&bench, r#"{"bench":"recorder","workloads":[]}"#).unwrap();
    let run = |new: &Path, extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_ccr"))
            .args(["bench", "diff"])
            .arg(&old)
            .arg(new)
            .args(extra)
            .output()
            .expect("run ccr bench diff")
    };
    // The same run twice: wall-clock phases and nondeterministic metrics
    // differ, every deterministic one is equal — exit 0.
    let out = run(&same, &[]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    // A deterministic counter changed (a larger state space): exit 1.
    let out = run(&grown, &[]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSION: mc_states_total"), "{stdout}");
    // Misuse exits 2, distinct from a regression: an unreadable file, a
    // bench report (with a pointer to the tool that compares those), and
    // any flag: the verb has no thresholds to set.
    let out = run(Path::new("does-not-exist.json"), &[]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&bench, &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ccr-benchmark compare"), "{stderr}");
    let out = run(&same, &["--json"]);
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}
