//! Live status files (`--status` / `--run-dir`, `ccr watch`): the
//! atomic-rename protocol never yields a torn read, and the terminal
//! snapshot agrees with the verify report's exact counts.

use ccr_metrics::jsonval::Json;
use ccr_metrics::status::{RunStatus, StatusWriter};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ccr-watch-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

#[test]
fn concurrent_reader_never_sees_a_torn_or_regressing_snapshot() {
    let dir = tmp_dir("torn");
    let path = dir.join("status.json");
    let writer = StatusWriter::create(&path);
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let writer_path = path.clone();
        scope.spawn(|| {
            let mut status = RunStatus {
                spec: "specs/migratory.ccp".into(),
                phase: "explore/async".into(),
                ..RunStatus::default()
            };
            for i in 0..2_000u64 {
                status.states = i * 17;
                status.transitions = i * 51;
                status.frontier = i % 97;
                status.states_per_sec = i as f64 * 3.25;
                status.elapsed_ms = i;
                status.finished = i == 1_999;
                if status.finished {
                    status.outcome = Some("Complete".into());
                }
                writer.write(&mut status).expect("status write");
            }
            stop.store(true, Ordering::Release);
        });

        let mut last_seq = 0u64;
        let mut reads = 0u64;
        while !stop.load(Ordering::Acquire) || reads == 0 {
            match RunStatus::read(&writer_path) {
                Ok(st) => {
                    // A torn write would fail `parse` inside `read`;
                    // every successful read must also move forward.
                    assert!(
                        st.seq >= last_seq,
                        "snapshot regressed: seq {} after {last_seq}",
                        st.seq
                    );
                    assert_eq!(st.spec, "specs/migratory.ccp");
                    last_seq = st.seq;
                    reads += 1;
                }
                // Only the pre-first-write window may miss the file.
                Err(_) => assert_eq!(last_seq, 0, "status file vanished mid-run"),
            }
        }
        assert!(reads > 0);
    });

    let last = RunStatus::read(&path).expect("final read");
    assert!(last.finished);
    assert_eq!(last.outcome.as_deref(), Some("Complete"));
}

#[test]
fn final_status_agrees_with_the_verify_report_counts() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = tmp_dir("verify");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args(["verify", "specs/migratory.ccp", "-n", "2", "--symmetry", "off", "--run-dir"])
        .arg(&dir)
        .current_dir(root)
        .output()
        .expect("run ccr");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let verify_text =
        std::fs::read_to_string(dir.join("verify.json")).expect("verify.json written");
    let verify = Json::parse(&verify_text).expect("verify.json parses");
    let status = RunStatus::read(&dir.join("status.json")).expect("status.json written");

    assert!(status.finished, "terminal snapshot must be marked finished");
    assert_eq!(status.outcome.as_deref(), Some("Complete"));
    assert_eq!(
        Some(status.states),
        verify.path("asynchronous.states").and_then(Json::as_u64),
        "final status states must equal the verify report's async-level count"
    );
    assert_eq!(
        Some(status.transitions),
        verify.path("asynchronous.transitions").and_then(Json::as_u64),
        "final status transitions must equal the verify report's async-level count"
    );
    assert_eq!(verify.get("holds").and_then(Json::as_bool), Some(true));

    // The same run dir feeds `ccr watch --once` and `ccr report`.
    let watch = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .arg("watch")
        .arg(dir.join("status.json"))
        .arg("--once")
        .output()
        .expect("run watch");
    assert!(watch.status.success(), "{}", String::from_utf8_lossy(&watch.stderr));
    let line = String::from_utf8_lossy(&watch.stdout);
    assert!(line.contains("finished: Complete"), "{line}");

    let report = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .arg("report")
        .arg(&dir)
        .arg("--json")
        .output()
        .expect("run report");
    assert!(report.status.success(), "{}", String::from_utf8_lossy(&report.stderr));
    let merged = Json::parse(std::str::from_utf8(&report.stdout).unwrap().trim())
        .expect("report --json emits valid JSON");
    assert_eq!(
        merged.path("verify.asynchronous.states").and_then(Json::as_u64),
        Some(status.states)
    );
    assert_eq!(merged.path("status.states").and_then(Json::as_u64), Some(status.states));
}

#[test]
fn watch_fails_on_a_dead_run_but_tolerates_a_live_writer() {
    let dir = tmp_dir("dead");
    let path = dir.join("status.json");
    // An unfinished snapshot whose writing pid no longer exists: the
    // run died between heartbeats. The watcher must detect it via the
    // recorded pid and exit nonzero instead of polling forever.
    let writer = StatusWriter::create(&path);
    let mut status = RunStatus {
        spec: "specs/migratory.ccp".into(),
        phase: "explore/async".into(),
        states: 1234,
        pid: Some(4_000_000_000), // beyond any real pid space
        ..RunStatus::default()
    };
    writer.write(&mut status).expect("status write");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .arg("watch")
        .arg(&path)
        .args(["--interval", "0.05", "--stale-timeout", "0.2"])
        .output()
        .expect("run watch");
    assert!(!out.status.success(), "watch must fail on a dead run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("run died without finished snapshot"), "{err}");

    // The same snapshot written by a live process (this test) passes
    // the liveness probe; `--once` returns before any staleness check
    // could matter, and a finished snapshot always succeeds.
    status.pid = Some(std::process::id() as u64);
    status.finished = true;
    status.outcome = Some("Complete".into());
    writer.write(&mut status).expect("status write");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .arg("watch")
        .arg(&path)
        .args(["--interval", "0.05", "--stale-timeout", "0.2"])
        .output()
        .expect("run watch");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

/// A reader that goes away (`ccr watch status.json | head -1`) ends the
/// verb quietly: no panic text, exit 0. The watcher prints one line per
/// new snapshot, so closing the pipe after the first line and writing
/// another snapshot forces a print into the closed pipe.
#[test]
fn a_closed_stdout_ends_the_verb_quietly() {
    use std::io::{BufRead, BufReader, Read};
    let dir = tmp_dir("pipe");
    let path = dir.join("status.json");
    let writer = StatusWriter::create(&path);
    let mut status = RunStatus {
        spec: "specs/migratory.ccp".into(),
        phase: "explore/async".into(),
        pid: Some(std::process::id() as u64),
        ..RunStatus::default()
    };
    writer.write(&mut status).expect("status write");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .arg("watch")
        .arg(&path)
        .args(["--interval", "0.02"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("run watch");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("first line");
    assert!(first.contains("explore/async"), "{first}");
    drop(stdout);

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let exit = loop {
        status.states += 1;
        writer.write(&mut status).expect("status write");
        if let Some(exit) = child.try_wait().expect("poll watch") {
            break exit;
        }
        assert!(std::time::Instant::now() < deadline, "watch kept running without a reader");
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let mut err = String::new();
    child.stderr.take().expect("piped stderr").read_to_string(&mut err).expect("stderr");
    assert_eq!(exit.code(), Some(0), "a closed pipe is not a failure: {err}");
    assert!(err.is_empty(), "nothing to say about a reader that left: {err}");
}
