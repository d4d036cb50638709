//! Live status files (`--status` / `--run-dir`, `ccr watch`): the
//! recorder's atomic-rename writes never yield a torn read, the terminal
//! snapshot agrees with the verify report's exact counts, and a document
//! of another version is refused.

use ccr_metrics::jsonval::Json;
use ccr_metrics::profile::Profiler;
use ccr_metrics::timeseries::{Recorder, SampleInput, Status};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ccr-watch-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// A recorder keeping the status file at `path` alone, in phase
/// `explore/async`.
fn status_recorder(path: &Path) -> Recorder {
    let rec = Recorder::new("specs/migratory.ccp", 0, 5, None, None, Some(path.to_path_buf()));
    rec.set_phase("explore/async", Instant::now());
    rec
}

/// One sample of `states` states taken now.
fn sample(rec: &Recorder, states: u64) {
    let at = SampleInput::basic(states, states * 3, states % 97, 64);
    rec.sample(&at, Instant::now(), states as f64 * 3.25, &Profiler::disabled());
}

#[test]
fn concurrent_reader_never_sees_a_torn_or_regressing_snapshot() {
    let dir = tmp_dir("torn");
    let path = dir.join("status.json");
    let rec = status_recorder(&path);
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..2_000u64 {
                sample(&rec, i * 17);
            }
            rec.finish("Complete", 1_999 * 17, 1_999 * 51, 64, &Profiler::disabled());
            stop.store(true, Ordering::Release);
        });

        let mut last_seq = 0u64;
        let mut reads = 0u64;
        while !stop.load(Ordering::Acquire) || reads == 0 {
            match Status::read(&path) {
                Ok(st) => {
                    // A torn write would fail the parse inside `read`;
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

    let last = Status::read(&path).expect("final read");
    assert_eq!(last.outcome.as_deref(), Some("Complete"));
    assert_eq!((last.seq, last.sample.states), (2_001, 1_999 * 17));
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
    let status = Status::read(&dir.join("status.json")).expect("status.json written");
    let json = Json::parse(&std::fs::read_to_string(dir.join("status.json")).unwrap()).unwrap();
    assert_eq!(json.get("finished"), Some(&Json::Bool(true)), "terminal snapshot is finished");
    assert_eq!(status.outcome.as_deref(), Some("Complete"));
    assert_eq!(
        Some(status.sample.states),
        verify.path("asynchronous.states").and_then(Json::as_u64),
        "final status states must equal the verify report's async-level count"
    );
    assert_eq!(
        Some(status.sample.transitions),
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
        Some(status.sample.states)
    );
    assert_eq!(merged.path("status.states").and_then(Json::as_u64), Some(status.sample.states));
}

#[test]
fn watch_fails_on_a_dead_run_but_tolerates_a_live_writer() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = tmp_dir("dead");
    let path = dir.join("status.json");
    // A run killed between heartbeats leaves an unfinished snapshot
    // whose writing pid no longer exists. The watcher must detect it
    // via the recorded pid and exit nonzero instead of polling forever.
    let mut run = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args(["verify", "specs/invalidate.ccp", "-n", "3", "--symmetry", "off", "--async"])
        .args(["--progress-interval", "0.01", "--status"])
        .arg(&path)
        .current_dir(root)
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("run ccr");
    let deadline = Instant::now() + Duration::from_secs(60);
    while Status::read(&path).is_err() {
        assert!(Instant::now() < deadline, "no status snapshot from the run");
        std::thread::sleep(Duration::from_millis(10));
    }
    run.kill().expect("kill the run");
    run.wait().expect("reap the run");
    let snapshot = Status::read(&path).expect("the last snapshot");
    assert_eq!(snapshot.outcome, None, "the run was killed before it finished");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .arg("watch")
        .arg(&path)
        .args(["--interval", "0.05", "--stale-timeout", "0.2"])
        .output()
        .expect("run watch");
    assert!(!out.status.success(), "watch must fail on a dead run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("run died without finished snapshot"), "{err}");

    // A snapshot written by a live process (this test) passes the
    // liveness probe, and a finished snapshot always succeeds.
    let rec = status_recorder(&path);
    sample(&rec, 1234);
    rec.finish("Complete", 1234, 3702, 64, &Profiler::disabled());
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
    let rec = status_recorder(&path);
    let mut states = 0;
    sample(&rec, states);
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
        states += 1;
        sample(&rec, states);
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

/// The status document the previous build wrote carried no version:
/// `ccr watch` and `ccr report` refuse it instead of misreading it.
#[test]
fn an_unversioned_status_document_is_refused() {
    let dir = tmp_dir("unversioned");
    let path = dir.join("status.json");
    std::fs::write(
        &path,
        "{\"spec\":\"x\",\"phase\":\"explore\",\"states\":1,\"transitions\":0,\"frontier\":1,\
         \"depth\":null,\"states_per_sec\":0.0,\"store_bytes\":0,\"elapsed_ms\":10,\
         \"eta_ms\":null,\"spans\":{},\"finished\":true,\"outcome\":\"Complete\",\"seq\":1,\
         \"pid\":1}\n",
    )
    .expect("write status");
    let refused = "status version none is not supported (this build reads 2)";
    let watch = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .arg("watch")
        .arg(&path)
        .arg("--once")
        .output()
        .expect("run watch");
    assert_eq!(watch.status.code(), Some(1));
    assert!(watch.stdout.is_empty(), "nothing misread");
    assert!(String::from_utf8_lossy(&watch.stderr).contains(refused));
    for json in [false, true] {
        let mut report = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"));
        report.arg("report").arg(&dir);
        if json {
            report.arg("--json");
        }
        let out = report.output().expect("run report");
        assert_eq!(out.status.code(), Some(1), "report --json: {json}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("status.json: {refused}")), "{err}");
    }
}
