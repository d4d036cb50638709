//! Differential crash-recovery harness for the persistence layer
//! (`docs/persistence.md`), driving the real `ccr` binary:
//!
//! * a RAM-capped **spill** run (`--spill-dir` + tiny `--spill-bytes`)
//!   and a **kill -9 → `--resume`** run (`--crash-after-states`, which
//!   aborts the process without destructors or flushes) both finish
//!   with byte-identical states/transitions/outcome versus an
//!   uninterrupted in-memory run — on every shipped spec, without
//!   threads and at 4;
//! * a checkpoint is the same at every thread count, so a crashed run
//!   resumes at any other — serial included;
//! * corruption inside the committed region (bit rot, truncation below
//!   the manifest, a garbled manifest), a manifest of the deleted
//!   sharded format and a directory of an older format version fail safe
//!   with a diagnostic and a nonzero exit instead of wrong answers.

use ccr_mc::persist::FORMAT_VERSION;
use ccr_metrics::jsonval::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Every spec shipped under `specs/` — including the deliberately
/// broken one, so violating outcomes survive a crash/resume too.
const SPECS: [&str; 6] = [
    "invalidate.ccp",
    "migratory.ccp",
    "migratory_broken.ccp",
    "migratory_gated.ccp",
    "token.ccp",
    "update.ccp",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccr-persistence-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ccr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args(args)
        .current_dir(root())
        .output()
        .expect("spawn ccr")
}

/// The determinism contract's pinned bytes: `(states, transitions,
/// outcome)` of each reachability sweep in a `verify --json` document.
/// The outcome is compared as its serialized JSON — byte identity, not
/// just variant identity.
fn sweep_counts(stdout: &[u8]) -> Vec<(String, u64, u64, String)> {
    let doc = Json::parse(std::str::from_utf8(stdout).unwrap()).expect("verify JSON");
    let mut out = Vec::new();
    for key in ["rendezvous", "asynchronous"] {
        let Some(sweep) = doc.get(key).filter(|s| !matches!(s, Json::Null)) else {
            out.push((key.to_string(), 0, 0, "absent".to_string()));
            continue;
        };
        out.push((
            key.to_string(),
            sweep.get("states").and_then(Json::as_u64).unwrap(),
            sweep.get("transitions").and_then(Json::as_u64).unwrap(),
            format!("{:?}", sweep.get("outcome").unwrap()),
        ));
    }
    out
}

/// Counter `name` of the `--metrics` document at `path`.
fn counter(path: &Path, name: &str) -> u64 {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let metrics = Json::parse(&text).expect("metrics JSON");
    metrics.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).expect(name)
}

/// One spec × one thread count: uninterrupted vs spill vs crash+resume.
fn check_spec(spec: &str, threads: Option<&str>, dir: &Path) {
    let spec_path = format!("specs/{spec}");
    let tag = threads.map(|t| format!("{t}t")).unwrap_or_else(|| "serial".into());
    let run = |extra: Vec<String>| -> Output {
        let mut args: Vec<String> =
            ["verify", &spec_path, "-n", "2", "--json"].map(String::from).to_vec();
        if let Some(t) = threads {
            args.push("--threads".into());
            args.push(t.into());
        }
        args.extend(extra);
        ccr(&args.iter().map(String::as_str).collect::<Vec<_>>())
    };

    // The reference: one uninterrupted, in-memory run. Broken specs exit
    // nonzero by design — the counts are still the contract.
    let base = sweep_counts(&run(vec![]).stdout);

    // RAM-capped spill run: a byte budget of a few tuples, far below
    // the visited set, so the store actually evicts — the metrics say it
    // did — and lookups of evicted tuples read the log. The 50 ms cadence
    // keeps checkpoints frequent without syncing on every expansion
    // (interval 0 turns the big sweeps quadratic in file I/O).
    let spill_dir = dir.join(format!("{spec}-{tag}-spill"));
    let metrics = dir.join(format!("{spec}-{tag}-spill.json"));
    let spill = run(vec![
        "--spill-dir".into(),
        spill_dir.display().to_string(),
        "--spill-bytes".into(),
        "8".into(),
        "--checkpoint-interval".into(),
        "0.05".into(),
        "--metrics".into(),
        metrics.display().to_string(),
    ]);
    assert_eq!(
        sweep_counts(&spill.stdout),
        base,
        "{spec} ({tag}): spill run diverged\nstderr: {}",
        String::from_utf8_lossy(&spill.stderr)
    );
    let evictions = counter(&metrics, "mc_persist_evictions_total");
    assert!(evictions >= 1, "{spec} ({tag}): the spill run never evicted");

    // Kill -9 mid-run (the crash switch aborts the process), then
    // resume from the last checkpoint.
    let crash_dir = dir.join(format!("{spec}-{tag}-crash"));
    let crash = run(vec![
        "--spill-dir".into(),
        crash_dir.display().to_string(),
        "--checkpoint-interval".into(),
        "0.05".into(),
        "--crash-after-states".into(),
        "40".into(),
    ]);
    assert!(
        !crash.status.success(),
        "{spec} ({tag}): crash run must die, stdout: {}",
        String::from_utf8_lossy(&crash.stdout)
    );
    let resumed = ccr(&["verify", "--resume", &crash_dir.display().to_string(), "--json"]);
    assert_eq!(
        sweep_counts(&resumed.stdout),
        base,
        "{spec} ({tag}): resumed run diverged\nstderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
}

#[test]
fn spill_and_crash_resume_match_uninterrupted_serial() {
    let dir = tmp("serial");
    for spec in SPECS {
        check_spec(spec, None, &dir);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn spill_and_crash_resume_match_uninterrupted_parallel() {
    let dir = tmp("parallel");
    for spec in SPECS {
        check_spec(spec, Some("4"), &dir);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The benchmark's spill shape, token at n = 5 under a 64 KiB cap: the
/// arena of stored tuples never holds more than the cap, so most states
/// are expanded after their key has left memory — from the snapshot the
/// frontier took when it was stored — and a resumed run starts from
/// states of which the log's key is all there is. Both must print what
/// the uninterrupted run prints.
#[test]
fn pending_states_outlive_the_eviction_of_their_keys() {
    let dir = tmp("evicted");
    let shape = ["verify", "specs/token.ccp", "-n", "5", "--symmetry", "off", "--async", "--json"];
    let spilling = |d: &Path, extra: &[&str]| {
        let d = d.display().to_string();
        let mut args = shape.to_vec();
        args.extend(["--spill-dir", &d, "--spill-bytes", "65536"]);
        args.extend(extra);
        ccr(&args)
    };
    // Everything a run reports, past the echo of its own flags.
    let report = |out: &Output| {
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        let at = text.find("\"rendezvous\"").unwrap_or_else(|| {
            panic!("no report in {text:?}, stderr: {}", String::from_utf8_lossy(&out.stderr))
        });
        text[at..].to_string()
    };
    let base = ccr(&shape);
    assert!(base.status.success());
    assert!(report(&base).contains(r#""states":66250,"transitions":318750"#), "{}", report(&base));

    let spill_dir = dir.join("spill");
    let metrics = dir.join("metrics.json");
    let spill = spilling(&spill_dir, &["--metrics", &metrics.display().to_string()]);
    assert_eq!(report(&spill), report(&base));
    // The cap's contract: what was appended and not evicted — the arena —
    // fits in it, and lookups of evicted tuples read the log.
    let appended = counter(&metrics, "mc_persist_bytes_appended_total");
    let evicted = counter(&metrics, "mc_persist_evicted_bytes_total");
    assert!(appended - evicted <= 65_536, "{appended} B appended, {evicted} B evicted");
    assert!(counter(&metrics, "mc_persist_evictions_total") >= 1, "the cap never bit");
    assert!(counter(&metrics, "mc_persist_disk_reads_total") > 0, "no lookup read the log");

    // Killed well past the first eviction and late enough that the
    // 50 ms checkpoint cadence has committed a prefix, with a frontier of
    // snapshots; the resume must start from that prefix, not from scratch.
    let crash_dir = dir.join("crash");
    let crash =
        spilling(&crash_dir, &["--checkpoint-interval", "0.05", "--crash-after-states", "60000"]);
    assert!(!crash.status.success(), "the crash run must die");
    let resumed_metrics = dir.join("resumed.json");
    let resumed = ccr(&[
        "verify",
        "--resume",
        &crash_dir.display().to_string(),
        "--json",
        "--metrics",
        &resumed_metrics.display().to_string(),
    ]);
    assert_eq!(report(&resumed), report(&base));
    let recovered = counter(&resumed_metrics, "mc_persist_recovered_records_total");
    assert!(recovered > 0, "the resume recovered nothing from the crashed run");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A resume verifies the checksum of every committed record, evicting
/// or not: one flipped payload byte inside the committed region of an
/// evicting run's state log fails the resume with a diagnostic, instead
/// of resuming from a damaged tuple, to a count that may be wrong. The
/// crash comes late, so the 50 ms checkpoint cadence has committed a
/// prefix of most of the run.
#[test]
fn bit_rot_in_an_evicting_runs_log_fails_the_resume() {
    use std::io::{Read, Seek, SeekFrom, Write};
    let dir = tmp("evicted-rot");
    let d = dir.join("crash").display().to_string();
    let crash = ccr(&[
        "verify",
        "specs/token.ccp",
        "-n",
        "5",
        "--symmetry",
        "off",
        "--async",
        "--spill-dir",
        &d,
        "--spill-bytes",
        "65536",
        "--checkpoint-interval",
        "0.05",
        "--crash-after-states",
        "60000",
    ]);
    assert!(!crash.status.success(), "the crash run must die");

    // The state log's committed region, as the manifest commits it.
    let manifest = std::fs::read_to_string(format!("{d}/async/manifest.json"))
        .expect("the crash run committed a checkpoint");
    let manifest = Json::parse(&manifest).expect("manifest JSON");
    let tuples = &manifest.get("committed").and_then(Json::as_array).expect("committed")[0];
    let committed = tuples.get("bytes").and_then(Json::as_u64).unwrap();
    let records = tuples.get("records").and_then(Json::as_u64).unwrap();
    assert!(records > 1_000, "{records} committed records");

    // Walk the records (16-byte file header, then `[len u32][check u32]
    // [payload]`) to the middle one and flip its first payload byte.
    let mut f =
        std::fs::OpenOptions::new().read(true).write(true).open(format!("{d}/async/log")).unwrap();
    let mut at = 16;
    for _ in 0..records / 2 {
        let mut len = [0u8; 4];
        f.seek(SeekFrom::Start(at)).unwrap();
        f.read_exact(&mut len).unwrap();
        at += 8 + u64::from(u32::from_le_bytes(len));
    }
    let mut len = [0u8; 4];
    f.seek(SeekFrom::Start(at)).unwrap();
    f.read_exact(&mut len).unwrap();
    assert!(u32::from_le_bytes(len) > 0 && at + 8 < committed, "record at {at}");
    let mut b = [0u8; 1];
    f.seek(SeekFrom::Start(at + 8)).unwrap();
    f.read_exact(&mut b).unwrap();
    f.seek(SeekFrom::Start(at + 8)).unwrap();
    f.write_all(&[b[0] ^ 0xFF]).unwrap();
    drop(f);

    let out = ccr(&["verify", "--resume", &d, "--json"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", String::from_utf8_lossy(&out.stdout));
    assert!(err.contains("checksum mismatch at committed offset"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A crashed run resumes at any thread count, serial included: the
/// checkpoint cuts between expansions of the one sweep, which is the
/// same sweep whoever generates its successors. Each resume must be
/// byte-identical to the uninterrupted run.
#[test]
fn resume_across_thread_counts() {
    let dir = tmp("threads");
    let base = ccr(&["verify", "specs/token.ccp", "-n", "3", "--json"]);
    assert!(base.status.success());
    let with_threads = |args: &mut Vec<String>, threads: Option<&str>| {
        if let Some(t) = threads {
            args.extend(["--threads".to_string(), t.to_string()]);
        }
    };
    for (crash, resume) in [(Some("4"), None), (None, Some("2")), (Some("2"), Some("4"))] {
        let d = dir.join(format!("crash-{}-{}", crash.unwrap_or("0"), resume.unwrap_or("0")));
        let d = d.display().to_string();
        let mut args: Vec<String> =
            ["verify", "specs/token.ccp", "-n", "3", "--json", "--spill-dir", &d]
                .map(String::from)
                .to_vec();
        args.extend(["--checkpoint-interval", "0", "--crash-after-states", "60"].map(String::from));
        with_threads(&mut args, crash);
        let crashed = ccr(&args.iter().map(String::as_str).collect::<Vec<_>>());
        assert!(!crashed.status.success(), "crash={crash:?}");
        // `--resume` replays the crashed run's `--threads` unless told
        // otherwise, and the flag has no value for "none": a serial
        // resume says so the way a serial first leg does, in `meta.json`.
        if resume.is_none() {
            let meta = format!("{d}/meta.json");
            let text = std::fs::read_to_string(&meta).unwrap();
            let serial = text.replace("\"engine_threads\":4", "\"engine_threads\":0");
            assert_ne!(text, serial, "{text}");
            std::fs::write(&meta, serial).unwrap();
        }
        let mut args: Vec<String> = ["verify", "--resume", &d, "--json"].map(String::from).to_vec();
        with_threads(&mut args, resume);
        let resumed = ccr(&args.iter().map(String::as_str).collect::<Vec<_>>());
        assert_eq!(
            sweep_counts(&resumed.stdout),
            sweep_counts(&base.stdout),
            "crash={crash:?} resume={resume:?}\nstderr: {}",
            String::from_utf8_lossy(&resumed.stderr)
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A spill directory written by a binary that still had the sharded
/// engine says `"kind":"parallel"` in its manifest (and keeps one log per
/// shard). Nothing reads that format any more: `--resume` must refuse it
/// with the typed diagnostic — the path and why — not guess. Those
/// binaries wrote format version 1, which is refused by its version.
#[test]
fn a_sharded_era_manifest_is_refused_by_name() {
    let dir = tmp("sharded");
    let d = dir.join("old");
    let done =
        ccr(&["verify", "specs/token.ccp", "-n", "2", "--spill-dir", &d.display().to_string()]);
    assert!(done.status.success());
    // Hand-written: what that engine committed at a level boundary, and
    // what it left when it finished — either is refused, since a stopped
    // sharded run did not count what the sweep counts.
    let manifest = d.join("async/manifest.json");
    for (finished, outcome) in [("false", "null"), ("true", r#""Complete""#)] {
        let old = format!(
            r#"{{"version":1,"kind":"parallel","seq":8,"finished":{finished},"outcome_name":{outcome},"outcome_detail":null,"states":31,"transitions":53,"peak_frontier":5,"elapsed_ms":113,"head":0,"level":8,"threads":2,"shards":2,"committed":[{{"bytes":16,"records":0}},{{"bytes":53,"records":1}}],"evict":false}}"#
        );
        std::fs::write(&manifest, format!("{old}\n")).unwrap();
        let out = ccr(&["verify", "--resume", &d.display().to_string()]);
        assert_eq!(out.status.code(), Some(1), "finished={finished}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unsupported manifest format version 1"), "{err}");
        assert!(err.contains("async/manifest.json"), "{err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A spill directory of format version 1 — written before keys took
/// their short forms, with a `depth` column in every log record and
/// `level`/`threads`/`shards` in every manifest — is refused on
/// `--resume` with the version error, whether it stopped mid-run or
/// finished, and whether the manifest or only the log says so: its keys
/// are never decoded as this build's.
#[test]
fn a_format_version_1_spill_dir_is_refused_on_resume() {
    an_old_spill_dir_is_refused_on_resume(1);
}

/// The same for format version 2, whose log records are whole keys where
/// this version's are tuples of segment ids.
#[test]
fn a_format_version_2_spill_dir_is_refused_on_resume() {
    an_old_spill_dir_is_refused_on_resume(2);
}

/// The same for format version 3, which kept an `idx` file beside the
/// state log and `kind`/`evict` in its manifest.
#[test]
fn a_format_version_3_spill_dir_is_refused_on_resume() {
    an_old_spill_dir_is_refused_on_resume(3);
}

/// A spill directory stamped with format version `old`, stopped mid-run
/// or finished, is refused by its version: any one of its three logs', or
/// the manifest's.
fn an_old_spill_dir_is_refused_on_resume(old: u32) {
    use std::io::{Seek, SeekFrom, Write};
    let dir = tmp(&format!("v{old}"));
    for (tag, crash) in [("stopped", Some("40")), ("finished", None)] {
        let d = dir.join(tag);
        let mut args = vec!["verify", "specs/token.ccp", "-n", "2"];
        let spill = d.display().to_string();
        args.extend(["--spill-dir", &spill, "--checkpoint-interval", "0"]);
        if let Some(after) = crash {
            args.extend(["--crash-after-states", after]);
        }
        let first = ccr(&args);
        assert_eq!(first.status.success(), crash.is_none(), "{tag} run");

        // One log header at a time says version `old`, as the old
        // writer's did; the manifest, still this version's, commits it.
        for file in ["async/log", "async/home-segments", "async/remote-segments"] {
            let stamp = |version: u32| {
                let mut f = std::fs::OpenOptions::new().write(true).open(d.join(file)).unwrap();
                f.seek(SeekFrom::Start(8)).unwrap();
                f.write_all(&version.to_le_bytes()).unwrap();
            };
            stamp(old);
            let out = ccr(&["verify", "--resume", &spill]);
            let err = String::from_utf8_lossy(&out.stderr);
            if crash.is_some() {
                assert_eq!(out.status.code(), Some(1), "{tag} {file}: {err}");
                let refusal = format!("unsupported log format version {old}");
                assert!(err.contains(&refusal), "{tag} {file}: {err}");
                assert!(err.contains(file), "{tag} {file}: {err}");
            }
            stamp(FORMAT_VERSION);
        }

        // The manifest in the old writer's form.
        let manifest = d.join("async/manifest.json");
        let current = std::fs::read_to_string(&manifest).unwrap();
        let version = format!(r#""version":{FORMAT_VERSION},"#);
        assert!(current.contains(&version), "{current}");
        let mut stale = current.replace(&version, &format!(r#""version":{old},"#));
        if old == 1 {
            stale = stale
                .replace(r#""committed":"#, r#""level":0,"threads":1,"shards":1,"committed":"#);
        }
        std::fs::write(&manifest, stale).unwrap();
        let out = ccr(&["verify", "--resume", &spill]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tag}: {err}");
        let refusal = format!("unsupported manifest format version {old}");
        assert!(err.contains(&refusal), "{tag}: {err}");
        assert!(err.contains("async/manifest.json"), "{tag}: {err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Resuming a run whose phases already finished restores the reports
/// from the terminal manifests without re-searching.
#[test]
fn resume_of_a_finished_run_restores_reports() {
    let dir = tmp("finished");
    let d = dir.join("spill");
    let done = ccr(&[
        "verify",
        "specs/token.ccp",
        "-n",
        "2",
        "--json",
        "--spill-dir",
        &d.display().to_string(),
    ]);
    let base = sweep_counts(&done.stdout);
    let resumed = ccr(&["verify", "--resume", &d.display().to_string()]);
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(stdout.contains("restored from finished checkpoint"), "{stdout}");
    let rejson = ccr(&["verify", "--resume", &d.display().to_string(), "--json"]);
    assert_eq!(sweep_counts(&rejson.stdout), base);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Corruption fails safe: a garbled manifest, bit rot inside the
/// committed log region, and a log truncated below its manifest each
/// exit nonzero with a diagnostic naming the damage.
#[test]
fn corruption_fails_safe_with_a_diagnostic() {
    use std::io::{Read, Seek, SeekFrom, Write};
    let dir = tmp("corrupt");

    // A finished run with a garbled manifest.
    let d1 = dir.join("manifest");
    ccr(&["verify", "specs/token.ccp", "-n", "2", "--spill-dir", &d1.display().to_string()]);
    std::fs::write(d1.join("async/manifest.json"), "{broken").unwrap();
    let out = ccr(&["verify", "--resume", &d1.display().to_string()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("corrupt manifest"), "{err}");

    // A crashed run (mid-async checkpoint) with one byte of the
    // committed log region flipped.
    let d2 = dir.join("rot");
    let crash = ccr(&[
        "verify",
        "specs/token.ccp",
        "-n",
        "2",
        "--spill-dir",
        &d2.display().to_string(),
        "--checkpoint-interval",
        "0",
        "--crash-after-states",
        "40",
    ]);
    assert!(!crash.status.success());
    let log = d2.join("async/log");
    let committed = std::fs::metadata(&log).unwrap().len();
    assert!(committed > 20, "crash run must have committed log bytes");
    let mut f = std::fs::OpenOptions::new().read(true).write(true).open(&log).unwrap();
    f.seek(SeekFrom::Start(committed - 3)).unwrap();
    let mut b = [0u8; 1];
    f.read_exact(&mut b).unwrap();
    f.seek(SeekFrom::Start(committed - 3)).unwrap();
    f.write_all(&[b[0] ^ 0xFF]).unwrap();
    drop(f);
    let out = ccr(&["verify", "--resume", &d2.display().to_string()]);
    assert!(!out.status.success(), "bit rot must fail the resume");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("checksum mismatch"), "{err}");

    // The same crashed layout with the log truncated below the bytes
    // its manifest vouches for.
    let d3 = dir.join("short");
    let crash = ccr(&[
        "verify",
        "specs/token.ccp",
        "-n",
        "2",
        "--spill-dir",
        &d3.display().to_string(),
        "--checkpoint-interval",
        "0",
        "--crash-after-states",
        "40",
    ]);
    assert!(!crash.status.success());
    let log = d3.join("async/log");
    let committed = std::fs::metadata(&log).unwrap().len();
    std::fs::OpenOptions::new().write(true).open(&log).unwrap().set_len(committed - 5).unwrap();
    let out = ccr(&["verify", "--resume", &d3.display().to_string()]);
    assert!(!out.status.success(), "a log truncated below its manifest must fail the resume");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("truncated below"), "{err}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The segment logs a spill directory keeps beside the state log — the
/// distinct home and remote segments its tuples name — recover like it:
/// garbage past their committed end is a dead tail and the resume is the
/// uninterrupted run, and a flipped byte inside their committed region
/// fails the resume with the segment log's path.
#[test]
fn segment_logs_recover_their_committed_prefix_or_fail_safe() {
    use std::io::{Read, Seek, SeekFrom, Write};
    let dir = tmp("segments");
    let plain = ccr(&["verify", "specs/token.ccp", "-n", "2", "--json"]);
    assert!(plain.status.success());
    for (tag, rot) in [("torn", false), ("rot", true)] {
        let d = dir.join(tag);
        let spill = d.display().to_string();
        let crash = ccr(&[
            "verify",
            "specs/token.ccp",
            "-n",
            "2",
            "--spill-dir",
            &spill,
            "--checkpoint-interval",
            "0",
            "--crash-after-states",
            "40",
        ]);
        assert!(!crash.status.success(), "{tag}: the crash run must die");
        for file in ["async/home-segments", "async/remote-segments"] {
            let path = d.join(file);
            let committed = std::fs::metadata(&path).unwrap().len();
            assert!(committed > 16, "{tag}: {file} committed no segment");
            let mut f = std::fs::OpenOptions::new().read(true).write(true).open(&path).unwrap();
            if rot {
                f.seek(SeekFrom::Start(committed - 1)).unwrap();
                let mut b = [0u8; 1];
                f.read_exact(&mut b).unwrap();
                f.seek(SeekFrom::Start(committed - 1)).unwrap();
                f.write_all(&[b[0] ^ 0xFF]).unwrap();
                break;
            }
            f.seek(SeekFrom::End(0)).unwrap();
            f.write_all(&[0xAB; 23]).unwrap();
        }
        let out = ccr(&["verify", "--resume", &spill, "--json"]);
        let err = String::from_utf8_lossy(&out.stderr);
        if rot {
            assert!(!out.status.success(), "bit rot in a segment log must fail the resume");
            assert!(err.contains("checksum mismatch"), "{err}");
            assert!(err.contains("home-segments"), "{err}");
        } else {
            assert!(out.status.success(), "{err}");
            assert_eq!(sweep_counts(&out.stdout), sweep_counts(&plain.stdout), "{tag}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--resume` of a directory without a run is a clean error, and spill
/// flags outside `verify` are rejected.
#[test]
fn resume_and_flag_misuse_are_clean_errors() {
    let out = ccr(&["verify", "--resume", "/nonexistent/run-dir"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot resume"), "{err}");

    let out = ccr(&["table", "specs/token.ccp", "--spill-dir", "/tmp/x"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("`--spill-dir` is not a flag of `ccr table`"), "{err}");

    let out = ccr(&["verify", "specs/token.ccp", "--crash-after-states", "10"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("needs --spill-dir"), "{err}");
}
