//! Property tests for the persistence layer's crash recovery
//! (`ccr_mc::persist`): a state log cut off at **any** byte offset —
//! the on-disk shape a kill -9 mid-append leaves behind — must either
//! recover the longest clean record prefix (manifest-less torn-tail
//! recovery) or report corruption (recovery against a manifest whose
//! committed region the cut invaded). It must never panic and never
//! return wrong counts or wrong payload bytes.
//!
//! Three properties:
//!
//! * **Exhaustive truncation** — for a fixed log, every single
//!   truncation offset from 0 to the full length behaves as specified
//!   (not sampled: the file is small enough to sweep).
//! * **Random logs, random cuts** — proptest-driven payload sets and
//!   truncation points agree with the boundary arithmetic computed
//!   from the record geometry.
//! * **Bit rot inside the committed region** — flipping a byte the
//!   manifest vouches for fails the open with a diagnostic instead of
//!   resurrecting damaged states.
//!
//! And two on whole persisted sweeps, whose state log holds tuples of
//! segment ids naming the records of two segment logs:
//!
//! * **Torn segment and state logs** — a sweep crashed at any state,
//!   with garbage past the committed end of any one of its three logs,
//!   resumes to the uninterrupted run's states, transitions and outcome.
//! * **A segment that is not durable** — a manifest committing fewer
//!   segments than its committed tuples name is refused on resume, not
//!   read as other states.

use ccr_core::encode::Segment;
use ccr_core::refine::{refine, RefineOptions, RefinedProtocol};
use ccr_core::text::parse_validated;
use ccr_mc::persist::{Manifest, ManifestWriter, PhaseDir};
use ccr_mc::search::{PersistOpts, Search};
use ccr_mc::{Budget, LogTier, Outcome, SearchObserver};
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Duration;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccr-prop-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Builds a synced log from `payloads` and returns its total byte
/// length plus each record's header offset (recovered back, which also
/// round-trip-checks the happy path).
fn build_log(log: &Path, payloads: &[Vec<u8>]) -> (u64, Vec<u64>) {
    let mut tier = LogTier::create(log, 0).unwrap();
    for p in payloads {
        tier.append(p);
    }
    let (bytes, records) = tier.sync();
    assert!(tier.take_err().is_none(), "test log must build cleanly");
    assert_eq!(records as usize, payloads.len());
    drop(tier);
    let mut recs = Vec::new();
    LogTier::recover(log, Some(bytes), 0, |off, payload| {
        assert_eq!(payload, &payloads[recs.len()][..]);
        recs.push(off);
    })
    .unwrap();
    (bytes, recs)
}

/// How many records survive a cut at `t`: exactly those whose header
/// and payload lie fully below the cut. (`recs` ascends; record `i`
/// ends where record `i + 1` begins, the last at `full`.)
fn survivors(recs: &[u64], full: u64, t: u64) -> usize {
    (0..recs.len()).take_while(|&i| recs.get(i + 1).copied().unwrap_or(full) <= t).count()
}

/// The property body shared by the exhaustive and the random tests:
/// cut a copy of `log` to `t` bytes and recover it both without a
/// manifest (prefix recovery) and against one (corruption report).
fn check_cut(log: &Path, scratch: &Path, payloads: &[Vec<u8>], full: u64, recs: &[u64], t: u64) {
    std::fs::copy(log, scratch).unwrap();
    std::fs::OpenOptions::new().write(true).open(scratch).unwrap().set_len(t).unwrap();
    let header = recs.first().copied().expect("logs under test hold records");

    // Manifest-less recovery: the longest clean prefix, bit-exact.
    let mut seen = 0usize;
    let recovered = LogTier::recover(scratch, None, 0, |_, payload| {
        assert_eq!(payload, &payloads[seen][..], "cut at {t}: payload {seen} differs");
        seen += 1;
    });
    if t < header {
        assert!(recovered.is_err(), "a cut inside the header ({t} bytes) must fail the open");
    } else {
        let mut tier =
            recovered.unwrap_or_else(|e| panic!("cut at {t} must recover a prefix: {e}"));
        let want = survivors(recs, full, t);
        assert_eq!(tier.records(), want, "cut at {t}: wrong record count");
        assert_eq!(seen, want);
        // Recovery is read-only: the file still holds all `t` bytes and
        // the slice past the live prefix is reported as dead…
        let live_end = recs.get(want).copied().unwrap_or(full);
        assert_eq!(std::fs::metadata(scratch).unwrap().len(), t, "cut at {t}: open must not write");
        assert_eq!(tier.dead_bytes(), t - live_end, "cut at {t}: wrong dead-byte count");
        // …until the next checkpoint's sync compacts it away.
        let (committed, _) = tier.sync();
        assert_eq!(committed, live_end);
        assert_eq!(
            std::fs::metadata(scratch).unwrap().len(),
            live_end,
            "cut at {t}: dead bytes must be compacted at the checkpoint"
        );
        assert_eq!(tier.stats().compacted_bytes, t - live_end, "cut at {t}: metric disagrees");
        assert!(tier.take_err().is_none());
    }

    // Recovery against a manifest committing the full log: any cut
    // below it is corruption and must be reported, not repaired.
    std::fs::copy(log, scratch).unwrap();
    std::fs::OpenOptions::new().write(true).open(scratch).unwrap().set_len(t).unwrap();
    let against_manifest = LogTier::recover(scratch, Some(full), 0, |_, _| {});
    if t < full {
        let err = against_manifest
            .err()
            .unwrap_or_else(|| panic!("cut at {t} below committed {full} must fail the open"));
        let msg = err.to_string();
        assert!(
            msg.contains("truncated below") || msg.contains("shorter than its header"),
            "cut at {t}: undiagnostic error: {msg}"
        );
    } else {
        assert_eq!(against_manifest.unwrap().records(), payloads.len());
    }
}

#[test]
fn every_truncation_offset_recovers_cleanly_or_reports() {
    let dir = tmp("sweep");
    let log = dir.join("log");
    let scratch = dir.join("cut");
    let payloads: Vec<Vec<u8>> = (0..12u8).map(|i| (0..i * 5).collect()).collect();
    let (full, recs) = build_log(&log, &payloads);
    for t in 0..=full {
        check_cut(&log, &scratch, &payloads, full, &recs, t);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    #[test]
    fn random_logs_random_cuts(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 1..24),
        cut in any::<u64>(),
    ) {
        let dir = tmp("random");
        let log = dir.join("log");
        let scratch = dir.join("cut");
        let (full, recs) = build_log(&log, &payloads);
        let t = cut % (full + 1);
        check_cut(&log, &scratch, &payloads, full, &recs, t);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_rot_in_the_committed_region_is_reported(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..32), 1..16),
        at in any::<u64>(),
        flip in 1u8..=255,
    ) {
        use std::io::{Read, Seek, SeekFrom, Write};
        let dir = tmp("rot");
        let log = dir.join("log");
        let (full, recs) = build_log(&log, &payloads);
        let header = recs[0];
        // Flip one byte somewhere in the record region (header bytes are
        // covered by their own magic/version checks).
        let off = header + at % (full - header);
        let mut f = std::fs::OpenOptions::new().read(true).write(true).open(&log).unwrap();
        f.seek(SeekFrom::Start(off)).unwrap();
        let mut b = [0u8; 1];
        f.read_exact(&mut b).unwrap();
        f.seek(SeekFrom::Start(off)).unwrap();
        f.write_all(&[b[0] ^ flip]).unwrap();
        drop(f);
        let res = LogTier::recover(&log, Some(full), 0, |_, _| {});
        let err = res.expect_err("bit rot inside the committed region must fail the open");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Migratory, refined, from the repository's `specs/`: its asynchronous
/// system at two remotes has 156 states.
fn migratory() -> &'static RefinedProtocol {
    static REFINED: OnceLock<RefinedProtocol> = OnceLock::new();
    REFINED.get_or_init(|| {
        // This crate's directory, or the repository root when the root
        // package includes this file (`tests/crate_suites.rs`).
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let specs = [here.join("../../specs"), here.join("specs")]
            .into_iter()
            .find(|dir| dir.is_dir())
            .expect("the repository's specs/");
        let text = std::fs::read_to_string(specs.join("migratory.ccp")).expect("migratory.ccp");
        let spec = parse_validated(&text).expect("migratory parses");
        refine(&spec, &RefineOptions::default()).expect("migratory refines")
    })
}

/// A sweep of migratory's asynchronous system at n = 2, persisted into
/// `dir` under `opts` when given, that panics — unwinding past the sweep
/// without concluding it, as a kill would leave it — once it has stored
/// `crash_at` states. `(states, transitions, outcome)` when it ends.
fn sweep(
    dir: Option<(&Path, &PersistOpts)>,
    crash_at: Option<usize>,
) -> Option<(usize, usize, Outcome)> {
    let sys = AsyncSystem::new(migratory(), 2, AsyncConfig::default());
    let stored = AtomicUsize::new(0);
    let invariant = |_: &_| {
        let now = stored.fetch_add(1, Relaxed) + 1;
        assert!(Some(now) != crash_at, "crash at {now} states");
        None
    };
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut null = ccr_trace::NullSink;
        let mut obs = SearchObserver::new(&mut null);
        let search = Search { persist: dir, ..Search::default() };
        search.explore(&sys, &Budget::default(), Some(&invariant), &mut obs)
    }));
    run.ok().map(|r| (r.states, r.transitions, r.outcome))
}

/// The first leg of a resume: a sweep checkpointed at every expansion,
/// crashed at `crash_at` states.
fn crashed(dir: &Path, evict_at: usize, crash_at: usize) -> PersistOpts {
    let opts = PersistOpts { interval: Duration::ZERO, evict_at, ..PersistOpts::default() };
    assert_eq!(sweep(Some((dir, &opts)), Some(crash_at)), None, "the first leg must crash");
    PersistOpts { resume: true, ..opts }
}

/// The phase directory's three logs: states, home and remote segments.
fn logs(dir: &Path) -> [PathBuf; 3] {
    let phase = PhaseDir { root: dir.to_path_buf() };
    [phase.log(), phase.segments(Segment::Home), phase.segments(Segment::Remote)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    #[test]
    fn crashed_sweeps_with_torn_logs_resume_to_the_uninterrupted_counts(
        crash_at in 2usize..150,
        log in 0usize..3,
        torn in prop::collection::vec(any::<u8>(), 0..40),
        evict in any::<bool>(),
    ) {
        use std::io::Write;
        let plain = sweep(None, None).expect("the plain sweep finishes");
        let dir = tmp("torn-sweep");
        let resume = crashed(&dir, if evict { 256 } else { 0 }, crash_at);
        let mut f = std::fs::OpenOptions::new().append(true).open(&logs(&dir)[log]).unwrap();
        f.write_all(&torn).unwrap();
        drop(f);
        prop_assert_eq!(sweep(Some((&dir, &resume)), None), Some(plain));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_tuple_naming_a_segment_that_is_not_durable_is_refused() {
    let dir = tmp("undurable");
    let resume = crashed(&dir, 0, 100);
    // Commit one home segment only: the committed tuples name more.
    let mut offsets = Vec::new();
    LogTier::recover(&logs(&dir)[1], None, 0, |off, _| offsets.push(off)).unwrap();
    assert!(offsets.len() > 2, "{} home segments", offsets.len());
    let path = dir.join("manifest.json");
    let mut m = Manifest::read(&path).unwrap().expect("a checkpoint");
    assert_eq!(m.committed.len(), 3, "states, home and remote segments");
    m.committed[1] = (offsets[1], 1);
    ManifestWriter::create(&path, m.seq).write(&mut m).unwrap();
    let (states, _, outcome) = sweep(Some((&dir, &resume)), None).expect("the resume ends");
    assert!(
        matches!(&outcome, Outcome::PersistFailure(d) if d.contains("names a segment")),
        "{outcome:?}"
    );
    assert!(states > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
