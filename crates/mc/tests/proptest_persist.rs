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

use ccr_mc::persist::RecInfo;
use ccr_mc::LogTier;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccr-prop-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Builds a synced log from `payloads` and returns its total byte
/// length plus the record geometry (recovered back, which also
/// round-trip-checks the happy path).
fn build_log(log: &Path, payloads: &[Vec<u8>]) -> (u64, Vec<RecInfo>) {
    let mut tier = LogTier::create(log, 0).unwrap();
    for p in payloads {
        tier.append(p);
    }
    let (bytes, records) = tier.sync();
    assert!(tier.take_err().is_none(), "test log must build cleanly");
    assert_eq!(records as usize, payloads.len());
    drop(tier);
    let mut recs = Vec::new();
    let missing_idx = log.with_extension("no-idx");
    LogTier::recover(log, &missing_idx, Some(bytes), 0, false, |rec, payload| {
        assert_eq!(payload, Some(&payloads[recs.len()][..]));
        recs.push(rec);
    })
    .unwrap();
    (bytes, recs)
}

/// How many records survive a cut at `t`: exactly those whose header
/// and payload lie fully below the cut. (`recs` ascends; record `i`
/// ends where record `i + 1` begins, the last at `full`.)
fn survivors(recs: &[RecInfo], full: u64, t: u64) -> usize {
    (0..recs.len()).take_while(|&i| recs.get(i + 1).map(|n| n.offset).unwrap_or(full) <= t).count()
}

/// The property body shared by the exhaustive and the random tests:
/// cut a copy of `log` to `t` bytes and recover it both without a
/// manifest (prefix recovery) and against one (corruption report).
fn check_cut(
    log: &Path,
    scratch: &Path,
    payloads: &[Vec<u8>],
    full: u64,
    recs: &[RecInfo],
    t: u64,
) {
    std::fs::copy(log, scratch).unwrap();
    std::fs::OpenOptions::new().write(true).open(scratch).unwrap().set_len(t).unwrap();
    let header = recs.first().map(|r| r.offset).expect("logs under test hold records");
    let missing_idx = scratch.with_extension("no-idx");

    // Manifest-less recovery: the longest clean prefix, bit-exact.
    let mut seen = 0usize;
    let recovered = LogTier::recover(scratch, &missing_idx, None, 0, false, |rec, payload| {
        assert_eq!(payload, Some(&payloads[seen][..]), "cut at {t}: payload {seen} differs");
        assert_eq!(rec.len as usize, payloads[seen].len(), "cut at {t}: length {seen} differs");
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
        let live_end = recs.get(want).map(|r| r.offset).unwrap_or(full);
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
    let against_manifest = LogTier::recover(scratch, &missing_idx, Some(full), 0, false, |_, _| {});
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
        let header = recs[0].offset;
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
        let missing_idx = log.with_extension("no-idx");
        let res = LogTier::recover(&log, &missing_idx, Some(full), 0, false, |_, _| {});
        let err = res.expect_err("bit rot inside the committed region must fail the open");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
