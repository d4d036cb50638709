//! External-memory persistence: the append-only state log behind the
//! disk-backed [`StateStore`](crate::store::StateStore) tier, with
//! checkpoint manifests and crash recovery.
//!
//! The visited set of a big-N search outgrows RAM long before it
//! outgrows a disk (the paper's Table 3 stops where SPIN's 64 MB do);
//! this module turns the store into a bounded-memory, kill-safe tier.
//! The on-disk layout of one search phase directory is:
//!
//! * **`log`** — an append-only record log: a 16-byte versioned header
//!   (`CCRLOG1\0`, version, reserved) followed by records of
//!   `[payload_len u32][check u32][payload]`, all little-endian. `check`
//!   is the truncated splitmix-finalized FxHash of the payload, so torn
//!   or corrupted records are detected individually. A payload is a
//!   state's store key, in the layout of the binary that wrote it.
//!   Record order is store insertion order: record `i` *is* dense state
//!   index `i`.
//! * **`idx`** — the hash64 → offset index,
//!   rewritten at every checkpoint: header (`CCRIDX1\0`, version,
//!   record count, covered log bytes) then one
//!   `[hash u64][offset u64][len u32]` row per record and a trailing
//!   checksum. Missing or stale index files are not an error —
//!   the index is rebuilt from the log by a full checksum scan.
//! * **`manifest.json`** — the checkpoint: committed log bytes and
//!   record count, search counters, and the frontier cursor (`head`:
//!   the index of the next state to expand).
//!   Written atomically (write-temp-then-rename, the `status.rs`
//!   discipline) with a monotonic `seq`. Everything in the log *beyond*
//!   the committed byte count is an uncommitted (dead) tail: recovery
//!   ignores it, appends overwrite it, and the next checkpoint's
//!   [`LogTier::sync`] compacts whatever is left of it away
//!   (`mc_persist_compacted_bytes_total`).
//! * **`lock`** — a pid lock file refusing concurrent writers; stale
//!   locks (dead pid) are broken automatically.
//!
//! # Format versions
//!
//! [`FORMAT_VERSION`] stamps the log header, the index header and the
//! manifest, and moves whenever any of them or the key layout changes:
//! a directory of another version is refused on open, never decoded.
//! Version 2 has one canonical short form per value and id in its keys
//! (version 1 keys took a fixed two bytes per state id), and drops the
//! fields version 1 always wrote as constants: the `depth` column of log
//! records and index rows, and the manifest's `level`, `threads` and
//! `shards`.
//!
//! # Recovery rules
//!
//! Recovery is **read-only**: it never mutates the log, so a resume
//! killed before its first checkpoint leaves the directory exactly as
//! it found it and re-recovery is idempotent. On open with a manifest:
//! the committed prefix is the live log — anything beyond it is the
//! torn tail a kill -9 leaves behind and is treated as dead — and every
//! committed record's checksum is verified: a mismatch *inside* the
//! committed region is real corruption and fails the open with a
//! diagnostic, never a wrong answer. On open without a manifest (or
//! with `committed = None`): the scan keeps the longest valid record
//! prefix and treats everything from the first bad checksum on as dead.
//! Dead bytes are reclaimed by **log compaction** at the next
//! checkpoint boundary: the live records are always a contiguous
//! prefix, so the rewrite-live-prefix step degenerates to a truncate at
//! the live boundary inside [`LogTier::sync`], followed by the atomic
//! manifest swap that commits the new geometry. A fresh index matching
//! the manifest lets eviction-mode opens skip payload reads entirely.
//!
//! # Determinism contract
//!
//! Spilling and resuming never change *what* is explored: record order
//! is insertion order, the rebuilt hash table reproduces the exact
//! probe layout (insertions replay in order against the same hashes),
//! and a resumed search continues from a cut that the checkpoint placed
//! *between* state expansions. A resumed or spilled run therefore
//! reports byte-identical states/transitions/outcome versus an
//! uninterrupted in-memory run — the property `tests/persistence.rs`
//! enforces with a kill -9 differential harness.

use ccr_core::encode::Segment;
use ccr_core::hash::hash_bytes;
use ccr_metrics::jsonval::Json;
use ccr_metrics::Registry;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Magic bytes opening every state log file.
pub const LOG_MAGIC: &[u8; 8] = b"CCRLOG1\0";
/// Magic bytes opening every index file.
pub const IDX_MAGIC: &[u8; 8] = b"CCRIDX1\0";
/// On-disk format version (log, index, manifest and key layout move
/// together; see the module docs).
pub const FORMAT_VERSION: u32 = 3;
/// Log/idx file header size: magic + version + reserved word.
pub const FILE_HEADER: u64 = 16;
/// Per-record header: payload length, checksum.
pub const RECORD_HEADER: usize = 8;
/// Bytes of one index row: hash, record offset, payload length.
const IDX_ROW: usize = 8 + 8 + 4;
/// Buffered-tail size that triggers a write to the log file.
const TAIL_FLUSH: usize = 256 * 1024;

/// A persistence failure: what went wrong and the offending path.
/// Carried into [`Outcome::PersistFailure`](crate::report::Outcome) so
/// checking outcomes stay structured instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistError {
    /// The file or directory the operation failed on.
    pub path: PathBuf,
    /// Human-readable description.
    pub detail: String,
}

impl PersistError {
    pub(crate) fn new(path: impl Into<PathBuf>, detail: impl Into<String>) -> Self {
        PersistError { path: path.into(), detail: detail.into() }
    }

    pub(crate) fn io(path: impl Into<PathBuf>, e: std::io::Error) -> Self {
        PersistError { path: path.into(), detail: e.to_string() }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.detail, self.path.display())
    }
}

/// Alias for persistence results.
pub type PResult<T> = std::result::Result<T, PersistError>;

/// Plain per-tier counters, folded into the metrics registry at the end
/// of a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PersistStats {
    /// Records appended to the log.
    pub records_appended: u64,
    /// Payload bytes appended (headers excluded).
    pub bytes_appended: u64,
    /// Wholesale arena evictions performed by the store.
    pub evictions: u64,
    /// Arena bytes released by evictions.
    pub evicted_bytes: u64,
    /// Payload reads served from disk (not the in-memory tail).
    pub disk_reads: u64,
    /// Checkpoints (manifest rewrites) performed.
    pub checkpoints: u64,
    /// Records recovered from the log on open.
    pub recovered_records: u64,
    /// Uncommitted tail bytes found beyond the recovered prefix on open.
    pub torn_bytes: u64,
    /// Index files rebuilt from the log (missing or stale idx).
    pub idx_rebuilds: u64,
    /// Dead log bytes reclaimed by checkpoint-boundary compaction.
    pub compacted_bytes: u64,
}

impl PersistStats {
    /// Folds the counters into `reg` as `mc_persist_*` totals.
    /// Spill/recovery volume is deterministic for a given run shape, but
    /// eviction, disk-read and checkpoint counts depend on flush and
    /// checkpoint timing, so everything timing-adjacent registers as
    /// nondeterministic.
    pub fn publish(&self, reg: &Registry) {
        if !reg.enabled() {
            return;
        }
        reg.counter("mc_persist_records_appended_total", "State records appended to the log tier")
            .add(self.records_appended);
        reg.counter("mc_persist_bytes_appended_total", "Payload bytes appended to the log tier")
            .add(self.bytes_appended);
        reg.counter_nondet("mc_persist_evictions_total", "Wholesale arena evictions")
            .add(self.evictions);
        reg.counter_nondet("mc_persist_evicted_bytes_total", "Arena bytes released by evictions")
            .add(self.evicted_bytes);
        reg.counter_nondet("mc_persist_disk_reads_total", "Payload reads served from disk")
            .add(self.disk_reads);
        reg.counter_nondet("mc_persist_checkpoints_total", "Checkpoint manifests written")
            .add(self.checkpoints);
        reg.counter("mc_persist_recovered_records_total", "Records recovered from the log on open")
            .add(self.recovered_records);
        reg.counter("mc_persist_torn_bytes_total", "Uncommitted tail bytes found on open")
            .add(self.torn_bytes);
        reg.counter("mc_persist_idx_rebuilds_total", "Index files rebuilt by a full log scan")
            .add(self.idx_rebuilds);
        reg.counter_nondet(
            "mc_persist_compacted_bytes_total",
            "Dead log bytes reclaimed by checkpoint-boundary compaction",
        )
        .add(self.compacted_bytes);
    }
}

/// Geometry of one recovered record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecInfo {
    /// File offset of the record header.
    pub offset: u64,
    /// Payload length.
    pub len: u32,
    /// Full 64-bit hash of the payload ([`crate::store::hash_encoded`]).
    pub hash: u64,
}

/// Checksum of one record: truncated splitmix-finalized FxHash of the
/// payload, so a record torn anywhere — header or body — fails
/// verification.
pub fn record_check(payload: &[u8]) -> u32 {
    hash_bytes(payload) as u32
}

/// The refusal of a file stamped with another [`FORMAT_VERSION`].
fn unsupported_version(what: &str, found: u64) -> String {
    format!("unsupported {what} format version {found} (this build reads version {FORMAT_VERSION})")
}

fn file_header() -> [u8; FILE_HEADER as usize] {
    let mut hdr = [0u8; FILE_HEADER as usize];
    hdr[..8].copy_from_slice(LOG_MAGIC);
    hdr[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    hdr
}

/// One append-only log file plus its in-memory index: the disk half of
/// a spilling [`StateStore`](crate::store::StateStore). Record `i`
/// corresponds to dense state index `i` of the fronting store.
///
/// Reads go through a `RefCell<File>` with explicit seeks so shared
/// (`&self`) lookups work from the store's probe path; the tier is
/// still single-writer.
#[derive(Debug)]
pub struct LogTier {
    file: RefCell<File>,
    path: PathBuf,
    /// Bytes durably in the file (tail excluded).
    flushed: u64,
    /// Actual file length on disk. Exceeds `flushed` only after a
    /// recovery that found a torn/uncommitted tail: the open is
    /// read-only, so the dead region survives until the next checkpoint
    /// [`LogTier::sync`] compacts it away (new appends overwrite it in
    /// the meantime).
    file_len: u64,
    /// Appended records not yet written to the file. Always drained
    /// wholesale, so a record is never split across the boundary.
    tail: Vec<u8>,
    /// Record header offsets, by record index.
    offsets: Vec<u64>,
    /// Payload lengths, by record index.
    lens: Vec<u32>,
    /// Payload hashes, by record index (the in-memory hash64 → offset
    /// index; persisted to the idx file at checkpoints).
    hashes: Vec<u64>,
    /// Store-byte threshold that triggers wholesale arena eviction in
    /// the fronting store; 0 disables eviction (log-only mode).
    pub(crate) evict_at: usize,
    /// Sticky I/O error: set on the first read/write failure, checked
    /// by the engines which then abort with `PersistFailure` rather
    /// than report counts computed from bad bytes. Interior-mutable so
    /// shared-path reads (the store's `get`) can record failures.
    err: RefCell<Option<PersistError>>,
    /// Payload reads served from disk (interior-mutable: counted on the
    /// shared read path; folded into [`LogTier::stats`] on read-out).
    disk_reads: Cell<u64>,
    /// Tier counters (disk reads excluded; see [`LogTier::stats`]).
    stats: PersistStats,
}

impl LogTier {
    /// Creates a fresh log at `path` (truncating any previous file) and
    /// writes the versioned header.
    pub fn create(path: impl Into<PathBuf>, evict_at: usize) -> PResult<LogTier> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| PersistError::io(&path, e))?;
        file.write_all(&file_header()).map_err(|e| PersistError::io(&path, e))?;
        Ok(LogTier {
            file: RefCell::new(file),
            path,
            flushed: FILE_HEADER,
            file_len: FILE_HEADER,
            tail: Vec::new(),
            offsets: Vec::new(),
            lens: Vec::new(),
            hashes: Vec::new(),
            evict_at,
            err: RefCell::new(None),
            disk_reads: Cell::new(0),
            stats: PersistStats::default(),
        })
    }

    /// Opens an existing log and recovers its committed records.
    ///
    /// With `committed = Some(bytes)` (from a manifest): the file must
    /// hold at least that many valid bytes — a shorter file or a failed
    /// checksum inside the committed region is corruption and fails the
    /// open; anything beyond it is an uncommitted tail and is truncated.
    /// With `committed = None`: the longest valid record prefix wins and
    /// the first bad record truncates the rest (torn-tail recovery).
    ///
    /// `idx` names the sibling index file: when it is fresh (record
    /// count and covered bytes match) and `skip_payloads` is set
    /// (eviction mode — the store keeps nothing in RAM anyway), the open
    /// trusts it and reads no payload at all. Otherwise the log is
    /// scanned record by record, verifying every checksum, and
    /// `on_record` receives each payload in insertion order so the
    /// caller can rebuild the fronting store.
    pub fn recover(
        path: impl Into<PathBuf>,
        idx: &Path,
        committed: Option<u64>,
        evict_at: usize,
        skip_payloads: bool,
        mut on_record: impl FnMut(RecInfo, Option<&[u8]>),
    ) -> PResult<LogTier> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| PersistError::io(&path, e))?;
        let file_len = file.metadata().map_err(|e| PersistError::io(&path, e))?.len();
        if file_len < FILE_HEADER {
            return Err(PersistError::new(&path, "log shorter than its header"));
        }
        let mut hdr = [0u8; FILE_HEADER as usize];
        file.read_exact(&mut hdr).map_err(|e| PersistError::io(&path, e))?;
        if &hdr[..8] != LOG_MAGIC {
            return Err(PersistError::new(&path, "bad log magic"));
        }
        let version = u32::from_le_bytes(hdr[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(PersistError::new(&path, unsupported_version("log", version.into())));
        }
        if let Some(committed) = committed {
            if file_len < committed {
                return Err(PersistError::new(
                    &path,
                    format!(
                        "log truncated below its manifest: {file_len} bytes on disk, \
                         {committed} committed"
                    ),
                ));
            }
        }
        let scan_end = committed.unwrap_or(file_len);
        let mut stats = PersistStats::default();

        let mut tier = LogTier {
            file: RefCell::new(file),
            path: path.clone(),
            flushed: scan_end,
            file_len,
            tail: Vec::new(),
            offsets: Vec::new(),
            lens: Vec::new(),
            hashes: Vec::new(),
            evict_at,
            err: RefCell::new(None),
            disk_reads: Cell::new(0),
            stats: PersistStats::default(),
        };

        let from_idx = if skip_payloads { read_idx(idx, scan_end) } else { None };
        match from_idx {
            Some(recs) => {
                for r in &recs {
                    tier.offsets.push(r.offset);
                    tier.lens.push(r.len);
                    tier.hashes.push(r.hash);
                    on_record(*r, None);
                }
                stats.recovered_records = recs.len() as u64;
            }
            None => {
                stats.idx_rebuilds = 1;
                let mut off = FILE_HEADER;
                let mut f = tier.file.borrow_mut();
                f.seek(SeekFrom::Start(off)).map_err(|e| PersistError::io(&path, e))?;
                let mut hdr = [0u8; RECORD_HEADER];
                let mut payload = Vec::new();
                while off + RECORD_HEADER as u64 <= scan_end {
                    f.read_exact(&mut hdr).map_err(|e| PersistError::io(&path, e))?;
                    let len = u32::from_le_bytes(hdr[0..4].try_into().expect("4 bytes"));
                    let check = u32::from_le_bytes(hdr[4..8].try_into().expect("4 bytes"));
                    let end = off + RECORD_HEADER as u64 + len as u64;
                    let mut ok = end <= scan_end;
                    if ok {
                        payload.resize(len as usize, 0);
                        f.read_exact(&mut payload).map_err(|e| PersistError::io(&path, e))?;
                        ok = record_check(&payload) == check;
                    }
                    if !ok {
                        if committed.is_some() {
                            return Err(PersistError::new(
                                &path,
                                format!(
                                    "checksum mismatch at committed offset {off} \
                                     (record {})",
                                    tier.offsets.len()
                                ),
                            ));
                        }
                        break; // torn tail: keep the valid prefix
                    }
                    let rec =
                        RecInfo { offset: off, len, hash: crate::store::hash_encoded(&payload) };
                    tier.offsets.push(rec.offset);
                    tier.lens.push(rec.len);
                    tier.hashes.push(rec.hash);
                    on_record(rec, Some(&payload));
                    off = end;
                }
                drop(f);
                tier.flushed = off;
                stats.recovered_records = tier.offsets.len() as u64;
            }
        }
        // The dead tail is *not* truncated here: recovery is read-only,
        // so a resume killed before its first checkpoint leaves the log
        // exactly as it found it (re-recovery is idempotent). The dead
        // region is overwritten by new appends and reclaimed — with the
        // manifest swapped atomically right after — by the next
        // checkpoint's [`LogTier::sync`].
        if file_len > tier.flushed {
            stats.torn_bytes = file_len - tier.flushed;
        }
        tier.stats = stats;
        Ok(tier)
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended (equals the fronting store's `len`).
    pub fn records(&self) -> usize {
        self.offsets.len()
    }

    /// Bytes this tier's in-memory index costs (offsets, lengths,
    /// hashes): 20 per record, charged to the fronting store's
    /// `approx_bytes`. The write tail is deliberately *excluded* — it
    /// is bounded (≤ `TAIL_FLUSH`) and including it would make
    /// byte-budget checks depend on flush timing.
    pub fn mem_bytes(&self) -> usize {
        self.offsets.len() * IDX_ROW
    }

    /// Takes the sticky I/O error, if one occurred.
    pub fn take_err(&mut self) -> Option<PersistError> {
        self.err.get_mut().take()
    }

    /// Whether a sticky I/O error is pending.
    pub fn has_err(&self) -> bool {
        self.err.borrow().is_some()
    }

    /// Records a failure in the sticky slot; the first error wins.
    fn set_err(&self, e: PersistError) {
        let mut slot = self.err.borrow_mut();
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    /// The tier counters, with interior-mutable disk reads folded in.
    pub fn stats(&self) -> PersistStats {
        let mut s = self.stats;
        s.disk_reads += self.disk_reads.get();
        s
    }

    /// Mutable counters (the store bumps eviction totals, the engines
    /// checkpoint totals).
    pub fn stats_mut(&mut self) -> &mut PersistStats {
        &mut self.stats
    }

    /// Appends one record; the caller guarantees `payload` is a state
    /// not seen before (the store's insert path). Write errors go to
    /// the sticky error slot.
    pub fn append(&mut self, payload: &[u8]) {
        let offset = self.flushed + self.tail.len() as u64;
        self.tail.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.tail.extend_from_slice(&record_check(payload).to_le_bytes());
        self.tail.extend_from_slice(payload);
        self.offsets.push(offset);
        self.lens.push(payload.len() as u32);
        self.hashes.push(crate::store::hash_encoded(payload));
        self.stats.records_appended += 1;
        self.stats.bytes_appended += payload.len() as u64;
        if self.tail.len() >= TAIL_FLUSH {
            self.write_tail();
        }
    }

    /// Drains the buffered tail into the file (no durability guarantee;
    /// see [`LogTier::sync`]).
    pub fn write_tail(&mut self) {
        if self.tail.is_empty() || self.has_err() {
            return;
        }
        let res = {
            let mut f = self.file.borrow_mut();
            f.seek(SeekFrom::Start(self.flushed)).and_then(|_| f.write_all(&self.tail))
        };
        match res {
            Ok(()) => {
                self.flushed += self.tail.len() as u64;
                self.file_len = self.file_len.max(self.flushed);
                self.tail.clear();
            }
            Err(e) => self.set_err(PersistError::io(&self.path, e)),
        }
    }

    /// Dead bytes on disk beyond the live record prefix (a torn tail
    /// carried over from recovery that appends have not yet overwritten).
    pub fn dead_bytes(&self) -> u64 {
        self.file_len.saturating_sub(self.flushed)
    }

    /// Drains the tail and makes everything durable, compacting away any
    /// dead region beyond the live prefix. Returns the committed
    /// `(bytes, records)` pair that goes into the manifest.
    ///
    /// Compaction is safe exactly here — at a checkpoint boundary: the
    /// live records are always a contiguous prefix, so rewriting the
    /// live prefix degenerates to truncating at `flushed`, and the
    /// manifest that commits the new geometry is swapped in atomically
    /// right after. A crash in between leaves a shorter-but-valid log
    /// whose committed prefix (per the *old* manifest) is intact.
    pub fn sync(&mut self) -> (u64, u64) {
        self.write_tail();
        if !self.has_err() && self.file_len > self.flushed {
            let dead = self.file_len - self.flushed;
            let res = self.file.borrow_mut().set_len(self.flushed);
            match res {
                Ok(()) => {
                    self.file_len = self.flushed;
                    self.stats.compacted_bytes += dead;
                }
                Err(e) => self.set_err(PersistError::io(&self.path, e)),
            }
        }
        if !self.has_err() {
            let res = self.file.borrow_mut().sync_data();
            if let Err(e) = res {
                self.set_err(PersistError::io(&self.path, e));
            }
        }
        (self.flushed, self.offsets.len() as u64)
    }

    /// Reads record `i`'s payload. Served from the in-memory tail when
    /// the record has not been written out yet; otherwise from the
    /// file. I/O errors set the sticky error and return `None`.
    pub fn read_payload(&self, i: u32) -> Option<Vec<u8>> {
        let off = *self.offsets.get(i as usize)?;
        let len = self.lens[i as usize] as usize;
        let start = off + RECORD_HEADER as u64;
        if off >= self.flushed {
            let t = (start - self.flushed) as usize;
            return Some(self.tail[t..t + len].to_vec());
        }
        self.disk_reads.set(self.disk_reads.get() + 1);
        let mut buf = vec![0u8; len];
        let res = {
            let mut f = self.file.borrow_mut();
            f.seek(SeekFrom::Start(start)).and_then(|_| f.read_exact(&mut buf))
        };
        match res {
            Ok(()) => Some(buf),
            Err(e) => {
                self.set_err(PersistError::io(&self.path, e));
                None
            }
        }
    }

    /// Whether record `i`'s payload equals `enc`. On a read error the
    /// sticky error is set and the answer is `true` (treat as
    /// duplicate): the engine checks [`LogTier::has_err`] and aborts
    /// with `PersistFailure` before any count computed this way could
    /// be reported.
    pub fn payload_eq(&self, i: u32, enc: &[u8]) -> bool {
        let off = self.offsets[i as usize];
        let len = self.lens[i as usize] as usize;
        if len != enc.len() {
            return false;
        }
        let start = off + RECORD_HEADER as u64;
        if off >= self.flushed {
            let t = (start - self.flushed) as usize;
            return &self.tail[t..t + len] == enc;
        }
        self.disk_reads.set(self.disk_reads.get() + 1);
        let mut buf = vec![0u8; len];
        let res = {
            let mut f = self.file.borrow_mut();
            f.seek(SeekFrom::Start(start)).and_then(|_| f.read_exact(&mut buf))
        };
        match res {
            Ok(()) => buf == enc,
            Err(e) => {
                self.set_err(PersistError::io(&self.path, e));
                true
            }
        }
    }

    /// Rewrites the sibling index file to cover every appended record.
    /// Call after [`LogTier::sync`] so the covered-bytes field matches
    /// durable data.
    pub fn write_idx(&mut self, idx_path: &Path) {
        if self.has_err() {
            return;
        }
        let mut buf =
            Vec::with_capacity(FILE_HEADER as usize + 12 + self.offsets.len() * IDX_ROW + 4);
        buf.extend_from_slice(IDX_MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]); // reserved, as in the log header
        buf.extend_from_slice(&(self.offsets.len() as u32).to_le_bytes());
        buf.extend_from_slice(&self.flushed.to_le_bytes());
        for i in 0..self.offsets.len() {
            buf.extend_from_slice(&self.hashes[i].to_le_bytes());
            buf.extend_from_slice(&self.offsets[i].to_le_bytes());
            buf.extend_from_slice(&self.lens[i].to_le_bytes());
        }
        let check = hash_bytes(&buf) as u32;
        buf.extend_from_slice(&check.to_le_bytes());
        if let Err(e) = std::fs::write(idx_path, &buf) {
            self.set_err(PersistError::io(idx_path, e));
        }
    }
}

/// Reads an index file, returning its records only when it is intact
/// and *fresh*: it must cover exactly `log_bytes` of the log. Stale,
/// missing or corrupt index files return `None` — the caller falls
/// back to a full log scan.
pub fn read_idx(path: &Path, log_bytes: u64) -> Option<Vec<RecInfo>> {
    let buf = std::fs::read(path).ok()?;
    let hdr = FILE_HEADER as usize + 4 + 8; // magic+version, count, bytes
    if buf.len() < hdr + 4 || &buf[..8] != IDX_MAGIC {
        return None;
    }
    if u32::from_le_bytes(buf[8..12].try_into().ok()?) != FORMAT_VERSION {
        return None;
    }
    let records = u32::from_le_bytes(buf[16..20].try_into().ok()?) as usize;
    let covered = u64::from_le_bytes(buf[20..28].try_into().ok()?);
    if covered != log_bytes || buf.len() != hdr + records * IDX_ROW + 4 {
        return None;
    }
    let body = &buf[..buf.len() - 4];
    if hash_bytes(body) as u32 != u32::from_le_bytes(buf[buf.len() - 4..].try_into().ok()?) {
        return None;
    }
    let mut out = Vec::with_capacity(records);
    let mut at = hdr;
    for _ in 0..records {
        out.push(RecInfo {
            hash: u64::from_le_bytes(buf[at..at + 8].try_into().ok()?),
            offset: u64::from_le_bytes(buf[at + 8..at + 16].try_into().ok()?),
            len: u32::from_le_bytes(buf[at + 16..at + 20].try_into().ok()?),
        });
        at += IDX_ROW;
    }
    Some(out)
}

/// A pid lock file refusing concurrent writers on one persist
/// directory. Dropping the guard releases the lock. A lock left by a
/// dead process (its pid no longer exists) is broken automatically.
#[derive(Debug)]
pub struct LockGuard {
    path: PathBuf,
}

impl LockGuard {
    /// Acquires the lock at `path`.
    pub fn acquire(path: impl Into<PathBuf>) -> PResult<LockGuard> {
        let path = path.into();
        for _ in 0..2 {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    let _ = f.write_all(format!("{}\n", std::process::id()).as_bytes());
                    return Ok(LockGuard { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    let alive = holder.is_some_and(|pid| {
                        pid != std::process::id() && Path::new(&format!("/proc/{pid}")).exists()
                    });
                    if alive {
                        return Err(PersistError::new(
                            &path,
                            format!("another writer (pid {}) holds the lock", holder.unwrap_or(0)),
                        ));
                    }
                    // Stale or our own: break it and retry once.
                    let _ = std::fs::remove_file(&path);
                }
                Err(e) => return Err(PersistError::io(&path, e)),
            }
        }
        Err(PersistError::new(&path, "could not acquire the lock"))
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The checkpoint manifest of one search phase: committed log geometry
/// plus the counters and frontier cursor a resume needs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Manifest {
    /// On-disk format version.
    pub version: u32,
    /// `"serial"`, the one kind written. (`"parallel"` in directories
    /// left by binaries that still had the sharded engine; refused on
    /// resume.)
    pub kind: String,
    /// Monotonic checkpoint sequence number.
    pub seq: u64,
    /// Whether the search ran to an outcome.
    pub finished: bool,
    /// Final outcome name, set with `finished`.
    pub outcome_name: Option<String>,
    /// Final outcome detail, set with `finished` when the outcome
    /// carries one.
    pub outcome_detail: Option<String>,
    /// States discovered at the checkpoint.
    pub states: u64,
    /// Transitions traversed at the checkpoint.
    pub transitions: u64,
    /// Peak frontier size so far.
    pub peak_frontier: u64,
    /// Milliseconds of search time accumulated (across resumes).
    pub elapsed_ms: u64,
    /// Dense index of the next frontier state to expand. (A checkpoint
    /// does not depend on `--threads`: the sweep is the same at every
    /// thread count.)
    pub head: u64,
    /// Committed `(bytes, records)` of the log (one entry; the sharded
    /// engine wrote one per shard).
    pub committed: Vec<(u64, u64)>,
    /// Whether the run evicts (spills) or only logs.
    pub evict: bool,
}

impl Manifest {
    /// Serializes to a single-line JSON document.
    pub fn to_json(&self) -> String {
        let mut ser = serde::Serializer::new();
        {
            let mut map = ser.begin_map();
            map.entry("version", &self.version);
            map.entry("kind", &self.kind);
            map.entry("seq", &self.seq);
            map.entry("finished", &self.finished);
            map.entry("outcome_name", &self.outcome_name);
            map.entry("outcome_detail", &self.outcome_detail);
            map.entry("states", &self.states);
            map.entry("transitions", &self.transitions);
            map.entry("peak_frontier", &self.peak_frontier);
            map.entry("elapsed_ms", &self.elapsed_ms);
            map.entry("head", &self.head);
            map.entry_with("committed", |ser| {
                let mut seq = ser.begin_seq();
                for (bytes, records) in &self.committed {
                    seq.elem_with(|ser| {
                        let mut e = ser.begin_map();
                        e.entry("bytes", bytes);
                        e.entry("records", records);
                        e.end();
                    });
                }
                seq.end();
            });
            map.entry("evict", &self.evict);
            map.end();
        }
        ser.into_string()
    }

    /// Parses a document produced by [`Manifest::to_json`].
    /// A manifest of another [`FORMAT_VERSION`] is refused by its
    /// version before any other field is read; any other failure is
    /// reported as corruption.
    pub fn parse(text: &str) -> std::result::Result<Manifest, String> {
        let json = Json::parse(text).map_err(|e| format!("corrupt manifest: {e}"))?;
        match json.get("version").and_then(Json::as_u64) {
            Some(v) if v != u64::from(FORMAT_VERSION) => Err(unsupported_version("manifest", v)),
            _ => Self::from_json(&json).map_err(|e| format!("corrupt manifest: {e}")),
        }
    }

    fn from_json(json: &Json) -> std::result::Result<Manifest, String> {
        let u64_of = |key: &str| {
            json.get(key).and_then(Json::as_u64).ok_or_else(|| format!("manifest missing `{key}`"))
        };
        let mut committed = Vec::new();
        for e in
            json.get("committed").and_then(Json::as_array).ok_or("manifest missing `committed`")?
        {
            let bytes = e.get("bytes").and_then(Json::as_u64).ok_or("committed entry bytes")?;
            let records =
                e.get("records").and_then(Json::as_u64).ok_or("committed entry records")?;
            committed.push((bytes, records));
        }
        Ok(Manifest {
            version: u64_of("version")? as u32,
            kind: json
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("manifest missing `kind`")?
                .to_string(),
            seq: u64_of("seq")?,
            finished: json
                .get("finished")
                .and_then(Json::as_bool)
                .ok_or("manifest missing `finished`")?,
            outcome_name: json.get("outcome_name").and_then(Json::as_str).map(str::to_string),
            outcome_detail: json.get("outcome_detail").and_then(Json::as_str).map(str::to_string),
            states: u64_of("states")?,
            transitions: u64_of("transitions")?,
            peak_frontier: u64_of("peak_frontier")?,
            elapsed_ms: u64_of("elapsed_ms")?,
            head: u64_of("head")?,
            committed,
            evict: json.get("evict").and_then(Json::as_bool).unwrap_or(false),
        })
    }

    /// Reads and parses a manifest file. `Ok(None)` when the file does
    /// not exist (fresh start); `Err` when it exists but does not parse
    /// (corruption — refuse to guess).
    pub fn read(path: &Path) -> PResult<Option<Manifest>> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(PersistError::io(path, e)),
        };
        Manifest::parse(&text).map(Some).map_err(|e| PersistError::new(path, e))
    }
}

/// Atomic-rename manifest writer with a monotonic shared sequence
/// number — the same discipline as `ccr_metrics::status::StatusWriter`.
#[derive(Debug, Clone)]
pub struct ManifestWriter {
    path: PathBuf,
    tmp: PathBuf,
    seq: Arc<AtomicU64>,
}

impl ManifestWriter {
    /// A writer targeting `path`, starting from sequence `seq0` (the
    /// prior manifest's seq on resume, 0 fresh).
    pub fn create(path: impl Into<PathBuf>, seq0: u64) -> ManifestWriter {
        let path = path.into();
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        let tmp = path.with_file_name(format!(".{name}.tmp"));
        ManifestWriter { path, tmp, seq: Arc::new(AtomicU64::new(seq0)) }
    }

    /// The target path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stamps the next sequence number and replaces the manifest
    /// atomically.
    pub fn write(&self, manifest: &mut Manifest) -> PResult<()> {
        manifest.seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        manifest.version = FORMAT_VERSION;
        let mut doc = manifest.to_json();
        doc.push('\n');
        std::fs::write(&self.tmp, doc)
            .and_then(|()| std::fs::rename(&self.tmp, &self.path))
            .map_err(|e| PersistError::io(&self.path, e))
    }
}

/// File names inside one phase persist directory.
#[derive(Debug, Clone)]
pub struct PhaseDir {
    /// The phase directory itself.
    pub root: PathBuf,
}

impl PhaseDir {
    /// Lays out (and creates) the directory for one search phase.
    pub fn create(root: impl Into<PathBuf>) -> PResult<PhaseDir> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| PersistError::io(&root, e))?;
        Ok(PhaseDir { root })
    }

    /// The log path.
    pub fn log(&self) -> PathBuf {
        self.root.join("log")
    }

    /// The log of `kind`'s segments, which the state log's tuples name.
    pub fn segments(&self, kind: Segment) -> PathBuf {
        self.root.join(match kind {
            Segment::Home => "home-segments",
            Segment::Remote => "remote-segments",
        })
    }

    /// The index path.
    pub fn idx(&self) -> PathBuf {
        self.root.join("idx")
    }

    /// The lock file path.
    pub fn lock(&self) -> PathBuf {
        self.root.join("lock")
    }

    /// The manifest path.
    pub fn manifest(&self) -> PathBuf {
        self.root.join("manifest.json")
    }

    /// Removes stale log/idx/manifest files — a sharded-era directory's
    /// `shard-NNN.*` included — for a fresh start (the lock is held by
    /// the caller and kept).
    pub fn wipe(&self) -> PResult<()> {
        for entry in std::fs::read_dir(&self.root).map_err(|e| PersistError::io(&self.root, e))? {
            let entry = entry.map_err(|e| PersistError::io(&self.root, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name == "lock" {
                continue;
            }
            std::fs::remove_file(entry.path()).map_err(|e| PersistError::io(entry.path(), e))?;
        }
        Ok(())
    }
}

/// A shared crash switch for the kill -9 differential harness: aborts
/// the whole process (no destructors, no flushes — as close to kill -9
/// as a test hook gets) once `remaining` decrements to zero. Decremented
/// once per newly inserted state.
#[derive(Debug, Clone, Default)]
pub struct CrashSwitch {
    remaining: Option<Arc<AtomicU64>>,
}

impl CrashSwitch {
    /// A switch that aborts after `n` new states. `None` never fires.
    pub fn after(n: Option<u64>) -> CrashSwitch {
        CrashSwitch { remaining: n.map(|n| Arc::new(AtomicU64::new(n))) }
    }

    /// Whether the switch is armed.
    pub fn armed(&self) -> bool {
        self.remaining.is_some()
    }

    /// Ticks the switch; aborts the process when the budget is spent.
    #[inline]
    pub fn tick(&self) {
        if let Some(rem) = &self.remaining {
            if rem.fetch_sub(1, Ordering::Relaxed) <= 1 {
                eprintln!("ccr: crash switch fired (simulated kill -9)");
                std::process::abort();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ccr-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn payloads() -> Vec<Vec<u8>> {
        (0..40u8).map(|i| (0..=i).map(|b| b.wrapping_mul(37)).collect()).collect()
    }

    fn filled_log(dir: &Path) -> (PathBuf, PathBuf, u64, u64) {
        let log = dir.join("log");
        let idx = dir.join("idx");
        let mut tier = LogTier::create(&log, 0).unwrap();
        for p in payloads() {
            tier.append(&p);
        }
        let (bytes, records) = tier.sync();
        tier.write_idx(&idx);
        assert!(tier.take_err().is_none());
        (log, idx, bytes, records)
    }

    #[test]
    fn append_sync_recover_round_trip() {
        let dir = tmp("roundtrip");
        let (log, idx, bytes, records) = filled_log(&dir);
        assert_eq!(records as usize, payloads().len());
        let mut seen: Vec<Vec<u8>> = Vec::new();
        let tier = LogTier::recover(&log, &idx, Some(bytes), 0, false, |_, payload| {
            seen.push(payload.expect("full scan carries payloads").to_vec());
        })
        .unwrap();
        assert_eq!(seen, payloads());
        assert_eq!(tier.records() as u64, records);
        // Payloads read back individually too (the spill read path).
        for (i, p) in payloads().iter().enumerate() {
            assert_eq!(tier.read_payload(i as u32).as_deref(), Some(p.as_slice()));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_recovers_readonly_and_compacts_at_the_next_checkpoint() {
        use std::io::Write;
        let dir = tmp("torn");
        let (log, idx, bytes, records) = filled_log(&dir);
        // Simulate a crash mid-append: garbage past the committed bytes.
        let mut f = OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(&[0xAB; 29]).unwrap();
        drop(f);
        let mut n = 0;
        let mut tier = LogTier::recover(&log, &idx, None, 0, false, |_, _| n += 1).unwrap();
        assert_eq!(n as u64, records);
        assert_eq!(tier.stats().torn_bytes, 29);
        // Recovery is read-only: the dead tail survives the open…
        assert_eq!(std::fs::metadata(&log).unwrap().len(), bytes + 29);
        assert_eq!(tier.dead_bytes(), 29);
        // …and the next checkpoint's sync compacts it away.
        let (committed, _) = tier.sync();
        assert_eq!(committed, bytes);
        assert_eq!(std::fs::metadata(&log).unwrap().len(), bytes);
        assert_eq!(tier.dead_bytes(), 0);
        assert_eq!(tier.stats().compacted_bytes, 29);
        assert!(tier.take_err().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_overwrite_the_dead_region_before_compaction() {
        use std::io::Write;
        let dir = tmp("overwrite");
        let (log, idx, bytes, records) = filled_log(&dir);
        // A long torn tail (larger than the records appended below).
        let mut f = OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(&[0xCD; 200]).unwrap();
        drop(f);
        let mut tier = LogTier::recover(&log, &idx, Some(bytes), 0, false, |_, _| {}).unwrap();
        assert_eq!(tier.stats().torn_bytes, 200);
        // New appends land at the live boundary, overwriting dead bytes.
        tier.append(b"fresh-payload");
        let (committed, recs) = tier.sync();
        assert_eq!(recs, records + 1);
        // Compaction trimmed the file to exactly the new live prefix.
        assert_eq!(std::fs::metadata(&log).unwrap().len(), committed);
        let reclaimed = tier.stats().compacted_bytes;
        assert_eq!(reclaimed, 200 - (RECORD_HEADER as u64 + 13));
        // The compacted log recovers cleanly, torn tail gone.
        let mut seen = Vec::new();
        let back = LogTier::recover(&log, &idx, Some(committed), 0, false, |_, p| {
            seen.push(p.unwrap().to_vec());
        })
        .unwrap();
        assert_eq!(seen.last(), Some(&b"fresh-payload".to_vec()));
        assert_eq!(back.stats().torn_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_inside_the_committed_region_fails_safe() {
        use std::io::{Seek, Write};
        let dir = tmp("corrupt");
        let (log, idx, bytes, _) = filled_log(&dir);
        let mut f = OpenOptions::new().write(true).open(&log).unwrap();
        f.seek(SeekFrom::Start(bytes / 2)).unwrap();
        f.write_all(&[0xFF]).unwrap();
        drop(f);
        let err = LogTier::recover(&log, &idx, Some(bytes), 0, false, |_, _| {})
            .expect_err("corruption must fail the open");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_shorter_than_the_manifest_fails_safe() {
        let dir = tmp("short");
        let (log, idx, bytes, _) = filled_log(&dir);
        OpenOptions::new().write(true).open(&log).unwrap().set_len(bytes - 3).unwrap();
        let err = LogTier::recover(&log, &idx, Some(bytes), 0, false, |_, _| {})
            .expect_err("a log shorter than its manifest must fail the open");
        assert!(err.to_string().contains("truncated below"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_log_or_index_of_another_version_is_refused() {
        use std::io::{Seek, Write};
        let dir = tmp("version");
        let (log, idx, bytes, _) = filled_log(&dir);
        for path in [&log, &idx] {
            let mut f = OpenOptions::new().write(true).open(path).unwrap();
            f.seek(SeekFrom::Start(8)).unwrap();
            f.write_all(&1u32.to_le_bytes()).unwrap();
        }
        assert!(read_idx(&idx, bytes).is_none(), "an index of version 1 is not trusted");
        let mut records = 0;
        let err = LogTier::recover(&log, &idx, Some(bytes), 0, false, |_, _| records += 1)
            .expect_err("a log of version 1 must be refused");
        assert!(err.to_string().contains("unsupported log format version 1"), "{err}");
        assert_eq!(records, 0, "nothing of it is decoded");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn idx_round_trip_and_staleness_rejection() {
        let dir = tmp("idx");
        let (log, idx, bytes, records) = filled_log(&dir);
        let recs = read_idx(&idx, bytes).expect("fresh idx reads back");
        assert_eq!(recs.len() as u64, records);
        // A stale idx (covered bytes disagree) is rejected, forcing the
        // full checksum scan.
        assert!(read_idx(&idx, bytes + 1).is_none());
        // A trusted-idx recovery (eviction mode) agrees with the scan.
        let mut hashes_scan = Vec::new();
        LogTier::recover(&log, &idx, Some(bytes), 0, false, |r, _| hashes_scan.push(r.hash))
            .unwrap();
        let mut hashes_idx = Vec::new();
        let tier = LogTier::recover(&log, &idx, Some(bytes), 1024, true, |r, payload| {
            assert!(payload.is_none(), "trusted idx reads no payloads");
            hashes_idx.push(r.hash);
        })
        .unwrap();
        assert_eq!(hashes_scan, hashes_idx);
        assert_eq!(tier.stats().idx_rebuilds, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lock_refuses_a_live_second_writer() {
        let dir = tmp("lock");
        let path = dir.join("lock");
        // A lock held by a live foreign process (pid 1 always exists) is
        // refused.
        std::fs::write(&path, "1\n").unwrap();
        let err = LockGuard::acquire(&path).expect_err("second writer must be refused");
        assert!(err.to_string().contains("holds the lock"), "{err}");
        // A stale lock (dead pid) is broken and re-acquired.
        std::fs::write(&path, "999999999\n").unwrap();
        let guard = LockGuard::acquire(&path).unwrap();
        drop(guard);
        assert!(!path.exists(), "dropping the guard releases the lock");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_round_trips_and_rejects_garbage() {
        let dir = tmp("manifest");
        let path = dir.join("manifest.json");
        let writer = ManifestWriter::create(&path, 7);
        let mut m = Manifest {
            kind: "parallel".to_string(),
            finished: true,
            outcome_name: Some("InvariantViolated".to_string()),
            outcome_detail: Some("two owners".to_string()),
            states: 123,
            transitions: 456,
            peak_frontier: 78,
            elapsed_ms: 9001,
            committed: vec![(16, 0), (300, 7)],
            evict: true,
            ..Manifest::default()
        };
        writer.write(&mut m).unwrap();
        assert_eq!(m.seq, 8, "writer stamps the next sequence number");
        let back = Manifest::read(&path).unwrap().expect("written manifest reads back");
        assert_eq!(back.seq, 8);
        assert_eq!(back.kind, m.kind);
        assert_eq!(back.outcome_name, m.outcome_name);
        assert_eq!(back.outcome_detail, m.outcome_detail);
        assert_eq!(back.states, m.states);
        assert_eq!(back.transitions, m.transitions);
        assert_eq!(back.committed, m.committed);
        assert!(back.finished && back.evict);
        assert!(Manifest::read(&dir.join("absent.json")).unwrap().is_none());
        std::fs::write(&path, "{not json").unwrap();
        let err = Manifest::read(&path).expect_err("garbage manifest must fail");
        assert!(err.to_string().contains("corrupt manifest"), "{err}");
        // Another format version is refused by its version, whatever else
        // the document holds.
        for old in 1..FORMAT_VERSION {
            let current = format!(r#""version":{FORMAT_VERSION}"#);
            let stale = m.to_json().replace(&current, &format!(r#""version":{old}"#));
            std::fs::write(&path, stale).unwrap();
            let err = Manifest::read(&path).expect_err("an older manifest must be refused");
            let refusal = format!("unsupported manifest format version {old}");
            assert!(err.to_string().contains(&refusal), "{err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn phase_dir_wipe_keeps_the_lock() {
        let dir = tmp("phasedir");
        let pd = PhaseDir::create(dir.join("phase")).unwrap();
        let _guard = LockGuard::acquire(pd.lock()).unwrap();
        let stale = [pd.log(), pd.manifest(), pd.root.join("shard-002.log")];
        for path in &stale {
            std::fs::write(path, b"stale").unwrap();
        }
        pd.wipe().unwrap();
        assert!(stale.iter().all(|path| !path.exists()));
        assert!(pd.lock().exists(), "wipe must not break the held lock");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
