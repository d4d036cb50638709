//! The visited-state store: an open-addressed hash table over encoded
//! states with arena-backed keys.
//!
//! States are stored by their canonical byte encodings. Hashing uses a
//! local FxHash-style multiply-xor hasher (fast on short byte strings, per
//! the Rust perf-book guidance) followed by a splitmix-style finalizer, so
//! the store adds no external dependency; a threaded search computes the
//! same 64-bit hash on its workers and hands it to the store.
//!
//! Three deliberate layout choices keep the constant factors down:
//!
//! * **Eight-byte probe slots.** A slot holds the high half of the key's
//!   hash (its *tag*) beside the key's dense index. The home slot is read
//!   off the tag, so growing the table rehashes nothing; a tag match is
//!   confirmed by comparing the full key bytes.
//! * **Single-probe insertion.** [`StateStore::insert`] walks the probe
//!   sequence once, returning the existing index or claiming the first
//!   empty slot — no separate `get` + `insert` double probe, and no
//!   `enc.to_vec()` allocation per *hit* the way a `HashMap<Vec<u8>, _>`
//!   key forces.
//! * **Arena-backed keys.** Key bytes live contiguously in one bump arena
//!   addressed by `(offset, len)` pairs, eliminating the per-key `Vec`
//!   header and allocator round-trip (~48 bytes of overhead per state in
//!   the old layout).
//!
//! The store tracks its memory footprint from the real capacities of its
//! buffers so searches can enforce a byte budget the way the paper's SPIN
//! runs enforced 64 MB.

use crate::persist::LogTier;
use std::hash::Hasher;

/// FxHash-style 64-bit hasher: multiply-rotate over 8-byte words.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuild = std::hash::BuildHasherDefault<FxHasher>;

/// Splitmix64 finalizer: spreads FxHash entropy into the low bits used for
/// slot probing.
#[inline]
pub(crate) fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Hashes an encoded state. Its high half is the store's tag: the home
/// slot, and the 32 bits a probe compares before any key bytes.
#[inline]
pub fn hash_encoded(enc: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(enc);
    mix(h.finish())
}

/// A probe slot nobody holds. Every held slot has an index below
/// `u32::MAX` in its low half, so no held slot is all ones.
const EMPTY: u64 = u64::MAX;
/// Arena-offset sentinel marking an entry whose key bytes were evicted
/// to the log tier. A legitimate offset of `u32::MAX` cannot occur:
/// eviction thresholds sit far below a 4 GB arena, and the store
/// debug-asserts against arena overflow long before that.
const EVICTED: u32 = u32::MAX;
/// Initial slot-table capacity (power of two).
const MIN_CAP: usize = 16;

/// A reserved byte region at the arena tail, opened by
/// [`StateStore::begin_insert`] and resolved by
/// [`StateStore::commit_insert`]: the engines encode a successor directly
/// into the slot, so a new state is written exactly once (commit keeps
/// the bytes in place) and a duplicate costs no copy at all (commit
/// rewinds the bump pointer).
#[derive(Debug)]
#[must_use = "an open slot must be resolved with commit_insert"]
pub struct ArenaSlot {
    start: usize,
}

/// A visited set mapping encoded states to dense indices (the index order
/// is discovery order, used by the progress checker to address states).
#[derive(Debug, Default)]
pub struct StateStore {
    /// The probe table: each slot is `EMPTY` or `tag << 32 | index`,
    /// where `tag` is the high half of the entry's hash and `index` its
    /// dense index. The home slot is the tag's low bits, so the table
    /// grows without rehashing a key, and eight bytes a slot are all a
    /// probe reads before it compares key bytes.
    slots: Vec<u64>,
    /// Dense index → `(arena offset, length)`.
    entries: Vec<(u32, u32)>,
    /// Bump arena holding every key's bytes back to back. Committed data
    /// occupies `arena[..data]`; the vector's length is a high-water mark
    /// that [`StateStore::begin_insert`] reservations reuse, so slot bytes
    /// are zero-initialized once per high-water byte, not once per
    /// reservation.
    arena: Vec<u8>,
    /// Logical length of committed arena data (the bump pointer).
    data: usize,
    len: u32,
    /// Optional disk tier: every new state is appended to its log, and
    /// when the tier's eviction threshold is crossed the arena is
    /// released wholesale — evicted entries keep their dense index and
    /// are compared against the log on a probe hit.
    tier: Option<Box<LogTier>>,
}

impl StateStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a disk tier. Callers attach either to an empty store
    /// (fresh run) or right after replaying that tier's log through
    /// [`StateStore::rebuild_insert`] (recovery — entry `i` must be
    /// record `i`).
    pub fn attach_tier(&mut self, tier: Box<LogTier>) {
        debug_assert_eq!(tier.records(), self.len());
        self.tier = Some(tier);
    }

    /// The attached disk tier, if any.
    pub fn tier(&self) -> Option<&LogTier> {
        self.tier.as_deref()
    }

    /// Mutable access to the attached disk tier, if any.
    pub fn tier_mut(&mut self) -> Option<&mut LogTier> {
        self.tier.as_deref_mut()
    }

    /// Inserts an encoded state. Returns `(index, true)` if newly inserted
    /// or `(existing index, false)` if already present.
    pub fn insert(&mut self, enc: &[u8]) -> (u32, bool) {
        self.insert_hashed(hash_encoded(enc), enc)
    }

    /// [`StateStore::insert`] with the hash precomputed by
    /// [`hash_encoded`] — a threaded search's workers hash each successor
    /// ahead of the sweep, which inserts by that value. With a disk tier
    /// attached, new states are appended to its log, and crossing the
    /// tier's eviction threshold releases the arena wholesale.
    pub fn insert_hashed(&mut self, hash: u64, enc: &[u8]) -> (u32, bool) {
        self.reserve_one();
        let slot = match self.probe(hash, |idx| self.stored_eq(idx, enc)) {
            Ok(idx) => return (idx, false),
            Err(slot) => slot,
        };
        let new_idx = self.claim(slot, hash);
        let off = self.data;
        debug_assert!(off + enc.len() <= u32::MAX as usize, "arena overflow");
        self.push_bytes(enc);
        self.entries.push((off as u32, enc.len() as u32));
        if let Some(tier) = self.tier.as_deref_mut() {
            tier.append(enc);
            let evict_at = tier.evict_at;
            if evict_at > 0 && self.data > 0 && self.approx_bytes() > evict_at {
                self.evict_arena();
            }
        }
        (new_idx, true)
    }

    /// Walks `hash`'s probe sequence: `Ok(index)` of the first entry
    /// whose tag matches and for which `eq` holds (the caller compares
    /// the full key bytes), or `Err(slot)` of the first empty slot. The
    /// table must have one.
    #[inline]
    fn probe(&self, hash: u64, eq: impl Fn(u32) -> bool) -> Result<u32, usize> {
        let tag = hash >> 32;
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                return Err(i);
            }
            if slot >> 32 == tag && eq(slot as u32) {
                return Ok(slot as u32);
            }
            i = (i + 1) & mask;
        }
    }

    /// Gives empty slot `slot` to a new entry with `hash` and returns the
    /// entry's dense index; the caller records its bytes.
    #[inline]
    fn claim(&mut self, slot: usize, hash: u64) -> u32 {
        let idx = self.len;
        self.slots[slot] = (hash >> 32) << 32 | u64::from(idx);
        self.len += 1;
        idx
    }

    /// Grows the table if one more entry would pass its 7/8 load factor.
    #[inline]
    fn reserve_one(&mut self) {
        if (self.len as usize + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
    }

    /// Begins a zero-copy insert: reserves `max_len` writable bytes at
    /// the arena tail and returns the slot handle. The caller encodes the
    /// candidate state directly into [`StateStore::slot_buf`] and then
    /// resolves the slot with [`StateStore::commit_insert`] — exactly one
    /// `begin_insert` may be outstanding at a time, and no other store
    /// method may run in between.
    pub fn begin_insert(&mut self, max_len: usize) -> ArenaSlot {
        let start = self.data;
        if self.arena.len() < start + max_len {
            // Raise the high-water mark; bytes zeroed here are reused by
            // every later reservation, so the cost amortizes away.
            self.arena.resize(start + max_len, 0);
        }
        ArenaSlot { start }
    }

    /// The writable byte region of an open slot.
    #[inline]
    pub fn slot_buf(&mut self, slot: &ArenaSlot) -> &mut [u8] {
        &mut self.arena[slot.start..]
    }

    /// Appends `bytes` at the bump pointer, reusing high-water capacity.
    fn push_bytes(&mut self, bytes: &[u8]) {
        let end = self.data + bytes.len();
        if self.arena.len() < end {
            self.arena.resize(end, 0);
        }
        self.arena[self.data..end].copy_from_slice(bytes);
        self.data = end;
    }

    /// Resolves an open slot whose first `written` bytes now hold the
    /// candidate's canonical encoding: hashes the in-arena bytes, probes,
    /// and either commits the slot as a new entry (no copy — the encode
    /// *was* the arena write) or rolls the bump pointer back to where
    /// [`StateStore::begin_insert`] found it, leaving the arena
    /// byte-identical. Returns `(index, is_new)` like
    /// [`StateStore::insert`].
    pub fn commit_insert(&mut self, slot: ArenaSlot, written: usize) -> (u32, bool) {
        let start = slot.start;
        debug_assert_eq!(start, self.data, "slots must be resolved in open order");
        let hash = hash_encoded(&self.arena[start..start + written]);
        self.reserve_one();
        let slot = match self.probe(hash, |idx| self.slot_eq(idx, start, written)) {
            // Rollback: the bump pointer never moved, so the committed
            // arena is byte-identical to the moment the slot was opened.
            Ok(idx) => return (idx, false),
            Err(slot) => slot,
        };
        let new_idx = self.claim(slot, hash);
        debug_assert!(start + written <= u32::MAX as usize, "arena overflow");
        if let Some(tier) = self.tier.as_deref_mut() {
            tier.append(&self.arena[start..start + written]);
        }
        // Commit: advance the bump pointer past the slot — the encode was
        // the arena write.
        self.data = start + written;
        self.entries.push((start as u32, written as u32));
        if let Some(tier) = self.tier.as_deref() {
            let evict_at = tier.evict_at;
            if evict_at > 0 && self.data > 0 && self.approx_bytes() > evict_at {
                self.evict_arena();
            }
        }
        (new_idx, true)
    }

    /// Whether stored entry `idx` equals the open slot's bytes at
    /// `[start, start + written)`. Committed entries always live strictly
    /// before `start`, so the comparison splits the arena.
    fn slot_eq(&self, idx: u32, start: usize, written: usize) -> bool {
        let (off, len) = self.entries[idx as usize];
        if len as usize != written {
            return false;
        }
        if off != EVICTED {
            let (head, tail) = self.arena.split_at(start);
            return head[off as usize..off as usize + len as usize] == tail[..written];
        }
        self.tier
            .as_deref()
            .expect("evicted entry without a tier")
            .payload_eq(idx, &self.arena[start..start + written])
    }

    /// Whether stored entry `idx` equals `enc`, consulting the disk
    /// tier for evicted entries.
    fn stored_eq(&self, idx: u32, enc: &[u8]) -> bool {
        let (off, len) = self.entries[idx as usize];
        if len as usize != enc.len() {
            return false;
        }
        if off != EVICTED {
            return &self.arena[off as usize..off as usize + len as usize] == enc;
        }
        self.tier.as_deref().expect("evicted entry without a tier").payload_eq(idx, enc)
    }

    /// Releases the whole arena to the disk tier: every entry keeps its
    /// dense index and length but its offset becomes [`EVICTED`], so
    /// later probe hits compare against the log instead.
    fn evict_arena(&mut self) {
        let released = self.data as u64;
        for e in &mut self.entries {
            e.0 = EVICTED;
        }
        self.arena = Vec::new();
        self.data = 0;
        if let Some(tier) = self.tier.as_deref_mut() {
            let stats = tier.stats_mut();
            stats.evictions += 1;
            stats.evicted_bytes += released;
        }
    }

    /// Re-inserts one recovered record during log replay: claims the
    /// first empty slot on `hash`'s probe path with *no* duplicate
    /// check (log records are distinct by construction — each was a new
    /// insert when appended). `payload == None` rebuilds an
    /// already-evicted entry from the index alone.
    pub fn rebuild_insert(&mut self, hash: u64, payload: Option<&[u8]>, len: u32) {
        self.reserve_one();
        let Err(slot) = self.probe(hash, |_| false) else { unreachable!("no entry is equal") };
        self.claim(slot, hash);
        match payload {
            Some(p) => {
                debug_assert_eq!(p.len(), len as usize);
                let off = self.data;
                self.push_bytes(p);
                self.entries.push((off as u32, len));
            }
            None => self.entries.push((EVICTED, len)),
        }
    }

    /// Looks up an encoded state.
    pub fn get(&self, enc: &[u8]) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(hash_encoded(enc), |idx| self.stored_eq(idx, enc)).ok()
    }

    /// The encoded bytes of state `idx`, or `None` when the entry was
    /// evicted to the disk tier ([`StateStore::read_entry`] reads those
    /// back).
    pub fn key_bytes(&self, idx: u32) -> Option<&[u8]> {
        if idx >= self.len {
            return None;
        }
        let (off, len) = self.entries[idx as usize];
        if off == EVICTED {
            return None;
        }
        Some(&self.arena[off as usize..off as usize + len as usize])
    }

    /// The encoded bytes of state `idx` as an owned copy, read back from
    /// the disk tier when the entry was evicted. `None` out of range or
    /// on a tier read error (which also sets the tier's sticky error).
    pub fn read_entry(&self, idx: u32) -> Option<Vec<u8>> {
        if idx >= self.len {
            return None;
        }
        let (off, len) = self.entries[idx as usize];
        if off != EVICTED {
            return Some(self.arena[off as usize..off as usize + len as usize].to_vec());
        }
        self.tier.as_deref()?.read_payload(idx)
    }

    /// Doubles the table. Every slot carries the tag its home slot is
    /// read off, so no key is hashed again.
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(MIN_CAP);
        let old_slots = std::mem::replace(&mut self.slots, vec![EMPTY; new_cap]);
        let mask = new_cap - 1;
        for slot in old_slots.into_iter().filter(|&slot| slot != EMPTY) {
            let mut i = (slot >> 32) as usize & mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// Number of distinct states stored.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if no states are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Memory footprint in bytes, computed from the buffers actually
    /// allocated (arena + slot table + entry table); tracks the real
    /// allocation within 2× (asserted by a unit test).
    pub fn approx_bytes(&self) -> usize {
        self.data
            + self.slots.len() * std::mem::size_of::<u64>()
            + self.entries.len() * std::mem::size_of::<(u32, u32)>()
            + std::mem::size_of::<Self>()
            + self.tier.as_deref().map_or(0, LogTier::mem_bytes)
    }

    /// Probe displacement (distance from the hash's home slot, in slots)
    /// of every occupied slot, in table order. Computed post-hoc by
    /// rescanning the table, so histogramming probe lengths costs the
    /// search's hot path nothing.
    pub fn probe_displacements(&self) -> impl Iterator<Item = u64> + '_ {
        let mask = self.slots.len().wrapping_sub(1);
        self.slots.iter().enumerate().filter(|(_, &slot)| slot != EMPTY).map(move |(i, &slot)| {
            let home = (slot >> 32) as usize & mask;
            (i.wrapping_sub(home) & mask) as u64
        })
    }

    /// Encoded length in bytes of every stored state, in insertion order.
    pub fn entry_lengths(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|&(_, len)| u64::from(len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fxhash_differs_on_small_changes() {
        let mut a = FxHasher::default();
        a.write(b"hello world 1234");
        let mut b = FxHasher::default();
        b.write(b"hello world 1235");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fxhash_handles_remainders() {
        let mut a = FxHasher::default();
        a.write(b"abc");
        let mut b = FxHasher::default();
        b.write(b"abd");
        assert_ne!(a.finish(), b.finish());
        // Empty write is fine.
        let mut c = FxHasher::default();
        c.write(b"");
        let _ = c.finish();
    }

    #[test]
    fn store_assigns_dense_indices() {
        let mut st = StateStore::new();
        let (i0, new0) = st.insert(b"s0");
        let (i1, new1) = st.insert(b"s1");
        let (i0b, new0b) = st.insert(b"s0");
        assert!(new0 && new1 && !new0b);
        assert_eq!(i0, 0);
        assert_eq!(i1, 1);
        assert_eq!(i0b, 0);
        assert_eq!(st.len(), 2);
        assert_eq!(st.get(b"s1"), Some(1));
        assert_eq!(st.get(b"s2"), None);
        assert!(st.approx_bytes() > 0);
    }

    #[test]
    fn store_survives_growth_and_keeps_indices() {
        let mut st = StateStore::new();
        let keys: Vec<Vec<u8>> = (0u32..10_000).map(|i| i.to_le_bytes().to_vec()).collect();
        for (i, k) in keys.iter().enumerate() {
            let (idx, is_new) = st.insert(k);
            assert!(is_new);
            assert_eq!(idx as usize, i);
        }
        assert_eq!(st.len(), keys.len());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(st.get(k), Some(i as u32), "key {i}");
            let (idx, is_new) = st.insert(k);
            assert!(!is_new);
            assert_eq!(idx as usize, i);
        }
    }

    #[test]
    fn tag_collisions_compare_key_bytes_and_survive_growth() {
        // Two hashes with one high half: every slot a probe meets carries
        // the tag it looks for, so only the key bytes tell entries apart,
        // and every entry's home slot is the same through four doublings.
        let mut st = StateStore::new();
        let hash = |i: usize| 0xDEAD_BEEF_0000_0000 | (i % 2) as u64;
        let keys: Vec<[u8; 4]> = (0u32..200).map(u32::to_le_bytes).collect();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(st.insert_hashed(hash(i), k), (i as u32, true), "key {i}");
        }
        assert_eq!(st.slots.len(), 256, "the table grew from 16 slots");
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(st.insert_hashed(hash(i), k), (i as u32, false), "key {i}");
            assert_eq!(st.key_bytes(i as u32), Some(&k[..]));
        }
        assert_eq!(st.insert_hashed(hash(0), b"fresh"), (200, true));
        // A replay of the same hashes rebuilds the same table.
        let mut rebuilt = StateStore::new();
        for (i, k) in keys.iter().enumerate() {
            rebuilt.rebuild_insert(hash(i), Some(k), 4);
        }
        rebuilt.rebuild_insert(hash(0), Some(b"fresh"), 5);
        assert_eq!(rebuilt.slots, st.slots);
    }

    #[test]
    fn store_handles_variable_length_and_prefix_keys() {
        let mut st = StateStore::new();
        // Keys that are prefixes of each other must not be conflated by the
        // arena layout.
        let (a, _) = st.insert(b"abc");
        let (b, _) = st.insert(b"abcd");
        let (c, _) = st.insert(b"ab");
        let (d, _) = st.insert(b"");
        assert_eq!([a, b, c, d], [0, 1, 2, 3]);
        assert_eq!(st.get(b"abc"), Some(0));
        assert_eq!(st.get(b"abcd"), Some(1));
        assert_eq!(st.get(b"ab"), Some(2));
        assert_eq!(st.get(b""), Some(3));
        assert_eq!(st.len(), 4);
    }

    #[test]
    fn byte_accounting_tracks_actual_allocation_within_2x() {
        let mut st = StateStore::new();
        for i in 0u32..50_000 {
            let mut k = [0u8; 24];
            k[..4].copy_from_slice(&i.to_le_bytes());
            k[4..8].copy_from_slice(&i.wrapping_mul(2654435761).to_le_bytes());
            st.insert(&k);
        }
        // The real heap allocation behind the store, from capacities.
        let actual = st.arena.capacity()
            + st.slots.capacity() * std::mem::size_of::<u64>()
            + st.entries.capacity() * std::mem::size_of::<(u32, u32)>()
            + std::mem::size_of::<StateStore>();
        let approx = st.approx_bytes();
        assert!(
            approx * 2 >= actual && actual * 2 >= approx,
            "approx_bytes {approx} vs actual allocation {actual}"
        );
        // And the per-state overhead beyond the key bytes stays small: the
        // arena layout must beat the old HashMap<Vec<u8>, u32> entry
        // (~48 bytes of header + bucket per state).
        let overhead = (approx - st.arena.len()) / st.len();
        assert!(overhead < 48, "per-state overhead {overhead} >= 48 bytes");
    }

    #[test]
    fn hashed_insert_agrees_with_plain_insert() {
        let mut a = StateStore::new();
        let mut b = StateStore::new();
        for i in 0u32..1000 {
            let k = i.to_le_bytes();
            let ra = a.insert(&k);
            let rb = b.insert_hashed(hash_encoded(&k), &k);
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn slot_inserts_agree_with_plain_inserts() {
        let mut plain = StateStore::new();
        let mut slotted = StateStore::new();
        for i in 0u32..5000 {
            let k = (i % 700).to_le_bytes();
            let expected = plain.insert(&k);
            let slot = slotted.begin_insert(16);
            slotted.slot_buf(&slot)[..4].copy_from_slice(&k);
            let got = slotted.commit_insert(slot, 4);
            assert_eq!(expected, got, "key {i}");
        }
        assert_eq!(plain.len(), slotted.len());
        assert_eq!(plain.approx_bytes(), slotted.approx_bytes());
        for i in 0..700u32 {
            assert_eq!(plain.key_bytes(i), slotted.key_bytes(i));
        }
    }

    #[test]
    fn slot_rollback_leaves_arena_byte_identical() {
        let mut st = StateStore::new();
        st.insert(b"alpha");
        st.insert(b"beta");
        let data_before = st.arena[..st.data].to_vec();
        let bytes_before = st.approx_bytes();
        // Duplicate probe: the slot is rolled back exactly — the
        // committed arena region is byte-identical.
        let slot = st.begin_insert(32);
        st.slot_buf(&slot)[..5].copy_from_slice(b"alpha");
        let (idx, is_new) = st.commit_insert(slot, 5);
        assert_eq!((idx, is_new), (0, false));
        assert_eq!(st.arena[..st.data], data_before);
        assert_eq!(st.approx_bytes(), bytes_before);
        // New state: only the written prefix of the reservation commits.
        let slot = st.begin_insert(32);
        st.slot_buf(&slot)[..5].copy_from_slice(b"gamma");
        let (idx, is_new) = st.commit_insert(slot, 5);
        assert_eq!((idx, is_new), (2, true));
        assert_eq!(&st.arena[data_before.len()..st.data], b"gamma");
    }

    #[test]
    fn shape_iterators_cover_every_entry() {
        let mut store = StateStore::new();
        assert_eq!(store.probe_displacements().count(), 0);
        assert_eq!(store.entry_lengths().count(), 0);
        for i in 0u32..500 {
            // Variable-length keys: 4 or 8 bytes.
            if i % 2 == 0 {
                store.insert(&i.to_le_bytes());
            } else {
                store.insert(&u64::from(i).to_le_bytes());
            }
        }
        assert_eq!(store.probe_displacements().count(), 500);
        assert_eq!(store.entry_lengths().count(), 500);
        assert_eq!(store.entry_lengths().filter(|&l| l == 4).count(), 250);
        assert_eq!(store.entry_lengths().filter(|&l| l == 8).count(), 250);
        // Displacements are small for a healthy table (load factor 7/8).
        assert!(store.probe_displacements().all(|d| d < store.len() as u64));
    }
}
