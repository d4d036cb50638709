//! The visited-state store: [`StateStore`], an open-addressed hash table
//! over byte keys, and [`Visited`], the sweep's visited set built from
//! three of them — a state stored as the tuple of its key's interned
//! segments.
//!
//! Keys are hashed with the workspace's FxHash-style multiply-xor hasher
//! (`ccr_core::hash`: fast on short byte strings, per the Rust perf-book
//! guidance) followed by a splitmix-style finalizer, so the store adds no
//! external dependency; a threaded search computes the same 64-bit hashes
//! of segments on its workers and hands them to the sweep.
//!
//! Four deliberate layout choices keep a [`StateStore`]'s constant
//! factors down:
//!
//! * **Eight-byte probe slots.** A slot holds the high half of the key's
//!   hash (its *tag*) beside the key's dense index. The home slot is read
//!   off the tag, so growing the table rehashes nothing; a tag match is
//!   confirmed by comparing the full key bytes.
//! * **Single-probe insertion.** [`StateStore::insert`] walks the probe
//!   sequence once, returning the existing index or claiming the first
//!   empty slot — no separate `get` + `insert` double probe, and no
//!   `enc.to_vec()` allocation per *hit* the way a `HashMap<Vec<u8>, _>`
//!   key forces. Only a new entry grows the table.
//! * **Eight-byte entries, short keys inline.** An entry is one eight-byte
//!   cell: a key of at most seven bytes lives in it, its length in the
//!   last byte, and a probe hit on it compares the cell without reading
//!   the arena. A longer key lives in one bump arena, its cell holding a
//!   32-bit offset and a 24-bit length under a marker byte — no per-key
//!   `Vec` header and allocator round-trip (~48 bytes of overhead per
//!   state in the old layout). A visited state's tuple of segment ids is
//!   about five bytes, so it costs one entry and one probe slot. A store
//!   with a disk tier keeps every key in the arena, which is what it
//!   evicts.
//! * **Growth in place.** Doubling the table resizes the slot vector —
//!   the allocator moves a large block's pages rather than copying them —
//!   and re-places the old entries within it, so the store never holds
//!   two tables at once.
//!
//! The store tracks its memory footprint from the real capacities of its
//! buffers so searches can enforce a byte budget the way the paper's SPIN
//! runs enforced 64 MB. Its limits — arena offsets of 32 bits, key
//! lengths of 24 bits and at most 2^32 − 1 entries — are checked on
//! every insert, in release builds too, and a store past one fails with a
//! message naming it.

use crate::persist::LogTier;
use ccr_core::encode::{Segment, Sink};
use ccr_core::hash::hash_bytes;
pub use ccr_core::hash::{FxBuild, FxHasher};
use ccr_runtime::{Origin, TransitionSystem};
use std::sync::Mutex;

/// Hashes an encoded state. Its high half is the store's tag: the home
/// slot, and the 32 bits a probe compares before any key bytes.
#[inline]
pub fn hash_encoded(enc: &[u8]) -> u64 {
    hash_bytes(enc)
}

/// A probe slot nobody holds. Every held slot has an index below
/// `u32::MAX` in its low half, so no held slot is all ones.
const EMPTY: u64 = u64::MAX;
/// Arena-offset sentinel marking an entry whose key bytes were evicted
/// to the log tier. No stored key has this offset: [`Cell::arena`]
/// refuses it.
const EVICTED: u32 = u32::MAX;
/// Initial slot-table capacity (power of two).
const MIN_CAP: usize = 16;
/// The longest key an entry holds inline.
const INLINE_MAX: usize = 7;
/// The last byte of an entry whose key is in the arena; an inline
/// entry's last byte is its key's length, at most [`INLINE_MAX`].
const ARENA: u8 = 0xFF;
/// The longest key an arena entry can name: its length has 24 bits.
const ARENA_LEN_MAX: usize = (1 << 24) - 1;

/// A [`StateStore`] entry: a key's bytes, or where they are, in eight
/// bytes.
///
/// * **Inline:** bytes `0..7` hold a key of at most [`INLINE_MAX`] bytes,
///   zero-padded, and byte 7 its length — so two inline cells are equal
///   exactly when their keys are.
/// * **Arena:** byte 7 is [`ARENA`], bytes `0..4` the key's arena offset
///   ([`EVICTED`] once the arena went to the disk tier) and bytes `4..7`
///   its length, both little-endian.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Cell([u8; 8]);

/// Where a [`Cell`]'s key is.
#[derive(Debug, PartialEq, Eq)]
enum Stored<'a> {
    /// In the cell.
    Inline(&'a [u8]),
    /// At `off` in the arena, `len` bytes.
    Arena { off: usize, len: usize },
    /// In the disk tier's log, `len` bytes.
    Evicted(usize),
}

impl Cell {
    /// The inline cell of `key`, if it is short enough to have one.
    #[inline]
    fn inline(key: &[u8]) -> Option<Cell> {
        (key.len() <= INLINE_MAX).then(|| {
            let mut cell = [0; 8];
            cell[..key.len()].copy_from_slice(key);
            cell[7] = key.len() as u8;
            Cell(cell)
        })
    }

    /// The cell of a `len`-byte key at `off` in the arena. Panics past
    /// the store's limits: an offset must fit in 32 bits (and not be
    /// [`EVICTED`]), a length in 24.
    fn arena(off: usize, len: usize) -> Cell {
        assert!(
            off < EVICTED as usize,
            "state store limit: arena offset {off} does not fit in 32 bits (the arena passed 4 GiB)"
        );
        Cell::pack(off as u32, len)
    }

    /// The cell of a `len`-byte key evicted to the disk tier.
    fn evicted(len: usize) -> Cell {
        Cell::pack(EVICTED, len)
    }

    fn pack(off: u32, len: usize) -> Cell {
        assert!(
            len <= ARENA_LEN_MAX,
            "state store limit: a key of {len} bytes is longer than 2^24 - 1, what an entry can name"
        );
        let mut cell = [0; 8];
        cell[..4].copy_from_slice(&off.to_le_bytes());
        cell[4..7].copy_from_slice(&(len as u32).to_le_bytes()[..3]);
        cell[7] = ARENA;
        Cell(cell)
    }

    /// Where the key is.
    #[inline]
    fn stored(&self) -> Stored<'_> {
        let c = &self.0;
        if c[7] != ARENA {
            return Stored::Inline(&c[..c[7] as usize]);
        }
        let len = u32::from_le_bytes([c[4], c[5], c[6], 0]) as usize;
        match u32::from_le_bytes([c[0], c[1], c[2], c[3]]) {
            EVICTED => Stored::Evicted(len),
            off => Stored::Arena { off: off as usize, len },
        }
    }

    /// The key's length in bytes.
    fn key_len(&self) -> usize {
        match self.stored() {
            Stored::Inline(key) => key.len(),
            Stored::Arena { len, .. } | Stored::Evicted(len) => len,
        }
    }
}

/// One bit per slot of a table being doubled in place: set while the
/// slot holds an entry not yet re-placed ([`StateStore::grow`]). Slots
/// past the bits are never pending.
struct Pending(Vec<u64>);

impl Pending {
    /// Every held slot of `slots` pending.
    fn held(slots: &[u64]) -> Pending {
        let mut bits = vec![0u64; slots.len().div_ceil(64)];
        for (i, &slot) in slots.iter().enumerate() {
            if slot != EMPTY {
                bits[i / 64] |= 1 << (i % 64);
            }
        }
        Pending(bits)
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        self.0.get(i / 64).is_some_and(|&word| word >> (i % 64) & 1 == 1)
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }
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
    /// Dense index → the key, inline, or where it is ([`Cell`]).
    entries: Vec<Cell>,
    /// Bump arena holding the bytes of every key not inline, back to
    /// back. Committed data occupies `arena[..data]`; the vector's length
    /// is a high-water mark, so bytes are zero-initialized once per
    /// high-water byte.
    arena: Vec<u8>,
    /// Logical length of committed arena data (the bump pointer).
    data: usize,
    len: u32,
    /// The longest key the arena took so far.
    widest: u32,
    /// Optional disk tier: every new state is appended to its log, and
    /// when the tier's eviction threshold is crossed the arena is
    /// released wholesale — evicted entries keep their dense index and
    /// are compared against the log on a probe hit. A store with a tier
    /// keeps every key in the arena, so the threshold counts them all.
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
        if self.slots.is_empty() {
            self.grow();
        }
        let inline = Cell::inline(enc);
        let slot = match self.probe(hash, |idx| self.stored_eq(idx, enc, inline)) {
            Ok(idx) => return (idx, false),
            Err(slot) => slot,
        };
        // Only a new entry grows the table, so its size is a function of
        // the entries alone, whatever lookups found in between.
        let slot = if self.full() {
            self.grow();
            self.empty_slot(hash)
        } else {
            slot
        };
        let new_idx = self.claim(slot, hash);
        match inline {
            Some(cell) if self.tier.is_none() => self.entries.push(cell),
            _ => self.push_arena(enc),
        }
        if let Some(tier) = self.tier.as_deref_mut() {
            tier.append(enc);
            // The arena is the one thing eviction frees: the slots, the
            // entries and the tier's offsets stay whatever the budget.
            if tier.evict_at > 0 && self.data > tier.evict_at {
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
    /// entry's dense index; the caller records its key. Panics when the
    /// store holds `u32::MAX` entries already: an index of all ones would
    /// read as an empty slot.
    #[inline]
    fn claim(&mut self, slot: usize, hash: u64) -> u32 {
        let idx = self.len;
        assert!(idx < u32::MAX, "state store limit: 2^32 - 1 entries (32-bit state indices)");
        self.slots[slot] = (hash >> 32) << 32 | u64::from(idx);
        self.len += 1;
        idx
    }

    /// Whether one more entry would pass the table's 7/8 load factor.
    #[inline]
    fn full(&self) -> bool {
        (self.len as usize + 1) * 8 > self.slots.len() * 7
    }

    /// The first empty slot on `hash`'s probe sequence.
    #[inline]
    fn empty_slot(&self, hash: u64) -> usize {
        let Err(slot) = self.probe(hash, |_| false) else { unreachable!("no entry is equal") };
        slot
    }

    /// Appends an entry whose key `bytes` go to the arena's bump pointer,
    /// reusing high-water capacity.
    fn push_arena(&mut self, bytes: &[u8]) {
        let cell = Cell::arena(self.data, bytes.len());
        self.widest = self.widest.max(bytes.len() as u32);
        let end = self.data + bytes.len();
        if self.arena.len() < end {
            self.arena.resize(end, 0);
        }
        self.arena[self.data..end].copy_from_slice(bytes);
        self.data = end;
        self.entries.push(cell);
    }

    /// Whether stored entry `idx` equals `enc`, whose inline cell is
    /// `inline`, consulting the disk tier for evicted entries.
    #[inline]
    fn stored_eq(&self, idx: u32, enc: &[u8], inline: Option<Cell>) -> bool {
        let cell = self.entries[idx as usize];
        match cell.stored() {
            Stored::Inline(_) => Some(cell) == inline,
            Stored::Arena { off, len } => len == enc.len() && &self.arena[off..off + len] == enc,
            Stored::Evicted(len) => {
                let tier = self.tier.as_deref().expect("evicted entry without a tier");
                len == enc.len() && tier.payload_eq(idx, enc)
            }
        }
    }

    /// Releases the whole arena to the disk tier: every arena entry keeps
    /// its dense index and length but becomes evicted, so later probe
    /// hits compare against the log instead.
    fn evict_arena(&mut self) {
        let released = self.data as u64;
        for cell in &mut self.entries {
            if let Stored::Arena { len, .. } = cell.stored() {
                *cell = Cell::evicted(len);
            }
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
    /// insert when appended). The key goes to the arena, as every key of
    /// a store with a tier does; with `keep == false` the entry is
    /// rebuilt as already evicted: its bytes stay in the log.
    pub fn rebuild_insert(&mut self, hash: u64, enc: &[u8], keep: bool) {
        if self.full() {
            self.grow();
        }
        let slot = self.empty_slot(hash);
        self.claim(slot, hash);
        if keep {
            self.push_arena(enc);
        } else {
            self.entries.push(Cell::evicted(enc.len()));
        }
    }

    /// Looks up an encoded state.
    pub fn get(&self, enc: &[u8]) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let inline = Cell::inline(enc);
        self.probe(hash_encoded(enc), |idx| self.stored_eq(idx, enc, inline)).ok()
    }

    /// The encoded bytes of state `idx`, or `None` when the entry was
    /// evicted to the disk tier ([`StateStore::read_entry`] reads those
    /// back).
    pub fn key_bytes(&self, idx: u32) -> Option<&[u8]> {
        match self.entries.get(idx as usize)?.stored() {
            Stored::Inline(key) => Some(key),
            Stored::Arena { off, len } => Some(&self.arena[off..off + len]),
            Stored::Evicted(_) => None,
        }
    }

    /// The encoded bytes of state `idx` as an owned copy, read back from
    /// the disk tier when the entry was evicted. `None` out of range or
    /// on a tier read error (which also sets the tier's sticky error).
    pub fn read_entry(&self, idx: u32) -> Option<Vec<u8>> {
        match self.entries.get(idx as usize)?.stored() {
            Stored::Evicted(len) => self.tier.as_deref()?.read_payload(idx, len as u32),
            _ => self.key_bytes(idx).map(<[u8]>::to_vec),
        }
    }

    /// Doubles the table in place. The slot vector is resized to twice
    /// its length — the allocator moves a large block's pages rather than
    /// copying them — and the entries of the old half are re-placed in
    /// one pass, each at the first slot on its new probe path that is
    /// empty or still *pending* (holds an entry not yet re-placed): into
    /// an empty slot it moves, with a pending one it swaps and the pass
    /// goes on placing the entry that was there (hashbrown's in-place
    /// rehash). A placed entry never moves again and every slot before it
    /// on its path was placed when it was, so afterwards every entry's
    /// probe path crosses only placed entries. Every slot carries the
    /// tag its home slot is read off, so no key is hashed again.
    fn grow(&mut self) {
        let old_cap = self.slots.len();
        let new_cap = (old_cap * 2).max(MIN_CAP);
        self.slots.reserve_exact(new_cap - old_cap);
        self.slots.resize(new_cap, EMPTY);
        let mask = new_cap - 1;
        let mut pending = Pending::held(&self.slots[..old_cap]);
        for i in 0..old_cap {
            while pending.get(i) {
                let entry = self.slots[i];
                let mut j = (entry >> 32) as usize & mask;
                while self.slots[j] != EMPTY && !pending.get(j) {
                    j = (j + 1) & mask;
                }
                if j == i {
                    pending.clear(i);
                } else if self.slots[j] == EMPTY {
                    self.slots[j] = entry;
                    self.slots[i] = EMPTY;
                    pending.clear(i);
                } else {
                    self.slots.swap(i, j);
                    pending.clear(j);
                }
            }
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
            + self.entries.len() * std::mem::size_of::<Cell>()
            + std::mem::size_of::<Self>()
            + self.tier.as_deref().map_or(0, LogTier::mem_bytes)
    }

    /// The most bytes `k` more entries can add to
    /// [`StateStore::approx_bytes`], their keys no longer than the
    /// longest the arena took so far: every doubling of the probe table
    /// they take it through, their entries, their keys and their disk
    /// tier offsets. What a byte budget is held to before the next
    /// insert.
    pub(crate) fn headroom(&self, k: usize) -> usize {
        let slot = std::mem::size_of::<u64>();
        let mut cap = self.slots.len();
        let mut growth = 0;
        while (self.len as usize + k) * 8 > cap * 7 {
            let next = (cap * 2).max(MIN_CAP);
            growth += (next - cap) * slot;
            cap = next;
        }
        let tier = if self.tier.is_some() { slot } else { 0 };
        growth + k * (std::mem::size_of::<Cell>() + self.widest as usize + tier)
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
        self.entries.iter().map(|cell| cell.key_len() as u64)
    }
}

/// The sweep's visited set: every state is stored as the tuple of its
/// key's segments ([`Segment`]), each segment interned once in the table
/// of its kind — one for home segments, one for remote segments whatever
/// slot they fill — and the tuple written as the segments' ids in LEB128,
/// back to back. A key is the concatenation of its segments, segments are
/// self-delimiting and interning is injective, so two states have equal
/// tuples exactly when they have equal keys: every index, count and
/// verdict is the one a store of whole keys gives. What it saves is the
/// bytes: a few thousand distinct segments make up hundreds of thousands
/// of states, and a tuple is a few bytes where a key is tens
/// (DESIGN.md, "The stored key: a tuple of interned segments").
///
/// Three [`StateStore`]s hold it: the two segment tables and the tuples,
/// whose dense indices are the states'. A state reads back by
/// concatenating its segments ([`Visited::expand_into`]).
#[derive(Debug, Default)]
pub struct Visited {
    /// The segment tables, by [`table`] of their kind.
    segments: [StateStore; 2],
    /// Per stored state, its segments' ids.
    tuples: StateStore,
    /// The kind of the segment at each position of a key: one layout for
    /// every state of a system, learnt from the first state stored (or
    /// [`Visited::learn`]).
    layout: Vec<Segment>,
    /// The segment ids of the state being expanded, when its tuple is in
    /// memory ([`Visited::expanding`]): what [`Sink::reuse`] hands out.
    parent: Vec<u32>,
    /// The segment being interned, the tuple being built, and how many
    /// segments it has.
    seg: Vec<u8>,
    tuple: Vec<u8>,
    pos: usize,
}

/// The index of `kind`'s table in [`Visited::segments`].
#[inline]
fn table(kind: Segment) -> usize {
    match kind {
        Segment::Home => 0,
        Segment::Remote => 1,
    }
}

/// Reads one LEB128 id off the front of `bytes`.
#[inline]
pub(crate) fn next_id(bytes: &mut &[u8]) -> Option<u32> {
    let (&first, rest) = bytes.split_first()?;
    *bytes = rest;
    if first < 0x80 {
        return Some(u32::from(first));
    }
    let mut id = u32::from(first & 0x7F);
    for shift in [7, 14, 21, 28] {
        let (&b, rest) = bytes.split_first()?;
        *bytes = rest;
        id |= u32::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Some(id);
        }
    }
    None
}

/// The sink [`Visited::insert_state`] hands an encoder: segment bytes go
/// to the scratch segment, each ended segment is interned and its id
/// appended to the tuple, and a segment of the parent's key is taken by
/// its id.
struct Interning<'v>(&'v mut Visited);

impl Sink for Interning<'_> {
    #[inline(always)]
    fn put(&mut self, byte: u8) {
        self.0.seg.push(byte);
    }

    #[inline(always)]
    fn put_all(&mut self, bytes: &[u8]) {
        self.0.seg.extend_from_slice(bytes);
    }

    #[inline]
    fn end_segment(&mut self, kind: Segment) {
        let v = &mut *self.0;
        let (id, _) = v.segments[table(kind)].insert(&v.seg);
        v.seg.clear();
        v.push_id(kind, id);
    }

    #[inline]
    fn reuse(&mut self, j: usize) -> bool {
        let v = &mut *self.0;
        let Some(&id) = v.parent.get(j) else { return false };
        v.push_id(v.layout[j], id);
        true
    }
}

/// Where the segments of a key end in a byte buffer, noted as they are
/// written: how a threaded search's workers hand the sweep keys to intern
/// ([`Visited::intern_marked`]), and how [`Visited::learn`] reads a
/// layout. Each mark is a segment's end in the buffer, its kind and its
/// hash.
pub(crate) struct Marking<'a> {
    bytes: &'a mut Vec<u8>,
    marks: &'a mut Vec<(usize, Segment, u64)>,
    start: usize,
}

impl<'a> Marking<'a> {
    /// Appends a key to `bytes`, its marks to `marks`.
    pub(crate) fn new(bytes: &'a mut Vec<u8>, marks: &'a mut Vec<(usize, Segment, u64)>) -> Self {
        let start = bytes.len();
        Marking { bytes, marks, start }
    }

    /// Ends the key: bytes written after the last marked end are a home
    /// segment, as [`Visited::insert_state`] reads them.
    pub(crate) fn finish(mut self) {
        if self.bytes.len() > self.start {
            self.end_segment(Segment::Home);
        }
    }
}

impl Sink for Marking<'_> {
    #[inline(always)]
    fn put(&mut self, byte: u8) {
        self.bytes.push(byte);
    }

    #[inline(always)]
    fn put_all(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    #[inline]
    fn end_segment(&mut self, kind: Segment) {
        let hash = hash_encoded(&self.bytes[self.start..]);
        self.marks.push((self.bytes.len(), kind, hash));
        self.start = self.bytes.len();
    }
}

impl Visited {
    /// An empty visited set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Learns the segment layout of `sys`'s keys from its initial state:
    /// what a visited set recovered from disk needs before it reads a
    /// tuple back. A fresh one learns it from the first state it stores.
    /// Every state of a system has one layout; storing asserts it.
    pub fn learn<T: TransitionSystem>(&mut self, sys: &T) {
        let (mut bytes, mut marks) = (Vec::new(), Vec::new());
        let mut sink = Marking::new(&mut bytes, &mut marks);
        sys.encode_into(&sys.initial(), None, &mut sink);
        sink.finish();
        let layout: Vec<Segment> = marks.iter().map(|&(_, kind, _)| kind).collect();
        assert!(
            self.layout.is_empty() || self.layout == layout,
            "a visited set holds the states of one system"
        );
        self.layout = layout;
    }

    /// Appends `id`, the id of the next segment, of kind `kind`, to the
    /// tuple being built. The first state stored fixes the layout.
    #[inline]
    fn push_id(&mut self, kind: Segment, id: u32) {
        match self.layout.get(self.pos) {
            Some(&k) => assert_eq!(k, kind, "a key off its system's layout"),
            None => {
                assert!(self.tuples.is_empty(), "a key off its system's layout");
                self.layout.push(kind);
            }
        }
        self.pos += 1;
        self.tuple.put_id(id);
    }

    /// Looks up the tuple [`Visited::build_tuple`] or
    /// [`Visited::intern_marked`] built, storing it when new. Returns
    /// `(index, is_new)` like [`StateStore::insert`].
    #[inline]
    pub(crate) fn insert_tuple(&mut self) -> (u32, bool) {
        assert_eq!(self.pos, self.layout.len(), "a key off its system's layout");
        self.pos = 0;
        let r = self.tuples.insert(&self.tuple);
        self.tuple.clear();
        r
    }

    /// Encodes `state`, reached by the step `from` if it was, interning
    /// its segments, and looks its tuple up, storing it when new. Returns
    /// `(index, is_new)` like [`StateStore::insert`]. A segment the
    /// encoder offers from the parent's key ([`Sink::reuse`]) is taken
    /// by its id — not encoded, hashed or looked up — when `from`'s
    /// parent is the state last announced by [`Visited::expanding`].
    pub fn insert_state<T: TransitionSystem>(
        &mut self,
        sys: &T,
        state: &T::State,
        from: Option<Origin<'_, T::State>>,
    ) -> (u32, bool) {
        self.build_tuple(sys, state, from);
        self.insert_tuple()
    }

    /// The first half of [`Visited::insert_state`]: encodes `state`,
    /// interning its segments, into the tuple [`Visited::insert_tuple`]
    /// looks up. Bytes written after the last marked end are a home
    /// segment.
    #[inline]
    pub(crate) fn build_tuple<T: TransitionSystem>(
        &mut self,
        sys: &T,
        state: &T::State,
        from: Option<Origin<'_, T::State>>,
    ) {
        sys.encode_into(state, from, &mut Interning(self));
        if !self.seg.is_empty() {
            Interning(self).end_segment(Segment::Home);
        }
    }

    /// Interns the key in `bytes` from `start`, whose segments end where
    /// `marks` say (with their kinds and hashes, as [`Marking`] notes
    /// them), into the tuple [`Visited::insert_tuple`] looks up.
    pub(crate) fn intern_marked(
        &mut self,
        bytes: &[u8],
        mut start: usize,
        marks: &[(usize, Segment, u64)],
    ) {
        for &(end, kind, hash) in marks {
            let (id, _) = self.segments[table(kind)].insert_hashed(hash, &bytes[start..end]);
            self.push_id(kind, id);
            start = end;
        }
    }

    /// Announces that the successors of state `idx` are to be inserted:
    /// the segments of its key are what [`Sink::reuse`] offers them, while
    /// its tuple is in memory (not evicted to a disk tier).
    #[inline]
    pub fn expanding(&mut self, idx: u32) {
        self.parent.clear();
        if let Some(mut tuple) = self.tuples.key_bytes(idx) {
            while let Some(id) = next_id(&mut tuple) {
                self.parent.push(id);
            }
        }
        if self.parent.len() != self.layout.len() {
            self.parent.clear();
        }
    }

    /// The segment ids of the state last announced by
    /// [`Visited::expanding`], when its tuple is in memory; empty
    /// otherwise.
    #[inline]
    pub(crate) fn parent_ids(&self) -> &[u32] {
        &self.parent
    }

    /// Builds, for [`Visited::insert_tuple`], the tuple of the state last
    /// announced by [`Visited::expanding`] with the segment at each
    /// position of `writes` replaced by the id beside it: a successor
    /// whose new segments are interned already.
    #[inline]
    pub(crate) fn build_replaced(&mut self, writes: &[(u32, u32)]) {
        debug_assert_eq!(self.parent.len(), self.layout.len(), "no parent tuple to replace in");
        for (pos, &id) in self.parent.iter().enumerate() {
            let id = writes.iter().find(|&&(at, _)| at as usize == pos).map_or(id, |&(_, id)| id);
            self.tuple.put_id(id);
        }
        self.pos = self.layout.len();
    }

    /// The segment ids of stored state `idx` into `out` (cleared first);
    /// empty when its tuple is not in memory.
    pub(crate) fn tuple_ids(&self, idx: u32, out: &mut Vec<u32>) {
        out.clear();
        if let Some(mut tuple) = self.tuples.key_bytes(idx) {
            while let Some(id) = next_id(&mut tuple) {
                out.push(id);
            }
        }
    }

    /// Writes the key of state `idx` into `out` (cleared first): its
    /// segments, concatenated. False when there is no such state, or its
    /// tuple cannot be read back or names a segment the tables do not
    /// hold.
    pub fn expand_into(&self, idx: u32, out: &mut Vec<u8>) -> bool {
        out.clear();
        match self.tuples.key_bytes(idx) {
            Some(tuple) => self.expand_tuple(tuple, out),
            None => self.tuples.read_entry(idx).is_some_and(|tuple| self.expand_tuple(&tuple, out)),
        }
    }

    /// The key of state `idx` as an owned copy ([`Visited::expand_into`]).
    pub fn read_entry(&self, idx: u32) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        self.expand_into(idx, &mut out).then_some(out)
    }

    /// Appends the segments `tuple` names to `out`.
    fn expand_tuple(&self, mut tuple: &[u8], out: &mut Vec<u8>) -> bool {
        for &kind in &self.layout {
            let Some(seg) =
                next_id(&mut tuple).and_then(|id| self.segments[table(kind)].key_bytes(id))
            else {
                return false;
            };
            out.extend_from_slice(seg);
        }
        tuple.is_empty()
    }

    /// Whether every tuple held in memory names segments the tables hold,
    /// in its system's layout: what a recovered visited set must show
    /// before it is trusted. `Err` names the first state that does not.
    pub fn check_tuples(&self) -> Result<(), u32> {
        let tables = self.segments.each_ref().map(StateStore::len);
        (0..self.len() as u32).try_for_each(|idx| {
            let Some(mut tuple) = self.tuples.key_bytes(idx) else { return Ok(()) };
            let fits = self.layout.iter().all(|&kind| {
                next_id(&mut tuple).is_some_and(|id| (id as usize) < tables[table(kind)])
            });
            if fits && tuple.is_empty() {
                Ok(())
            } else {
                Err(idx)
            }
        })
    }

    /// Number of distinct states stored.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if no states are stored.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Memory footprint in bytes: every table's [`StateStore::approx_bytes`].
    pub fn approx_bytes(&self) -> usize {
        self.tuples.approx_bytes()
            + self.segments.iter().map(StateStore::approx_bytes).sum::<usize>()
    }

    /// The most bytes storing one more state can add to
    /// [`Visited::approx_bytes`] ([`StateStore::headroom`]): its tuple,
    /// and a new segment in every position of its key, in either table.
    pub(crate) fn headroom(&self) -> usize {
        let k = self.layout.len().max(1);
        self.tuples.headroom(1) + self.segments.iter().map(|t| t.headroom(k)).sum::<usize>()
    }

    /// The tuples' table: dense state indices, and the disk tier a spilling
    /// sweep logs tuples to.
    pub fn tuples(&self) -> &StateStore {
        &self.tuples
    }

    /// Mutable access to the tuples' table.
    pub fn tuples_mut(&mut self) -> &mut StateStore {
        &mut self.tuples
    }

    /// The table of `kind`'s segments.
    pub fn segments(&self, kind: Segment) -> &StateStore {
        &self.segments[table(kind)]
    }

    /// Mutable access to the table of `kind`'s segments.
    pub fn segments_mut(&mut self, kind: Segment) -> &mut StateStore {
        &mut self.segments[table(kind)]
    }

    /// The tuples' disk tier, if any.
    pub fn tier(&self) -> Option<&LogTier> {
        self.tuples.tier()
    }

    /// Mutable access to the tuples' disk tier, if any.
    pub fn tier_mut(&mut self) -> Option<&mut LogTier> {
        self.tuples.tier_mut()
    }
}

/// What a [`KeyAudit`] saw.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyAuditReport {
    /// Keys held to the plain encoding.
    pub keys: u64,
    /// The first whose tuple did not read back to it.
    pub mismatch: Option<String>,
}

/// A test hook of the sweep ([`Search::audit`](crate::search::Search::audit)):
/// every key the sweep stores or finds is read back from the visited set
/// — its tuple expanded into its segments — and compared byte for byte
/// with [`TransitionSystem::encode`] of the state that reached it (the
/// canonical encoding, under [`crate::symmetry::Reduced`]).
#[derive(Debug, Default)]
pub struct KeyAudit(Mutex<KeyAuditReport>);

impl KeyAudit {
    /// An audit that has seen nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Holds the key stored for `state`, as `idx` of `store`, to the
    /// plain encoding of `state`.
    pub fn check<T: TransitionSystem>(&self, sys: &T, store: &Visited, state: &T::State, idx: u32) {
        let (mut plain, mut stored) = (Vec::new(), Vec::new());
        sys.encode(state, &mut plain);
        let read = store.expand_into(idx, &mut stored);
        let mut report = self.0.lock().expect("audit lock");
        report.keys += 1;
        if (!read || stored != plain) && report.mismatch.is_none() {
            report.mismatch = Some(format!(
                "state {idx} reads back as {stored:?} (read: {read}), its key is {plain:?}"
            ));
        }
    }

    /// What the audit saw so far.
    pub fn report(&self) -> KeyAuditReport {
        self.0.lock().expect("audit lock").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            rebuilt.rebuild_insert(hash(i), k, true);
        }
        rebuilt.rebuild_insert(hash(0), b"fresh", true);
        assert_eq!(rebuilt.slots, st.slots);
    }

    #[test]
    fn cells_pack_at_their_edges() {
        // Seven bytes are inline, eight are not; zero padding is not a key.
        let seven = Cell::inline(&[0xFF; 7]).expect("a 7-byte key is inline");
        assert_eq!(seven.stored(), Stored::Inline(&[0xFF; 7]));
        assert_eq!(Cell::inline(&[0xFF; 8]), None, "an 8-byte key is not");
        assert_ne!(Cell::inline(b""), Cell::inline(&[0]));
        assert_eq!(Cell::inline(b"").map(|c| c.key_len()), Some(0));
        // The arena form's fields at their widest.
        let widest = Cell::arena(EVICTED as usize - 1, ARENA_LEN_MAX);
        assert_eq!(
            widest.stored(),
            Stored::Arena { off: EVICTED as usize - 1, len: (1 << 24) - 1 }
        );
        assert_eq!(Cell::arena(0, 0).stored(), Stored::Arena { off: 0, len: 0 });
        assert_eq!(Cell::evicted(ARENA_LEN_MAX).stored(), Stored::Evicted(ARENA_LEN_MAX));
        // In a store without a tier a short key costs no arena byte.
        let mut st = StateStore::new();
        st.insert(b"1234567");
        assert_eq!(st.data, 0);
        st.insert(b"12345678");
        assert_eq!(st.data, 8);
        assert_eq!(st.key_bytes(0), Some(&b"1234567"[..]));
        assert_eq!(st.key_bytes(1), Some(&b"12345678"[..]));
        assert_eq!(st.entry_lengths().collect::<Vec<_>>(), [7, 8]);
    }

    #[test]
    #[should_panic(expected = "longer than 2^24 - 1")]
    fn an_arena_length_of_2_pow_24_is_refused() {
        Cell::arena(0, 1 << 24);
    }

    #[test]
    #[should_panic(expected = "does not fit in 32 bits")]
    fn an_arena_offset_past_32_bits_is_refused() {
        Cell::arena(EVICTED as usize, 0);
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
            + st.entries.capacity() * std::mem::size_of::<Cell>()
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
    /// A key of `segs` as a worker hands it over: bytes and marks.
    fn marked(segs: &[(Segment, &[u8])]) -> (Vec<u8>, Vec<(usize, Segment, u64)>) {
        let (mut bytes, mut marks) = (Vec::new(), Vec::new());
        let mut sink = Marking::new(&mut bytes, &mut marks);
        for &(kind, seg) in segs {
            sink.put_all(seg);
            sink.end_segment(kind);
        }
        sink.finish();
        (bytes, marks)
    }

    fn insert_marked(v: &mut Visited, segs: &[(Segment, &[u8])]) -> (u32, bool) {
        let (bytes, marks) = marked(segs);
        v.intern_marked(&bytes, 0, &marks);
        v.insert_tuple()
    }

    #[test]
    fn equal_keys_are_equal_tuples_and_read_back() {
        use Segment::{Home, Remote};
        let mut v = Visited::new();
        let keys: [&[(Segment, &[u8])]; 4] = [
            &[(Home, b"h0"), (Remote, b"r0"), (Remote, b"r1")],
            &[(Home, b"h0"), (Remote, b"r1"), (Remote, b"r0")],
            &[(Home, b"h1"), (Remote, b"r0"), (Remote, b"r0")],
            // The same bytes cut elsewhere are another state's key only
            // if the segments differ; a remote segment equal to a home
            // segment is still a remote one.
            &[(Home, b"r0"), (Remote, b"h0"), (Remote, b"r0")],
        ];
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(insert_marked(&mut v, key), (i as u32, true), "key {i}");
        }
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(insert_marked(&mut v, key), (i as u32, false), "key {i} again");
            let whole: Vec<u8> = key.iter().flat_map(|(_, seg)| seg.iter().copied()).collect();
            assert_eq!(v.read_entry(i as u32), Some(whole), "key {i} reads back");
        }
        assert_eq!(v.segments(Home).len(), 3, "h0, h1, r0 as a home segment");
        assert_eq!(v.segments(Remote).len(), 3, "r0, r1, h0 as a remote segment");
        assert_eq!(v.tuples().entry_lengths().collect::<Vec<_>>(), [3, 3, 3, 3]);
        assert_eq!(v.check_tuples(), Ok(()));
        assert_eq!(v.read_entry(4), None);
    }

    #[test]
    #[should_panic(expected = "a key off its system's layout")]
    fn a_key_off_the_layout_is_refused() {
        use Segment::{Home, Remote};
        let mut v = Visited::new();
        insert_marked(&mut v, &[(Home, b"h"), (Remote, b"r")]);
        insert_marked(&mut v, &[(Home, b"h"), (Home, b"r")]);
    }

    #[test]
    fn leb128_ids_read_back() {
        for id in [0u32, 1, 127, 128, 300, 16_383, 16_384, 65_535, 1 << 21, u32::MAX] {
            let mut bytes = Vec::new();
            bytes.put_id(id);
            let mut rest = &bytes[..];
            assert_eq!(next_id(&mut rest), Some(id), "{id}");
            assert!(rest.is_empty());
        }
        assert_eq!(next_id(&mut &[0x80u8][..]), None, "truncated");
        assert_eq!(next_id(&mut &[0xFFu8; 6][..]), None, "too long");
    }

    #[test]
    fn visited_byte_accounting_tracks_actual_allocation_within_2x() {
        use Segment::{Home, Remote};
        let mut v = Visited::new();
        for i in 0u32..50_000 {
            let home = [(i % 700) as u8, ((i % 700) >> 8) as u8, 7, 7, 7, 7, 7, 7];
            let r = |k: u32| [((i / 700 + k) % 90) as u8, 1, 2, 3, 4, 5, 6, 7, 8, 9];
            let (r0, r1, r2) = (r(0), r(i % 3), r(i % 5));
            insert_marked(&mut v, &[(Home, &home), (Remote, &r0), (Remote, &r1), (Remote, &r2)]);
        }
        assert!(v.len() > 40_000, "{} states", v.len());
        // The real heap allocation behind every table, from capacities.
        let table = |st: &StateStore| {
            st.arena.capacity()
                + st.slots.capacity() * std::mem::size_of::<u64>()
                + st.entries.capacity() * std::mem::size_of::<Cell>()
                + std::mem::size_of::<StateStore>()
        };
        let actual = table(&v.tuples) + v.segments.iter().map(table).sum::<usize>();
        let approx = v.approx_bytes();
        assert!(
            approx * 2 >= actual && actual * 2 >= approx,
            "approx_bytes {approx} vs actual allocation {actual}"
        );
        // A state costs its tuple (four one- or two-byte ids) and the
        // tuple table's bookkeeping, not its 38-byte key.
        assert!(approx / v.len() < 32, "{} bytes a state", approx / v.len());
    }
}
