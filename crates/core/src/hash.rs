//! The workspace's one non-cryptographic hasher: an FxHash-style
//! multiply-rotate over 8-byte words. It is fast on short byte strings
//! and on the small integer keys of counter maps, per the Rust perf-book
//! guidance, and needs no external dependency. The model checker's
//! visited set, its persistence checksums and the simulator's message
//! counters all hash with it.

use std::hash::Hasher;

/// FxHash-style 64-bit hasher: multiply-rotate over 8-byte words. A
/// trailing partial word is zero-padded, so writing an integer is writing
/// its little-endian bytes.
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
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuild = std::hash::BuildHasherDefault<FxHasher>;

/// Splitmix64 finalizer: spreads FxHash entropy into the low bits.
#[inline]
pub fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// [`FxHasher`] over `bytes`, finalized by [`mix`].
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    mix(h.finish())
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
    fn integers_hash_as_their_little_endian_bytes() {
        let (mut word, mut bytes) = (FxHasher::default(), FxHasher::default());
        word.write_u32(0xDEAD_BEEF);
        bytes.write(&0xDEAD_BEEFu32.to_le_bytes());
        assert_eq!(word.finish(), bytes.finish());
        let (mut word, mut bytes) = (FxHasher::default(), FxHasher::default());
        word.write_u64(u64::MAX - 7);
        word.write_usize(3);
        bytes.write(&(u64::MAX - 7).to_le_bytes());
        bytes.write(&3u64.to_le_bytes());
        assert_eq!(word.finish(), bytes.finish());
    }

    #[test]
    fn hash_bytes_is_pinned() {
        // The visited set's tags and the persistence checksums are this
        // value: what the store computed before the hasher moved here.
        assert_eq!(hash_bytes(b""), 0);
        assert_eq!(hash_bytes(b"ccr"), 0x02e1_a7b8_8eaf_11ce);
        assert_eq!(hash_bytes(b"hello world 1234"), 0xf655_ed1e_babe_ae84);
        let twenty: Vec<u8> = (0..20).collect();
        assert_eq!(hash_bytes(&twenty), 0x3799_6f48_25a8_5f1b);
    }
}
