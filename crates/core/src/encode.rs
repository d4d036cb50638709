//! The two things every state encoder is generic over: where the bytes go
//! ([`Sink`]) and how remotes are named on the way out ([`Renaming`]).
//!
//! A state's byte layout is written down once, in the `encode` bodies of
//! [`crate::value`], `ccr_runtime::wire` and the two executors. Those
//! bodies are monomorphized per (renaming, sink) pair, so the growable
//! `Vec` key, the visited set's interning sink and the symmetry
//! reduction's "encoding of this state with its remotes permuted" are the
//! same code and cannot drift apart.
//!
//! A key is also a sequence of *segments* — the home's slice, then each
//! remote's — and the writer says where each ends ([`Sink::end_segment`]).
//! A plain byte sink ignores that; the model checker's visited set interns
//! each segment once and stores a state as the tuple of its segments' ids.

use crate::ids::RemoteId;
use crate::value::Value;

/// Upper bound on the bytes [`Sink::put_id`] writes for an id below
/// 2^16, the widest a state layout stores (`ccr_core::validate` caps the
/// states of a process, and the executors the remotes, at 2^16).
pub const ID_MAX_ENCODED_LEN: usize = 3;

/// The table a segment of a key is interned in: the home's slice (and
/// anything else that is not one remote's), or one remote's slice,
/// whatever slot it occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Segment {
    /// The home's slice.
    Home,
    /// One remote's slice, links included.
    Remote,
}

/// A destination for encoded bytes.
pub trait Sink {
    /// Appends one byte.
    fn put(&mut self, byte: u8);

    /// Appends `bytes` in order.
    fn put_all(&mut self, bytes: &[u8]);

    /// Appends an id — a process state id, a remote id — in its one
    /// canonical form, unsigned LEB128: seven bits a byte, low bits
    /// first, the high bit set on every byte but the last. An id below
    /// 128 is one byte, the id itself. The executors' readers refuse a
    /// longer form of an id that has a shorter one.
    #[inline(always)]
    fn put_id(&mut self, mut id: u32) {
        while id >= 0x80 {
            self.put(id as u8 | 0x80);
            id >>= 7;
        }
        self.put(id as u8);
    }

    /// Ends the segment written since the previous end (or the start): a
    /// segment of kind `kind`. Every executor's whole-state writer marks
    /// the end of each segment it writes; a plain byte sink ignores it.
    #[inline(always)]
    fn end_segment(&mut self, _kind: Segment) {}

    /// Offers, in place of the next segment, segment `j` of the key of
    /// the state being expanded — which the encoder knows to hold the
    /// bytes it would write. `true` when the sink took it: the encoder
    /// then writes nothing for that segment, end included. A plain byte
    /// sink has no parent key and answers `false`, and the encoder writes
    /// the bytes.
    #[inline(always)]
    fn reuse(&mut self, _j: usize) -> bool {
        false
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, byte: u8) {
        self.push(byte);
    }

    #[inline]
    fn put_all(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A renaming of the remotes, applied while a state is encoded: under it
/// an encoder emits the bytes of the *renamed* state without building it.
pub trait Renaming {
    /// The new name of remote `r`.
    fn remote(&self, r: RemoteId) -> RemoteId;

    /// `v` with every remote it mentions renamed.
    fn value(&self, v: Value) -> Value;

    /// The present index of the remote that the renamed state holds in
    /// slot `slot` — the order in which an encoder visits the remotes.
    fn source(&self, slot: usize) -> usize;
}

/// The renaming that changes nothing: plain `encode`.
#[derive(Debug, Clone, Copy)]
pub struct Identity;

impl Renaming for Identity {
    #[inline]
    fn remote(&self, r: RemoteId) -> RemoteId {
        r
    }

    #[inline]
    fn value(&self, v: Value) -> Value {
        v
    }

    #[inline]
    fn source(&self, slot: usize) -> usize {
        slot
    }
}

/// A permutation of the remotes with its inverse: `perm[i]` is the new
/// index of remote `i` and `order[j]` the remote that lands in slot `j`.
#[derive(Debug, Clone, Copy)]
pub struct Perm<'a> {
    perm: &'a [usize],
    order: &'a [usize],
}

impl<'a> Perm<'a> {
    /// Pairs `perm` with its inverse `order`.
    pub fn new(perm: &'a [usize], order: &'a [usize]) -> Self {
        debug_assert_eq!(perm.len(), order.len());
        debug_assert!(order.iter().enumerate().all(|(slot, &old)| perm[old] == slot));
        Self { perm, order }
    }
}

impl Renaming for Perm<'_> {
    #[inline]
    fn remote(&self, r: RemoteId) -> RemoteId {
        RemoteId(self.perm[r.index()] as u32)
    }

    #[inline]
    fn value(&self, v: Value) -> Value {
        v.renamed(self.perm)
    }

    #[inline]
    fn source(&self, slot: usize) -> usize {
        self.order[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_below_128_take_one_byte() {
        let bytes = |id: u32| {
            let mut v = Vec::new();
            v.put_id(id);
            v
        };
        assert_eq!(bytes(0), [0]);
        assert_eq!(bytes(127), [127]);
        assert_eq!(bytes(128), [0x80, 1]);
        assert_eq!(bytes(300), [0xAC, 2]);
        assert_eq!(bytes(65535), [0xFF, 0xFF, 3]);
        assert!((0..1 << 16).all(|id| bytes(id).len() <= ID_MAX_ENCODED_LEN));
    }

    #[test]
    fn perm_renames_and_visits_by_its_inverse() {
        let (perm, order) = ([2usize, 0, 1], [1usize, 2, 0]);
        let p = Perm::new(&perm, &order);
        assert_eq!(p.remote(RemoteId(0)), RemoteId(2));
        assert_eq!(p.value(Value::Node(RemoteId(1))), Value::Node(RemoteId(0)));
        assert_eq!(p.value(Value::Int(4)), Value::Int(4));
        assert_eq!((0..3).map(|j| p.source(j)).collect::<Vec<_>>(), order);
        assert_eq!(Identity.value(Value::Mask(5)), Value::Mask(5));
        assert_eq!(Identity.source(2), 2);
    }
}
