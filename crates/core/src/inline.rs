//! A small vector that lives inline until it outgrows a fixed capacity.
//!
//! Model-checker states are copied once per generated successor, so what
//! a state is made of decides what a transition costs. [`InlineVec`] keeps
//! up to `N` elements inside the owning struct — cloning it is a flat copy,
//! no allocator call — and spills to a heap `Vec` past `N`, so a spec with
//! more variables, a larger `link_capacity` or a fault-layer `insert` still
//! works, just at the old price. Equality and hashing are by *contents*:
//! an inline vector and a spilled one holding the same elements are the
//! same value.

use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// A vector of `Copy` elements with inline room for `N` of them.
///
/// Unused inline slots hold `T::default()` or stale elements; neither is
/// observable. Everything a slice offers (`get`, `iter`, `swap`, `first`,
/// indexing, ...) is available through `Deref`.
#[derive(Clone)]
pub struct InlineVec<T, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    Inline { len: u32, buf: [T; N] },
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty vector (no allocation).
    pub fn new() -> Self {
        InlineVec(Repr::Inline { len: 0, buf: [T::default(); N] })
    }

    /// Appends `v`, spilling to the heap when the inline room is full.
    pub fn push(&mut self, v: T) {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                let n = *len as usize;
                if n < N {
                    buf[n] = v;
                    *len += 1;
                } else {
                    let mut heap = Vec::with_capacity(2 * N + 1);
                    heap.extend_from_slice(buf);
                    heap.push(v);
                    self.0 = Repr::Heap(heap);
                }
            }
            Repr::Heap(heap) => heap.push(v),
        }
    }

    /// Empties the vector. A spilled one gives its heap buffer back, for
    /// the reason [`InlineVec::remove`] moves a short one inline again.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Heap(_) => *self = Self::new(),
        }
    }

    /// Inserts `v` at position `i <= len`, shifting later elements back.
    /// Panics when `i > len`, like `Vec::insert`.
    pub fn insert(&mut self, i: usize, v: T) {
        assert!(i <= self.len(), "insertion index {i} out of range for length {}", self.len());
        self.push(v);
        self[i..].rotate_right(1);
    }

    /// Removes and returns the element at position `i`, shifting later
    /// elements forward. Panics when `i >= len`, like `Vec::remove`. A
    /// spilled vector that shrinks back to `N` elements moves inline again,
    /// so one transient overflow does not tax every later copy.
    pub fn remove(&mut self, i: usize) -> T {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                let n = *len as usize;
                assert!(i < n, "removal index {i} out of range for length {n}");
                let v = buf[i];
                buf.copy_within(i + 1..n, i);
                *len -= 1;
                v
            }
            Repr::Heap(heap) => {
                let v = heap.remove(i);
                if heap.len() <= N {
                    let mut buf = [T::default(); N];
                    buf[..heap.len()].copy_from_slice(heap);
                    self.0 = Repr::Inline { len: heap.len() as u32, buf };
                }
                v
            }
        }
    }
}

impl<T, const N: usize> InlineVec<T, N> {
    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(heap) => heap,
        }
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Heap(heap) => heap,
        }
    }

    /// Whether the elements currently live on the heap.
    pub fn spilled(&self) -> bool {
        matches!(self.0, Repr::Heap(_))
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Hash, const N: usize> Hash for InlineVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl<T: std::fmt::Debug, const N: usize> std::fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Self::new();
        for v in iter {
            out.push(v);
        }
        out
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn spills_past_capacity_and_returns_inline() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        v.push(1);
        v.push(2);
        assert!(!v.spilled());
        v.push(3);
        assert!(v.spilled());
        assert_eq!(&v[..], &[1, 2, 3]);
        assert_eq!(v.remove(0), 1);
        assert!(!v.spilled(), "back within capacity");
        assert_eq!(&v[..], &[2, 3]);
    }

    #[test]
    fn equality_and_hash_ignore_representation_and_stale_slots() {
        let mut spilled: InlineVec<u32, 2> = [1, 2, 3].into_iter().collect();
        let inline: InlineVec<u32, 2> = [1, 2].into_iter().collect();
        assert_ne!(spilled, inline);
        // `remove` moves a short vector back inline, so a heap side with
        // two elements has to be built by hand.
        spilled.0 = Repr::Heap(vec![1, 2]);
        assert_eq!(spilled, inline);
        assert_eq!(hash_of(&spilled), hash_of(&inline));

        // A removed element leaves a stale copy in the unused slot.
        let mut a: InlineVec<u32, 2> = [7, 9].into_iter().collect();
        a.remove(0);
        let b: InlineVec<u32, 2> = [9].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn clear_empties_either_representation() {
        let mut inline: InlineVec<u32, 2> = [1, 2].into_iter().collect();
        inline.clear();
        assert!(inline.is_empty());
        let mut spilled: InlineVec<u32, 2> = [1, 2, 3].into_iter().collect();
        spilled.clear();
        assert!(spilled.is_empty() && !spilled.spilled());
        spilled.push(9);
        assert_eq!(&spilled[..], &[9]);
    }

    #[test]
    fn insert_shifts_later_elements() {
        let mut v: InlineVec<u32, 2> = [1, 3].into_iter().collect();
        v.insert(1, 2);
        assert_eq!(&v[..], &[1, 2, 3]);
        v.insert(3, 4);
        v.insert(0, 0);
        assert_eq!(&v[..], &[0, 1, 2, 3, 4]);
    }
}
