//! `InlineVec` against a `Vec` model, across the spill boundary.
//!
//! The model checker's states are built from `InlineVec`s, and the state
//! store, the symmetry reduction and every `==` on a state see them only
//! through their contents. So after any history of operations — including
//! ones that pushed the vector onto the heap and back — an `InlineVec`
//! must hold what a `Vec` would, and two of them with equal contents must
//! compare and hash equal whatever each one's past.

use ccr_core::inline::InlineVec;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const N: usize = 2;

#[derive(Debug, Clone)]
enum Op {
    Push(u16),
    Insert(usize, u16),
    Remove(usize),
    Swap(usize, usize),
    Clear,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u16>().prop_map(Op::Push),
        (0usize..8, any::<u16>()).prop_map(|(i, v)| Op::Insert(i, v)),
        (0usize..8).prop_map(Op::Remove),
        (0usize..8, 0usize..8).prop_map(|(i, j)| Op::Swap(i, j)),
        Just(Op::Clear),
    ]
}

/// Applies `op` to both sides; positions wrap into range, and an op that
/// needs an element is skipped on an empty vector.
fn apply(op: &Op, model: &mut Vec<u16>, v: &mut InlineVec<u16, N>) {
    match *op {
        Op::Push(x) => {
            model.push(x);
            v.push(x);
        }
        Op::Insert(i, x) => {
            let i = i % (model.len() + 1);
            model.insert(i, x);
            v.insert(i, x);
        }
        Op::Remove(i) if !model.is_empty() => {
            let i = i % model.len();
            assert_eq!(model.remove(i), v.remove(i));
        }
        Op::Swap(i, j) if !model.is_empty() => {
            let (i, j) = (i % model.len(), j % model.len());
            model.swap(i, j);
            v.swap(i, j);
        }
        Op::Clear => {
            model.clear();
            v.clear();
        }
        Op::Remove(_) | Op::Swap(..) => {}
    }
}

fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

proptest! {
    /// Every prefix of an op sequence leaves the same contents as the
    /// model, seen through every read path, and the vector is on the heap
    /// exactly while it is longer than its inline capacity.
    #[test]
    fn agrees_with_a_vec_model(ops in proptest::collection::vec(arb_op(), 0..40)) {
        let mut model = Vec::new();
        let mut v: InlineVec<u16, N> = InlineVec::new();
        for op in &ops {
            apply(op, &mut model, &mut v);
            prop_assert_eq!(v.as_slice(), &model[..]);
            prop_assert_eq!(v.len(), model.len());
            prop_assert_eq!(v.iter().copied().collect::<Vec<_>>(), model.clone());
            prop_assert_eq!(v.first(), model.first());
            prop_assert_eq!(v.spilled(), model.len() > N);
        }
    }

    /// Equal contents are equal values: one side grows through the heap
    /// and shrinks back (leaving stale slots behind), the other is
    /// collected fresh, and they must compare and hash the same — as must
    /// a clone.
    #[test]
    fn equality_and_hash_follow_contents(
        ops in proptest::collection::vec(arb_op(), 0..40),
        extra in proptest::collection::vec(any::<u16>(), 0..6),
    ) {
        let mut model = Vec::new();
        let mut worn: InlineVec<u16, N> = InlineVec::new();
        // Spill first, then drain the padding again: same contents as
        // applying `ops` alone, different history.
        for &x in &extra {
            worn.push(x);
        }
        for _ in &extra {
            worn.remove(0);
        }
        for op in &ops {
            apply(op, &mut model, &mut worn);
        }
        let fresh: InlineVec<u16, N> = model.iter().copied().collect();
        prop_assert_eq!(&worn, &fresh);
        prop_assert_eq!(hash_of(&worn), hash_of(&fresh));
        prop_assert_eq!(hash_of(&fresh), hash_of(&model[..]), "hashes like a slice");
        prop_assert_eq!(&worn.clone(), &fresh);

        let mut longer = fresh.clone();
        longer.push(0);
        prop_assert_ne!(&longer, &fresh);
    }
}
