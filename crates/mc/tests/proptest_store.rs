//! Property tests of the visited set's table (`ccr_mc::store::StateStore`)
//! against a `HashMap` model.
//!
//! A key of at most seven bytes lives inline in its entry, a longer one
//! in the arena, and a store with a disk tier keeps every key in the
//! arena; the probe table doubles in place. Keys here are 0–12 bytes
//! over a three-letter alphabet, so repeats are common and prefixes cross
//! the 7/8 boundary both ways. After every insert the store must agree
//! with the model on:
//!
//! * **what `insert` returns** — the model's index and whether it is new;
//! * **every key it holds** — through `get` (or a repeated insert, under
//!   a narrowed hash), `key_bytes`, `read_entry` and `entry_lengths`.
//!
//! Three properties:
//!
//! * **The real hash.**
//! * **A narrowed hash** — a handful of tags, half of them homed at the
//!   table's last slots, so tag matches that differ in their key bytes
//!   and clusters that wrap around are the rule, through several
//!   doublings; a replay of the same inserts through `rebuild_insert`
//!   (a tier's recovery) yields the same probe table.
//! * **A disk tier that evicts** — a tiny eviction threshold: the store
//!   still evicts, every key (the short ones too) went through the arena,
//!   and every key still reads back.

use ccr_mc::store::{hash_encoded, StateStore};
use ccr_mc::LogTier;
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;

/// Up to `max` keys of 0–12 bytes over `0..3`.
fn keys(max: usize) -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(0u8..3, 0..13), 0..max)
}

/// The hash `key` is stored under: `hash_encoded`, or with `narrow` its
/// tag cut to one of eight — four of them homed at the table's last
/// slots (all ones in their low bits whatever the table's size), so
/// their clusters wrap around.
fn hash_of(key: &[u8], narrow: bool) -> u64 {
    let hash = hash_encoded(key);
    if !narrow {
        return hash;
    }
    let k = (hash >> 32) % 8;
    let tag = if k < 4 { u64::from(u32::MAX) - k } else { k };
    tag << 32 | (hash & 0xFFFF_FFFF)
}

/// The probe table of `store`, as its `Debug` form prints it.
fn slots(store: &StateStore) -> String {
    let debug = format!("{store:?}");
    let start = debug.find("slots: ").expect("a slots field");
    let end = debug[start..].find(']').expect("a slot list") + start;
    debug[start..=end].to_string()
}

/// Holds every key of `model` (by index) to `store`: the index a lookup
/// finds, the bytes each accessor reads back and the lengths. A key
/// `evicted` from the arena reads back through the tier only.
fn agrees(store: &StateStore, model: &[Vec<u8>], narrow: bool, evicted: impl Fn(usize) -> bool) {
    assert_eq!(store.len(), model.len());
    for (i, key) in model.iter().enumerate() {
        let idx = i as u32;
        if !narrow {
            assert_eq!(store.get(key), Some(idx), "get {key:?}");
        }
        if evicted(i) {
            assert_eq!(store.key_bytes(idx), None, "{key:?} was evicted");
        } else {
            assert_eq!(store.key_bytes(idx), Some(&key[..]), "key_bytes {idx}");
        }
        assert_eq!(store.read_entry(idx).as_deref(), Some(&key[..]), "read_entry {idx}");
    }
    assert_eq!(store.key_bytes(model.len() as u32), None);
    assert_eq!(store.read_entry(model.len() as u32), None);
    let lengths: Vec<u64> = model.iter().map(|k| k.len() as u64).collect();
    assert_eq!(store.entry_lengths().collect::<Vec<_>>(), lengths);
}

/// Inserts `keys` one by one into a fresh store and a `HashMap` model,
/// checking them against each other after every step; returns the store
/// and the distinct keys in index order.
fn run(keys: &[Vec<u8>], narrow: bool) -> (StateStore, Vec<Vec<u8>>) {
    let mut store = StateStore::new();
    let mut index: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut model: Vec<Vec<u8>> = Vec::new();
    for key in keys {
        let want = match index.get(key) {
            Some(&idx) => (idx, false),
            None => {
                index.insert(key.clone(), model.len() as u32);
                model.push(key.clone());
                (model.len() as u32 - 1, true)
            }
        };
        assert_eq!(store.insert_hashed(hash_of(key, narrow), key), want, "insert {key:?}");
        if !narrow {
            // A key looked up before it is stored, and one never stored.
            assert_eq!(store.get(&[7; 9]), None);
        }
        agrees(&store, &model, narrow, |_| false);
    }
    // A repeated insert finds what is there (under the narrowed hash,
    // the only lookup there is).
    for (i, key) in model.iter().enumerate() {
        assert_eq!(store.insert_hashed(hash_of(key, narrow), key), (i as u32, false));
    }
    (store, model)
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccr-prop-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    #[test]
    fn the_store_agrees_with_a_hash_map(keys in keys(300)) {
        run(&keys, false);
    }

    #[test]
    fn narrowed_hashes_collide_wrap_and_replay_to_the_same_table(keys in keys(400)) {
        let (store, model) = run(&keys, true);
        let mut rebuilt = StateStore::new();
        for key in &model {
            rebuilt.rebuild_insert(hash_of(key, true), key, true);
        }
        prop_assert_eq!(slots(&rebuilt), slots(&store));
        agrees(&rebuilt, &model, true, |_| false);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    #[test]
    fn a_store_with_a_tier_keeps_its_keys_in_the_arena(keys in keys(200), evict_at in 1usize..24) {
        let dir = tmp("tier");
        let mut store = StateStore::new();
        store.attach_tier(Box::new(LogTier::create(dir.join("log"), evict_at).unwrap()));
        let mut model: Vec<Vec<u8>> = Vec::new();
        // The arena bytes each distinct key added, and the last eviction.
        let mut arena = 0usize;
        let mut last_evicted = 0usize;
        for key in &keys {
            let (idx, new) = store.insert(key);
            if new {
                model.push(key.clone());
                arena += key.len();
                if arena > evict_at {
                    arena = 0;
                    last_evicted = model.len();
                }
            }
            prop_assert_eq!(idx as usize, model.iter().position(|k| k == key).unwrap());
            agrees(&store, &model, false, |i| i < last_evicted);
        }
        let stats = store.tier().expect("a tier").stats();
        // Every key's bytes went through the arena: each one evicted, or
        // in it since the last eviction — the short ones too.
        let total: usize = model.iter().map(Vec::len).sum();
        let kept: usize = model[last_evicted..].iter().map(Vec::len).sum();
        prop_assert_eq!(stats.evicted_bytes as usize + kept, total);
        prop_assert_eq!(stats.evictions > 0, total > evict_at);
        prop_assert_eq!(stats.records_appended as usize, model.len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
