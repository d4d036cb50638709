//! Property tests for the zero-copy insert path: the slot
//! `encode_into` fast path must be **byte-identical** to the reference
//! `encode` on randomly reached states of every shipped spec (both
//! protocol levels), and a duplicate resolved through the arena-slot
//! protocol (`begin_insert` → encode in place → `commit_insert`) must
//! roll the bump pointer back so cleanly that the store is
//! indistinguishable from one that never saw the duplicate: exact
//! `approx_bytes`, unchanged entry count, and every committed entry's
//! bytes untouched.
//!
//! Random walks, not the full reachable set: proptest drives the step
//! choices, so each case exercises a different slice of the space —
//! including deep states whose queue/link occupancy stresses the
//! layout harder than the initial-state neighborhood — and two walks
//! that reach the long forms of masks and remote ids.

use ccr_core::refine::{refine, RefineOptions};
use ccr_core::text::parse_validated;
use ccr_mc::store::StateStore;
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_runtime::TransitionSystem;
use proptest::prelude::*;
use std::path::Path;

const HEALTHY: [&str; 5] =
    ["invalidate.ccp", "migratory.ccp", "migratory_gated.ccp", "token.ccp", "update.ccp"];
const BROKEN: &str = "migratory_broken.ccp";

fn load(name: &str) -> ccr_core::process::ProtocolSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("specs").join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse_validated(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Walks `sys` for up to `steps.len()` transitions (each entry picks the
/// successor by index) and checks, at every state reached:
///
/// 1. `encode_into` writes exactly the bytes `encode` produces, within
///    the advertised `max_encoded_len` bound;
/// 2. inserting the state twice through the arena-slot protocol commits
///    once and rolls back once, leaving the store byte-identical.
fn walk_and_check<T: TransitionSystem>(sys: &T, steps: &[usize], context: &str) {
    let bound = sys
        .max_encoded_len()
        .unwrap_or_else(|| panic!("{context}: shipped systems must advertise a bound"));
    let mut store = StateStore::new();
    let mut reference = Vec::new();
    let mut succs = Vec::new();
    let mut state = sys.initial();
    for (i, &pick) in std::iter::once(&0usize).chain(steps).enumerate() {
        if i > 0 {
            sys.successors(&state, &mut succs).unwrap_or_else(|e| panic!("{context}: {e}"));
            if succs.is_empty() {
                break; // deadlock (the broken spec earns its name)
            }
            state = succs[pick % succs.len()].1.clone();
        }

        // Fast path vs reference path, byte for byte.
        sys.encode(&state, &mut reference);
        assert!(reference.len() <= bound, "{context} step {i}: encode exceeds max_encoded_len");
        let mut buf = vec![0xAAu8; bound];
        let written = sys.encode_into(&state, None, &mut buf);
        assert_eq!(written, reference.len(), "{context} step {i}: fast-path length differs");
        assert_eq!(&buf[..written], &reference[..], "{context} step {i}: fast-path bytes differ");

        // First slot insert: may be new (commit) or a revisit (rollback).
        let slot = store.begin_insert(bound);
        let n = sys.encode_into(&state, None, store.slot_buf(&slot));
        let (idx, _) = store.commit_insert(slot, n);

        // Duplicate slot inserts of the same bytes must roll back without
        // a trace: same index, no new entry, committed bytes untouched.
        // The first duplicate may still grow the hash table (the
        // load-factor check runs before the probe), so the exact-bytes
        // assertion measures across the *second* duplicate, where the
        // only possible footprint change would be a genuine arena leak.
        let entries = store.len();
        let mut bytes_committed = 0;
        for round in 0..2 {
            let slot = store.begin_insert(bound);
            let n = sys.encode_into(&state, None, store.slot_buf(&slot));
            let (dup_idx, dup_new) = store.commit_insert(slot, n);
            assert!(!dup_new, "{context} step {i}: duplicate commit must not insert");
            assert_eq!(dup_idx, idx, "{context} step {i}: duplicate must find the entry");
            assert_eq!(store.len(), entries, "{context} step {i}: rollback added entries");
            if round > 0 {
                assert_eq!(
                    store.approx_bytes(),
                    bytes_committed,
                    "{context} step {i}: rollback must restore the byte footprint exactly"
                );
            }
            bytes_committed = store.approx_bytes();
        }
        assert_eq!(
            store.key_bytes(idx),
            Some(&reference[..]),
            "{context} step {i}: committed bytes must survive the rollback"
        );
    }
    // The arena holds exactly the committed entries, nothing leaked from
    // the rolled-back duplicates.
    for idx in 0..store.len() as u32 {
        assert!(store.key_bytes(idx).is_some(), "{context}: entry {idx} lost its bytes");
    }
}

/// Walks `sys` for up to `steps` transitions — at step `i` successor
/// `pick(i, count)` — and checks at every state that both encoders agree
/// within `max_encoded_len` and that the key reads back. Returns how many
/// of the states `wide` held for.
fn wide_walk<T: TransitionSystem>(
    sys: &T,
    steps: usize,
    pick: impl Fn(usize, usize) -> usize,
    wide: impl Fn(&T::State) -> bool,
) -> usize {
    let bound = sys.max_encoded_len().expect("shipped systems advertise a bound");
    let (mut state, mut succs, mut back) = (sys.initial(), Vec::new(), sys.initial());
    let mut slot = vec![0; bound];
    let mut seen = 0;
    for i in 0..steps {
        let key = sys.encoded(&state);
        assert!(key.len() <= bound, "step {i}: {} bytes past the bound {bound}", key.len());
        let written = sys.encode_into(&state, None, &mut slot);
        assert_eq!(&slot[..written], &key[..], "step {i}: slot path");
        assert!(sys.decode_into(&key, &mut back) && back == state, "step {i}: key reads back");
        seen += usize::from(wide(&state));
        sys.successors(&state, &mut succs).expect("shipped specs step");
        let Some((_, next)) = succs.get(pick(i, succs.len())) else { break };
        state = next.clone();
    }
    seen
}

/// The long forms in reached states: sharer masks of nine remotes reach
/// bit 8 (a mask ≥ 256), and past 128 remotes a remote id takes two
/// bytes as an `Awaiting` target, a home-buffer sender and a node value.
#[test]
fn keys_with_long_forms_fit_their_bound_and_read_back() {
    use ccr_core::value::Value;
    use ccr_runtime::asynch::HomePhase;
    let wide_mask = |env: &ccr_core::value::Env| env.values().any(|v| v.as_mask() >= Some(256));
    let far = |v: Value| v.as_node().is_some_and(|r| r.0 >= 128);
    let spread = |i: usize, count: usize| ((i * 2_654_435_761) >> 7) % count.max(1);
    for name in ["invalidate.ccp", "update.ccp"] {
        let spec = load(name);
        let rv = RendezvousSystem::new(&spec, 9);
        assert!(
            wide_walk(&rv, 600, spread, |s| wide_mask(&s.home.env)) > 0,
            "{name}: no mask ≥ 256"
        );
        let refined = refine(&spec, &RefineOptions::default()).expect("refines");
        let sys = AsyncSystem::new(&refined, 9, AsyncConfig::default());
        assert!(
            wide_walk(&sys, 1500, spread, |s| wide_mask(&s.home.env)) > 0,
            "{name}: no mask ≥ 256"
        );
    }
    let refined = refine(&load("migratory.ccp"), &RefineOptions::default()).expect("refines");
    let sys = AsyncSystem::new(&refined, 130, AsyncConfig::default());
    // Every other step the last successor listed: the highest remote's.
    let high = |i: usize, count: usize| {
        if i.is_multiple_of(2) {
            count.saturating_sub(1)
        } else {
            spread(i, count)
        }
    };
    let far_ids = wide_walk(&sys, 600, high, |s| {
        let target = matches!(s.home.phase, HomePhase::Awaiting { target, .. } if target.0 >= 128);
        target || s.home.buf.iter().any(|e| e.from.0 >= 128) || s.home.env.values().any(far)
    });
    assert!(far_ids > 0, "no remote id ≥ 128 reached");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fastpath_encode_matches_reference_on_random_walks(
        steps in prop::collection::vec(any::<usize>(), 1..48),
    ) {
        for name in HEALTHY.iter().copied().chain(std::iter::once(BROKEN)) {
            let spec = load(name);
            for n in [2u32, 3] {
                let sys = RendezvousSystem::new(&spec, n);
                walk_and_check(&sys, &steps, &format!("{name} rv n={n}"));
            }
            if name != BROKEN {
                let refined = refine(&spec, &RefineOptions::default())
                    .unwrap_or_else(|e| panic!("{name}: refine: {e}"));
                let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
                walk_and_check(&sys, &steps, &format!("{name} async n=2"));
            }
        }
    }
}
