//! Property tests for the visited set's insert path: the segment writer
//! `encode_into` must be **byte-identical** to the reference `encode` on
//! randomly reached states of every shipped spec (both protocol levels),
//! within `max_encoded_len`, and a state inserted into the collapsed
//! visited set (`Visited`: each segment interned once, the state stored
//! as the tuple of its segments' ids) must read back as its key, and
//! find itself on a second insert without a trace: same index, no new
//! entry, exact `approx_bytes`.
//!
//! Random walks, not the full reachable set: proptest drives the step
//! choices, so each case exercises a different slice of the space —
//! including deep states whose queue/link occupancy stresses the
//! layout harder than the initial-state neighborhood — and two walks
//! that reach the long forms of masks and remote ids.

use ccr_core::encode::SliceSink;
use ccr_core::refine::{refine, RefineOptions};
use ccr_core::text::parse_validated;
use ccr_mc::store::Visited;
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

/// `encode_into` of `state` through a slot of `bound` bytes: what it
/// wrote.
fn slot_encode<T: TransitionSystem>(sys: &T, state: &T::State, bound: usize) -> Vec<u8> {
    let mut buf = vec![0xAAu8; bound];
    let mut slot = SliceSink::new(&mut buf);
    sys.encode_into(state, None, &mut slot);
    let written = slot.written();
    buf.truncate(written);
    buf
}

/// Walks `sys` for up to `steps.len()` transitions (each entry picks the
/// successor by index) and checks, at every state reached:
///
/// 1. `encode_into` writes exactly the bytes `encode` produces, within
///    the advertised `max_encoded_len` bound;
/// 2. inserting the state into the visited set stores it once, reads it
///    back as its key, and a second insert finds it and leaves the set
///    as it was.
fn walk_and_check<T: TransitionSystem>(sys: &T, steps: &[usize], context: &str) {
    let bound = sys
        .max_encoded_len()
        .unwrap_or_else(|| panic!("{context}: shipped systems must advertise a bound"));
    let mut store = Visited::new();
    let mut reference = Vec::new();
    let mut back = Vec::new();
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

        // Segment writer vs reference path, byte for byte.
        sys.encode(&state, &mut reference);
        assert!(reference.len() <= bound, "{context} step {i}: encode exceeds max_encoded_len");
        let written = slot_encode(sys, &state, bound);
        assert_eq!(written, reference, "{context} step {i}: slot bytes differ");

        // First insert: may be new or a revisit; either way the tuple
        // reads back as the key.
        let (idx, _) = store.insert_state(sys, &state, None);
        assert!(store.expand_into(idx, &mut back), "{context} step {i}: entry {idx} reads back");
        assert_eq!(back, reference, "{context} step {i}: the tuple is not the key");

        // Duplicate inserts find the entry without a trace. The first may
        // still grow a hash table (the load-factor check runs before the
        // probe), so the exact-bytes assertion measures across the
        // second.
        let entries = store.len();
        let mut bytes_committed = 0;
        for round in 0..2 {
            let (dup_idx, dup_new) = store.insert_state(sys, &state, None);
            assert!(!dup_new, "{context} step {i}: duplicate must not insert");
            assert_eq!(dup_idx, idx, "{context} step {i}: duplicate must find the entry");
            assert_eq!(store.len(), entries, "{context} step {i}: a duplicate added entries");
            if round > 0 {
                assert_eq!(
                    store.approx_bytes(),
                    bytes_committed,
                    "{context} step {i}: a duplicate must leave the byte footprint exactly"
                );
            }
            bytes_committed = store.approx_bytes();
        }
    }
    // Every entry still reads back.
    for idx in 0..store.len() as u32 {
        assert!(store.expand_into(idx, &mut back), "{context}: entry {idx} lost its bytes");
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
    let mut seen = 0;
    for i in 0..steps {
        let key = sys.encoded(&state);
        assert!(key.len() <= bound, "step {i}: {} bytes past the bound {bound}", key.len());
        assert_eq!(slot_encode(sys, &state, bound), key, "step {i}: slot path");
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
