//! Property tests for the canonicalization behind the symmetry reduction
//! (`crate::symmetry`). On random reachable states of the shipped
//! migratory protocol at both levels:
//!
//! * **Idempotence** — canonicalizing a canonical state is the identity;
//! * **Permutation invariance** — the canonical encoding is constant on
//!   each orbit, the property the [`ccr_mc::Reduced`] wrapper's soundness
//!   rests on;
//! * **Group action** — `permute` composes: π then σ equals σ∘π;
//! * **Predicate preservation** — the `ccr_mc::props` safety predicates
//!   (`rv_at_most` / `async_at_most` count remotes in a control-state
//!   set, so they are orbit-invariant) give the same verdict on a state
//!   and its canonical representative, for *random* state-sets and
//!   bounds, not just the shipped coherence invariants.
//!
//! and, on every permutable shipped spec plus a sample of the derivation
//! zoo, at 2–4 remotes:
//!
//! * **One layout** — the renaming encoder writes exactly the bytes of
//!   the materialised permuted state, `encode(permute(s, π))`;
//! * **Read-back** — a `Reduced` key reads back, through
//!   `Reduced::restore_into`, as the orbit's representative, whose key it
//!   is (what a resumed reduced sweep rebuilds its frontier from);
//! * **Derived keys** — every successor's key that `Reduced` derives from
//!   its parent's orbit is `canonical_encode`'s, bytes and sample.
//!
//! States are drawn by random successor walks from the initial state, so
//! every tested state is reachable; permutations are random swap
//! sequences over the remote indices.

use ccr_core::encode::Perm;
use ccr_core::ids::StateId;
use ccr_core::process::ProtocolSpec;
use ccr_core::refine::{refine, RefineOptions, RefinedProtocol};
use ccr_core::text::parse_validated;
use ccr_core::zoo::ZooSpec;
use ccr_mc::props::{async_at_most, rv_at_most};
use ccr_mc::{
    apply_perm, canonical_encode, canonicalize, derived_encode, spec_permutable, Reduced, Symmetric,
};
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_runtime::{next_parent_id, Origin, TransitionSystem};
use proptest::prelude::*;
use std::collections::HashSet;
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::OnceLock;

const N: u32 = 3;

fn shipped(name: &str) -> ProtocolSpec {
    // This crate's directory, or the repository root when the root
    // package includes this file (`tests/crate_suites.rs`).
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let specs = [here.join("../../specs"), here.join("specs")]
        .into_iter()
        .find(|dir| dir.is_dir())
        .expect("the repository's specs/");
    let path = specs.join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse_validated(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn migratory() -> ProtocolSpec {
    shipped("migratory.ccp")
}

/// Every shipped spec the reduction applies to, plus the first eight
/// permutable, refinable specs of the CI zoo stream (seed 1998).
fn permutable_specs() -> &'static [RefinedProtocol] {
    static SPECS: OnceLock<Vec<RefinedProtocol>> = OnceLock::new();
    SPECS.get_or_init(|| {
        let shipped = [
            "migratory.ccp",
            "migratory_gated.ccp",
            "migratory_broken.ccp",
            "token.ccp",
            "zoo_chain.ccp",
            "zoo_unsound_pair.ccp",
        ]
        .map(shipped);
        let zoo = (0..).filter_map(|i| ZooSpec::generate(1998, i).build().ok());
        let specs: Vec<RefinedProtocol> = shipped
            .into_iter()
            .chain(zoo)
            .filter(spec_permutable)
            .filter_map(|spec| refine(&spec, &RefineOptions::default()).ok())
            .take(6 + 8)
            .collect();
        assert_eq!(specs.len(), 14);
        assert_eq!(specs[5].spec.name, "zoo_unsound_pair", "all six shipped specs made it");
        specs
    })
}

/// Follows `steps` through the successor relation from the initial state,
/// indexing each level's successor list modulo its length (stopping early
/// at a deadlock or a runtime error — zoo specs may have either), so the
/// resulting state is reachable by construction.
fn walk<T: TransitionSystem>(sys: &T, steps: &[u16]) -> T::State {
    let mut s = sys.initial();
    let mut succs = Vec::new();
    for &k in steps {
        succs.clear();
        if sys.successors(&s, &mut succs).is_err() {
            break;
        }
        match succs.get(k as usize % succs.len().max(1)) {
            Some((_, next)) => s = next.clone(),
            None => break,
        }
    }
    s
}

/// The two byte-level laws of the rebuilt canonicalizer on one state.
fn assert_one_layout<T: Symmetric>(sys: &T, s: &T::State, perm: &[usize]) {
    let mut order = vec![0; perm.len()];
    for (old, &new) in perm.iter().enumerate() {
        order[new] = old;
    }
    let mut renamed = Vec::new();
    sys.encode_renamed(s, &Perm::new(perm, &order), &mut renamed);
    assert_eq!(renamed, sys.encoded(&apply_perm(sys, s, perm)), "renamed encode vs permute");

    let red = Reduced::new(sys);
    let key = red.encoded(s);
    let mut back = red.initial();
    assert!(red.restore_into(&key, &mut back), "a Reduced key reads back");
    assert_eq!(red.encoded(&back), key, "as a member of the orbit it is the key of");
    assert_eq!(sys.encoded(&back), key, "the representative itself");
}

/// Builds a permutation of `0..n` from a random swap sequence (each word
/// encodes the two positions to swap), starting from the identity.
fn perm_from(swaps: &[u16], n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for &w in swaps {
        p.swap(w as usize % n, (w as usize / n) % n);
    }
    p
}

/// A set of remote control states picked by the low bits of `bits`.
fn state_set(bits: u8, spec: &ccr_core::process::ProtocolSpec) -> HashSet<StateId> {
    (0..spec.remote.states.len())
        .filter(|i| bits >> (i % 8) & 1 == 1)
        .map(|i| StateId(i as u32))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn renamed_encoding_is_the_permuted_states_encoding(
        which in 0usize..14,
        n in 2u32..=4,
        steps in proptest::collection::vec(any::<u16>(), 0..40),
        swaps in proptest::collection::vec(any::<u16>(), 0..8),
    ) {
        let refined = &permutable_specs()[which];
        let perm = perm_from(&swaps, n as usize);
        let rv = RendezvousSystem::new(&refined.spec, n);
        assert_one_layout(&rv, &walk(&rv, &steps), &perm);
        let asys = AsyncSystem::new(refined, n, AsyncConfig::default());
        assert_one_layout(&asys, &walk(&asys, &steps), &perm);
    }

    #[test]
    fn derived_keys_are_the_full_canonicalization(
        which in 0usize..14,
        n in 2u32..=4,
        steps in proptest::collection::vec(any::<u16>(), 0..40),
    ) {
        let asys = AsyncSystem::new(&permutable_specs()[which], n, AsyncConfig::default());
        let s = walk(&asys, &steps);
        let (parent_id, mut scratch) = (next_parent_id(), s.clone());
        let (mut derived, mut full) = (Vec::new(), Vec::new());
        // A state that fails to step shows its successors up to the
        // failure: those are checked all the same.
        let _ = asys.for_each_successor(&s, &mut scratch, |_, next, written| {
            let from = Origin { parent: &s, parent_id, written };
            if let Some(sample) = derived_encode(&asys, next, from, &mut derived) {
                let canonical = canonical_encode(&asys, next, &mut full);
                assert_eq!((sample, &derived), (canonical, &full));
            }
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn rv_canonical_encoding_is_constant_on_the_orbit(
        steps in proptest::collection::vec(any::<u16>(), 0..40),
        swaps in proptest::collection::vec(any::<u16>(), 0..8),
    ) {
        let spec = migratory();
        let sys = RendezvousSystem::new(&spec, N);
        let s = walk(&sys, &steps);
        let sibling = apply_perm(&sys, &s, &perm_from(&swaps, N as usize));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        canonical_encode(&sys, &s, &mut a);
        canonical_encode(&sys, &sibling, &mut b);
        prop_assert_eq!(a, b, "canonical bytes must not depend on remote naming");
    }

    #[test]
    fn async_canonical_encoding_is_constant_on_the_orbit(
        steps in proptest::collection::vec(any::<u16>(), 0..30),
        swaps in proptest::collection::vec(any::<u16>(), 0..8),
    ) {
        let spec = migratory();
        let refined = refine(&spec, &RefineOptions::default()).expect("migratory refines");
        let sys = AsyncSystem::new(&refined, N, AsyncConfig::default());
        let s = walk(&sys, &steps);
        let sibling = apply_perm(&sys, &s, &perm_from(&swaps, N as usize));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        canonical_encode(&sys, &s, &mut a);
        canonical_encode(&sys, &sibling, &mut b);
        prop_assert_eq!(a, b, "canonical bytes must not depend on remote naming");
    }

    #[test]
    fn canonicalization_is_idempotent_and_matches_its_encoding(
        steps in proptest::collection::vec(any::<u16>(), 0..30),
    ) {
        let spec = migratory();
        let refined = refine(&spec, &RefineOptions::default()).expect("migratory refines");

        let rv = RendezvousSystem::new(&spec, N);
        let s = walk(&rv, &steps);
        let c = canonicalize(&rv, &s);
        prop_assert_eq!(rv.encoded(&c), rv.encoded(&canonicalize(&rv, &c)), "rv idempotence");
        let mut enc = Vec::new();
        canonical_encode(&rv, &s, &mut enc);
        prop_assert_eq!(rv.encoded(&c), enc, "rv canonicalize matches canonical_encode");

        let asys = AsyncSystem::new(&refined, N, AsyncConfig::default());
        let s = walk(&asys, &steps);
        let c = canonicalize(&asys, &s);
        prop_assert_eq!(
            asys.encoded(&c),
            asys.encoded(&canonicalize(&asys, &c)),
            "async idempotence"
        );
        let mut enc = Vec::new();
        canonical_encode(&asys, &s, &mut enc);
        prop_assert_eq!(asys.encoded(&c), enc, "async canonicalize matches canonical_encode");
    }

    #[test]
    fn permute_is_a_group_action(
        steps in proptest::collection::vec(any::<u16>(), 0..30),
        first in proptest::collection::vec(any::<u16>(), 0..8),
        second in proptest::collection::vec(any::<u16>(), 0..8),
    ) {
        let spec = migratory();
        let refined = refine(&spec, &RefineOptions::default()).expect("migratory refines");
        let sys = AsyncSystem::new(&refined, N, AsyncConfig::default());
        let s = walk(&sys, &steps);
        let pi = perm_from(&first, N as usize);
        let sigma = perm_from(&second, N as usize);
        // perm[i] is old index i's new slot, so "π then σ" composes to
        // comp[i] = σ[π[i]].
        let comp: Vec<usize> = pi.iter().map(|&i| sigma[i]).collect();
        let stepwise = apply_perm(&sys, &apply_perm(&sys, &s, &pi), &sigma);
        let direct = apply_perm(&sys, &s, &comp);
        prop_assert_eq!(sys.encoded(&stepwise), sys.encoded(&direct), "σ∘π composition");
    }

    #[test]
    fn props_predicates_are_orbit_invariant(
        steps in proptest::collection::vec(any::<u16>(), 0..30),
        bits in any::<u8>(),
        max in 0usize..3,
        count_transients in any::<bool>(),
    ) {
        let spec = migratory();
        let refined = refine(&spec, &RefineOptions::default()).expect("migratory refines");
        let states = state_set(bits, &spec);

        let rv = RendezvousSystem::new(&spec, N);
        let s = walk(&rv, &steps);
        let c = canonicalize(&rv, &s);
        let mut pred = rv_at_most(states.clone(), max, "prop");
        prop_assert_eq!(
            pred(&s).is_some(),
            pred(&c).is_some(),
            "rv_at_most verdict must survive canonicalization"
        );

        let asys = AsyncSystem::new(&refined, N, AsyncConfig::default());
        let s = walk(&asys, &steps);
        let c = canonicalize(&asys, &s);
        let mut pred = async_at_most(states, max, count_transients, "prop");
        prop_assert_eq!(
            pred(&s).is_some(),
            pred(&c).is_some(),
            "async_at_most verdict must survive canonicalization"
        );
    }
}
