//! Differential soundness harness for the symmetry reduction: for every
//! shipped spec the quotient search (over [`ccr_mc::Reduced`]) must agree
//! with the full concrete search — same outcome on the healthy specs,
//! same violation kind on the deliberately broken one — without threads
//! and on four, at both protocol levels.
//! Counterexample trails found in the quotient must replay step for step
//! on the *unreduced* system: the reduction dedupes orbits but its
//! frontier holds concrete first-discovered representatives, so every
//! trail is a real execution, no witness permutations needed.
//!
//! The migratory case also pins the headline payoff: at `n=3` the
//! reduced asynchronous search must visit at most 1/4 of the concrete
//! states (it actually lands near the `3! = 6`× orbit bound), and at
//! `n=8` the orbit count itself — a size that is only in reach of a test
//! because canonicalizing costs one encoding, not `Π gᵢ!` of them.
//!
//! The canonicalizer is held against an [`oracle`]: the algorithm as it
//! stood before the exact-signature collapse (build every sorting
//! permutation's state, encode it, take the least). On the shipped specs
//! that pins the lemma the collapse rests on; on [`FORWARD`], a spec
//! whose remotes hold each other's ids, it pins the enumerating fallback.
//!
//! The keys the reduced sweep derives from a parent's orbit are held to the
//! full canonicalization too ([`Reduced::audited`]): on every permutable
//! shipped spec, on remotes that hold their own ids, on `FORWARD`'s
//! fallback, on 250 zoo specs and on the C2-victim step built by hand.
//!
//! Equation 1 rides the quotient sweep on one premise, checked here on
//! every reachable state of every permutable shipped spec and of a zoo
//! sample: the abstraction function commutes with renaming the remotes,
//! `abs(π·q) = π·abs(q)`.

use ccr_core::encode::Perm;
use ccr_core::ids::RemoteId;
use ccr_core::process::ProtocolSpec;
use ccr_core::refine::{refine, RefineOptions, ReqRepMode};
use ccr_core::text::parse_validated;
use ccr_core::zoo::ZooSpec;
use ccr_mc::search::Search;
use ccr_mc::{
    canonical_encode, derived_encode, explore, replay_trail, Budget, DeriveAudit, Outcome, Reduced,
    SearchObserver, SearchReport, Symmetric,
};
use ccr_runtime::abstraction::abs;
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem, BufEntry, HomePhase};
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_runtime::{next_parent_id, Origin, TransitionSystem};
use std::collections::HashSet;
use std::ops::ControlFlow;
use std::path::Path;

#[path = "support/specs.rs"]
mod specs;
use specs::shipped_specs;

const HEALTHY: [&str; 5] =
    ["invalidate.ccp", "migratory.ccp", "migratory_gated.ccp", "token.ccp", "update.ccp"];
const BROKEN: &str = "migratory_broken.ccp";

fn load(name: &str) -> ccr_core::process::ProtocolSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("specs").join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse_validated(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// One unobserved exploration with the deadlock check and trails on, on
/// `threads` workers (0 = none).
fn explore_traced<T>(sys: &T, budget: &Budget, threads: usize) -> SearchReport
where
    T: TransitionSystem + Sync,
    T::State: Send,
{
    let mut null = ccr_trace::NullSink;
    let mut obs = SearchObserver::new(&mut null);
    Search { check_deadlock: true, trails: true, threads, ..Search::default() }
        .explore(sys, budget, None, &mut obs)
}

/// Full vs reduced exploration of `sys`, serial and at 4 threads. The
/// outcomes must be identical; the reduced searches must agree with each
/// other exactly (the workers canonicalize, the one sweep deduplicates)
/// and must never visit more states than the concrete search.
fn assert_reduction_sound<T>(sys: &T, budget: &Budget, context: &str) -> (usize, usize)
where
    T: ccr_mc::Symmetric + Sync,
    T::State: Send,
{
    let full = explore(sys, budget, |_| None, true);
    let red = Reduced::new(sys);
    let reduced = explore(&red, budget, |_| None, true);
    assert_eq!(reduced.outcome, full.outcome, "{context}: serial reduced outcome");
    assert!(
        reduced.states <= full.states,
        "{context}: quotient larger than concrete space ({} > {})",
        reduced.states,
        full.states
    );

    let par = explore_traced(&red, budget, 4);
    assert_eq!(par.outcome, reduced.outcome, "{context}: parallel reduced outcome");
    assert_eq!(par.states, reduced.states, "{context}: parallel reduced states");
    assert_eq!(par.transitions, reduced.transitions, "{context}: parallel reduced transitions");
    (full.states, reduced.states)
}

#[test]
fn healthy_specs_rendezvous_level_reduced_matches_full() {
    let budget = Budget::states(500_000);
    for name in HEALTHY {
        let spec = load(name);
        let permutable = ccr_mc::spec_permutable(&spec);
        for n in [2u32, 3] {
            let sys = RendezvousSystem::new(&spec, n);
            let (full, reduced) =
                assert_reduction_sound(&sys, &budget, &format!("{name} rv n={n}"));
            if permutable && n == 3 {
                assert!(reduced < full, "{name} rv n=3: scalarset-clean spec must shrink");
            }
        }
    }
}

/// The scalarset discipline over the shipped specs: the invalidate files
/// and `update.ccp` walk their sharer sets with `first(...)`
/// (order-sensitive — the lowest-*numbered* sharer goes first), so their
/// remotes are not interchangeable and the reduction must refuse to touch
/// them. The migratory family, `token.ccp` and the zoo members are clean
/// and reduce. Every file under `specs/` must be in the table, so a new
/// spec cannot ship unclassified.
#[test]
fn scalarset_detection_matches_the_shipped_specs() {
    let expected = [
        ("invalidate.ccp", false),
        ("invalidate_nodata.ccp", false),
        ("update.ccp", false),
        ("migratory.ccp", true),
        ("migratory_broken.ccp", true),
        ("migratory_cpu.ccp", true),
        ("migratory_data2.ccp", true),
        ("migratory_data4.ccp", true),
        ("migratory_gated.ccp", true),
        ("token.ccp", true),
        ("zoo_chain.ccp", true),
        ("zoo_unsound_pair.ccp", true),
    ];
    for (name, spec) in shipped_specs() {
        let permutable = expected
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is missing from the scalarset table"))
            .1;
        assert_eq!(ccr_mc::spec_permutable(&spec), permutable, "{name}");
    }
}

#[test]
fn healthy_specs_async_refinement_reduced_matches_full() {
    // Above the largest concrete space this test sweeps (invalidate at
    // n=2): every run completes. n=3 runs only
    // for the scalarset-clean specs — for the `first()` users the
    // reduction is the identity (proven at n=2 and on the rendezvous
    // level), and their concrete n=3 spaces are millions of states
    // (update: 4.8M), too big to sweep three times per test run.
    let budget = Budget::states(700_000);
    for name in HEALTHY {
        let spec = load(name);
        let refined = refine(&spec, &RefineOptions::default())
            .unwrap_or_else(|e| panic!("{name}: refine: {e}"));
        let ns: &[u32] = if ccr_mc::spec_permutable(&spec) { &[2, 3] } else { &[2] };
        for &n in ns {
            let sys = AsyncSystem::new(&refined, n, AsyncConfig::default());
            assert_reduction_sound(&sys, &budget, &format!("{name} async n={n}"));
        }
    }
}

/// The acceptance criterion of the reduction: migratory at `n=3` must
/// shrink to at most a quarter of the concrete asynchronous space while
/// reporting the same verdict.
#[test]
fn migratory_async_n3_shrinks_to_at_most_a_quarter() {
    let spec = load("migratory.ccp");
    let refined = refine(&spec, &RefineOptions::default()).expect("migratory refines");
    let sys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
    let (full, reduced) =
        assert_reduction_sound(&sys, &Budget::states(500_000), "migratory async n=3");
    assert!(
        reduced * 4 <= full,
        "reduced search must visit <= 1/4 of the full states (full={full}, reduced={reduced})"
    );
}

/// The negative case: the broken spec must still be *caught* in the
/// quotient — same violation kind as the concrete search — and the trail
/// the reduced search reports must be a genuine concrete execution:
/// replaying it on the unreduced system must land in a state with no
/// successors.
#[test]
fn broken_spec_reduced_search_finds_replayable_concrete_deadlock() {
    let spec = load(BROKEN);
    let budget = Budget::states(500_000);
    for n in [2u32, 3] {
        let sys = RendezvousSystem::new(&spec, n);
        let full = explore_traced(&sys, &budget, 0);
        assert_eq!(full.outcome, Outcome::Deadlock, "n={n}: broken spec must deadlock");

        let red = Reduced::new(&sys);
        let serial = explore_traced(&red, &budget, 0);
        assert_eq!(serial.outcome, full.outcome, "n={n}: reduced violation kind");

        let par = explore_traced(&red, &budget, 4);
        assert_eq!(par.outcome, full.outcome, "n={n}: parallel reduced violation kind");

        for (engine, trail) in [("serial", &serial.trail), ("parallel", &par.trail)] {
            let trail = trail.as_ref().unwrap_or_else(|| panic!("n={n} {engine}: missing trail"));
            let end = replay_trail(&sys, trail)
                .unwrap_or_else(|e| panic!("n={n} {engine}: concrete replay: {e}"));
            let mut succs = Vec::new();
            sys.successors(&end, &mut succs).expect("replayed state must execute");
            assert!(succs.is_empty(), "n={n} {engine}: replayed trail must end deadlocked");
        }
    }
}

/// The scale the one-encoding canonicalizer buys: 15,932 orbits at eight
/// remotes, where enumerating ties cost 34 encodings per state (and 557
/// at ten).
#[test]
fn migratory_async_n8_orbit_count_is_pinned() {
    let spec = load("migratory.ccp");
    let refined = refine(&spec, &RefineOptions::default()).expect("migratory refines");
    let sys = AsyncSystem::new(&refined, 8, AsyncConfig::default());
    let reduced = explore(&Reduced::new(&sys), &Budget::default(), |_| None, true);
    assert!(reduced.outcome.is_complete(), "{:?}", reduced.outcome);
    assert_eq!((reduced.states, reduced.transitions), (15_932, 120_820));
}

/// What the pre-collapse canonicalizer computes for one state.
struct Oracle {
    /// Least encoding over all sorting permutations.
    bytes: Vec<u8>,
    /// Number of sorting permutations, `Π gᵢ!`.
    candidates: u64,
    /// Whether every remote's signature was exact.
    exact: bool,
    /// Whether all sorting permutations encoded to the same bytes.
    all_alike: bool,
}

/// The canonicalizer as it was before the exact-signature collapse, and
/// as plainly as it can be written: of all `n!` orderings of the remotes,
/// keep those that sort the signature sequence, build each one's state
/// with `permute`, `encode` it, and take the least.
fn oracle<T: Symmetric>(sys: &T, s: &T::State) -> Oracle {
    fn orderings(prefix: &mut Vec<usize>, n: usize, f: &mut impl FnMut(&[usize])) {
        if prefix.len() == n {
            return f(prefix);
        }
        for i in 0..n {
            if !prefix.contains(&i) {
                prefix.push(i);
                orderings(prefix, n, f);
                prefix.pop();
            }
        }
    }
    let n = sys.remote_count();
    let mut exact = true;
    let sigs: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            let mut sig = Vec::new();
            exact &= sys.signature(s, i, &mut sig);
            sig
        })
        .collect();
    let mut encodings = Vec::new();
    orderings(&mut Vec::new(), n, &mut |order| {
        if order.windows(2).all(|w| sigs[w[0]] <= sigs[w[1]]) {
            let mut perm = vec![0; n];
            for (slot, &old) in order.iter().enumerate() {
                perm[old] = slot;
            }
            encodings.push(sys.encoded(&sys.permute(s, &perm)));
        }
    });
    Oracle {
        candidates: encodings.len() as u64,
        exact,
        all_alike: encodings.iter().all(|e| *e == encodings[0]),
        bytes: encodings.into_iter().min().expect("the signature sort is a sorting permutation"),
    }
}

/// The first `cap` states of `sys` in breadth-first order.
fn reachable<T: TransitionSystem>(sys: &T, cap: usize) -> Vec<T::State> {
    let mut states = vec![sys.initial()];
    let mut seen: HashSet<Vec<u8>> = HashSet::from([sys.encoded(&states[0])]);
    let mut succs = Vec::new();
    let mut next = 0;
    while next < states.len() && states.len() < cap {
        sys.successors(&states[next].clone(), &mut succs).expect("reachable state executes");
        for (_, t) in succs.drain(..) {
            if seen.insert(sys.encoded(&t)) {
                states.push(t);
            }
        }
        next += 1;
    }
    states
}

/// What a sweep of [`check_against_oracle`] met.
#[derive(Default)]
struct Sweep {
    /// Distinct canonical encodings: the orbits among the states swept.
    orbits: HashSet<Vec<u8>>,
    /// States with an equal-signature group of two or more remotes.
    tied: usize,
    /// States with an inexact signature.
    inexact: usize,
    /// States whose sorting permutations do *not* all encode alike.
    order_matters: usize,
}

/// Holds `canonical_encode` against the oracle on every state of `states`:
/// same bytes, same `moved`, one candidate when every signature is exact
/// or the order is forced and the oracle's `Π gᵢ!` otherwise — and, the
/// lemma, exact signatures imply that all sorting permutations agree.
fn check_against_oracle<T: Symmetric>(sys: &T, states: &[T::State], context: &str) -> Sweep {
    let mut sweep = Sweep::default();
    let mut enc = Vec::new();
    for s in states {
        let o = oracle(sys, s);
        assert!(!o.exact || o.all_alike, "{context}: exact signatures, yet the tie order shows");
        let sample = canonical_encode(sys, s, &mut enc);
        assert_eq!(enc, o.bytes, "{context}: canonical bytes");
        assert_eq!(sample.moved, o.bytes != sys.encoded(s), "{context}: moved");
        assert_eq!(sample.candidates, if o.exact { 1 } else { o.candidates }, "{context}");
        sweep.tied += usize::from(o.candidates > 1);
        sweep.inexact += usize::from(!o.exact);
        sweep.order_matters += usize::from(!o.all_alike);
        sweep.orbits.insert(o.bytes);
    }
    sweep
}

/// The lemma behind the one-encoding fast path, on the specs it serves:
/// no remote of a permutable shipped spec ever holds another remote's id,
/// so every signature is exact, every tie (there are many — the sweeps
/// start at the fully symmetric initial state) collapses, and the bytes
/// are the oracle's.
#[test]
fn shipped_specs_have_exact_signatures_and_need_one_candidate() {
    for name in [
        "migratory.ccp",
        "migratory_gated.ccp",
        "migratory_broken.ccp",
        "token.ccp",
        "zoo_chain.ccp",
        "zoo_unsound_pair.ccp",
    ] {
        let spec = load(name);
        let refined = refine(&spec, &RefineOptions::default()).expect("shipped spec refines");
        for n in [3u32, 4] {
            let rv = RendezvousSystem::new(&spec, n);
            let asys = AsyncSystem::new(&refined, n, AsyncConfig::default());
            for sweep in [
                check_against_oracle(&rv, &reachable(&rv, 1_500), &format!("{name} rv n={n}")),
                check_against_oracle(&asys, &reachable(&asys, 1_500), &format!("{name} n={n}")),
            ] {
                assert_eq!(sweep.inexact, 0, "{name} n={n}: a remote holds another's id");
                assert!(sweep.tied > 0, "{name} n={n}: no tie met, the sweep shows nothing");
            }
        }
    }
}

/// The token protocol with the grant carrying the previous owner's id,
/// which the requester keeps: a remote-owned value naming *another*
/// remote, which a signature can only record as "someone else".
const FORWARD: &str = "\
protocol forward {
  messages req, gr, rel;
  home {
    var o: node := r0;
    var j: node := r0;
    state F init { r(* -> j) ? req -> G; }
    state G { r(j) ! gr (o) { o := j; } -> E; }
    state E { r(o) ? rel -> F; }
  }
  remote {
    var prev: node := r0;
    state I init { h ! req -> W; }
    state W { h ? gr (bind prev) -> V; }
    state V { h ! rel -> I; }
  }
}";

/// The two cases side by side, on initial states at three remotes where
/// remotes 1 and 2 tie (the home's owner variable singles out remote 0).
#[test]
fn ties_are_enumerated_only_under_an_inexact_signature() {
    let mut enc = Vec::new();
    // Token: no remote holds a node id at all, the tie costs nothing.
    let token = load("token.ccp");
    let sys = RendezvousSystem::new(&token, 3);
    let sample = canonical_encode(&sys, &sys.initial(), &mut enc);
    assert_eq!((sample.candidates, sample.moved), (1, false));
    assert_eq!(enc, sys.encoded(&sys.initial()));

    // Forward: remotes 1 and 2 both hold remote 0's id — "someone else"
    // in their signatures — so both orderings of the pair are encoded
    // and compared. (Self sorts after other: remote 0 moves to the end.)
    let forward = parse_validated(FORWARD).expect("forward parses");
    let sys = RendezvousSystem::new(&forward, 3);
    let s0 = sys.initial();
    let mut sig = Vec::new();
    assert!(sys.signature(&s0, 0, &mut sig), "remote 0 names only itself");
    assert!(!sys.signature(&s0, 1, &mut sig), "remote 1 names remote 0");
    let sample = canonical_encode(&sys, &s0, &mut enc);
    assert_eq!((sample.candidates, sample.moved), (2, true));
    assert_eq!(enc, sys.encoded(&sys.permute(&s0, &[2, 0, 1])));
}

/// The fallback: with inexact signatures the tie groups are enumerated as
/// before, the result is the oracle's on every reachable state, and the
/// quotient the engines explore has exactly the oracle's orbits.
#[test]
fn forwarding_spec_enumerates_ties_and_agrees_with_the_oracle() {
    let spec = parse_validated(FORWARD).expect("forward parses");
    assert!(ccr_mc::spec_permutable(&spec));
    let refined = refine(&spec, &RefineOptions::default()).expect("forward refines");
    let budget = Budget::states(100_000);

    fn assert_quotient<T: Symmetric>(sys: &T, budget: &Budget, context: &str) -> Sweep {
        let full = reachable(sys, usize::MAX);
        let sweep = check_against_oracle(sys, &full, context);
        let reduced = explore(&Reduced::new(sys), budget, |_| None, true);
        assert!(reduced.outcome.is_complete(), "{context}: {:?}", reduced.outcome);
        assert_eq!(reduced.states, sweep.orbits.len(), "{context}: orbits explored");
        assert!(sweep.inexact > 0 && sweep.tied > 0, "{context}: fallback not reached");
        sweep
    }
    for n in [3u32, 4] {
        let rv = RendezvousSystem::new(&spec, n);
        let sweep = assert_quotient(&rv, &budget, &format!("forward rv n={n}"));
        // Two idle remotes, one holding the other's id and one a third
        // remote's: equal signatures, yet swapping them changes the state.
        assert!(sweep.order_matters > 0, "forward rv n={n}: every tie was harmless");
    }
    let asys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
    assert_quotient(&asys, &budget, "forward async n=3");
}

/// A token protocol whose remotes hold their own ids: a request carries
/// its sender's id, and a remote granted the token adds itself to a set
/// it keeps. Every signature is exact — each remote names only itself —
/// yet a remote's segment of the encoding holds remote ids, so a key
/// derived from a parent's orbit must write it again under the
/// successor's renaming instead of copying the parent's bytes.
const SELF_NAMING: &str = "\
protocol self_naming {
  messages req, gr, rel;
  home {
    var o: node := r0;
    var who: node := r0;
    state F init { r(* -> o) ? req (bind who) -> G; }
    state G { r(o) ! gr -> E; }
    state E { r(o) ? rel -> F; }
  }
  remote {
    var held: mask := mask(0);
    state I init { h ! req (self) -> W; }
    state W { h ? gr { held := madd(held, self); } -> V; }
    state V { h ! rel -> I; }
  }
}";

/// A reduced exploration of `sys` that holds every key the sweep derives
/// from a parent's orbit to `canonical_encode`.
fn audit<T: Symmetric>(sys: &T, budget: &Budget, context: &str) -> DeriveAudit {
    let audited = Reduced::audited(sys);
    explore(&audited, budget, |_| None, true);
    let audit = audited.audit().expect("an audited wrapper");
    assert_eq!(audit.mismatch, None, "{context}");
    audit
}

/// Every key the reduced sweep derives from its parent's orbit is the
/// full canonicalization's, bytes and sample: on every permutable shipped
/// spec and on remotes that hold their own ids, at two to five remotes,
/// home-writing steps included; and on `FORWARD`, whose inexact
/// signatures must send some steps back to the full path.
#[test]
fn derived_keys_are_the_full_canonicalization() {
    let mut specs: Vec<(&str, ProtocolSpec)> = [
        "migratory.ccp",
        "migratory_gated.ccp",
        "migratory_broken.ccp",
        "token.ccp",
        "zoo_chain.ccp",
        "zoo_unsound_pair.ccp",
    ]
    .into_iter()
    .map(|name| (name, load(name)))
    .collect();
    specs.push(("self_naming", parse_validated(SELF_NAMING).expect("self_naming parses")));
    let (mut derived, mut home) = (0, 0);
    for (name, spec) in &specs {
        assert!(ccr_mc::spec_permutable(spec), "{name}");
        let refined = refine(spec, &RefineOptions::default()).expect("refines");
        for n in 2u32..=5 {
            let sys = AsyncSystem::new(&refined, n, AsyncConfig::default());
            let a = audit(&sys, &Budget::states(2_000), &format!("{name} n={n}"));
            assert!(a.derived > 0, "{name} n={n}: no key derived");
            (derived, home) = (derived + a.derived, home + a.home);
        }
    }
    assert!(0 < home && home < derived, "{home} of {derived} derived keys wrote the home");

    let forward = parse_validated(FORWARD).expect("forward parses");
    let refined = refine(&forward, &RefineOptions::default()).expect("forward refines");
    let sys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
    let a = audit(&sys, &Budget::states(2_000), "forward n=3");
    assert!(a.derived < a.steps, "forward: no step took the full path: {a:?}");
}

/// The same on 250 specs of the CI zoo stream, at three remotes.
#[test]
fn derived_keys_are_the_full_canonicalization_on_the_zoo() {
    let mut derived = 0;
    for index in 0..250 {
        let Ok(spec) = ZooSpec::generate(1998, index).build() else { continue };
        let Ok(refined) = refine(&spec, &RefineOptions::default()) else { continue };
        if ccr_mc::spec_permutable(&spec) {
            let sys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
            derived += audit(&sys, &Budget::states(300), &format!("zoo_1998_{index}")).derived;
        }
    }
    assert!(derived > 0, "no zoo spec derived a key");
}

/// Table 2 row C2 with a full buffer, built by hand as in
/// `crates/runtime/tests/table_rules.rs`: the one rule that writes two
/// remotes (the victim's link and the target's) besides the home, reached
/// by no shipped spec. Its key, derived from its parent's orbit, is the
/// full canonicalization's, and so is every other successor's.
#[test]
fn the_c2_victim_step_derives_its_key() {
    let spec = load("token.ccp");
    let refined = refine(&spec, &RefineOptions { reqrep: ReqRepMode::Off }).expect("refines");
    let sys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
    let req = spec.msg_by_name("req").expect("req");
    let mut s = sys.initial();
    s.home.phase = HomePhase::At(spec.home.state_by_name("G1").expect("G1"));
    for from in [RemoteId(1), RemoteId(2)] {
        s.home.buf.push(BufEntry { from, msg: req, val: None });
    }
    let parent_id = next_parent_id();
    let (mut scratch, mut derived, mut full) = (s.clone(), Vec::new(), Vec::new());
    let mut victim_steps = 0;
    sys.for_each_successor(&s, &mut scratch, |label, next, written| {
        let from = Origin { parent: &s, parent_id, written };
        let sample = derived_encode(&sys, next, from, &mut derived).expect("exact signatures");
        let canonical = canonical_encode(&sys, next, &mut full);
        assert_eq!((sample, &derived), (canonical, &full), "{}", label.rule);
        if written.remotes().is_some_and(|r| r.len() == 2) {
            assert_eq!((label.rule, written.home()), ("C2", true));
            victim_steps += 1;
        }
        ControlFlow::Continue(())
    })
    .expect("the state steps");
    assert_eq!(victim_steps, 1);
}

/// Every permutation of `0..n`, as `perm[i]` = the new index of remote `i`.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut all = Vec::new();
    for shorter in permutations(n - 1) {
        for at in 0..n {
            let mut perm: Vec<usize> = shorter.iter().map(|&p| p + usize::from(p >= at)).collect();
            perm.push(at);
            all.push(perm);
        }
    }
    all
}

/// Holds `abs(π·q)` to `π·abs(q)` on the first `cap` states of the
/// asynchronous system `refined` derives at `n` remotes, for every
/// permutation `π` of the remotes: `π·q` is built by the asynchronous
/// renamed writer and read back, `π·abs(q)` is written by the rendezvous
/// one. Returns the (state, permutation) pairs checked.
fn assert_abs_commutes_with_renaming(
    spec: &ProtocolSpec,
    refined: &ccr_core::refine::RefinedProtocol,
    n: u32,
    cap: usize,
    context: &str,
) -> usize {
    let asys = AsyncSystem::new(refined, n, AsyncConfig::default());
    let rv = RendezvousSystem::new(spec, n);
    let (mut bytes, mut want, mut got) = (Vec::new(), Vec::new(), Vec::new());
    let mut renamed = asys.initial();
    let mut pairs = 0;
    for q in reachable(&asys, cap) {
        let image = abs(&asys, &q);
        for perm in permutations(n as usize) {
            let mut order = vec![0; perm.len()];
            for (old, &slot) in perm.iter().enumerate() {
                order[slot] = old;
            }
            let pi = Perm::new(&perm, &order);
            bytes.clear();
            asys.encode_renamed(&q, &pi, &mut bytes);
            assert!(asys.restore_into(&bytes, &mut renamed), "{context}: π·q reads back");
            match (&image, abs(&asys, &renamed)) {
                (Ok(image), Ok(renamed_image)) => {
                    want.clear();
                    rv.encode_renamed(image, &pi, &mut want);
                    rv.encode(&renamed_image, &mut got);
                    assert_eq!(
                        got, want,
                        "{context}: abs(π·q) != π·abs(q) for π = {perm:?}, q = {q:?}"
                    );
                }
                (Err(_), Err(_)) => {}
                (image, renamed_image) => panic!(
                    "{context}: abs fails on one side only for π = {perm:?}: \
                     {image:?} vs {renamed_image:?}"
                ),
            }
            pairs += 1;
        }
    }
    pairs
}

/// The premise of Equation 1 on the quotient (`docs/symmetry.md`):
/// renaming the remotes of a reachable asynchronous state renames its
/// abstraction the same way, on every reachable state of every
/// permutable shipped spec at two and three remotes, under every
/// permutation.
#[test]
fn abs_commutes_with_remote_renaming_on_the_shipped_specs() {
    let mut pairs = 0;
    for name in [
        "migratory.ccp",
        "migratory_broken.ccp",
        "migratory_gated.ccp",
        "token.ccp",
        "zoo_chain.ccp",
        "zoo_unsound_pair.ccp",
    ] {
        let spec = load(name);
        assert!(ccr_mc::spec_permutable(&spec), "{name}");
        let refined = refine(&spec, &RefineOptions::default()).expect("refines");
        for n in [2u32, 3] {
            let context = format!("{name} n={n}");
            pairs += assert_abs_commutes_with_renaming(&spec, &refined, n, usize::MAX, &context);
        }
    }
    assert!(pairs > 100_000, "{pairs}");
}

/// The same on the permutable specs of a seeded zoo sample, at three
/// remotes, on a prefix of each space.
#[test]
fn abs_commutes_with_remote_renaming_on_the_zoo() {
    let mut specs = 0;
    for index in 0..100 {
        let Ok(spec) = ZooSpec::generate(34, index).build() else { continue };
        let Ok(refined) = refine(&spec, &RefineOptions::default()) else { continue };
        if ccr_mc::spec_permutable(&spec) {
            assert_abs_commutes_with_renaming(&spec, &refined, 3, 300, &format!("zoo_34_{index}"));
            specs += 1;
        }
    }
    assert!(specs > 20, "{specs} permutable zoo specs");
}
