//! Property-based random walks through the asynchronous semantics at
//! configurations too large for exhaustive checking: every visited state
//! must abstract cleanly (the §4 function is total on reachable states),
//! every step must satisfy Equation 1 locally, and the executor must never
//! report a runtime error. The same walks pin the reader, `restore_into`,
//! on the two byte forms a state has — the snapshot a pending state waits
//! as, and its key, which it refills a state the sweep already holds from.

use ccr_core::refine::{refine, RefineOptions, ReqRepMode};
use ccr_runtime::abstraction::abs;
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_runtime::{FaultClosure, TransitionSystem};
use proptest::prelude::*;

mod common {
    use ccr_core::builder::ProtocolBuilder;
    use ccr_core::expr::Expr;
    use ccr_core::ids::RemoteId;
    use ccr_core::process::ProtocolSpec;
    use ccr_core::value::Value;

    /// A compact migratory-like protocol (token with revocation) that
    /// exercises both request/reply forms.
    pub fn mini_migratory() -> ProtocolSpec {
        let mut b = ProtocolBuilder::new("mini");
        let req = b.msg("req");
        let gr = b.msg("gr");
        let inv = b.msg("inv");
        let done = b.msg("done");
        let o = b.home_var("o", Value::Node(RemoteId(0)));
        let j = b.home_var("j", Value::Node(RemoteId(0)));
        let f = b.home_state("F");
        let g1 = b.home_state("G1");
        let e = b.home_state("E");
        let rv = b.home_state("RV");
        let rv2 = b.home_state("RV2");
        b.home(f).recv_any(req).bind_sender(j).goto(g1);
        b.home(g1).send_to(Expr::Var(j), gr).assign(o, Expr::Var(j)).goto(e);
        b.home(e).recv_any(req).bind_sender(j).goto(rv);
        b.home(rv).send_to(Expr::Var(o), inv).goto(rv2);
        b.home(rv2).recv_exact(done, Expr::Var(o)).goto(g1);
        let rq = b.remote_state("RQ");
        let w = b.remote_state("W");
        let v = b.remote_state("V");
        let d = b.remote_state("D");
        b.remote(rq).send(req).goto(w);
        b.remote(w).recv(gr).goto(v);
        b.remote(v).recv(inv).goto(d);
        b.remote(d).send(done).goto(rq);
        b.finish().unwrap()
    }
}

fn walk_checks(seed: u64, n: u32, steps: usize, mode: ReqRepMode, k: usize) {
    let spec = common::mini_migratory();
    let refined = refine(&spec, &RefineOptions { reqrep: mode }).unwrap();
    let rv = RendezvousSystem::new(&spec, n);
    let asys = AsyncSystem::new(&refined, n, AsyncConfig::with_home_buffer(k));
    let mut state = asys.initial();
    let mut succs = Vec::new();
    let mut rv_succs = Vec::new();
    let mut x = seed | 1;
    for step in 0..steps {
        let a = abs(&asys, &state).unwrap_or_else(|e| panic!("abs failed at step {step}: {e}"));
        let a_enc = rv.encoded(&a);
        asys.successors(&state, &mut succs)
            .unwrap_or_else(|e| panic!("executor error at step {step}: {e}"));
        assert!(!succs.is_empty(), "asynchronous deadlock at step {step}");
        // xorshift for reproducible pseudo-random choice
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let (label, next) = succs.swap_remove((x as usize) % succs.len());
        let a2 = abs(&asys, &next)
            .unwrap_or_else(|e| panic!("abs failed after {} at step {step}: {e}", label.rule));
        let a2_enc = rv.encoded(&a2);
        if a_enc != a2_enc {
            rv.successors(&a, &mut rv_succs).unwrap();
            let ok = rv_succs.iter().any(|(_, s)| rv.encoded(s) == a2_enc);
            assert!(ok, "Equation 1 violated by rule {} at step {step}", label.rule);
        }
        state = next;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Equation 1 holds along random walks at n=4 (beyond exhaustive
    /// checking), optimized refinement, minimal buffer.
    #[test]
    fn equation_one_on_walks_optimized(seed in any::<u64>()) {
        walk_checks(seed, 4, 400, ReqRepMode::Auto, 2);
    }

    /// Same without the request/reply optimization.
    #[test]
    fn equation_one_on_walks_unoptimized(seed in any::<u64>()) {
        walk_checks(seed, 3, 300, ReqRepMode::Off, 2);
    }

    /// Same with a larger home buffer.
    #[test]
    fn equation_one_on_walks_large_buffer(seed in any::<u64>()) {
        walk_checks(seed, 4, 300, ReqRepMode::Auto, 5);
    }
}

/// One xorshift step: the walks' reproducible pseudo-random choice.
fn xorshift(x: &mut u64) -> usize {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x as usize
}

/// Walks `sys` from its initial state and, at every state on the way,
/// requires `restore_into(snapshot_into(s)) == s` — restoring over the
/// state visited before, so nothing left behind in the target may show.
fn walk_round_trips<T: TransitionSystem>(sys: &T, seed: u64, steps: usize)
where
    T::State: std::fmt::Debug,
{
    let mut state = sys.initial();
    let mut restored = sys.initial();
    let mut succs = Vec::new();
    let mut bytes = Vec::new();
    let mut x = seed | 1;
    for step in 0..steps {
        sys.snapshot_into(&state, &mut bytes);
        assert!(sys.restore_into(&bytes, &mut restored), "step {step}: snapshot rejected");
        assert_eq!(restored, state, "step {step}");
        sys.successors(&state, &mut succs).unwrap();
        if succs.is_empty() {
            return;
        }
        state = succs.swap_remove(xorshift(&mut x) % succs.len()).1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A pending state's snapshot restores to that state, at both levels
    /// and under faults — where the ledger must come back in the order it
    /// was in, which its key does not keep.
    #[test]
    fn snapshots_restore_along_walks(seed in any::<u64>(), faults in 1u32..4) {
        let spec = common::mini_migratory();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let asys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
        walk_round_trips(&RendezvousSystem::new(&spec, 4), seed, 100);
        walk_round_trips(&asys, seed, 300);
        walk_round_trips(&FaultClosure::new(asys, faults), seed, 300);
    }
}

/// Every reachable state of `sys`, breadth-first.
fn reachable<T: TransitionSystem>(sys: &T) -> Vec<T::State> {
    let mut seen = std::collections::HashSet::new();
    let mut states = vec![sys.initial()];
    seen.insert(sys.encoded(&states[0]));
    let mut succs = Vec::new();
    let mut at = 0;
    while at < states.len() {
        sys.successors(&states[at], &mut succs).unwrap();
        for (_, next) in succs.drain(..) {
            if seen.insert(sys.encoded(&next)) {
                states.push(next);
            }
        }
        at += 1;
    }
    states
}

/// `restore_into` is the one reader of a system's byte layout: on every
/// reachable state it must give back the state — over whatever the target
/// held, and over a fresh initial state — and it must reject every strict
/// prefix of an encoding and anything after one.
fn restore_into_inverts_encode<T: TransitionSystem>(sys: &T)
where
    T::State: std::fmt::Debug,
{
    let states = reachable(sys);
    assert!(states.len() > 10, "{} states", states.len());
    // Every state is decoded over what the rejected inputs of the one
    // before it left behind.
    let mut into = states[states.len() / 2].clone();
    for s in &states {
        let mut bytes = sys.encoded(s);
        assert!(sys.restore_into(&bytes, &mut into));
        assert_eq!(&into, s);
        let mut fresh = sys.initial();
        assert!(sys.restore_into(&bytes, &mut fresh));
        assert_eq!(&fresh, s);
        for cut in 0..bytes.len() {
            assert!(!sys.restore_into(&bytes[..cut], &mut into), "prefix of {cut} bytes accepted");
        }
        bytes.push(0);
        assert!(!sys.restore_into(&bytes, &mut into), "trailing byte accepted");
    }
}

#[test]
fn restore_into_inverts_encode_on_every_reachable_state() {
    let spec = common::mini_migratory();
    restore_into_inverts_encode(&RendezvousSystem::new(&spec, 3));
    for mode in [ReqRepMode::Auto, ReqRepMode::Off] {
        let refined = refine(&spec, &RefineOptions { reqrep: mode }).unwrap();
        restore_into_inverts_encode(&AsyncSystem::new(&refined, 2, AsyncConfig::default()));
        // A buffer past its inline room is read back through the heap.
        restore_into_inverts_encode(&AsyncSystem::new(
            &refined,
            3,
            AsyncConfig::with_home_buffer(4),
        ));
    }
}

#[test]
fn walks_are_deterministic_given_seed() {
    // The walk itself is a deterministic function of the seed — rerunning
    // must traverse identical states (guards the executor against hidden
    // nondeterminism such as hash-map iteration order).
    let spec = common::mini_migratory();
    let refined = refine(&spec, &RefineOptions::default()).unwrap();
    let asys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
    let run = |seed: u64| -> Vec<Vec<u8>> {
        let mut state = asys.initial();
        let mut succs = Vec::new();
        let mut out = Vec::new();
        let mut x = seed | 1;
        for _ in 0..200 {
            asys.successors(&state, &mut succs).unwrap();
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (_, next) = succs.swap_remove((x as usize) % succs.len());
            out.push(asys.encoded(&next));
            state = next;
        }
        out
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}
