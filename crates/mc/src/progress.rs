//! Forward-progress (livelock) checking — the §2.5 criterion.
//!
//! The refinement promises that *some* remote always makes progress
//! (weak fairness): no reachable asynchronous configuration may be one from
//! which rendezvous completions become unreachable. We check the CTL-style
//! property `AG EF complete`: explore the state graph, mark every state
//! with an outgoing *completing* transition, and propagate reachability
//! backwards; any state left unmarked is a livelock witness, and any state
//! with no successors at all is a deadlock.
//!
//! The reverse graph is stored in flat CSR form (an offsets array plus a
//! targets array, two `Vec<u32>`s) rather than one `Vec` per state: edges
//! are collected as `(dst, src)` pairs during the forward sweep and
//! bucketed by a counting sort afterwards, so the backward BFS walks one
//! contiguous slice per state instead of chasing per-state heap
//! allocations.
//!
//! The forward sweep is not this module's: on the serial engine the
//! check is a checker on the one serial sweep (`search::drive`) that
//! keeps the edge list and two flags per state; on the multi-threaded
//! engine of
//! [`crate::parallel`] the workers record reverse edges and per-state
//! flags during the level-synchronized sweep, and shard-local state
//! indices are renumbered to dense global ids by prefix sums afterwards.
//! Either way the backward propagation runs single-threaded on the CSR
//! (it is a fraction of the forward-sweep cost).
//! [`crate::search::Search::progress`] picks the engine.

use crate::parallel::{
    self, pack, unpack, ParallelConfig, FLAG_EXPANDED, FLAG_HAS_SUCC, FLAG_PROGRESS,
};
use crate::report::{Outcome, ProgressReport};
use crate::search::{drive, record_search_run, Budget, Checker, Search, SearchObserver};
use crate::trace::{conclude_with_trail, rebuild_trail};
use ccr_metrics::profile::SpanKind;
use ccr_runtime::{Label, TransitionSystem};
use ccr_trace::NullSink;
use std::collections::VecDeque;

/// Builds the CSR adjacency `(offsets, targets)` over `n` nodes from
/// `(node, target)` pairs — for the reverse graph, `node` is the edge's
/// destination and `target` its source.
fn build_csr(n: usize, edges: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0u32; n + 1];
    for &(node, _) in edges {
        offsets[node as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    let mut targets = vec![0u32; edges.len()];
    for &(node, tgt) in edges {
        let c = &mut cursor[node as usize];
        targets[*c as usize] = tgt;
        *c += 1;
    }
    (offsets, targets)
}

/// Backward BFS over a reverse-graph CSR: marks every state from which a
/// `seed`-marked state is forward-reachable.
fn propagate_good(n: usize, offsets: &[u32], targets: &[u32], seed: &[bool]) -> Vec<bool> {
    let mut good = vec![false; n];
    let mut bfs: VecDeque<u32> = VecDeque::new();
    for (i, &p) in seed.iter().enumerate().take(n) {
        if p {
            good[i] = true;
            bfs.push_back(i as u32);
        }
    }
    while let Some(i) = bfs.pop_front() {
        let (s, e) = (offsets[i as usize] as usize, offsets[i as usize + 1] as usize);
        for &p in &targets[s..e] {
            if !good[p as usize] {
                good[p as usize] = true;
                bfs.push_back(p);
            }
        }
    }
    good
}

/// What the progress check keeps of the serial sweep: the reverse graph
/// as a flat `(dst, src)` edge list — CSR-bucketed after the sweep — and,
/// per state, whether it has a successor and whether one of its edges is
/// a progress event.
struct ForwardGraph<G> {
    is_progress: G,
    edges: Vec<(u32, u32)>,
    has_progress_edge: Vec<bool>,
    has_successor: Vec<bool>,
    /// States whose expansion began. Only these have complete successor
    /// information; unexpanded frontier states are not judged.
    expanded: usize,
}

impl<T: TransitionSystem, G: Fn(&Label) -> bool> Checker<T> for ForwardGraph<G> {
    fn on_new(&mut self, _state: &T::State, _idx: u32) -> Option<Outcome> {
        self.has_progress_edge.push(false);
        self.has_successor.push(false);
        None
    }

    fn on_expand(&mut self, _state: &T::State, idx: u32) -> Option<Outcome> {
        // A breadth-first sweep expands states in index order.
        self.expanded = idx as usize + 1;
        None
    }

    fn on_insert(&mut self, src: u32, label: &Label, dst: u32, _is_new: bool) {
        self.has_successor[src as usize] = true;
        self.edges.push((dst, src));
        if (self.is_progress)(label) {
            self.has_progress_edge[src as usize] = true;
        }
    }
}

/// The progress check on the serial engine: explores `sys` and checks
/// that from every reachable state a transition `is_progress` accepts
/// remains reachable. `obs` receives periodic heartbeats during the
/// forward exploration, and when the check fails the witness trail
/// (shortest path to the first stuck state) is exported to the observer's
/// sink as a replayed event stream.
pub(crate) fn serial<T: TransitionSystem>(
    sys: &T,
    budget: &Budget,
    is_progress: impl Fn(&Label) -> bool,
    obs: &mut SearchObserver<'_>,
) -> ProgressReport {
    let mut graph = ForwardGraph {
        is_progress,
        edges: Vec::new(),
        has_progress_edge: Vec::new(),
        has_successor: Vec::new(),
        expanded: 0,
    };
    let run = drive(sys, budget, &mut graph, false, true, obs, None);
    let complete = run.outcome.is_complete();
    let ForwardGraph { edges, has_progress_edge, has_successor, expanded, .. } = graph;

    // Backward propagation from progress states over the CSR reverse
    // graph.
    let mut timer = obs.telemetry().profiler.worker(0);
    let n = run.store.len();
    let (offsets, targets) = build_csr(n, &edges);
    drop(edges);
    record_search_run(&obs.telemetry().registry, n, run.transitions, run.peak_frontier, &run.store);
    let good = propagate_good(n, &offsets, &targets, &has_progress_edge);
    timer.lap(SpanKind::Progress, 1);

    let deadlocked = (0..expanded).filter(|&i| !has_successor[i]).count();
    let livelocked = (0..expanded).filter(|&i| has_successor[i] && !good[i]).count();

    // Witness: shortest trail (BFS order = insertion order) to the first
    // stuck state of either kind.
    let first_dead = (0..expanded).find(|&i| !has_successor[i]);
    let first_live = (0..expanded).find(|&i| has_successor[i] && !good[i]);
    let bad = match (first_dead, first_live) {
        (Some(d), Some(l)) => {
            Some(if d <= l { (d, Outcome::Deadlock) } else { (l, Outcome::Livelock) })
        }
        (Some(d), None) => Some((d, Outcome::Deadlock)),
        (None, Some(l)) => Some((l, Outcome::Livelock)),
        (None, None) => None,
    };
    let (witness, witness_outcome) = match bad {
        Some((idx, out)) => (Some(rebuild_trail(sys, &run.parents, idx as u32)), Some(out)),
        None => (None, None),
    };
    conclude(sys, complete, witness.as_deref(), witness_outcome.as_ref(), obs);

    ProgressReport {
        states: n,
        livelocked_states: livelocked,
        deadlocked_states: deadlocked,
        complete,
        witness,
        witness_outcome,
    }
}

/// The check's ending on the observer's sink, shared by both engines:
/// the witness replayed as an event stream ending with its outcome, or
/// the bare `Complete`/`Unfinished` event when nothing is stuck.
fn conclude<T: TransitionSystem>(
    sys: &T,
    complete: bool,
    witness: Option<&[Label]>,
    witness_outcome: Option<&Outcome>,
    obs: &mut SearchObserver<'_>,
) {
    let swept = if complete { Outcome::Complete } else { Outcome::Unfinished };
    conclude_with_trail(sys, witness_outcome.unwrap_or(&swept), witness, obs);
}

/// [`Search::progress`] on the serial engine, with heartbeats and
/// witness export to `obs`. Kept for `benchmark/src/layers.rs`
/// (`benchmark/README.md`, "Entry points into `ccr-*`").
#[doc(hidden)]
pub fn check_progress_observed<T>(
    sys: &T,
    budget: &Budget,
    is_progress: impl Fn(&Label) -> bool + Sync,
    obs: &mut SearchObserver<'_>,
) -> ProgressReport
where
    T: TransitionSystem + Sync,
    T::State: Send,
{
    Search::default().progress(sys, budget, is_progress, obs)
}

/// Convenience: the serial check, unobserved, with progress = any
/// completed rendezvous (`label.completes.is_some()`).
pub fn check_progress_default<T: TransitionSystem>(sys: &T, budget: &Budget) -> ProgressReport {
    let mut null = NullSink;
    let mut obs = SearchObserver::new(&mut null);
    serial(sys, budget, |l| l.completes.is_some(), &mut obs)
}

/// The progress check on the multi-threaded engine: the forward sweep
/// runs level-synchronized across `cfg.threads` workers (reverse edges
/// and per-state flags recorded shard-locally), then the backward
/// propagation runs single-threaded on the merged CSR.
///
/// On a complete exploration the counts (`states`, `livelocked_states`,
/// `deadlocked_states`) equal the serial checker's at any thread count.
/// The witness is the minimal stuck state by `(depth, encoded state)` —
/// deterministic across thread counts, always a shortest-depth witness,
/// though possibly a different same-depth state than the serial checker
/// picks.
pub(crate) fn sharded<T, G>(
    sys: &T,
    budget: &Budget,
    is_progress: G,
    cfg: &ParallelConfig,
    obs: &mut SearchObserver<'_>,
) -> ProgressReport
where
    T: TransitionSystem + Sync,
    T::State: Send,
    G: Fn(&Label) -> bool + Sync,
{
    let invariant = |_: &T::State| None::<String>;
    let engine = parallel::Engine::new(
        sys,
        budget,
        &invariant,
        Some(&is_progress),
        false,
        cfg,
        &obs.telemetry().registry,
        &obs.telemetry().profiler,
    );
    let (outcome, _, edges) = parallel::run(&engine, obs);
    let complete = outcome.is_complete();
    // The single-threaded graph pass below (renumber, CSR, propagate) is
    // the progress check's own cost — charge it to the coordinator.
    let mut timer = obs.telemetry().profiler.worker(0);

    // Renumber shard-local indices to dense global ids by prefix sums,
    // and pull each shard's flags and depths into flat arrays.
    let n_shards = engine.stripes.len();
    let mut base = vec![0u32; n_shards + 1];
    let mut flags: Vec<u8> = Vec::new();
    let mut depths: Vec<u32> = Vec::new();
    for (s, stripe) in engine.stripes.iter().enumerate() {
        let sh = stripe.lock().expect("stripe");
        base[s + 1] = base[s] + sh.store.len() as u32;
        flags.extend_from_slice(&sh.flags);
        depths.extend_from_slice(&sh.depth);
    }
    let n = base[n_shards] as usize;
    let to_global = |r: u64| {
        let (s, i) = unpack(r);
        base[s] + i
    };

    let mapped: Vec<(u32, u32)> =
        edges.iter().map(|&(d, s)| (to_global(d), to_global(s))).collect();
    drop(edges);
    let (offsets, targets) = build_csr(n, &mapped);
    drop(mapped);
    let seed: Vec<bool> = flags.iter().map(|f| f & FLAG_PROGRESS != 0).collect();
    let good = propagate_good(n, &offsets, &targets, &seed);
    timer.lap(SpanKind::Progress, 1);

    // Judge only expanded states, as in the serial checker.
    let mut deadlocked = 0usize;
    let mut livelocked = 0usize;
    for i in 0..n {
        if flags[i] & FLAG_EXPANDED == 0 {
            continue;
        }
        if flags[i] & FLAG_HAS_SUCC == 0 {
            deadlocked += 1;
        } else if !good[i] {
            livelocked += 1;
        }
    }

    // Witness: minimal stuck state by (depth, encoded bytes, kind), one
    // candidate per shard then a global minimum.
    let mut best: Option<(u32, Vec<u8>, u8, u64)> = None;
    for (s, stripe) in engine.stripes.iter().enumerate() {
        let sh = stripe.lock().expect("stripe");
        for i in 0..sh.store.len() as u32 {
            let gi = (base[s] + i) as usize;
            let f = flags[gi];
            if f & FLAG_EXPANDED == 0 {
                continue;
            }
            let rank = if f & FLAG_HAS_SUCC == 0 {
                0u8
            } else if !good[gi] {
                1u8
            } else {
                continue;
            };
            let d = depths[gi];
            if let Some((bd, _, _, _)) = &best {
                if d > *bd {
                    continue;
                }
            }
            let enc = sh.store.key_bytes(i).map(<[u8]>::to_vec).unwrap_or_default();
            let cand = (d, enc, rank, pack(s, i));
            let better = match &best {
                None => true,
                Some(b) => (cand.0, &cand.1, cand.2) < (b.0, &b.1, b.2),
            };
            if better {
                best = Some(cand);
            }
        }
    }
    let (witness, witness_outcome) = match best {
        Some((_, _, rank, state_ref)) => {
            let out = if rank == 0 { Outcome::Deadlock } else { Outcome::Livelock };
            (Some(engine.trail_to(state_ref)), Some(out))
        }
        None => (None, None),
    };

    conclude(sys, complete, witness.as_deref(), witness_outcome.as_ref(), obs);

    ProgressReport {
        states: n,
        livelocked_states: livelocked,
        deadlocked_states: deadlocked,
        complete,
        witness,
        witness_outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_core::builder::ProtocolBuilder;
    use ccr_core::expr::Expr;
    use ccr_core::ids::RemoteId;
    use ccr_core::refine::{refine, RefineOptions};
    use ccr_core::value::Value;
    use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
    use ccr_runtime::rendezvous::RendezvousSystem;

    /// The check on `threads` workers (0 = serial), unobserved.
    fn check_progress<T, G>(sys: &T, is_progress: G, threads: usize) -> ProgressReport
    where
        T: TransitionSystem + Sync,
        T::State: Send,
        G: Fn(&Label) -> bool + Sync,
    {
        let mut null = NullSink;
        let mut obs = SearchObserver::new(&mut null);
        Search { threads, ..Search::default() }.progress(
            sys,
            &Budget::default(),
            is_progress,
            &mut obs,
        )
    }

    fn token_spec() -> ccr_core::process::ProtocolSpec {
        let mut b = ProtocolBuilder::new("token");
        let req = b.msg("req");
        let gr = b.msg("gr");
        let rel = b.msg("rel");
        let o = b.home_var("o", Value::Node(RemoteId(0)));
        let f = b.home_state("F");
        let g1 = b.home_state("G1");
        let e = b.home_state("E");
        b.home(f).recv_any(req).bind_sender(o).goto(g1);
        b.home(g1).send_to(Expr::Var(o), gr).goto(e);
        b.home(e).recv_exact(rel, Expr::Var(o)).goto(f);
        let i = b.remote_state("I");
        let w = b.remote_state("W");
        let v = b.remote_state("V");
        b.remote(i).send(req).goto(w);
        b.remote(w).recv(gr).goto(v);
        b.remote(v).send(rel).goto(i);
        b.finish().unwrap()
    }

    #[test]
    fn rendezvous_token_has_progress_everywhere() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 2);
        let r = check_progress_default(&sys, &Budget::default());
        assert!(r.complete);
        assert!(r.holds(), "{r:?}");
    }

    #[test]
    fn async_token_has_progress_with_minimal_buffer() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        let r = check_progress_default(&sys, &Budget::default());
        assert!(r.complete, "exploration should finish: {r:?}");
        assert!(r.holds(), "k=2 must preserve global progress: {r:?}");
    }

    #[test]
    fn deadlocked_spec_is_flagged() {
        let mut b = ProtocolBuilder::new("dead");
        let m = b.msg("m");
        let never = b.msg("never");
        let h = b.home_state("H");
        b.home(h).recv_any(m).goto(h);
        let r0 = b.remote_state("R0");
        let r1 = b.remote_state("R1");
        b.remote(r0).send(m).goto(r1);
        b.remote(r1).recv(never).goto(r0);
        let spec = b.finish().unwrap();
        let sys = RendezvousSystem::new(&spec, 1);
        let r = check_progress_default(&sys, &Budget::default());
        assert!(r.complete);
        assert!(!r.holds());
        assert!(r.deadlocked_states > 0);
    }

    #[test]
    fn deadlock_witness_replays_to_a_stuck_state() {
        let mut b = ProtocolBuilder::new("dead");
        let m = b.msg("m");
        let never = b.msg("never");
        let h = b.home_state("H");
        b.home(h).recv_any(m).goto(h);
        let r0 = b.remote_state("R0");
        let r1 = b.remote_state("R1");
        b.remote(r0).send(m).goto(r1);
        b.remote(r1).recv(never).goto(r0);
        let spec = b.finish().unwrap();
        let sys = RendezvousSystem::new(&spec, 1);
        let r = check_progress_default(&sys, &Budget::default());
        assert_eq!(r.witness_outcome, Some(Outcome::Deadlock));
        let trail = r.witness.expect("witness trail");
        let end = crate::trace::replay_trail(&sys, &trail).expect("witness replays");
        let mut succs = Vec::new();
        sys.successors(&end, &mut succs).unwrap();
        assert!(succs.is_empty(), "witness leads to a state with no successors");
    }

    #[test]
    fn healthy_spec_has_no_witness() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 2);
        let r = check_progress_default(&sys, &Budget::default());
        assert!(r.holds());
        assert!(r.witness.is_none());
        assert!(r.witness_outcome.is_none());
    }

    #[test]
    fn budget_marks_incomplete() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 3);
        let r = check_progress_default(&sys, &Budget::states(2));
        assert!(!r.complete);
        assert!(!r.holds());
    }

    #[test]
    fn csr_regression_no_progress_notion_marks_everything_livelocked() {
        // With no label counting as progress, every state that has
        // successors is livelocked and the witness is the initial state
        // (empty trail) — pins the CSR backward propagation against the
        // old per-state adjacency-list behavior.
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 2);
        let r = check_progress(&sys, |_| false, 0);
        assert!(r.complete);
        assert_eq!(r.states, 6);
        assert_eq!(r.livelocked_states, r.states);
        assert_eq!(r.deadlocked_states, 0);
        assert_eq!(r.witness_outcome, Some(Outcome::Livelock));
        assert_eq!(r.witness.as_deref(), Some(&[][..]), "initial state is the first witness");
    }

    #[test]
    fn parallel_progress_matches_serial_on_healthy_specs() {
        let spec = token_spec();
        for n in [2u32, 3] {
            let sys = RendezvousSystem::new(&spec, n);
            let serial = check_progress_default(&sys, &Budget::default());
            for threads in [1usize, 2, 4] {
                let par = check_progress(&sys, |l| l.completes.is_some(), threads);
                assert_eq!(par.states, serial.states, "n={n} t={threads}");
                assert_eq!(par.livelocked_states, serial.livelocked_states, "n={n} t={threads}");
                assert_eq!(par.deadlocked_states, serial.deadlocked_states, "n={n} t={threads}");
                assert!(par.complete && par.holds(), "n={n} t={threads}");
                assert!(par.witness.is_none());
            }
        }
    }

    #[test]
    fn parallel_progress_on_async_refinement_matches_serial() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        let serial = check_progress_default(&sys, &Budget::default());
        let par = check_progress(&sys, |l| l.completes.is_some(), 4);
        assert_eq!(par.states, serial.states);
        assert_eq!(par.livelocked_states, serial.livelocked_states);
        assert_eq!(par.deadlocked_states, serial.deadlocked_states);
        assert_eq!(par.holds(), serial.holds());
    }

    #[test]
    fn parallel_progress_finds_deadlock_and_witness_replays() {
        let mut b = ProtocolBuilder::new("dead");
        let m = b.msg("m");
        let never = b.msg("never");
        let h = b.home_state("H");
        b.home(h).recv_any(m).goto(h);
        let r0 = b.remote_state("R0");
        let r1 = b.remote_state("R1");
        b.remote(r0).send(m).goto(r1);
        b.remote(r1).recv(never).goto(r0);
        let spec = b.finish().unwrap();
        let sys = RendezvousSystem::new(&spec, 2);
        let serial = check_progress_default(&sys, &Budget::default());
        let mut reference: Option<(usize, usize, usize)> = None;
        for threads in [1usize, 2, 4] {
            let par = check_progress(&sys, |l| l.completes.is_some(), threads);
            assert_eq!(par.states, serial.states, "t={threads}");
            assert_eq!(par.deadlocked_states, serial.deadlocked_states, "t={threads}");
            assert_eq!(par.livelocked_states, serial.livelocked_states, "t={threads}");
            assert_eq!(par.witness_outcome, Some(Outcome::Deadlock), "t={threads}");
            let trail = par.witness.clone().expect("witness trail");
            let end = crate::trace::replay_trail(&sys, &trail).expect("witness replays");
            let mut succs = Vec::new();
            sys.successors(&end, &mut succs).unwrap();
            assert!(succs.is_empty(), "witness leads to a stuck state");
            let key = (par.states, par.deadlocked_states, trail.len());
            match &reference {
                None => reference = Some(key),
                Some(r) => assert_eq!(&key, r, "t={threads}"),
            }
        }
    }
}
