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
//! The sweep records the graph forward, in flat CSR form, as it goes: a
//! breadth-first sweep expands states in index order, so per expanded
//! state one `u32` offset and per transition one `u32` target — the
//! successor lists back to back — is the whole adjacency, plus one
//! progress flag per state. Whether a state has a successor is read off
//! its offsets. The check turns it into the reverse CSR (an offsets
//! array plus a sources array, bucketed by a counting sort) for the
//! backward BFS, which walks one contiguous slice per state instead of
//! chasing per-state heap allocations.
//!
//! The forward graph is also the witness's parent table: states are
//! numbered in discovery order, so a state's first appearance among the
//! targets is the edge the sweep first reached it by. The witness is read
//! off it and replayed on the system; nothing else is kept per state.
//!
//! The forward sweep is not this module's: the check is a checker on the
//! one sweep (`search::drive`) — at every thread count, since
//! [`crate::search::Search::threads`] only moves successor generation off
//! the sweep's thread — and it need not be a sweep of its own either:
//! [`crate::search::Search::verify`] records the same [`ProgressGraph`]
//! off the exploration's sweep. The backward propagation runs
//! single-threaded on the CSR (it is a fraction of the forward-sweep
//! cost), whenever the graph's owner asks for the report.

use crate::report::{Outcome, ProgressReport};
use crate::search::{
    drive, record_search_run, Budget, Checker, DriveRun, Inline, Search, SearchObserver,
};
use crate::trace::{conclude_with_trail, trail_along};
use ccr_metrics::profile::SpanKind;
use ccr_runtime::{Label, TransitionSystem};
use ccr_trace::NullSink;
use std::collections::VecDeque;

/// The reverse of the forward CSR `(offsets, targets)` over `n` nodes —
/// node `i`'s successors are `targets[offsets[i]..offsets[i + 1]]`, for
/// the `offsets.len() - 1` nodes that have a list — as a CSR of its own:
/// node `j`'s predecessors, in the order the forward lists name them.
fn reverse_csr(n: usize, offsets: &[u32], targets: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut rev = vec![0u32; n + 1];
    for &t in targets {
        rev[t as usize + 1] += 1;
    }
    for i in 0..n {
        rev[i + 1] += rev[i];
    }
    let mut cursor: Vec<u32> = rev[..n].to_vec();
    let mut sources = vec![0u32; targets.len()];
    for (src, w) in offsets.windows(2).enumerate() {
        for &t in &targets[w[0] as usize..w[1] as usize] {
            let c = &mut cursor[t as usize];
            sources[*c as usize] = src as u32;
            *c += 1;
        }
    }
    (rev, sources)
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

/// The ordinals along the path by which the sweep first reached state
/// `idx`, root first, read off its forward CSR (`offsets` closed by the
/// total). New states are numbered in the order they are met, so state
/// `j > 0` first appears among the targets where it was stored: at the
/// `j`-th point where the next number shows up.
fn first_path(offsets: &[u32], targets: &[u32], idx: u32) -> Vec<u32> {
    let mut found = vec![0u32; idx as usize + 1];
    let mut next = 1;
    for (at, &t) in targets.iter().enumerate() {
        if next > idx {
            break;
        }
        if t == next {
            found[t as usize] = at as u32;
            next += 1;
        }
    }
    let mut ordinals = Vec::new();
    let mut cur = idx;
    while cur != 0 {
        let at = found[cur as usize];
        let src = offsets.partition_point(|&o| o <= at) - 1;
        ordinals.push(at - offsets[src]);
        cur = src as u32;
    }
    ordinals.reverse();
    ordinals
}

/// What the progress check keeps of a sweep — its own, or an
/// exploration's it rode: the forward graph in CSR form, recorded in
/// sweep order — per expanded state where its successors start, per
/// transition its target — and per state whether one of its edges is a
/// progress event.
///
/// That is four bytes per transition, four per expanded state and one
/// per state, for as long as the graph lives, which on a shared sweep
/// includes the exploration itself (`mc_progress_graph_bytes`).
pub struct ProgressGraph {
    /// Per state whose expansion began, in index order, where its
    /// successors start in `targets`. Only these have complete successor
    /// information; unexpanded frontier states are not judged.
    offsets: Vec<u32>,
    /// Every edge's target, the successor lists back to back.
    targets: Vec<u32>,
    has_progress_edge: Vec<bool>,
    /// Whether the sweep ran out of states rather than budget.
    complete: bool,
}

/// The progress check as a checker: fills in a [`ProgressGraph`].
pub(crate) struct ForwardGraph<G> {
    is_progress: G,
    seen: ProgressGraph,
}

impl<G> ForwardGraph<G> {
    pub(crate) fn new(is_progress: G) -> Self {
        let seen = ProgressGraph {
            offsets: Vec::new(),
            targets: Vec::new(),
            has_progress_edge: Vec::new(),
            complete: false,
        };
        ForwardGraph { is_progress, seen }
    }

    /// The graph of a finished sweep, given whether it saw everything.
    pub(crate) fn swept(self, complete: bool) -> ProgressGraph {
        ProgressGraph { complete, ..self.seen }
    }
}

impl<T: TransitionSystem, G: Fn(&Label) -> bool> Checker<T> for ForwardGraph<G> {
    const CHECKS: bool = true;

    fn on_new(&mut self, _state: &T::State, _idx: u32) -> Option<Outcome> {
        self.seen.has_progress_edge.push(false);
        None
    }

    fn on_expand(&mut self, _state: &T::State, idx: u32) -> Option<Outcome> {
        // A breadth-first sweep expands states in index order.
        debug_assert_eq!(self.seen.offsets.len(), idx as usize);
        self.seen.offsets.push(self.seen.targets.len() as u32);
        None
    }

    fn on_edge(
        &mut self,
        src: u32,
        _state: &T::State,
        label: &Label,
        dst: u32,
        _next: &T::State,
        _is_new: bool,
    ) -> Option<Outcome> {
        self.seen.targets.push(dst);
        if (self.is_progress)(label) {
            self.seen.has_progress_edge[src as usize] = true;
        }
        None
    }
}

impl ProgressGraph {
    /// The check itself: from every state the sweep expanded, is a
    /// progress edge still reachable? `sys` is the system that was swept
    /// (under [`crate::symmetry::Reduced`], the reduction or the system
    /// it wraps: they have the same states and successors); it is only
    /// replayed along the witness. `obs` gets the check's ending on its
    /// sink — the witness trail (shortest path to the first stuck state)
    /// as a replayed event stream ending with its outcome, or the bare
    /// `Complete`/`Unfinished` event when nothing is stuck — and the
    /// graph's size on its registry.
    pub fn check<T: TransitionSystem>(
        self,
        sys: &T,
        obs: &mut SearchObserver<'_>,
    ) -> ProgressReport {
        let ProgressGraph { mut offsets, targets, has_progress_edge, complete } = self;
        let n = has_progress_edge.len();
        let expanded = offsets.len();
        let bytes = 4 * targets.len() + 4 * expanded + n;
        let help = "Bytes of the largest progress graph checked";
        obs.telemetry().registry.gauge("mc_progress_graph_bytes", help).record_max(bytes as u64);
        // Closed by the total, state `i`'s successors are
        // `targets[offsets[i]..offsets[i + 1]]`.
        offsets.push(targets.len() as u32);
        let has_successor = |i: usize| offsets[i + 1] > offsets[i];

        // Backward propagation from progress states over the CSR reverse
        // graph.
        let mut timer = obs.telemetry().profiler.worker(0);
        let (rev, sources) = reverse_csr(n, &offsets, &targets);
        let good = propagate_good(n, &rev, &sources, &has_progress_edge);
        drop((rev, sources));
        timer.lap(SpanKind::Progress, 1);

        let deadlocked = (0..expanded).filter(|&i| !has_successor(i)).count();
        let livelocked = (0..expanded).filter(|&i| has_successor(i) && !good[i]).count();

        // Witness: shortest trail (BFS order = insertion order) to the
        // first stuck state of either kind.
        let bad = (0..expanded).find_map(|i| match (has_successor(i), good[i]) {
            (false, _) => Some((i, Outcome::Deadlock)),
            (true, false) => Some((i, Outcome::Livelock)),
            (true, true) => None,
        });
        let (witness, witness_outcome) = match bad {
            Some((idx, out)) => {
                let ordinals = first_path(&offsets, &targets, idx as u32);
                (Some(trail_along(sys, &ordinals)), Some(out))
            }
            None => (None, None),
        };
        let swept = if complete { Outcome::Complete } else { Outcome::Unfinished };
        conclude_with_trail(
            sys,
            witness_outcome.as_ref().unwrap_or(&swept),
            witness.as_deref(),
            obs,
        );

        ProgressReport {
            states: n,
            livelocked_states: livelocked,
            deadlocked_states: deadlocked,
            complete,
            witness,
            witness_outcome,
        }
    }
}

/// The ending of a sweep the check had to itself: the run's metrics,
/// then the report. The visited set is let go first; only the graph
/// outlives the sweep.
pub(crate) fn swept_alone<T: TransitionSystem, G>(
    sys: &T,
    graph: ForwardGraph<G>,
    run: DriveRun,
    obs: &mut SearchObserver<'_>,
) -> ProgressReport {
    let DriveRun { store, transitions, peak_frontier, outcome, .. } = run;
    record_search_run(&obs.telemetry().registry, store.len(), transitions, peak_frontier, &store);
    drop(store);
    graph.swept(outcome.is_complete()).check(sys, obs)
}

/// [`Search::progress`] without threads, with samples and
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

/// Convenience: the check on the calling thread alone, unobserved, with
/// progress = any completed rendezvous (`label.completes.is_some()`).
pub fn check_progress_default<T: TransitionSystem>(sys: &T, budget: &Budget) -> ProgressReport {
    let mut null = NullSink;
    let mut obs = SearchObserver::new(&mut null);
    let mut graph = ForwardGraph::new(|l: &Label| l.completes.is_some());
    let run = drive(sys, budget, &mut graph, Inline::new(sys, false), &mut obs, None);
    swept_alone(sys, graph, run, &mut obs)
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
    fn threads_do_not_change_the_report() {
        fn same_at_every_thread_count<T>(sys: &T, what: &str) -> ProgressReport
        where
            T: TransitionSystem + Sync,
            T::State: Send,
        {
            let serial = check_progress(sys, |l| l.completes.is_some(), 0);
            for threads in [1usize, 2, 4] {
                let fed = check_progress(sys, |l| l.completes.is_some(), threads);
                assert_eq!(fed, serial, "{what} t={threads}");
            }
            serial
        }
        let spec = token_spec();
        for n in [2u32, 3] {
            let r = same_at_every_thread_count(&RendezvousSystem::new(&spec, n), "token rv");
            assert!(r.complete && r.holds() && r.witness.is_none(), "n={n}");
        }
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        assert!(same_at_every_thread_count(&sys, "token async").holds());

        // A deadlocking spec: the witness is the serial one, trail included.
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
        let r = same_at_every_thread_count(&RendezvousSystem::new(&spec, 2), "dead rv");
        assert_eq!(r.witness_outcome, Some(Outcome::Deadlock));
        assert!(r.witness.is_some());
    }
}
