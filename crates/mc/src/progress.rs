//! Forward-progress (livelock) checking — the §2.5 criterion.
//!
//! The refinement promises that *some* remote always makes progress
//! (weak fairness): no reachable asynchronous configuration may be one from
//! which rendezvous completions become unreachable. We check the CTL-style
//! property `AG EF complete`: explore the state graph, mark every state
//! with an outgoing *completing* transition, and find every state from
//! which a marked one is reachable; any expanded state left out is a
//! livelock witness, and any state with no successors at all is a
//! deadlock.
//!
//! The sweep records the graph forward as it goes: a breadth-first sweep
//! expands states in index order, so the successor lists, back to back
//! in that order, are the whole adjacency. Each target is written into
//! one byte stream as a zigzag LEB128 delta — from the previous target
//! of its list, or from the list's source for the first — and each
//! expanded state keeps the byte offset where its list starts, plus one
//! progress bit per state. States close in index are close in the graph
//! (a successor is mostly stored shortly after its parent), so most
//! deltas take one or two bytes. Whether a state has a successor is read
//! off its offsets.
//!
//! The check is one iterative pass of Tarjan's strongly connected
//! components (Pearce's one-array variant) over that stream, decoding
//! each edge it reads once: a finished successor's verdict is ORed into
//! its source as the search leaves the edge, and a component is good
//! when one of its members has a progress edge or saw a good successor.
//! A state with a progress edge is good whatever its successors are, so
//! the pass does not read its list: it is a finished, good component of
//! its own the moment the search meets it. The components are those of
//! the graph with the progress states' out-edges cut, and which states
//! reach a progress state is the same in both — the path to the first
//! progress state on it keeps all its edges — while the cut graph has a
//! fraction of the edges (14 % on migratory n=5's asynchronous space).
//! No reverse graph is built; the pass keeps one `u32` and a few bits
//! per state, and its stacks hold each state at most once.
//!
//! The forward graph is also the witness's parent table: states are
//! numbered in discovery order, so a state's first appearance among the
//! targets is the edge the sweep first reached it by. The witness is read
//! off it, decoding the stream in order, and replayed on the system;
//! nothing else is kept per state.
//!
//! The forward sweep is not this module's: the check is a checker on the
//! one sweep (`search::drive`) — at every thread count, since
//! [`crate::search::Search::threads`] only moves successor generation off
//! the sweep's thread — and it need not be a sweep of its own either:
//! [`crate::search::Search::verify`] records the same [`ProgressGraph`]
//! off the exploration's sweep. The component pass runs single-threaded
//! on the recorded graph (it is a fraction of the forward-sweep cost),
//! whenever the graph's owner asks for the report.

use crate::report::{Outcome, ProgressReport};
use crate::search::{
    drive, record_search_run, Budget, Checker, DriveRun, Inline, Search, SearchObserver,
};
use crate::store::{next_id, Visited};
use crate::trace::{conclude_with_trail, trail_along};
use ccr_core::encode::Sink;
use ccr_metrics::profile::SpanKind;
use ccr_runtime::{Label, TransitionSystem};
use ccr_trace::NullSink;

/// One bit per state.
#[derive(Clone, Default)]
struct Bits(Vec<u64>);

impl Bits {
    /// `n` bits, all clear.
    fn zeros(n: usize) -> Bits {
        Bits(vec![0; n.div_ceil(64)])
    }

    /// Makes room for bit `i`, clear.
    fn reach(&mut self, i: usize) {
        if i / 64 >= self.0.len() {
            self.0.resize(i / 64 + 1, 0);
        }
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }
}

/// The stream's code for target `dst` after `prev`: the wrapping
/// difference, zigzagged so a small step either way is a small number.
#[inline]
fn zigzag(prev: u32, dst: u32) -> u32 {
    let d = dst.wrapping_sub(prev) as i32;
    ((d << 1) ^ (d >> 31)) as u32
}

/// The target coded as `z` after `prev` ([`zigzag`]'s inverse).
#[inline]
fn unzigzag(prev: u32, z: u32) -> u32 {
    prev.wrapping_add((z >> 1) ^ (z & 1).wrapping_neg())
}

/// What the progress check keeps of a sweep — its own, or an
/// exploration's it rode: the forward graph, recorded in sweep order —
/// per expanded state where its successor list starts in the stream, per
/// transition its target as a zigzag LEB128 delta (the module docs) —
/// and per state one bit: whether one of its edges is a progress event.
///
/// That is about 2.4 bytes per transition on the shipped specs, four per
/// expanded state and one bit per state, for as long as the graph lives,
/// which on a shared sweep includes the exploration itself
/// (`mc_progress_graph_bytes`). [`ProgressGraph::check`] judges it by its
/// strongly connected components, with no reverse graph.
pub struct ProgressGraph {
    /// Per state whose expansion began, in index order, where its
    /// successor list starts in `stream`. Only these have complete
    /// successor information; unexpanded frontier states are not judged.
    offsets: Vec<u32>,
    /// Every edge's target, the successor lists back to back, each
    /// coded against the one before it ([`zigzag`]; the first of a list
    /// against its source) in LEB128.
    stream: Vec<u8>,
    /// The target last written, or the source of the list being written
    /// while it has none.
    prev: u32,
    /// Per state, whether one of its edges is a progress event.
    progress: Bits,
    /// How many states the sweep stored.
    states: usize,
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
        ForwardGraph { is_progress, seen: ProgressGraph::empty() }
    }

    /// The graph of a finished sweep, given whether it saw everything.
    pub(crate) fn swept(self, complete: bool) -> ProgressGraph {
        ProgressGraph { complete, ..self.seen }
    }
}

impl<T: TransitionSystem, G: Fn(&Label) -> bool> Checker<T> for ForwardGraph<G> {
    const CHECKS: bool = true;

    fn reads_states(&self) -> bool {
        false
    }

    fn on_new(&mut self, _store: &Visited, _state: &T::State, idx: u32) -> Option<Outcome> {
        self.seen.stored(idx);
        None
    }

    fn on_expand(&mut self, _state: &T::State, idx: u32) -> Option<Outcome> {
        self.seen.expanding(idx);
        None
    }

    fn on_edge(
        &mut self,
        _store: &Visited,
        src: u32,
        _state: &T::State,
        label: &Label,
        dst: u32,
        _next: &T::State,
        _is_new: bool,
    ) -> Option<Outcome> {
        self.seen.edge(src, dst, (self.is_progress)(label));
        None
    }
}

/// [`ProgressGraph::good`]'s `rindex` of a state whose component closed.
const DONE: u32 = u32::MAX;

/// The edge `v -> w` read to its end in [`ProgressGraph::good`]: a `w`
/// whose component closed passes its verdict on to `v`; one still open
/// is in `v`'s component, and lowers `v`'s index to its own if less.
#[inline]
fn leave(v: usize, w: usize, rindex: &mut [u32], root: &mut Bits, good: &mut Bits) {
    if rindex[w] == DONE {
        if good.get(w) {
            good.set(v);
        }
    } else if rindex[w] < rindex[v] {
        rindex[v] = rindex[w];
        root.clear(v);
    }
}

/// A DFS frame of [`ProgressGraph::good`]: state `v`, the stream
/// position of its next unread target and the target read before it
/// (the child being visited).
struct Frame {
    v: u32,
    pos: u32,
    prev: u32,
}

impl ProgressGraph {
    fn empty() -> ProgressGraph {
        ProgressGraph {
            offsets: Vec::new(),
            stream: Vec::new(),
            prev: 0,
            progress: Bits::default(),
            states: 0,
            complete: false,
        }
    }

    /// State `idx` was stored.
    fn stored(&mut self, idx: u32) {
        self.states = idx as usize + 1;
        self.progress.reach(idx as usize);
    }

    /// State `idx`'s successor list begins. A breadth-first sweep expands
    /// states in index order.
    fn expanding(&mut self, idx: u32) {
        debug_assert_eq!(self.offsets.len(), idx as usize);
        let at = u32::try_from(self.stream.len()).expect("progress graph: 4 GiB of edges");
        self.offsets.push(at);
        self.prev = idx;
    }

    /// The list being written, `src`'s, gains `dst`, by a progress event
    /// or not.
    fn edge(&mut self, src: u32, dst: u32, progress: bool) {
        self.stream.put_id(zigzag(self.prev, dst));
        self.prev = dst;
        if progress {
            self.progress.set(src as usize);
        }
    }

    /// Bytes the graph holds: its stream, four per offset and one bit
    /// per state.
    fn bytes(&self) -> usize {
        self.stream.len() + 4 * self.offsets.len() + self.states.div_ceil(8)
    }

    /// Where state `i`'s successor list starts and ends in the stream;
    /// an unexpanded state's list is empty.
    #[inline]
    fn span(&self, i: usize) -> (usize, usize) {
        match self.offsets.get(i) {
            Some(&start) => {
                let end = self.offsets.get(i + 1).map_or(self.stream.len(), |&o| o as usize);
                (start as usize, end)
            }
            None => (0, 0),
        }
    }

    /// The target coded at stream position `pos` after `prev`, and the
    /// position after it.
    #[inline]
    fn read(&self, pos: usize, prev: u32) -> (u32, usize) {
        match self.stream[pos] {
            b @ 0..=0x7F => (unzigzag(prev, u32::from(b)), pos + 1),
            _ => {
                let mut rest = &self.stream[pos..];
                let z = next_id(&mut rest).expect("progress graph: a target cut short");
                (unzigzag(prev, z), self.stream.len() - rest.len())
            }
        }
    }

    /// Whether state `i` was expanded and has a successor.
    fn has_successor(&self, i: usize) -> bool {
        let (start, end) = self.span(i);
        end > start
    }

    /// State `i`'s successors, in the order the sweep generated them.
    fn targets(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        let (mut pos, end) = self.span(i);
        let mut prev = i as u32;
        std::iter::from_fn(move || {
            (pos < end).then(|| {
                (prev, pos) = self.read(pos, prev);
                prev
            })
        })
    }

    /// Which states reach a progress edge (themselves included): one
    /// iterative pass of Pearce's variant of Tarjan's strongly connected
    /// components over the stream, each edge read decoded once, the
    /// progress states' lists not read at all (the module docs). `rindex` is
    /// zero for a state not yet visited, `DONE` for one whose component
    /// closed, and in between its visit number lowered to the least one
    /// it is known to reach on the stacks; `root` is set while it is not
    /// lowered. Leaving an edge to a finished state ORs that state's
    /// verdict into the source; a closing component is good when one of
    /// its members is, and all of them take that verdict. The state being
    /// read is in locals, the ones below it on `dfs`, and the finished
    /// states of open components on `members`: every state is on one of
    /// them at most once.
    fn good(&self) -> Bits {
        let n = self.states;
        assert!(n < DONE as usize, "progress graph: 2^32 - 1 states");
        let mut good = self.progress.clone();
        let mut rindex = vec![0u32; n];
        let mut root = Bits::zeros(n);
        let mut dfs: Vec<Frame> = Vec::new();
        let mut members: Vec<u32> = Vec::new();
        let mut visits = 0u32;
        for start in 0..n {
            if rindex[start] != 0 || self.progress.get(start) {
                continue;
            }
            let mut v = start;
            let (mut pos, mut end) = self.span(v);
            let mut prev = v as u32;
            visits += 1;
            rindex[v] = visits;
            root.set(v);
            loop {
                while pos < end {
                    (prev, pos) = self.read(pos, prev);
                    let w = prev;
                    let rw = rindex[w as usize];
                    if rw == 0 && self.progress.get(w as usize) {
                        // A progress state: its own component, good, its
                        // edges cut.
                        rindex[w as usize] = DONE;
                        good.set(v);
                    } else if rw == 0 {
                        dfs.push(Frame { v: v as u32, pos: pos as u32, prev });
                        v = w as usize;
                        (pos, end) = self.span(v);
                        visits += 1;
                        rindex[v] = visits;
                        root.set(v);
                    } else {
                        leave(v, w as usize, &mut rindex, &mut root, &mut good);
                    }
                }
                if root.get(v) {
                    // `v` closes its component: itself and every member
                    // above it on the stack.
                    let mut from = members.len();
                    while from > 0 && rindex[members[from - 1] as usize] >= rindex[v] {
                        from -= 1;
                    }
                    let scc = &members[from..];
                    let verdict = good.get(v) || scc.iter().any(|&m| good.get(m as usize));
                    for m in scc.iter().map(|&m| m as usize).chain([v]) {
                        rindex[m] = DONE;
                        if verdict {
                            good.set(m);
                        }
                    }
                    members.truncate(from);
                } else {
                    members.push(v as u32);
                }
                // Back along the edge that led here: it ends as any other.
                let Some(below) = dfs.pop() else { break };
                let w = v;
                v = below.v as usize;
                (pos, end) = (below.pos as usize, self.span(v).1);
                prev = below.prev;
                leave(v, w, &mut rindex, &mut root, &mut good);
            }
        }
        good
    }

    /// The ordinals along the path by which the sweep first reached state
    /// `idx`, root first. New states are numbered in the order they are
    /// met, so state `j > 0` first appears among the targets where it was
    /// stored: at the `j`-th point where the next number shows up. The
    /// stream is decoded in order up to there.
    fn first_path(&self, idx: u32) -> Vec<u32> {
        // Per state up to `idx`, the edge it was first reached by: its
        // source and ordinal.
        let mut found = vec![(0u32, 0u32); idx as usize + 1];
        let mut next = 1;
        'sweep: for src in 0..self.offsets.len() {
            for (ordinal, t) in self.targets(src).enumerate() {
                if next > idx {
                    break 'sweep;
                }
                if t == next {
                    found[t as usize] = (src as u32, ordinal as u32);
                    next += 1;
                }
            }
        }
        let mut ordinals = Vec::new();
        let mut cur = idx;
        while cur != 0 {
            let (src, ordinal) = found[cur as usize];
            ordinals.push(ordinal);
            cur = src;
        }
        ordinals.reverse();
        ordinals
    }

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
        let help = "Bytes of the largest progress graph checked";
        let gauge = obs.telemetry().registry.gauge("mc_progress_graph_bytes", help);
        gauge.record_max(self.bytes() as u64);

        let mut timer = obs.telemetry().profiler.worker(0);
        let good = self.good();
        timer.lap(SpanKind::Progress, 1);

        let expanded = self.offsets.len();
        let deadlocked = (0..expanded).filter(|&i| !self.has_successor(i)).count();
        let livelocked = (0..expanded).filter(|&i| self.has_successor(i) && !good.get(i)).count();

        // Witness: shortest trail (BFS order = insertion order) to the
        // first stuck state of either kind.
        let bad = (0..expanded).find_map(|i| match (self.has_successor(i), good.get(i)) {
            (false, _) => Some((i, Outcome::Deadlock)),
            (true, false) => Some((i, Outcome::Livelock)),
            (true, true) => None,
        });
        let (witness, witness_outcome) = match bad {
            Some((idx, out)) => {
                let ordinals = self.first_path(idx as u32);
                (Some(trail_along(sys, &ordinals)), Some(out))
            }
            None => (None, None),
        };
        let complete = self.complete;
        let swept = if complete { Outcome::Complete } else { Outcome::Unfinished };
        conclude_with_trail(
            sys,
            witness_outcome.as_ref().unwrap_or(&swept),
            witness.as_deref(),
            obs,
        );

        ProgressReport {
            states: self.states,
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
    record_search_run(&obs.telemetry().registry, &run);
    let complete = run.outcome.is_complete();
    drop(run);
    graph.swept(complete).check(sys, obs)
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
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The graph as the check read it before: the forward CSR, `offsets`
    /// closed by the total, every target a `u32`.
    fn decoded(g: &ProgressGraph) -> (Vec<u32>, Vec<u32>) {
        let mut offsets = Vec::new();
        let mut targets = Vec::new();
        for i in 0..g.offsets.len() {
            offsets.push(targets.len() as u32);
            targets.extend(g.targets(i));
        }
        offsets.push(targets.len() as u32);
        (offsets, targets)
    }

    /// The reverse of the forward CSR `(offsets, targets)` over `n` nodes
    /// — node `i`'s successors are `targets[offsets[i]..offsets[i + 1]]`,
    /// for the `offsets.len() - 1` nodes that have a list — as a CSR of
    /// its own: node `j`'s predecessors, in the order the forward lists
    /// name them. The reference the component pass replaced.
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

    /// Backward BFS over a reverse-graph CSR: marks every state from
    /// which a `seed`-marked state is forward-reachable.
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

    /// The witness path read off the decoded CSR, as before.
    fn first_path_reference(offsets: &[u32], targets: &[u32], idx: u32) -> Vec<u32> {
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

    /// Holds the component pass and the witness path to the reverse-CSR
    /// reference on `g`: the verdict of every state, and the path to the
    /// first stuck state and to the last state. Returns how many
    /// expanded states are stuck.
    fn assert_matches_reference(g: &ProgressGraph, what: &str) -> usize {
        let (offsets, targets) = decoded(g);
        let n = g.states;
        let seed: Vec<bool> = (0..n).map(|i| g.progress.get(i)).collect();
        let (rev, sources) = reverse_csr(n, &offsets, &targets);
        let reference = propagate_good(n, &rev, &sources, &seed);
        let good = g.good();
        let verdicts: Vec<bool> = (0..n).map(|i| good.get(i)).collect();
        assert_eq!(verdicts, reference, "{what}: verdicts");
        let stuck: Vec<u32> = (0..g.offsets.len())
            .filter(|&i| !g.has_successor(i) || !reference[i])
            .map(|i| i as u32)
            .collect();
        for idx in stuck.first().into_iter().copied().chain((n > 0).then(|| n as u32 - 1)) {
            let want = first_path_reference(&offsets, &targets, idx);
            assert_eq!(g.first_path(idx), want, "{what}: path to {idx}");
        }
        stuck.len()
    }

    /// The graph `Search::progress` records of `sys` under `budget`, with
    /// progress = any completed rendezvous.
    fn graph_of<T: TransitionSystem>(sys: &T, budget: &Budget) -> ProgressGraph {
        let mut null = NullSink;
        let mut obs = SearchObserver::new(&mut null);
        let mut graph = ForwardGraph::new(|l: &Label| l.completes.is_some());
        let run = drive(sys, budget, &mut graph, Inline::new(sys, false), &mut obs, None);
        graph.swept(run.outcome.is_complete())
    }

    /// The component pass against the reference on `sys`, swept whole
    /// (up to `cap` states) and cut by state budgets along the way, and
    /// on each cut `Search::progress`'s report against the graph's. Returns how many
    /// stuck states the complete sweep had.
    fn differential<T>(sys: &T, cap: usize, what: &str) -> usize
    where
        T: TransitionSystem + Sync,
        T::State: Send,
    {
        let whole = graph_of(sys, &Budget::states(cap));
        let stuck = assert_matches_reference(&whole, what);
        let n = whole.states;
        for k in [1, 2, 7, n / 2] {
            if k == 0 || k >= n {
                continue;
            }
            let budget = Budget::states(k);
            let cut = graph_of(sys, &budget);
            assert!(!cut.complete, "{what} k={k}");
            assert_matches_reference(&cut, &format!("{what} k={k}"));
            let mut null = NullSink;
            let mut obs = SearchObserver::new(&mut null);
            let completes = |l: &Label| l.completes.is_some();
            let report = Search::default().progress(sys, &budget, completes, &mut obs);
            let mut obs = SearchObserver::new(&mut null);
            assert_eq!(report, cut.check(sys, &mut obs), "{what} k={k}");
        }
        stuck
    }

    fn shipped(name: &str) -> ccr_core::process::ProtocolSpec {
        let path = format!("{}/../../specs/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        ccr_core::text::parse_validated(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    /// States a differential sweep stores at most: in an optimized build
    /// the whole of every shipped space at n <= 3 but update's
    /// asynchronous one (4,823,028 states, concrete and quotient alike),
    /// a prefix in debug.
    const CAP: usize = if cfg!(debug_assertions) { 20_000 } else { 700_000 };

    #[test]
    fn components_match_the_reverse_csr_on_every_shipped_spec() {
        let dir = format!("{}/../../specs", env!("CARGO_MANIFEST_DIR"));
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .expect("specs/")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
            .filter(|n| n.ends_with(".ccp"))
            .collect();
        names.sort();
        assert_eq!(names.len(), 12, "{names:?}");
        for name in &names {
            let spec = shipped(name);
            let refined = refine(&spec, &RefineOptions::default()).expect("shipped specs refine");
            for n in [2u32, 3] {
                let rv = RendezvousSystem::new(&spec, n);
                differential(&rv, CAP, &format!("{name} rv n={n}"));
                let asys = AsyncSystem::new(&refined, n, AsyncConfig::default());
                differential(&asys, CAP, &format!("{name} async n={n}"));
                let red = crate::symmetry::Reduced::new(&asys);
                differential(&red, CAP, &format!("{name} quotient n={n}"));
            }
        }
    }

    /// A protocol that never deadlocks but can lose the ability to
    /// complete `m`: once the home has taken `trap` it serves `ping`
    /// forever.
    const TRAP: &str = "
protocol trap {
  messages m, trap, ping;
  home {
    state H0 init {
      r(*) ? m -> H0;
      r(*) ? trap -> H1;
    }
    state H1 {
      r(*) ? ping -> H1;
    }
  }
  remote {
    state R0 init {
      tau #work -> M;
      tau #quit -> T;
    }
    state M {
      h ! m -> R0;
    }
    state T {
      h ! trap -> R1;
    }
    state R1 {
      h ! ping -> R1;
    }
  }
}";

    #[test]
    fn components_match_the_reverse_csr_on_a_livelock() {
        let spec = ccr_core::text::parse_validated(TRAP).expect("parses");
        let refined = refine(&spec, &RefineOptions::default()).expect("refines");
        let m = spec.msg_by_name("m").expect("message m");
        for n in [2u32, 3] {
            let asys = AsyncSystem::new(&refined, n, AsyncConfig::default());
            let mut null = NullSink;
            let mut obs = SearchObserver::new(&mut null);
            let mut graph =
                ForwardGraph::new(|l: &Label| l.completes.is_some_and(|(_, msg)| msg == m));
            let run = drive(
                &asys,
                &Budget::default(),
                &mut graph,
                Inline::new(&asys, false),
                &mut obs,
                None,
            );
            let g = graph.swept(run.outcome.is_complete());
            assert!(assert_matches_reference(&g, &format!("trap n={n}")) > 0, "n={n}");
            let r = g.check(&asys, &mut obs);
            assert_eq!(r.witness_outcome, Some(Outcome::Livelock), "n={n}");
            assert!(r.livelocked_states > 0 && r.deadlocked_states == 0, "n={n}");
        }
    }

    #[test]
    fn components_match_the_reverse_csr_on_the_zoo() {
        let (mut specs, mut stuck) = (0, 0);
        for index in 0..200 {
            let Ok(spec) = ccr_core::zoo::ZooSpec::generate(1998, index).build() else { continue };
            let Ok(refined) = refine(&spec, &RefineOptions::default()) else { continue };
            let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
            specs += 1;
            if differential(&asys, 5_000, &format!("zoo {index}")) > 0 {
                stuck += 1;
            }
        }
        assert!(specs > 100, "{specs} zoo specs refined");
        assert!(stuck > 0, "no zoo spec had a stuck state");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Random graphs numbered as a breadth-first sweep numbers its
        /// states: the lists are expanded in index order while there
        /// are states to expand, each target an old state or the next
        /// new one, one edge in seven a progress event; what is left is
        /// the unexpanded tail of a budget-cut sweep.
        #[test]
        fn components_match_the_reverse_csr_on_random_graphs(
            lists in prop::collection::vec(
                prop::collection::vec((any::<u32>(), 0u8..7), 0..6),
                0..80,
            ),
        ) {
            let mut g = ProgressGraph::empty();
            g.stored(0);
            for (src, list) in lists.iter().enumerate() {
                if src == g.states {
                    break;
                }
                g.expanding(src as u32);
                for &(t, draw) in list {
                    let dst = t % (g.states as u32 + 1);
                    if dst as usize == g.states {
                        g.stored(dst);
                    }
                    g.edge(src as u32, dst, draw == 0);
                }
            }
            assert_matches_reference(&g, "random");
        }
    }

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
        // (empty trail) — pins the component pass against the old
        // per-state adjacency-list behavior.
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
