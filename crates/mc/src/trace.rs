//! Counterexample extraction: trails by replay.
//!
//! When an invariant fails or a deadlock is found, a bare verdict is far
//! less useful than the *path* that leads there — SPIN prints a trail, and
//! so do we. The sweep itself keeps nothing for it — a passing run never
//! reads a trail — and ends with the index of the offending state. With
//! [`crate::search::Search::trails`] the same system is then swept again,
//! in the same order, this time with an eight-byte `(parent, ordinal)`
//! per state, until that index is stored (`trail_to`); walking those
//! entries back and replaying `successors` forward gives the shortest
//! event trace to the first violation (the path a depth-first sweep took,
//! for one of those).
//! [`export_trail`] replays that trail through the system while
//! narrating every step to a [`TraceSink`], producing a JSONL
//! counterexample that uses the exact event expansion of a live simulator
//! trace; [`replay_trail`] re-executes it without narration so tests (and
//! sceptical users) can confirm the final state really is the bad one.

use crate::report::Outcome;
use crate::search::{drive, explore_with, Budget, Checker, Inline, SearchObserver, SerialPersist};
use ccr_runtime::observe::emit_label_events;
use ccr_runtime::{Label, TransitionSystem};
use ccr_trace::{NullSink, TraceEvent, TraceSink};
use std::cell::Cell;

/// A reachability result carrying an optional counterexample trail.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct TracedReport {
    /// States visited.
    pub states: usize,
    /// Transitions traversed.
    pub transitions: usize,
    /// How the search ended.
    pub outcome: Outcome,
    /// For `InvariantViolated`/`Deadlock`: the labels along a shortest path
    /// from the initial state to the offending state, in firing order.
    pub trail: Option<Vec<Label>>,
}

impl TracedReport {
    /// Formats a trail as SPIN-like numbered lines (`actor rule`), or a
    /// note that none exists.
    pub fn trail_text(&self) -> String {
        trail_text(self.trail.as_deref())
    }

    /// Exports the counterexample as a replayed event stream on `sink`
    /// (see [`export_trail`]). Returns the replayed final state, or `None`
    /// when there is no trail or it does not replay.
    pub fn export<T: TransitionSystem>(
        &self,
        sys: &T,
        sink: &mut dyn TraceSink,
    ) -> Option<T::State> {
        export_trail(sys, self.trail.as_deref()?, &self.outcome, sink)
    }
}

/// Formats a trail as SPIN-like numbered lines (`actor rule`), or a note
/// that none exists.
pub fn trail_text(trail: Option<&[Label]>) -> String {
    match trail {
        None => "(no counterexample)".to_string(),
        Some(labels) => labels
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let completes =
                    l.completes.map(|(a, m)| format!(" completes {a}:{m}")).unwrap_or_default();
                format!("{:>4}: {} [{}]{}", i + 1, l.actor, l.rule, completes)
            })
            .collect::<Vec<_>>()
            .join("\n"),
    }
}

/// One entry of a replayed sweep's parent table, indexed like the state
/// store: `(parent, ordinal)` — the state this one was first reached
/// from, and the position of that edge in the parent's successor list.
type Parent = (u32, u32);

/// The replay's checker: the parent table of the sweep up to `target`,
/// which ends the sweep as soon as it is stored.
struct Trailing {
    parents: Vec<Parent>,
    target: u32,
    /// The position of the next edge in its source's successor list.
    ordinal: u32,
}

impl<T: TransitionSystem> Checker<T> for Trailing {
    fn reads_states(&self) -> bool {
        false
    }

    fn on_expand(&mut self, _state: &T::State, _idx: u32) -> Option<Outcome> {
        self.ordinal = 0;
        None
    }

    fn on_edge(
        &mut self,
        src: u32,
        _state: &T::State,
        _label: &Label,
        dst: u32,
        _next: &T::State,
        is_new: bool,
    ) -> Option<Outcome> {
        let nth = self.ordinal;
        self.ordinal += 1;
        if !is_new {
            return None;
        }
        self.parents.push((src, nth));
        (dst == self.target).then_some(Outcome::Complete)
    }
}

thread_local! {
    /// Whether this thread is sweeping for a trail ([`trail_to`]).
    static REPLAYING: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is replaying a sweep for its trail. The
/// replay encodes states the sweep already encoded, so a system that
/// counts its encodings ([`crate::symmetry::Reduced`]'s orbit counters
/// and audit) leaves these out: its counts stay the sweep's own.
pub(crate) fn replaying() -> bool {
    REPLAYING.with(Cell::get)
}

/// Marks the calling thread as replaying until dropped.
struct Replay;

impl Replay {
    fn start() -> Self {
        REPLAYING.with(|r| r.set(true));
        Replay
    }
}

impl Drop for Replay {
    fn drop(&mut self) {
        REPLAYING.with(|r| r.set(false));
    }
}

/// The label trail from the initial state to state `idx` of a finished
/// sweep of `sys`, in firing order. `sys` is swept again — breadth-first,
/// or depth-first like a stack-driven sweep, on the calling thread,
/// unobserved and without a budget — keeping a parent table until `idx`
/// is stored; the table's entries are then walked back to the root.
///
/// The replay stores the same states under the same indices as the
/// sweep it repeats, up to `idx` and whatever its thread count: an index
/// depends only on the system (its keys, canonical under
/// [`crate::symmetry::Reduced`]) and the order states are expanded in,
/// and the sweep got this far without ending.
pub(crate) fn trail_to<T: TransitionSystem>(sys: &T, idx: u32, breadth_first: bool) -> Vec<Label> {
    // The root's entry is never followed.
    let mut trailing = Trailing { parents: vec![(0, 0)], target: idx, ordinal: 0 };
    if idx != 0 {
        let _replay = Replay::start();
        let mut null = NullSink;
        let mut obs = SearchObserver::new(&mut null);
        let src = Inline::new(sys, !breadth_first);
        drive(sys, &Budget::default(), &mut trailing, src, &mut obs, None);
    }
    let mut ordinals = Vec::new();
    let mut cur = idx;
    while cur != 0 {
        let (parent, ordinal) = trailing.parents[cur as usize];
        ordinals.push(ordinal);
        cur = parent;
    }
    drop(trailing);
    ordinals.reverse();
    trail_along(sys, &ordinals)
}

/// The labels of the path from the initial state that takes, at step
/// `i`, the `ordinals[i]`-th successor, in firing order.
///
/// This visits exactly the states the search did, because a frontier
/// only ever holds states produced this way — the *actual* successors
/// (under [`crate::symmetry::Reduced`] too: only the store key is
/// canonical) — and because successor order is a pure function of the
/// state, which every pinned state and transition count already rests on.
pub(crate) fn trail_along<T: TransitionSystem>(sys: &T, ordinals: &[u32]) -> Vec<Label> {
    let mut state = sys.initial();
    let mut succs = Vec::new();
    let mut labels = Vec::with_capacity(ordinals.len());
    for &ordinal in ordinals {
        sys.successors(&state, &mut succs).expect("the search already expanded this state");
        let (label, next) = succs.swap_remove(ordinal as usize);
        labels.push(label);
        state = next;
    }
    labels
}

/// Replays `trail` from the initial state of `sys`, returning the state it
/// ends in. Fails with a description when a label along the way is not
/// enabled — which would mean the trail is not a real execution.
pub fn replay_trail<T: TransitionSystem>(
    sys: &T,
    trail: &[Label],
) -> std::result::Result<T::State, String> {
    let mut state = sys.initial();
    let mut succs = Vec::new();
    for (i, want) in trail.iter().enumerate() {
        if let Err(e) = sys.successors(&state, &mut succs) {
            return Err(format!("step {i}: executor failed: {e}"));
        }
        match succs.drain(..).find(|(l, _)| l == want) {
            Some((_, next)) => state = next,
            None => return Err(format!("step {i}: {} [{}] is not enabled", want.actor, want.rule)),
        }
    }
    Ok(state)
}

/// Replays `trail` through `sys`, narrating every step to `sink` with the
/// same event expansion the live simulator uses ([`emit_label_events`]
/// plus home-buffer occupancy changes), then emits the terminal `outcome`
/// event and flushes. Returns the final (violating) state, or `None` when
/// the trail does not replay.
pub fn export_trail<T: TransitionSystem>(
    sys: &T,
    trail: &[Label],
    outcome: &Outcome,
    sink: &mut dyn TraceSink,
) -> Option<T::State> {
    let mut state = sys.initial();
    let mut succs = Vec::new();
    let mut last_buf = None;
    for (seq, want) in trail.iter().enumerate() {
        sys.successors(&state, &mut succs).ok()?;
        let (label, next) = succs.drain(..).find(|(l, _)| l == want)?;
        state = next;
        let seq = seq as u64;
        emit_label_events(sink, seq, &label, &|m| sys.msg_name(m), &|m| {
            sys.link_occupancy(&state, m.from, m.to)
        });
        if let Some((used, capacity)) = sys.home_buffer_occupancy(&state) {
            if last_buf != Some(used) {
                last_buf = Some(used);
                sink.emit(&TraceEvent::HomeBuffer { seq, used, capacity });
            }
        }
    }
    sink.emit(&TraceEvent::Outcome {
        outcome: outcome.name().to_string(),
        detail: outcome.detail(),
        steps: Some(trail.len() as u64),
    });
    sink.flush();
    Some(state)
}

/// [`crate::search::Search::explore`] without threads, with trails on. Kept for
/// `benchmark/src/layers.rs` (`benchmark/README.md`, "Entry points into
/// `ccr-*`").
#[doc(hidden)]
pub fn explore_traced_observed<T: TransitionSystem>(
    sys: &T,
    budget: &Budget,
    mut invariant: impl FnMut(&T::State) -> Option<String>,
    check_deadlock: bool,
    obs: &mut SearchObserver<'_>,
) -> TracedReport {
    explore_with(sys, budget, Some(&mut invariant), check_deadlock, true, obs, None).traced_report()
}

/// [`explore_traced_observed`] against a persistence context the caller
/// opened (what [`crate::search::Search::persist`] does by itself). Kept for
/// `benchmark/src/layers.rs`, like its sibling.
#[doc(hidden)]
pub fn explore_traced_observed_persist<T: TransitionSystem>(
    sys: &T,
    budget: &Budget,
    mut invariant: impl FnMut(&T::State) -> Option<String>,
    check_deadlock: bool,
    obs: &mut SearchObserver<'_>,
    persist: &mut SerialPersist,
) -> TracedReport {
    let invariant = Some(&mut invariant as &mut _);
    explore_with(sys, budget, invariant, check_deadlock, true, obs, Some(persist)).traced_report()
}

/// Shared ending of every search: when the
/// observer's sink is live, a run that carries a trail exports its
/// counterexample as a replayed event stream ending with the outcome,
/// and a trail-less run emits the bare outcome event.
pub(crate) fn conclude_with_trail<T: TransitionSystem>(
    sys: &T,
    outcome: &Outcome,
    trail: Option<&[Label]>,
    obs: &mut SearchObserver<'_>,
) {
    if !obs.sink().enabled() {
        return;
    }
    match trail {
        Some(trail) => {
            export_trail(sys, trail, outcome, obs.sink());
        }
        None => obs.finish(outcome, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SearchReport;
    use crate::search::Search;
    use ccr_core::builder::ProtocolBuilder;
    use ccr_runtime::rendezvous::RendezvousSystem;
    use ccr_trace::{NullSink, RingSink};

    /// A traced exploration, unobserved.
    fn explore_traced<T, F>(
        sys: &T,
        budget: &Budget,
        invariant: F,
        check_deadlock: bool,
    ) -> SearchReport
    where
        T: TransitionSystem + Sync,
        T::State: Send,
        F: Fn(&T::State) -> Option<String>,
    {
        let mut null = NullSink;
        let mut obs = SearchObserver::new(&mut null);
        Search { check_deadlock, trails: true, ..Search::default() }.explore(
            sys,
            budget,
            Some(&invariant),
            &mut obs,
        )
    }

    fn deadlocking_spec() -> ccr_core::process::ProtocolSpec {
        let mut b = ProtocolBuilder::new("dead");
        let m = b.msg("m");
        let never = b.msg("never");
        let h = b.home_state("H");
        b.home(h).recv_any(m).goto(h);
        let r0 = b.remote_state("R0");
        let r1 = b.remote_state("R1");
        b.remote(r0).send(m).goto(r1);
        b.remote(r1).recv(never).goto(r0);
        b.finish().unwrap()
    }

    #[test]
    fn deadlock_trail_is_shortest() {
        let spec = deadlocking_spec();
        let sys = RendezvousSystem::new(&spec, 1);
        let r = explore_traced(&sys, &Budget::default(), |_| None, true);
        assert_eq!(r.outcome, Outcome::Deadlock);
        assert!(r.trail_text().contains("rendezvous"));
        let trail = r.trail.expect("trail");
        // One rendezvous (m) leads straight to the stuck configuration.
        assert_eq!(trail.len(), 1);
    }

    #[test]
    fn violation_in_initial_state_has_empty_trail() {
        let spec = deadlocking_spec();
        let sys = RendezvousSystem::new(&spec, 1);
        let r = explore_traced(&sys, &Budget::default(), |_| Some("always".into()), false);
        assert!(matches!(r.outcome, Outcome::InvariantViolated(_)));
        assert_eq!(r.trail.as_deref(), Some(&[][..]));
        assert_eq!(r.trail_text(), "", "empty trail renders empty");
    }

    #[test]
    fn complete_run_has_no_trail() {
        let spec = deadlocking_spec();
        let sys = RendezvousSystem::new(&spec, 1);
        let r = explore_traced(&sys, &Budget::default(), |_| None, false);
        assert_eq!(r.outcome, Outcome::Complete);
        assert!(r.trail.is_none());
        assert_eq!(r.trail_text(), "(no counterexample)");
    }

    #[test]
    fn budget_yields_unfinished() {
        let spec = deadlocking_spec();
        let sys = RendezvousSystem::new(&spec, 3);
        let r = explore_traced(&sys, &Budget::states(2), |_| None, false);
        assert_eq!(r.outcome, Outcome::Unfinished);
    }

    #[test]
    fn violation_trail_replays_to_the_violating_state() {
        let spec = deadlocking_spec();
        let sys = RendezvousSystem::new(&spec, 1);
        let r1 = spec.remote.state_by_name("R1").unwrap();
        // Claim (falsely) that remote 0 never reaches R1.
        let r = explore_traced(
            &sys,
            &Budget::default(),
            |s| {
                if s.remotes[0].state == r1 {
                    Some("remote 0 reached R1".into())
                } else {
                    None
                }
            },
            false,
        );
        assert!(matches!(r.outcome, Outcome::InvariantViolated(_)));
        let trail = r.trail.clone().expect("trail");
        assert!(!trail.is_empty());
        let end = replay_trail(&sys, &trail).expect("trail must replay");
        assert_eq!(end.remotes[0].state, r1, "replayed final state violates the invariant");
    }

    /// Depth-first order reaches states along long, non-shortest paths and
    /// pops the frontier from the back — the replayed trail must still be
    /// the path the search took. (No public entry point pairs DFS with
    /// trails, so this drives the engine directly.)
    #[test]
    fn depth_first_trails_replay_on_the_broken_spec() {
        use ccr_core::refine::{refine, RefineOptions};
        use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};

        fn dfs_trail_ends_stuck<T: TransitionSystem>(sys: &T) {
            let mut null = NullSink;
            let mut obs = SearchObserver::new(&mut null);
            let invariant = None::<fn(&T::State) -> Option<String>>;
            let mut checker = crate::search::Explore { invariant, check_deadlock: true };
            let stack = crate::search::Inline::new(sys, true);
            let run = drive(sys, &Budget::default(), &mut checker, stack, &mut obs, None);
            assert_eq!(run.outcome, Outcome::Deadlock);
            let trail = run.report_with_trail(sys, true).trail.expect("trail");
            let end = replay_trail(sys, &trail).expect("trail must replay");
            let mut succs = Vec::new();
            sys.successors(&end, &mut succs).unwrap();
            assert!(succs.is_empty(), "DFS trail ends in the deadlocked state");
        }

        let text = include_str!("../../../specs/migratory_broken.ccp");
        let spec = ccr_core::text::parse_validated(text).expect("parse");
        let refined = refine(&spec, &RefineOptions::default()).expect("refine");
        dfs_trail_ends_stuck(&RendezvousSystem::new(&spec, 3));
        dfs_trail_ends_stuck(&AsyncSystem::new(&refined, 2, AsyncConfig::default()));
        dfs_trail_ends_stuck(&crate::symmetry::Reduced::new(&AsyncSystem::new(
            &refined,
            2,
            AsyncConfig::default(),
        )));
    }

    /// The depth-first trails of the test above, and of an invariant a
    /// depth-first sweep of the correct migratory spec breaks deep down,
    /// as the sweep that kept a parent table gave them
    /// (`tests/golden/depth_first_trails.jsonl`). A replay in any other
    /// order stores other states under these indices, and leads elsewhere.
    #[test]
    fn depth_first_trails_equal_the_golden() {
        use ccr_core::refine::{refine, RefineOptions};
        use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};

        fn dfs_trail<T: TransitionSystem>(
            sys: &T,
            invariant: impl FnMut(&T::State) -> Option<String>,
            check_deadlock: bool,
        ) -> Vec<Label> {
            let mut null = NullSink;
            let mut obs = SearchObserver::new(&mut null);
            let mut checker = crate::search::Explore { invariant: Some(invariant), check_deadlock };
            let stack = crate::search::Inline::new(sys, true);
            let run = drive(sys, &Budget::default(), &mut checker, stack, &mut obs, None);
            assert!(!run.outcome.is_complete());
            run.report_with_trail(sys, true).trail.expect("trail")
        }

        let spec_of = |text: &str| ccr_core::text::parse_validated(text).expect("parse");
        let broken = spec_of(include_str!("../../../specs/migratory_broken.ccp"));
        let refined = refine(&broken, &RefineOptions::default()).expect("refine");
        let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        let migratory = spec_of(include_str!("../../../specs/migratory.ccp"));
        let ids = migratory.remote.state_by_name("IDS").expect("IDS");
        let cases = [
            (
                "broken rv n=3 deadlock",
                dfs_trail(&RendezvousSystem::new(&broken, 3), |_| None, true),
            ),
            ("broken async n=2 deadlock", dfs_trail(&asys, |_| None, true)),
            (
                "broken async n=2 quotient deadlock",
                dfs_trail(&crate::symmetry::Reduced::new(&asys), |_| None, true),
            ),
            (
                "migratory rv n=3 r2 reaches IDS",
                dfs_trail(
                    &RendezvousSystem::new(&migratory, 3),
                    |s| (s.remotes[2].state == ids).then(|| "r2 in IDS".to_string()),
                    false,
                ),
            ),
        ];
        let text: String = cases
            .iter()
            .map(|(case, trail)| {
                format!("{{\"case\":\"{case}\",\"trail\":{}}}\n", serde::json::to_string(trail))
            })
            .collect();
        assert_eq!(text, include_str!("../../../tests/golden/depth_first_trails.jsonl"));
    }

    #[test]
    fn export_narrates_the_trail_and_ends_with_the_outcome() {
        let spec = deadlocking_spec();
        let sys = RendezvousSystem::new(&spec, 1);
        let r = explore_traced(&sys, &Budget::default(), |_| None, true);
        assert_eq!(r.outcome, Outcome::Deadlock);
        let mut sink = RingSink::new(64);
        let end = r.traced_report().export(&sys, &mut sink).expect("trail replays");
        let mut succs = Vec::new();
        sys.successors(&end, &mut succs).unwrap();
        assert!(succs.is_empty(), "exported trail ends in the deadlocked state");
        let events = sink.into_events();
        assert!(events.len() >= 2, "at least one step event plus the outcome");
        assert!(matches!(&events[0], TraceEvent::Step { seq: 0, .. }));
        assert!(matches!(
            events.last(),
            Some(TraceEvent::Outcome { outcome, steps: Some(1), .. }) if outcome == "Deadlock"
        ));
    }

    #[test]
    fn replay_rejects_a_corrupted_trail() {
        let spec = deadlocking_spec();
        let sys = RendezvousSystem::new(&spec, 1);
        let r = explore_traced(&sys, &Budget::default(), |_| None, true);
        let mut trail = r.trail.expect("trail");
        // Duplicate the only step: the second firing is not enabled.
        let dup = trail[0].clone();
        trail.push(dup);
        assert!(replay_trail(&sys, &trail).is_err());
    }
}
