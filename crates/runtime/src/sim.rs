//! Long-run simulation driver over any [`TransitionSystem`].
//!
//! The simulator repeatedly asks a [`Scheduler`] to pick among enabled
//! transitions, folds labels into [`MsgStats`], and optionally filters the
//! enabled set (the DSM workload harness uses the filter to enable
//! autonomous `tau` decisions — CPU accesses, evictions — only when the
//! workload wants them).
//!
//! A step does not re-walk every rule. The simulator keeps the labels of
//! the current state's transitions per rule group
//! ([`TransitionSystem::groups`]) and re-enumerates only the groups the
//! last step may have changed — the ones [`TransitionSystem::fire`]
//! flagged, every one after a write through [`Simulator::state_mut`], and
//! any that failed to enumerate. On `AsyncSystem` a step by remote `i`
//! re-walks the home's own step and remote `i`'s two groups, not the other
//! `2n - 2` (DESIGN.md, "A simulated step builds one successor").

use crate::error::Result;
use crate::observe::emit_label_events;
use crate::sched::Scheduler;
use crate::stats::MsgStats;
use crate::system::{Label, TransitionSystem};
use ccr_core::ids::ProcessId;
use ccr_trace::{NullSink, TraceEvent, TraceSink};
use serde::Serialize;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// Outcome of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimReport {
    /// Message/progress counters.
    pub stats: MsgStats,
    /// True if the run halted because no transition was enabled.
    pub deadlocked: bool,
    /// Steps actually executed.
    pub steps: u64,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

/// A simulation driver owning the current state. It never holds a
/// successor list: a step enumerates in place the transitions of the rule
/// groups the last step may have changed, keeping their labels, and then
/// fires the chosen one ([`TransitionSystem::for_each_successor_in`], then
/// [`TransitionSystem::fire`]).
pub struct Simulator<'s, T: TransitionSystem> {
    sys: &'s T,
    state: T::State,
    /// The state the system generates in; equal to `state` between steps
    /// unless `stale`.
    scratch: T::State,
    /// Set by an out-of-band write to `state`: `scratch` is copied afresh
    /// before the next step.
    stale: bool,
    stats: MsgStats,
    /// Per rule group, the labels of the current state's transitions, in
    /// order — unless the group is `dirty`, and so enumerated afresh
    /// before the next step. Kept for their capacity.
    cached: Vec<Vec<Label>>,
    dirty: Vec<bool>,
    /// The actors of the transitions `filter` accepted in the step under
    /// way — all a scheduler reads of them — and which successor, group
    /// and ordinal in it, each one is. Kept for their capacity.
    actors: Vec<ProcessId>,
    picks: Vec<(usize, usize)>,
    /// Transitions the last step's state had, accepted or not.
    fanout: usize,
    /// Last reported home-buffer occupancy, so `HomeBuffer` events are
    /// emitted only on change.
    last_home_buf: Option<u32>,
}

impl<'s, T: TransitionSystem> Simulator<'s, T> {
    /// Starts a simulation from the initial state.
    pub fn new(sys: &'s T) -> Self {
        let state = sys.initial();
        let groups = sys.groups();
        Self {
            sys,
            scratch: state.clone(),
            state,
            stale: false,
            stats: MsgStats::new(),
            cached: vec![Vec::new(); groups],
            dirty: vec![true; groups],
            actors: Vec::new(),
            picks: Vec::new(),
            fanout: 0,
            last_home_buf: None,
        }
    }

    /// Read access to the current state.
    pub fn state(&self) -> &T::State {
        &self.state
    }

    /// Read access to the counters so far.
    pub fn stats(&self) -> &MsgStats {
        &self.stats
    }

    /// The transition system being simulated.
    pub fn system(&self) -> &'s T {
        self.sys
    }

    /// How many transitions the state of the last step had before
    /// `filter` saw them. A step that returned `None` with a fan-out of 0
    /// met a deadlock; with more, everything enabled was filtered out.
    pub fn last_fanout(&self) -> usize {
        self.fanout
    }

    /// Mutable access to the current state, for writes that are no
    /// transition of the system: a node moving messages between its ends
    /// of the links and a network. Every rule group is enumerated afresh
    /// at the next step.
    pub fn state_mut(&mut self) -> &mut T::State {
        self.stale = true;
        self.dirty.fill(true);
        &mut self.state
    }

    /// Executes one step chosen by `sched` among transitions passing
    /// `filter`, narrating it to `sink`. Returns the fired label, or `None`
    /// if nothing was enabled (after filtering). `filter` sees every
    /// transition of the current state exactly once, in the order
    /// [`TransitionSystem::successors`] lists them.
    ///
    /// Link-occupancy high-water marks are folded into [`MsgStats`]
    /// unconditionally (they are cheap and always useful); per-event
    /// construction is guarded by [`TraceSink::enabled`], so running with
    /// a [`NullSink`] costs one predictable branch per step.
    pub fn step_observed(
        &mut self,
        sched: &mut dyn Scheduler,
        mut filter: impl FnMut(&Label) -> bool,
        sink: &mut dyn TraceSink,
    ) -> Result<Option<Label>> {
        if self.stale {
            self.scratch.clone_from(&self.state);
            self.stale = false;
        }
        self.actors.clear();
        self.picks.clear();
        self.fanout = 0;
        self.enumerate_dirty()?;
        for (group, cached) in self.cached.iter().enumerate() {
            for (ordinal, label) in cached.iter().enumerate() {
                if filter(label) {
                    self.actors.push(label.actor);
                    self.picks.push((group, ordinal));
                }
            }
            self.fanout += cached.len();
        }
        let Some(idx) = sched.pick(&self.actors).filter(|&idx| idx < self.actors.len()) else {
            return Ok(None);
        };
        let (group, ordinal) = self.picks[idx];
        let label = self
            .sys
            .fire(&mut self.state, &mut self.scratch, group, ordinal, &mut self.dirty)?
            .expect("the enumeration counted this successor");
        debug_assert_eq!(
            label, self.cached[group][ordinal],
            "fired another transition than the one chosen"
        );
        let seq = self.stats.steps;
        self.stats.record(&label);
        for m in label.emissions() {
            if let Some(occ) = self.sys.link_occupancy(&self.state, m.from, m.to) {
                self.stats.record_occupancy(m.from, m.to, occ);
            }
        }
        if sink.enabled() {
            self.narrate(sink, seq, &label);
        }
        Ok(Some(label))
    }

    /// Folds the occupancy of the link `from → to` into the high-water
    /// marks: for a step that wrote the link without emitting a message
    /// (a fault of the closure), which [`Self::step_observed`] records
    /// nothing for.
    pub(crate) fn observe_link(&mut self, from: ProcessId, to: ProcessId) {
        if let Some(occ) = self.sys.link_occupancy(&self.state, from, to) {
            self.stats.record_occupancy(from, to, occ);
        }
    }

    /// Lists afresh the labels of every dirty group. On an error every
    /// one of them stays dirty, the failing group among them.
    fn enumerate_dirty(&mut self) -> Result<()> {
        if !self.dirty.contains(&true) {
            return Ok(());
        }
        for (cached, &dirty) in self.cached.iter_mut().zip(&self.dirty) {
            if dirty {
                cached.clear();
            }
        }
        let (cached, dirty) = (&mut self.cached, &self.dirty);
        self.sys.for_each_successor_in(
            &self.state,
            &mut self.scratch,
            |g| dirty[g],
            |g, label, _, _| {
                cached[g].push(label);
                ControlFlow::Continue(())
            },
        )?;
        self.dirty.fill(false);
        Ok(())
    }

    /// Emits the events describing one fired step (post-state already
    /// installed in `self.state`).
    fn narrate(&mut self, sink: &mut dyn TraceSink, seq: u64, label: &Label) {
        let sys = self.sys;
        let state = &self.state;
        emit_label_events(sink, seq, label, &|m| sys.msg_name(m), &|m| {
            sys.link_occupancy(state, m.from, m.to)
        });
        if let Some((used, capacity)) = sys.home_buffer_occupancy(state) {
            if self.last_home_buf != Some(used) {
                self.last_home_buf = Some(used);
                sink.emit(&TraceEvent::HomeBuffer { seq, used, capacity });
            }
        }
    }

    /// Executes one step chosen by `sched` among transitions passing
    /// `filter`, without tracing.
    pub fn step_filtered(
        &mut self,
        sched: &mut dyn Scheduler,
        filter: impl FnMut(&Label) -> bool,
    ) -> Result<Option<Label>> {
        self.step_observed(sched, filter, &mut NullSink)
    }

    /// Executes one unfiltered step.
    pub fn step(&mut self, sched: &mut dyn Scheduler) -> Result<Option<Label>> {
        self.step_filtered(sched, |_| true)
    }

    /// Runs up to `max_steps` steps; stops early on deadlock.
    pub fn run(&mut self, sched: &mut dyn Scheduler, max_steps: u64) -> Result<SimReport> {
        self.run_traced(sched, max_steps, &mut NullSink)
    }

    /// Runs up to `max_steps` steps, narrating every step to `sink`; stops
    /// early on deadlock. A terminal [`TraceEvent::Outcome`] is emitted and
    /// the sink flushed before returning.
    pub fn run_traced(
        &mut self,
        sched: &mut dyn Scheduler,
        max_steps: u64,
        sink: &mut dyn TraceSink,
    ) -> Result<SimReport> {
        let started = Instant::now();
        let mut steps = 0;
        let mut deadlocked = false;
        while steps < max_steps {
            match self.step_observed(sched, |_| true, sink)? {
                Some(_) => steps += 1,
                None => {
                    deadlocked = true;
                    break;
                }
            }
        }
        if sink.enabled() {
            sink.emit(&TraceEvent::Outcome {
                outcome: if deadlocked { "Deadlock".into() } else { "Complete".into() },
                detail: None,
                steps: Some(steps),
            });
            sink.flush();
        }
        Ok(SimReport { stats: self.stats.clone(), deadlocked, steps, elapsed: started.elapsed() })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::asynch::{AsyncConfig, AsyncSystem};
    use crate::rendezvous::RendezvousSystem;
    use crate::sched::{RandomSched, RoundRobinSched};
    use ccr_core::builder::ProtocolBuilder;
    use ccr_core::expr::Expr;
    use ccr_core::ids::RemoteId;
    use ccr_core::refine::{refine, RefineOptions};
    use ccr_core::value::Value;

    pub(crate) fn token_spec() -> ccr_core::process::ProtocolSpec {
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
    fn rendezvous_simulation_makes_progress() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 3);
        let mut sim = Simulator::new(&sys);
        let mut sched = RandomSched::new(1);
        let report = sim.run(&mut sched, 1000).unwrap();
        assert!(!report.deadlocked);
        assert_eq!(report.steps, 1000);
        assert!(report.stats.total_completed() > 100);
    }

    #[test]
    fn async_simulation_makes_progress_with_minimal_buffer() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let sys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
        let mut sim = Simulator::new(&sys);
        let mut sched = RandomSched::new(2);
        let report = sim.run(&mut sched, 5000).unwrap();
        assert!(!report.deadlocked, "derived protocol must not deadlock");
        assert!(report.stats.total_completed() > 100);
        // With the req/gr optimization, messages per rendezvous stays well
        // under the 2-per-rendezvous worst case plus nack retries.
        let mpr = report.stats.messages_per_rendezvous().unwrap();
        assert!(mpr < 4.0, "got {mpr}");
    }

    #[test]
    fn round_robin_async_run_is_fair() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        let mut sim = Simulator::new(&sys);
        let mut sched = RoundRobinSched::new(2);
        let report = sim.run(&mut sched, 4000).unwrap();
        assert!(!report.deadlocked);
        assert_eq!(report.stats.starved(2), 0, "round robin should starve nobody");
    }

    #[test]
    fn filter_can_freeze_a_remote() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        let mut sim = Simulator::new(&sys);
        let mut sched = RandomSched::new(3);
        for _ in 0..2000 {
            let stepped = sim
                .step_filtered(&mut sched, |l| l.actor != ProcessId::Remote(RemoteId(1)))
                .unwrap();
            if stepped.is_none() {
                break;
            }
        }
        assert_eq!(sim.stats().per_remote.get(&1), None, "frozen remote completed nothing");
        assert!(sim.stats().per_remote.get(&0).copied().unwrap_or(0) > 0);
    }
}
