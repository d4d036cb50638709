//! Wire-fault injection and recovery over the asynchronous semantics.
//!
//! The paper's network (§2.2) is reliable and FIFO. This module makes that
//! assumption *adversarial*: a seeded [`FaultPlan`] drops, duplicates,
//! reorders and delays individual wire messages, and an ideal-ARQ recovery
//! layer repairs the damage the way a real link layer would:
//!
//! * **Drops** are recovered by timeout and retransmission with capped
//!   exponential backoff. The harness plays the sender's keep-the-frame
//!   role: it remembers exactly which [`Wire`] vanished and how many live
//!   messages were ahead of it, and on recovery re-inserts the frame at
//!   that position — a resequencing receiver, so FIFO order is preserved
//!   end to end and the drop is observationally a pure delay.
//!   Retransmissions face the same loss probability as first
//!   transmissions, which is what makes the backoff real.
//! * **Duplicates** are appended to the link tail and tracked as *ghosts*;
//!   a link-layer sequence check absorbs them when they reach the head
//!   (and early, under capacity pressure), so the protocol never sees a
//!   double delivery — the observable cost is occupancy and delay.
//! * **Reorders** swap a just-sent message with its queue predecessor and
//!   are deliberately *not* masked: they probe the refinement's FIFO
//!   assumption directly and can surface genuine protocol reactions.
//! * **Delays** suppress delivery from a link for one scheduling step.
//!
//! Two consumers share the bookkeeping:
//!
//! * [`FaultHarness`] drives a [`Simulator`] run under a plan — the DSM
//!   machine and the CLI random walks use it;
//! * [`FaultClosure`] lifts an [`AsyncSystem`] into a transition system
//!   whose extra nondeterministic transitions are "drop", "duplicate" and
//!   "retransmit" under a bounded fault budget, so the model checker can
//!   *prove* safety under ≤ f faults and progress once faults quiesce.

use crate::asynch::{AsyncState, AsyncSystem};
use crate::error::Result;
use crate::sched::Scheduler;
use crate::sim::Simulator;
use crate::system::{walk_dyn, DynVisit, Label, LabelKind, Origin, TransitionSystem, Written};
use crate::wire::{Link, Reader, Wire};
use ccr_core::encode::{Segment, Sink};
use ccr_core::ids::{MsgType, ProcessId, RemoteId};
use ccr_faults::{FaultKind, FaultPlan, FaultStats};
use ccr_trace::{TraceEvent, TraceSink};
use std::ops::ControlFlow;

/// Identifies one directed link of the star topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct LinkRef {
    /// True for `remote → home`, false for `home → remote`.
    to_home: bool,
    /// Remote index on the non-home end.
    idx: usize,
}

impl LinkRef {
    fn of(from: ProcessId, to: ProcessId) -> Option<LinkRef> {
        match (from, to) {
            (ProcessId::Remote(r), ProcessId::Home) => {
                Some(LinkRef { to_home: true, idx: r.index() })
            }
            (ProcessId::Home, ProcessId::Remote(r)) => {
                Some(LinkRef { to_home: false, idx: r.index() })
            }
            _ => None,
        }
    }

    fn endpoints(self) -> (ProcessId, ProcessId) {
        let r = ProcessId::Remote(RemoteId(self.idx as u32));
        if self.to_home {
            (r, ProcessId::Home)
        } else {
            (ProcessId::Home, r)
        }
    }

    fn link(self, s: &AsyncState) -> &Link {
        if self.to_home {
            &s.remotes[self.idx].to_home
        } else {
            &s.remotes[self.idx].to_remote
        }
    }

    fn link_mut(self, s: &mut AsyncState) -> &mut Link {
        if self.to_home {
            &mut s.remotes[self.idx].to_home
        } else {
            &mut s.remotes[self.idx].to_remote
        }
    }

    fn all(n: usize) -> impl Iterator<Item = LinkRef> {
        (0..n).flat_map(|i| [LinkRef { to_home: true, idx: i }, LinkRef { to_home: false, idx: i }])
    }
}

/// A dropped message the recovery layer still owes the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LostMsg {
    link: LinkRef,
    wire: Wire,
    /// Live queue entries that were ahead of the message when it vanished.
    /// Decremented as they are consumed; the retransmission re-inserts at
    /// this index, restoring the original FIFO order.
    ahead: usize,
    /// Same-link holes that precede this one in the original send order.
    /// Retransmission is held until this reaches zero, so simultaneously
    /// lost messages of one link are always restored oldest first — live
    /// positions alone cannot order two holes.
    holes_ahead: usize,
    /// Harness step at which the next retransmission attempt fires
    /// (always 0 in the model-checking closure, where retransmission is a
    /// nondeterministic transition instead of a timer).
    due: u64,
    /// Failed retransmission attempts so far.
    attempt: u32,
}

/// A duplicate copy in a link queue, tracked by position so the link layer
/// can absorb it before the protocol sees a double delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ghost {
    link: LinkRef,
    pos: usize,
}

/// Joint bookkeeping for holes (dropped messages) and ghosts (duplicate
/// copies), with the position arithmetic both consumers share.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Ledger {
    lost: Vec<LostMsg>,
    ghosts: Vec<Ghost>,
}

impl Ledger {
    /// A queue element of `link` at position `pos` was removed: everything
    /// tracked behind it moves up one slot.
    fn on_remove_at(&mut self, link: LinkRef, pos: usize) {
        for e in self.lost.iter_mut().filter(|e| e.link == link && e.ahead > pos) {
            e.ahead -= 1;
        }
        for g in self.ghosts.iter_mut().filter(|g| g.link == link && g.pos > pos) {
            g.pos -= 1;
        }
    }

    /// A queue element was inserted into `link` at position `pos`:
    /// everything tracked at or behind that position moves back one slot.
    fn on_insert_at(&mut self, link: LinkRef, pos: usize) {
        for e in self.lost.iter_mut().filter(|e| e.link == link && e.ahead >= pos) {
            e.ahead += 1;
        }
        for g in self.ghosts.iter_mut().filter(|g| g.link == link && g.pos >= pos) {
            g.pos += 1;
        }
    }

    /// The *live tail* of `link` (a real message, never a ghost) was
    /// dropped: position bookkeeping plus hole ordering. A hole whose live
    /// position was behind the tail keeps its order but trades a live
    /// predecessor for a lost one. Returns how many same-link holes
    /// precede the new one.
    fn on_drop_tail(&mut self, link: LinkRef, tail: usize) -> usize {
        let mut holes_ahead = 0;
        for e in self.lost.iter_mut().filter(|e| e.link == link) {
            if e.ahead <= tail {
                holes_ahead += 1;
            } else {
                e.ahead -= 1;
                e.holes_ahead += 1;
            }
        }
        for g in self.ghosts.iter_mut().filter(|g| g.link == link && g.pos > tail) {
            g.pos -= 1;
        }
        holes_ahead
    }

    /// Lost entry `i` was successfully retransmitted: remove it and
    /// release its hold on the same-link holes behind it (eligibility
    /// guarantees every remaining same-link hole followed it).
    fn on_retransmit(&mut self, i: usize) -> LostMsg {
        let e = self.lost.remove(i);
        for o in self.lost.iter_mut().filter(|o| o.link == e.link) {
            o.holes_ahead -= 1;
        }
        e
    }

    /// True when a hole sits at the head of `link`: the resequencing
    /// receiver holds later frames until the lost one is retransmitted.
    fn blocked(&self, link: LinkRef) -> bool {
        self.lost.iter().any(|e| e.link == link && e.ahead == 0)
    }

    fn ghost_at(&self, link: LinkRef, pos: usize) -> bool {
        self.ghosts.iter().any(|g| g.link == link && g.pos == pos)
    }

    fn ghost_index_at(&self, link: LinkRef, pos: usize) -> Option<usize> {
        self.ghosts.iter().position(|g| g.link == link && g.pos == pos)
    }

    fn newest_ghost(&self, link: LinkRef) -> Option<usize> {
        self.ghosts
            .iter()
            .enumerate()
            .filter(|(_, g)| g.link == link)
            .max_by_key(|(_, g)| g.pos)
            .map(|(i, _)| i)
    }

    fn touches(&self, link: LinkRef) -> bool {
        self.lost.iter().any(|e| e.link == link) || self.ghosts.iter().any(|g| g.link == link)
    }
}

fn wire_msg(w: &Wire) -> Option<MsgType> {
    w.req_msg()
}

// ---------------------------------------------------------------------------
// Simulation harness
// ---------------------------------------------------------------------------

/// Default initial retransmission timeout, in scheduling steps.
pub const DEFAULT_RTO: u64 = 8;
/// Default backoff cap, in scheduling steps.
pub const DEFAULT_RTO_CAP: u64 = 512;

/// Drives a [`Simulator`] over an [`AsyncSystem`] while injecting the
/// faults a [`FaultPlan`] prescribes and recovering from them.
///
/// With an inactive plan the harness adds no transitions, suppresses no
/// deliveries and emits no events: a faulted run degenerates to the plain
/// observed run, byte for byte.
#[derive(Debug, Clone)]
pub struct FaultHarness {
    plan: FaultPlan,
    rto: u64,
    rto_cap: u64,
    ledger: Ledger,
    stats: FaultStats,
    now: u64,
}

impl FaultHarness {
    /// A harness with the default backoff parameters.
    pub fn new(plan: FaultPlan) -> Self {
        Self::with_backoff(plan, DEFAULT_RTO, DEFAULT_RTO_CAP)
    }

    /// A harness with explicit initial timeout and backoff cap (both in
    /// scheduling steps). `rto` must be at least 1.
    pub fn with_backoff(plan: FaultPlan, rto: u64, rto_cap: u64) -> Self {
        assert!(rto >= 1, "retransmission timeout must be at least one step");
        Self {
            plan,
            rto,
            rto_cap: rto_cap.max(rto),
            ledger: Ledger::default(),
            stats: FaultStats::default(),
            now: 0,
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Injection and recovery counters so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Dropped messages not yet successfully retransmitted. While this is
    /// non-zero a quiet network is *recovering*, not deadlocked.
    pub fn pending_recoveries(&self) -> usize {
        self.ledger.lost.len()
    }

    fn backoff(&self, attempt: u32) -> u64 {
        self.rto.checked_shl(attempt.min(32)).unwrap_or(u64::MAX).min(self.rto_cap)
    }

    /// Executes one step of `sim` under the plan: fires due retransmits,
    /// absorbs duplicate ghosts, suppresses deliveries from delayed or
    /// hole-blocked links, lets the scheduler pick among what remains
    /// (honouring `filter`), then applies send faults to the messages the
    /// step emitted plus any scripted faults for this step.
    ///
    /// Returns the fired label, or `None` if nothing was enabled — which,
    /// unlike in the plain simulator, can mean "everything is delayed or
    /// awaiting retransmission" rather than deadlock; check
    /// [`pending_recoveries`](Self::pending_recoveries) before concluding.
    pub fn step(
        &mut self,
        sim: &mut Simulator<'_, AsyncSystem<'_>>,
        sched: &mut dyn Scheduler,
        mut filter: impl FnMut(&Label) -> bool,
        sink: &mut dyn TraceSink,
    ) -> Result<Option<Label>> {
        let now = self.now;
        let cap = sim.system().config().link_capacity;
        let n = sim.system().n() as usize;

        if self.plan.is_active() || !self.ledger.lost.is_empty() || !self.ledger.ghosts.is_empty() {
            self.absorb_pressure(sim, cap, n);
            self.process_retransmits(sim, sink, cap, now);
        }

        let held = self.held_links(sim, sink, n, now);
        let fired = sim.step_observed(
            sched,
            |l| {
                if let Some(r) = &l.recv {
                    if let Some(lr) = LinkRef::of(r.from, r.to) {
                        if held.contains(&lr) {
                            return false;
                        }
                    }
                }
                filter(l)
            },
            sink,
        )?;

        if let Some(label) = &fired {
            let seq = sim.stats().steps.saturating_sub(1);
            if let Some(r) = &label.recv {
                if let Some(lr) = LinkRef::of(r.from, r.to) {
                    self.ledger.on_remove_at(lr, 0);
                }
            }
            for m in label.emissions() {
                let Some(lr) = LinkRef::of(m.from, m.to) else { continue };
                if let Some(kind) = self.plan.decide_send(now, m.from, m.to) {
                    self.apply_fault(sim, sink, lr, kind, seq, cap, now, false);
                }
            }
        }

        let scripted: Vec<_> =
            self.plan.scripted_at(now).filter(|f| f.kind != FaultKind::Delay).copied().collect();
        let seq = sim.stats().steps.saturating_sub(u64::from(fired.is_some()));
        for f in scripted {
            if let Some(lr) = LinkRef::of(f.from, f.to) {
                self.apply_fault(sim, sink, lr, f.kind, seq, cap, now, true);
            }
        }

        self.absorb_heads(sim, n);
        self.now += 1;
        Ok(fired)
    }

    /// Links whose delivery is suppressed this step: resequencing holds
    /// (hole at the head) plus drawn or scripted delays.
    fn held_links(
        &mut self,
        sim: &Simulator<'_, AsyncSystem<'_>>,
        sink: &mut dyn TraceSink,
        n: usize,
        now: u64,
    ) -> Vec<LinkRef> {
        let mut held = Vec::new();
        if !self.plan.is_active() && self.ledger.lost.is_empty() {
            return held;
        }
        for l in LinkRef::all(n) {
            if self.ledger.blocked(l) {
                held.push(l);
                continue;
            }
            let link = l.link(sim.state());
            if link.is_empty() {
                continue;
            }
            let (from, to) = l.endpoints();
            let scripted = self
                .plan
                .scripted_at(now)
                .any(|f| f.kind == FaultKind::Delay && LinkRef::of(f.from, f.to) == Some(l));
            if scripted || self.plan.delayed(now, from, to) {
                held.push(l);
                self.stats.delays += 1;
                if scripted {
                    self.stats.scripted += 1;
                }
                if sink.enabled() {
                    let head = link.head().expect("non-empty link");
                    sink.emit(&TraceEvent::FaultInjected {
                        seq: sim.stats().steps,
                        kind: FaultKind::Delay.name().into(),
                        from: from.to_string(),
                        to: to.to_string(),
                        wire: head.kind_name().into(),
                        msg: wire_msg(head).map(|m| sim.system().msg_name(m)),
                    });
                }
            }
        }
        held
    }

    /// Absorbs duplicate ghosts on full links so the fault layer never
    /// causes a spurious `LinkOverflow`: the link layer's dedup fires
    /// under pressure exactly when the extra copy would matter.
    fn absorb_pressure(&mut self, sim: &mut Simulator<'_, AsyncSystem<'_>>, cap: usize, n: usize) {
        for l in LinkRef::all(n) {
            while l.link(sim.state()).len() >= cap {
                let Some(gi) = self.ledger.newest_ghost(l) else { break };
                let pos = self.ledger.ghosts[gi].pos;
                l.link_mut(sim.state_mut()).remove_at(pos);
                self.ledger.ghosts.swap_remove(gi);
                self.ledger.on_remove_at(l, pos);
                self.stats.absorbed += 1;
            }
        }
    }

    /// Absorbs ghosts that reached a link head: the original was already
    /// delivered, so the receiver's sequence check discards the copy.
    fn absorb_heads(&mut self, sim: &mut Simulator<'_, AsyncSystem<'_>>, n: usize) {
        if self.ledger.ghosts.is_empty() {
            return;
        }
        for l in LinkRef::all(n) {
            while let Some(gi) = self.ledger.ghost_index_at(l, 0) {
                l.link_mut(sim.state_mut()).pop();
                self.ledger.ghosts.swap_remove(gi);
                self.ledger.on_remove_at(l, 0);
                self.stats.absorbed += 1;
            }
        }
    }

    /// Fires every due retransmission: the attempt either succeeds (the
    /// frame is re-inserted at its original FIFO position) or is lost
    /// again, doubling the backoff.
    fn process_retransmits(
        &mut self,
        sim: &mut Simulator<'_, AsyncSystem<'_>>,
        sink: &mut dyn TraceSink,
        cap: usize,
        now: u64,
    ) {
        let mut i = 0;
        while i < self.ledger.lost.len() {
            let e = self.ledger.lost[i];
            // An older hole on the same link must be restored first; once
            // it is, this (already due) entry fires on the next step.
            if e.due > now || e.holes_ahead > 0 {
                i += 1;
                continue;
            }
            let (from, to) = e.link.endpoints();
            if self.plan.drops_retransmit(now, from, to, e.attempt) {
                let attempt = e.attempt + 1;
                let backoff = self.backoff(attempt);
                self.ledger.lost[i].attempt = attempt;
                self.ledger.lost[i].due = now + backoff;
                self.stats.retransmits += 1;
                self.stats.drops += 1;
                if sink.enabled() {
                    sink.emit(&TraceEvent::RetransmitTimeout {
                        seq: sim.stats().steps,
                        from: from.to_string(),
                        to: to.to_string(),
                        wire: e.wire.kind_name().into(),
                        msg: wire_msg(&e.wire).map(|m| sim.system().msg_name(m)),
                        attempt,
                        backoff,
                    });
                    sink.emit(&TraceEvent::FaultInjected {
                        seq: sim.stats().steps,
                        kind: FaultKind::Drop.name().into(),
                        from: from.to_string(),
                        to: to.to_string(),
                        wire: e.wire.kind_name().into(),
                        msg: wire_msg(&e.wire).map(|m| sim.system().msg_name(m)),
                    });
                }
                i += 1;
            } else {
                let len = e.link.link(sim.state()).len();
                if len >= cap {
                    // No room this step; the sender tries again shortly.
                    self.ledger.lost[i].due = now + 1;
                    i += 1;
                    continue;
                }
                let entry = self.ledger.on_retransmit(i);
                let pos = entry.ahead.min(len);
                e.link.link_mut(sim.state_mut()).insert(pos, entry.wire);
                self.ledger.on_insert_at(entry.link, pos);
                self.stats.retransmits += 1;
                self.stats.recovered += 1;
                sim.stats_mut().record_occupancy(from, to, (len + 1) as u32);
                if sink.enabled() {
                    sink.emit(&TraceEvent::RetransmitTimeout {
                        seq: sim.stats().steps,
                        from: from.to_string(),
                        to: to.to_string(),
                        wire: entry.wire.kind_name().into(),
                        msg: wire_msg(&entry.wire).map(|m| sim.system().msg_name(m)),
                        attempt: entry.attempt + 1,
                        backoff: 0,
                    });
                }
            }
        }
    }

    /// Applies one send-side fault to the tail of `lr`'s queue (where the
    /// just-emitted message sits).
    #[allow(clippy::too_many_arguments)]
    fn apply_fault(
        &mut self,
        sim: &mut Simulator<'_, AsyncSystem<'_>>,
        sink: &mut dyn TraceSink,
        lr: LinkRef,
        kind: FaultKind,
        seq: u64,
        cap: usize,
        now: u64,
        scripted: bool,
    ) {
        let (from, to) = lr.endpoints();
        let len = lr.link(sim.state()).len();
        if len == 0 {
            return;
        }
        let tail = len - 1;
        let applied: Option<Wire> = match kind {
            FaultKind::Drop => {
                if self.ledger.ghost_at(lr, tail) {
                    None // dropping a duplicate copy is a no-op; skip
                } else {
                    let wire = lr.link_mut(sim.state_mut()).remove_at(tail).expect("tail");
                    let holes_ahead = self.ledger.on_drop_tail(lr, tail);
                    self.ledger.lost.push(LostMsg {
                        link: lr,
                        wire,
                        ahead: tail,
                        holes_ahead,
                        due: now + self.rto,
                        attempt: 0,
                    });
                    self.stats.drops += 1;
                    Some(wire)
                }
            }
            FaultKind::Duplicate => {
                if len >= cap || self.ledger.ghost_at(lr, tail) {
                    None
                } else {
                    let wire = *lr.link(sim.state()).get(tail).expect("tail");
                    lr.link_mut(sim.state_mut()).push(wire);
                    self.ledger.ghosts.push(Ghost { link: lr, pos: len });
                    self.stats.dups += 1;
                    sim.stats_mut().record_occupancy(from, to, (len + 1) as u32);
                    Some(wire)
                }
            }
            FaultKind::Reorder => {
                // Only clean links: reordering across a hole or a ghost
                // has no physical reading.
                if len < 2 || self.ledger.touches(lr) {
                    None
                } else {
                    let wire = *lr.link(sim.state()).get(tail).expect("tail");
                    lr.link_mut(sim.state_mut()).swap(tail, tail - 1);
                    self.stats.reorders += 1;
                    Some(wire)
                }
            }
            FaultKind::Delay => None, // delivery-side; handled in held_links
        };
        if let Some(wire) = applied {
            if scripted {
                self.stats.scripted += 1;
            }
            if sink.enabled() {
                sink.emit(&TraceEvent::FaultInjected {
                    seq,
                    kind: kind.name().into(),
                    from: from.to_string(),
                    to: to.to_string(),
                    wire: wire.kind_name().into(),
                    msg: wire_msg(&wire).map(|m| sim.system().msg_name(m)),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Model-checking fault closure
// ---------------------------------------------------------------------------

/// The fault closure of an [`AsyncSystem`]: every reachable behaviour of
/// the base system, plus up to `budget` adversarial drop/duplicate faults
/// as extra nondeterministic transitions, plus the (always enabled, free)
/// recovery transitions that retransmit a lost frame into its original
/// FIFO position.
///
/// Exploring this system exhaustively proves that the protocol is safe
/// under **any** placement of at most `budget` faults, and a progress
/// check over it proves rendezvous keep completing once faults quiesce —
/// the recovery transitions are always available, so no fault can wedge
/// the protocol for good.
#[derive(Debug, Clone)]
pub struct FaultClosure<'a> {
    base: AsyncSystem<'a>,
    budget: u32,
}

impl<'a> FaultClosure<'a> {
    /// Wraps `base` with a fault budget.
    pub fn new(base: AsyncSystem<'a>, budget: u32) -> Self {
        Self { base, budget }
    }

    /// The wrapped asynchronous system.
    pub fn base(&self) -> &AsyncSystem<'a> {
        &self.base
    }

    /// The fault budget.
    pub fn budget(&self) -> u32 {
        self.budget
    }

    /// Restores the stored-state invariants after a transition: no ghost
    /// at a link head (the receiver's dedup discards it on arrival) and no
    /// ghost on a full link (dedup under pressure) — so a full link always
    /// means *genuine* traffic and `LinkOverflow` keeps its meaning.
    fn normalize(&self, s: &mut FaultState) {
        if s.ledger.ghosts.is_empty() {
            return;
        }
        let cap = self.base.config().link_capacity;
        for l in LinkRef::all(self.base.n() as usize) {
            while let Some(gi) = s.ledger.ghost_index_at(l, 0) {
                l.link_mut(&mut s.base).pop();
                s.ledger.ghosts.swap_remove(gi);
                s.ledger.on_remove_at(l, 0);
            }
            while l.link(&s.base).len() >= cap {
                let Some(gi) = s.ledger.newest_ghost(l) else { break };
                let pos = s.ledger.ghosts[gi].pos;
                l.link_mut(&mut s.base).remove_at(pos);
                s.ledger.ghosts.swap_remove(gi);
                s.ledger.on_remove_at(l, pos);
            }
        }
    }
}

/// A state of the fault closure: the base configuration plus the fault
/// budget left and the recovery ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultState {
    /// The underlying asynchronous configuration.
    pub base: AsyncState,
    /// Adversarial faults the environment may still inject.
    pub faults_left: u32,
    ledger: Ledger,
}

impl FaultState {
    /// Dropped messages not yet retransmitted in this configuration.
    pub fn lost_in_flight(&self) -> usize {
        self.ledger.lost.len()
    }

    /// Duplicate copies still sitting in link queues.
    pub fn ghosts_in_flight(&self) -> usize {
        self.ledger.ghosts.len()
    }
}

impl FaultClosure<'_> {
    /// The base system's walk on `s.base`, each successor it shows
    /// wrapped in the ledger in `scratch`, less the deliveries the
    /// resequencer holds back; then the retransmissions, drops and
    /// duplicates, each built in `scratch` too. Every step counts as
    /// writing everything. Not generic over the visitor, so it is
    /// compiled once whoever walks it.
    fn walk(
        &self,
        s: &FaultState,
        scratch: &mut FaultState,
        visit: &mut DynVisit<'_, FaultState>,
    ) -> Result<()> {
        let cap = self.base.config().link_capacity;
        let n = self.base.n() as usize;
        // Shows the successor built in `scratch`, then makes it `s` again;
        // true when `visit` broke.
        let mut show = |scratch: &mut FaultState, label: Label| {
            self.normalize(scratch);
            let flow = visit(0, label, scratch, Written::ALL);
            scratch.clone_from(s);
            flow.is_break()
        };

        // Base protocol transitions, minus deliveries from links whose
        // head frame is lost (the resequencer holds successors back).
        let mut stopped = false;
        let mut base = s.base.clone();
        walk_dyn(&self.base, &s.base, &mut base, &|_| true, &mut |_, label, next, _| {
            let consumed = label.recv.and_then(|r| LinkRef::of(r.from, r.to));
            if consumed.is_some_and(|lr| s.ledger.blocked(lr)) {
                return ControlFlow::Continue(());
            }
            scratch.base.clone_from(next);
            if let Some(lr) = consumed {
                scratch.ledger.on_remove_at(lr, 0);
            }
            stopped = show(scratch, label);
            if stopped {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })?;
        if stopped {
            return Ok(());
        }

        // Recovery: retransmit any lost frame into its original position.
        // Free (no budget) — recovery repairs, it does not damage. Holes
        // with lost same-link predecessors wait their turn: restoring them
        // first would reverse the original send order.
        for (i, e) in s.ledger.lost.iter().enumerate() {
            if e.holes_ahead > 0 {
                continue;
            }
            let len = e.link.link(&s.base).len();
            if len >= cap {
                continue;
            }
            let (from, to) = e.link.endpoints();
            let pos = e.ahead.min(len);
            e.link.link_mut(&mut scratch.base).insert(pos, e.wire);
            scratch.ledger.on_retransmit(i);
            scratch.ledger.on_insert_at(e.link, pos);
            let tag = Some(format!("{from}->{to}#{i}").into());
            if show(scratch, Label::new(from, LabelKind::Fault, "fault/retransmit").tagged(&tag)) {
                return Ok(());
            }
        }

        // Adversary: drop or duplicate the tail of any link, while budget
        // lasts. Tails only — a fault hits a message as it is sent; deeper
        // queue positions are reached by faulting earlier.
        if s.faults_left > 0 {
            for l in LinkRef::all(n) {
                let len = l.link(&s.base).len();
                if len == 0 {
                    continue;
                }
                let tail = len - 1;
                if s.ledger.ghost_at(l, tail) {
                    continue;
                }
                let (from, to) = l.endpoints();
                let tag = Some(format!("{from}->{to}").into());
                scratch.faults_left -= 1;
                let wire = l.link_mut(&mut scratch.base).remove_at(tail).expect("tail");
                let holes_ahead = scratch.ledger.on_drop_tail(l, tail);
                scratch.ledger.lost.push(LostMsg {
                    link: l,
                    wire,
                    ahead: tail,
                    holes_ahead,
                    due: 0,
                    attempt: 0,
                });
                if show(scratch, Label::new(from, LabelKind::Fault, "fault/drop").tagged(&tag)) {
                    return Ok(());
                }
                if len + 1 < cap {
                    scratch.faults_left -= 1;
                    let wire = *l.link(&scratch.base).get(tail).expect("tail");
                    l.link_mut(&mut scratch.base).push(wire);
                    scratch.ledger.ghosts.push(Ghost { link: l, pos: len });
                    if show(scratch, Label::new(from, LabelKind::Fault, "fault/dup").tagged(&tag)) {
                        return Ok(());
                    }
                }
            }
        }
        Ok(())
    }

    /// Appends the fault budget and the ledger to `out`, the ledger in a
    /// canonical order. The budget, the counts, link indices and hole
    /// counts can pass 255 (`--fault-budget`, `-n`), so they are written
    /// as [`Sink::put_id`] writes an id: one byte below 128, never two
    /// values alike.
    fn encode_ledger(s: &FaultState, out: &mut Vec<u8>) {
        out.put_id(s.faults_left);
        // Canonicalize ledger order so states reached by different fault
        // interleavings dedup. `due`/`attempt` are timer bookkeeping with
        // no meaning here (always 0) and are excluded. Entries are
        // encoded straight into `out` (variable length — the wire may
        // carry a value) with their byte ranges recorded; when more than
        // one entry landed out of order, the tail is rewritten through a
        // single scratch copy instead of allocating one `Vec` per entry.
        out.put_id(s.ledger.lost.len() as u32);
        let lost_base = out.len();
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(s.ledger.lost.len());
        for e in &s.ledger.lost {
            let start = out.len();
            out.push(u8::from(e.link.to_home));
            out.put_id(e.link.idx as u32);
            out.push(e.ahead as u8);
            out.put_id(e.holes_ahead as u32);
            e.wire.encode(out);
            ranges.push((start, out.len()));
        }
        let sorted = ranges.windows(2).all(|w| out[w[0].0..w[0].1] <= out[w[1].0..w[1].1]);
        if !sorted {
            ranges.sort_by(|a, b| out[a.0..a.1].cmp(&out[b.0..b.1]));
            let mut tmp = Vec::with_capacity(out.len() - lost_base);
            for &(a, b) in &ranges {
                tmp.extend_from_slice(&out[a..b]);
            }
            out.truncate(lost_base);
            out.extend_from_slice(&tmp);
        }
        let mut ghosts: Vec<(bool, usize, usize)> =
            s.ledger.ghosts.iter().map(|g| (g.link.to_home, g.link.idx, g.pos)).collect();
        ghosts.sort();
        out.put_id(ghosts.len() as u32);
        for (to_home, idx, pos) in ghosts {
            out.push(u8::from(to_home));
            out.put_id(idx as u32);
            out.push(pos as u8);
        }
    }
}

impl TransitionSystem for FaultClosure<'_> {
    type State = FaultState;

    fn initial(&self) -> FaultState {
        FaultState {
            base: self.base.initial(),
            faults_left: self.budget,
            ledger: Ledger::default(),
        }
    }

    /// The transitions of `FaultClosure::walk`, one group.
    fn for_each_successor_in(
        &self,
        s: &FaultState,
        scratch: &mut FaultState,
        wanted: impl Fn(usize) -> bool,
        mut visit: impl FnMut(usize, Label, &FaultState, Written) -> ControlFlow<()>,
    ) -> Result<()> {
        if !wanted(0) {
            return Ok(());
        }
        self.walk(s, scratch, &mut visit)
    }

    /// The base state's segments, then the fault budget and ledger as one
    /// more segment, interned with the homes'.
    fn encode_into(
        &self,
        s: &FaultState,
        _from: Option<Origin<'_, FaultState>>,
        out: &mut impl Sink,
    ) {
        self.base.encode_into(&s.base, None, out);
        let mut ledger = Vec::new();
        Self::encode_ledger(s, &mut ledger);
        out.put_all(&ledger);
        out.end_segment(Segment::Home);
    }

    /// The key above with the ledger as it stands: entry order decides
    /// how retransmissions are numbered, so a pending state restored from
    /// sorted entries would label its successors differently. Widths as
    /// in `encode`, but for the budget and remote indices, written whole.
    fn snapshot_into(&self, s: &FaultState, out: &mut Vec<u8>) {
        fn put_link(l: LinkRef, out: &mut Vec<u8>) {
            out.push(u8::from(l.to_home));
            out.extend_from_slice(&(l.idx as u16).to_le_bytes());
        }
        self.base.encode(&s.base, out);
        out.extend_from_slice(&s.faults_left.to_le_bytes());
        out.put_id(s.ledger.lost.len() as u32);
        for e in &s.ledger.lost {
            debug_assert_eq!((e.due, e.attempt), (0, 0), "the closure keeps no timers");
            put_link(e.link, out);
            out.push(e.ahead as u8);
            out.put_id(e.holes_ahead as u32);
            e.wire.encode(out);
        }
        out.put_id(s.ledger.ghosts.len() as u32);
        for g in &s.ledger.ghosts {
            put_link(g.link, out);
            out.push(g.pos as u8);
        }
    }

    fn restore_into(&self, bytes: &[u8], into: &mut FaultState) -> bool {
        fn link(r: &mut Reader<'_>) -> Option<LinkRef> {
            let to_home = match r.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            Some(LinkRef { to_home, idx: r.u16()? as usize })
        }
        let mut r = Reader::new(bytes);
        let mut parse = || -> Option<()> {
            self.base.parse_into(&mut r, &mut into.base)?;
            into.faults_left = r.u32()?;
            let ledger = &mut into.ledger;
            ledger.lost.clear();
            for _ in 0..r.id()? {
                let link = link(&mut r)?;
                let (ahead, holes_ahead) = (r.u8()? as usize, r.id()? as usize);
                let wire = r.wire()?;
                ledger.lost.push(LostMsg { link, wire, ahead, holes_ahead, due: 0, attempt: 0 });
            }
            ledger.ghosts.clear();
            for _ in 0..r.id()? {
                ledger.ghosts.push(Ghost { link: link(&mut r)?, pos: r.u8()? as usize });
            }
            Some(())
        };
        parse().is_some() && r.at_end()
    }

    fn link_occupancy(&self, s: &FaultState, from: ProcessId, to: ProcessId) -> Option<u32> {
        self.base.link_occupancy(&s.base, from, to)
    }

    fn home_buffer_occupancy(&self, s: &FaultState) -> Option<(u32, u32)> {
        self.base.home_buffer_occupancy(&s.base)
    }

    fn msg_name(&self, m: MsgType) -> String {
        self.base.msg_name(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asynch::AsyncConfig;
    use crate::sched::RandomSched;
    use ccr_core::builder::ProtocolBuilder;
    use ccr_core::expr::Expr;
    use ccr_core::refine::{refine, RefineOptions};
    use ccr_core::value::Value;
    use ccr_faults::{FaultRates, FaultSpec, ScriptedFault};
    use ccr_trace::NullSink;

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
    fn ledger_position_arithmetic() {
        let l = LinkRef { to_home: true, idx: 0 };
        let mut led = Ledger::default();
        led.lost.push(LostMsg {
            link: l,
            wire: Wire::Ack,
            ahead: 2,
            holes_ahead: 0,
            due: 0,
            attempt: 0,
        });
        led.ghosts.push(Ghost { link: l, pos: 3 });
        led.on_remove_at(l, 0); // consume ahead of both
        assert_eq!(led.lost[0].ahead, 1);
        assert_eq!(led.ghosts[0].pos, 2);
        led.on_insert_at(l, 1); // re-insert at the hole's position
        assert_eq!(led.lost[0].ahead, 2);
        assert_eq!(led.ghosts[0].pos, 3);
        led.on_remove_at(l, 4); // behind both: no change
        assert_eq!(led.lost[0].ahead, 2);
        assert_eq!(led.ghosts[0].pos, 3);
        assert!(!led.blocked(l));
        led.lost[0].ahead = 0;
        assert!(led.blocked(l));
    }

    #[test]
    fn simultaneous_holes_restore_in_send_order() {
        // Queue [A, B] (A sent first). Drop tail B, then drop tail A: B's
        // hole must record A's hole as a predecessor, and only A may be
        // retransmitted first.
        let l = LinkRef { to_home: true, idx: 0 };
        let mut led = Ledger::default();
        let b_holes = led.on_drop_tail(l, 1);
        led.lost.push(LostMsg {
            link: l,
            wire: Wire::Ack,
            ahead: 1,
            holes_ahead: b_holes,
            due: 0,
            attempt: 0,
        });
        assert_eq!(b_holes, 0);
        let a_holes = led.on_drop_tail(l, 0);
        led.lost.push(LostMsg {
            link: l,
            wire: Wire::Nack,
            ahead: 0,
            holes_ahead: a_holes,
            due: 0,
            attempt: 0,
        });
        assert_eq!(a_holes, 0, "A was sent before B's hole");
        assert_eq!(led.lost[0].ahead, 0, "B lost its live predecessor A");
        assert_eq!(led.lost[0].holes_ahead, 1, "B now waits for A's hole");
        // Retransmit A (index 1): B becomes eligible, behind live A.
        let a = led.on_retransmit(1);
        assert_eq!(a.wire, Wire::Nack);
        led.on_insert_at(l, 0);
        assert_eq!(led.lost[0].holes_ahead, 0);
        assert_eq!(led.lost[0].ahead, 1, "B re-inserts behind the restored A");
    }

    #[test]
    fn faulted_run_recovers_and_completes() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let sys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
        let plan = FaultPlan::new(
            FaultSpec::with_rates(FaultRates { drop: 0.08, dup: 0.04, ..FaultRates::default() }),
            11,
        );
        let mut harness = FaultHarness::new(plan);
        let mut sim = Simulator::new(&sys);
        let mut sched = RandomSched::new(5);
        let mut idle = 0;
        for _ in 0..8000 {
            match harness.step(&mut sim, &mut sched, |_| true, &mut NullSink).unwrap() {
                Some(_) => idle = 0,
                None => {
                    idle += 1;
                    assert!(
                        harness.pending_recoveries() > 0 || idle < 3,
                        "quiet network with nothing to recover"
                    );
                }
            }
        }
        let stats = *harness.stats();
        assert!(stats.drops > 0, "plan never dropped anything: {stats:?}");
        assert!(stats.recovered > 0, "no drop was ever recovered: {stats:?}");
        assert!(stats.dups > 0 && stats.absorbed > 0, "dup/dedup unexercised: {stats:?}");
        assert!(
            sim.stats().total_completed() > 100,
            "rendezvous kept completing under faults: {}",
            sim.stats().total_completed()
        );
    }

    #[test]
    fn scripted_drop_is_recovered_deterministically() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        let run = |script: bool| -> (u64, FaultStats) {
            let mut plan = FaultPlan::inactive();
            if script {
                // Blanket-drop everything sent home at steps 2..6 — the
                // exact victims are schedule-dependent but deterministic.
                for step in 2..6 {
                    for r in 0..2 {
                        plan.script(ScriptedFault {
                            step,
                            from: ProcessId::Remote(RemoteId(r)),
                            to: ProcessId::Home,
                            kind: FaultKind::Drop,
                        });
                    }
                }
            }
            let mut harness = FaultHarness::new(plan);
            let mut sim = Simulator::new(&sys);
            let mut sched = RandomSched::new(9);
            for _ in 0..2000 {
                harness.step(&mut sim, &mut sched, |_| true, &mut NullSink).unwrap();
            }
            (sim.stats().total_completed(), *harness.stats())
        };
        let (done_clean, _) = run(false);
        let (done_faulted, stats) = run(true);
        assert!(stats.drops > 0 && stats.recovered == stats.drops, "{stats:?}");
        assert!(done_faulted > 100);
        // Recovery is a pure delay: throughput dips but does not collapse.
        assert!(done_faulted * 2 > done_clean, "{done_faulted} vs {done_clean}");
    }

    #[test]
    fn inactive_harness_matches_plain_simulation() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let sys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
        let mut plain = Simulator::new(&sys);
        let mut plain_sched = RandomSched::new(7);
        let mut faulted = Simulator::new(&sys);
        let mut faulted_sched = RandomSched::new(7);
        let mut harness = FaultHarness::new(FaultPlan::inactive());
        for _ in 0..3000 {
            let a = plain.step_observed(&mut plain_sched, |_| true, &mut NullSink).unwrap();
            let b =
                harness.step(&mut faulted, &mut faulted_sched, |_| true, &mut NullSink).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(plain.state(), faulted.state());
        assert_eq!(plain.stats(), faulted.stats());
        assert_eq!(harness.stats(), &FaultStats::default());
    }

    /// A budget or a remote index past 255 is a key of its own, not the
    /// key of the value it would wrap to in a byte; and the snapshot
    /// gives back each state.
    #[test]
    fn keys_tell_budgets_and_remotes_past_255_apart() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let base = AsyncSystem::new(&refined, 257, AsyncConfig::default());
        let closure = FaultClosure::new(base, 256);
        let full = closure.initial();
        let spent = FaultState { faults_left: 0, ..full.clone() };
        let lost_on = |idx| {
            let mut s = full.clone();
            let link = LinkRef { to_home: true, idx };
            let (wire, ahead, holes_ahead) = (Wire::Ack, 0, 0);
            s.ledger.lost.push(LostMsg { link, wire, ahead, holes_ahead, due: 0, attempt: 0 });
            s
        };
        let (r0, r256) = (lost_on(0), lost_on(256));
        assert_ne!(closure.encoded(&full), closure.encoded(&spent));
        assert_ne!(closure.encoded(&r0), closure.encoded(&r256));
        let (mut bytes, mut back) = (Vec::new(), closure.initial());
        for s in [full.clone(), spent, r0, r256] {
            closure.snapshot_into(&s, &mut bytes);
            assert!(closure.restore_into(&bytes, &mut back));
            assert_eq!(back, s);
        }
    }

    #[test]
    fn closure_with_zero_budget_equals_base_reachability() {
        use std::collections::HashSet;
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        let closure = FaultClosure::new(sys.clone(), 0);
        let explore_base = {
            let mut seen = HashSet::new();
            let mut frontier = vec![sys.initial()];
            seen.insert(sys.encoded(&sys.initial()));
            while let Some(s) = frontier.pop() {
                let mut out = Vec::new();
                sys.successors(&s, &mut out).unwrap();
                for (_, ns) in out {
                    if seen.insert(sys.encoded(&ns)) {
                        frontier.push(ns);
                    }
                }
            }
            seen.len()
        };
        let explore_closure = {
            let mut seen = HashSet::new();
            let mut frontier = vec![closure.initial()];
            seen.insert(closure.encoded(&closure.initial()));
            while let Some(s) = frontier.pop() {
                let mut out = Vec::new();
                closure.successors(&s, &mut out).unwrap();
                for (_, ns) in out {
                    if seen.insert(closure.encoded(&ns)) {
                        frontier.push(ns);
                    }
                }
            }
            seen.len()
        };
        assert_eq!(explore_base, explore_closure);
    }

    #[test]
    fn closure_budget_one_stays_safe_and_recoverable() {
        use std::collections::HashSet;
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        let closure = FaultClosure::new(sys, 1);
        let mut seen = HashSet::new();
        let mut frontier = vec![closure.initial()];
        seen.insert(closure.encoded(&closure.initial()));
        let mut fault_transitions = 0u64;
        while let Some(s) = frontier.pop() {
            let mut out = Vec::new();
            closure.successors(&s, &mut out).expect("no runtime failure under one fault");
            assert!(
                !out.is_empty() || s.base.in_flight() == 0,
                "wedged state with messages in flight"
            );
            for (l, ns) in out {
                if l.kind == LabelKind::Fault {
                    fault_transitions += 1;
                }
                if seen.insert(closure.encoded(&ns)) {
                    frontier.push(ns);
                }
            }
        }
        assert!(fault_transitions > 0, "budget 1 must generate fault transitions");
    }
}
