//! Wire faults over the asynchronous semantics: one model, driven two ways.
//!
//! The paper's network (§2.2) is reliable and FIFO. [`FaultClosure`]
//! makes that assumption *adversarial*: it lifts an [`AsyncSystem`] into a
//! transition system whose extra transitions drop, duplicate or (when
//! allowed) reorder a wire message, and an ideal-ARQ recovery layer
//! repairs the damage the way a real link layer would:
//!
//! * **Drops** are recovered by retransmission. The closure plays the
//!   sender's keep-the-frame role: its ledger remembers exactly which
//!   [`Wire`] vanished and how many live messages were ahead of it, and the
//!   retransmission re-inserts the frame at that position — a resequencing
//!   receiver, so FIFO order is preserved end to end and the drop is
//!   observationally a pure delay.
//! * **Duplicates** are appended to the link tail and tracked as *ghosts*;
//!   a link-layer sequence check absorbs them when they reach the head
//!   (and early, under capacity pressure), so the protocol never sees a
//!   double delivery — the observable cost is occupancy and delay.
//! * **Reorders** swap a link's tail with its predecessor and are
//!   deliberately *not* masked: they probe the refinement's FIFO
//!   assumption directly and can surface genuine protocol reactions.
//!
//! The closure is what the model checker explores, under a budget of `f`
//! drops and duplicates, to *prove* safety under ≤ f faults and progress
//! once faults quiesce. [`fault_walk`] steps the same closure: a seeded
//! [`FaultPlan`] decides, poll by poll, which of the closure's
//! transitions a simulated run takes — when to retransmit (a timer with
//! capped exponential backoff), which link's deliveries to delay for one
//! poll — and the walk changes state only by stepping a [`Simulator`] over
//! the closure. So every walk is a path of the closure, and a failing one
//! is a trail the checker replays.

use crate::asynch::{AsyncState, AsyncSystem};
use crate::error::{Result, RuntimeError};
use crate::sched::Scheduler;
use crate::sim::Simulator;
use crate::system::{walk_dyn, DynVisit, Label, LabelKind, Origin, TransitionSystem, Written};
use crate::wire::{Link, Reader, Wire};
use ccr_core::encode::{Segment, Sink};
use ccr_core::ids::{MsgType, ProcessId, RemoteId};
use ccr_faults::{FaultKind, FaultPlan, FaultStats};
use ccr_trace::TraceSink;
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
}

/// A duplicate copy in a link queue, tracked by position so the link layer
/// can absorb it before the protocol sees a double delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ghost {
    link: LinkRef,
    pos: usize,
}

/// Joint bookkeeping for holes (dropped messages) and ghosts (duplicate
/// copies), with their position arithmetic.
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

// ---------------------------------------------------------------------------
// Model-checking fault closure
// ---------------------------------------------------------------------------

/// Rule of the closure's transition that drops a link's tail.
pub const DROP: &str = "fault/drop";
/// Rule of the closure's transition that duplicates a link's tail.
pub const DUP: &str = "fault/dup";
/// Rule of the closure's transition that swaps a link's tail with its
/// predecessor (enumerated only where reordering is allowed).
pub const REORDER: &str = "fault/reorder";
/// Rule of the closure's transition that restores a lost frame.
pub const RETRANSMIT: &str = "fault/retransmit";

/// The fault closure of an [`AsyncSystem`]: every reachable behaviour of
/// the base system, plus up to `budget` adversarial faults as extra
/// nondeterministic transitions, plus the (always enabled, free) recovery
/// transitions that retransmit a lost frame into its original FIFO
/// position. The faults are drops and duplicates, and reorders too where
/// the closure allows them ([`FaultClosure::for_plan`]).
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
    reorder: bool,
}

impl<'a> FaultClosure<'a> {
    /// Wraps `base` with a budget of drops and duplicates.
    pub fn new(base: AsyncSystem<'a>, budget: u32) -> Self {
        Self { base, budget, reorder: false }
    }

    /// The closure a seeded walk under `plan` steps ([`fault_walk`]): an
    /// unbounded budget, and reorders among the faults exactly when the
    /// plan draws them.
    pub fn for_plan(base: AsyncSystem<'a>, plan: &FaultPlan) -> Self {
        Self { base, budget: u32::MAX, reorder: plan.rates().reorder > 0.0 }
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

impl FaultClosure<'_> {
    /// The base system's walk on `s.base`, each successor it shows
    /// wrapped in the ledger in `scratch`, less the deliveries the
    /// resequencer holds back; then the retransmissions, drops,
    /// duplicates and reorders, each built in `scratch` too. Every step counts as
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
            if show(scratch, Label::new(from, LabelKind::Fault, RETRANSMIT).tagged(&tag)) {
                return Ok(());
            }
        }

        // Adversary: drop, duplicate or reorder the tail of any link, while
        // budget lasts. Tails only — a fault hits a message as it is sent;
        // deeper queue positions are reached by faulting earlier.
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
                scratch.ledger.lost.push(LostMsg { link: l, wire, ahead: tail, holes_ahead });
                if show(scratch, Label::new(from, LabelKind::Fault, DROP).tagged(&tag)) {
                    return Ok(());
                }
                if len + 1 < cap {
                    scratch.faults_left -= 1;
                    let wire = *l.link(&scratch.base).get(tail).expect("tail");
                    l.link_mut(&mut scratch.base).push(wire);
                    scratch.ledger.ghosts.push(Ghost { link: l, pos: len });
                    if show(scratch, Label::new(from, LabelKind::Fault, DUP).tagged(&tag)) {
                        return Ok(());
                    }
                }
                // Only clean links: reordering across a hole or a ghost
                // has no physical reading.
                if self.reorder && len >= 2 && !s.ledger.touches(l) {
                    scratch.faults_left -= 1;
                    l.link_mut(&mut scratch.base).swap(tail, tail - 1);
                    if show(scratch, Label::new(from, LabelKind::Fault, REORDER).tagged(&tag)) {
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
        // interleavings dedup. Entries are encoded straight into `out` (variable length — the wire may
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
                ledger.lost.push(LostMsg { link, wire, ahead, holes_ahead });
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

// ---------------------------------------------------------------------------
// Seeded fault walks: a policy over the closure
// ---------------------------------------------------------------------------

/// Initial retransmission timeout of a fault walk, in polls.
pub const DEFAULT_RTO: u64 = 8;
/// Cap of a fault walk's exponential retransmission backoff, in polls.
pub const DEFAULT_RTO_CAP: u64 = 512;

/// How a seeded fault walk ([`fault_walk`]) ended.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultWalk {
    /// Every label the walk fired, base and fault transitions alike, in
    /// firing order: a path of the closure from the state the walk began
    /// in to the simulator's state now.
    pub trail: Vec<Label>,
    /// What the policy fired and what it declined.
    pub stats: FaultStats,
    /// True when the walk stopped in a state with no base transition and
    /// no hole left to retransmit.
    pub deadlocked: bool,
    /// The executor error that stopped the walk: generating the successors
    /// of the state the trail ends in fails with it.
    pub error: Option<RuntimeError>,
}

/// The walk's retransmission timer of one hole; the timers are kept in
/// the order of the ledger's holes.
#[derive(Debug, Clone, Copy)]
struct Timer {
    /// The poll at which the next attempt is due.
    due: u64,
    /// Attempts the plan lost so far.
    attempt: u32,
}

/// The scheduler of a forced pick: the first transition offered, no draw.
struct First;

impl Scheduler for First {
    fn pick(&mut self, choices: &[ProcessId]) -> Option<usize> {
        (!choices.is_empty()).then_some(0)
    }
}

/// Walks `sim` for up to `polls` polls under `plan`, from its current
/// state. The walk changes state only through
/// [`Simulator::step_observed`], narrating every fired transition to
/// `sink`, so its trail is a path of the closure; the policy reads the
/// state, ledger included, and never writes it. Poll `i` draws from the
/// plan at step `i`:
///
/// 1. Every hole whose timer is due and whose retransmission the closure
///    offers is retransmitted, unless the plan loses the attempt: then
///    the policy declines it and doubles the backoff
///    ([`DEFAULT_RTO`], capped at [`DEFAULT_RTO_CAP`]).
/// 2. Each non-empty link the plan delays has its deliveries withheld.
/// 3. `sched` draws once among the base transitions left — fault labels
///    are not shown to it, so under an inactive plan it sees exactly the
///    base system's choices.
/// 4. Each message that step sent meets the plan's draw: a drop,
///    duplicate or reorder fires the closure's transition on that link as
///    a forced pick, which draws nothing from `sched`.
///
/// The walk stops early at a state with no base transition and no hole to
/// retransmit, or at an executor error. A fault the closure does not offer
/// — on a full link, past its budget, a reorder where it allows none — is
/// not taken: the closure [`FaultClosure::for_plan`] builds from the same
/// plan offers every fault the plan draws.
pub fn fault_walk(
    sim: &mut Simulator<'_, FaultClosure<'_>>,
    plan: &FaultPlan,
    sched: &mut dyn Scheduler,
    polls: u64,
    sink: &mut dyn TraceSink,
) -> FaultWalk {
    let holes = sim.state().ledger.lost.len();
    let mut walk = Walker {
        sim,
        sink,
        timers: vec![Timer { due: DEFAULT_RTO, attempt: 0 }; holes],
        run: FaultWalk::default(),
    };
    for now in 0..polls {
        match walk.poll(plan, sched, now) {
            Ok(true) => {}
            Ok(false) => {
                walk.run.deadlocked = true;
                break;
            }
            Err(e) => {
                walk.run.error = Some(e);
                break;
            }
        }
    }
    walk.run
}

/// A walk under way: the simulator it steps and what it has kept.
struct Walker<'w, 's, 'a> {
    sim: &'w mut Simulator<'s, FaultClosure<'a>>,
    sink: &'w mut dyn TraceSink,
    timers: Vec<Timer>,
    run: FaultWalk,
}

impl Walker<'_, '_, '_> {
    /// One poll (see [`fault_walk`]); false when nothing can move again.
    fn poll(&mut self, plan: &FaultPlan, sched: &mut dyn Scheduler, now: u64) -> Result<bool> {
        self.retransmit_due(plan, now)?;
        let held = self.delayed(plan, now);
        let mut base = false;
        let fired = self.fire(sched, |l| {
            if l.kind == LabelKind::Fault {
                return false;
            }
            base = true;
            !l.recv.and_then(|r| LinkRef::of(r.from, r.to)).is_some_and(|lr| held.contains(&lr))
        })?;
        let Some(label) = fired else {
            return Ok(base || !self.timers.is_empty());
        };
        for m in label.emissions() {
            let Some(kind) = plan.decide_send(now, m.from, m.to) else { continue };
            let rule = match kind {
                FaultKind::Drop => DROP,
                FaultKind::Duplicate => DUP,
                FaultKind::Reorder => REORDER,
            };
            if !self.force(rule, m.from, m.to, &format!("{}->{}", m.from, m.to))? {
                continue;
            }
            let stats = &mut self.run.stats;
            match kind {
                FaultKind::Drop => {
                    stats.drops += 1;
                    self.timers.push(Timer { due: now + DEFAULT_RTO, attempt: 0 });
                }
                FaultKind::Duplicate => stats.dups += 1,
                FaultKind::Reorder => stats.reorders += 1,
            }
        }
        Ok(true)
    }

    /// Step 1 of a poll: the due retransmissions, oldest hole first.
    fn retransmit_due(&mut self, plan: &FaultPlan, now: u64) -> Result<()> {
        let mut i = 0;
        while i < self.timers.len() {
            let Timer { due, attempt } = self.timers[i];
            let hole = self.sim.state().ledger.lost[i];
            // An older hole of the same link is restored first; once it
            // is, this (already due) one goes at the next poll.
            if due > now || hole.holes_ahead > 0 {
                i += 1;
                continue;
            }
            let (from, to) = hole.link.endpoints();
            if plan.drops_retransmit(now, from, to, attempt) {
                let attempt = attempt + 1;
                let backoff = DEFAULT_RTO
                    .checked_shl(attempt.min(32))
                    .unwrap_or(u64::MAX)
                    .min(DEFAULT_RTO_CAP);
                self.timers[i] = Timer { due: now + backoff, attempt };
                self.run.stats.retransmits += 1;
                self.run.stats.drops += 1;
                i += 1;
            } else if self.force(RETRANSMIT, from, to, &format!("{from}->{to}#{i}"))? {
                self.timers.remove(i);
                self.run.stats.retransmits += 1;
                self.run.stats.recovered += 1;
            } else {
                // The link is full: the sender tries again at the next poll.
                i += 1;
            }
        }
        Ok(())
    }

    /// Step 2 of a poll: the links whose deliveries the plan withholds.
    /// A link with a hole at its head is held by the closure already.
    fn delayed(&mut self, plan: &FaultPlan, now: u64) -> Vec<LinkRef> {
        let s = self.sim.state();
        let held: Vec<LinkRef> = LinkRef::all(self.sim.system().base.n() as usize)
            .filter(|&l| {
                let (from, to) = l.endpoints();
                !l.link(&s.base).is_empty() && !s.ledger.blocked(l) && plan.delayed(now, from, to)
            })
            .collect();
        self.run.stats.delays += held.len() as u64;
        held
    }

    /// Fires the closure's fault transition `rule` on the link or hole
    /// `tag` names, if it is enabled, and records the occupancy it left
    /// on that link `from → to`: a fault writes a link but sends nothing.
    fn force(&mut self, rule: &str, from: ProcessId, to: ProcessId, tag: &str) -> Result<bool> {
        let fired = self.fire(&mut First, |l| l.rule == rule && l.tag.as_deref() == Some(tag))?;
        if fired.is_some() {
            self.sim.observe_link(from, to);
        }
        Ok(fired.is_some())
    }

    /// One step of the simulator among the transitions `want` accepts,
    /// kept on the trail, with the ghosts it absorbed counted.
    fn fire(
        &mut self,
        sched: &mut dyn Scheduler,
        want: impl FnMut(&Label) -> bool,
    ) -> Result<Option<Label>> {
        let ghosts = self.sim.state().ledger.ghosts.len() + 1;
        let fired = self.sim.step_observed(sched, want, self.sink)?;
        if let Some(label) = &fired {
            let left = self.sim.state().ledger.ghosts.len() + usize::from(label.rule != DUP);
            self.run.stats.absorbed += (ghosts - left) as u64;
            self.run.trail.push(label.clone());
        }
        Ok(fired)
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
    use ccr_faults::FaultRates;
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
        led.lost.push(LostMsg { link: l, wire: Wire::Ack, ahead: 2, holes_ahead: 0 });
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
        led.lost.push(LostMsg { link: l, wire: Wire::Ack, ahead: 1, holes_ahead: b_holes });
        assert_eq!(b_holes, 0);
        let a_holes = led.on_drop_tail(l, 0);
        led.lost.push(LostMsg { link: l, wire: Wire::Nack, ahead: 0, holes_ahead: a_holes });
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
    fn seeded_walk_recovers_and_completes() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let sys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
        let rates = FaultRates { drop: 0.08, dup: 0.04, ..FaultRates::default() };
        let plan = FaultPlan::new(rates, 11);
        let closure = FaultClosure::for_plan(sys, &plan);
        let mut sim = Simulator::new(&closure);
        let walk = fault_walk(&mut sim, &plan, &mut RandomSched::new(5), 8000, &mut NullSink);
        assert!(!walk.deadlocked && walk.error.is_none(), "{walk:?}");
        let stats = walk.stats;
        assert!(stats.drops > 0, "plan never dropped anything: {stats:?}");
        assert!(stats.recovered > 0, "no drop was ever recovered: {stats:?}");
        assert!(stats.dups > 0 && stats.absorbed > 0, "dup/dedup unexercised: {stats:?}");
        // Every drop the policy fired (not counting lost retransmissions)
        // is a hole the ledger still holds or one recovered since.
        let fired = walk.trail.iter().filter(|l| l.rule == DROP).count();
        assert_eq!(fired, stats.recovered as usize + sim.state().ledger.lost.len());
        assert!(
            sim.stats().total_completed() > 100,
            "rendezvous kept completing under faults: {}",
            sim.stats().total_completed()
        );
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
            s.ledger.lost.push(LostMsg { link, wire, ahead, holes_ahead });
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
