//! The `TransitionSystem` abstraction shared by both semantic levels.
//!
//! The model checker, the simulators and the abstraction checker all
//! consume protocols through this trait, so every analysis works uniformly
//! on the rendezvous and the asynchronous semantics.

use crate::error::Result;
use ccr_core::encode::Sink;
use ccr_core::ids::{MsgType, ProcessId};
use serde::Serialize;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Classification of a global transition, used for reporting and for the
/// progress checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum LabelKind {
    /// An autonomous local step (`tau`, including internal states).
    Tau,
    /// A rendezvous completed atomically (rendezvous semantics only).
    Rendezvous,
    /// A process issued a request for rendezvous.
    Request,
    /// Delivery of a wire message was processed.
    Deliver,
    /// A passive party completed a rendezvous (sent an ack or consumed an
    /// optimized request).
    Complete,
    /// A request was nacked.
    Nacked,
    /// The fault layer perturbed the network (model-checking fault-closure
    /// transitions: drop, duplicate, retransmit).
    Fault,
}

/// A wire message emitted during a step, for message accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SentMsg {
    /// Sender.
    pub from: ProcessId,
    /// Receiver.
    pub to: ProcessId,
    /// `Some(m)` for requests (including optimized replies); `None` for
    /// acks/nacks.
    pub msg: Option<MsgType>,
    /// True for nacks.
    pub is_nack: bool,
    /// True for acks.
    pub is_ack: bool,
}

impl SentMsg {
    /// A request (or optimized reply) message record.
    pub fn req(from: ProcessId, to: ProcessId, msg: MsgType) -> Self {
        Self { from, to, msg: Some(msg), is_nack: false, is_ack: false }
    }

    /// An ack record.
    pub fn ack(from: ProcessId, to: ProcessId) -> Self {
        Self { from, to, msg: None, is_nack: false, is_ack: true }
    }

    /// A nack record.
    pub fn nack(from: ProcessId, to: ProcessId) -> Self {
        Self { from, to, msg: None, is_nack: true, is_ack: false }
    }

    /// The wire kind as a short name: `"Req"`, `"Ack"` or `"Nack"`.
    pub fn wire_kind(&self) -> &'static str {
        if self.is_ack {
            "Ack"
        } else if self.is_nack {
            "Nack"
        } else {
            "Req"
        }
    }
}

/// Label attached to each generated transition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Label {
    /// The process that took the step.
    pub actor: ProcessId,
    /// Classification.
    pub kind: LabelKind,
    /// Short rule name from the paper's tables (e.g. `"C1"`, `"T3"`,
    /// `"rendezvous"`), for traces and debugging.
    pub rule: &'static str,
    /// `Some((active, msg))` when this step *completes* a rendezvous —
    /// the progress events of §2.5. `active` is the requesting party.
    pub completes: Option<(ProcessId, MsgType)>,
    /// Wire messages emitted during the step (at most two: a nack to free a
    /// buffer slot plus the new request, per Table 2 row C2).
    pub sent: [Option<SentMsg>; 2],
    /// The wire message this step *consumed* from a link, if it was a
    /// delivery step (Table 1–2 rows T1–T6 and `buf`).
    pub recv: Option<SentMsg>,
    /// The tag of the branch that fired, if any (e.g. `"evict"`), shared
    /// with the [`ccr_core::process::Branch`] it came from.
    pub tag: Option<Arc<str>>,
}

impl Label {
    /// A label with no emissions.
    pub fn new(actor: ProcessId, kind: LabelKind, rule: &'static str) -> Self {
        Self { actor, kind, rule, completes: None, sent: [None, None], recv: None, tag: None }
    }

    /// Attaches a completion event.
    pub fn completing(mut self, active: ProcessId, msg: MsgType) -> Self {
        self.completes = Some((active, msg));
        self
    }

    /// Attaches the first or second emission.
    pub fn sending(mut self, m: SentMsg) -> Self {
        if self.sent[0].is_none() {
            self.sent[0] = Some(m);
        } else {
            debug_assert!(self.sent[1].is_none(), "a step emits at most two messages");
            self.sent[1] = Some(m);
        }
        self
    }

    /// Attaches the consumed wire message (delivery steps).
    pub fn receiving(mut self, m: SentMsg) -> Self {
        debug_assert!(self.recv.is_none(), "a step consumes at most one message");
        self.recv = Some(m);
        self
    }

    /// Attaches a branch tag.
    pub fn tagged(mut self, tag: &Option<Arc<str>>) -> Self {
        self.tag.clone_from(tag);
        self
    }

    /// Iterates over emissions.
    pub fn emissions(&self) -> impl Iterator<Item = &SentMsg> {
        self.sent.iter().flatten()
    }
}

/// Which slices of the state a step wrote: the home's, and up to two
/// remotes' (a remote's slice includes its two links). A step of Tables
/// 1–2 writes the home and at most two remotes (the C2 victim's link and
/// the target's); past two, and wherever a system does not keep track,
/// every slice counts as written ([`Written::ALL`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Written {
    pub(crate) home: bool,
    pub(crate) remotes: [usize; 2],
    /// Remotes written; past 2, every remote.
    pub(crate) count: usize,
}

impl Written {
    /// Nothing written yet.
    pub const NOTHING: Written = Written { home: false, remotes: [0; 2], count: 0 };

    /// Every slice, the home and every remote, may have been written.
    pub const ALL: Written = Written { home: true, remotes: [0; 2], count: 3 };

    /// Whether the home's slice was written.
    #[inline]
    pub fn home(&self) -> bool {
        self.home
    }

    /// The remotes whose slices were written, in the order the step took
    /// them; `None` when every remote counts as written.
    #[inline]
    pub fn remotes(&self) -> Option<&[usize]> {
        self.remotes.get(..self.count)
    }

    /// Whether remote `i`'s slice was written.
    #[inline]
    pub fn remote(&self, i: usize) -> bool {
        self.remotes().is_none_or(|written| written.contains(&i))
    }

    /// Records that the home's slice was taken to write in.
    #[inline]
    pub(crate) fn take_home(&mut self) {
        self.home = true;
    }

    /// Records that remote `i`'s slice was taken to write in.
    #[inline]
    pub(crate) fn take_remote(&mut self, i: usize) {
        if !self.remotes.iter().take(self.count).any(|&t| t == i) {
            if let Some(free) = self.remotes.get_mut(self.count) {
                *free = i;
            }
            self.count += 1;
        }
    }
}

/// How a state handed to [`TransitionSystem::encode_into`] was reached,
/// where the caller knows: a step from `parent` that wrote `written`, in
/// the expansion numbered `parent_id`. An encoder may derive the key from
/// what it worked out for the parent, keyed by that number, but must
/// write the bytes it writes without it.
#[derive(Debug)]
pub struct Origin<'a, S> {
    /// The state expanded.
    pub parent: &'a S,
    /// Names the expansion: from [`next_parent_id`], so no two expansions
    /// of one process share it.
    pub parent_id: u64,
    /// What the step wrote.
    pub written: Written,
}

// By hand: a derive would ask `S: Copy` of a struct that only borrows `S`.
impl<S> Clone for Origin<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for Origin<'_, S> {}

/// A number no earlier call in this process returned: the
/// [`Origin::parent_id`] of one expansion.
pub fn next_parent_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Relaxed)
}

/// The walk of `sys` with its filter and its visitor behind trait objects.
/// A walk is the rules of a whole level — 16 KB of code for
/// [`crate::asynch::AsyncSystem`] — and each visitor type it is called
/// with compiles another copy of it, so every caller that does not need
/// its visitor inlined into the walk (the model checker's sweep and the
/// simulator do) shares this one instance per system.
pub(crate) fn walk_dyn<T: TransitionSystem + ?Sized>(
    sys: &T,
    s: &T::State,
    scratch: &mut T::State,
    wanted: &dyn Fn(usize) -> bool,
    visit: &mut DynVisit<'_, T::State>,
) -> Result<()> {
    sys.for_each_successor_in(s, scratch, wanted, visit)
}

/// A visitor of the walk as [`walk_dyn`] takes it.
pub(crate) type DynVisit<'a, S> = dyn FnMut(usize, Label, &S, Written) -> ControlFlow<()> + 'a;

/// A labelled transition system with encodable states: the rendezvous
/// spec and its asynchronous refinement, each a set of guarded actions
/// under one semantics. A system writes three things besides its initial
/// state and its message names — the walk
/// ([`TransitionSystem::for_each_successor_in`]), the writer
/// ([`TransitionSystem::encode_into`]) and the reader
/// ([`TransitionSystem::restore_into`]) — and every other way to
/// enumerate, encode or read a state back is provided, built on those.
pub trait TransitionSystem {
    /// Global configuration type. (Compared only by checks that a state
    /// lent out for rewriting came back as it was.)
    type State: Clone + PartialEq;

    /// The unique initial configuration.
    fn initial(&self) -> Self::State;

    /// How many *rule groups* the transitions of a state fall into. The
    /// successors of a state are those of group 0, then group 1, and so
    /// on; a group's transitions, and whether it fails, depend only on
    /// the part of the state its rules read, so after a step that wrote
    /// none of that part they are what they were (see
    /// [`TransitionSystem::fire`]). The default is one group, which every
    /// step changes.
    fn groups(&self) -> usize {
        1
    }

    /// The walk: shows `visit` every successor of `s` in the rule groups
    /// `wanted` selects, in group order, with its group, its label and the
    /// slices of `s` the step wrote, until `visit` breaks; after that it
    /// shows nothing more and need not walk the rules still to come.
    /// `scratch` equals `s` on entry and on return, and is the
    /// implementation's to work in meanwhile: a system whose transitions
    /// rewrite a small part of a large state builds each successor there,
    /// lends it to `visit` and puts back what the step wrote — no copy of
    /// the state per transition, which is what the model checker's sweep
    /// and the simulator run on. On an error, `visit` has seen the
    /// selected successors before it.
    fn for_each_successor_in(
        &self,
        s: &Self::State,
        scratch: &mut Self::State,
        wanted: impl Fn(usize) -> bool,
        visit: impl FnMut(usize, Label, &Self::State, Written) -> ControlFlow<()>,
    ) -> Result<()>;

    /// The walk over every rule group.
    fn for_each_successor(
        &self,
        s: &Self::State,
        scratch: &mut Self::State,
        mut visit: impl FnMut(Label, &Self::State, Written) -> ControlFlow<()>,
    ) -> Result<()> {
        self.for_each_successor_in(
            s,
            scratch,
            |_| true,
            |_, label, next, written| visit(label, next, written),
        )
    }

    /// Pushes every successor of `s` (with its label) into `out`, in the
    /// walk's order; `out` is cleared by the callee. On an error, `out`
    /// holds the successors before it. One copy of `s` to walk in, and one
    /// per successor kept, for callers that own what they get.
    fn successors(&self, s: &Self::State, out: &mut Vec<(Label, Self::State)>) -> Result<()> {
        out.clear();
        let mut scratch = s.clone();
        walk_dyn(self, s, &mut scratch, &|_| true, &mut |_, label, next, _| {
            out.push((label, next.clone()));
            ControlFlow::Continue(())
        })
    }

    /// Replaces `s` by the `ordinal`-th successor of rule group `group`,
    /// counted in the walk's order, and returns that transition's label;
    /// `None`, and nothing written, if the group has no more than
    /// `ordinal` successors. `scratch` equals `s` on entry and on return —
    /// with the new state, that is, after a step. Sets `dirty[g]` for
    /// every group `g` whose successors the step may have changed — those
    /// whose rules read a part of the state it wrote — and leaves the
    /// other flags alone. This is how a simulator takes the one step it
    /// chose from an enumeration.
    ///
    /// An error is one the walk of `group` meets before that successor,
    /// and leaves `s`, `scratch` and `dirty` as they were.
    ///
    /// The default walks `group` up to that successor, copies it into
    /// both states and flags every group.
    fn fire(
        &self,
        s: &mut Self::State,
        scratch: &mut Self::State,
        group: usize,
        ordinal: usize,
        dirty: &mut [bool],
    ) -> Result<Option<Label>> {
        let (mut skip, mut fired) = (ordinal, None);
        walk_dyn(self, s, scratch, &|g| g == group, &mut |_, label, next, _| {
            if skip > 0 {
                skip -= 1;
                return ControlFlow::Continue(());
            }
            fired = Some((label, next.clone()));
            ControlFlow::Break(())
        })?;
        let Some((label, next)) = fired else { return Ok(None) };
        scratch.clone_from(&next);
        *s = next;
        dirty.fill(true);
        Ok(Some(label))
    }

    /// The writer: writes the canonical encoding of `s` to `out`, marking
    /// where each segment of it ends ([`Sink::end_segment`]) — the same
    /// bytes on every sink. `from`, when the caller has it, is the step
    /// that reached `s`: an encoder may use it to write the same bytes
    /// with less work, and to offer the sink, in place of a segment the
    /// step did not write, that segment of the key of the state it was
    /// reached from ([`Sink::reuse`]).
    fn encode_into(
        &self,
        s: &Self::State,
        from: Option<Origin<'_, Self::State>>,
        out: &mut impl Sink,
    );

    /// Writes the canonical encoding of `s` into `out` (cleared first).
    fn encode(&self, s: &Self::State, out: &mut Vec<u8>) {
        out.clear();
        self.encode_into(s, None, out);
    }

    /// Convenience: encoded bytes as a fresh vector. Hot paths encode
    /// into a reused buffer instead — one heap allocation per *search*,
    /// not per state.
    fn encoded(&self, s: &Self::State) -> Vec<u8> {
        let mut v = Vec::new();
        self.encode(s, &mut v);
        v
    }

    /// Whether a stored key is the state: `restore_into` of `encode`'s
    /// bytes gives back exactly the state that was encoded, so a pending
    /// state can be read back from the visited set and need not be kept
    /// anywhere else. False (the default) where `encode` forgets
    /// something a trail must keep — which member of its orbit the state
    /// was, the order of a ledger.
    fn key_is_snapshot(&self) -> bool {
        false
    }

    /// Writes into `out` (cleared first) bytes from which
    /// [`TransitionSystem::restore_into`] rebuilds exactly `s`: what the
    /// sweep keeps of a pending state when its key will not do. The
    /// default is the key.
    fn snapshot_into(&self, s: &Self::State, out: &mut Vec<u8>) {
        self.encode(s, out);
    }

    /// The reader: rebuilds into `into` — any state of this system, every
    /// part of it overwritten — the state whose snapshot
    /// ([`TransitionSystem::snapshot_into`]) is `bytes`; `false`, with
    /// `into` unspecified, on truncated, corrupt or trailing-garbage
    /// input. Persistence rebuilds checkpointed frontiers through this, so
    /// bad bytes must surface as a recovery failure, never a panic or a
    /// wrong state. A system whose snapshot is its key (the default) reads
    /// its keys here, then: a resumed sweep has only the keys of the
    /// states it recovers.
    fn restore_into(&self, bytes: &[u8], into: &mut Self::State) -> bool;

    /// Observability hook: the number of messages in flight on the directed
    /// link `from → to` in configuration `s`, when the semantics models
    /// links (`None` otherwise — the rendezvous level has no wires).
    fn link_occupancy(&self, _s: &Self::State, _from: ProcessId, _to: ProcessId) -> Option<u32> {
        None
    }

    /// Observability hook: `(used, capacity)` of the home node's request
    /// buffer in `s`, when the semantics models one (§3.2's bounded k).
    fn home_buffer_occupancy(&self, _s: &Self::State) -> Option<(u32, u32)> {
        None
    }

    /// A human-readable name for a message type, from the spec's symbol
    /// table.
    fn msg_name(&self, m: MsgType) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_core::ids::RemoteId;

    #[test]
    fn label_builders() {
        let l = Label::new(ProcessId::Home, LabelKind::Complete, "C1")
            .completing(ProcessId::Remote(RemoteId(0)), MsgType(1))
            .sending(SentMsg::ack(ProcessId::Home, ProcessId::Remote(RemoteId(0))));
        assert_eq!(l.completes, Some((ProcessId::Remote(RemoteId(0)), MsgType(1))));
        assert_eq!(l.emissions().count(), 1);
        assert!(l.emissions().next().unwrap().is_ack);

        let l2 = l.clone().sending(SentMsg::nack(ProcessId::Home, ProcessId::Remote(RemoteId(1))));
        assert_eq!(l2.emissions().count(), 2);
    }

    #[test]
    fn sent_msg_constructors() {
        let r = SentMsg::req(ProcessId::Home, ProcessId::Remote(RemoteId(0)), MsgType(7));
        assert_eq!(r.msg, Some(MsgType(7)));
        assert!(!r.is_ack && !r.is_nack);
        let n = SentMsg::nack(ProcessId::Home, ProcessId::Remote(RemoteId(0)));
        assert!(n.is_nack && n.msg.is_none());
    }
}
