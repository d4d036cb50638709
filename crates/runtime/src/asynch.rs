//! Asynchronous semantics of a refined protocol (paper §3, Tables 1 and 2).
//!
//! A global configuration holds, per process, the control state (a
//! communication/internal state or a *transient* state recorded as
//! `Awaiting`), the variable environment, and the buffers of the refinement:
//!
//! * each **remote** owns a one-slot buffer for a pending home request
//!   (Table 1);
//! * the **home** owns a bounded buffer of `k >= 2` messages with the
//!   reservation discipline of §3.2 — the last free slot (the *progress
//!   buffer*) only accepts requests that can complete a rendezvous in the
//!   current communication state, and while the home waits in a transient
//!   state one further slot (the *ack buffer*) is reserved for the awaited
//!   remote's response;
//! * messages travel on reliable in-order point-to-point [`crate::wire::Link`]s.
//!
//! Every row of the paper's two tables corresponds to a labelled transition
//! here; labels carry the row name (`"C1"`, `"T3"`, ...) for traces.

use crate::error::{Result, RuntimeError};
use crate::system::{Label, LabelKind, Origin, SentMsg, TransitionSystem, Written};
use crate::wire::{encode_payload, Link, Reader, Wire};
use ccr_core::encode::{Identity, Renaming, Segment, Sink};
use ccr_core::expr::EvalCtx;
use ccr_core::ids::{MsgType, ProcessId, RemoteId, StateId};
use ccr_core::inline::InlineVec;
use ccr_core::process::{Branch, CommAction, Peer, Process, ProtocolSpec, StateKind};
use ccr_core::refine::{BranchKey, RefinedProtocol};
use ccr_core::value::{Env, Value};
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

/// Execution parameters of the asynchronous semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsyncConfig {
    /// Home buffer capacity `k` (paper §3.2 requires `k >= 2`).
    pub home_buffer: usize,
    /// Per-link capacity bound standing in for the paper's infinite
    /// network buffering; exceeding it is a checked error, not silent loss.
    pub link_capacity: usize,
    /// Extra home-buffer slots available *only* to unacknowledged messages
    /// (the hand-written baseline's `LR`); irrelevant for derived protocols.
    pub unacked_allowance: usize,
    /// Hand-baseline mode: a buffered home request that matches no guard of
    /// the remote's current state is silently dropped instead of nacked
    /// (the stale-`inv` race of the Avalanche hand design).
    pub drop_unmatched: bool,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        Self { home_buffer: 2, link_capacity: 4, unacked_allowance: 0, drop_unmatched: false }
    }
}

impl AsyncConfig {
    /// Config with a given home buffer capacity.
    pub fn with_home_buffer(k: usize) -> Self {
        Self { home_buffer: k, ..Self::default() }
    }
}

/// A request parked in the home buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufEntry {
    /// Sender.
    pub from: RemoteId,
    /// Requested message type.
    pub msg: MsgType,
    /// Payload.
    pub val: Option<Value>,
}

/// Filler for the home buffer's unused inline slots; never read.
impl Default for BufEntry {
    fn default() -> Self {
        BufEntry { from: RemoteId(0), msg: MsgType(0), val: None }
    }
}

/// Requests the home buffer holds inline: the paper's minimal `k = 2`,
/// which is also [`AsyncConfig::default`] and what every `ccr` verb runs
/// with. A larger `home_buffer` (the §6 buffer experiments, the hand
/// baseline's unacked allowance) spills to the heap once it fills past
/// this.
pub const HOME_BUF_INLINE: usize = 2;

/// Control phase of the home node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HomePhase {
    /// At a communication or internal state of the spec.
    At(StateId),
    /// In the transient state for output branch `branch` of `state`,
    /// awaiting an ack/nack (or optimized reply) from `target`.
    Awaiting {
        /// Origin communication state.
        state: StateId,
        /// Output branch index requested.
        branch: u32,
        /// The remote the request was sent to.
        target: RemoteId,
    },
}

/// Home node slice of the configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HomeState {
    /// Control phase.
    pub phase: HomePhase,
    /// Variables.
    pub env: Env,
    /// Parked requests (bounded by `home_buffer` plus the unacked
    /// allowance).
    pub buf: InlineVec<BufEntry, HOME_BUF_INLINE>,
    /// Output-guard retry cursor (Table 2 row T2: after a nack, try the
    /// *next* output guard; wrap around).
    pub cursor: u32,
}

/// Control phase of a remote node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemotePhase {
    /// At a spec state.
    At(StateId),
    /// In the transient state for the output branch of `state`, awaiting an
    /// ack/nack (or the optimized reply) from home.
    Awaiting {
        /// Origin communication state.
        state: StateId,
        /// Output branch index.
        branch: u32,
    },
}

/// Remote node slice of the configuration, with the two directed links
/// that connect it to the home: everything indexed by one [`RemoteId`]
/// sits in one place, so the whole per-remote part of a configuration is
/// a single allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteState {
    /// Control phase.
    pub phase: RemotePhase,
    /// Variables.
    pub env: Env,
    /// The one-slot buffer for a pending home request (Table 1).
    pub buf: Option<(MsgType, Option<Value>)>,
    /// The link this remote → home.
    pub to_home: Link,
    /// The link home → this remote.
    pub to_remote: Link,
}

/// A global asynchronous configuration. Cloning one — which
/// [`TransitionSystem::successors`] does once per transition, for callers
/// that keep the successor — is a flat copy of `home` plus one allocation
/// for `remotes`; the walk rewrites one in place instead (see DESIGN.md,
/// "State layout").
#[derive(Debug, PartialEq, Eq)]
pub struct AsyncState {
    /// The home node.
    pub home: HomeState,
    /// The remotes and their links, indexed by [`RemoteId`].
    pub remotes: Vec<RemoteState>,
}

impl Clone for AsyncState {
    fn clone(&self) -> Self {
        AsyncState { home: self.home.clone(), remotes: self.remotes.clone() }
    }

    /// Keeps the `remotes` allocation: the sweep copies the state it
    /// expands over its scratch state once per expansion.
    fn clone_from(&mut self, source: &Self) {
        self.home.clone_from(&source.home);
        self.remotes.clone_from(&source.remotes);
    }
}

impl AsyncState {
    /// Number of remotes.
    pub fn n(&self) -> usize {
        self.remotes.len()
    }

    /// Total number of in-flight wire messages.
    pub fn in_flight(&self) -> usize {
        self.remotes.iter().map(|r| r.to_home.len() + r.to_remote.len()).sum()
    }
}

/// The asynchronous transition system of a refined protocol over `n`
/// remotes.
#[derive(Debug, Clone)]
pub struct AsyncSystem<'a> {
    refined: &'a RefinedProtocol,
    n: u32,
    config: AsyncConfig,
    notes: Annotations,
    /// The one process whose rules are walked, where the system stands
    /// for a single node ([`AsyncSystem::restricted_to`]).
    only: Option<ProcessId>,
}

/// The refinement's annotations as the rules read them: one flag per
/// message type and one slot per `(state, branch)` of the spec, indexed
/// directly. [`RefinedProtocol`] keeps them in std hash sets and maps,
/// and the rules ask about once per generated transition — some from
/// inside a scan of the home buffer — so the tables are built once, in
/// [`AsyncSystem::new`].
#[derive(Debug, Clone)]
struct Annotations {
    unacked: Vec<bool>,
    home_noack: Vec<bool>,
    remote_noack: Vec<bool>,
    home_fire_forget: Vec<Vec<bool>>,
    remote_fire_forget: Vec<Vec<bool>>,
    home_reply: Vec<Vec<Option<MsgType>>>,
    remote_reply: Vec<Vec<Option<MsgType>>>,
}

impl Annotations {
    fn new(refined: &RefinedProtocol) -> Self {
        let per_msg = |set: &HashSet<MsgType>| {
            let mut flags = vec![false; refined.spec.msgs.len()];
            for m in set {
                if let Some(flag) = flags.get_mut(m.index()) {
                    *flag = true;
                }
            }
            flags
        };
        // A key outside the spec's shape names no branch a rule can ask
        // about, so it has no slot.
        fn per_branch<V: Clone + Default>(
            process: &Process,
            entries: impl Iterator<Item = (BranchKey, V)>,
        ) -> Vec<Vec<V>> {
            let mut table: Vec<Vec<V>> =
                process.states.iter().map(|st| vec![V::default(); st.branches.len()]).collect();
            for ((state, branch), v) in entries {
                if let Some(slot) =
                    table.get_mut(state.index()).and_then(|st| st.get_mut(branch as usize))
                {
                    *slot = v;
                }
            }
            table
        }
        let flagged = |process, set: &HashSet<BranchKey>| {
            per_branch(process, set.iter().map(|&key| (key, true)))
        };
        let replies = |process, map: &HashMap<BranchKey, MsgType>| {
            per_branch(process, map.iter().map(|(&key, &m)| (key, Some(m))))
        };
        let (home, remote) = (&refined.spec.home, &refined.spec.remote);
        Annotations {
            unacked: per_msg(&refined.unacked),
            home_noack: per_msg(&refined.home_noack),
            remote_noack: per_msg(&refined.remote_noack),
            home_fire_forget: flagged(home, &refined.home_fire_forget),
            remote_fire_forget: flagged(remote, &refined.remote_fire_forget),
            home_reply: replies(home, &refined.home_reply),
            remote_reply: replies(remote, &refined.remote_reply),
        }
    }
}

fn flag(flags: &[bool], m: MsgType) -> bool {
    flags.get(m.index()).copied().unwrap_or(false)
}

fn slot<V: Copy + Default>(table: &[Vec<V>], state: StateId, branch: u32) -> V {
    table.get(state.index()).and_then(|st| st.get(branch as usize)).copied().unwrap_or_default()
}

impl<'a> AsyncSystem<'a> {
    /// Creates the system. Panics if `config.home_buffer < 2` (§3.2), or
    /// if `n` or a configured capacity is past what the state encoding can
    /// count: remote ids below 2^16 (at most three bytes, one below 128),
    /// the home-buffer and link lengths one byte. (The spec-side widths are checked by
    /// [`ccr_core::validate::validate`].)
    pub fn new(refined: &'a RefinedProtocol, n: u32, config: AsyncConfig) -> Self {
        assert!(config.home_buffer >= 2, "the home buffer must hold at least 2 messages (§3.2)");
        assert!(n <= 1 << 16, "{n} remotes, but the state encoding stores remote ids below 2^16");
        let buf_cap = config.home_buffer.saturating_add(config.unacked_allowance);
        assert!(
            buf_cap <= u8::MAX as usize,
            "home buffer of {buf_cap} entries, but the state encoding stores its length in 1 byte"
        );
        assert!(
            config.link_capacity <= u8::MAX as usize,
            "link capacity {}, but the state encoding stores a link's length in 1 byte",
            config.link_capacity
        );
        Self { refined, n, config, notes: Annotations::new(refined), only: None }
    }

    /// This system with the rules of every process but `who` left out:
    /// what one node of a machine runs. Its transitions at `s` are those
    /// of the whole system that `who` fires, in the same order; they read
    /// and write `who`'s slice of `s`, pop the links that end at `who` and
    /// push the ones that start there, so every other slice may hold
    /// anything. The system as a whole is the composition of these `n + 1`
    /// shares (`ccr_mc::inplace_divergence` checks the three facts that
    /// make it so at every state it visits). Panics on a remote past `n`.
    pub fn restricted_to(mut self, who: ProcessId) -> Self {
        assert!(
            !matches!(who, ProcessId::Remote(r) if r.0 >= self.n),
            "{who} is not one of {} remotes",
            self.n
        );
        self.only = Some(who);
        self
    }

    /// The process this system is restricted to, if it is.
    pub fn restriction(&self) -> Option<ProcessId> {
        self.only
    }

    /// The refined protocol being executed.
    pub fn refined(&self) -> &'a RefinedProtocol {
        self.refined
    }

    /// The underlying rendezvous spec.
    pub fn spec(&self) -> &'a ProtocolSpec {
        &self.refined.spec
    }

    /// Number of remotes.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The configuration parameters.
    pub fn config(&self) -> &AsyncConfig {
        &self.config
    }

    /// The reply the §3.3 optimization pairs with the home's request at
    /// `(state, branch)`, if any.
    pub(crate) fn home_reply(&self, state: StateId, branch: u32) -> Option<MsgType> {
        slot(&self.notes.home_reply, state, branch)
    }

    /// The reply paired with a remote's request at `(state, branch)`.
    pub(crate) fn remote_reply(&self, state: StateId, branch: u32) -> Option<MsgType> {
        slot(&self.notes.remote_reply, state, branch)
    }

    /// Appends to `out` the encoding of `s` with its remotes renamed by
    /// `ren`: the bytes [`TransitionSystem::encode`] would produce for the
    /// renamed state, written straight from `s`. Under a permutation the
    /// remote slices come out in their new order and every remote-valued
    /// datum (`Awaiting` target, buffer senders, payloads, variables) under
    /// its new name; the home buffer keeps its slots, because the C1 scan
    /// and the victim nack pick by position. `encode_into` is the
    /// [`Identity`] instance, so the state's byte layout is written down
    /// here and nowhere else: the home's segment
    /// ([`AsyncSystem::encode_home_renamed`]), then one segment per slot
    /// ([`AsyncSystem::encode_remote_renamed`]), each ending with its
    /// [`Sink::end_segment`].
    pub fn encode_renamed(&self, s: &AsyncState, ren: &impl Renaming, out: &mut impl Sink) {
        self.encode_home_renamed(s, ren, out);
        for slot in 0..s.remotes.len() {
            self.encode_remote_renamed(&s.remotes[ren.source(slot)], ren, out);
        }
    }

    /// The home's segment of [`AsyncSystem::encode_renamed`].
    #[inline(always)]
    pub fn encode_home_renamed(&self, s: &AsyncState, ren: &impl Renaming, out: &mut impl Sink) {
        match s.home.phase {
            HomePhase::At(st) => {
                out.put(0);
                out.put_id(st.0);
            }
            HomePhase::Awaiting { state, branch, target } => {
                out.put(1);
                out.put_id(state.0);
                out.put(branch as u8);
                out.put_id(ren.remote(target).0);
            }
        }
        s.home.env.encode_renamed(ren, out);
        out.put(s.home.cursor as u8);
        out.put(s.home.buf.len() as u8);
        for e in &s.home.buf {
            out.put_id(ren.remote(e.from).0);
            out.put(e.msg.0 as u8);
            encode_payload(e.val, ren, out);
        }
        out.end_segment(Segment::Home);
    }

    /// One remote's segment of [`AsyncSystem::encode_renamed`]: its slice
    /// `r`, links included, with the values it holds renamed.
    #[inline(always)]
    pub fn encode_remote_renamed(&self, r: &RemoteState, ren: &impl Renaming, out: &mut impl Sink) {
        match r.phase {
            RemotePhase::At(st) => {
                out.put(0);
                out.put_id(st.0);
            }
            RemotePhase::Awaiting { state, branch } => {
                out.put(1);
                out.put_id(state.0);
                out.put(branch as u8);
            }
        }
        r.env.encode_renamed(ren, out);
        match r.buf {
            Some((m, v)) => {
                out.put(1);
                out.put(m.0 as u8);
                encode_payload(v, ren, out);
            }
            None => out.put(0),
        }
        r.to_home.encode_renamed(ren, out);
        r.to_remote.encode_renamed(ren, out);
        out.end_segment(Segment::Remote);
    }

    fn eval_err(who: ProcessId) -> impl Fn(ccr_core::CoreError) -> RuntimeError {
        move |source| RuntimeError::Eval { who, source }
    }

    fn guard_ok(
        guard: &Option<ccr_core::expr::Expr>,
        ctx: EvalCtx<'_>,
        who: ProcessId,
    ) -> Result<bool> {
        match guard {
            None => Ok(true),
            Some(g) => g.eval_bool(ctx).map_err(Self::eval_err(who)),
        }
    }

    fn apply_assigns(
        br: &Branch,
        env: &mut Env,
        self_id: Option<RemoteId>,
        who: ProcessId,
    ) -> Result<()> {
        for (v, e) in &br.assigns {
            let val = e.eval(EvalCtx { env, self_id }).map_err(Self::eval_err(who))?;
            env.set(v.index(), val);
        }
        Ok(())
    }

    fn push_link(&self, link: &mut Link, w: Wire, from: ProcessId, to: ProcessId) -> Result<()> {
        if link.len() >= self.config.link_capacity {
            return Err(RuntimeError::LinkOverflow { from, to });
        }
        link.push(w);
        Ok(())
    }

    fn home_branch(&self, state: StateId, branch: u32) -> Result<&'a Branch> {
        self.spec()
            .home
            .state(state)
            .and_then(|s| s.branches.get(branch as usize))
            .ok_or(RuntimeError::BadState { who: ProcessId::Home })
    }

    fn remote_branch(&self, i: RemoteId, state: StateId, branch: u32) -> Result<&'a Branch> {
        self.spec()
            .remote
            .state(state)
            .and_then(|s| s.branches.get(branch as usize))
            .ok_or(RuntimeError::BadState { who: ProcessId::Remote(i) })
    }

    /// Whether home `Recv` branch `hb` accepts a request `(from, msg)` in
    /// environment `env` (peer pattern, message type and guard).
    fn home_recv_matches(
        &self,
        env: &Env,
        hb: &Branch,
        from: RemoteId,
        msg: MsgType,
    ) -> Result<bool> {
        let ctx = EvalCtx { env, self_id: None };
        let (peer, m) = match &hb.action {
            CommAction::Recv { from: p, msg: m, .. } => (p, *m),
            _ => return Ok(false),
        };
        if m != msg || !Self::guard_ok(&hb.guard, ctx, ProcessId::Home)? {
            return Ok(false);
        }
        match peer {
            Peer::AnyRemote { .. } => Ok(true),
            Peer::Remote(e) => {
                let t = e.eval_node(ctx).map_err(Self::eval_err(ProcessId::Home))?;
                Ok(t == from)
            }
            Peer::Home => Ok(false),
        }
    }

    /// Whether a specific request could complete a rendezvous at `state` —
    /// the progress-buffer admission test (Table 2 row T5 condition (d)).
    fn request_satisfies(
        &self,
        s: &AsyncState,
        state: StateId,
        from: RemoteId,
        msg: MsgType,
    ) -> Result<bool> {
        let st = match self.spec().home.state(state) {
            Some(st) if st.kind == StateKind::Communication => st,
            _ => return Ok(false),
        };
        for (_, hb) in st.recvs() {
            if self.home_recv_matches(&s.home.env, hb, from, msg)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Completes a home-passive rendezvous: consume buffered entry `idx`
    /// through `Recv` branch `hb`, emitting an ack unless the message is
    /// consumed silently (request/reply-optimized or unacked).
    fn home_consume(
        &self,
        next: &mut Lent<'_>,
        idx: usize,
        hb: &Branch,
    ) -> Result<Option<SentMsg>> {
        let entry = next.home_mut().buf.remove(idx);
        let mut sent = None;
        if !flag(&self.notes.home_noack, entry.msg) {
            let to = ProcessId::Remote(entry.from);
            self.push_link(
                &mut next.remote_mut(entry.from.index()).to_remote,
                Wire::Ack,
                ProcessId::Home,
                to,
            )?;
            sent = Some(SentMsg::ack(ProcessId::Home, to));
        }
        let home = next.home_mut();
        if let CommAction::Recv { from, bind, .. } = &hb.action {
            if let Peer::AnyRemote { bind: Some(v) } = from {
                home.env.set(v.index(), Value::Node(entry.from));
            }
            if let (Some(v), Some(val)) = (bind, entry.val) {
                home.env.set(v.index(), val);
            }
        }
        Self::apply_assigns(hb, &mut home.env, None, ProcessId::Home)?;
        home.phase = HomePhase::At(hb.target);
        home.cursor = 0;
        Ok(sent)
    }

    /// Whether `e` is an ordinary buffered request — one that awaits an
    /// ack or nack, unlike the hand baseline's unacknowledged messages.
    fn ordinary(&self, e: &BufEntry) -> bool {
        !flag(&self.notes.unacked, e.msg)
    }

    /// Admission decision for a request arriving at the home (Table 2 rows
    /// T4/T5/T6 and the analogous rule outside transient states).
    fn home_admit(&self, s: &AsyncState, from: RemoteId, msg: MsgType) -> Result<Admission> {
        // Unacknowledged messages (hand baseline) must always be sunk.
        if flag(&self.notes.unacked, msg) {
            let cap = self.config.home_buffer + self.config.unacked_allowance;
            if s.home.buf.len() >= cap {
                return Err(RuntimeError::UnackedFlood);
            }
            return Ok(Admission::Accept("buf"));
        }
        if s.home.buf.iter().any(|e| e.from == from && self.ordinary(e)) {
            return Err(RuntimeError::DuplicateRequest { from });
        }
        let (comm_state, reserved) = match s.home.phase {
            HomePhase::At(st) => (st, 0usize),
            HomePhase::Awaiting { state, .. } => (state, 1usize),
        };
        let used = s.home.buf.len() + reserved;
        let free = self.config.home_buffer.saturating_sub(used);
        if free >= 2 {
            return Ok(Admission::Accept("T4"));
        }
        if free == 1 && self.request_satisfies(s, comm_state, from, msg)? {
            return Ok(Admission::Accept("T5"));
        }
        Ok(Admission::Nack)
    }

    /// Generates the delivery transition for the head of `to_home[i]`.
    fn deliver_to_home(&self, s: &AsyncState, i: usize, em: &mut impl Emitter) -> Result<()> {
        let head = match s.remotes[i].to_home.head() {
            Some(w) => *w,
            None => return Ok(()),
        };
        let rid = RemoteId(i as u32);
        let actor = ProcessId::Home;
        match head {
            Wire::Ack => {
                let (state, branch) = match s.home.phase {
                    HomePhase::Awaiting { state, branch, target } if target == rid => {
                        (state, branch)
                    }
                    _ => return Err(RuntimeError::UnexpectedResponse { who: actor, what: "ack" }),
                };
                let hb = self.home_branch(state, branch)?;
                let msg = hb.action.msg().ok_or(RuntimeError::BadState { who: actor })?;
                em.successor(|next| {
                    next.remote_mut(i).to_home.pop();
                    let home = next.home_mut();
                    Self::apply_assigns(hb, &mut home.env, None, actor)?;
                    home.phase = HomePhase::At(hb.target);
                    home.cursor = 0;
                    Ok(Label::new(actor, LabelKind::Complete, "T1")
                        .completing(actor, msg)
                        .receiving(SentMsg::ack(ProcessId::Remote(rid), actor)))
                })
            }
            Wire::Nack => {
                let (state, branch) = match s.home.phase {
                    HomePhase::Awaiting { state, branch, target } if target == rid => {
                        (state, branch)
                    }
                    _ => return Err(RuntimeError::UnexpectedResponse { who: actor, what: "nack" }),
                };
                em.successor(|next| {
                    next.remote_mut(i).to_home.pop();
                    let home = next.home_mut();
                    home.phase = HomePhase::At(state);
                    home.cursor = branch + 1;
                    Ok(Label::new(actor, LabelKind::Deliver, "T2")
                        .receiving(SentMsg::nack(ProcessId::Remote(rid), actor)))
                })
            }
            Wire::Req { msg, val } => {
                let received = SentMsg::req(ProcessId::Remote(rid), actor, msg);
                if let HomePhase::Awaiting { state, branch, target } = s.home.phase {
                    if target == rid {
                        if slot(&self.notes.home_reply, state, branch) == Some(msg) {
                            // Optimized reply: completes our request and the
                            // follow-up input in one delivery.
                            let hb = self.home_branch(state, branch)?;
                            let reqmsg =
                                hb.action.msg().ok_or(RuntimeError::BadState { who: actor })?;
                            return em.successor(|next| {
                                next.remote_mut(i).to_home.pop();
                                let home = next.home_mut();
                                Self::apply_assigns(hb, &mut home.env, None, actor)?;
                                let mid = hb.target;
                                // Consume the reply input at the intermediate state.
                                let mid_st = self
                                    .spec()
                                    .home
                                    .state(mid)
                                    .ok_or(RuntimeError::BadState { who: actor })?;
                                let mut landed = false;
                                for (_, rb) in mid_st.recvs() {
                                    if self.home_recv_matches(&home.env, rb, rid, msg)? {
                                        if let CommAction::Recv { from, bind, .. } = &rb.action {
                                            if let Peer::AnyRemote { bind: Some(v) } = from {
                                                home.env.set(v.index(), Value::Node(rid));
                                            }
                                            if let (Some(v), Some(value)) = (bind, val) {
                                                home.env.set(v.index(), value);
                                            }
                                        }
                                        Self::apply_assigns(rb, &mut home.env, None, actor)?;
                                        home.phase = HomePhase::At(rb.target);
                                        home.cursor = 0;
                                        landed = true;
                                        break;
                                    }
                                }
                                if !landed {
                                    return Err(RuntimeError::ReplyNotAwaited { who: actor });
                                }
                                Ok(Label::new(actor, LabelKind::Complete, "T1/reply")
                                    .completing(actor, reqmsg)
                                    .receiving(received))
                            });
                        }
                        // Implicit nack (rule R3 / Table 2 row T3): revert to
                        // the communication state and park the request in the
                        // reserved ack-buffer slot.
                        if s.home.buf.len()
                            >= self.config.home_buffer + self.config.unacked_allowance
                        {
                            return Err(RuntimeError::HomeBufferOverflow);
                        }
                        if !flag(&self.notes.unacked, msg)
                            && s.home.buf.iter().any(|e| e.from == rid && self.ordinary(e))
                        {
                            return Err(RuntimeError::DuplicateRequest { from: rid });
                        }
                        return em.successor(|next| {
                            next.remote_mut(i).to_home.pop();
                            let home = next.home_mut();
                            home.buf.push(BufEntry { from: rid, msg, val });
                            home.phase = HomePhase::At(state);
                            home.cursor = branch + 1;
                            Ok(Label::new(actor, LabelKind::Deliver, "T3").receiving(received))
                        });
                    }
                }
                // Ordinary admission (Table 2 rows T4/T5/T6, also used
                // outside transient states).
                match self.home_admit(s, rid, msg)? {
                    Admission::Accept(rule) => em.successor(|next| {
                        next.remote_mut(i).to_home.pop();
                        next.home_mut().buf.push(BufEntry { from: rid, msg, val });
                        Ok(Label::new(actor, LabelKind::Deliver, rule).receiving(received))
                    }),
                    Admission::Nack => em.successor(|next| {
                        let r = next.remote_mut(i);
                        r.to_home.pop();
                        let to = ProcessId::Remote(rid);
                        self.push_link(&mut r.to_remote, Wire::Nack, actor, to)?;
                        Ok(Label::new(actor, LabelKind::Nacked, "T6")
                            .receiving(received)
                            .sending(SentMsg::nack(actor, to)))
                    }),
                }
            }
        }
    }

    /// Generates the home's spontaneous transitions (Table 2 rows C1/C2 and
    /// internal taus).
    fn home_step(&self, s: &AsyncState, em: &mut impl Emitter) -> Result<()> {
        let st_id = match s.home.phase {
            HomePhase::At(st) => st,
            HomePhase::Awaiting { .. } => return Ok(()),
        };
        let st =
            self.spec().home.state(st_id).ok_or(RuntimeError::BadState { who: ProcessId::Home })?;
        let actor = ProcessId::Home;
        let ctx = EvalCtx { env: &s.home.env, self_id: None };

        if st.kind == StateKind::Internal {
            for br in &st.branches {
                if br.action.is_tau() && Self::guard_ok(&br.guard, ctx, actor)? {
                    em.successor(|next| {
                        let home = next.home_mut();
                        Self::apply_assigns(br, &mut home.env, None, actor)?;
                        home.phase = HomePhase::At(br.target);
                        home.cursor = 0;
                        Ok(Label::new(actor, LabelKind::Tau, "tau").tagged(&br.tag))
                    })?;
                }
            }
            return Ok(());
        }

        // C1: complete a rendezvous with a buffered request.
        let mut c1_found = false;
        for idx in 0..s.home.buf.len() {
            let entry = s.home.buf[idx];
            for (_, hb) in st.recvs() {
                if self.home_recv_matches(&s.home.env, hb, entry.from, entry.msg)? {
                    c1_found = true;
                    em.successor(|next| {
                        let sent = self.home_consume(next, idx, hb)?;
                        let label = Label::new(actor, LabelKind::Complete, "C1")
                            .completing(ProcessId::Remote(entry.from), entry.msg);
                        Ok(match sent {
                            Some(m) => label.sending(m),
                            None => label,
                        })
                    })?;
                }
            }
        }
        if c1_found {
            return Ok(());
        }

        // C2: request a rendezvous via an output guard, cycling from the
        // cursor (Table 2 row T2's retry order).
        let nb = st.branches.len();
        for off in 0..nb {
            let idx = (s.home.cursor as usize + off) % nb;
            let br = &st.branches[idx];
            let (peer, msg, payload) = match &br.action {
                CommAction::Send { to: Peer::Remote(e), msg, payload } => (e, *msg, payload),
                _ => continue,
            };
            if !Self::guard_ok(&br.guard, ctx, actor)? {
                continue;
            }
            let t = peer.eval_node(ctx).map_err(Self::eval_err(actor))?;
            if t.0 >= self.n {
                return Err(RuntimeError::BadState { who: actor });
            }
            let val = match payload {
                Some(e) => Some(e.eval(ctx).map_err(Self::eval_err(actor))?),
                None => None,
            };
            let to = ProcessId::Remote(t);
            if slot(&self.notes.home_fire_forget, st_id, idx as u32) {
                // Optimized reply send: guaranteed accepted; complete now.
                return em.successor(|next| {
                    self.push_link(
                        &mut next.remote_mut(t.index()).to_remote,
                        Wire::Req { msg, val },
                        actor,
                        to,
                    )?;
                    let home = next.home_mut();
                    Self::apply_assigns(br, &mut home.env, None, actor)?;
                    home.phase = HomePhase::At(br.target);
                    home.cursor = 0;
                    Ok(Label::new(actor, LabelKind::Complete, "C2/reply")
                        .completing(actor, msg)
                        .sending(SentMsg::req(actor, to, msg))
                        .tagged(&br.tag))
                });
            }
            // Condition (c): skip remotes with a pending (ordinary) request —
            // they are blocked as active parties and cannot accept ours.
            if s.home.buf.iter().any(|e| e.from == t && self.ordinary(e)) {
                continue;
            }
            return em.successor(|next| {
                let mut label = Label::new(actor, LabelKind::Request, "C2").tagged(&br.tag);
                // Reserve the ack buffer, nacking the oldest ordinary request
                // if the buffer is full.
                if s.home.buf.iter().filter(|e| self.ordinary(e)).count() >= self.config.home_buffer
                {
                    if let Some(victim_idx) = s.home.buf.iter().position(|e| self.ordinary(e)) {
                        let victim = next.home_mut().buf.remove(victim_idx);
                        let to = ProcessId::Remote(victim.from);
                        self.push_link(
                            &mut next.remote_mut(victim.from.index()).to_remote,
                            Wire::Nack,
                            actor,
                            to,
                        )?;
                        label = label.sending(SentMsg::nack(actor, to));
                    }
                }
                self.push_link(
                    &mut next.remote_mut(t.index()).to_remote,
                    Wire::Req { msg, val },
                    actor,
                    to,
                )?;
                next.home_mut().phase =
                    HomePhase::Awaiting { state: st_id, branch: idx as u32, target: t };
                Ok(label.sending(SentMsg::req(actor, to, msg)))
            });
        }
        Ok(())
    }

    /// Generates the delivery transition for the head of `to_remote[i]`.
    fn deliver_to_remote(&self, s: &AsyncState, i: usize, em: &mut impl Emitter) -> Result<()> {
        let head = match s.remotes[i].to_remote.head() {
            Some(w) => *w,
            None => return Ok(()),
        };
        let rid = RemoteId(i as u32);
        let actor = ProcessId::Remote(rid);
        match head {
            Wire::Ack => {
                let (state, branch) = match s.remotes[i].phase {
                    RemotePhase::Awaiting { state, branch } => (state, branch),
                    _ => return Err(RuntimeError::UnexpectedResponse { who: actor, what: "ack" }),
                };
                let rb = self.remote_branch(rid, state, branch)?;
                let msg = rb.action.msg().ok_or(RuntimeError::BadState { who: actor })?;
                em.successor(|next| {
                    let r = next.remote_mut(i);
                    r.to_remote.pop();
                    Self::apply_assigns(rb, &mut r.env, Some(rid), actor)?;
                    r.phase = RemotePhase::At(rb.target);
                    Ok(Label::new(actor, LabelKind::Complete, "T1")
                        .completing(actor, msg)
                        .receiving(SentMsg::ack(ProcessId::Home, actor)))
                })
            }
            Wire::Nack => {
                let state = match s.remotes[i].phase {
                    RemotePhase::Awaiting { state, .. } => state,
                    _ => return Err(RuntimeError::UnexpectedResponse { who: actor, what: "nack" }),
                };
                em.successor(|next| {
                    let r = next.remote_mut(i);
                    r.to_remote.pop();
                    r.phase = RemotePhase::At(state);
                    Ok(Label::new(actor, LabelKind::Deliver, "T2")
                        .receiving(SentMsg::nack(ProcessId::Home, actor)))
                })
            }
            Wire::Req { msg, val } => {
                let received = SentMsg::req(ProcessId::Home, actor, msg);
                match s.remotes[i].phase {
                    RemotePhase::Awaiting { state, branch } => {
                        if slot(&self.notes.remote_reply, state, branch) != Some(msg) {
                            // Table 1 row T3: ignore.
                            return em.successor(|next| {
                                next.remote_mut(i).to_remote.pop();
                                Ok(Label::new(actor, LabelKind::Deliver, "T3").receiving(received))
                            });
                        }
                        // Optimized reply: complete the request and the
                        // follow-up input atomically.
                        let rb = self.remote_branch(rid, state, branch)?;
                        let reqmsg =
                            rb.action.msg().ok_or(RuntimeError::BadState { who: actor })?;
                        em.successor(|next| {
                            let r = next.remote_mut(i);
                            r.to_remote.pop();
                            Self::apply_assigns(rb, &mut r.env, Some(rid), actor)?;
                            let mid = rb.target;
                            let mid_st = self
                                .spec()
                                .remote
                                .state(mid)
                                .ok_or(RuntimeError::BadState { who: actor })?;
                            let mut landed = false;
                            for (_, fb) in mid_st.recvs() {
                                if let CommAction::Recv { from: Peer::Home, msg: m, bind } =
                                    &fb.action
                                {
                                    if *m == msg {
                                        if let (Some(v), Some(value)) = (bind, val) {
                                            r.env.set(v.index(), value);
                                        }
                                        Self::apply_assigns(fb, &mut r.env, Some(rid), actor)?;
                                        r.phase = RemotePhase::At(fb.target);
                                        landed = true;
                                        break;
                                    }
                                }
                            }
                            if !landed {
                                return Err(RuntimeError::ReplyNotAwaited { who: actor });
                            }
                            Ok(Label::new(actor, LabelKind::Complete, "T1/reply")
                                .completing(actor, reqmsg)
                                .receiving(received))
                        })
                    }
                    // Buffer occupied: the message waits on the link.
                    RemotePhase::At(_) if s.remotes[i].buf.is_some() => Ok(()),
                    RemotePhase::At(_) => em.successor(|next| {
                        let r = next.remote_mut(i);
                        r.to_remote.pop();
                        r.buf = Some((msg, val));
                        Ok(Label::new(actor, LabelKind::Deliver, "buf").receiving(received))
                    }),
                }
            }
        }
    }

    /// Generates remote `i`'s spontaneous transitions (Table 1 rows C1–C3
    /// plus taus).
    fn remote_step(&self, s: &AsyncState, i: usize, em: &mut impl Emitter) -> Result<()> {
        let st_id = match s.remotes[i].phase {
            RemotePhase::At(st) => st,
            RemotePhase::Awaiting { .. } => return Ok(()),
        };
        let rid = RemoteId(i as u32);
        let actor = ProcessId::Remote(rid);
        let st = self.spec().remote.state(st_id).ok_or(RuntimeError::BadState { who: actor })?;
        let ctx = EvalCtx { env: &s.remotes[i].env, self_id: Some(rid) };

        // Tau branches (autonomous decisions; allowed alongside inputs).
        for br in &st.branches {
            if br.action.is_tau() && Self::guard_ok(&br.guard, ctx, actor)? {
                em.successor(|next| {
                    let r = next.remote_mut(i);
                    Self::apply_assigns(br, &mut r.env, Some(rid), actor)?;
                    r.phase = RemotePhase::At(br.target);
                    Ok(Label::new(actor, LabelKind::Tau, "tau").tagged(&br.tag))
                })?;
            }
        }
        if st.kind == StateKind::Internal {
            return Ok(());
        }

        if let Some((bidx, br)) = st.sends().next() {
            // Active state (C1/C2): send the request; a buffered home
            // request, if any, is deleted (the home will treat our request
            // as an implicit nack of its own).
            if !Self::guard_ok(&br.guard, ctx, actor)? {
                return Ok(());
            }
            let (msg, payload) = match &br.action {
                CommAction::Send { msg, payload, .. } => (*msg, payload),
                _ => unreachable!("sends() yields Send branches"),
            };
            let val = match payload {
                Some(e) => Some(e.eval(ctx).map_err(Self::eval_err(actor))?),
                None => None,
            };
            let rule = if s.remotes[i].buf.is_some() { "C2" } else { "C1" };
            return em.successor(|next| {
                let r = next.remote_mut(i);
                r.buf = None;
                let to = ProcessId::Home;
                self.push_link(&mut r.to_home, Wire::Req { msg, val }, actor, to)?;
                if slot(&self.notes.remote_fire_forget, st_id, bidx) {
                    // Unacknowledged send (hand baseline): proceed at once.
                    Self::apply_assigns(br, &mut r.env, Some(rid), actor)?;
                    r.phase = RemotePhase::At(br.target);
                    Ok(Label::new(actor, LabelKind::Complete, "C1/unacked")
                        .completing(actor, msg)
                        .sending(SentMsg::req(actor, to, msg))
                        .tagged(&br.tag))
                } else {
                    r.phase = RemotePhase::Awaiting { state: st_id, branch: bidx };
                    Ok(Label::new(actor, LabelKind::Request, rule)
                        .sending(SentMsg::req(actor, to, msg))
                        .tagged(&br.tag))
                }
            });
        }

        // Passive state (C3): serve the buffered home request.
        if let Some((msg, val)) = s.remotes[i].buf {
            let mut matched = false;
            for (_, rb) in st.recvs() {
                let ok = match &rb.action {
                    CommAction::Recv { from: Peer::Home, msg: m, .. } => *m == msg,
                    _ => false,
                };
                if !ok || !Self::guard_ok(&rb.guard, ctx, actor)? {
                    continue;
                }
                matched = true;
                em.successor(|next| {
                    let r = next.remote_mut(i);
                    r.buf = None;
                    let mut label = Label::new(actor, LabelKind::Complete, "C3")
                        .completing(ProcessId::Home, msg)
                        .tagged(&rb.tag);
                    if !flag(&self.notes.remote_noack, msg) {
                        let to = ProcessId::Home;
                        self.push_link(&mut r.to_home, Wire::Ack, actor, to)?;
                        label = label.sending(SentMsg::ack(actor, to));
                    }
                    if let CommAction::Recv { bind: Some(v), .. } = &rb.action {
                        if let Some(value) = val {
                            r.env.set(v.index(), value);
                        }
                    }
                    Self::apply_assigns(rb, &mut r.env, Some(rid), actor)?;
                    r.phase = RemotePhase::At(rb.target);
                    Ok(label)
                })?;
            }
            if !matched {
                em.successor(|next| {
                    let r = next.remote_mut(i);
                    r.buf = None;
                    if self.config.drop_unmatched {
                        return Ok(Label::new(actor, LabelKind::Deliver, "C3/drop"));
                    }
                    let to = ProcessId::Home;
                    self.push_link(&mut r.to_home, Wire::Nack, actor, to)?;
                    Ok(Label::new(actor, LabelKind::Nacked, "C3/nack")
                        .sending(SentMsg::nack(actor, to)))
                })?;
            }
        }
        Ok(())
    }

    /// Every rule of Tables 1–2 over `s`, in the order successors are
    /// numbered: the home's own step, then per remote the two deliveries
    /// and its step — of a system restricted to one process, those of
    /// these calls whose transitions that process fires, so a share keeps
    /// the order of the whole (and each rule group has its one call, made
    /// or not); of those, the groups the emitter [wants](Emitter::wants).
    /// The groups are `home_step` (0), `deliver_to_home(i)` (`1 + 2i`) and
    /// `deliver_to_remote(i)` with `remote_step(i)` (`2 + 2i`); what each
    /// reads is [`Written::dirty`]'s to know. The walk ends with the
    /// emitter: once a visitor broke or the wanted successor is built, no
    /// later guard is evaluated. That can only hide an error a later rule
    /// would have raised, and neither caller would report it — the sweep
    /// reports what its visitor broke for, and the simulator fires only
    /// after an enumeration of the same state has come back without one.
    fn step_all(&self, s: &AsyncState, em: &mut impl Emitter) -> Result<()> {
        let n = s.remotes.len();
        let (home, remotes) = match self.only {
            None => (true, 0..n),
            Some(ProcessId::Home) => (true, 0..0),
            Some(ProcessId::Remote(r)) => (false, r.index()..r.index() + 1),
        };
        if home && em.wants(0) {
            self.home_step(s, em)?;
        }
        for i in 0..n {
            if em.finished() {
                break;
            }
            if home && em.wants(1 + 2 * i) {
                self.deliver_to_home(s, i, em)?;
                if em.finished() {
                    break;
                }
            }
            if remotes.contains(&i) && em.wants(2 + 2 * i) {
                self.deliver_to_remote(s, i, em)?;
                if em.finished() {
                    break;
                }
                self.remote_step(s, i, em)?;
            }
        }
        Ok(())
    }
}

/// Where the rules of Tables 1–2 put the successors of the state they are
/// reading. A rule hands over a closure that rewrites the slices it needs
/// in a [`Lent`] state equal to the parent, and returns the label; it
/// cannot tell whether that state is the walk's scratch state, put back
/// as it was after the visit ([`InPlace`], behind
/// [`TransitionSystem::for_each_successor_in`]), or a simulator's scratch
/// state on its way to becoming the next configuration ([`Fire`], behind
/// [`TransitionSystem::fire`]) — nor whether the closure is run at all.
trait Emitter {
    /// One successor: `build` turns a state equal to the parent into it
    /// and names the transition. An error from `build` is the rule's.
    fn successor(&mut self, build: impl FnOnce(&mut Lent<'_>) -> Result<Label>) -> Result<()>;

    /// Whether the emitter will take no further successor, so that the
    /// rules still to come need not be walked.
    fn finished(&self) -> bool;

    /// Whether to walk rule group `group`, whose successors, if it does,
    /// are the next ones handed over.
    fn wants(&mut self, group: usize) -> bool;
}

/// What a rule took to write in is a [`Written`]: the copy between a
/// lent state and the one kept equal to it, and the rule groups to flag.
impl Written {
    /// Makes every slice taken equal in `to` to what it is in `from`.
    #[inline]
    fn copy(&self, from: &AsyncState, to: &mut AsyncState) {
        if self.home {
            to.home.clone_from(&from.home);
        }
        match self.remotes() {
            Some(taken) => {
                for &i in taken {
                    to.remotes[i].clone_from(&from.remotes[i]);
                }
            }
            None => to.remotes.clone_from(&from.remotes),
        }
    }

    /// Flags the rule groups of [`AsyncSystem::step_all`] that read a
    /// slice taken. `home_step` reads the home and the length of every
    /// home → remote link (the room for its ack, its request and its
    /// victim nack), so it is flagged after any step; `deliver_to_home(i)`
    /// reads the home and remote `i`'s slice; `deliver_to_remote(i)` and
    /// `remote_step(i)` read remote `i`'s slice alone.
    fn dirty(&self, dirty: &mut [bool]) {
        dirty[0] = true;
        if self.home {
            dirty.iter_mut().skip(1).step_by(2).for_each(|d| *d = true);
        }
        match self.remotes() {
            Some(taken) => {
                for &i in taken {
                    dirty[1 + 2 * i] = true;
                    dirty[2 + 2 * i] = true;
                }
            }
            None => dirty.fill(true),
        }
    }
}

/// A state lent to the rules to build successors in, where another state
/// is kept equal to it: the accessors record which slices a rule took,
/// and only those are copied between the two afterwards.
struct Lent<'a> {
    state: &'a mut AsyncState,
    taken: Written,
}

impl<'a> Lent<'a> {
    fn new(state: &'a mut AsyncState) -> Self {
        Lent { state, taken: Written::NOTHING }
    }

    /// Undoes what was written: the slices taken are `from`'s again.
    #[inline]
    fn reset(&mut self, from: &AsyncState) {
        self.taken.copy(from, self.state);
        self.taken = Written::NOTHING;
    }

    /// Carries what was written over to `to`.
    fn publish(&self, to: &mut AsyncState) {
        self.taken.copy(self.state, to);
    }

    /// The home slice, to write in.
    fn home_mut(&mut self) -> &mut HomeState {
        self.taken.take_home();
        &mut self.state.home
    }

    /// Remote `i`'s slice, links included, to write in.
    fn remote_mut(&mut self, i: usize) -> &mut RemoteState {
        self.taken.take_remote(i);
        &mut self.state.remotes[i]
    }
}

/// Emits each successor of the groups `wanted` selects in one scratch
/// state that equals the parent between successors, telling the visitor
/// what the rule wrote: after the visit, the slices the rule took are
/// copied back from the parent.
struct InPlace<'a, W, V> {
    parent: &'a AsyncState,
    scratch: Lent<'a>,
    wanted: W,
    /// The group being walked.
    group: usize,
    visit: V,
    stopped: bool,
}

impl<W, V> Emitter for InPlace<'_, W, V>
where
    W: Fn(usize) -> bool,
    V: FnMut(usize, Label, &AsyncState, Written) -> ControlFlow<()>,
{
    #[inline]
    fn successor(&mut self, build: impl FnOnce(&mut Lent<'_>) -> Result<Label>) -> Result<()> {
        let built = build(&mut self.scratch).map(|label| {
            if !self.stopped {
                let (state, written) = (&*self.scratch.state, self.scratch.taken);
                self.stopped = (self.visit)(self.group, label, state, written).is_break();
            }
        });
        // Put back every slice taken, whether or not the rule got as far
        // as a successor.
        self.scratch.reset(self.parent);
        built
    }

    fn finished(&self) -> bool {
        self.stopped
    }

    fn wants(&mut self, group: usize) -> bool {
        self.group = group;
        (self.wanted)(group)
    }
}

/// Builds one successor, the `skip`-th of rule group `group`, in a
/// scratch state that equals the parent, and leaves it there: the rules
/// of the group before it are walked for their guards alone — each
/// `build` passed over is a successor counted, not made — and no other
/// group is walked.
struct Fire<'a> {
    scratch: Lent<'a>,
    group: usize,
    skip: usize,
    fired: Option<Label>,
}

impl Emitter for Fire<'_> {
    #[inline]
    fn successor(&mut self, build: impl FnOnce(&mut Lent<'_>) -> Result<Label>) -> Result<()> {
        if self.fired.is_some() {
            return Ok(());
        }
        if self.skip > 0 {
            self.skip -= 1;
            return Ok(());
        }
        self.fired = Some(build(&mut self.scratch)?);
        Ok(())
    }

    fn finished(&self) -> bool {
        self.fired.is_some()
    }

    fn wants(&mut self, group: usize) -> bool {
        group == self.group
    }
}

/// Outcome of the home's buffer-admission decision.
enum Admission {
    Accept(&'static str),
    Nack,
}

impl<'a> TransitionSystem for AsyncSystem<'a> {
    type State = AsyncState;

    fn initial(&self) -> AsyncState {
        AsyncState {
            home: HomeState {
                phase: HomePhase::At(self.spec().home.initial),
                env: self.spec().home.initial_env(),
                buf: InlineVec::new(),
                cursor: 0,
            },
            remotes: (0..self.n)
                .map(|_| RemoteState {
                    phase: RemotePhase::At(self.spec().remote.initial),
                    env: self.spec().remote.initial_env(),
                    buf: None,
                    to_home: Link::new(),
                    to_remote: Link::new(),
                })
                .collect(),
        }
    }

    /// `1 + 2n`: `home_step`, then per remote `i` `deliver_to_home(i)` and
    /// `deliver_to_remote(i)` with `remote_step(i)` (DESIGN.md, "Rule
    /// groups", says what each reads).
    fn groups(&self) -> usize {
        1 + 2 * self.n as usize
    }

    /// Every rule of `step_all` in the groups `wanted` selects, through
    /// the `InPlace` emitter.
    fn for_each_successor_in(
        &self,
        s: &AsyncState,
        scratch: &mut AsyncState,
        wanted: impl Fn(usize) -> bool,
        visit: impl FnMut(usize, Label, &AsyncState, Written) -> ControlFlow<()>,
    ) -> Result<()> {
        let scratch = Lent::new(scratch);
        let mut em = InPlace { parent: s, scratch, wanted, group: 0, visit, stopped: false };
        self.step_all(s, &mut em)
    }

    fn fire(
        &self,
        s: &mut AsyncState,
        scratch: &mut AsyncState,
        group: usize,
        ordinal: usize,
        dirty: &mut [bool],
    ) -> Result<Option<Label>> {
        debug_assert!(*scratch == *s, "the scratch state must equal the state fired from");
        let mut em = Fire { scratch: Lent::new(scratch), group, skip: ordinal, fired: None };
        match self.step_all(s, &mut em) {
            Ok(()) => {
                em.scratch.publish(s);
                if em.fired.is_some() {
                    em.scratch.taken.dirty(dirty);
                }
                Ok(em.fired)
            }
            Err(e) => {
                em.scratch.reset(s);
                Err(e)
            }
        }
    }

    fn link_occupancy(&self, s: &AsyncState, from: ProcessId, to: ProcessId) -> Option<u32> {
        match (from, to) {
            (ProcessId::Remote(r), ProcessId::Home) => {
                s.remotes.get(r.index()).map(|r| r.to_home.len() as u32)
            }
            (ProcessId::Home, ProcessId::Remote(r)) => {
                s.remotes.get(r.index()).map(|r| r.to_remote.len() as u32)
            }
            _ => None,
        }
    }

    fn home_buffer_occupancy(&self, s: &AsyncState) -> Option<(u32, u32)> {
        let cap = self.config.home_buffer + self.config.unacked_allowance;
        Some((s.home.buf.len() as u32, cap as u32))
    }

    fn msg_name(&self, m: MsgType) -> String {
        self.refined.spec.msg_name(m).to_string()
    }

    /// [`AsyncSystem::encode_renamed`] under the identity, except that a
    /// slice the step `from` did not write is offered to `out` as the
    /// parent's segment in the same place, and written only where `out`
    /// declines it.
    fn encode_into(
        &self,
        s: &AsyncState,
        from: Option<Origin<'_, AsyncState>>,
        out: &mut impl Sink,
    ) {
        let written = from.map_or(Written::ALL, |from| from.written);
        if written.home() || !out.reuse(0) {
            self.encode_home_renamed(s, &Identity, out);
        }
        for (i, r) in s.remotes.iter().enumerate() {
            if written.remote(i) || !out.reuse(1 + i) {
                self.encode_remote_renamed(r, &Identity, out);
            }
        }
    }

    /// The one reader of the layout [`AsyncSystem::encode_renamed`]
    /// writes, which is also the snapshot. Allocates only to give `into`
    /// its `n` remotes if it has another number, or where a buffer
    /// outgrows its inline room.
    fn restore_into(&self, bytes: &[u8], into: &mut AsyncState) -> bool {
        let mut r = Reader::new(bytes);
        self.parse_into(&mut r, into).is_some() && r.at_end()
    }

    fn key_is_snapshot(&self) -> bool {
        true
    }
}

impl AsyncSystem<'_> {
    /// Reads one encoded state off `r` into `into`; `None` on truncated
    /// or corrupt bytes, with `into` half-written. What follows the state
    /// is the caller's to judge.
    pub(crate) fn parse_into(&self, r: &mut Reader<'_>, into: &mut AsyncState) -> Option<()> {
        let home = &mut into.home;
        home.phase = match r.u8()? {
            0 => HomePhase::At(StateId(r.id()?)),
            1 => {
                let state = StateId(r.id()?);
                let branch = r.u8()? as u32;
                let target = RemoteId(r.id()?);
                HomePhase::Awaiting { state, branch, target }
            }
            _ => return None,
        };
        r.env(&mut home.env, self.spec().home.vars.len())?;
        home.cursor = r.u8()? as u32;
        home.buf.clear();
        for _ in 0..r.u8()? {
            let from = RemoteId(r.id()?);
            let msg = MsgType(r.u8()? as u32);
            home.buf.push(BufEntry { from, msg, val: r.payload()? });
        }

        let n = self.n as usize;
        if into.remotes.len() != n {
            into.remotes = self.initial().remotes;
        }
        let remote_vars = self.spec().remote.vars.len();
        for remote in &mut into.remotes {
            remote.phase = match r.u8()? {
                0 => RemotePhase::At(StateId(r.id()?)),
                1 => {
                    let state = StateId(r.id()?);
                    let branch = r.u8()? as u32;
                    RemotePhase::Awaiting { state, branch }
                }
                _ => return None,
            };
            r.env(&mut remote.env, remote_vars)?;
            remote.buf = match r.u8()? {
                0 => None,
                1 => {
                    let msg = MsgType(r.u8()? as u32);
                    Some((msg, r.payload()?))
                }
                _ => return None,
            };
            r.link(&mut remote.to_home)?;
            r.link(&mut remote.to_remote)?;
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::tests::token_spec;
    use ccr_core::refine::{refine, RefineOptions, ReqRepMode};

    /// A remote serving a buffered grant (C3) empties its buffer and then
    /// acks — onto a link that, with room for one message, its own
    /// request still fills: `LinkOverflow` from inside the `build`, after
    /// the rule has written. `fire` aimed at that successor reports the
    /// error and hands both states back as they were.
    #[test]
    fn an_error_in_the_fired_rule_leaves_both_states_as_they_were() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions { reqrep: ReqRepMode::Off }).unwrap();
        let config = AsyncConfig { link_capacity: 1, ..AsyncConfig::default() };
        let sys = AsyncSystem::new(&refined, 2, config);
        let (req, gr) = (spec.msg_by_name("req").unwrap(), spec.msg_by_name("gr").unwrap());
        let mut s = sys.initial();
        let r0 = &mut s.remotes[0];
        r0.phase = RemotePhase::At(spec.remote.state_by_name("W").unwrap());
        r0.buf = Some((gr, None));
        r0.to_home.push(Wire::Req { msg: req, val: None });

        // The owned list stops at the failing rule, short of it.
        let mut out = Vec::new();
        let error = sys.successors(&s, &mut out).unwrap_err();
        assert!(matches!(error, RuntimeError::LinkOverflow { .. }), "{error:?}");
        let rules: Vec<_> = out.iter().map(|(l, _)| l.rule).collect();
        assert_eq!(rules, ["T4"], "the home takes the request; then r0's C3 fails");

        // The request is `deliver_to_home(0)`'s (group 1), the grant r0's
        // own (group 2).
        let (mut from, mut scratch) = (s.clone(), s.clone());
        let mut dirty = vec![false; sys.groups()];
        assert_eq!(sys.fire(&mut from, &mut scratch, 2, 0, &mut dirty), Err(error));
        assert_eq!((&from, &scratch), (&s, &s));
        assert_eq!(dirty, [false; 5], "a failed step changes nothing");
        // The successor before it is still there to be fired.
        let label = sys.fire(&mut from, &mut scratch, 1, 0, &mut dirty).unwrap().expect("T4");
        assert_eq!((&label, &from, &scratch), (&out[0].0, &out[0].1, &out[0].1));
        // It wrote the home and r0: every group but r1's own may differ.
        assert_eq!(dirty, [true, true, true, true, false]);
    }

    /// A home request that finds the remote's one-slot buffer occupied
    /// waits on the link — at a node running its share of the rules as in
    /// the whole system — and is buffered once the first has been served.
    #[test]
    fn a_node_leaves_a_request_on_the_link_while_its_buffer_is_full() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions { reqrep: ReqRepMode::Off }).unwrap();
        let node = AsyncSystem::new(&refined, 2, AsyncConfig::default())
            .restricted_to(ProcessId::Remote(RemoteId(1)));
        let gr = spec.msg_by_name("gr").unwrap();
        let mut s = node.initial();
        s.remotes[1].phase = RemotePhase::At(spec.remote.state_by_name("W").unwrap());
        s.remotes[1].buf = Some((gr, None));
        s.remotes[1].to_remote.push(Wire::Req { msg: gr, val: None });

        let rules =
            |out: &[(Label, AsyncState)]| out.iter().map(|(l, _)| l.rule).collect::<Vec<_>>();
        let mut out = Vec::new();
        node.successors(&s, &mut out).unwrap();
        assert_eq!(rules(&out), ["C3"], "the second grant is not delivered yet");
        let served = out.swap_remove(0).1;
        assert_eq!(served.remotes[1].to_remote.len(), 1, "it is still on the link");
        node.successors(&served, &mut out).unwrap();
        assert_eq!(rules(&out), ["buf", "C1"]);
        assert_eq!(out[0].1.remotes[1].buf, Some((gr, None)));
        assert!(out[0].1.remotes[1].to_remote.is_empty());
    }

    /// A second ordinary request from a remote whose first is still
    /// buffered is an error at a node-local home, as it is globally.
    #[test]
    fn a_node_local_home_refuses_a_duplicate_request() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        let req = spec.msg_by_name("req").unwrap();
        let mut s = sys.initial();
        s.home.buf.push(BufEntry { from: RemoteId(0), msg: req, val: None });
        s.remotes[0].to_home.push(Wire::Req { msg: req, val: None });
        let duplicate = Err(RuntimeError::DuplicateRequest { from: RemoteId(0) });
        let mut out = Vec::new();
        assert_eq!(sys.successors(&s, &mut out), duplicate);
        assert_eq!(sys.clone().restricted_to(ProcessId::Home).successors(&s, &mut out), duplicate);
    }
}
