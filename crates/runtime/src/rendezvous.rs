//! Synchronous (rendezvous) semantics: the atomic-transaction view.
//!
//! A global configuration is the control state and environment of the home
//! node and of every remote. A transition is either an autonomous `tau`
//! step of one process or a *rendezvous*: the simultaneous execution of a
//! matching output/input guard pair, atomically transferring the payload.

use crate::error::{Result, RuntimeError};
use crate::system::{DynVisit, Label, LabelKind, Origin, TransitionSystem, Written};
use crate::wire::Reader;
use ccr_core::encode::{Identity, Renaming, Segment, Sink};
use ccr_core::expr::EvalCtx;
use ccr_core::ids::{MsgType, ProcessId, RemoteId, StateId};
use ccr_core::process::{Branch, CommAction, Peer, ProtocolSpec, StateKind};
use ccr_core::value::{Env, Value};
use std::ops::ControlFlow;

/// One process's slice of the global configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Local {
    /// Control state.
    pub state: StateId,
    /// Variable environment.
    pub env: Env,
}

/// A global rendezvous configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RvState {
    /// Home node.
    pub home: Local,
    /// Remote nodes, indexed by [`RemoteId`].
    pub remotes: Vec<Local>,
}

impl RvState {
    /// The number of remotes.
    pub fn n(&self) -> usize {
        self.remotes.len()
    }
}

/// The rendezvous transition system for a spec instantiated with `n`
/// remotes.
#[derive(Debug, Clone)]
pub struct RendezvousSystem<'a> {
    spec: &'a ProtocolSpec,
    n: u32,
}

impl<'a> RendezvousSystem<'a> {
    /// Creates the system over `n` remotes.
    pub fn new(spec: &'a ProtocolSpec, n: u32) -> Self {
        Self { spec, n }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &'a ProtocolSpec {
        self.spec
    }

    /// Number of remotes.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Appends to `out` the encoding of `s` with its remotes renamed by
    /// `ren` (see `AsyncSystem::encode_renamed`); `encode_into` is the
    /// [`Identity`] instance. The home's segment
    /// and each slot's are one process's [`Local`], written alike and
    /// ended as the segment of its kind.
    pub fn encode_renamed(&self, s: &RvState, ren: &impl Renaming, out: &mut impl Sink) {
        Self::encode_local_renamed(&s.home, Segment::Home, ren, out);
        for slot in 0..s.remotes.len() {
            Self::encode_local_renamed(&s.remotes[ren.source(slot)], Segment::Remote, ren, out);
        }
    }

    /// One process's segment of [`RendezvousSystem::encode_renamed`], a
    /// segment of kind `kind`.
    #[inline(always)]
    pub fn encode_local_renamed(
        l: &Local,
        kind: Segment,
        ren: &impl Renaming,
        out: &mut impl Sink,
    ) {
        out.put_id(l.state.0);
        l.env.encode_renamed(ren, out);
        out.end_segment(kind);
    }

    fn home_state<'s>(&'s self, s: &RvState) -> Result<&'s ccr_core::process::State> {
        self.spec.home.state(s.home.state).ok_or(RuntimeError::BadState { who: ProcessId::Home })
    }

    fn remote_state<'s>(&'s self, s: &RvState, i: usize) -> Result<&'s ccr_core::process::State> {
        self.spec
            .remote
            .state(s.remotes[i].state)
            .ok_or(RuntimeError::BadState { who: ProcessId::Remote(RemoteId(i as u32)) })
    }

    /// Evaluates a guard (missing guard is `true`).
    fn guard_ok(
        guard: &Option<ccr_core::expr::Expr>,
        ctx: EvalCtx<'_>,
        who: ProcessId,
    ) -> Result<bool> {
        match guard {
            None => Ok(true),
            Some(g) => g.eval_bool(ctx).map_err(|source| RuntimeError::Eval { who, source }),
        }
    }

    fn apply_assigns(
        branch: &Branch,
        env: &mut Env,
        self_id: Option<RemoteId>,
        who: ProcessId,
    ) -> Result<()> {
        for (v, e) in &branch.assigns {
            let val = e
                .eval(EvalCtx { env, self_id })
                .map_err(|source| RuntimeError::Eval { who, source })?;
            env.set(v.index(), val);
        }
        Ok(())
    }

    /// Executes a rendezvous where the *home* is active (home `Send` branch
    /// `hb`, remote `i` `Recv` branch `rb`), writing the successor into
    /// `next`, which equals `s`.
    fn do_home_active(
        s: &RvState,
        next: &mut RvState,
        hb: &Branch,
        i: usize,
        rb: &Branch,
    ) -> Result<()> {
        let hctx = EvalCtx { env: &s.home.env, self_id: None };
        let payload = match &hb.action {
            CommAction::Send { payload: Some(e), .. } => Some(
                e.eval(hctx)
                    .map_err(|source| RuntimeError::Eval { who: ProcessId::Home, source })?,
            ),
            _ => None,
        };
        // Receiver side: bind payload, run assigns, move.
        if let CommAction::Recv { bind, .. } = &rb.action {
            if let (Some(v), Some(val)) = (bind, payload) {
                next.remotes[i].env.set(v.index(), val);
            }
        }
        let rid = RemoteId(i as u32);
        Self::apply_assigns(rb, &mut next.remotes[i].env, Some(rid), ProcessId::Remote(rid))?;
        next.remotes[i].state = rb.target;
        // Sender side.
        Self::apply_assigns(hb, &mut next.home.env, None, ProcessId::Home)?;
        next.home.state = hb.target;
        Ok(())
    }

    /// Executes a rendezvous where remote `i` is active, writing the
    /// successor into `next`, which equals `s`.
    fn do_remote_active(
        s: &RvState,
        next: &mut RvState,
        i: usize,
        rb: &Branch,
        hb: &Branch,
    ) -> Result<()> {
        let rid = RemoteId(i as u32);
        let rctx = EvalCtx { env: &s.remotes[i].env, self_id: Some(rid) };
        let payload = match &rb.action {
            CommAction::Send { payload: Some(e), .. } => Some(
                e.eval(rctx)
                    .map_err(|source| RuntimeError::Eval { who: ProcessId::Remote(rid), source })?,
            ),
            _ => None,
        };
        // Home receiver: bind sender and payload, assigns, move.
        if let CommAction::Recv { from, bind, .. } = &hb.action {
            if let Peer::AnyRemote { bind: Some(v) } = from {
                next.home.env.set(v.index(), Value::Node(rid));
            }
            if let (Some(v), Some(val)) = (bind, payload) {
                next.home.env.set(v.index(), val);
            }
        }
        Self::apply_assigns(hb, &mut next.home.env, None, ProcessId::Home)?;
        next.home.state = hb.target;
        // Remote sender.
        Self::apply_assigns(rb, &mut next.remotes[i].env, Some(rid), ProcessId::Remote(rid))?;
        next.remotes[i].state = rb.target;
        Ok(())
    }

    /// Whether home `Recv` branch `hb` accepts a message `msg` from remote
    /// `i` in configuration `s` (peer pattern and guard, not binding).
    fn home_recv_matches(
        &self,
        s: &RvState,
        hb: &Branch,
        i: usize,
        msg: ccr_core::ids::MsgType,
    ) -> Result<bool> {
        let hctx = EvalCtx { env: &s.home.env, self_id: None };
        let (from, m) = match &hb.action {
            CommAction::Recv { from, msg, .. } => (from, *msg),
            _ => return Ok(false),
        };
        if m != msg {
            return Ok(false);
        }
        if !Self::guard_ok(&hb.guard, hctx, ProcessId::Home)? {
            return Ok(false);
        }
        match from {
            Peer::AnyRemote { .. } => Ok(true),
            Peer::Remote(e) => {
                let t = e
                    .eval_node(hctx)
                    .map_err(|source| RuntimeError::Eval { who: ProcessId::Home, source })?;
                Ok(t.index() == i)
            }
            Peer::Home => Ok(false),
        }
    }

    /// The home's `tau` steps, then per remote its `tau` steps and its
    /// rendezvous with the home, home-active first, each built in
    /// `scratch`: a rendezvous writes the home's slice and its partner's,
    /// a `tau` its process's. Not generic over the visitor, so the rules
    /// are compiled once whoever walks them.
    fn walk(
        &self,
        s: &RvState,
        scratch: &mut RvState,
        visit: &mut DynVisit<'_, RvState>,
    ) -> Result<()> {
        let home_st = self.home_state(s)?;
        let hctx = EvalCtx { env: &s.home.env, self_id: None };

        // Home tau steps (internal states).
        for br in &home_st.branches {
            if br.action.is_tau() && Self::guard_ok(&br.guard, hctx, ProcessId::Home)? {
                let build = |next: &mut RvState| {
                    Self::apply_assigns(br, &mut next.home.env, None, ProcessId::Home)?;
                    next.home.state = br.target;
                    Ok(Label::new(ProcessId::Home, LabelKind::Tau, "tau"))
                };
                if Self::lend(s, scratch, wrote(true, None), build, visit)?.is_break() {
                    return Ok(());
                }
            }
        }

        for i in 0..s.remotes.len() {
            let rid = RemoteId(i as u32);
            let pid = ProcessId::Remote(rid);
            let rst = self.remote_state(s, i)?;
            let rctx = EvalCtx { env: &s.remotes[i].env, self_id: Some(rid) };

            // Remote tau steps.
            for br in &rst.branches {
                if br.action.is_tau() && Self::guard_ok(&br.guard, rctx, pid)? {
                    let build = |next: &mut RvState| {
                        Self::apply_assigns(br, &mut next.remotes[i].env, Some(rid), pid)?;
                        next.remotes[i].state = br.target;
                        Ok(Label::new(pid, LabelKind::Tau, "tau"))
                    };
                    if Self::lend(s, scratch, wrote(false, Some(i)), build, visit)?.is_break() {
                        return Ok(());
                    }
                }
            }

            if home_st.kind != StateKind::Communication || rst.kind != StateKind::Communication {
                continue;
            }

            // Home-active rendezvous with remote i.
            for (_, hb) in home_st.sends() {
                if !Self::guard_ok(&hb.guard, hctx, ProcessId::Home)? {
                    continue;
                }
                let (to, msg) = match &hb.action {
                    CommAction::Send { to: Peer::Remote(e), msg, .. } => {
                        let t = e.eval_node(hctx).map_err(|source| RuntimeError::Eval {
                            who: ProcessId::Home,
                            source,
                        })?;
                        (t, *msg)
                    }
                    _ => continue,
                };
                if to.index() != i {
                    continue;
                }
                for (_, rb) in rst.recvs() {
                    let ok = match &rb.action {
                        CommAction::Recv { from: Peer::Home, msg: m, .. } => *m == msg,
                        _ => false,
                    };
                    if !ok || !Self::guard_ok(&rb.guard, rctx, pid)? {
                        continue;
                    }
                    let build = |next: &mut RvState| {
                        Self::do_home_active(s, next, hb, i, rb)?;
                        Ok(Label::new(ProcessId::Home, LabelKind::Rendezvous, "rendezvous")
                            .completing(ProcessId::Home, msg))
                    };
                    if Self::lend(s, scratch, wrote(true, Some(i)), build, visit)?.is_break() {
                        return Ok(());
                    }
                }
            }

            // Remote-active rendezvous.
            for (_, rb) in rst.sends() {
                if !Self::guard_ok(&rb.guard, rctx, pid)? {
                    continue;
                }
                let msg = match &rb.action {
                    CommAction::Send { to: Peer::Home, msg, .. } => *msg,
                    _ => continue,
                };
                for (_, hb) in home_st.recvs() {
                    if self.home_recv_matches(s, hb, i, msg)? {
                        let build = |next: &mut RvState| {
                            Self::do_remote_active(s, next, i, rb, hb)?;
                            Ok(Label::new(pid, LabelKind::Rendezvous, "rendezvous")
                                .completing(pid, msg))
                        };
                        if Self::lend(s, scratch, wrote(true, Some(i)), build, visit)?.is_break() {
                            return Ok(());
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Lends `scratch`, equal to `s`, to `build`, shows `visit` the
    /// successor `build` writes there and names — a step that writes the
    /// slices `written` names — and puts those slices back, also where
    /// `build` fails halfway.
    fn lend(
        s: &RvState,
        scratch: &mut RvState,
        written: Written,
        build: impl FnOnce(&mut RvState) -> Result<Label>,
        visit: &mut DynVisit<'_, RvState>,
    ) -> Result<ControlFlow<()>> {
        let shown = build(scratch).map(|label| visit(0, label, scratch, written));
        if written.home() {
            scratch.home.clone_from(&s.home);
        }
        for &i in written.remotes().expect("a rendezvous step names the remote it writes") {
            scratch.remotes[i].clone_from(&s.remotes[i]);
        }
        shown
    }
}

/// What a step of the rendezvous level writes: the home's slice, remote
/// `i`'s, or both.
fn wrote(home: bool, remote: Option<usize>) -> Written {
    let mut written = Written::NOTHING;
    if home {
        written.take_home();
    }
    if let Some(i) = remote {
        written.take_remote(i);
    }
    written
}

impl<'a> TransitionSystem for RendezvousSystem<'a> {
    type State = RvState;

    fn initial(&self) -> RvState {
        RvState {
            home: Local { state: self.spec.home.initial, env: self.spec.home.initial_env() },
            remotes: (0..self.n)
                .map(|_| Local {
                    state: self.spec.remote.initial,
                    env: self.spec.remote.initial_env(),
                })
                .collect(),
        }
    }

    /// The rules of `RendezvousSystem::walk`, one group.
    fn for_each_successor_in(
        &self,
        s: &RvState,
        scratch: &mut RvState,
        wanted: impl Fn(usize) -> bool,
        mut visit: impl FnMut(usize, Label, &RvState, Written) -> ControlFlow<()>,
    ) -> Result<()> {
        if !wanted(0) {
            return Ok(());
        }
        self.walk(s, scratch, &mut visit)
    }

    fn msg_name(&self, m: MsgType) -> String {
        self.spec.msg_name(m).to_string()
    }

    /// [`RendezvousSystem::encode_renamed`] under the identity, except
    /// that a slice the step `from` did not write is offered to `out` as
    /// the parent's segment in the same place, and written only where
    /// `out` declines it.
    fn encode_into(&self, s: &RvState, from: Option<Origin<'_, RvState>>, out: &mut impl Sink) {
        let written = from.map_or(Written::ALL, |from| from.written);
        if written.home() || !out.reuse(0) {
            Self::encode_local_renamed(&s.home, Segment::Home, &Identity, out);
        }
        for (i, r) in s.remotes.iter().enumerate() {
            if written.remote(i) || !out.reuse(1 + i) {
                Self::encode_local_renamed(r, Segment::Remote, &Identity, out);
            }
        }
    }

    /// The one reader of the layout [`RendezvousSystem::encode_renamed`]
    /// writes, which is also the snapshot.
    fn restore_into(&self, bytes: &[u8], into: &mut RvState) -> bool {
        if into.remotes.len() != self.n as usize {
            into.remotes = self.initial().remotes;
        }
        let mut r = Reader::new(bytes);
        let mut local = |l: &mut Local, vars: usize| -> Option<()> {
            l.state = StateId(r.id()?);
            r.env(&mut l.env, vars)
        };
        let remote_vars = self.spec.remote.vars.len();
        let parsed = local(&mut into.home, self.spec.home.vars.len()).is_some()
            && into.remotes.iter_mut().all(|l| local(l, remote_vars).is_some());
        // Trailing garbage is not a canonical encoding.
        parsed && r.at_end()
    }

    fn key_is_snapshot(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_core::builder::ProtocolBuilder;
    use ccr_core::expr::Expr;
    use ccr_core::value::Value;

    /// Token protocol: remote requests, home grants to the recorded owner,
    /// owner releases.
    fn token() -> ProtocolSpec {
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
    fn initial_state_shape() {
        let spec = token();
        let sys = RendezvousSystem::new(&spec, 3);
        let s0 = sys.initial();
        assert_eq!(s0.n(), 3);
        assert_eq!(s0.home.state, spec.home.initial);
    }

    #[test]
    fn initial_successors_are_req_rendezvous() {
        let spec = token();
        let sys = RendezvousSystem::new(&spec, 2);
        let s0 = sys.initial();
        let mut out = Vec::new();
        sys.successors(&s0, &mut out).unwrap();
        // Each of the two remotes can rendezvous on req with home.
        assert_eq!(out.len(), 2);
        for (l, _) in &out {
            assert_eq!(l.kind, LabelKind::Rendezvous);
            assert!(l.completes.is_some());
        }
    }

    #[test]
    fn grant_targets_the_recorded_owner() {
        let spec = token();
        let sys = RendezvousSystem::new(&spec, 2);
        let s0 = sys.initial();
        let mut out = Vec::new();
        sys.successors(&s0, &mut out).unwrap();
        // Take remote 1's request.
        let (_, s1) =
            out.iter().find(|(l, _)| l.actor == ProcessId::Remote(RemoteId(1))).cloned().unwrap();
        assert_eq!(s1.home.env.get(0), Some(Value::Node(RemoteId(1))));
        // From s1 the only rendezvous is gr to remote 1.
        sys.successors(&s1, &mut out).unwrap();
        let rendezvous: Vec<_> =
            out.iter().filter(|(l, _)| l.kind == LabelKind::Rendezvous).collect();
        assert_eq!(rendezvous.len(), 1);
        let (_, s2) = rendezvous[0].clone();
        let v = spec.remote.state_by_name("V").unwrap();
        assert_eq!(s2.remotes[1].state, v);
        let i = spec.remote.state_by_name("I").unwrap();
        assert_eq!(s2.remotes[0].state, i);
    }

    #[test]
    fn full_cycle_returns_to_initial() {
        let spec = token();
        let sys = RendezvousSystem::new(&spec, 1);
        let mut s = sys.initial();
        let init_enc = sys.encoded(&s);
        let mut out = Vec::new();
        // req, gr, rel
        for _ in 0..3 {
            sys.successors(&s, &mut out).unwrap();
            assert_eq!(out.len(), 1, "deterministic with one remote");
            s = out[0].1.clone();
        }
        assert_eq!(sys.encoded(&s), init_enc);
    }

    #[test]
    fn encoding_distinguishes_remote_order() {
        let spec = token();
        let sys = RendezvousSystem::new(&spec, 2);
        let s0 = sys.initial();
        let mut out = Vec::new();
        sys.successors(&s0, &mut out).unwrap();
        let e0 = sys.encoded(&out[0].1);
        let e1 = sys.encoded(&out[1].1);
        assert_ne!(e0, e1);
    }

    #[test]
    fn tau_guard_respected() {
        let mut b = ProtocolBuilder::new("tau");
        let m = b.msg("m");
        let h = b.home_state("H");
        b.home(h).recv_any(m).goto(h);
        let x = b.remote_var("x", Value::Int(0));
        let r = b.remote_state("R");
        let r2 = b.remote_state("R2");
        b.remote(r)
            .when(Expr::eq(Expr::Var(x), Expr::int(0)))
            .tau()
            .assign(x, Expr::int(1))
            .goto(r2);
        b.remote(r2).send(m).goto(r2);
        let spec = b.finish_unchecked().unwrap();
        let sys = RendezvousSystem::new(&spec, 1);
        let s0 = sys.initial();
        let mut out = Vec::new();
        sys.successors(&s0, &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0.kind, LabelKind::Tau);
        let s1 = out[0].1.clone();
        assert_eq!(s1.remotes[0].env.get(0), Some(Value::Int(1)));
        // Guard now false: no tau from R2... but send m is available.
        sys.successors(&s1, &mut out).unwrap();
        assert!(out.iter().all(|(l, _)| l.kind == LabelKind::Rendezvous));
    }
}
