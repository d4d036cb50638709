//! The §4 abstraction function `abs`: asynchronous → rendezvous states.
//!
//! The paper defines `abs` by *undoing* partially-completed protocol
//! machinery:
//!
//! 1. every in-flight or buffered **request** is discarded and its sender
//!    reverted from the transient state back to its communication state —
//!    as though the request were never sent;
//! 2. every in-flight **ack** is consumed: the addressee advances to the
//!    state it would reach on delivery;
//! 3. every in-flight **nack** is discarded and its addressee reverted to
//!    its communication state.
//!
//! With the §3.3 optimization, a reply message is "treated as an ack"
//! (paper §4): a consumed-but-unanswered optimized request corresponds to a
//! *completed* request rendezvous, and an in-flight reply additionally
//! completes the reply rendezvous at the waiting party.
//!
//! [`abs`] returns an error when the asynchronous configuration cannot be
//! classified — which the simulation checker reports as a refinement bug.
//! [`abs_into`] writes the image into a state the caller reuses.

use crate::asynch::{AsyncState, AsyncSystem, HomePhase, RemotePhase};
use crate::error::{Result, RuntimeError};
use crate::rendezvous::{Local, RvState};
use crate::wire::Wire;
use ccr_core::expr::EvalCtx;
use ccr_core::ids::{ProcessId, RemoteId, StateId};
use ccr_core::process::{Branch, CommAction, Peer};
use ccr_core::value::{Env, Value};

fn apply_assigns(
    br: &Branch,
    env: &mut Env,
    self_id: Option<RemoteId>,
    who: ProcessId,
) -> Result<()> {
    for (v, e) in &br.assigns {
        let val = e
            .eval(EvalCtx { env, self_id })
            .map_err(|source| RuntimeError::Eval { who, source })?;
        env.set(v.index(), val);
    }
    Ok(())
}

/// Maps an asynchronous configuration to the rendezvous configuration it
/// implements.
pub fn abs(sys: &AsyncSystem<'_>, s: &AsyncState) -> Result<RvState> {
    let home = Local { state: StateId(0), env: Env::new(Vec::new()) };
    let mut out = RvState { home, remotes: Vec::with_capacity(s.remotes.len()) };
    abs_into(sys, s, &mut out).map(|()| out)
}

/// [`abs`], written over `out`: its remote vector is reused, so an image
/// costs no allocation once `out` has held one. On an error `out` holds
/// some of the image.
pub fn abs_into(sys: &AsyncSystem<'_>, s: &AsyncState, out: &mut RvState) -> Result<()> {
    let spec = sys.spec();

    // --- Remotes -----------------------------------------------------------
    out.remotes.clear();
    for (i, r) in s.remotes.iter().enumerate() {
        let rid = RemoteId(i as u32);
        let who = ProcessId::Remote(rid);
        let local = match r.phase {
            RemotePhase::At(st) => Local { state: st, env: r.env.clone() },
            RemotePhase::Awaiting { state, branch } => {
                let br = spec
                    .remote
                    .state(state)
                    .and_then(|st| st.branches.get(branch as usize))
                    .ok_or(RuntimeError::BadState { who })?;
                let req_msg = br.action.msg().ok_or(RuntimeError::BadState { who })?;
                // Is our request still pending (in flight or parked at home)?
                let pending = r.to_home.any(|w| w.req_msg() == Some(req_msg))
                    || s.home.buf.iter().any(|e| e.from == rid && e.msg == req_msg);
                if pending {
                    // Rule 1: discard the request, revert to the
                    // communication state.
                    Local { state, env: r.env.clone() }
                } else if r.to_remote.any(|w| *w == Wire::Ack) {
                    // Rule 2: consume the ack.
                    let mut env = r.env.clone();
                    apply_assigns(br, &mut env, Some(rid), who)?;
                    Local { state: br.target, env }
                } else if r.to_remote.any(|w| *w == Wire::Nack) {
                    // Rule 3: discard the nack, revert.
                    Local { state, env: r.env.clone() }
                } else if let Some(repl) = sys.remote_reply(state, branch) {
                    // Optimized request: consumed by home. The request
                    // rendezvous completed; if the reply is already in
                    // flight it acts as an ack for the reply rendezvous too.
                    let mut env = r.env.clone();
                    apply_assigns(br, &mut env, Some(rid), who)?;
                    let mut local = Local { state: br.target, env };
                    let reply_val = r.to_remote.iter().find_map(|w| match w {
                        Wire::Req { msg, val } if *msg == repl => Some(*val),
                        _ => None,
                    });
                    if let Some(val) = reply_val {
                        let mid =
                            spec.remote.state(br.target).ok_or(RuntimeError::BadState { who })?;
                        let fb = mid
                            .branches
                            .iter()
                            .find(|b| {
                                matches!(&b.action, CommAction::Recv { from: Peer::Home, msg, .. } if *msg == repl)
                            })
                            .ok_or(RuntimeError::Unabstractable {
                                detail: "reply landing state lacks the reply input",
                            })?;
                        if let CommAction::Recv { bind: Some(v), .. } = &fb.action {
                            if let Some(value) = val {
                                local.env.set(v.index(), value);
                            }
                        }
                        apply_assigns(fb, &mut local.env, Some(rid), who)?;
                        local.state = fb.target;
                    }
                    local
                } else {
                    return Err(RuntimeError::Unabstractable {
                        detail: "remote transient with no request, response or reply anywhere",
                    });
                }
            }
        };
        out.remotes.push(local);
    }

    // --- Home ---------------------------------------------------------------
    out.home = match s.home.phase {
        HomePhase::At(st) => Local { state: st, env: s.home.env.clone() },
        HomePhase::Awaiting { state, branch, target } => {
            let who = ProcessId::Home;
            let br = spec
                .home
                .state(state)
                .and_then(|st| st.branches.get(branch as usize))
                .ok_or(RuntimeError::BadState { who })?;
            let req_msg = br.action.msg().ok_or(RuntimeError::BadState { who })?;
            let t = target.index();
            let pending = s.remotes[t].to_remote.any(|w| w.req_msg() == Some(req_msg))
                || s.remotes[t].buf.map(|(m, _)| m == req_msg).unwrap_or(false);
            if pending {
                Local { state, env: s.home.env.clone() }
            } else if s.remotes[t].to_home.any(|w| *w == Wire::Ack) {
                let mut env = s.home.env.clone();
                apply_assigns(br, &mut env, None, who)?;
                Local { state: br.target, env }
            } else if s.remotes[t].to_home.any(|w| *w == Wire::Nack) {
                Local { state, env: s.home.env.clone() }
            } else if let Some(repl) = sys.home_reply(state, branch) {
                let reply_val = s.remotes[t].to_home.iter().find_map(|w| match w {
                    Wire::Req { msg, val } if *msg == repl => Some(*val),
                    _ => None,
                });
                if reply_val.is_none() && matches!(s.remotes[t].phase, RemotePhase::Awaiting { .. })
                {
                    // No reply anywhere and the awaited remote is itself in
                    // a transient state: it *ignored* our request (remote
                    // rule T3 of Table 1). The request rendezvous never
                    // happened — revert, exactly as if the request were
                    // still in the medium. The home learns of this via the
                    // implicit nack when the remote's own request arrives.
                    out.home = Local { state, env: s.home.env.clone() };
                    return Ok(());
                }
                let mut env = s.home.env.clone();
                apply_assigns(br, &mut env, None, who)?;
                let mut local = Local { state: br.target, env };
                if let Some(val) = reply_val {
                    let mid = spec.home.state(br.target).ok_or(RuntimeError::BadState { who })?;
                    let fb = mid
                        .branches
                        .iter()
                        .find(|b| matches!(&b.action, CommAction::Recv { msg, .. } if *msg == repl))
                        .ok_or(RuntimeError::Unabstractable {
                            detail: "home reply landing state lacks the reply input",
                        })?;
                    if let CommAction::Recv { from, bind, .. } = &fb.action {
                        if let Peer::AnyRemote { bind: Some(v) } = from {
                            local.env.set(v.index(), Value::Node(target));
                        }
                        if let (Some(v), Some(value)) = (bind, val) {
                            local.env.set(v.index(), value);
                        }
                    }
                    apply_assigns(fb, &mut local.env, None, who)?;
                    local.state = fb.target;
                }
                local
            } else if matches!(s.remotes[t].phase, RemotePhase::Awaiting { .. }) {
                // Plain request ignored by a remote in its own transient
                // state (remote rule T3): revert.
                Local { state, env: s.home.env.clone() }
            } else {
                // Remote consumed our *ordinary* request and its response
                // has not been emitted yet: impossible, because the remote's
                // C3 row emits the ack/nack in the same atomic step it
                // consumes the buffered request.
                return Err(RuntimeError::Unabstractable {
                    detail: "home transient with no request, response or reply anywhere",
                });
            }
        }
    };
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asynch::AsyncConfig;
    use crate::rendezvous::RendezvousSystem;
    use crate::system::TransitionSystem;
    use ccr_core::builder::ProtocolBuilder;
    use ccr_core::expr::Expr;
    use ccr_core::refine::{refine, RefineOptions, ReqRepMode};
    use ccr_core::value::Value;

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
    fn abs_of_initial_is_rendezvous_initial() {
        let spec = token_spec();
        for mode in [ReqRepMode::Auto, ReqRepMode::Off] {
            let refined = refine(&spec, &RefineOptions { reqrep: mode }).unwrap();
            let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
            let rv = RendezvousSystem::new(&spec, 2);
            let a = abs(&sys, &sys.initial()).unwrap();
            assert_eq!(rv.encoded(&a), rv.encoded(&rv.initial()));
        }
    }

    /// Walking one async step (remote 0 sends req) must abstract back to the
    /// initial rendezvous state (a stutter): the in-flight request is
    /// discarded and the sender reverted.
    #[test]
    fn in_flight_request_is_a_stutter() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        let rv = RendezvousSystem::new(&spec, 2);
        let s0 = sys.initial();
        let mut out = Vec::new();
        sys.successors(&s0, &mut out).unwrap();
        let (_, s1) = out
            .iter()
            .find(|(l, _)| l.rule == "C1" && l.actor == ProcessId::Remote(RemoteId(0)))
            .cloned()
            .expect("remote 0 sends its request");
        let a = abs(&sys, &s1).unwrap();
        assert_eq!(rv.encoded(&a), rv.encoded(&rv.initial()));
    }
}
