//! Well-formedness and §2.4 syntactic-restriction checks.
//!
//! The refinement procedure is only sound for specifications obeying the
//! paper's restrictions:
//!
//! * **star topology** — remotes talk only to home; home talks only to
//!   remotes;
//! * **remote guard restriction** — each remote communication state is
//!   either *active* (exactly one output guard) or *passive* (input guards
//!   from home plus autonomous `tau` guards);
//! * **eventual communication** — internal states cannot form a cycle that
//!   never reaches a communication state (checked syntactically, as the
//!   paper notes is possible);
//! * plus ordinary referential integrity (no dangling states/variables, no
//!   terminal states, guards independent of same-branch bindings);
//! * and the **size limits** of the model checker's state encoding, which
//!   stores a message type and a branch index in one byte and a state id in
//!   two — a spec past those widths would alias distinct states.

use crate::error::{CoreError, Result};
use crate::expr::Expr;
use crate::ids::{StateId, VarId};
use crate::process::{Branch, CommAction, Peer, Process, ProtocolSpec, StateKind};

/// Most message types a spec may declare: the state encoding stores a
/// message type in one byte.
pub const MAX_MSG_TYPES: usize = 1 << 8;
/// Most branches one state may have: the encoding stores a branch index —
/// and the home's retry cursor, which runs one past the last branch — in
/// one byte.
pub const MAX_BRANCHES: usize = (1 << 8) - 1;
/// Most states one process may have: the encoding stores a state id
/// below 2^16, in one byte below 128 and at most
/// [`ID_MAX_ENCODED_LEN`](crate::encode::ID_MAX_ENCODED_LEN) bytes.
pub const MAX_STATES: usize = 1 << 16;

fn check_size(what: &'static str, count: usize, max: usize) -> Result<()> {
    if count > max {
        return Err(CoreError::TooLarge { what, count, max });
    }
    Ok(())
}

/// Validates `spec` against all restrictions. Returns the first violation.
pub fn validate(spec: &ProtocolSpec) -> Result<()> {
    check_size("message types", spec.msgs.len(), MAX_MSG_TYPES)?;
    validate_process(&spec.home, "home", true)?;
    validate_process(&spec.remote, "remote", false)?;
    Ok(())
}

fn validate_process(p: &Process, label: &'static str, is_home: bool) -> Result<()> {
    if p.states.is_empty() {
        return Err(CoreError::EmptyProcess { process: label });
    }
    if p.state(p.initial).is_none() {
        return Err(CoreError::DanglingState { process: label, state: p.initial });
    }
    check_size("states in one process", p.states.len(), MAX_STATES)?;
    for (idx, st) in p.states.iter().enumerate() {
        let sid = StateId(idx as u32);
        if st.branches.is_empty() {
            return Err(CoreError::TerminalState { process: label, state: sid });
        }
        check_size("branches in one state", st.branches.len(), MAX_BRANCHES)?;
        for br in &st.branches {
            if let Some(m) = br.action.msg() {
                check_size("message types", m.index() + 1, MAX_MSG_TYPES)?;
            }
            check_branch(p, label, sid, br, is_home)?;
        }
        match st.kind {
            StateKind::Internal => {
                if st.branches.iter().any(|b| !b.action.is_tau()) {
                    return Err(CoreError::InternalStateCommunicates {
                        process: label,
                        state: sid,
                    });
                }
            }
            StateKind::Communication => {
                if is_home {
                    // Home communication states use generalized guards but
                    // autonomous decisions belong in internal states.
                    if st.branches.iter().any(|b| b.action.is_tau()) {
                        return Err(CoreError::StarViolation {
                            process: label,
                            state: sid,
                            detail:
                                "home communication state has a tau guard; use an internal state",
                        });
                    }
                } else {
                    check_remote_guard_restriction(sid, st)?;
                }
            }
        }
    }
    check_internal_cycles(p, label)?;
    Ok(())
}

/// §2.4: a remote communication state is active (one output) xor passive
/// (inputs + taus).
fn check_remote_guard_restriction(sid: StateId, st: &crate::process::State) -> Result<()> {
    let sends = st.branches.iter().filter(|b| b.action.is_send()).count();
    if sends > 1 {
        return Err(CoreError::RemoteGuardRestriction {
            state: sid,
            detail: "more than one output guard; a remote may request a single rendezvous",
        });
    }
    if sends == 1 && st.branches.len() != 1 {
        return Err(CoreError::RemoteGuardRestriction {
            state: sid,
            detail: "an active remote state must contain exactly the one output guard",
        });
    }
    Ok(())
}

fn check_branch(
    p: &Process,
    label: &'static str,
    sid: StateId,
    br: &Branch,
    is_home: bool,
) -> Result<()> {
    if p.state(br.target).is_none() {
        return Err(CoreError::DanglingState { process: label, state: br.target });
    }
    let mut used: Vec<VarId> = Vec::new();
    if let Some(g) = &br.guard {
        g.collect_vars(&mut used);
    }
    let mut bound: Vec<VarId> = Vec::new();
    match &br.action {
        CommAction::Send { to, payload, .. } => {
            match (is_home, to) {
                (true, Peer::Remote(e)) => e.collect_vars(&mut used),
                (true, _) => {
                    return Err(CoreError::StarViolation {
                        process: label,
                        state: sid,
                        detail: "home outputs must address a specific remote",
                    })
                }
                (false, Peer::Home) => {}
                (false, _) => {
                    return Err(CoreError::StarViolation {
                        process: label,
                        state: sid,
                        detail: "remote outputs must address home",
                    })
                }
            }
            if let Some(e) = payload {
                e.collect_vars(&mut used);
            }
        }
        CommAction::Recv { from, bind, .. } => {
            match (is_home, from) {
                (true, Peer::AnyRemote { bind: sender_bind }) => {
                    if let Some(v) = sender_bind {
                        bound.push(*v);
                    }
                }
                (true, Peer::Remote(e)) => e.collect_vars(&mut used),
                (true, Peer::Home) => {
                    return Err(CoreError::StarViolation {
                        process: label,
                        state: sid,
                        detail: "home cannot receive from itself",
                    })
                }
                (false, Peer::Home) => {}
                (false, _) => {
                    return Err(CoreError::StarViolation {
                        process: label,
                        state: sid,
                        detail: "remote inputs must come from home",
                    })
                }
            }
            if let Some(v) = bind {
                bound.push(*v);
            }
        }
        CommAction::Tau => {}
    }
    // Guards may not depend on bindings made by the same branch.
    if let Some(g) = &br.guard {
        let mut guard_vars = Vec::new();
        g.collect_vars(&mut guard_vars);
        if guard_vars.iter().any(|v| bound.contains(v)) {
            return Err(CoreError::DanglingVar {
                process: label,
                state: sid,
                var: *guard_vars.iter().find(|v| bound.contains(v)).unwrap(),
            });
        }
    }
    for (v, e) in &br.assigns {
        used.push(*v);
        e.collect_vars(&mut used);
    }
    used.extend(bound);
    for v in used {
        if v.index() >= p.vars.len() {
            return Err(CoreError::DanglingVar { process: label, state: sid, var: v });
        }
    }
    if !is_home {
        // Remote expressions may use SelfId; the home may not. SelfId in the
        // home is caught at evaluation time, but we also reject it here.
    } else if process_uses_self_in_state(p, sid) {
        return Err(CoreError::SelfIdInHome);
    }
    Ok(())
}

fn expr_uses_self(e: &Expr) -> bool {
    match e {
        Expr::SelfId => true,
        Expr::Const(_) | Expr::Var(_) => false,
        Expr::Not(a) => expr_uses_self(a),
        Expr::And(a, b)
        | Expr::Or(a, b)
        | Expr::Eq(a, b)
        | Expr::Ne(a, b)
        | Expr::Lt(a, b)
        | Expr::Add(a, b)
        | Expr::Sub(a, b)
        | Expr::Mod(a, b)
        | Expr::MaskHas(a, b)
        | Expr::MaskAdd(a, b)
        | Expr::MaskDel(a, b) => expr_uses_self(a) || expr_uses_self(b),
        Expr::MaskIsEmpty(a) | Expr::MaskFirst(a) => expr_uses_self(a),
    }
}

fn process_uses_self_in_state(p: &Process, sid: StateId) -> bool {
    let st = match p.state(sid) {
        Some(s) => s,
        None => return false,
    };
    st.branches.iter().any(|b| {
        b.guard.as_ref().is_some_and(expr_uses_self)
            || b.assigns.iter().any(|(_, e)| expr_uses_self(e))
            || match &b.action {
                CommAction::Send { to: Peer::Remote(e), payload, .. } => {
                    expr_uses_self(e) || payload.as_ref().is_some_and(expr_uses_self)
                }
                CommAction::Send { payload, .. } => payload.as_ref().is_some_and(expr_uses_self),
                CommAction::Recv { from: Peer::Remote(e), .. } => expr_uses_self(e),
                _ => false,
            }
    })
}

/// Detects cycles made solely of internal states (violating the
/// eventual-communication assumption).
fn check_internal_cycles(p: &Process, label: &'static str) -> Result<()> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks = vec![Mark::White; p.states.len()];
    // Iterative DFS restricted to internal states.
    for start in 0..p.states.len() {
        if p.states[start].kind != StateKind::Internal || marks[start] != Mark::White {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        marks[start] = Mark::Grey;
        while let Some(&mut (node, ref mut edge)) = stack.last_mut() {
            let st = &p.states[node];
            if *edge >= st.branches.len() {
                marks[node] = Mark::Black;
                stack.pop();
                continue;
            }
            let tgt = st.branches[*edge].target.index();
            *edge += 1;
            if tgt >= p.states.len() || p.states[tgt].kind != StateKind::Internal {
                continue; // leaves the internal subgraph: fine
            }
            match marks[tgt] {
                Mark::Grey => {
                    return Err(CoreError::InternalLivelock {
                        process: label,
                        state: StateId(tgt as u32),
                    })
                }
                Mark::White => {
                    marks[tgt] = Mark::Grey;
                    stack.push((tgt, 0));
                }
                Mark::Black => {}
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProtocolBuilder;
    use crate::value::Value;

    fn base() -> (ProtocolBuilder, crate::ids::MsgType) {
        let mut b = ProtocolBuilder::new("t");
        let m = b.msg("m");
        (b, m)
    }

    #[test]
    fn accepts_minimal_valid_spec() {
        let (mut b, m) = base();
        let h = b.home_state("H");
        let r = b.remote_state("R");
        b.home(h).recv_any(m).goto(h);
        b.remote(r).send(m).goto(r);
        assert!(b.finish().is_ok());
    }

    #[test]
    fn rejects_terminal_state() {
        let (mut b, m) = base();
        let h = b.home_state("H");
        let _dead = b.home_state("DEAD");
        let r = b.remote_state("R");
        b.home(h).recv_any(m).goto(h);
        b.remote(r).send(m).goto(r);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, CoreError::TerminalState { process: "home", .. }));
    }

    #[test]
    fn rejects_remote_mixing_send_and_recv() {
        let (mut b, m) = base();
        let g = b.msg("g");
        let h = b.home_state("H");
        let r = b.remote_state("R");
        b.home(h).recv_any(m).goto(h);
        b.remote(r).send(m).goto(r);
        b.remote(r).recv(g).goto(r);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, CoreError::RemoteGuardRestriction { .. }));
    }

    #[test]
    fn rejects_remote_two_sends() {
        let (mut b, m) = base();
        let g = b.msg("g");
        let h = b.home_state("H");
        let r = b.remote_state("R");
        b.home(h).recv_any(m).goto(h);
        b.remote(r).send(m).goto(r);
        b.remote(r).send(g).goto(r);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, CoreError::RemoteGuardRestriction { .. }));
    }

    #[test]
    fn allows_remote_passive_with_tau() {
        let (mut b, m) = base();
        let g = b.msg("g");
        let h = b.home_state("H");
        let r = b.remote_state("R");
        let r2 = b.remote_state("R2");
        b.home(h).recv_any(m).goto(h);
        b.remote(r).recv(g).goto(r2);
        b.remote(r).tau().goto(r2);
        b.remote(r2).send(m).goto(r);
        // home never sends g, but that is a liveness concern, not validation.
        assert!(b.finish().is_ok());
    }

    #[test]
    fn rejects_dangling_target() {
        let (mut b, m) = base();
        let h = b.home_state("H");
        let r = b.remote_state("R");
        b.home(h).recv_any(m).goto(StateId(42));
        b.remote(r).send(m).goto(r);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, CoreError::DanglingState { .. }));
    }

    #[test]
    fn rejects_dangling_var() {
        let (mut b, m) = base();
        let h = b.home_state("H");
        let r = b.remote_state("R");
        b.home(h).recv_any(m).bind_sender(VarId(3)).goto(h);
        b.remote(r).send(m).goto(r);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, CoreError::DanglingVar { .. }));
    }

    #[test]
    fn rejects_internal_only_cycle() {
        let (mut b, m) = base();
        let h = b.home_state("H");
        let r = b.remote_state("R");
        let i1 = b.remote_internal("I1");
        let i2 = b.remote_internal("I2");
        b.home(h).recv_any(m).goto(h);
        b.remote(r).send(m).goto(i1);
        b.remote(i1).tau().goto(i2);
        b.remote(i2).tau().goto(i1);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, CoreError::InternalLivelock { process: "remote", .. }));
    }

    #[test]
    fn accepts_internal_cycle_through_comm_state() {
        let (mut b, m) = base();
        let h = b.home_state("H");
        let r = b.remote_state("R");
        let i1 = b.remote_internal("I1");
        b.home(h).recv_any(m).goto(h);
        b.remote(r).send(m).goto(i1);
        b.remote(i1).tau().goto(r);
        assert!(b.finish().is_ok());
    }

    #[test]
    fn rejects_internal_state_with_comm_guard() {
        let (mut b, m) = base();
        let h = b.home_internal("H");
        let r = b.remote_state("R");
        b.home(h).recv_any(m).goto(h);
        b.remote(r).send(m).goto(r);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, CoreError::InternalStateCommunicates { .. }));
    }

    #[test]
    fn rejects_home_tau_in_comm_state() {
        let (mut b, m) = base();
        let h = b.home_state("H");
        let r = b.remote_state("R");
        b.home(h).recv_any(m).goto(h);
        b.home(h).tau().goto(h);
        b.remote(r).send(m).goto(r);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, CoreError::StarViolation { .. }));
    }

    #[test]
    fn rejects_guard_using_same_branch_binding() {
        let (mut b, m) = base();
        let h = b.home_state("H");
        let r = b.remote_state("R");
        let x = b.home_var("x", Value::Int(0));
        b.home(h).when(Expr::eq(Expr::Var(x), Expr::int(0))).recv_any(m).bind(x).goto(h);
        b.remote(r).send(m).goto(r);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, CoreError::DanglingVar { .. }));
    }
}
