//! Fluent construction API for [`ProtocolSpec`]s.
//!
//! The builder mirrors the paper's CSP notation. A branch is written as a
//! chain that picks a guard, an action, bindings/assignments and finally a
//! successor via [`BranchBuilder::goto`], which commits the branch:
//!
//! ```
//! use ccr_core::builder::ProtocolBuilder;
//! use ccr_core::expr::Expr;
//! use ccr_core::value::Value;
//! use ccr_core::ids::RemoteId;
//!
//! let mut b = ProtocolBuilder::new("demo");
//! let ping = b.msg("ping");
//! let o = b.home_var("o", Value::Node(RemoteId(0)));
//! let h0 = b.home_state("H0");
//! b.home(h0).recv_any(ping).bind_sender(o).goto(h0);
//! let r0 = b.remote_state("R0");
//! b.remote(r0).send(ping).goto(r0);
//! let spec = b.finish().unwrap();
//! assert_eq!(spec.home.states.len(), 1);
//! ```

use crate::error::{CoreError, Result};
use crate::expr::Expr;
use crate::ids::{MsgType, StateId, SymbolTable, VarId};
use crate::process::{Branch, CommAction, Peer, Process, ProtocolSpec, State, StateKind, VarDecl};
use crate::value::Value;

/// Which process a [`BranchBuilder`] is adding to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Home,
    Remote,
}

/// Builder for a complete [`ProtocolSpec`].
#[derive(Debug)]
pub struct ProtocolBuilder {
    name: String,
    msgs: SymbolTable,
    home_states: Vec<State>,
    home_vars: Vec<VarDecl>,
    remote_states: Vec<State>,
    remote_vars: Vec<VarDecl>,
    errors: Vec<String>,
}

impl ProtocolBuilder {
    /// Starts a new protocol named `name`.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            msgs: SymbolTable::new(),
            home_states: Vec::new(),
            home_vars: Vec::new(),
            remote_states: Vec::new(),
            remote_vars: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Interns a message type.
    pub fn msg(&mut self, name: &str) -> MsgType {
        MsgType(self.msgs.intern(name))
    }

    /// Declares a home variable with an initial value.
    pub fn home_var(&mut self, name: &str, init: Value) -> VarId {
        self.home_vars.push(VarDecl { name: name.to_owned(), init });
        VarId((self.home_vars.len() - 1) as u32)
    }

    /// Declares a remote-template variable with an initial value.
    pub fn remote_var(&mut self, name: &str, init: Value) -> VarId {
        self.remote_vars.push(VarDecl { name: name.to_owned(), init });
        VarId((self.remote_vars.len() - 1) as u32)
    }

    fn add_state(states: &mut Vec<State>, name: &str, kind: StateKind) -> StateId {
        states.push(State { name: name.to_owned(), kind, branches: Vec::new() });
        StateId((states.len() - 1) as u32)
    }

    /// Adds a home communication state. The first state added is initial.
    pub fn home_state(&mut self, name: &str) -> StateId {
        Self::add_state(&mut self.home_states, name, StateKind::Communication)
    }

    /// Adds a home internal state.
    pub fn home_internal(&mut self, name: &str) -> StateId {
        Self::add_state(&mut self.home_states, name, StateKind::Internal)
    }

    /// Adds a remote communication state. The first state added is initial.
    pub fn remote_state(&mut self, name: &str) -> StateId {
        Self::add_state(&mut self.remote_states, name, StateKind::Communication)
    }

    /// Adds a remote internal state.
    pub fn remote_internal(&mut self, name: &str) -> StateId {
        Self::add_state(&mut self.remote_states, name, StateKind::Internal)
    }

    /// Starts a branch of home state `state`.
    pub fn home(&mut self, state: StateId) -> BranchBuilder<'_> {
        BranchBuilder::new(self, Role::Home, state)
    }

    /// Starts a branch of remote state `state`.
    pub fn remote(&mut self, state: StateId) -> BranchBuilder<'_> {
        BranchBuilder::new(self, Role::Remote, state)
    }

    /// Finishes construction, running full validation (§2.4 restrictions).
    pub fn finish(self) -> Result<ProtocolSpec> {
        let spec = self.finish_unchecked()?;
        crate::validate::validate(&spec)?;
        Ok(spec)
    }

    /// Finishes construction without the §2.4 validation (structural errors
    /// accumulated during building are still reported). Useful in tests that
    /// deliberately build ill-formed specifications.
    pub fn finish_unchecked(self) -> Result<ProtocolSpec> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(CoreError::Builder(e));
        }
        Ok(ProtocolSpec {
            name: self.name,
            home: Process {
                name: "home".into(),
                states: self.home_states,
                vars: self.home_vars,
                initial: StateId(0),
            },
            remote: Process {
                name: "remote".into(),
                states: self.remote_states,
                vars: self.remote_vars,
                initial: StateId(0),
            },
            msgs: self.msgs,
        })
    }
}

/// Builds a single branch; committed by [`BranchBuilder::goto`].
#[derive(Debug)]
pub struct BranchBuilder<'a> {
    owner: &'a mut ProtocolBuilder,
    role: Role,
    state: StateId,
    guard: Option<Expr>,
    action: Option<CommAction>,
    assigns: Vec<(VarId, Expr)>,
    tag: Option<std::sync::Arc<str>>,
}

impl<'a> BranchBuilder<'a> {
    fn new(owner: &'a mut ProtocolBuilder, role: Role, state: StateId) -> Self {
        Self { owner, role, state, guard: None, action: None, assigns: Vec::new(), tag: None }
    }

    fn err(&mut self, msg: String) {
        self.owner.errors.push(msg);
    }

    /// Adds a boolean guard to the branch.
    pub fn when(mut self, guard: Expr) -> Self {
        if self.guard.is_some() {
            self.err("duplicate guard on branch".into());
        }
        self.guard = Some(guard);
        self
    }

    fn set_action(&mut self, a: CommAction) {
        if self.action.is_some() {
            self.err("branch already has an action".into());
        }
        self.action = Some(a);
    }

    /// Remote-side output to home: `h!msg`.
    pub fn send(mut self, msg: MsgType) -> Self {
        if self.role != Role::Remote {
            self.err("send(msg) addresses home; use send_to on the home side".into());
        }
        self.set_action(CommAction::Send { to: Peer::Home, msg, payload: None });
        self
    }

    /// Home-side output to a specific remote: `r(expr)!msg`.
    pub fn send_to(mut self, peer: Expr, msg: MsgType) -> Self {
        if self.role != Role::Home {
            self.err("send_to is home-only; remotes may only address home".into());
        }
        self.set_action(CommAction::Send { to: Peer::Remote(peer), msg, payload: None });
        self
    }

    /// Attaches a payload expression to the pending `Send`.
    pub fn payload(mut self, e: Expr) -> Self {
        match &mut self.action {
            Some(CommAction::Send { payload, .. }) => {
                if payload.is_some() {
                    self.err("duplicate payload".into());
                } else {
                    *payload = Some(e);
                }
            }
            _ => self.err("payload() requires a preceding send".into()),
        }
        self
    }

    /// Remote-side input from home: `h?msg`.
    pub fn recv(mut self, msg: MsgType) -> Self {
        if self.role != Role::Remote {
            self.err("recv(msg) means from-home; use recv_any/recv_exact on the home side".into());
        }
        self.set_action(CommAction::Recv { from: Peer::Home, msg, bind: None });
        self
    }

    /// Home-side generalized input from any remote: `r(*) ? msg`.
    pub fn recv_any(mut self, msg: MsgType) -> Self {
        if self.role != Role::Home {
            self.err("recv_any is home-only".into());
        }
        self.set_action(CommAction::Recv { from: Peer::AnyRemote { bind: None }, msg, bind: None });
        self
    }

    /// Home-side input from a specific remote: `r(expr)?msg`.
    pub fn recv_exact(mut self, msg: MsgType, peer: Expr) -> Self {
        if self.role != Role::Home {
            self.err("recv_exact is home-only".into());
        }
        self.set_action(CommAction::Recv { from: Peer::Remote(peer), msg, bind: None });
        self
    }

    /// Binds the payload of the pending `Recv` to a variable.
    pub fn bind(mut self, v: VarId) -> Self {
        match &mut self.action {
            Some(CommAction::Recv { bind, .. }) => {
                if bind.is_some() {
                    self.err("duplicate payload binding".into());
                } else {
                    *bind = Some(v);
                }
            }
            _ => self.err("bind() requires a preceding recv".into()),
        }
        self
    }

    /// Binds the *sender identity* of a pending `recv_any` to a variable.
    pub fn bind_sender(mut self, v: VarId) -> Self {
        match &mut self.action {
            Some(CommAction::Recv { from: Peer::AnyRemote { bind }, .. }) => {
                if bind.is_some() {
                    self.err("duplicate sender binding".into());
                } else {
                    *bind = Some(v);
                }
            }
            _ => self.err("bind_sender() requires a preceding recv_any".into()),
        }
        self
    }

    /// An autonomous `tau` step.
    pub fn tau(mut self) -> Self {
        self.set_action(CommAction::Tau);
        self
    }

    /// Appends an assignment executed when the branch fires.
    pub fn assign(mut self, v: VarId, e: Expr) -> Self {
        self.assigns.push((v, e));
        self
    }

    /// Names the branch (e.g. `"evict"`); carried into transition labels
    /// so simulators can recognize autonomous decisions.
    pub fn tag(mut self, t: &str) -> Self {
        if self.tag.is_some() {
            self.err("duplicate tag on branch".into());
        }
        self.tag = Some(t.into());
        self
    }

    /// Commits the branch with successor `target`.
    pub fn goto(mut self, target: StateId) {
        let action = match self.action.take() {
            Some(a) => a,
            None => {
                self.err("goto() before any action; use tau() for autonomous steps".into());
                return;
            }
        };
        let branch = Branch {
            guard: self.guard.take(),
            action,
            assigns: std::mem::take(&mut self.assigns),
            target,
            tag: self.tag.take(),
        };
        let states = match self.role {
            Role::Home => &mut self.owner.home_states,
            Role::Remote => &mut self.owner.remote_states,
        };
        match states.get_mut(self.state.index()) {
            Some(s) => s.branches.push(branch),
            None => self.owner.errors.push(format!("branch added to missing state {}", self.state)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RemoteId;

    #[test]
    fn builds_a_minimal_protocol() {
        let mut b = ProtocolBuilder::new("mini");
        let m = b.msg("m");
        let h = b.home_state("H");
        let r = b.remote_state("R");
        b.home(h).recv_any(m).goto(h);
        b.remote(r).send(m).goto(r);
        let spec = b.finish().unwrap();
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.msg_by_name("m"), Some(m));
        assert_eq!(spec.branch_count(), 2);
    }

    #[test]
    fn misuse_is_reported_at_finish() {
        let mut b = ProtocolBuilder::new("bad");
        let m = b.msg("m");
        let h = b.home_state("H");
        // recv on the home side is remote-only sugar -> builder error.
        b.home(h).recv(m).goto(h);
        assert!(matches!(b.finish_unchecked(), Err(CoreError::Builder(_))));
    }

    #[test]
    fn goto_without_action_is_an_error() {
        let mut b = ProtocolBuilder::new("bad2");
        let h = b.home_state("H");
        b.home(h).goto(h);
        assert!(b.finish_unchecked().is_err());
    }

    #[test]
    fn payload_requires_send_and_bind_requires_recv() {
        let mut b = ProtocolBuilder::new("bad3");
        let m = b.msg("m");
        let x = b.home_var("x", Value::Int(0));
        let h = b.home_state("H");
        b.home(h).recv_any(m).payload(Expr::int(1)).goto(h);
        assert!(b.finish_unchecked().is_err());

        let mut b2 = ProtocolBuilder::new("bad4");
        let m2 = b2.msg("m");
        let _ = x;
        let h2 = b2.home_state("H");
        let y = b2.home_var("y", Value::Int(0));
        b2.home(h2).send_to(Expr::node(RemoteId(0)), m2).bind(y).goto(h2);
        assert!(b2.finish_unchecked().is_err());
    }

    #[test]
    fn duplicate_guard_is_an_error() {
        let mut b = ProtocolBuilder::new("bad5");
        let m = b.msg("m");
        let h = b.home_state("H");
        b.home(h).when(Expr::bool(true)).when(Expr::bool(false)).recv_any(m).goto(h);
        assert!(b.finish_unchecked().is_err());
    }

    #[test]
    fn assigns_are_recorded_in_order() {
        let mut b = ProtocolBuilder::new("asg");
        let m = b.msg("m");
        let h = b.home_state("H");
        let x = b.home_var("x", Value::Int(0));
        b.home(h).recv_any(m).assign(x, Expr::int(1)).assign(x, Expr::int(2)).goto(h);
        let spec = b.finish_unchecked().unwrap();
        let br = &spec.home.states[0].branches[0];
        assert_eq!(br.assigns.len(), 2);
        assert_eq!(br.assigns[1].1, Expr::int(2));
    }
}
