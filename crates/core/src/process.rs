//! The rendezvous protocol IR: processes, states, branches and actions.
//!
//! A protocol consists of a **home** process and a **remote** process
//! template (instantiated once per remote node). Each process is a finite
//! automaton whose states are either *communication* states (offering
//! rendezvous guards, paper Figure 1) or *internal* states (only autonomous
//! `tau` steps). Branches pair a guard with an action, optional variable
//! assignments, and a successor state.

use crate::expr::Expr;
use crate::ids::{MsgType, StateId, SymbolTable, VarId};
use crate::value::Value;
use std::sync::Arc;

/// Designates the peer of a communication action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Peer {
    /// The home node. The only legal peer for remote-side actions.
    Home,
    /// A specific remote, named by a node-valued expression — e.g. `r(o)`
    /// where `o` is the home's owner variable. Only legal in the home.
    Remote(Expr),
    /// Any remote (generalized input guard `r(*) ? msg`), optionally binding
    /// the sender's identity to a home variable. Only legal in home inputs.
    AnyRemote {
        /// Variable receiving the sender's identity.
        bind: Option<VarId>,
    },
}

impl Peer {
    /// True if this is the `AnyRemote` pattern.
    pub fn is_any(&self) -> bool {
        matches!(self, Peer::AnyRemote { .. })
    }
}

/// A communication (or autonomous) action labelling a branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommAction {
    /// Output `peer!msg(payload)` — the process is the *active* party of
    /// this rendezvous.
    Send {
        /// The peer addressed.
        to: Peer,
        /// Message type.
        msg: MsgType,
        /// Optional payload expression, evaluated in the sender.
        payload: Option<Expr>,
    },
    /// Input `peer?msg(bind)` — the process is the *passive* party.
    Recv {
        /// The peer pattern accepted.
        from: Peer,
        /// Message type.
        msg: MsgType,
        /// Variable receiving the payload, if the message carries one.
        bind: Option<VarId>,
    },
    /// An autonomous step (`tau`): no communication. Models local decisions
    /// such as cache evictions or CPU reads/writes.
    Tau,
}

impl CommAction {
    /// Message type of a send/recv action.
    pub fn msg(&self) -> Option<MsgType> {
        match self {
            CommAction::Send { msg, .. } | CommAction::Recv { msg, .. } => Some(*msg),
            CommAction::Tau => None,
        }
    }

    /// True for `Send`.
    pub fn is_send(&self) -> bool {
        matches!(self, CommAction::Send { .. })
    }

    /// True for `Recv`.
    pub fn is_recv(&self) -> bool {
        matches!(self, CommAction::Recv { .. })
    }

    /// True for `Tau`.
    pub fn is_tau(&self) -> bool {
        matches!(self, CommAction::Tau)
    }
}

/// One guard alternative of a state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Branch {
    /// Optional boolean guard over local variables; `None` means `true`.
    /// Guards may not reference payload bindings of the same branch.
    pub guard: Option<Expr>,
    /// The action.
    pub action: CommAction,
    /// Assignments applied after the action completes (and after payload /
    /// sender binding), in order.
    pub assigns: Vec<(VarId, Expr)>,
    /// Successor state.
    pub target: StateId,
    /// Optional label for the branch (e.g. `"evict"`, `"rw"` on autonomous
    /// guards). Carried through to transition labels so simulators and
    /// workload harnesses can recognize and selectively enable autonomous
    /// decisions. Semantically inert. Shared, not owned: every transition
    /// label fired from this branch holds the same allocation.
    pub tag: Option<Arc<str>>,
}

/// Classification of a state (paper §2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateKind {
    /// Offers rendezvous guards (may also offer `tau` alternatives in the
    /// remote, modelling autonomous decisions).
    Communication,
    /// Only `tau` branches; the process cannot rendezvous here but will
    /// eventually reach a communication state.
    Internal,
}

/// A control state of a process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    /// Human-readable name (e.g. `"F"`, `"E"`, `"V"`).
    pub name: String,
    /// Communication or internal.
    pub kind: StateKind,
    /// Guard alternatives. Order is semantically irrelevant for rendezvous
    /// semantics but determines the home's output-guard retry cycling order
    /// in the refined protocol (paper Table 2 row T2).
    pub branches: Vec<Branch>,
}

impl State {
    /// Iterates over `Send` branches with their indices.
    pub fn sends(&self) -> impl Iterator<Item = (u32, &Branch)> {
        self.branches
            .iter()
            .enumerate()
            .filter(|(_, b)| b.action.is_send())
            .map(|(i, b)| (i as u32, b))
    }

    /// Iterates over `Recv` branches with their indices.
    pub fn recvs(&self) -> impl Iterator<Item = (u32, &Branch)> {
        self.branches
            .iter()
            .enumerate()
            .filter(|(_, b)| b.action.is_recv())
            .map(|(i, b)| (i as u32, b))
    }

    /// Iterates over `Tau` branches with their indices.
    pub fn taus(&self) -> impl Iterator<Item = (u32, &Branch)> {
        self.branches
            .iter()
            .enumerate()
            .filter(|(_, b)| b.action.is_tau())
            .map(|(i, b)| (i as u32, b))
    }

    /// True if the state has at least one `Send` branch.
    pub fn has_send(&self) -> bool {
        self.branches.iter().any(|b| b.action.is_send())
    }

    /// True if the state has at least one `Recv` branch.
    pub fn has_recv(&self) -> bool {
        self.branches.iter().any(|b| b.action.is_recv())
    }
}

/// A variable declaration with its initial value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarDecl {
    /// Human-readable name (e.g. `"o"`, `"data"`).
    pub name: String,
    /// Initial value at system start.
    pub init: Value,
}

/// A finite-state process: the home node or the remote template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Process {
    /// Human-readable name.
    pub name: String,
    /// All control states; `StateId` indexes into this vector.
    pub states: Vec<State>,
    /// Local variable declarations; `VarId` indexes into this vector.
    pub vars: Vec<VarDecl>,
    /// Initial control state.
    pub initial: StateId,
}

impl Process {
    /// Looks up a state.
    pub fn state(&self, id: StateId) -> Option<&State> {
        self.states.get(id.index())
    }

    /// Initial environment from the variable declarations.
    pub fn initial_env(&self) -> crate::value::Env {
        self.vars.iter().map(|v| v.init).collect()
    }

    /// Finds a state id by name.
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.states.iter().position(|s| s.name == name).map(|i| StateId(i as u32))
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True if the process has no states.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// A complete rendezvous protocol specification over the star topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolSpec {
    /// Protocol name (e.g. `"migratory"`).
    pub name: String,
    /// The home (directory) process.
    pub home: Process,
    /// The remote template, instantiated once per remote node.
    pub remote: Process,
    /// Message-type names for diagnostics and DOT output.
    pub msgs: SymbolTable,
}

impl ProtocolSpec {
    /// The printable name of a message type.
    pub fn msg_name(&self, m: MsgType) -> &str {
        self.msgs.name(m.0).unwrap_or("?")
    }

    /// Looks up a message type by name.
    pub fn msg_by_name(&self, name: &str) -> Option<MsgType> {
        self.msgs.lookup(name).map(MsgType)
    }

    /// Total number of branches across both processes — a rough size metric
    /// used in reports.
    pub fn branch_count(&self) -> usize {
        self.home.states.iter().map(|s| s.branches.len()).sum::<usize>()
            + self.remote.states.iter().map(|s| s.branches.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RemoteId;

    fn mini_state() -> State {
        State {
            name: "S".into(),
            kind: StateKind::Communication,
            branches: vec![
                Branch {
                    guard: None,
                    action: CommAction::Send { to: Peer::Home, msg: MsgType(0), payload: None },
                    assigns: vec![],
                    target: StateId(0),
                    tag: None,
                },
                Branch {
                    guard: None,
                    action: CommAction::Recv { from: Peer::Home, msg: MsgType(1), bind: None },
                    assigns: vec![],
                    target: StateId(0),
                    tag: None,
                },
                Branch {
                    guard: None,
                    action: CommAction::Tau,
                    assigns: vec![],
                    target: StateId(0),
                    tag: None,
                },
            ],
        }
    }

    #[test]
    fn state_iterators_partition_branches() {
        let s = mini_state();
        assert_eq!(s.sends().count(), 1);
        assert_eq!(s.recvs().count(), 1);
        assert_eq!(s.taus().count(), 1);
        assert!(s.has_send());
        assert!(s.has_recv());
    }

    #[test]
    fn action_classification() {
        let send = CommAction::Send { to: Peer::Home, msg: MsgType(2), payload: None };
        assert!(send.is_send());
        assert_eq!(send.msg(), Some(MsgType(2)));
        assert!(CommAction::Tau.is_tau());
        assert_eq!(CommAction::Tau.msg(), None);
    }

    #[test]
    fn peer_is_any() {
        assert!(Peer::AnyRemote { bind: None }.is_any());
        assert!(!Peer::Home.is_any());
        assert!(!Peer::Remote(Expr::node(RemoteId(0))).is_any());
    }

    #[test]
    fn process_lookup_and_env() {
        let p = Process {
            name: "home".into(),
            states: vec![mini_state()],
            vars: vec![VarDecl { name: "x".into(), init: Value::Int(3) }],
            initial: StateId(0),
        };
        assert_eq!(p.state_by_name("S"), Some(StateId(0)));
        assert_eq!(p.state_by_name("nope"), None);
        assert_eq!(p.initial_env().get(0), Some(Value::Int(3)));
        assert!(p.state(StateId(0)).is_some());
        assert!(p.state(StateId(9)).is_none());
        assert_eq!(p.len(), 1);
    }
}
