//! Error types for specification construction, validation and refinement.

use crate::ids::{MsgType, StateId, VarId};
use crate::value::Value;
use std::fmt;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Errors raised while building, validating, evaluating or refining a
/// protocol specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// An expression referenced an undeclared variable.
    UnknownVar {
        /// The offending variable.
        var: VarId,
    },
    /// `Expr::SelfId` was evaluated in the home process.
    SelfIdInHome,
    /// A value had the wrong kind for the operation.
    TypeMismatch {
        /// Human description of the expected kind.
        expected: &'static str,
        /// The value actually produced.
        got: Value,
    },
    /// Integer remainder by zero.
    DivideByZero,
    /// A branch referenced a state id outside the process.
    DanglingState {
        /// Which process ("home" or "remote").
        process: &'static str,
        /// The missing state.
        state: StateId,
    },
    /// A branch referenced an undeclared variable.
    DanglingVar {
        /// Which process.
        process: &'static str,
        /// The state containing the reference.
        state: StateId,
        /// The missing variable.
        var: VarId,
    },
    /// A remote action addressed a peer other than the home node, or the
    /// home addressed itself — the star topology was violated.
    StarViolation {
        /// Which process.
        process: &'static str,
        /// The offending state.
        state: StateId,
        /// Description of the violation.
        detail: &'static str,
    },
    /// A remote communication state mixes an output with other guards, or
    /// has more than one output (§2.4 restriction).
    RemoteGuardRestriction {
        /// The offending state.
        state: StateId,
        /// Description of the violation.
        detail: &'static str,
    },
    /// An internal state carries a communication guard.
    InternalStateCommunicates {
        /// Which process.
        process: &'static str,
        /// The offending state.
        state: StateId,
    },
    /// A cycle of internal states exists with no communication state on it,
    /// violating the eventual-communication assumption (§2.4).
    InternalLivelock {
        /// Which process.
        process: &'static str,
        /// A state on the cycle.
        state: StateId,
    },
    /// A state has no branches at all (terminal states are not part of the
    /// paper's model — protocols run forever).
    TerminalState {
        /// Which process.
        process: &'static str,
        /// The offending state.
        state: StateId,
    },
    /// The protocol has no states in one of the processes.
    EmptyProcess {
        /// Which process.
        process: &'static str,
    },
    /// A request/reply optimization pair failed its syntactic safety check.
    ReqRepUnsafe {
        /// The request message of the rejected pair.
        req: MsgType,
        /// The reply message of the rejected pair.
        repl: MsgType,
        /// Why the pair was rejected.
        reason: String,
    },
    /// The spec is larger than a field of the model checker's state
    /// encoding can count (see [`crate::validate`]'s `MAX_*` constants):
    /// accepting it would store two different states under one key.
    TooLarge {
        /// What there are too many of (e.g. `"message types"`).
        what: &'static str,
        /// How many the spec has.
        count: usize,
        /// How many the encoding can tell apart.
        max: usize,
    },
    /// A builder method was used inconsistently (e.g. `goto` before any
    /// action was chosen).
    Builder(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownVar { var } => write!(f, "unknown variable {var}"),
            CoreError::SelfIdInHome => write!(f, "`self` evaluated in home process"),
            CoreError::TypeMismatch { expected, got } => {
                write!(f, "type mismatch: expected {expected}, got {got}")
            }
            CoreError::DivideByZero => write!(f, "remainder by zero"),
            CoreError::DanglingState { process, state } => {
                write!(f, "{process}: branch targets missing state {state}")
            }
            CoreError::DanglingVar { process, state, var } => {
                write!(f, "{process}: state {state} references undeclared variable {var}")
            }
            CoreError::StarViolation { process, state, detail } => {
                write!(f, "{process}: state {state} violates star topology: {detail}")
            }
            CoreError::RemoteGuardRestriction { state, detail } => {
                write!(f, "remote: state {state} violates guard restriction: {detail}")
            }
            CoreError::InternalStateCommunicates { process, state } => {
                write!(f, "{process}: internal state {state} has a communication guard")
            }
            CoreError::InternalLivelock { process, state } => {
                write!(
                    f,
                    "{process}: internal states around {state} form a cycle that never communicates"
                )
            }
            CoreError::TerminalState { process, state } => {
                write!(f, "{process}: state {state} has no outgoing branches")
            }
            CoreError::EmptyProcess { process } => write!(f, "{process}: no states"),
            CoreError::ReqRepUnsafe { req, repl, reason } => {
                write!(f, "request/reply pair ({req}, {repl}) is unsafe: {reason}")
            }
            CoreError::TooLarge { what, count, max } => {
                write!(f, "{count} {what}, but the state encoding distinguishes at most {max}")
            }
            CoreError::Builder(msg) => write!(f, "builder misuse: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let samples: Vec<CoreError> = vec![
            CoreError::UnknownVar { var: VarId(1) },
            CoreError::SelfIdInHome,
            CoreError::TypeMismatch { expected: "int", got: Value::Unit },
            CoreError::DivideByZero,
            CoreError::DanglingState { process: "home", state: StateId(9) },
            CoreError::StarViolation { process: "remote", state: StateId(0), detail: "x" },
            CoreError::RemoteGuardRestriction { state: StateId(0), detail: "y" },
            CoreError::InternalStateCommunicates { process: "home", state: StateId(1) },
            CoreError::InternalLivelock { process: "home", state: StateId(1) },
            CoreError::TerminalState { process: "remote", state: StateId(2) },
            CoreError::EmptyProcess { process: "home" },
            CoreError::ReqRepUnsafe { req: MsgType(0), repl: MsgType(1), reason: "z".into() },
            CoreError::TooLarge { what: "message types", count: 300, max: 256 },
            CoreError::Builder("oops".into()),
        ];
        for e in samples {
            assert!(!e.to_string().is_empty());
        }
    }
}
