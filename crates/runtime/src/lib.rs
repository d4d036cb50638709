//! # ccr-runtime — executable semantics for rendezvous and refined protocols
//!
//! This crate gives operational meaning to the two levels of the paper:
//!
//! * [`rendezvous::RendezvousSystem`] — the *atomic-transaction* view: a
//!   rendezvous is a single global step synchronizing the home node with one
//!   remote.
//! * [`asynch::AsyncSystem`] — the *asynchronous* view produced by
//!   refinement: requests, acks and nacks travel over reliable in-order
//!   point-to-point links; the home owns a bounded buffer with the reserved
//!   **progress** and **ack** slots of paper §3.2; transient states absorb
//!   unexpected messages; nacked requests are retransmitted.
//!
//! Both implement the [`system::TransitionSystem`] trait consumed by the
//! `ccr-mc` model checker and by the simulators in this crate:
//!
//! * [`sim::Simulator`] — long-run random/round-robin simulation with
//!   message accounting, used by the DSM workload harness;
//! * [`abstraction::abs`] — the paper's §4 abstraction function mapping an
//!   asynchronous configuration to the rendezvous configuration it
//!   implements, the basis of the Equation 1 soundness check.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod abstraction;
pub mod asynch;
pub mod error;
pub mod faults;
pub mod observe;
pub mod rendezvous;
pub mod sched;
pub mod sim;
pub mod stats;
pub mod system;
pub mod wire;

pub use error::{Result, RuntimeError};
pub use faults::{FaultClosure, FaultHarness, FaultState};
pub use observe::emit_label_events;
pub use system::{next_parent_id, Label, LabelKind, Origin, SentMsg, TransitionSystem, Written};
