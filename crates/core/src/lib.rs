//! # ccr-core — rendezvous protocol IR and the refinement procedure
//!
//! This crate implements the primary contribution of *Nalumasu &
//! Gopalakrishnan, "Deriving Efficient Cache Coherence Protocols through
//! Refinement"* (IPPS 1998): a specification language for directory-based
//! DSM cache-coherence protocols written as **rendezvous protocols** in a
//! CSP-like notation, and a **refinement procedure** that mechanically
//! derives an efficient **asynchronous** message-passing implementation.
//!
//! ## The model
//!
//! A [`ProtocolSpec`] describes two finite-state processes over a *star
//! topology*:
//!
//! * the **home node** — the directory owner of a cache line, which may use
//!   generalized input/output guards, and
//! * a **remote node template** — instantiated once per caching node, which
//!   is restricted to be either *active* (exactly one output to home) or
//!   *passive* (input guards from home, plus autonomous `tau` guards such as
//!   cache evictions) in each communication state.
//!
//! The restrictions (paper §2.4) are enforced by [`validate::validate`].
//!
//! ## The refinement
//!
//! [`refine::refine`] splits every rendezvous into a *request* and an
//! *ack*/*nack*, introduces **transient states** that absorb unexpected
//! messages (paper Tables 1 and 2), and applies the **request/reply
//! optimization** (paper §3.3) which elides acks for syntactically safe
//! `req;repl` pairs. The result is a [`refine::RefinedProtocol`] containing
//! explicit per-role asynchronous automata plus the annotations the
//! executable semantics in `ccr-runtime` interpret.
//!
//! ## Quick example
//!
//! ```
//! use ccr_core::builder::ProtocolBuilder;
//! use ccr_core::value::Value;
//!
//! // A trivial protocol: a remote asks the home for a token and returns it.
//! let mut b = ProtocolBuilder::new("token");
//! let req = b.msg("req");
//! let rel = b.msg("rel");
//! let owner = b.home_var("owner", Value::Node(ccr_core::ids::RemoteId(0)));
//!
//! // Home: Free -> Granted -> Free
//! let free = b.home_state("Free");
//! let granted = b.home_state("Granted");
//! b.home(free).recv_any(req).bind_sender(owner).goto(granted);
//! b.home(granted).recv_exact(rel, ccr_core::expr::Expr::Var(owner)).goto(free);
//!
//! // Remote: Idle -> Holding -> Idle
//! let idle = b.remote_state("Idle");
//! let holding = b.remote_state("Holding");
//! b.remote(idle).send(req).goto(holding);
//! b.remote(holding).send(rel).goto(idle);
//!
//! let spec = b.finish().expect("valid spec");
//! let refined = ccr_core::refine::refine(&spec, &ccr_core::refine::RefineOptions::default())
//!     .expect("refinable");
//! assert_eq!(refined.spec.name, "token");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod builder;
pub mod dot;
pub mod encode;
pub mod error;
pub mod expr;
pub mod hash;
pub mod ids;
pub mod inline;
pub mod process;
pub mod refine;
pub mod text;
pub mod validate;
pub mod value;
pub mod zoo;

pub use error::{CoreError, Result};
pub use process::{Branch, CommAction, Peer, Process, ProtocolSpec, State, StateKind, VarDecl};
