//! # coherence-refinement
//!
//! A Rust reproduction of *Nalumasu & Gopalakrishnan, "Deriving Efficient
//! Cache Coherence Protocols through Refinement"* (IPPS 1998): specify DSM
//! cache-coherence protocols as atomic **rendezvous** interactions over a
//! star topology, verify them cheaply at that level, then mechanically
//! **refine** them into efficient asynchronous request/ack/nack protocols
//! with transient states, bounded home buffering and the request/reply
//! optimization.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`ccr_core`] — the protocol IR, validation and the refinement
//!   procedure (the paper's contribution);
//! * [`ccr_runtime`] — executable rendezvous and asynchronous semantics,
//!   simulators and the §4 abstraction function;
//! * [`ccr_mc`] — the explicit-state model checker (reachability,
//!   invariants, the Equation 1 simulation check, progress checking);
//! * [`ccr_protocols`] — the migratory and invalidate protocols of the
//!   paper, a token protocol, and the hand-written Avalanche baseline;
//! * [`ccr_dsm`] — a DSM machine simulator with workloads and a threaded
//!   deployment-style runner.
//!
//! ## Quickstart
//!
//! ```
//! use coherence_refinement::prelude::*;
//!
//! // The paper's migratory protocol (Figures 2 and 3).
//! let refined = migratory_refined(&MigratoryOptions::Checking);
//!
//! // Refinement found the paper's two request/reply pairs automatically.
//! assert_eq!(refined.pairs.len(), 2);
//!
//! // Model-check both levels for 2 remotes.
//! let rv = RendezvousSystem::new(&refined.spec, 2);
//! let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
//! let r1 = explore_plain(&rv, &Budget::default());
//! let r2 = explore_plain(&asys, &Budget::default());
//! assert!(r1.states < r2.states); // rendezvous is much cheaper to verify
//!
//! // Equation 1: every asynchronous step abstracts to a stutter or a
//! // rendezvous step — the refinement is sound.
//! let sim = check_simulation(&asys, &rv, &Budget::default());
//! assert!(sim.holds());
//!
//! // Every search starts from one options value. The same space with the
//! // deadlock check and counterexample trails on, on two worker threads:
//! let mut sink = ccr_trace::NullSink;
//! let mut obs = SearchObserver::new(&mut sink);
//! let search = Search { check_deadlock: true, trails: true, threads: 2, ..Search::default() };
//! let r3 = search.explore(&asys, &Budget::default(), None, &mut obs);
//! assert_eq!((r3.states, r3.transitions), (r2.states, r2.transitions));
//! assert!(search.progress(&asys, &Budget::default(), |l| l.completes.is_some(), &mut obs).holds());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use ccr_core;
pub use ccr_dsm;
pub use ccr_mc;
pub use ccr_protocols;
pub use ccr_runtime;

/// Commonly used items in one import.
pub mod prelude {
    pub use ccr_core::builder::ProtocolBuilder;
    pub use ccr_core::expr::Expr;
    pub use ccr_core::ids::{MsgType, ProcessId, RemoteId, StateId, VarId};
    pub use ccr_core::process::ProtocolSpec;
    pub use ccr_core::refine::{refine, RefineOptions, RefinedProtocol, ReqRepMode};
    pub use ccr_core::value::Value;
    pub use ccr_dsm::machine::{Machine, MachineConfig};
    pub use ccr_dsm::workload::{HotSpot, Migrating, ProducerConsumer, ReadMostly, Workload};
    pub use ccr_mc::progress::check_progress_default;
    pub use ccr_mc::search::{explore, explore_plain, Budget, Search, SearchObserver, Telemetry};
    pub use ccr_mc::simrel::check_simulation;
    pub use ccr_protocols::hand::migratory_hand;
    pub use ccr_protocols::invalidate::{invalidate, invalidate_refined, InvalidateOptions};
    pub use ccr_protocols::migratory::{migratory, migratory_refined, MigratoryOptions};
    pub use ccr_protocols::token::token;
    pub use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
    pub use ccr_runtime::rendezvous::RendezvousSystem;
    pub use ccr_runtime::sched::{BiasedSched, RandomSched, RoundRobinSched};
    pub use ccr_runtime::sim::Simulator;
}
