//! # ccr-mc — explicit-state model checking for coherence protocols
//!
//! The paper evaluates its refinement by *reachability analysis* with SPIN
//! (§5, Table 3): the rendezvous protocols verify orders of magnitude
//! faster than their asynchronous refinements. This crate is our SPIN
//! substitute: an explicit-state engine over any
//! [`ccr_runtime::TransitionSystem`], providing
//!
//! * [`search::Search`] — the one options value every search starts from
//!   (deadlock check, trails, worker threads, persistence), with
//!   [`search::Search::explore`] — breadth-first reachability with state
//!   and memory budgets (runs that exceed the budget report `Unfinished`,
//!   mirroring the paper's 64 MB limit) — and
//!   [`search::Search::progress`] — livelock detection: from every
//!   reachable state some rendezvous completion must remain reachable
//!   (the §2.5 forward-progress criterion for "at least one remote");
//!   [`search::explore`], [`search::explore_plain`] and
//!   [`progress::check_progress_default`] are the unthreaded, unobserved
//!   conveniences;
//! * [`props`] — invariant checking (coherence safety) and deadlock
//!   detection;
//! * [`simrel::check_simulation`] — the Equation 1 soundness check: every
//!   asynchronous transition maps under the §4 abstraction function to a
//!   stutter or to a rendezvous transition.
//!
//! One sweep ([`search`]'s `drive`) serves all three questions —
//! reachability, Equation 1 and progress are checkers observing it, each
//! on a call of its own or, with [`search::Search::verify`], all on the
//! same one, concrete or symmetry-reduced — at every thread count:
//! `threads > 0` moves successor generation and encoding to worker
//! threads and changes nothing else, so a threaded search reports
//! exactly what the serial one does (`docs/parallel_checking.md`). A
//! serial sweep that no checker needs decoded states for takes the steps
//! it has taken before from a table ([`steps`]) instead of walking them
//! again.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod faultmode;
pub mod fuzz;
pub mod parallel;
pub mod persist;
pub mod progress;
pub mod props;
pub mod report;
pub mod search;
pub mod simrel;
pub mod steps;
pub mod store;
pub mod symmetry;
pub mod trace;

pub use faultmode::{check_fault_closure, FaultClosureReport};
pub use fuzz::{
    fuzz_one, inject_unsound, inplace_divergence, run_shape, run_spec, shrink_failing, FuzzConfig,
    FuzzFailure, Shares, ShrinkResult, SpecVerdict,
};
pub use parallel::ParallelConfig;
pub use persist::{
    CrashSwitch, LockGuard, LogTier, Manifest, ManifestWriter, PersistError, PersistStats, PhaseDir,
};
pub use progress::{check_progress_default, ProgressGraph};
pub use report::{ExploreReport, Outcome, ProgressReport, SearchReport, SimRelReport};
pub use search::{
    explore, explore_dfs, report_from_manifest, Budget, PersistOpts, Search, SearchObserver,
    SerialPersist, SerialPersistOpen, Telemetry,
};
pub use steps::{StepAudit, StepAuditReport};
pub use symmetry::{
    apply_perm, canonical_encode, canonicalize, derived_encode, spec_permutable, DeriveAudit,
    OrbitSample, Reduced, Symmetric,
};
pub use trace::{export_trail, replay_trail, TracedReport};
