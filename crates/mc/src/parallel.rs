//! The names `benchmark/src/layers.rs` still calls a threaded exploration
//! by (`benchmark/README.md`, "Entry points into `ccr-*`";
//! `tests/benchmark_api.rs` pins them). There is no parallel engine: a
//! search with [`Search::threads`] set is the one sweep of
//! [`crate::search`] with worker threads generating its successors, and
//! everything here is [`Search::explore`] under another signature. The
//! sharded engine that used to live in this module — its termination
//! protocol, progress mode and persistence format — was deleted when the
//! fed sweep replaced it (`docs/parallel_checking.md`).

use crate::report::SearchReport;
use crate::search::{Budget, Search, SearchObserver};
use ccr_runtime::TransitionSystem;

/// How many workers [`explore_parallel_traced_observed`] runs on.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Worker threads (≥ 1).
    pub threads: usize,
}

impl ParallelConfig {
    /// A config with `threads` workers.
    pub fn threads(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// A no-op: [`explore_parallel_traced_observed`] always tracks trails.
    pub fn with_trails(self) -> Self {
        self
    }
}

/// What [`explore_parallel_traced_observed`] returns: the one report
/// type under the name the benchmark knows it by.
#[doc(hidden)]
pub type ParallelReport = SearchReport;

/// [`Search::explore`] on `cfg.threads` workers with trails on.
#[doc(hidden)]
pub fn explore_parallel_traced_observed<T, F>(
    sys: &T,
    budget: &Budget,
    invariant: F,
    check_deadlock: bool,
    cfg: &ParallelConfig,
    obs: &mut SearchObserver<'_>,
) -> ParallelReport
where
    T: TransitionSystem + Sync,
    T::State: Send,
    F: Fn(&T::State) -> Option<String> + Sync,
{
    Search { check_deadlock, trails: true, threads: cfg.threads, ..Search::default() }.explore(
        sys,
        budget,
        Some(&invariant),
        obs,
    )
}
