//! Shared experiment configurations, so the binaries and EXPERIMENTS.md
//! describe the same runs.

use ccr_mc::search::Budget;
use std::time::Duration;

/// The Table 3 memory/time budget, standing in for the paper's 64 MB SPIN
/// limit. A run that exhausts any bound reports `Unfinished`.
pub fn table3_budget() -> Budget {
    Budget { max_states: 1_500_000, max_bytes: 64 << 20, max_time: Some(Duration::from_secs(60)) }
}

/// Remote counts for the migratory rows of Table 3 (the paper's 2/4/8).
pub const MIGRATORY_NS: [u32; 3] = [2, 4, 8];

/// Remote counts for the invalidate rows. The paper used 2/4/6; our
/// reconstruction gives each remote an independent read-vs-write decision,
/// so equal qualitative behaviour (asynchronous blow-up past the budget)
/// occurs at smaller N — we report 2/3/4 and document the shift.
pub const INVALIDATE_NS: [u32; 3] = [2, 3, 4];

/// The §5 scaling experiment: rendezvous migratory up to 64 nodes.
pub const SCALING_NS: [u32; 7] = [2, 4, 8, 16, 24, 32, 64];

/// DSM workload length for message-efficiency runs.
pub const MESSAGE_RUN_STEPS: u64 = 200_000;

/// Buffer sizes for the §6 sweep.
pub const BUFFER_KS: [usize; 4] = [2, 3, 4, 8];
