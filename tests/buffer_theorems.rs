//! The §6 buffer-sizing claims as executable theorems.
//!
//! * `k = 2` suffices for system-wide progress (weak fairness) — checked
//!   exhaustively via the livelock analysis;
//! * a buffer of `n + 2` (one slot per remote, plus the progress and ack
//!   slots) makes nacks impossible, because each remote has at most one
//!   outstanding request — checked exhaustively by asserting no reachable
//!   transition emits a nack;
//! * below that size, nacks occur.

use ccr_core::refine::{refine, RefineOptions};
use ccr_mc::progress::check_progress_default;
use ccr_mc::search::Budget;
use ccr_protocols::migratory::{migratory_refined, MigratoryOptions};
use ccr_protocols::token::token;
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::{Label, TransitionSystem};

/// Explores the full reachable space and reports whether any transition
/// emits a nack.
fn any_nack_reachable(sys: &AsyncSystem<'_>) -> bool {
    use std::collections::VecDeque;
    let mut seen = std::collections::HashSet::new();
    let mut frontier = VecDeque::new();
    let init = sys.initial();
    seen.insert(sys.encoded(&init));
    frontier.push_back(init);
    let mut succs: Vec<(Label, _)> = Vec::new();
    while let Some(s) = frontier.pop_front() {
        sys.successors(&s, &mut succs).unwrap();
        for (label, next) in succs.drain(..) {
            if label.emissions().any(|m| m.is_nack) {
                return true;
            }
            let enc = sys.encoded(&next);
            if seen.insert(enc) {
                frontier.push_back(next);
            }
        }
    }
    false
}

#[test]
fn minimal_buffer_preserves_progress_for_all_protocols() {
    let tok = refine(&token(), &RefineOptions::default()).unwrap();
    let mig = migratory_refined(&MigratoryOptions::Checking);
    for (name, refined) in [("token", &tok), ("migratory", &mig)] {
        for n in [2u32, 3] {
            let sys = AsyncSystem::new(refined, n, AsyncConfig::default());
            let r = check_progress_default(&sys, &Budget::default());
            assert!(r.holds(), "{name} n={n}: {r:?}");
        }
    }
}

#[test]
fn n_plus_two_buffer_eliminates_nacks() {
    let refined = migratory_refined(&MigratoryOptions::Checking);
    for n in [2u32, 3] {
        let sys = AsyncSystem::new(&refined, n, AsyncConfig::with_home_buffer(n as usize + 2));
        assert!(!any_nack_reachable(&sys), "n={n}: no nack should be reachable with k = n + 2");
    }
}

#[test]
fn small_buffer_does_produce_nacks() {
    // Sanity for the previous theorem: with k = 2 and three contenders,
    // nacks are reachable.
    let refined = migratory_refined(&MigratoryOptions::Checking);
    let sys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
    assert!(any_nack_reachable(&sys));
}

#[test]
fn progress_holds_across_buffer_sizes() {
    let refined = migratory_refined(&MigratoryOptions::Checking);
    for k in [2usize, 3, 4, 6] {
        let sys = AsyncSystem::new(&refined, 2, AsyncConfig::with_home_buffer(k));
        let r = check_progress_default(&sys, &Budget::default());
        assert!(r.holds(), "k={k}: {r:?}");
    }
}
