//! The hand-designed asynchronous migratory baseline.
//!
//! The paper notes (§5) that the Avalanche team's hand-built asynchronous
//! migratory protocol differs from the derived one in exactly one way: "in
//! their protocol the dotted lines are actions, i.e., no ack is exchanged
//! after an LR message". We reconstruct that baseline by taking the derived
//! protocol and making `LR` *unacknowledged*: the evicting owner sends `LR`
//! and proceeds to Invalid at once, and the home must always sink the
//! message.
//!
//! Two executor accommodations are required (and are themselves part of
//! what the hand design has to get right, which is the paper's argument):
//!
//! * the home can never nack an `LR`, so it gets an elastic buffer
//!   allowance for unacked messages ([`hand_async_config`] sizes it at one
//!   slot per remote — each remote has at most one `LR` outstanding);
//! * a stale `inv` can now reach a remote that already gave the line up
//!   (the `LR` crossed it on the wire), so remotes must silently drop
//!   unmatched home requests (`drop_unmatched`) instead of nacking.
//!
//! Because the evicting remote commits unilaterally, this baseline does
//! *not* satisfy the per-step Equation 1 against the rendezvous spec with
//! the standard abstraction function — which is precisely why the paper
//! has to verify hand designs at the expensive asynchronous level
//! (Table 3), while derived protocols are verified once at the rendezvous
//! level.

use crate::migratory::{migratory_refined, MigratoryOptions};
use ccr_core::refine::RefinedProtocol;
use ccr_runtime::asynch::AsyncConfig;

/// Builds the hand-designed asynchronous migratory baseline.
pub fn migratory_hand(opts: &MigratoryOptions) -> RefinedProtocol {
    let mut refined = migratory_refined(opts);
    let lr = refined.spec.msg_by_name("LR").expect("migratory has LR");
    refined.make_unacked(lr).expect("LR is a remote-sent plain rendezvous");
    refined
}

/// The executor configuration the hand baseline needs: one elastic buffer
/// slot per remote for in-flight `LR`s, and silent dropping of stale home
/// requests.
pub fn hand_async_config(n: u32) -> AsyncConfig {
    AsyncConfig { unacked_allowance: n as usize, drop_unmatched: true, ..AsyncConfig::default() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lr_becomes_free_in_the_hand_baseline() {
        let hand = migratory_hand(&MigratoryOptions::default());
        let lr = hand.spec.msg_by_name("LR").unwrap();
        assert_eq!(hand.message_cost(lr), 1, "unacked LR costs a single message");
        assert!(hand.unacked.contains(&lr));
        assert!(hand.home_noack.contains(&lr));
        // The remote's LR send branch is now fire-and-forget.
        let lrs = hand.spec.remote.state_by_name("LRS").unwrap();
        assert!(hand.remote_fire_forget.contains(&(lrs, 0)));
    }

    #[test]
    fn config_scales_allowance_with_n() {
        let c = hand_async_config(8);
        assert_eq!(c.unacked_allowance, 8);
        assert!(c.drop_unmatched);
        assert_eq!(c.home_buffer, 2);
    }

    #[test]
    fn make_unacked_rejects_optimized_messages() {
        let mut refined = crate::migratory::migratory_refined(&MigratoryOptions::default());
        let req = refined.spec.msg_by_name("req").unwrap();
        assert!(refined.make_unacked(req).is_err(), "req is in a req/repl pair");
        let gr = refined.spec.msg_by_name("gr").unwrap();
        assert!(refined.make_unacked(gr).is_err(), "gr is home-sent");
    }
}
