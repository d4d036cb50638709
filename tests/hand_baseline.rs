//! Verification of the hand-designed Avalanche baseline (§5): the protocol
//! the paper compares the derived one against. Because the hand design
//! commits evictions unilaterally (no `LR` ack), it cannot be justified by
//! the per-step Equation 1 against the rendezvous spec — it has to be
//! verified directly at the expensive asynchronous level, which is
//! precisely the methodological point of Table 3.

use ccr_mc::progress::check_progress_default;
use ccr_mc::search::{explore, explore_plain, Budget};
use ccr_protocols::hand::{hand_async_config, migratory_hand};
use ccr_protocols::migratory::{migratory_refined, MigratoryOptions};
use ccr_protocols::props;
use ccr_runtime::asynch::AsyncSystem;

fn opts() -> MigratoryOptions {
    MigratoryOptions::Checking
}

#[test]
fn hand_baseline_is_safe() {
    let hand = migratory_hand(&opts());
    for n in [1u32, 2, 3] {
        let sys = AsyncSystem::new(&hand, n, hand_async_config(n));
        let r =
            explore(&sys, &Budget::default(), props::migratory_async_invariant(&hand.spec), true);
        assert!(r.outcome.is_complete(), "n={n}: {:?}", r.outcome);
    }
}

#[test]
fn hand_baseline_keeps_progress() {
    let hand = migratory_hand(&opts());
    let sys = AsyncSystem::new(&hand, 2, hand_async_config(2));
    let r = check_progress_default(&sys, &Budget::default());
    assert!(r.holds(), "{r:?}");
}

#[test]
fn hand_baseline_state_space_is_comparable_to_derived() {
    // The paper's argument: verifying the hand design costs as much as
    // verifying any asynchronous protocol. Both async state spaces dwarf
    // the rendezvous one.
    let derived = migratory_refined(&opts());
    let hand = migratory_hand(&opts());
    let d = explore_plain(&AsyncSystem::new(&derived, 2, Default::default()), &Budget::default());
    let h = explore_plain(&AsyncSystem::new(&hand, 2, hand_async_config(2)), &Budget::default());
    assert!(d.outcome.is_complete() && h.outcome.is_complete());
    // Same order of magnitude.
    assert!(h.states * 10 > d.states && d.states * 10 > h.states, "d={} h={}", d.states, h.states);
}

#[test]
fn hand_baseline_saves_the_lr_ack() {
    let derived = migratory_refined(&opts());
    let hand = migratory_hand(&opts());
    let lr = derived.spec.msg_by_name("LR").unwrap();
    assert_eq!(derived.message_cost(lr), 2);
    assert_eq!(hand.message_cost(lr), 1);
    assert_eq!(derived.total_static_cost() - hand.total_static_cost(), 1);
}
