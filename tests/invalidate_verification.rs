//! End-to-end verification of the invalidate protocol (the second Table 3
//! subject): reachability, coherence safety, Equation 1 and progress.

use ccr_mc::progress::check_progress_default;
use ccr_mc::search::{explore, explore_plain, Budget};
use ccr_mc::simrel::check_simulation;
use ccr_protocols::invalidate::{invalidate, invalidate_refined, InvalidateOptions};
use ccr_protocols::props;
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;

#[test]
fn rendezvous_reachability_and_safety() {
    let spec = invalidate(&InvalidateOptions::default());
    for n in [1u32, 2, 3] {
        let sys = RendezvousSystem::new(&spec, n);
        let r = explore(&sys, &Budget::default(), props::invalidate_rv_invariant(&spec), true);
        assert!(r.outcome.is_complete(), "n={n}: {:?}", r.outcome);
        println!("rendezvous invalidate n={n}: {} states", r.states);
    }
}

#[test]
fn rendezvous_safety_with_data_tracking() {
    let spec = invalidate(&InvalidateOptions::Data2);
    let sys = RendezvousSystem::new(&spec, 2);
    let r = explore(&sys, &Budget::default(), props::invalidate_rv_invariant(&spec), true);
    assert!(r.outcome.is_complete(), "{:?}", r.outcome);
    println!("rendezvous invalidate n=2 with data: {} states", r.states);
}

#[test]
fn async_reachability_and_safety() {
    let refined = invalidate_refined(&InvalidateOptions::default());
    for n in [1u32, 2] {
        let sys = AsyncSystem::new(&refined, n, AsyncConfig::default());
        let r = explore(
            &sys,
            &Budget::default(),
            props::invalidate_async_invariant(&refined.spec),
            true,
        );
        assert!(r.outcome.is_complete(), "n={n}: {:?}", r.outcome);
        println!("async invalidate n={n}: {} states", r.states);
    }
}

#[test]
fn equation_one_holds_for_invalidate() {
    let refined = invalidate_refined(&InvalidateOptions::default());
    let rv = RendezvousSystem::new(&refined.spec, 2);
    let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
    let r = check_simulation(&asys, &rv, &Budget::default());
    assert!(r.holds(), "{r:?}");
}

#[test]
fn progress_holds_for_invalidate_async() {
    let refined = invalidate_refined(&InvalidateOptions::default());
    let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
    let r = check_progress_default(&asys, &Budget::default());
    assert!(r.holds(), "{r:?}");
}

#[test]
fn invalidate_dwarfs_migratory_at_the_rendezvous_level() {
    // Table 3: invalidate's sharer set makes its state space much larger
    // than migratory's at equal N (546 vs 54 at N=2 in the paper).
    use ccr_protocols::migratory::{migratory, MigratoryOptions};
    let mig = migratory(&MigratoryOptions::default());
    let inv = invalidate(&InvalidateOptions::default());
    let m = explore_plain(&RendezvousSystem::new(&mig, 3), &Budget::default());
    let i = explore_plain(&RendezvousSystem::new(&inv, 3), &Budget::default());
    println!("n=3: migratory={} invalidate={}", m.states, i.states);
    assert!(i.states > 3 * m.states, "migratory={} invalidate={}", m.states, i.states);
}
