//! End-to-end verification of the write-update protocol extension:
//! reachability, sharer-agreement safety, Equation 1 and progress.

use ccr_mc::progress::check_progress_default;
use ccr_mc::search::{explore, Budget};
use ccr_mc::simrel::check_simulation;
use ccr_protocols::update::{update, update_refined, update_rv_invariant};
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;

#[test]
fn rendezvous_reachability_and_sharer_agreement() {
    let spec = update();
    for n in [1u32, 2, 3] {
        let sys = RendezvousSystem::new(&spec, n);
        let r = explore(&sys, &Budget::default(), update_rv_invariant(&spec), true);
        assert!(r.outcome.is_complete(), "n={n}: {:?}", r.outcome);
        println!("rendezvous update n={n}: {} states", r.states);
    }
}

#[test]
fn async_reachability_and_deadlock_freedom() {
    let refined = update_refined();
    for n in [1u32, 2] {
        let sys = AsyncSystem::new(&refined, n, AsyncConfig::default());
        let r = explore(&sys, &Budget::default(), |_| None, true);
        assert!(r.outcome.is_complete(), "n={n}: {:?}", r.outcome);
        println!("async update n={n}: {} states", r.states);
    }
}

#[test]
fn equation_one_holds_for_update() {
    let refined = update_refined();
    let rv = RendezvousSystem::new(&refined.spec, 2);
    let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
    let r = check_simulation(&asys, &rv, &Budget::default());
    assert!(r.holds(), "{r:?}");
}

#[test]
fn progress_holds_for_update() {
    let refined = update_refined();
    let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
    let r = check_progress_default(&asys, &Budget::default());
    assert!(r.holds(), "{r:?}");
}

#[test]
fn update_runs_on_the_dsm_machine() {
    use ccr_dsm::machine::{Machine, MachineConfig};
    use ccr_dsm::workload::ReadMostly;
    use ccr_runtime::sched::RandomSched;

    let refined = update_refined();
    let mut config = MachineConfig::standard(&refined, 4, 50_000);
    // Ops for the update protocol: read acquisitions and committed writes.
    config.ops.push(refined.spec.msg_by_name("upd").unwrap());
    let machine = Machine::new(&refined, config);
    let mut wl = ReadMostly::new(31, 0.3, 0.7, 0.2);
    let mut sched = RandomSched::new(32);
    let report = machine.run("derived", &mut wl, &mut sched).expect("run");
    assert!(!report.deadlocked);
    assert!(report.ops > 100, "{report:?}");
}
