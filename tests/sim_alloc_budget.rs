//! Allocation budget of a simulated step.
//!
//! The DSM machine's inner loop is `Simulator::step_observed` under the
//! workload's filter. A step enumerates in the simulator's one scratch
//! state the rule groups the last step may have changed, keeps each
//! group's labels and the accepted ones in vectors it reuses, and fires
//! the chosen transition in place (DESIGN.md, "State layout") — so once
//! the vectors and the counters' tables have reached their size, a step
//! allocates nothing, under any of the schedulers (E4's biased one
//! included). The owned successor list this replaced cost one allocation
//! per enabled transition plus one for the labels: about 8 a step on this
//! configuration. Counts are exact where timings on this host are not;
//! the counting allocator is why this is a binary with one test
//! (`tests/alloc_budget.rs` is the sweep's).

use ccr_core::ids::{ProcessId, RemoteId};
use ccr_core::refine::{refine, RefineOptions};
use ccr_core::text::parse_validated;
use ccr_dsm::workload::{Migrating, Workload};
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::sched::{BiasedSched, RandomSched, RoundRobinSched, Scheduler};
use ccr_runtime::sim::Simulator;
use ccr_runtime::LabelKind;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_UP: u64 = 1_000;
const STEPS: u64 = 10_000;
const BUDGET: f64 = 0.01;

#[test]
fn a_simulated_step_stays_within_the_allocation_budget() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs/migratory.ccp");
    let spec = parse_validated(&std::fs::read_to_string(path).expect("read spec")).expect("parse");
    let refined = refine(&spec, &RefineOptions::default()).expect("refine");
    let sys = AsyncSystem::new(&refined, 8, AsyncConfig::default());
    let schedulers: [(&str, Box<dyn Scheduler>); 3] = [
        ("random", Box::new(RandomSched::new(2008))),
        ("round-robin", Box::new(RoundRobinSched::new(8))),
        ("biased", Box::new(BiasedSched::new(vec![RemoteId(0), RemoteId(1)], 2008))),
    ];
    for (name, mut sched) in schedulers {
        let mut sim = Simulator::new(&sys);
        let mut workload = Migrating::new(1008, 0.7, 0.5);
        // `Machine`'s filter: autonomous CPU decisions are the workload's.
        let mut step = |sim: &mut Simulator<'_, AsyncSystem<'_>>| {
            sim.step_filtered(sched.as_mut(), |label| match (label.kind, &label.tag, label.actor) {
                (LabelKind::Tau, Some(tag), ProcessId::Remote(r)) => workload.enable(r, tag),
                _ => true,
            })
            .expect("step")
        };

        for _ in 0..WARM_UP {
            step(&mut sim);
        }
        let before = allocations();
        let mut fired = 0u64;
        for _ in 0..STEPS {
            fired += u64::from(step(&mut sim).is_some());
        }
        let allocs = allocations() - before;

        assert!(fired > STEPS / 2, "{name}: only {fired} of {STEPS} polls fired a transition");
        let per_step = allocs as f64 / STEPS as f64;
        eprintln!("migratory n=8, {name}: {allocs} allocations / {STEPS} steps = {per_step:.4}");
        assert!(
            per_step <= BUDGET,
            "{name}: {allocs} allocations over {STEPS} steps = {per_step:.3} per step \
             (budget {BUDGET})"
        );
    }
}
