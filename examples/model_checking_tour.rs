//! A tour of the verification toolkit: reachability with budgets,
//! coherence invariants, deadlock detection, the Equation 1 simulation
//! check, and livelock (progress) analysis — the paper's whole §4 and §5
//! methodology on both bundled protocols.
//!
//! Run: `cargo run --release --example model_checking_tour`

use ccr_protocols::props;
use coherence_refinement::prelude::*;

fn main() {
    println!("== 1. Reachability under a memory budget (the Table 3 setup) ==");
    let opts = MigratoryOptions::Data2;
    let refined = migratory_refined(&opts);
    for n in [2u32, 3, 4] {
        let rv = RendezvousSystem::new(&refined.spec, n);
        let asys = AsyncSystem::new(&refined, n, AsyncConfig::default());
        let budget = Budget { max_bytes: 16 << 20, ..Budget::default() };
        let r = explore_plain(&rv, &budget);
        let a = explore_plain(&asys, &budget);
        println!(
            "  migratory n={n}: rendezvous {:>8}  asynchronous {:>10}",
            r.table_cell(),
            a.table_cell()
        );
    }
    println!();

    println!("== 2. Coherence safety invariants, checked while exploring ==");
    let inv_opts = InvalidateOptions::Data2;
    let inv = invalidate(&inv_opts);
    let rv = RendezvousSystem::new(&inv, 2);
    let r = ccr_mc::search::explore(
        &rv,
        &Budget::default(),
        props::invalidate_rv_invariant(&inv),
        true,
    );
    println!(
        "  invalidate n=2 with data: {} states, single-writer + sharer-consistency: {:?}",
        r.states, r.outcome
    );
    println!();

    println!("== 3. A broken protocol is caught ==");
    // Mailbox variant whose home *forgets* to answer get: deadlock.
    let mut b = ProtocolBuilder::new("broken");
    let get = b.msg("get");
    let val = b.msg("val");
    let serve = b.home_state("Serve");
    b.home(serve).recv_any(get).goto(serve); // never sends val!
    let idle = b.remote_state("Idle");
    let wait = b.remote_state("Wait");
    b.remote(idle).send(get).goto(wait);
    b.remote(wait).recv(val).goto(idle);
    let broken = b.finish().expect("syntactically fine, semantically broken");
    let rv = RendezvousSystem::new(&broken, 1);
    let r = ccr_mc::search::explore(&rv, &Budget::default(), |_| None, true);
    println!("  outcome: {:?} (the remote waits for a val that never comes)", r.outcome);
    println!();

    println!("== 4. Equation 1 — the machine-checked §4 soundness argument ==");
    for (name, refined) in [
        ("migratory", migratory_refined(&MigratoryOptions::Checking)),
        ("invalidate", invalidate_refined(&InvalidateOptions::default())),
    ] {
        let rv = RendezvousSystem::new(&refined.spec, 2);
        let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        let sim = check_simulation(&asys, &rv, &Budget::default());
        println!(
            "  {name}: holds={} ({} transitions: {} stutters, {} rendezvous steps)",
            sim.holds(),
            sim.transitions_checked,
            sim.stutters,
            sim.mapped_steps
        );
    }
    println!();

    println!("== 5. Forward progress (§2.5): no reachable livelock, k = 2 suffices ==");
    for k in [2usize, 3] {
        let refined = migratory_refined(&MigratoryOptions::Checking);
        let asys = AsyncSystem::new(&refined, 2, AsyncConfig::with_home_buffer(k));
        let prog = check_progress_default(&asys, &Budget::default());
        println!(
            "  migratory n=2, home buffer k={k}: progress holds={} over {} states",
            prog.holds(),
            prog.states
        );
    }
}
