//! Quickstart: specify, refine, verify and run the paper's migratory
//! protocol in under a hundred lines.
//!
//! Run: `cargo run --release --example quickstart`

use ccr_core::text::to_text;
use coherence_refinement::prelude::*;

fn main() {
    // 1. The rendezvous specification of the migratory protocol — the
    //    atomic-transaction view of Figures 2 and 3.
    let opts = MigratoryOptions::Checking;
    let spec = migratory(&opts);
    println!("=== Rendezvous specification (.ccp) ===");
    print!("{}", to_text(&spec));
    println!();

    // 2. Refine it: every rendezvous becomes request + ack/nack, transient
    //    states absorb races, and the request/reply optimization elides the
    //    acks of req/gr and inv/ID (exactly the pairs the paper derives).
    let refined = migratory_refined(&opts);
    println!("=== Request/reply pairs found ===");
    for p in &refined.pairs {
        println!(
            "  {} answered by {} ({:?}) — 2 messages instead of 4",
            refined.spec.msg_name(p.req),
            refined.spec.msg_name(p.repl),
            p.direction
        );
    }
    println!();

    // 3. Verify at the cheap rendezvous level...
    let n = 3;
    let rv = RendezvousSystem::new(&spec, n);
    let r = explore_plain(&rv, &Budget::default());
    println!("rendezvous level, n={n}: {} states, complete={}", r.states, r.outcome.is_complete());

    // ...and confirm the derived asynchronous protocol implements it.
    let asys = AsyncSystem::new(&refined, n, AsyncConfig::default());
    let a = explore_plain(&asys, &Budget::default());
    println!(
        "asynchronous level, n={n}: {} states ({}x more)",
        a.states,
        a.states / r.states.max(1)
    );

    let sim = check_simulation(&asys, &RendezvousSystem::new(&refined.spec, 2), &Budget::default());
    println!(
        "Equation 1 (soundness): holds={} over {} transitions ({} stutters, {} mapped steps)",
        sim.holds(),
        sim.transitions_checked,
        sim.stutters,
        sim.mapped_steps
    );
    let prog = check_progress_default(&asys, &Budget::default());
    println!("forward progress (§2.5): holds={}", prog.holds());
    println!();

    // 4. Run it as a DSM machine under a migratory workload.
    let run_opts = MigratoryOptions::default(); // CPU-gated variant for workloads
    let runnable = migratory_refined(&run_opts);
    let config = MachineConfig::standard(&runnable, 4, 50_000);
    let machine = Machine::new(&runnable, config);
    let mut workload = Migrating::new(7, 0.7, 0.5);
    let mut sched = RandomSched::new(8);
    let report = machine.run("derived", &mut workload, &mut sched).expect("machine run");
    println!("=== DSM machine run ===");
    println!("{}", report.summary());
}
