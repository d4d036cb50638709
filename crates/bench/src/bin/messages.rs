//! Message efficiency (§3.3 and §5): how many wire messages does each
//! protocol variant need per completed line acquisition?
//!
//! Compares, on identical DSM workloads and schedules:
//!
//! * **derived**      — the refinement with the request/reply optimization
//!   (the paper's procedure, Figures 4–5);
//! * **derived-noopt** — the refinement with every rendezvous paying the
//!   full request+ack cost (ablation of §3.3);
//! * **hand**         — the Avalanche hand design (no ack after `LR`): the
//!   baseline the paper says the derived protocol nearly matches.
//!
//! Run: `cargo run --release -p ccr-bench --bin messages`
//!
//! Pass `--trace <file>` to narrate every run to `<file>` as JSONL trace
//! events (one run after another, each ending with an `Outcome` line); a
//! file that cannot be written fails the run (exit 1) once the tables are
//! printed.
//! Pass `--seed <N>` to shift every workload and scheduler seed by `N`
//! (default 0, reproducing the canonical run).

use ccr_bench::cli::{finish_trace, seed_from_args, sink_from_args};
use ccr_bench::configs;
use ccr_core::refine::{refine, RefineOptions, RefinedProtocol, ReqRepMode};
use ccr_dsm::machine::{Machine, MachineConfig};
use ccr_dsm::workload::Migrating;
use ccr_protocols::hand::{hand_async_config, migratory_hand};
use ccr_protocols::migratory::{migratory, MigratoryOptions};
use ccr_runtime::sched::RandomSched;
use ccr_trace::TraceSink;

fn run(
    refined: &RefinedProtocol,
    variant: &str,
    n: u32,
    hand: bool,
    seed: u64,
    sink: &mut dyn TraceSink,
) {
    let mut config = MachineConfig::standard(refined, n, configs::MESSAGE_RUN_STEPS);
    if hand {
        config.asynch = hand_async_config(n);
    }
    let machine = Machine::new(refined, config);
    let mut wl = Migrating::new(1000 + n as u64 + seed, 0.7, 0.5);
    let mut sched = RandomSched::new(2000 + n as u64 + seed);
    let report = machine.run_observed(variant, &mut wl, &mut sched, sink).expect("machine run");
    println!("{}", report.summary());
}

fn main() {
    let mut sink = sink_from_args();
    let seed = seed_from_args();
    println!("Migratory message efficiency on a migrating workload");
    println!("(one line, {} machine steps, random scheduler):", configs::MESSAGE_RUN_STEPS);
    println!();
    let opts = MigratoryOptions::CpuGated;
    let spec = migratory(&opts);
    let derived = refine(&spec, &RefineOptions::default()).expect("refine");
    let noopt = refine(&spec, &RefineOptions { reqrep: ReqRepMode::Off }).expect("refine");
    let hand = migratory_hand(&opts);
    for n in [2u32, 4, 8] {
        run(&derived, "derived", n, false, seed, &mut *sink);
        run(&noopt, "derived-noopt", n, false, seed, &mut *sink);
        run(&hand, "hand", n, true, seed, &mut *sink);
        println!();
    }
    println!("Static per-rendezvous cost (messages, successful case):");
    for (label, r) in [("derived", &derived), ("derived-noopt", &noopt), ("hand", &hand)] {
        let spec = &r.spec;
        let costs: Vec<String> = ["req", "gr", "LR", "inv", "ID"]
            .iter()
            .map(|m| {
                let mt = spec.msg_by_name(m).unwrap();
                format!("{m}={}", r.message_cost(mt))
            })
            .collect();
        println!("  {:<14} {}  (total {})", label, costs.join(" "), r.total_static_cost());
    }
    println!();
    println!("Paper §5: the hand design saves exactly the LR ack; 'the loss of");
    println!("efficiency due to the extra ack is small'. §3.3: the optimization");
    println!("halves req/gr and inv/ID from 4 messages to 2 per pair.");
    finish_trace(&mut *sink);
}
