//! The §6 buffer/fairness study.
//!
//! §2.5 and §6 of the paper: a 2-slot home buffer suffices for *weak*
//! fairness (some remote always progresses) but admits per-remote
//! starvation; growing the buffer towards `n` removes nacks and starvation.
//! We sweep the home buffer size under (a) a fair random scheduler and (b)
//! an adversarial scheduler that deprioritizes one victim remote, and
//! report nack rates, Jain fairness and starvation counts.
//!
//! Run: `cargo run --release -p ccr-bench --bin buffers`
//!
//! Pass `--trace <file>` to narrate every run to `<file>` as JSONL trace
//! events (one run after another, each ending with an `Outcome` line); a
//! file that cannot be written fails the run (exit 1) once the tables are
//! printed.
//! Pass `--seed <N>` to shift the workload and scheduler seeds by `N`
//! (default 0, reproducing the canonical run).

use ccr_bench::cli::{finish_trace, seed_from_args, sink_from_args};
use ccr_bench::configs;
use ccr_core::ids::RemoteId;
use ccr_dsm::machine::{Machine, MachineConfig};
use ccr_dsm::workload::Migrating;
use ccr_protocols::migratory::{migratory_refined, MigratoryOptions};
use ccr_runtime::asynch::AsyncConfig;
use ccr_runtime::sched::{BiasedSched, RandomSched, Scheduler};

fn main() {
    let mut sink = sink_from_args();
    let seed = seed_from_args();
    let n = 6u32;
    let refined = migratory_refined(&MigratoryOptions::default());
    println!("Migratory, n={n}, {} steps, home buffer k swept (§6):", configs::MESSAGE_RUN_STEPS);
    println!();
    for (sched_name, adversarial) in [("random", false), ("biased-vs-r0", true)] {
        println!("scheduler: {sched_name}");
        println!(
            "| {:>2} | {:>7} | {:>8} | {:>7} | {:>9} | {:>8} | {:>7} |",
            "k", "ops", "messages", "nacks", "nack-rate", "fairness", "starved"
        );
        println!(
            "|{:-<4}|{:-<9}|{:-<10}|{:-<9}|{:-<11}|{:-<10}|{:-<9}|",
            "", "", "", "", "", "", ""
        );
        for k in configs::BUFFER_KS {
            let mut config = MachineConfig::standard(&refined, n, configs::MESSAGE_RUN_STEPS);
            config.asynch = AsyncConfig::with_home_buffer(k);
            let machine = Machine::new(&refined, config);
            let mut wl = Migrating::new(77 + seed, 0.8, 0.5);
            let mut sched: Box<dyn Scheduler> = if adversarial {
                Box::new(BiasedSched::new(vec![RemoteId(0)], 88 + seed))
            } else {
                Box::new(RandomSched::new(88 + seed))
            };
            let report =
                machine.run_observed("derived", &mut wl, sched.as_mut(), &mut *sink).expect("run");
            let nack_rate = if report.messages == 0 {
                0.0
            } else {
                report.nacks as f64 / report.messages as f64
            };
            println!(
                "| {:>2} | {:>7} | {:>8} | {:>7} | {:>9.4} | {:>8} | {:>7} |",
                k,
                report.ops,
                report.messages,
                report.nacks,
                nack_rate,
                report.fairness.map(|f| format!("{f:.3}")).unwrap_or_else(|| "-".into()),
                report.starved
            );
        }
        println!();
    }
    println!("Expected shape (§6): global progress (ops > 0) at every k >= 2; nacks");
    println!("shrink as k grows; the adversarial schedule cannot deadlock the system");
    println!("(weak fairness holds by construction) even at k=2.");
    finish_trace(&mut *sink);
}
