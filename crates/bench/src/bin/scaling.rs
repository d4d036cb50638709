//! The §5 scaling claim: "the rendezvous migratory protocol could be model
//! checked for up to 64 nodes using 32MB of memory, while the asynchronous
//! protocol can be model checked for only two nodes using 64MB".
//!
//! Run: `cargo run --release -p ccr-bench --bin scaling`
//!
//! Pass `--threads N` to have `N` worker threads generate the successors
//! of the reachability runs (identical reports; see
//! `docs/parallel_checking.md` for what that buys on which host).

use ccr_bench::cli::threads_from_args;
use ccr_bench::configs;
use ccr_mc::search::{Budget, Search, SearchObserver};
use ccr_protocols::migratory::{migratory, migratory_refined, MigratoryOptions};
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_trace::NullSink;
use std::time::Duration;

fn main() {
    let search = Search { threads: threads_from_args(), ..Search::default() };
    let mut null = NullSink;
    let mut obs = SearchObserver::new(&mut null);
    let opts = MigratoryOptions::Data2;
    let spec = migratory(&opts);
    if search.threads > 0 {
        println!("({} worker threads)", search.threads);
    }
    println!("Rendezvous migratory scaling (budget 32 MB, as in the paper):");
    println!(
        "| {:>3} | {:>10} | {:>12} | {:>10} | {:>9} |",
        "N", "states", "transitions", "store KB", "secs"
    );
    println!("|{:-<5}|{:-<12}|{:-<14}|{:-<12}|{:-<11}|", "", "", "", "", "");
    let budget = Budget {
        max_bytes: 32 << 20,
        max_time: Some(Duration::from_secs(120)),
        ..Budget::default()
    };
    for n in configs::SCALING_NS {
        let sys = RendezvousSystem::new(&spec, n);
        let r = search.explore(&sys, &budget, None, &mut obs);
        println!(
            "| {:>3} | {:>10} | {:>12} | {:>10} | {:>9.3} |{}",
            n,
            r.states,
            r.transitions,
            r.store_bytes / 1024,
            r.elapsed.as_secs_f64(),
            if r.outcome.is_complete() { "" } else { "  (Unfinished)" }
        );
    }

    println!();
    println!("Asynchronous migratory under the same 32 MB budget:");
    println!("| {:>3} | {:>10} | {:>10} | {:>9} | outcome |", "N", "states", "store KB", "secs");
    println!("|{:-<5}|{:-<12}|{:-<12}|{:-<11}|---------|", "", "", "", "");
    let refined = migratory_refined(&opts);
    for n in [2u32, 3, 4, 5] {
        let sys = AsyncSystem::new(&refined, n, AsyncConfig::default());
        let r = search.explore(&sys, &budget, None, &mut obs);
        println!(
            "| {:>3} | {:>10} | {:>10} | {:>9.3} | {} |",
            n,
            r.states,
            r.store_bytes / 1024,
            r.elapsed.as_secs_f64(),
            if r.outcome.is_complete() { "Complete" } else { "Unfinished" }
        );
    }
}
