//! # ccr-bench — regenerators of the paper's evaluation
//!
//! Report binaries (run with `cargo run --release -p ccr-bench --bin <name>`),
//! one per EXPERIMENTS.md entry:
//!
//! * `table3`  — E1, Table 3: reachability cost of rendezvous vs asynchronous
//!   protocols (migratory and invalidate) under a memory budget.
//! * `scaling` — E2, the §5 claim that the rendezvous migratory protocol
//!   checks out to 64 nodes in a few tens of MB.
//! * `messages` — E3, §3.3/§5 message efficiency: derived (optimized) vs
//!   derived (no request/reply optimization) vs the hand-written baseline.
//! * `buffers` — E4, §6 buffer-size sweep: nack rate, fairness, starvation.
//!
//! The reachability binaries (`table3`, `scaling`) take `--threads N` to
//! feed the exploration from `N` worker threads; see [`cli`] for the
//! shared flag parsing. What the pipeline costs is measured elsewhere, by
//! `benchmark/run.sh`.

pub mod cli;
pub mod configs;
