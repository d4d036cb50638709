//! # ccr-bench — benchmark harness regenerating the paper's evaluation
//!
//! Report binaries (run with `cargo run --release -p ccr-bench --bin <name>`):
//!
//! * `table3`  — Table 3: reachability cost of rendezvous vs asynchronous
//!   protocols (migratory and invalidate) under a memory budget.
//! * `scaling` — the §5 claim that the rendezvous migratory protocol checks
//!   out to 64 nodes in a few tens of MB.
//! * `messages` — §3.3/§5 message efficiency: derived (optimized) vs
//!   derived (no request/reply optimization) vs the hand-written baseline.
//! * `buffers` — §6 buffer-size sweep: nack rate, fairness, starvation.
//! * `calib`   — raw state-space calibration (development aid).
//! * `mc_perf` — checker throughput: states/sec serial vs 1/2/4/8
//!   worker threads and store bytes per state, written to `BENCH_mc.json`.
//! * `gen_specs` — regenerates the textual `.ccp` specs under `specs/`
//!   from the protocol constructors (kept in sync by `tests/shipped_specs.rs`).
//!
//! The reachability binaries (`table3`, `scaling`, `mc_perf`) take
//! `--threads N` to feed the exploration from `N` worker threads; see
//! [`cli`] for the shared flag parsing.
//!
//! Criterion benches (`cargo bench -p ccr-bench`): `table3`, `refinement`,
//! `simulation`.

pub mod cli;
pub mod configs;
pub mod diff;
