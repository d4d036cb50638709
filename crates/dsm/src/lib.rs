//! # ccr-dsm — a distributed shared memory machine simulator
//!
//! The paper's protocols ran inside the Avalanche DSM multiprocessor. This
//! crate is our stand-in machine: `N` CPU nodes sharing one cache line
//! (the paper derives protocols per line) under a coherence engine
//! executing a *derived* asynchronous protocol.
//!
//! Two execution styles are provided:
//!
//! * [`machine::Machine`] — a deterministic discrete-event harness built on
//!   the verified executable semantics of `ccr-runtime`, driven by a
//!   [`workload::Workload`] that decides when CPUs access, write and evict.
//!   All message accounting (the paper's efficiency criterion) comes from
//!   here.
//! * [`threaded`] — a deployment-style runner: one OS thread per node,
//!   communicating over crossbeam channels. Each node steps its own
//!   share of the same verified semantics
//!   ([`ccr_runtime::asynch::AsyncSystem::restricted_to`]) — Tables 1
//!   and 2 are implemented once — the way a microcoded protocol processor
//!   would run its side of them.
//!
//! The workloads mirror the sharing patterns DSM papers motivate:
//! migratory access, producer/consumer, read-mostly and hot-spot.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod machine;
pub mod metrics;
pub mod threaded;
pub mod workload;

pub use machine::{Machine, MachineConfig};
pub use metrics::MachineReport;
pub use workload::{HotSpot, Migrating, ProducerConsumer, ReadMostly, Workload};
