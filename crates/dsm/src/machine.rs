//! The discrete-event DSM machine.
//!
//! One home node, `N` caching nodes, one cache line (the paper derives
//! protocols per line, §2 footnote), a reliable in-order network and a
//! coherence engine executing a refined protocol. The machine is the
//! verified [`ccr_runtime::asynch::AsyncSystem`] driven by a scheduler,
//! with autonomous CPU decisions (`tau` branches tagged `"access"`,
//! `"write"`, `"evict"`, ...) gated by a [`Workload`].

use crate::metrics::MachineReport;
use crate::workload::Workload;
use ccr_core::ids::{MsgType, ProcessId};
use ccr_core::refine::RefinedProtocol;
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::error::Result;
use ccr_runtime::sched::Scheduler;
use ccr_runtime::sim::Simulator;
use ccr_runtime::system::{Label, LabelKind};
use ccr_trace::{NullSink, TraceEvent, TraceSink};
use std::time::Instant;

/// Machine parameters.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of caching nodes.
    pub n: u32,
    /// Executor configuration (home buffer size, link capacity, ...).
    pub asynch: AsyncConfig,
    /// Message types counted as completed *operations* (line acquisitions):
    /// e.g. `req` for migratory, `rreq`/`wreq` for invalidate.
    pub ops: Vec<MsgType>,
    /// Maximum steps per run.
    pub max_steps: u64,
}

impl MachineConfig {
    /// Standard configuration: derive the op set from well-known request
    /// names present in the spec (`req`, `rreq`, `wreq`).
    pub fn standard(refined: &RefinedProtocol, n: u32, max_steps: u64) -> Self {
        Self { n, asynch: AsyncConfig::default(), ops: standard_ops(refined), max_steps }
    }
}

/// The well-known acquisition requests present in the spec.
pub(crate) fn standard_ops(refined: &RefinedProtocol) -> Vec<MsgType> {
    ["req", "rreq", "wreq"].iter().filter_map(|name| refined.spec.msg_by_name(name)).collect()
}

/// Whether `workload` lets the transition `label` names be taken now:
/// autonomous CPU decisions are the workload's, the protocol's own steps
/// are always enabled.
pub(crate) fn enabled(workload: &mut dyn Workload, label: &Label) -> bool {
    match (label.kind, &label.tag, label.actor) {
        (LabelKind::Tau, Some(tag), ProcessId::Remote(r)) => workload.enable(r, tag),
        _ => true,
    }
}

/// The machine harness.
pub struct Machine<'a> {
    refined: &'a RefinedProtocol,
    config: MachineConfig,
}

impl<'a> Machine<'a> {
    /// Creates a machine over a refined protocol.
    pub fn new(refined: &'a RefinedProtocol, config: MachineConfig) -> Self {
        Self { refined, config }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Runs the machine to completion of the step budget, returning a
    /// report labelled with `variant`.
    pub fn run(
        &self,
        variant: &str,
        workload: &mut dyn Workload,
        sched: &mut dyn Scheduler,
    ) -> Result<MachineReport> {
        self.run_observed(variant, workload, sched, &mut NullSink)
    }

    /// [`Machine::run`] narrating every fired transition to `sink`; the
    /// terminal [`TraceEvent::Outcome`] is emitted and the sink flushed
    /// before returning. With a [`NullSink`] this is `run` exactly.
    pub fn run_observed(
        &self,
        variant: &str,
        workload: &mut dyn Workload,
        sched: &mut dyn Scheduler,
        sink: &mut dyn TraceSink,
    ) -> Result<MachineReport> {
        let started = Instant::now();
        let sys = AsyncSystem::new(self.refined, self.config.n, self.config.asynch.clone());
        let mut sim = Simulator::new(&sys);
        let mut steps = 0u64;
        let mut ops = 0u64;
        let mut deadlocked = false;
        while steps < self.config.max_steps {
            let fired = sim.step_observed(sched, |label| enabled(workload, label), sink)?;
            // A poll that fires nothing still counts, so that
            // probabilistic workloads get more chances.
            steps += 1;
            match fired {
                Some(label) => {
                    if let Some((_, msg)) = label.completes {
                        if self.config.ops.contains(&msg) {
                            ops += 1;
                        }
                    }
                }
                // True deadlock is no transition at all, even unfiltered;
                // anything else is quiescence only the workload can end.
                None if sim.last_fanout() == 0 => {
                    deadlocked = true;
                    break;
                }
                None => {}
            }
        }
        if sink.enabled() {
            sink.emit(&TraceEvent::Outcome {
                outcome: if deadlocked { "Deadlock".into() } else { "Complete".into() },
                detail: None,
                steps: Some(steps),
            });
            sink.flush();
        }
        Ok(MachineReport::from_stats(
            &self.refined.spec.name,
            variant,
            self.config.n,
            steps,
            deadlocked,
            ops,
            sim.stats(),
            started.elapsed(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Always, Migrating, ProducerConsumer};
    use ccr_protocols::invalidate::{invalidate_refined, InvalidateOptions};
    use ccr_protocols::migratory::{migratory_refined, MigratoryOptions};
    use ccr_runtime::sched::RandomSched;

    #[test]
    fn migratory_machine_makes_progress() {
        let refined = migratory_refined(&MigratoryOptions::default());
        let config = MachineConfig::standard(&refined, 4, 20_000);
        let machine = Machine::new(&refined, config);
        let mut wl = Migrating::new(11, 0.8, 0.5);
        let mut sched = RandomSched::new(12);
        let report = machine.run("derived", &mut wl, &mut sched).unwrap();
        assert!(!report.deadlocked);
        assert!(report.ops > 100, "ops={}", report.ops);
        assert!(report.msgs_per_op.unwrap() < 8.0);
    }

    #[test]
    fn invalidate_machine_runs_producer_consumer() {
        let refined = invalidate_refined(&InvalidateOptions::default());
        let config = MachineConfig::standard(&refined, 4, 30_000);
        let machine = Machine::new(&refined, config);
        let mut wl = ProducerConsumer::new(21, ccr_core::ids::RemoteId(0), 0.7, 0.3);
        let mut sched = RandomSched::new(22);
        let report = machine.run("derived", &mut wl, &mut sched).unwrap();
        assert!(!report.deadlocked);
        assert!(report.ops > 50, "ops={}", report.ops);
    }

    #[test]
    fn unconstrained_workload_still_safe() {
        let refined = migratory_refined(&MigratoryOptions::GatedData2);
        let config = MachineConfig::standard(&refined, 3, 10_000);
        let machine = Machine::new(&refined, config);
        let mut wl = Always;
        let mut sched = RandomSched::new(5);
        let report = machine.run("derived", &mut wl, &mut sched).unwrap();
        assert!(!report.deadlocked);
        assert!(report.ops > 0);
    }

    #[test]
    fn observed_run_narrates_steps_and_outcome() {
        use ccr_trace::RingSink;
        let refined = migratory_refined(&MigratoryOptions::default());
        let config = MachineConfig::standard(&refined, 2, 500);
        let machine = Machine::new(&refined, config);
        let mut wl = Always;
        let mut sched = RandomSched::new(7);
        let mut sink = RingSink::new(4096);
        let report = machine.run_observed("derived", &mut wl, &mut sched, &mut sink).unwrap();
        assert!(report.elapsed > std::time::Duration::ZERO);
        let events = sink.into_events();
        assert!(
            events.iter().filter(|e| matches!(e, TraceEvent::Step { .. })).count() > 0,
            "steps are narrated"
        );
        assert!(matches!(
            events.last(),
            Some(TraceEvent::Outcome { steps: Some(s), .. }) if *s == report.steps
        ));
    }

    #[test]
    fn op_counting_matches_request_names() {
        let refined = invalidate_refined(&InvalidateOptions::default());
        let config = MachineConfig::standard(&refined, 2, 1);
        assert_eq!(config.ops.len(), 2, "rreq and wreq");
        let mig = migratory_refined(&MigratoryOptions::default());
        let config = MachineConfig::standard(&mig, 2, 1);
        assert_eq!(config.ops.len(), 1, "req only");
    }
}
