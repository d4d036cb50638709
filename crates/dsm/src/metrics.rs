//! Machine-level result reporting.

use ccr_metrics::Registry;
use ccr_runtime::stats::MsgStats;
use serde::Serialize;
use std::time::Duration;

/// Outcome of a machine run, serializable for the experiment harness.
#[derive(Debug, Clone, Serialize)]
pub struct MachineReport {
    /// Protocol name.
    pub protocol: String,
    /// Variant label (e.g. `"derived"`, `"derived-noopt"`, `"hand"`).
    pub variant: String,
    /// Number of remote nodes.
    pub n: u32,
    /// Steps executed.
    pub steps: u64,
    /// True if the machine wedged (no enabled transition).
    pub deadlocked: bool,
    /// Completed line acquisitions (the operations of interest).
    pub ops: u64,
    /// Total wire messages.
    pub messages: u64,
    /// Acks sent.
    pub acks: u64,
    /// Nacks sent (each implies a retransmission).
    pub nacks: u64,
    /// Messages per completed acquisition.
    pub msgs_per_op: Option<f64>,
    /// Jain fairness index over per-remote acquisitions.
    pub fairness: Option<f64>,
    /// Remotes that completed nothing.
    pub starved: usize,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Highest post-enqueue occupancy observed on any link — the margin
    /// against the bounded-buffer (`LinkOverflow`) assumption.
    pub max_link_occupancy: u32,
}

impl MachineReport {
    /// Builds a report from raw counters.
    #[allow(clippy::too_many_arguments)]
    pub fn from_stats(
        protocol: &str,
        variant: &str,
        n: u32,
        steps: u64,
        deadlocked: bool,
        ops: u64,
        stats: &MsgStats,
        elapsed: Duration,
    ) -> Self {
        Self {
            protocol: protocol.to_owned(),
            variant: variant.to_owned(),
            n,
            steps,
            deadlocked,
            ops,
            messages: stats.total_messages(),
            acks: stats.acks,
            nacks: stats.nacks,
            msgs_per_op: if ops == 0 {
                None
            } else {
                Some(stats.total_messages() as f64 / ops as f64)
            },
            fairness: stats.jain_fairness(n as usize),
            starved: stats.starved(n as usize),
            elapsed,
            max_link_occupancy: stats.max_link_occupancy(),
        }
    }

    /// Folds this report's counters into the shared metrics registry
    /// (the `dsm_*` family), so machine runs land in the same snapshot
    /// as the model checker's `mc_*` series. Counters accumulate across
    /// runs; the link high-water gauge keeps its maximum. A no-op on a
    /// null registry.
    pub fn publish(&self, reg: &Registry) {
        if !reg.enabled() {
            return;
        }
        reg.counter("dsm_runs_total", "Machine runs folded into this registry").inc();
        reg.counter("dsm_steps_total", "Scheduler steps executed").add(self.steps);
        reg.counter("dsm_ops_total", "Completed line acquisitions").add(self.ops);
        reg.counter("dsm_messages_total", "Wire messages sent").add(self.messages);
        reg.counter("dsm_acks_total", "Acks sent").add(self.acks);
        reg.counter("dsm_nacks_total", "Nacks sent").add(self.nacks);
        reg.gauge("dsm_max_link_occupancy", "Highest post-enqueue link occupancy seen")
            .record_max(u64::from(self.max_link_occupancy));
        if self.deadlocked {
            reg.counter("dsm_deadlocks_total", "Runs that wedged with no enabled transition").inc();
        }
    }

    /// Steps executed per wall-clock second, when measurable.
    pub fn steps_per_sec(&self) -> Option<f64> {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            Some(self.steps as f64 / secs)
        } else {
            None
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<12} {:<14} n={:<3} ops={:<7} msgs={:<8} acks={:<6} nacks={:<6} msgs/op={} fair={} starved={} linkhw={} secs={:.3} steps/s={}",
            self.protocol,
            self.variant,
            self.n,
            self.ops,
            self.messages,
            self.acks,
            self.nacks,
            self.msgs_per_op.map(|x| format!("{x:.2}")).unwrap_or_else(|| "-".into()),
            self.fairness.map(|x| format!("{x:.3}")).unwrap_or_else(|| "-".into()),
            self.starved,
            self.max_link_occupancy,
            self.elapsed.as_secs_f64(),
            self.steps_per_sec().map(|x| format!("{x:.0}")).unwrap_or_else(|| "-".into()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_from_empty_stats() {
        let r = MachineReport::from_stats(
            "migratory",
            "derived",
            4,
            100,
            false,
            0,
            &MsgStats::new(),
            Duration::from_millis(50),
        );
        assert_eq!(r.msgs_per_op, None);
        assert_eq!(r.starved, 4);
        assert!(r.summary().contains("migratory"));
        assert!(r.summary().contains("secs=0.050"), "{}", r.summary());
        assert_eq!(r.steps_per_sec(), Some(2000.0));
    }

    #[test]
    fn report_computes_ratios() {
        let mut stats = MsgStats::new();
        stats.acks = 10;
        stats.nacks = 2;
        let r =
            MachineReport::from_stats("token", "derived", 2, 50, false, 6, &stats, Duration::ZERO);
        assert_eq!(r.messages, 12);
        assert_eq!(r.msgs_per_op, Some(2.0));
        assert_eq!(r.steps_per_sec(), None, "zero elapsed is unmeasurable");
    }

    /// The hand-written serializer the derive replaced, kept verbatim as
    /// a golden reference: the derived output must match byte for byte.
    fn hand_serialize(r: &MachineReport) -> String {
        let mut s = serde::Serializer::new();
        let mut m = s.begin_map();
        m.entry("protocol", r.protocol.as_str());
        m.entry("variant", r.variant.as_str());
        m.entry("n", &r.n);
        m.entry("steps", &r.steps);
        m.entry("deadlocked", &r.deadlocked);
        m.entry("ops", &r.ops);
        m.entry("messages", &r.messages);
        m.entry("acks", &r.acks);
        m.entry("nacks", &r.nacks);
        m.entry("msgs_per_op", &r.msgs_per_op);
        m.entry("fairness", &r.fairness);
        m.entry("starved", &r.starved);
        m.entry("elapsed", &r.elapsed);
        m.entry("max_link_occupancy", &r.max_link_occupancy);
        m.end();
        s.into_string()
    }

    #[test]
    fn derived_serializer_is_byte_compatible_with_hand_written() {
        let mut stats = MsgStats::new();
        stats.acks = 12;
        let r =
            MachineReport::from_stats("token", "derived", 2, 50, false, 6, &stats, Duration::ZERO);
        assert_eq!(serde::json::to_string(&r), hand_serialize(&r));
        // An unmeasurable ratio stays null.
        let idle =
            MachineReport::from_stats("token", "derived", 2, 50, false, 0, &stats, Duration::ZERO);
        assert_eq!(serde::json::to_string(&idle), hand_serialize(&idle));
    }

    #[test]
    fn publish_folds_counters_into_registry() {
        let reg = ccr_metrics::Registry::new();
        let mut stats = MsgStats::new();
        stats.acks = 10;
        stats.nacks = 2;
        let report =
            MachineReport::from_stats("token", "derived", 2, 50, false, 6, &stats, Duration::ZERO);
        report.publish(&reg);
        report.publish(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["dsm_runs_total"], 2);
        assert_eq!(snap.counters["dsm_steps_total"], 100);
        assert_eq!(snap.counters["dsm_messages_total"], 24);
        // A null registry stays empty.
        let null = ccr_metrics::Registry::disabled();
        report.publish(&null);
        assert!(null.snapshot().counters.is_empty());
    }

    #[test]
    fn report_surfaces_link_high_water() {
        use ccr_core::ids::{ProcessId, RemoteId};
        let mut stats = MsgStats::new();
        stats.record_occupancy(ProcessId::Remote(RemoteId(0)), ProcessId::Home, 3);
        stats.record_occupancy(ProcessId::Home, ProcessId::Remote(RemoteId(1)), 1);
        let r = MachineReport::from_stats(
            "token",
            "derived",
            2,
            50,
            false,
            6,
            &stats,
            Duration::from_secs(1),
        );
        assert_eq!(r.max_link_occupancy, 3);
        assert!(r.summary().contains("linkhw=3"), "{}", r.summary());
    }
}
