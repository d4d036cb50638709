//! Message and progress accounting for simulations.
//!
//! The paper's quality criterion (1) for a derived protocol is "the number
//! of request, acknowledge, and negative acknowledge messages needed for
//! carrying out the rendezvous specified in the given specification".
//! [`MsgStats`] counts exactly those, plus the completion events the §2.5
//! progress criterion is stated over.

use crate::system::Label;
use crate::wire::Network;
use ccr_core::hash::FxBuild;
use ccr_core::ids::{MsgType, ProcessId};
use serde::Serialize;
use std::collections::HashMap;

/// Accumulated counters over a run. The maps are keyed through
/// [`FxBuild`]: a simulated step updates up to three of them, and their
/// small integer keys need no SipHash.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct MsgStats {
    /// Requests sent (including optimized replies), per message type.
    pub requests: HashMap<MsgType, u64, FxBuild>,
    /// Total acks sent.
    pub acks: u64,
    /// Total nacks sent.
    pub nacks: u64,
    /// Completed rendezvous, per message type.
    pub completed: HashMap<MsgType, u64, FxBuild>,
    /// Completed rendezvous per remote (only counted when the remote is the
    /// active party) — the starvation/fairness metric of §6.
    pub per_remote: HashMap<u32, u64, FxBuild>,
    /// Total transitions observed.
    pub steps: u64,
    /// Per-link occupancy high-water marks, recorded by simulators whose
    /// semantics models wires (empty otherwise) — the observed margin of
    /// the bounded-link assumption.
    pub link_high_water: Network,
}

impl MsgStats {
    /// Creates empty counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one transition label into the counters.
    pub fn record(&mut self, label: &Label) {
        self.steps += 1;
        for m in label.emissions() {
            if m.is_ack {
                self.acks += 1;
            } else if m.is_nack {
                self.nacks += 1;
            } else if let Some(msg) = m.msg {
                *self.requests.entry(msg).or_insert(0) += 1;
            }
        }
        if let Some((active, msg)) = label.completes {
            *self.completed.entry(msg).or_insert(0) += 1;
            if let ProcessId::Remote(r) = active {
                *self.per_remote.entry(r.0).or_insert(0) += 1;
            }
        }
    }

    /// Records an observed occupancy of the directed link `from → to`.
    pub fn record_occupancy(&mut self, from: ProcessId, to: ProcessId, occupancy: u32) {
        self.link_high_water.observe(from, to, occupancy);
    }

    /// The maximum link-occupancy high-water mark over all links (0 when
    /// the run never observed a wire).
    pub fn max_link_occupancy(&self) -> u32 {
        self.link_high_water.max_high_water()
    }

    /// Total wire messages (requests + acks + nacks).
    pub fn total_messages(&self) -> u64 {
        self.requests.values().sum::<u64>() + self.acks + self.nacks
    }

    /// Total completed rendezvous.
    pub fn total_completed(&self) -> u64 {
        self.completed.values().sum()
    }

    /// Messages per completed rendezvous; `None` when nothing completed.
    pub fn messages_per_rendezvous(&self) -> Option<f64> {
        let c = self.total_completed();
        if c == 0 {
            None
        } else {
            Some(self.total_messages() as f64 / c as f64)
        }
    }

    /// Jain's fairness index over per-remote completions for `n` remotes:
    /// `(Σx)² / (n·Σx²)`; 1.0 is perfectly fair, `1/n` is a single remote
    /// hogging all progress. Returns `None` if nothing completed.
    pub fn jain_fairness(&self, n: usize) -> Option<f64> {
        if n == 0 {
            return None;
        }
        let xs: Vec<f64> =
            (0..n as u32).map(|i| *self.per_remote.get(&i).unwrap_or(&0) as f64).collect();
        let sum: f64 = xs.iter().sum();
        if sum == 0.0 {
            return None;
        }
        let sumsq: f64 = xs.iter().map(|x| x * x).sum();
        Some(sum * sum / (n as f64 * sumsq))
    }

    /// Number of remotes that never completed a rendezvous — the starvation
    /// count of §6.
    pub fn starved(&self, n: usize) -> usize {
        (0..n as u32).filter(|i| self.per_remote.get(i).copied().unwrap_or(0) == 0).count()
    }

    /// Folds these counters into the shared metrics registry (the
    /// `runtime_*` family): message/ack/nack/completion/step totals plus
    /// one high-water gauge per observed link
    /// (`runtime_link_high_water_r0_h` for the wire `r0 → h`). Counters
    /// accumulate across calls; gauges keep their maxima. A no-op on a
    /// null registry.
    pub fn publish(&self, reg: &ccr_metrics::Registry) {
        if !reg.enabled() {
            return;
        }
        reg.counter("runtime_steps_total", "Simulator transitions observed").add(self.steps);
        reg.counter("runtime_requests_total", "Request messages sent (all types)")
            .add(self.requests.values().sum());
        reg.counter("runtime_acks_total", "Acks sent").add(self.acks);
        reg.counter("runtime_nacks_total", "Nacks sent").add(self.nacks);
        reg.counter("runtime_completed_total", "Completed rendezvous (all types)")
            .add(self.completed.values().sum());
        reg.gauge("runtime_max_link_occupancy", "Highest post-enqueue occupancy on any link")
            .record_max(u64::from(self.max_link_occupancy()));
        for (from, to, high_water) in self.link_high_water.iter() {
            reg.gauge(
                &format!("runtime_link_high_water_{from}_{to}"),
                "Post-enqueue occupancy high-water mark of one directed link",
            )
            .record_max(u64::from(high_water));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{LabelKind, SentMsg};
    use ccr_core::ids::RemoteId;

    fn remote(i: u32) -> ProcessId {
        ProcessId::Remote(RemoteId(i))
    }

    #[test]
    fn records_messages_and_completions() {
        let mut st = MsgStats::new();
        let l = Label::new(remote(0), LabelKind::Request, "C1").sending(SentMsg::req(
            remote(0),
            ProcessId::Home,
            MsgType(1),
        ));
        st.record(&l);
        let l2 = Label::new(ProcessId::Home, LabelKind::Complete, "C1")
            .completing(remote(0), MsgType(1))
            .sending(SentMsg::ack(ProcessId::Home, remote(0)));
        st.record(&l2);
        let l3 = Label::new(ProcessId::Home, LabelKind::Nacked, "T6")
            .sending(SentMsg::nack(ProcessId::Home, remote(1)));
        st.record(&l3);

        assert_eq!(st.total_messages(), 3);
        assert_eq!(st.acks, 1);
        assert_eq!(st.nacks, 1);
        assert_eq!(st.total_completed(), 1);
        assert_eq!(st.per_remote.get(&0), Some(&1));
        assert_eq!(st.messages_per_rendezvous(), Some(3.0));
        assert_eq!(st.steps, 3);
    }

    #[test]
    fn fairness_index_bounds() {
        let mut st = MsgStats::new();
        for _ in 0..10 {
            st.record(
                &Label::new(ProcessId::Home, LabelKind::Complete, "C1")
                    .completing(remote(0), MsgType(0)),
            );
        }
        // One remote hogs everything among 2: index = 1/2.
        let j = st.jain_fairness(2).unwrap();
        assert!((j - 0.5).abs() < 1e-9);
        assert_eq!(st.starved(2), 1);

        for _ in 0..10 {
            st.record(
                &Label::new(ProcessId::Home, LabelKind::Complete, "C1")
                    .completing(remote(1), MsgType(0)),
            );
        }
        let j = st.jain_fairness(2).unwrap();
        assert!((j - 1.0).abs() < 1e-9);
        assert_eq!(st.starved(2), 0);
    }

    #[test]
    fn occupancy_high_water_and_json() {
        let mut st = MsgStats::new();
        st.record_occupancy(remote(0), ProcessId::Home, 2);
        st.record_occupancy(remote(0), ProcessId::Home, 1);
        st.record_occupancy(ProcessId::Home, remote(0), 3);
        assert_eq!(st.max_link_occupancy(), 3);
        let json = serde::json::to_string(&st);
        assert!(json.contains("\"link_high_water\":{\"h->r0\":3,\"r0->h\":2}"), "{json}");
    }

    #[test]
    fn publish_maps_counters_to_registry() {
        let mut st = MsgStats::new();
        let l = Label::new(remote(0), LabelKind::Request, "C1").sending(SentMsg::req(
            remote(0),
            ProcessId::Home,
            MsgType(1),
        ));
        st.record(&l);
        st.record(
            &Label::new(ProcessId::Home, LabelKind::Complete, "C1")
                .completing(remote(0), MsgType(1))
                .sending(SentMsg::ack(ProcessId::Home, remote(0))),
        );
        st.record_occupancy(remote(0), ProcessId::Home, 2);
        let reg = ccr_metrics::Registry::new();
        st.publish(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["runtime_steps_total"], 2);
        assert_eq!(snap.counters["runtime_requests_total"], 1);
        assert_eq!(snap.counters["runtime_acks_total"], 1);
        assert_eq!(snap.counters["runtime_completed_total"], 1);
        assert_eq!(snap.gauges["runtime_link_high_water_r0_h"], 2);
        assert_eq!(snap.gauges["runtime_max_link_occupancy"], 2);
        // A second publish accumulates counters but not the gauge.
        st.publish(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["runtime_steps_total"], 4);
        assert_eq!(snap.gauges["runtime_max_link_occupancy"], 2);
    }

    #[test]
    fn empty_stats_edge_cases() {
        let st = MsgStats::new();
        assert_eq!(st.messages_per_rendezvous(), None);
        assert_eq!(st.jain_fairness(4), None);
        assert_eq!(st.jain_fairness(0), None);
        assert_eq!(st.starved(3), 3);
    }
}
