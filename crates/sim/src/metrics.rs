//! Measurement collection: packet traces (Fig. 2's sequence plots), flow
//! update completion times (Fig. 4 / Fig. 7), alarms, and drop accounting.
//!
//! Every run records into one [`Metrics`]. Completions, alarms and stranded
//! flows are exact lists, bounded by the number of flow updates. The
//! per-packet log (`arrivals`, `deliveries`, `drops`) is written
//! unconditionally: its cost follows injected packets, and a run that
//! injects none — every benchmark workload, `golden_cells`, `ft32768` —
//! never touches it. Triggers, UNM deliveries and control drops are
//! counters only. [`MetricsCounts`] is incremented on every record, so a
//! count is always what its series implies.
//!
//! Recording is observation-only: no simulation decision reads the struct.

use p4update_dataplane::DropReason;
use p4update_des::SimTime;
use p4update_messages::{DataPacket, RejectReason};
use p4update_net::{FlowId, NodeId, Version};

/// Aggregate counters of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsCounts {
    /// Data-packet arrivals at switches.
    pub arrivals: u64,
    /// Data-packet deliveries at egress switches.
    pub deliveries: u64,
    /// Data-packet drops (all reasons).
    pub drops: u64,
    /// Drops due to TTL expiry (loop deaths).
    pub ttl_deaths: u64,
    /// Flow update completions.
    pub completions: u64,
    /// Alarms received by the controller.
    pub alarms: u64,
    /// Batch triggers.
    pub triggers: u64,
    /// Control messages lost to fault injection.
    pub control_drops: u64,
    /// Update-notification deliveries at switches.
    pub unm_deliveries: u64,
    /// Flows whose triggered update never completed within the run
    /// (recorded by `NetworkSim::record_stranded_flows` at end of run —
    /// e.g. ez-Segway's capacity-wait deadlocks).
    pub stranded_flows: u64,
}

/// All measurements of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counts: MetricsCounts,
    /// Every data-packet arrival at a switch: `(time, switch, packet)`.
    /// Fig. 2b plots these for one switch.
    pub arrivals: Vec<(SimTime, NodeId, DataPacket)>,
    /// Deliveries at egress switches (Fig. 2c).
    pub deliveries: Vec<(SimTime, NodeId, DataPacket)>,
    /// Dropped packets with reasons (TTL deaths in the Fig. 2 loop).
    pub drops: Vec<(SimTime, NodeId, DataPacket, DropReason)>,
    /// Flow update completions as learned by the controller.
    pub completions: Vec<(SimTime, FlowId, Version)>,
    /// Alarms the controller received.
    pub alarms: Vec<(SimTime, FlowId, RejectReason)>,
    /// Flows whose triggered update never completed within the run.
    pub stranded: Vec<FlowId>,
}

/// The benchmark's name for [`Metrics`] (`benchmark/README.md`, "Pinned API
/// surface"); nothing else uses it.
pub type StreamingMetrics = Metrics;

impl Metrics {
    /// An empty recorder (the benchmark's spelling of `default()`).
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_arrival(&mut self, t: SimTime, node: NodeId, pkt: DataPacket) {
        self.counts.arrivals += 1;
        self.arrivals.push((t, node, pkt));
    }

    pub(crate) fn record_delivery(&mut self, t: SimTime, node: NodeId, pkt: DataPacket) {
        self.counts.deliveries += 1;
        self.deliveries.push((t, node, pkt));
    }

    pub(crate) fn record_drop(
        &mut self,
        t: SimTime,
        node: NodeId,
        pkt: DataPacket,
        reason: DropReason,
    ) {
        self.counts.drops += 1;
        if reason == DropReason::TtlExpired {
            self.counts.ttl_deaths += 1;
        }
        self.drops.push((t, node, pkt, reason));
    }

    pub(crate) fn record_completion(&mut self, t: SimTime, flow: FlowId, version: Version) {
        self.counts.completions += 1;
        self.completions.push((t, flow, version));
    }

    pub(crate) fn record_alarm(&mut self, t: SimTime, flow: FlowId, reason: RejectReason) {
        self.counts.alarms += 1;
        self.alarms.push((t, flow, reason));
    }

    pub(crate) fn record_trigger(&mut self) {
        self.counts.triggers += 1;
    }

    pub(crate) fn record_control_drop(&mut self) {
        self.counts.control_drops += 1;
    }

    pub(crate) fn record_unm_delivery(&mut self) {
        self.counts.unm_deliveries += 1;
    }

    /// End-of-run accounting (see `NetworkSim::record_stranded_flows`):
    /// assigns, so a repeated call cannot double the list or its count.
    pub(crate) fn set_stranded(&mut self, flows: Vec<FlowId>) {
        self.counts.stranded_flows = flows.len() as u64;
        self.stranded = flows;
    }

    /// Aggregate counters.
    pub fn counts(&self) -> MetricsCounts {
        self.counts
    }

    /// The `completions` list (the benchmark's spelling of the field).
    pub fn completions(&self) -> &[(SimTime, FlowId, Version)] {
        &self.completions
    }

    /// Completion time of `flow` at `version`, if it completed.
    pub fn completion_of(&self, flow: FlowId, version: Version) -> Option<SimTime> {
        self.completions
            .iter()
            .find(|&&(_, f, v)| f == flow && v == version)
            .map(|&(t, _, _)| t)
    }

    /// Completion time of the *last* flow among `flows` (the multi-flow
    /// metric), if all completed.
    pub fn last_completion(&self, flows: &[FlowId]) -> Option<SimTime> {
        let mut last = SimTime::ZERO;
        for &f in flows {
            let t = self
                .completions
                .iter()
                .filter(|&&(_, g, _)| g == f)
                .map(|&(t, _, _)| t)
                .max()?;
            last = last.max(t);
        }
        Some(last)
    }

    /// Arrival times and sequence numbers at one switch (a Fig. 2b series).
    pub fn arrivals_at(&self, node: NodeId) -> Vec<(SimTime, u32)> {
        self.arrivals
            .iter()
            .filter(|&&(_, n, _)| n == node)
            .map(|&(t, _, p)| (t, p.seq))
            .collect()
    }

    /// Count of packets seen more than once at a switch (looped packets).
    pub fn duplicate_arrivals_at(&self, node: NodeId) -> usize {
        let mut seen = std::collections::BTreeMap::new();
        for &(_, n, p) in &self.arrivals {
            if n == node {
                *seen.entry((p.flow, p.seq)).or_insert(0usize) += 1;
            }
        }
        seen.values().filter(|&&c| c > 1).count()
    }

    /// Sequence numbers delivered at a switch, ordered by time.
    pub fn delivered_seqs_at(&self, node: NodeId) -> Vec<u32> {
        let mut v: Vec<(SimTime, u32)> = self
            .deliveries
            .iter()
            .filter(|&&(_, n, _)| n == node)
            .map(|&(t, _, p)| (t, p.seq))
            .collect();
        v.sort();
        v.into_iter().map(|(_, s)| s).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(seq: u32) -> DataPacket {
        DataPacket {
            flow: FlowId(0),
            seq,
            ttl: 64,
            tag: None,
        }
    }

    fn at(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn completion_lookup() {
        let mut m = Metrics::default();
        m.record_completion(at(5), FlowId(1), Version(2));
        m.record_completion(at(9), FlowId(2), Version(2));
        assert_eq!(m.completion_of(FlowId(1), Version(2)), Some(at(5)));
        assert_eq!(m.completion_of(FlowId(1), Version(3)), None);
        assert_eq!(m.last_completion(&[FlowId(1), FlowId(2)]), Some(at(9)));
        assert_eq!(m.last_completion(&[FlowId(1), FlowId(3)]), None);
    }

    #[test]
    fn duplicate_arrival_counting() {
        let mut m = Metrics::default();
        m.record_arrival(at(1), NodeId(1), pkt(10));
        m.record_arrival(at(2), NodeId(1), pkt(10));
        m.record_arrival(at(3), NodeId(1), pkt(11));
        m.record_arrival(at(3), NodeId(2), pkt(12));
        assert_eq!(m.duplicate_arrivals_at(NodeId(1)), 1);
        assert_eq!(m.duplicate_arrivals_at(NodeId(2)), 0);
        assert_eq!(m.arrivals_at(NodeId(1)).len(), 3);
    }

    #[test]
    fn delivered_seqs_are_time_ordered() {
        let mut m = Metrics::default();
        m.record_delivery(at(9), NodeId(4), pkt(2));
        m.record_delivery(at(3), NodeId(4), pkt(1));
        assert_eq!(m.delivered_seqs_at(NodeId(4)), vec![1, 2]);
    }

    /// Every counter equals what its series implies, and the three
    /// series-less counters equal the number of calls.
    #[test]
    fn counts_match_their_series() {
        let mut m = Metrics::default();
        m.record_trigger();
        m.record_arrival(at(1), NodeId(0), pkt(1));
        m.record_arrival(at(2), NodeId(1), pkt(1));
        m.record_delivery(at(3), NodeId(1), pkt(1));
        m.record_drop(at(4), NodeId(0), pkt(2), DropReason::TtlExpired);
        m.record_drop(at(5), NodeId(0), pkt(3), DropReason::NoRule);
        m.record_completion(at(6), FlowId(0), Version(2));
        m.record_alarm(at(7), FlowId(1), RejectReason::InsufficientCapacity);
        m.record_control_drop();
        m.record_control_drop();
        m.record_unm_delivery();
        m.set_stranded(vec![FlowId(3), FlowId(4)]);
        m.set_stranded(vec![FlowId(3)]);
        let ttl_drops = m
            .drops
            .iter()
            .filter(|&&(_, _, _, r)| r == DropReason::TtlExpired)
            .count();
        assert_eq!((m.drops.len(), ttl_drops), (2, 1));
        assert_eq!(
            m.counts(),
            MetricsCounts {
                arrivals: m.arrivals.len() as u64,
                deliveries: m.deliveries.len() as u64,
                drops: m.drops.len() as u64,
                ttl_deaths: ttl_drops as u64,
                completions: m.completions.len() as u64,
                alarms: m.alarms.len() as u64,
                triggers: 1,
                control_drops: 2,
                unm_deliveries: 1,
                stranded_flows: m.stranded.len() as u64,
            }
        );
        assert_eq!(m.stranded, vec![FlowId(3)]);
        assert_eq!(m.completions(), &[(at(6), FlowId(0), Version(2))]);
    }
}
