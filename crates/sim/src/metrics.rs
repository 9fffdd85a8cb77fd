//! Measurement collection: packet traces (Fig. 2's sequence plots), flow
//! update completion times (Fig. 4 / Fig. 7), alarms, and drop accounting.
//!
//! Collection goes through the [`MetricsSink`] seam so callers choose
//! fidelity per run:
//!
//! - [`Metrics`] — the full-recording sink: every packet arrival,
//!   delivery, and drop is kept as an event series. Tests and figure
//!   regeneration depend on these series; memory grows with traffic.
//! - [`StreamingMetrics`] — O(1)-memory sink for scale runs: per-packet
//!   series become counters, while completions and alarms (bounded by
//!   the number of flow updates, not by traffic) stay exact.
//! - [`NullMetrics`] — records nothing; pure-throughput measurements.
//!
//! Sinks are observation-only: no simulation decision reads a sink, so
//! swapping sinks can never perturb event order (the equivalence test in
//! `tests/sink_equivalence.rs` pins this).

use p4update_dataplane::DropReason;
use p4update_des::SimTime;
use p4update_messages::{DataPacket, RejectReason};
use p4update_net::{FlowId, NodeId, Version};

/// Aggregate counters every sink can report cheaply.
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

/// Where the simulated network reports its measurements.
///
/// The `record_*` half is called by `sim::network` on the hot path; the
/// query half is what experiment harnesses read afterwards. Completions
/// and alarms are `O(#updates)`, so every sink (except the null sink)
/// keeps them exact — the multi-flow completion-time metric must not
/// depend on which fidelity was chosen.
pub trait MetricsSink {
    /// A data packet arrived at a switch.
    fn record_arrival(&mut self, t: SimTime, node: NodeId, pkt: DataPacket);
    /// A data packet was delivered at its egress.
    fn record_delivery(&mut self, t: SimTime, node: NodeId, pkt: DataPacket);
    /// A data packet was dropped.
    fn record_drop(&mut self, t: SimTime, node: NodeId, pkt: DataPacket, reason: DropReason);
    /// The controller learned a flow update completed.
    fn record_completion(&mut self, t: SimTime, flow: FlowId, version: Version);
    /// The controller received an alarm.
    fn record_alarm(&mut self, t: SimTime, flow: FlowId, reason: RejectReason);
    /// A batch trigger fired.
    fn record_trigger(&mut self, t: SimTime, batch: usize);
    /// A control message was lost to fault injection.
    fn record_control_drop(&mut self);
    /// An update notification (UNM) was delivered at a switch.
    fn record_unm_delivery(&mut self, t: SimTime, node: NodeId);
    /// A flow's triggered update never completed within the run (end-of-
    /// run accounting; see `NetworkSim::record_stranded_flows`).
    fn record_stranded(&mut self, flow: FlowId);

    /// Aggregate counters.
    fn counts(&self) -> MetricsCounts;
    /// Completion events `(time, flow, version)`; empty for the null sink.
    fn completions(&self) -> &[(SimTime, FlowId, Version)];
    /// Alarm events `(time, flow, reason)`; empty for the null sink.
    fn alarms(&self) -> &[(SimTime, FlowId, RejectReason)];
    /// Flows recorded as stranded; empty for the null sink.
    fn stranded(&self) -> &[FlowId];

    /// Downcast to the full-recording sink, when this is one. The
    /// harness's `NetworkSim::metrics()` convenience goes through here.
    fn as_full(&self) -> Option<&Metrics> {
        None
    }

    /// Completion time of `flow` at `version`, if it completed.
    fn completion_of(&self, flow: FlowId, version: Version) -> Option<SimTime> {
        self.completions()
            .iter()
            .find(|&&(_, f, v)| f == flow && v == version)
            .map(|&(t, _, _)| t)
    }

    /// Completion time of the *last* flow among `flows` (the multi-flow
    /// metric), if all completed.
    fn last_completion(&self, flows: &[FlowId]) -> Option<SimTime> {
        let mut last = SimTime::ZERO;
        for &f in flows {
            let t = self
                .completions()
                .iter()
                .filter(|&&(_, g, _)| g == f)
                .map(|&(t, _, _)| t)
                .max()?;
            last = last.max(t);
        }
        Some(last)
    }
}

/// All measurements of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
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
    /// Trigger times per batch index.
    pub triggers: Vec<(SimTime, usize)>,
    /// Control messages lost to fault injection.
    pub control_drops: u64,
    /// Update-notification deliveries per switch (diagnostics for loss
    /// recovery analysis).
    pub unm_deliveries: Vec<(SimTime, NodeId)>,
    /// Flows whose triggered update never completed within the run.
    pub stranded: Vec<FlowId>,
}

impl MetricsSink for Metrics {
    fn record_arrival(&mut self, t: SimTime, node: NodeId, pkt: DataPacket) {
        self.arrivals.push((t, node, pkt));
    }

    fn record_delivery(&mut self, t: SimTime, node: NodeId, pkt: DataPacket) {
        self.deliveries.push((t, node, pkt));
    }

    fn record_drop(&mut self, t: SimTime, node: NodeId, pkt: DataPacket, reason: DropReason) {
        self.drops.push((t, node, pkt, reason));
    }

    fn record_completion(&mut self, t: SimTime, flow: FlowId, version: Version) {
        self.completions.push((t, flow, version));
    }

    fn record_alarm(&mut self, t: SimTime, flow: FlowId, reason: RejectReason) {
        self.alarms.push((t, flow, reason));
    }

    fn record_trigger(&mut self, t: SimTime, batch: usize) {
        self.triggers.push((t, batch));
    }

    fn record_control_drop(&mut self) {
        self.control_drops += 1;
    }

    fn record_unm_delivery(&mut self, t: SimTime, node: NodeId) {
        self.unm_deliveries.push((t, node));
    }

    fn record_stranded(&mut self, flow: FlowId) {
        self.stranded.push(flow);
    }

    fn counts(&self) -> MetricsCounts {
        MetricsCounts {
            arrivals: self.arrivals.len() as u64,
            deliveries: self.deliveries.len() as u64,
            drops: self.drops.len() as u64,
            ttl_deaths: self.ttl_deaths() as u64,
            completions: self.completions.len() as u64,
            alarms: self.alarms.len() as u64,
            triggers: self.triggers.len() as u64,
            control_drops: self.control_drops,
            unm_deliveries: self.unm_deliveries.len() as u64,
            stranded_flows: self.stranded.len() as u64,
        }
    }

    fn completions(&self) -> &[(SimTime, FlowId, Version)] {
        &self.completions
    }

    fn alarms(&self) -> &[(SimTime, FlowId, RejectReason)] {
        &self.alarms
    }

    fn stranded(&self) -> &[FlowId] {
        &self.stranded
    }

    fn as_full(&self) -> Option<&Metrics> {
        Some(self)
    }
}

impl Metrics {
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

    /// Number of TTL-expiry drops (loop deaths).
    pub fn ttl_deaths(&self) -> usize {
        self.drops
            .iter()
            .filter(|&&(_, _, _, r)| r == DropReason::TtlExpired)
            .count()
    }
}

/// O(1)-memory sink for scale runs: per-packet series become counters,
/// while completions and alarms stay exact event lists (bounded by the
/// number of flow updates).
#[derive(Debug, Clone, Default)]
pub struct StreamingMetrics {
    counts: MetricsCounts,
    completions: Vec<(SimTime, FlowId, Version)>,
    alarms: Vec<(SimTime, FlowId, RejectReason)>,
    stranded: Vec<FlowId>,
}

impl StreamingMetrics {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MetricsSink for StreamingMetrics {
    fn record_arrival(&mut self, _t: SimTime, _node: NodeId, _pkt: DataPacket) {
        self.counts.arrivals += 1;
    }

    fn record_delivery(&mut self, _t: SimTime, _node: NodeId, _pkt: DataPacket) {
        self.counts.deliveries += 1;
    }

    fn record_drop(&mut self, _t: SimTime, _node: NodeId, _pkt: DataPacket, reason: DropReason) {
        self.counts.drops += 1;
        if reason == DropReason::TtlExpired {
            self.counts.ttl_deaths += 1;
        }
    }

    fn record_completion(&mut self, t: SimTime, flow: FlowId, version: Version) {
        self.counts.completions += 1;
        self.completions.push((t, flow, version));
    }

    fn record_alarm(&mut self, t: SimTime, flow: FlowId, reason: RejectReason) {
        self.counts.alarms += 1;
        self.alarms.push((t, flow, reason));
    }

    fn record_trigger(&mut self, _t: SimTime, _batch: usize) {
        self.counts.triggers += 1;
    }

    fn record_control_drop(&mut self) {
        self.counts.control_drops += 1;
    }

    fn record_unm_delivery(&mut self, _t: SimTime, _node: NodeId) {
        self.counts.unm_deliveries += 1;
    }

    fn record_stranded(&mut self, flow: FlowId) {
        self.counts.stranded_flows += 1;
        self.stranded.push(flow);
    }

    fn counts(&self) -> MetricsCounts {
        self.counts
    }

    fn completions(&self) -> &[(SimTime, FlowId, Version)] {
        &self.completions
    }

    fn alarms(&self) -> &[(SimTime, FlowId, RejectReason)] {
        &self.alarms
    }

    fn stranded(&self) -> &[FlowId] {
        &self.stranded
    }
}

/// Records nothing; for pure-throughput measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMetrics;

impl MetricsSink for NullMetrics {
    fn record_arrival(&mut self, _t: SimTime, _node: NodeId, _pkt: DataPacket) {}
    fn record_delivery(&mut self, _t: SimTime, _node: NodeId, _pkt: DataPacket) {}
    fn record_drop(&mut self, _t: SimTime, _node: NodeId, _pkt: DataPacket, _reason: DropReason) {}
    fn record_completion(&mut self, _t: SimTime, _flow: FlowId, _version: Version) {}
    fn record_alarm(&mut self, _t: SimTime, _flow: FlowId, _reason: RejectReason) {}
    fn record_trigger(&mut self, _t: SimTime, _batch: usize) {}
    fn record_control_drop(&mut self) {}
    fn record_unm_delivery(&mut self, _t: SimTime, _node: NodeId) {}
    fn record_stranded(&mut self, _flow: FlowId) {}

    fn counts(&self) -> MetricsCounts {
        MetricsCounts::default()
    }

    fn completions(&self) -> &[(SimTime, FlowId, Version)] {
        &[]
    }

    fn alarms(&self) -> &[(SimTime, FlowId, RejectReason)] {
        &[]
    }

    fn stranded(&self) -> &[FlowId] {
        &[]
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

    #[test]
    fn ttl_deaths_count_only_ttl_drops() {
        let mut m = Metrics::default();
        m.record_drop(at(1), NodeId(0), pkt(1), DropReason::TtlExpired);
        m.record_drop(at(2), NodeId(0), pkt(2), DropReason::NoRule);
        assert_eq!(m.ttl_deaths(), 1);
    }

    /// Feed the same event stream to the full and streaming sinks: the
    /// aggregate counters, completions, and alarms must agree.
    #[test]
    fn streaming_sink_matches_full_sink_aggregates() {
        let mut full = Metrics::default();
        let mut streaming = StreamingMetrics::new();
        let sinks: [&mut dyn MetricsSink; 2] = [&mut full, &mut streaming];
        for sink in sinks {
            sink.record_trigger(at(0), 0);
            sink.record_arrival(at(1), NodeId(0), pkt(1));
            sink.record_arrival(at(2), NodeId(1), pkt(1));
            sink.record_delivery(at(3), NodeId(1), pkt(1));
            sink.record_drop(at(4), NodeId(0), pkt(2), DropReason::TtlExpired);
            sink.record_drop(at(5), NodeId(0), pkt(3), DropReason::NoRule);
            sink.record_completion(at(6), FlowId(0), Version(2));
            sink.record_alarm(at(7), FlowId(1), RejectReason::InsufficientCapacity);
            sink.record_control_drop();
            sink.record_unm_delivery(at(8), NodeId(1));
            sink.record_stranded(FlowId(3));
        }
        assert_eq!(full.counts(), streaming.counts());
        assert_eq!(full.counts().stranded_flows, 1);
        assert_eq!(
            MetricsSink::completions(&full),
            MetricsSink::completions(&streaming)
        );
        assert_eq!(MetricsSink::alarms(&full), MetricsSink::alarms(&streaming));
        assert_eq!(
            MetricsSink::stranded(&full),
            MetricsSink::stranded(&streaming)
        );
        assert_eq!(streaming.completion_of(FlowId(0), Version(2)), Some(at(6)));
        assert_eq!(streaming.last_completion(&[FlowId(0)]), Some(at(6)));
        assert!(full.as_full().is_some());
        assert!(streaming.as_full().is_none());
    }

    /// The streaming sink keeps nothing per packet, no matter how much
    /// traffic is recorded.
    #[test]
    fn streaming_sink_memory_is_bounded() {
        let mut s = StreamingMetrics::new();
        s.record_trigger(at(0), 0);
        for i in 0..100_000u64 {
            s.record_arrival(at(i), NodeId(0), pkt(i as u32));
            s.record_delivery(at(i + 1), NodeId(1), pkt(i as u32));
        }
        assert_eq!(s.counts().arrivals, 100_000);
        assert_eq!(s.counts().deliveries, 100_000);
        assert!(s.completions.is_empty());
    }

    #[test]
    fn null_sink_records_nothing() {
        let mut n = NullMetrics;
        n.record_arrival(at(1), NodeId(0), pkt(1));
        n.record_completion(at(2), FlowId(0), Version(2));
        n.record_control_drop();
        n.record_stranded(FlowId(0));
        assert_eq!(n.counts(), MetricsCounts::default());
        assert!(n.completions().is_empty());
        assert!(n.stranded().is_empty());
        assert_eq!(n.completion_of(FlowId(0), Version(2)), None);
    }
}
