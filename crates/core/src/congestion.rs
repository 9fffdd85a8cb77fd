//! The local, dynamic congestion scheduler (§7.4, §A.2).
//!
//! Congestion freedom has inter-flow dependencies: moving flow `f` onto
//! link `e` needs capacity that might only appear once some flow `g` moves
//! *off* `e`. Prior systems resolve this with a centrally computed
//! dependency graph; P4Update resolves it locally and dynamically:
//!
//! - a flow blocked from moving onto `e` parks at `e`'s wait queue, and all
//!   flows currently on `e` that want to move away are raised to high
//!   priority;
//! - a low-priority flow may move onto `e` (given capacity) only when no
//!   high-priority flow is waiting for `e`;
//! - high-priority flows move immediately when capacity suffices;
//! - whenever capacity on `e` is released, parked flows are retried, high
//!   priority first (FIFO within a class).
//!
//! The scheduler is a per-switch data structure; priorities live in the UIB
//! (`flow_priority` register) and are read through a callback so tests can
//! drive it without a full switch.

use p4update_dataplane::FlowPriority;
use p4update_net::{FlowId, NodeId};
use std::collections::BTreeMap;

/// Per-switch wait queues: flows parked per outgoing link.
#[derive(Debug, Clone, Default)]
pub struct CongestionScheduler {
    waiting: BTreeMap<NodeId, Vec<FlowId>>,
}

impl CongestionScheduler {
    /// Empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// §7.4's priority rule: whether `flow`, at `priority`, must yield the
    /// link toward `to` to a high-priority flow waiting for it. A high flow
    /// never yields, and a flow never yields to its own waiting entry.
    /// Whether the flow fits is the reservation's question
    /// ([`p4update_dataplane::SwitchState::reserve_capacity`]), asked after
    /// this one.
    pub fn must_yield(
        &self,
        flow: FlowId,
        to: NodeId,
        priority: FlowPriority,
        priority_of: impl Fn(FlowId) -> FlowPriority,
    ) -> bool {
        priority == FlowPriority::Low
            && self
                .waiting
                .get(&to)
                .into_iter()
                .flatten()
                .any(|&f| f != flow && priority_of(f) == FlowPriority::High)
    }

    /// Park `flow` in the wait queue of the link toward `to` (idempotent).
    pub fn park(&mut self, to: NodeId, flow: FlowId) {
        let q = self.waiting.entry(to).or_default();
        if !q.contains(&flow) {
            q.push(flow);
        }
    }

    /// Remove and return the parked flows for `to`, high-priority first,
    /// FIFO within each class. Callers retry each and re-park the still
    /// blocked ones.
    pub fn drain(
        &mut self,
        to: NodeId,
        priority_of: impl Fn(FlowId) -> FlowPriority,
    ) -> Vec<FlowId> {
        let Some(q) = self.waiting.remove(&to) else {
            return Vec::new();
        };
        let (mut high, low): (Vec<FlowId>, Vec<FlowId>) = q
            .into_iter()
            .partition(|&f| priority_of(f) == FlowPriority::High);
        high.extend(low);
        high
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lows(_: FlowId) -> FlowPriority {
        FlowPriority::Low
    }

    #[test]
    fn low_priority_yields_to_waiting_high() {
        let mut s = CongestionScheduler::new();
        s.park(NodeId(0), FlowId(9));
        let prio = |f: FlowId| {
            if f == FlowId(9) {
                FlowPriority::High
            } else {
                FlowPriority::Low
            }
        };
        assert!(s.must_yield(FlowId(1), NodeId(0), FlowPriority::Low, prio));
        // The high flow itself goes.
        assert!(!s.must_yield(FlowId(9), NodeId(0), FlowPriority::High, prio));
        // A different link is unaffected.
        assert!(!s.must_yield(FlowId(1), NodeId(2), FlowPriority::Low, prio));
    }

    #[test]
    fn high_priority_moves_immediately() {
        let mut s = CongestionScheduler::new();
        s.park(NodeId(0), FlowId(9));
        // Even with another high flow waiting, a high flow does not yield
        // (§7.4: "high priority flows can move immediately with sufficient
        // capacity").
        let prio = |_: FlowId| FlowPriority::High;
        assert!(!s.must_yield(FlowId(1), NodeId(0), FlowPriority::High, prio));
    }

    #[test]
    fn own_waiting_entry_does_not_self_block() {
        let mut s = CongestionScheduler::new();
        s.park(NodeId(0), FlowId(1));
        let prio = |f: FlowId| {
            if f == FlowId(1) {
                FlowPriority::High
            } else {
                FlowPriority::Low
            }
        };
        // FlowId(1)'s own entry reads high, yet a retry of FlowId(1) at low
        // priority does not yield to it.
        assert!(!s.must_yield(FlowId(1), NodeId(0), FlowPriority::Low, prio));
    }

    #[test]
    fn park_is_idempotent() {
        let mut s = CongestionScheduler::new();
        s.park(NodeId(0), FlowId(1));
        s.park(NodeId(0), FlowId(1));
        assert_eq!(s.waiting, BTreeMap::from([(NodeId(0), vec![FlowId(1)])]));
    }

    #[test]
    fn drain_orders_high_first_fifo_within_class() {
        let mut s = CongestionScheduler::new();
        for f in [1u32, 2, 3, 4] {
            s.park(NodeId(0), FlowId(f));
        }
        let prio = |f: FlowId| {
            if f == FlowId(2) || f == FlowId(4) {
                FlowPriority::High
            } else {
                FlowPriority::Low
            }
        };
        let order = s.drain(NodeId(0), prio);
        assert_eq!(order, vec![FlowId(2), FlowId(4), FlowId(1), FlowId(3)]);
        assert!(s.waiting.is_empty());
        assert!(s.drain(NodeId(0), lows).is_empty());
    }
}
