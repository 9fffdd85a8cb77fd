//! The Central baseline (§9.1 "Centralized Updates"): the state-of-the-art
//! centralized approach in the spirit of Mahajan–Wattenhofer/Dionysus
//! dependency graphs.
//!
//! The controller greedily computes, per round, the set of nodes that can
//! update in parallel without breaking blackhole/loop freedom (and without
//! violating capacity when congestion awareness is on), pushes their rules,
//! waits for every acknowledgement, and repeats. Every round costs a
//! control-plane round trip plus controller queueing — the overhead
//! P4Update eliminates.

use p4update_dataplane::{ControllerLogic, CtrlEffect, Effect, Endpoint, SwitchLogic, SwitchState};
use p4update_des::SimTime;
use p4update_messages::{CentralMsg, Message};
use p4update_net::{FlowId, FlowUpdate, NodeId, Version, CAPACITY_SLACK};
use std::collections::{BTreeMap, BTreeSet};

/// Per-flow migration state at the controller.
#[derive(Debug, Clone)]
struct FlowMigration {
    update: FlowUpdate,
    /// Nodes whose new rule is installed and acknowledged.
    applied: BTreeSet<NodeId>,
    /// Nodes scheduled in the in-flight round, awaiting acks.
    in_flight: BTreeSet<NodeId>,
    round: u32,
    complete: bool,
}

impl FlowMigration {
    /// The next hop of `node` in the mixed state where `extra` is assumed
    /// updated on top of the acknowledged set: new rule if updated, else
    /// the old rule if the node is on the old path.
    fn mixed_next_hop(&self, node: NodeId, extra: Option<NodeId>) -> Option<NodeId> {
        if self.applied.contains(&node) || extra == Some(node) {
            return self.update.new_path.successor(node);
        }
        self.update
            .old_path
            .as_ref()
            .and_then(|p| p.successor(node))
    }

    /// Whether `node` holds any rule (old or new) in the acknowledged
    /// state. Nodes scheduled in the same round may apply in any order, so
    /// no optimism about them is allowed.
    fn has_rule(&self, node: NodeId) -> bool {
        if self.applied.contains(&node) {
            return true;
        }
        if node == self.update.new_path.egress() {
            return true; // egress terminates in every configuration
        }
        self.update
            .old_path
            .as_ref()
            .is_some_and(|p| p.contains(node))
    }

    /// Can `node` switch to its new rule given only the acknowledged
    /// rounds, without creating a blackhole or a loop? Judging each
    /// candidate against the acknowledged state alone keeps every
    /// intra-round interleaving safe.
    fn safe_to_update(&self, node: NodeId) -> bool {
        // Blackhole freedom: the node's new parent must already hold a
        // rule (same-round peers may apply later than this node).
        if let Some(parent) = self.update.new_path.successor(node) {
            if !self.has_rule(parent) {
                return false;
            }
        }
        // Loop freedom: the mixed forwarding function with `node` updated
        // must be acyclic from every ruled node (packets can be in flight
        // anywhere on the old path).
        let limit = self.update.new_path.nodes().len()
            + self.update.old_path.as_ref().map_or(0, |p| p.nodes().len())
            + 2;
        let starts: Vec<NodeId> = self
            .update
            .new_path
            .nodes()
            .iter()
            .chain(
                self.update
                    .old_path
                    .as_ref()
                    .map_or([].as_slice(), |p| p.nodes())
                    .iter(),
            )
            .copied()
            .collect();
        let egress = self.update.new_path.egress();
        for start in starts {
            let mut cur = start;
            let mut steps = 0usize;
            while cur != egress {
                let Some(next) = self.mixed_next_hop(cur, Some(node)) else {
                    break; // no rule: a transient blackhole, not a loop
                };
                cur = next;
                steps += 1;
                if steps > limit {
                    return false; // walked into a cycle
                }
            }
        }
        true
    }
}

/// The Central controller.
pub struct CentralController {
    flows: BTreeMap<FlowId, FlowMigration>,
    /// Global per-directed-link free capacity (controller's view); present
    /// only when congestion awareness is enabled.
    capacity: Option<BTreeMap<(NodeId, NodeId), f64>>,
}

impl CentralController {
    /// Controller without congestion awareness (blackhole/loop only).
    pub fn new() -> Self {
        CentralController {
            flows: BTreeMap::new(),
            capacity: None,
        }
    }

    /// Controller with a global capacity view seeded from link capacities
    /// minus the old paths' allocations.
    pub fn with_congestion(capacity: BTreeMap<(NodeId, NodeId), f64>) -> Self {
        CentralController {
            flows: BTreeMap::new(),
            capacity: Some(capacity),
        }
    }

    /// Greedily select the nodes of the next round for `flow` and emit
    /// their installation commands.
    fn schedule_round(&mut self, flow: FlowId, out: &mut Vec<CtrlEffect>) {
        let Some(m) = self.flows.get(&flow) else {
            return;
        };
        if m.complete || !m.in_flight.is_empty() {
            return;
        }
        let pending: Vec<NodeId> = m
            .update
            .nodes_to_update()
            .filter(|n| !m.applied.contains(n))
            .collect();
        if pending.is_empty() {
            let m = self.flows.get_mut(&flow).expect("checked above");
            m.complete = true;
            // Central does not track versions; it reports `Version(2)`
            // (the post-update config).
            out.push(CtrlEffect::UpdateComplete {
                flow,
                version: Version(2),
            });
            return;
        }

        // Greedy selection, scanning from the egress end (upstream nodes
        // depend on downstream ones).
        let mut selected: BTreeSet<NodeId> = BTreeSet::new();
        for &node in pending.iter().rev() {
            if !m.safe_to_update(node) {
                continue;
            }
            // Capacity feasibility under congestion awareness: the move
            // claims the new outgoing link before releasing the old one.
            if let Some(cap) = &self.capacity {
                let new_hop = m.update.new_path.successor(node);
                let old_hop = m.update.old_path.as_ref().and_then(|p| p.successor(node));
                if let Some(nh) = new_hop {
                    if Some(nh) != old_hop {
                        let free = cap.get(&(node, nh)).copied().unwrap_or(f64::INFINITY);
                        if free + CAPACITY_SLACK < m.update.size {
                            continue;
                        }
                    }
                }
            }
            selected.insert(node);
            // Reserve immediately so later selections in this round see it.
            if let Some(cap) = &mut self.capacity {
                let new_hop = m.update.new_path.successor(node);
                let old_hop = m.update.old_path.as_ref().and_then(|p| p.successor(node));
                if let (Some(nh), true) = (new_hop, new_hop != old_hop) {
                    if let Some(c) = cap.get_mut(&(node, nh)) {
                        *c -= m.update.size;
                    }
                }
            }
        }

        if selected.is_empty() {
            // Deadlocked (e.g., capacity-infeasible order). Leave pending;
            // progress may resume when other flows release capacity.
            return;
        }

        let m = self.flows.get_mut(&flow).expect("checked above");
        m.round += 1;
        let round = m.round;
        m.in_flight = selected.clone();
        let size = m.update.size;
        let hops: Vec<(NodeId, Option<NodeId>)> = selected
            .iter()
            .map(|&n| (n, m.update.new_path.successor(n)))
            .collect();
        for (node, next_hop) in hops {
            out.push(CtrlEffect::Send {
                to: node,
                msg: Message::Central(CentralMsg::Install {
                    flow,
                    next_hop,
                    round,
                    size,
                }),
            });
        }
    }

    /// Retry rounds for flows that made no progress (capacity waits).
    fn reschedule_stalled(&mut self, out: &mut Vec<CtrlEffect>) {
        let stalled: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, m)| !m.complete && m.in_flight.is_empty())
            .map(|(&f, _)| f)
            .collect();
        for f in stalled {
            self.schedule_round(f, out);
        }
    }
}

impl Default for CentralController {
    fn default() -> Self {
        Self::new()
    }
}

impl ControllerLogic for CentralController {
    fn start_update(&mut self, _now: SimTime, updates: &[FlowUpdate], out: &mut Vec<CtrlEffect>) {
        for u in updates {
            self.flows.insert(
                u.flow,
                FlowMigration {
                    update: u.clone(),
                    applied: BTreeSet::new(),
                    in_flight: BTreeSet::new(),
                    round: 0,
                    complete: false,
                },
            );
        }
        let flows: Vec<FlowId> = updates.iter().map(|u| u.flow).collect();
        for f in flows {
            self.schedule_round(f, out);
        }
    }

    fn on_message(&mut self, _now: SimTime, from: NodeId, msg: Message, out: &mut Vec<CtrlEffect>) {
        let Message::Central(CentralMsg::Ack { flow, node, round }) = msg else {
            return;
        };
        assert_eq!(from, node);
        let Some(m) = self.flows.get_mut(&flow) else {
            return;
        };
        if round != m.round {
            return; // stale ack
        }
        if m.in_flight.remove(&node) {
            m.applied.insert(node);
            // Release the old outgoing link once the node left it.
            if let Some(cap) = &mut self.capacity {
                let old_hop = m.update.old_path.as_ref().and_then(|p| p.successor(node));
                let new_hop = m.update.new_path.successor(node);
                if let (Some(oh), true) = (old_hop, old_hop != new_hop) {
                    if let Some(c) = cap.get_mut(&(node, oh)) {
                        *c += m.update.size;
                    }
                }
            }
        }
        if m.in_flight.is_empty() {
            self.schedule_round(flow, out);
            // Capacity released by this round may unblock other flows.
            if self.capacity.is_some() {
                self.reschedule_stalled(out);
            }
        }
    }
}

/// The Central switch logic: install on command, acknowledge on completion.
#[derive(Debug, Default)]
pub struct CentralSwitchLogic {
    pending: BTreeMap<u64, (FlowId, Option<NodeId>, u32, f64)>,
    next_token: u64,
}

impl CentralSwitchLogic {
    /// Fresh logic.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SwitchLogic for CentralSwitchLogic {
    fn on_control(
        &mut self,
        _now: SimTime,
        _state: &mut SwitchState,
        _from: Endpoint,
        msg: Message,
        out: &mut Vec<Effect>,
    ) {
        let Message::Central(CentralMsg::Install {
            flow,
            next_hop,
            round,
            size,
        }) = msg
        else {
            return;
        };
        let token = self.next_token;
        self.next_token += 1;
        self.pending.insert(token, (flow, next_hop, round, size));
        out.push(Effect::BeginInstall { flow, token });
    }

    fn on_installed(
        &mut self,
        _now: SimTime,
        state: &mut SwitchState,
        flow: FlowId,
        token: u64,
        out: &mut Vec<Effect>,
    ) {
        let Some((f, next_hop, round, size)) = self.pending.remove(&token) else {
            return;
        };
        assert_eq!(f, flow);
        // Move capacity accounting from the old link to the new one.
        let entry = state.uib.read(flow);
        if let Some(old) = entry.active_next_hop {
            if Some(old) != next_hop {
                state.release_capacity(old, entry.flow_size.max(size));
            }
        }
        if let Some(new) = next_hop {
            if entry.active_next_hop != Some(new) {
                state.reserve_capacity(new, size);
            }
        }
        state.uib.update(flow, |e| {
            e.applied_version = Version(e.applied_version.0.max(1) + 1);
            e.active_next_hop = next_hop;
            if e.flow_size == 0.0 {
                e.flow_size = size;
            }
        });
        out.push(Effect::SendController {
            msg: Message::Central(CentralMsg::Ack {
                flow,
                node: state.id,
                round,
            }),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4update_net::Path;

    fn path(ids: &[u32]) -> Path {
        Path::new(ids.iter().map(|&i| NodeId(i)).collect())
    }

    fn update(old: &[u32], new: &[u32]) -> FlowUpdate {
        FlowUpdate::new(FlowId(0), Some(path(old)), path(new), 1.0)
    }

    fn sent_nodes(effects: &[CtrlEffect]) -> Vec<NodeId> {
        effects
            .iter()
            .filter_map(|e| match e {
                CtrlEffect::Send { to, .. } => Some(*to),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn first_round_covers_safe_nodes() {
        // Old 0-1-5, new 0-2-3-5: 2 and 3 are fresh (need rules bottom-up);
        // 0 must wait for 2.
        let mut c = CentralController::new();
        let mut out = Vec::new();
        c.start_update(
            SimTime::ZERO,
            &[update(&[0, 1, 5], &[0, 2, 3, 5])],
            &mut out,
        );
        // Round 1: node 3 can point at 5 (egress, has rule). Node 2's
        // parent 3 has no rule yet; node 0's parent 2 neither.
        assert_eq!(sent_nodes(&out), vec![NodeId(3)]);
    }

    #[test]
    fn rounds_progress_with_acks() {
        let mut c = CentralController::new();
        let mut out = Vec::new();
        c.start_update(
            SimTime::ZERO,
            &[update(&[0, 1, 5], &[0, 2, 3, 5])],
            &mut out,
        );
        let mut round = 1;
        let mut total_rounds = 1;
        loop {
            let nodes = sent_nodes(&out);
            if nodes.is_empty() {
                break;
            }
            out.clear();
            for n in nodes {
                c.on_message(
                    SimTime::ZERO,
                    n,
                    Message::Central(CentralMsg::Ack {
                        flow: FlowId(0),
                        node: n,
                        round,
                    }),
                    &mut out,
                );
            }
            if out
                .iter()
                .any(|e| matches!(e, CtrlEffect::UpdateComplete { .. }))
            {
                break;
            }
            round += 1;
            total_rounds += 1;
            assert!(total_rounds < 10, "did not converge");
        }
        // Fresh chain of 2 + ingress flip = 3 rounds.
        assert_eq!(total_rounds, 3);
        assert!(out.iter().any(|e| matches!(
            e,
            CtrlEffect::UpdateComplete {
                flow: FlowId(0),
                version: Version(2)
            }
        )));
    }

    #[test]
    fn loop_risk_defers_upstream_node() {
        // Fig. 1: v2's new parent v3 is fresh; updating v2 before the
        // backward dependency resolves would loop. Round 1 must not
        // contain v2 (whose flip creates 2->3->4->2 with old rules).
        let u = update(&[0, 4, 2, 7], &[0, 1, 2, 3, 4, 5, 6, 7]);
        let mut c = CentralController::new();
        let mut out = Vec::new();
        c.start_update(SimTime::ZERO, &[u], &mut out);
        let nodes = sent_nodes(&out);
        assert!(!nodes.contains(&NodeId(2)), "round 1 was {nodes:?}");
        // Downstream fresh nodes adjacent to ruled parents do go.
        assert!(nodes.contains(&NodeId(6)));
    }

    #[test]
    fn stale_acks_are_ignored() {
        let mut c = CentralController::new();
        let mut out = Vec::new();
        c.start_update(
            SimTime::ZERO,
            &[update(&[0, 1, 5], &[0, 2, 3, 5])],
            &mut out,
        );
        out.clear();
        c.on_message(
            SimTime::ZERO,
            NodeId(3),
            Message::Central(CentralMsg::Ack {
                flow: FlowId(0),
                node: NodeId(3),
                round: 99,
            }),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn congestion_awareness_defers_capacity_violations() {
        // Node 0 moves flow onto link (0,2) with free capacity 0.5 < 1.0.
        let mut cap = BTreeMap::new();
        cap.insert((NodeId(0), NodeId(2)), 0.5);
        let mut c = CentralController::with_congestion(cap);
        let mut out = Vec::new();
        c.start_update(SimTime::ZERO, &[update(&[0, 1, 2], &[0, 2])], &mut out);
        // The only node to update is 0, and it does not fit.
        assert!(sent_nodes(&out).is_empty());
    }

    #[test]
    fn switch_logic_installs_and_acks() {
        use p4update_dataplane::Switch;
        use p4update_des::SimDuration;
        use p4update_net::TopologyBuilder;
        let mut b = TopologyBuilder::new("t");
        let v: Vec<_> = (0..3).map(|i| b.add_node(format!("n{i}"))).collect();
        b.add_link(v[0], v[1], SimDuration::from_millis(1), 10.0);
        b.add_link(v[1], v[2], SimDuration::from_millis(1), 10.0);
        let t = b.build();
        let mut sw = Switch::new(NodeId(1), &t, Box::new(CentralSwitchLogic::new()));
        let effects = sw.handle_message(
            SimTime::ZERO,
            Endpoint::Controller,
            Message::Central(CentralMsg::Install {
                flow: FlowId(0),
                next_hop: Some(NodeId(2)),
                round: 1,
                size: 1.0,
            }),
        );
        let token = match effects[0] {
            Effect::BeginInstall { token, .. } => token,
            ref o => panic!("unexpected {o:?}"),
        };
        let effects = sw.handle_installed(SimTime::ZERO, FlowId(0), token);
        assert!(matches!(
            &effects[0],
            Effect::SendController {
                msg: Message::Central(CentralMsg::Ack { node, round: 1, .. })
            } if *node == NodeId(1)
        ));
        assert_eq!(
            sw.state.uib.read(FlowId(0)).active_next_hop,
            Some(NodeId(2))
        );
    }
}
