//! The global consistency checker: the paper's three safety properties
//! (§5) as executable invariants over the simulated network state.
//!
//! The checker is the *oracle* the verification claims are tested against:
//! Theorems 1–4 and Corollaries 1–4 say P4Update never violates these
//! properties even under inconsistent, reordered, or lost control
//! messages; Fig. 2 shows ez-Segway does. Tests run the checker after
//! every event and assert presence or absence of violations accordingly.

use crate::table::SwitchTable;
use p4update_net::{FlowId, NodeId, Topology};
use std::collections::BTreeMap;

// The violation type itself lives in `p4update-core` (shared with the
// schedule explorer's trace corpus); re-exported here so harness users
// keep importing it from the checker.
pub use p4update_core::Violation;

/// Static facts about a flow the checker needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// The flow's ingress switch.
    pub ingress: NodeId,
    /// The flow's egress switch.
    pub egress: NodeId,
    /// The flow's size bound, in capacity units.
    pub size: f64,
}

/// Walk one flow's forwarding function from its ingress, collecting the
/// traversed directed links; reports a loop or blackhole if found.
fn walk_flow(
    flow: FlowId,
    spec: &FlowSpec,
    switches: &SwitchTable,
    usage: &mut BTreeMap<(NodeId, NodeId), f64>,
    out: &mut Vec<Violation>,
) {
    let mut visited: Vec<NodeId> = Vec::new();
    let mut cur = spec.ingress;
    loop {
        if let Some(pos) = visited.iter().position(|&n| n == cur) {
            out.push(Violation::Loop {
                flow,
                cycle: visited[pos..].to_vec(),
            });
            return;
        }
        visited.push(cur);
        let Some(sw) = switches.get(cur) else {
            out.push(Violation::Blackhole { flow, at: cur });
            return;
        };
        let entry = sw.state.uib.read(flow);
        if !entry.has_active_rule() {
            out.push(Violation::Blackhole { flow, at: cur });
            return;
        }
        match entry.active_next_hop {
            None => return, // delivered at this switch (egress role)
            Some(next) => {
                *usage.entry((cur, next)).or_insert(0.0) += spec.size;
                cur = next;
            }
        }
    }
}

/// Check all three properties over the current network state. Flows whose
/// ingress has no rule yet (pre-deployment) are skipped — blackhole
/// freedom is a property of *installed* flows.
pub fn check(
    topo: &Topology,
    switches: &SwitchTable,
    flows: &BTreeMap<FlowId, FlowSpec>,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut usage: BTreeMap<(NodeId, NodeId), f64> = BTreeMap::new();
    for (&flow, spec) in flows {
        let deployed = switches
            .get(spec.ingress)
            .is_some_and(|sw| sw.state.uib.read(flow).has_active_rule());
        if !deployed {
            continue;
        }
        walk_flow(flow, spec, switches, &mut usage, &mut violations);
    }
    for ((from, to), &load) in &usage {
        let capacity = topo
            .link_between(*from, *to)
            .map(|l| topo.link(l).capacity)
            .unwrap_or(0.0);
        // Not `CAPACITY_SLACK`: that bounds one fit test against a running
        // remainder, while `load` is a fresh sum of every flow on the link,
        // whose rounding grows with the number of terms; the oracle only
        // has to tell a real overload from that.
        if load > capacity + 1e-6 {
            violations.push(Violation::Congestion {
                from: *from,
                to: *to,
                load,
                capacity,
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4update_core::P4UpdateLogic;
    use p4update_dataplane::Switch;
    use p4update_des::SimDuration;
    use p4update_net::{TopologyBuilder, Version};

    fn ring4() -> Topology {
        let mut b = TopologyBuilder::new("ring");
        let v: Vec<_> = (0..4).map(|i| b.add_node(format!("n{i}"))).collect();
        b.add_link(v[0], v[1], SimDuration::from_millis(1), 2.0);
        b.add_link(v[1], v[2], SimDuration::from_millis(1), 2.0);
        b.add_link(v[2], v[3], SimDuration::from_millis(1), 2.0);
        b.add_link(v[3], v[1], SimDuration::from_millis(1), 2.0);
        b.build()
    }

    fn network(topo: &Topology) -> SwitchTable {
        SwitchTable::build(topo, |id| {
            Switch::new(id, topo, Box::new(P4UpdateLogic::new()))
        })
    }

    fn set_rule(switches: &mut SwitchTable, node: u32, flow: u32, next: Option<u32>) {
        switches
            .get_mut(NodeId(node))
            .unwrap()
            .state
            .uib
            .update(FlowId(flow), |e| {
                e.applied_version = Version(1);
                e.active_next_hop = next.map(NodeId);
            });
    }

    fn spec(ingress: u32, egress: u32, size: f64) -> FlowSpec {
        FlowSpec {
            ingress: NodeId(ingress),
            egress: NodeId(egress),
            size,
        }
    }

    #[test]
    fn clean_path_has_no_violations() {
        let topo = ring4();
        let mut sw = network(&topo);
        set_rule(&mut sw, 0, 0, Some(1));
        set_rule(&mut sw, 1, 0, Some(2));
        set_rule(&mut sw, 2, 0, None);
        let flows = BTreeMap::from([(FlowId(0), spec(0, 2, 1.0))]);
        assert!(check(&topo, &sw, &flows).is_empty());
    }

    #[test]
    fn undeployed_flow_is_skipped() {
        let topo = ring4();
        let sw = network(&topo);
        let flows = BTreeMap::from([(FlowId(0), spec(0, 2, 1.0))]);
        assert!(check(&topo, &sw, &flows).is_empty());
    }

    #[test]
    fn loop_is_detected_with_cycle_nodes() {
        let topo = ring4();
        let mut sw = network(&topo);
        // 0 -> 1 -> 2 -> 3 -> 1: cycle (1 2 3).
        set_rule(&mut sw, 0, 0, Some(1));
        set_rule(&mut sw, 1, 0, Some(2));
        set_rule(&mut sw, 2, 0, Some(3));
        set_rule(&mut sw, 3, 0, Some(1));
        let flows = BTreeMap::from([(FlowId(0), spec(0, 2, 1.0))]);
        let v = check(&topo, &sw, &flows);
        assert_eq!(v.len(), 1);
        match &v[0] {
            Violation::Loop { flow, cycle } => {
                assert_eq!(*flow, FlowId(0));
                assert_eq!(cycle, &[NodeId(1), NodeId(2), NodeId(3)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn blackhole_is_detected_mid_path() {
        let topo = ring4();
        let mut sw = network(&topo);
        set_rule(&mut sw, 0, 0, Some(1)); // 1 has no rule
        let flows = BTreeMap::from([(FlowId(0), spec(0, 2, 1.0))]);
        let v = check(&topo, &sw, &flows);
        assert_eq!(
            v,
            vec![Violation::Blackhole {
                flow: FlowId(0),
                at: NodeId(1)
            }]
        );
    }

    #[test]
    fn congestion_is_detected_per_directed_link() {
        let topo = ring4();
        let mut sw = network(&topo);
        // Two flows of size 1.5 on link (0,1) with capacity 2.0.
        for f in 0..2 {
            set_rule(&mut sw, 0, f, Some(1));
            set_rule(&mut sw, 1, f, None);
        }
        let flows = BTreeMap::from([(FlowId(0), spec(0, 1, 1.5)), (FlowId(1), spec(0, 1, 1.5))]);
        let v = check(&topo, &sw, &flows);
        assert_eq!(v.len(), 1);
        match &v[0] {
            Violation::Congestion {
                from,
                to,
                load,
                capacity,
            } => {
                assert_eq!((*from, *to), (NodeId(0), NodeId(1)));
                assert_eq!(*load, 3.0);
                assert_eq!(*capacity, 2.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn opposite_directions_do_not_share_capacity() {
        let topo = ring4();
        let mut sw = network(&topo);
        // Flow 0: 0->1; flow 1: 1->0. Each 1.5 on a 2.0 link: fine
        // full-duplex.
        set_rule(&mut sw, 0, 0, Some(1));
        set_rule(&mut sw, 1, 0, None);
        set_rule(&mut sw, 1, 1, Some(0));
        set_rule(&mut sw, 0, 1, None);
        let flows = BTreeMap::from([(FlowId(0), spec(0, 1, 1.5)), (FlowId(1), spec(1, 0, 1.5))]);
        assert!(check(&topo, &sw, &flows).is_empty());
    }
}
