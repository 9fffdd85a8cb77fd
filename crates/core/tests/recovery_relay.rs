#[test]
fn recovery_relay_through_applied_node() {
    use p4update_core::P4UpdateLogic;
    use p4update_dataplane::{Endpoint, Switch};
    use p4update_des::{SimDuration, SimTime};
    use p4update_messages::*;
    use p4update_net::{FlowId, NodeId, TopologyBuilder, Version};
    let mut b = TopologyBuilder::new("l3");
    let v: Vec<_> = (0..3).map(|i| b.add_node(format!("n{i}"))).collect();
    b.add_link(v[0], v[1], SimDuration::from_millis(1), 10.0);
    b.add_link(v[1], v[2], SimDuration::from_millis(1), 10.0);
    let t = b.build();
    let mut s1 = Switch::new(NodeId(1), &t, Box::new(P4UpdateLogic::new()));
    // v1 already applied version 2 (distance 1, next 2, upstream 0).
    s1.state.uib.update(FlowId(0), |e| {
        e.uim_version = Version(2);
        e.uim_distance = 1;
        e.uim_kind = Some(UpdateKind::Single);
        e.staged_next_hop = Some(NodeId(2)).into();
        e.staged_upstream = Some(NodeId(0)).into();
        e.applied_version = Version(2);
        e.applied_distance = 1;
        e.active_next_hop = Some(NodeId(2)).into();
        e.active_upstream = Some(NodeId(0)).into();
        e.old_version = Version(2);
        e.old_distance = 1;
        e.last_update_type = Some(UpdateKind::Single);
        e.flow_size = 1.0;
    });
    // Regenerated UNM from the egress v2.
    let unm = Message::Unm(Unm {
        flow: FlowId(0),
        v_new: Version(2),
        v_old: Version(2),
        d_new: 0,
        d_old: 0,
        counter: 0,
        kind: UpdateKind::Single,
        layer: UnmLayer::Intra,
    });
    let effects = s1.handle_message(SimTime::ZERO, Endpoint::Switch(NodeId(2)), unm);
    println!("effects: {effects:?}");
    assert!(
        effects.iter().any(
            |e| matches!(e, p4update_dataplane::Effect::SendSwitch { to, .. } if *to == NodeId(0))
        ),
        "must relay upstream, got {effects:?}"
    );
}
