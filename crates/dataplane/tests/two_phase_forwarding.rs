//! Chassis-level tests for the §11 two-phase-commit forwarding: tagged
//! packets follow exactly one rule generation.

use p4update_dataplane::{DropReason, Effect, Endpoint, Switch, SwitchLogic, SwitchState};
use p4update_des::{SimDuration, SimTime};
use p4update_messages::{DataPacket, Message};
use p4update_net::{FlowId, NodeId, Topology, TopologyBuilder, Version};

struct NullLogic;
impl SwitchLogic for NullLogic {
    fn on_control(
        &mut self,
        _now: SimTime,
        _state: &mut SwitchState,
        _from: Endpoint,
        _msg: Message,
        _out: &mut Vec<Effect>,
    ) {
    }
    fn on_installed(
        &mut self,
        _now: SimTime,
        _state: &mut SwitchState,
        _flow: FlowId,
        _token: u64,
        _out: &mut Vec<Effect>,
    ) {
    }
}

fn star4() -> Topology {
    let mut b = TopologyBuilder::new("star");
    let v: Vec<NodeId> = (0..4).map(|i| b.add_node(format!("n{i}"))).collect();
    for &n in &v[1..] {
        b.add_link(v[0], n, SimDuration::from_millis(1), 10.0);
    }
    b.build()
}

/// A switch with generation 2 active (-> n2) and generation 1 saved
/// (-> n1).
fn two_generation_switch() -> Switch<NullLogic> {
    let topo = star4();
    let mut sw = Switch::new(NodeId(0), &topo, Box::new(NullLogic));
    sw.state.uib.update(FlowId(0), |e| {
        e.uim_version = Version(1);
        e.uim_distance = 1;
        e.staged_next_hop = Some(NodeId(1)).into();
        e.apply_single(); // generation 1 -> n1
        e.uim_version = Version(2);
        e.uim_distance = 1;
        e.staged_next_hop = Some(NodeId(2)).into();
        e.apply_single(); // generation 2 -> n2, previous saved
    });
    sw
}

fn pkt(tag: Option<u32>) -> DataPacket {
    DataPacket {
        flow: FlowId(0),
        seq: 0,
        ttl: 64,
        tag: tag.map(Version),
    }
}

fn forward_target(sw: &mut Switch, p: DataPacket) -> Option<NodeId> {
    let effects = sw.handle_message(SimTime::ZERO, Endpoint::Switch(NodeId(3)), Message::Data(p));
    match effects.as_slice() {
        [Effect::ForwardData { to, .. }] => Some(*to),
        _ => None,
    }
}

#[test]
fn untagged_packets_follow_the_active_generation() {
    let mut sw = two_generation_switch();
    assert_eq!(forward_target(&mut sw, pkt(None)), Some(NodeId(2)));
}

#[test]
fn current_tag_follows_the_active_generation() {
    let mut sw = two_generation_switch();
    assert_eq!(forward_target(&mut sw, pkt(Some(2))), Some(NodeId(2)));
}

#[test]
fn previous_tag_follows_the_saved_generation() {
    let mut sw = two_generation_switch();
    assert_eq!(forward_target(&mut sw, pkt(Some(1))), Some(NodeId(1)));
}

#[test]
fn future_tag_follows_the_active_generation() {
    // A tag ahead of this switch (it has not applied that version yet)
    // forwards by the newest rule it has — the chain upstream guarantees
    // rules exist downstream before the ingress stamps the new version.
    let mut sw = two_generation_switch();
    assert_eq!(forward_target(&mut sw, pkt(Some(3))), Some(NodeId(2)));
}

#[test]
fn ancient_tag_is_dropped_as_blackhole() {
    // Only one previous generation is kept; versions older than it cannot
    // be served consistently and are dropped.
    let topo = star4();
    let mut sw = Switch::new(NodeId(0), &topo, Box::new(NullLogic));
    sw.state.uib.update(FlowId(0), |e| {
        for (v, hop) in [(1u32, 1u32), (2, 2), (3, 1)] {
            e.uim_version = Version(v);
            e.uim_distance = 1;
            e.staged_next_hop = Some(NodeId(hop)).into();
            e.apply_single();
        }
    });
    let effects = sw.handle_message(
        SimTime::ZERO,
        Endpoint::Switch(NodeId(3)),
        Message::Data(pkt(Some(1))),
    );
    assert!(matches!(
        effects.as_slice(),
        [Effect::PacketDropped {
            reason: DropReason::NoRule,
            ..
        }]
    ));
}

#[test]
fn stamping_happens_at_injection_when_enabled() {
    let mut sw = two_generation_switch();
    sw.enable_two_phase_commit();
    let mut effects = Vec::new();
    sw.inject_packet_into(SimTime::ZERO, pkt(None), NodeId(2), &mut effects);
    match effects.as_slice() {
        [Effect::ForwardData { pkt, .. }] => {
            assert_eq!(pkt.tag, Some(Version(2)), "ingress must stamp");
        }
        other => panic!("unexpected effects {other:?}"),
    }
}

#[test]
fn no_stamping_without_the_mode() {
    let mut sw = two_generation_switch();
    let mut effects = Vec::new();
    sw.inject_packet_into(SimTime::ZERO, pkt(None), NodeId(2), &mut effects);
    match effects.as_slice() {
        [Effect::ForwardData { pkt, .. }] => assert_eq!(pkt.tag, None),
        other => panic!("unexpected effects {other:?}"),
    }
}
