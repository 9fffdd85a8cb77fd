//! The switch chassis: owns the per-switch state, forwards data packets by
//! the active UIB rules, and dispatches control messages to its update
//! logic.
//!
//! Data-packet forwarding is identical for every system under test — only
//! the control-message handling differs — so it lives here, outside the
//! logic. The chassis holds its logic by value: the simulator names one
//! enum of the three systems (`p4update_sim::SwitchImpl`), so a switch
//! event is a `match`, not a virtual call, and the logic's state is a
//! typed field anyone holding the switch can read.

use crate::logic::{DropReason, Effect, Endpoint, SwitchLogic};
use crate::state::SwitchState;
use p4update_des::SimTime;
use p4update_messages::{DataPacket, Frm, Message};
use p4update_net::{FlowId, NodeId, Topology};

/// A switch: state plus protocol logic. `L` is last so that a
/// `&mut Switch<P4UpdateLogic>` coerces to a bare `&mut Switch`, whose
/// default parameter is the type-erased logic.
pub struct Switch<L: ?Sized = dyn SwitchLogic> {
    /// Runtime state: the UIB and the ports' remaining capacities.
    pub state: SwitchState,
    /// FRMs already emitted, to report each new flow once.
    reported_flows: Vec<FlowId>,
    /// Two-phase-commit mode (§11): the ingress stamps each injected
    /// packet with its applied configuration version, and forwarding
    /// honors tags (tagged packets follow exactly one rule generation).
    stamp_tags: bool,
    /// The system's control-message logic.
    pub logic: L,
}

impl<L: SwitchLogic + ?Sized> Switch<L> {
    /// Build a switch for node `id` with the given protocol logic, which
    /// the switch unboxes and holds by value.
    // `benchmark/` passes a box, and only a change to the benchmark
    // itself may edit it (ROADMAP, "The benchmark-category PR").
    #[allow(clippy::boxed_local)]
    pub fn new(id: NodeId, topo: &Topology, logic: Box<L>) -> Self
    where
        L: Sized,
    {
        Switch {
            state: SwitchState::new(id, topo),
            reported_flows: Vec::new(),
            stamp_tags: false,
            logic: *logic,
        }
    }

    /// Enable the §11 two-phase-commit mode on this switch.
    pub fn enable_two_phase_commit(&mut self) {
        self.stamp_tags = true;
    }

    /// A message arrived (from a neighbor switch or the controller).
    pub fn handle_message(&mut self, now: SimTime, from: Endpoint, msg: Message) -> Vec<Effect> {
        let mut out = Vec::new();
        self.handle_message_into(now, from, msg, &mut out);
        out
    }

    /// [`Self::handle_message`] writing into a caller-owned buffer — the
    /// simulator reuses one scratch `Vec` across every event so the hot
    /// loop never allocates.
    pub fn handle_message_into(
        &mut self,
        now: SimTime,
        from: Endpoint,
        msg: Message,
        out: &mut Vec<Effect>,
    ) {
        match msg {
            Message::Data(pkt) => self.forward_data(pkt, out),
            other => self
                .logic
                .on_control(now, &mut self.state, from, other, out),
        }
    }

    /// A rule installation completed.
    pub fn handle_installed(&mut self, now: SimTime, flow: FlowId, token: u64) -> Vec<Effect> {
        let mut out = Vec::new();
        self.handle_installed_into(now, flow, token, &mut out);
        out
    }

    /// [`Self::handle_installed`] writing into a caller-owned buffer.
    pub fn handle_installed_into(
        &mut self,
        now: SimTime,
        flow: FlowId,
        token: u64,
        out: &mut Vec<Effect>,
    ) {
        self.logic
            .on_installed(now, &mut self.state, flow, token, out);
    }

    /// A data packet enters the network at this switch (host-facing port),
    /// its effects written into `out`. Unknown flows are reported to the
    /// controller via FRM — the ingress clones the first packet and stamps
    /// the flow id (Appendix B) — and the packet itself blackholes until
    /// rules exist.
    pub fn inject_packet_into(
        &mut self,
        _now: SimTime,
        mut pkt: DataPacket,
        egress_hint: NodeId,
        out: &mut Vec<Effect>,
    ) {
        let entry = self.state.uib.read(pkt.flow);
        if self.stamp_tags && pkt.tag.is_none() && entry.has_active_rule() {
            // Two-phase commit: stamp with the ingress's applied version;
            // the whole path then forwards by that one generation.
            pkt.tag = Some(entry.applied_version);
        }
        if !entry.has_active_rule() && !self.reported_flows.contains(&pkt.flow) {
            self.reported_flows.push(pkt.flow);
            out.push(Effect::SendController {
                msg: Message::Frm(Frm {
                    flow: pkt.flow,
                    ingress: self.state.id,
                    egress: egress_hint,
                }),
            });
        }
        self.forward_data(pkt, out);
    }

    /// Forward a data packet: deliver at egress, drop on missing rule
    /// (blackhole) or exhausted TTL. Tagged packets (two-phase commit,
    /// §11) forward by the rule generation matching their stamp: the
    /// active rule for the current version, the saved previous generation
    /// for the version before it.
    fn forward_data(&mut self, pkt: DataPacket, out: &mut Vec<Effect>) {
        let entry = self.state.uib.read(pkt.flow);
        if !entry.has_active_rule() {
            out.push(Effect::PacketDropped {
                pkt,
                reason: DropReason::NoRule,
            });
            return;
        }
        let next_hop = match pkt.tag {
            Some(v) if v < entry.applied_version => {
                // Only the immediately previous generation is kept; rules
                // of older generations were overwritten and cannot be
                // served consistently.
                if entry.prev_version > p4update_net::Version::NONE && v == entry.prev_version {
                    entry.prev_next_hop.get()
                } else {
                    out.push(Effect::PacketDropped {
                        pkt,
                        reason: DropReason::NoRule,
                    });
                    return;
                }
            }
            _ => entry.active_next_hop.get(),
        };
        match next_hop {
            None => out.push(Effect::PacketDelivered { pkt }),
            Some(next) => {
                if pkt.ttl == 0 {
                    out.push(Effect::PacketDropped {
                        pkt,
                        reason: DropReason::TtlExpired,
                    });
                } else {
                    out.push(Effect::ForwardData {
                        to: next,
                        pkt: DataPacket {
                            ttl: pkt.ttl - 1,
                            ..pkt
                        },
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4update_des::SimDuration;
    use p4update_net::{TopologyBuilder, Version};

    /// Logic that does nothing — forwarding behavior is chassis-only.
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

    fn line3() -> Topology {
        let mut b = TopologyBuilder::new("l3");
        let v: Vec<_> = (0..3).map(|i| b.add_node(format!("n{i}"))).collect();
        b.add_link(v[0], v[1], SimDuration::from_millis(1), 10.0);
        b.add_link(v[1], v[2], SimDuration::from_millis(1), 10.0);
        b.build()
    }

    fn sw(topo: &Topology, id: u32) -> Switch<NullLogic> {
        Switch::new(NodeId(id), topo, Box::new(NullLogic))
    }

    fn inject(s: &mut Switch<NullLogic>, pkt: DataPacket, egress_hint: NodeId) -> Vec<Effect> {
        let mut out = Vec::new();
        s.inject_packet_into(SimTime::ZERO, pkt, egress_hint, &mut out);
        out
    }

    fn pkt(flow: u32, ttl: u8) -> DataPacket {
        DataPacket {
            flow: FlowId(flow),
            seq: 0,
            ttl,
            tag: None,
        }
    }

    #[test]
    fn unknown_flow_blackholes() {
        let t = line3();
        let mut s = sw(&t, 1);
        let effects = s.handle_message(
            SimTime::ZERO,
            Endpoint::Switch(NodeId(0)),
            Message::Data(pkt(5, 64)),
        );
        assert_eq!(
            effects,
            vec![Effect::PacketDropped {
                pkt: pkt(5, 64),
                reason: DropReason::NoRule
            }]
        );
    }

    #[test]
    fn active_rule_forwards_and_decrements_ttl() {
        let t = line3();
        let mut s = sw(&t, 1);
        s.state.uib.update(FlowId(5), |e| {
            e.applied_version = Version(1);
            e.active_next_hop = Some(NodeId(2)).into();
        });
        let effects = s.handle_message(
            SimTime::ZERO,
            Endpoint::Switch(NodeId(0)),
            Message::Data(pkt(5, 64)),
        );
        assert_eq!(
            effects,
            vec![Effect::ForwardData {
                to: NodeId(2),
                pkt: pkt(5, 63)
            }]
        );
    }

    #[test]
    fn ttl_zero_drops() {
        let t = line3();
        let mut s = sw(&t, 1);
        s.state.uib.update(FlowId(5), |e| {
            e.applied_version = Version(1);
            e.active_next_hop = Some(NodeId(2)).into();
        });
        let effects = s.handle_message(
            SimTime::ZERO,
            Endpoint::Switch(NodeId(0)),
            Message::Data(pkt(5, 0)),
        );
        assert_eq!(
            effects,
            vec![Effect::PacketDropped {
                pkt: pkt(5, 0),
                reason: DropReason::TtlExpired
            }]
        );
    }

    #[test]
    fn egress_delivers() {
        let t = line3();
        let mut s = sw(&t, 2);
        s.state.uib.update(FlowId(5), |e| {
            e.applied_version = Version(1);
            e.active_next_hop = None.into();
        });
        let effects = s.handle_message(
            SimTime::ZERO,
            Endpoint::Switch(NodeId(1)),
            Message::Data(pkt(5, 60)),
        );
        assert_eq!(effects, vec![Effect::PacketDelivered { pkt: pkt(5, 60) }]);
    }

    #[test]
    fn injection_of_unknown_flow_reports_once() {
        let t = line3();
        let mut s = sw(&t, 0);
        let effects = inject(&mut s, pkt(9, 64), NodeId(2));
        assert_eq!(effects.len(), 2);
        assert!(
            matches!(effects[0], Effect::SendController { msg: Message::Frm(f) } if f.flow == FlowId(9) && f.ingress == NodeId(0) && f.egress == NodeId(2))
        );
        assert!(matches!(
            effects[1],
            Effect::PacketDropped {
                reason: DropReason::NoRule,
                ..
            }
        ));
        // Second injection: no new FRM.
        let effects = inject(&mut s, pkt(9, 64), NodeId(2));
        assert_eq!(effects.len(), 1);
    }

    #[test]
    fn injection_with_rule_forwards_without_frm() {
        let t = line3();
        let mut s = sw(&t, 0);
        s.state.uib.update(FlowId(9), |e| {
            e.applied_version = Version(1);
            e.active_next_hop = Some(NodeId(1)).into();
        });
        let effects = inject(&mut s, pkt(9, 64), NodeId(2));
        assert_eq!(
            effects,
            vec![Effect::ForwardData {
                to: NodeId(1),
                pkt: pkt(9, 63)
            }]
        );
    }
}
