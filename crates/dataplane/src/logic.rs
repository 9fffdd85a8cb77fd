//! The update-logic interface.
//!
//! Every system the evaluation compares — P4Update (SL and DL), ez-Segway,
//! and Central — is a [`SwitchLogic`] implementation on the switch side and
//! a [`ControllerLogic`] implementation on the controller side. The chassis
//! and the simulation harness are shared, so differences in measured update
//! time come from the protocols themselves, not the substrate.

use crate::state::SwitchState;
use p4update_des::SimTime;
use p4update_messages::{DataPacket, Message, RejectReason};
use p4update_net::{FlowId, FlowUpdate, NodeId, Version};

/// Where a message came from / goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// Another switch.
    Switch(NodeId),
    /// The controller.
    Controller,
}

/// Why a data packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// TTL reached zero (the Fig. 2 loop-death mechanism).
    TtlExpired,
    /// No matching forwarding rule: a blackhole.
    NoRule,
}

/// An action requested by switch logic, executed (and timed) by the
/// harness.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Send a control message to another switch. Adjacent targets take one
    /// link hop; non-adjacent targets are routed along the latency-shortest
    /// path (in-band multi-hop control traffic). Data packets never travel
    /// this way: they leave through [`Effect::ForwardData`].
    SendSwitch {
        /// Destination switch.
        to: NodeId,
        /// Payload.
        msg: Message,
    },
    /// Send a message to the controller (takes the control-plane latency
    /// of this switch plus controller queueing).
    SendController {
        /// Payload.
        msg: Message,
    },
    /// Begin installing a rule; completes after the scenario's
    /// rule-installation delay, upon which the logic receives
    /// [`SwitchLogic::on_installed`] with the same token.
    BeginInstall {
        /// Flow whose rule is being written.
        flow: FlowId,
        /// Opaque token the logic uses to resume its continuation.
        token: u64,
    },
    /// A data packet reached its egress here and leaves the network.
    PacketDelivered {
        /// The delivered packet.
        pkt: DataPacket,
    },
    /// A data packet died here.
    PacketDropped {
        /// The dropped packet.
        pkt: DataPacket,
        /// Why it died.
        reason: DropReason,
    },
    /// Forward a data packet to an adjacent switch.
    ForwardData {
        /// Next hop.
        to: NodeId,
        /// The packet (TTL already decremented).
        pkt: DataPacket,
    },
}

// One word beside the message it carries.
const _: () = assert!(std::mem::size_of::<Effect>() <= 48);

/// Switch-side protocol logic.
pub trait SwitchLogic {
    /// Handle a control-plane or switch-to-switch message.
    fn on_control(
        &mut self,
        now: SimTime,
        state: &mut SwitchState,
        from: Endpoint,
        msg: Message,
        out: &mut Vec<Effect>,
    );

    /// A rule installation requested via [`Effect::BeginInstall`] finished.
    fn on_installed(
        &mut self,
        now: SimTime,
        state: &mut SwitchState,
        flow: FlowId,
        token: u64,
        out: &mut Vec<Effect>,
    );

    /// Number of messages currently parked in the pipeline waiting for a
    /// condition. On BMv2, each parked message resubmits through the
    /// pipeline repeatedly ("P4Update uses packet resubmission to check
    /// repeatedly if UIM has arrived", Appendix B), consuming forwarding
    /// capacity; the harness charges pipeline time per parked message per
    /// poll round.
    fn parked_messages(&self) -> usize {
        0
    }
}

/// An action requested by controller logic.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlEffect {
    /// Send a message to a switch (takes that switch's control latency).
    Send {
        /// Destination switch.
        to: NodeId,
        /// Payload.
        msg: Message,
    },
    /// Metric hook: the controller considers this flow's update finished.
    UpdateComplete {
        /// The finished flow.
        flow: FlowId,
        /// Version that completed.
        version: Version,
    },
    /// Metric hook: a switch reported an inconsistent update.
    AlarmRaised {
        /// The flow concerned.
        flow: FlowId,
        /// The switch's reason.
        reason: RejectReason,
    },
}

/// Controller-side protocol logic.
pub trait ControllerLogic {
    /// Kick off a batch of flow updates (one scenario trigger). The harness
    /// has already charged preparation cost; this emits the resulting
    /// messages.
    fn start_update(&mut self, now: SimTime, updates: &[FlowUpdate], out: &mut Vec<CtrlEffect>);

    /// Handle a message arriving from a switch.
    fn on_message(&mut self, now: SimTime, from: NodeId, msg: Message, out: &mut Vec<CtrlEffect>);

    /// Periodic recovery tick (§11 "Failures in the Update Process"): the
    /// controller may re-trigger updates whose feedback never arrived.
    /// Returns `true` while the timer should keep firing.
    fn on_timer(&mut self, now: SimTime, out: &mut Vec<CtrlEffect>) -> bool {
        let _ = (now, out);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_equality() {
        assert_eq!(Endpoint::Switch(NodeId(1)), Endpoint::Switch(NodeId(1)));
        assert_ne!(Endpoint::Switch(NodeId(1)), Endpoint::Controller);
    }

    #[test]
    fn effects_are_comparable() {
        let a = Effect::BeginInstall {
            flow: FlowId(1),
            token: 3,
        };
        assert_eq!(
            a,
            Effect::BeginInstall {
                flow: FlowId(1),
                token: 3
            }
        );
    }
}
