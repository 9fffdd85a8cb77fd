//! The message types of the P4Update framework (paper §6, §8, Appendix B)
//! plus data-plane packets and the control messages of the two baseline
//! systems the evaluation compares against.

use p4update_net::{FlowId, NodeId, Version};

/// The update mechanism a configuration uses: single-layer (sequential, §3.1)
/// or dual-layer (segmented/parallel, §3.2). Stored per flow in the UIB
/// register `t` ("last update type") because a dual-layer update requires
/// the previous update of the flow to have been single-layer (§7.3, §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateKind {
    /// SL-P4Update: one sequential verification chain from egress to ingress.
    Single,
    /// DL-P4Update: parallel per-segment chains gated by an inter-segment
    /// layer along gateway nodes.
    Dual,
}

/// Which logical layer a dual-layer notification travels on (§8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnmLayer {
    /// First layer: gateway-to-gateway, generated at the flow egress;
    /// resolves inter-segment (loop) dependencies by passing inherited old
    /// distances upstream.
    Inter,
    /// Second layer: within one segment, generated at the segment's egress
    /// gateway; walks the segment interior upstream installing rules.
    Intra,
}

/// Flow Report Message: the ingress switch clones the first packet of an
/// unknown flow, stamps the flow identifier (a hash of the src/dst pair in
/// the P4 program), and sends it to the controller (Appendix B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frm {
    /// The flow identifier computed by the ingress.
    pub flow: FlowId,
    /// Reporting (ingress) switch.
    pub ingress: NodeId,
    /// The flow's destination switch as observed in the packet.
    pub egress: NodeId,
}

/// Update Indication Message: the controller's per-switch share of a new
/// configuration. Carries the verification labels (distance, version), the
/// flow size bound for local capacity checks, and the new egress port
/// (next hop) — §6 and §8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uim {
    /// Flow this configuration concerns.
    pub flow: FlowId,
    /// The new configuration's version number.
    pub version: Version,
    /// This node's distance to the egress on the new path (`D_n`).
    pub new_distance: u32,
    /// The flow's size bound, in link-capacity units.
    pub flow_size: f64,
    /// Next hop on the new path (`None` at the egress node, which only
    /// terminates the flow).
    pub next_hop: Option<NodeId>,
    /// Predecessor on the new path: the port the UNM clone is sent out of
    /// ("a one-to-one port-based forwarding table is used to determine the
    /// clone session of a UNM", §8). `None` at the ingress.
    pub upstream: Option<NodeId>,
    /// Single- or dual-layer mechanism for this configuration.
    pub kind: UpdateKind,
}

/// Update Notification Message: switch-to-switch trigger of the verified
/// update process. Carries the sender's previous and current configuration
/// state (§7.1, §8); the receiver runs Algorithm 1 (SL) or Algorithm 2 (DL)
/// against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unm {
    /// Flow the notification concerns.
    pub flow: FlowId,
    /// Sender's new version number (`V_n(UNM)`).
    pub v_new: Version,
    /// Sender's old version number (`V_o(UNM)`).
    pub v_old: Version,
    /// Sender's new distance (`D_n(UNM)`).
    pub d_new: u32,
    /// Sender's old distance (`D_o(UNM)`), the inherited segment ID of the
    /// dual-layer mechanism.
    pub d_old: u32,
    /// Hop counter for symmetry breaking in repeated inheritance (Alg. 2).
    pub counter: u32,
    /// Mechanism of the update that produced this notification.
    pub kind: UpdateKind,
    /// Logical layer (always [`UnmLayer::Intra`] for single-layer updates).
    pub layer: UnmLayer,
}

/// Why a switch refused to act on an update message. Reported to the
/// controller in a UFM alarm for "further optional analysis" (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// Notification distance does not fit the label (`D_n(v) ≠ D_n(UNM)+1`):
    /// accepting could create a forwarding loop (Fig. 6b).
    DistanceMismatch,
    /// Notification version is older than the node's configuration:
    /// falling back could also create loops (Fig. 6c).
    OutdatedVersion,
    /// A dual-layer update arrived while the node's previous update was
    /// already dual-layer (needs an intervening single-layer, §7.3).
    DualAfterDual,
    /// The flow size in the update differs from the recorded immutable
    /// bound (§A.2).
    FlowSizeChanged,
    /// The notification did not arrive from the node's staged child on
    /// the new path. Distance arithmetic alone can be satisfied by an
    /// equivocating neighbor's forged notification; binding acceptance to
    /// the staged next hop closes that hole (byzantine vector `equiv`).
    UnexpectedSender,
}

/// Status carried by a UFM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UfmStatus {
    /// The ingress completed the update chain: the new path is live.
    Success,
    /// A switch rejected an inconsistent update.
    Alarm(RejectReason),
}

/// Update Feedback Message: data plane to controller, reporting update
/// completion (generated by the ingress from the arriving first-layer UNM)
/// or an alarm (§6, §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ufm {
    /// Flow the feedback concerns.
    pub flow: FlowId,
    /// Version the feedback refers to.
    pub version: Version,
    /// Outcome.
    pub status: UfmStatus,
    /// Switch that generated the feedback.
    pub reporter: NodeId,
}

/// Rule-cleanup packet (§11 "Rule Cleanup"): after an update, if a node's
/// old outgoing link differs from the new one, a cleanup packet travels
/// the abandoned old path downstream, letting each node off the new path
/// release its rule and capacity. Stops at nodes that still carry the
/// flow (they have a share of version ≥ `version`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cleanup {
    /// Flow being cleaned up.
    pub flow: FlowId,
    /// Version whose deployment made the old path obsolete.
    pub version: Version,
}

/// A data-plane packet of a flow. `ttl` mirrors the IP TTL the Fig. 2
/// experiment relies on (packets die after 64 hops in a loop).
///
/// `tag` carries the optional per-packet version stamp of the
/// Reitblatt-style two-phase commit the paper integrates in §11: the
/// ingress stamps each packet with its applied configuration version, and
/// every switch forwards tagged packets by the matching rule generation —
/// per-packet path consistency on top of P4Update's loop/blackhole
/// freedom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataPacket {
    /// Flow the packet belongs to.
    pub flow: FlowId,
    /// Sequence number stamped by the source (Fig. 2's y-axis).
    pub seq: u32,
    /// Remaining hops before the packet is dropped.
    pub ttl: u8,
    /// Two-phase-commit version tag (§11); `None` for untagged traffic.
    pub tag: Option<Version>,
}

impl DataPacket {
    /// An untagged packet.
    pub fn untagged(flow: FlowId, seq: u32, ttl: u8) -> Self {
        DataPacket {
            flow,
            seq,
            ttl,
            tag: None,
        }
    }
}

/// Control messages of the Central baseline (§9.1 "Centralized Updates"):
/// per-round rule installations and their acknowledgements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CentralMsg {
    /// Controller → switch: install the new rule for `flow`.
    Install {
        /// Flow to update.
        flow: FlowId,
        /// New next hop (`None`: remove/terminate).
        next_hop: Option<NodeId>,
        /// Scheduling round this installation belongs to.
        round: u32,
    },
    /// Switch → controller: the rule of `round` is installed.
    Ack {
        /// Flow acknowledged.
        flow: FlowId,
        /// Acknowledging switch.
        node: NodeId,
        /// Round acknowledged.
        round: u32,
    },
}

/// Congestion priority assigned centrally by ez-Segway's dependency-graph
/// computation (the paper: "assigns three types of update priorities along
/// nodes in segments").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EzPriority {
    /// Update whenever capacity allows.
    Low,
    /// Preferred when competing for capacity.
    Medium,
    /// Must move first to break capacity deadlocks.
    High,
}

/// One node's share of an ez-Segway flow update: the payload of
/// [`EzMsg::Update`]. Boxed there because its two lists would otherwise
/// set the size of every [`Message`] — P4Update's own messages are fixed
/// headers of a few words.
#[derive(Debug, Clone, PartialEq)]
pub struct EzUpdate {
    /// Flow to update.
    pub flow: FlowId,
    /// New next hop on the new path (`None` at egress).
    pub next_hop: Option<NodeId>,
    /// Predecessor on the new path (where to send the in-segment
    /// notification upstream); `None` at ingress.
    pub upstream: Option<NodeId>,
    /// Segment this node belongs to on the new path.
    pub segment: u32,
    /// Segments that must complete before this one may start: at the
    /// initiator of a backward (`InLoop`) segment, every segment
    /// downstream of it; empty otherwise.
    pub depends_on: Vec<u32>,
    /// True when this node initiates its segment's update (the
    /// segment's egress gateway).
    pub initiator: bool,
    /// True when this node completes its segment (the segment's
    /// ingress gateway / divergence point): it flips last and emits
    /// the completion notification.
    pub finalizer: bool,
    /// Centrally assigned congestion priority.
    pub priority: EzPriority,
    /// Flow size for capacity checks.
    pub size: f64,
    /// Nodes to notify with `SegmentDone` once this node (as a
    /// finalizer) flips: initiators of dependent segments plus the
    /// global ingress (which tracks whole-flow completion).
    pub notify_on_done: Vec<NodeId>,
    /// At the global ingress only: total number of segments, so it can
    /// report `Done` to the controller once all have completed.
    pub total_segments: Option<u32>,
}

/// Control messages of the ez-Segway baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum EzMsg {
    /// Controller → switch: this node's share of a flow update.
    Update(Box<EzUpdate>),
    /// Switch → switch (upstream within a segment): parent installed its
    /// rule, child may proceed ("good to move").
    GoodToMove {
        /// Flow concerned.
        flow: FlowId,
        /// Segment concerned.
        segment: u32,
    },
    /// Switch → switch: segment finished (flipped); unlocks dependent
    /// `InLoop` segments. Travels to the dependent segment's initiator.
    SegmentDone {
        /// Flow concerned.
        flow: FlowId,
        /// The completed segment.
        segment: u32,
    },
    /// Switch → controller: whole-flow update complete (sent by the
    /// ingress once its own flip happened and all segments reported).
    Done {
        /// Flow concerned.
        flow: FlowId,
    },
}

/// Any message that can traverse the simulated network: data packets, the
/// paper's four control messages, or a baseline's control messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A data-plane packet.
    Data(DataPacket),
    /// Flow report (data → control plane).
    Frm(Frm),
    /// Update indication (control → data plane).
    Uim(Uim),
    /// Update notification (data plane, switch to switch).
    Unm(Unm),
    /// Update feedback (data → control plane).
    Ufm(Ufm),
    /// Rule cleanup along an abandoned old path (§11).
    Cleanup(Cleanup),
    /// Central baseline traffic.
    Central(CentralMsg),
    /// ez-Segway baseline traffic.
    Ez(EzMsg),
}

// Every queued event, effect and stored retry carries a `Message`: a fat
// variant here is paid by all of them.
const _: () = assert!(std::mem::size_of::<Message>() <= 40);

impl Message {
    /// The flow a message concerns, when unambiguous.
    pub fn flow(&self) -> Option<FlowId> {
        match self {
            Message::Data(p) => Some(p.flow),
            Message::Frm(m) => Some(m.flow),
            Message::Uim(m) => Some(m.flow),
            Message::Unm(m) => Some(m.flow),
            Message::Ufm(m) => Some(m.flow),
            Message::Cleanup(m) => Some(m.flow),
            Message::Central(CentralMsg::Install { flow, .. })
            | Message::Central(CentralMsg::Ack { flow, .. }) => Some(*flow),
            Message::Ez(EzMsg::Update(u)) => Some(u.flow),
            Message::Ez(EzMsg::GoodToMove { flow, .. })
            | Message::Ez(EzMsg::SegmentDone { flow, .. })
            | Message::Ez(EzMsg::Done { flow }) => Some(*flow),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ez_update(flow: u32) -> Message {
        Message::Ez(EzMsg::Update(Box::new(EzUpdate {
            flow: FlowId(flow),
            next_hop: Some(NodeId(2)),
            upstream: None,
            segment: 1,
            depends_on: vec![0, 2],
            initiator: true,
            finalizer: false,
            priority: EzPriority::Medium,
            size: 1.5,
            notify_on_done: vec![NodeId(0), NodeId(4)],
            total_segments: Some(3),
        })))
    }

    #[test]
    fn message_flow_extraction() {
        let m = Message::Data(DataPacket {
            flow: FlowId(3),
            seq: 1,
            ttl: 64,
            tag: None,
        });
        assert_eq!(m.flow(), Some(FlowId(3)));
        let m = Message::Ez(EzMsg::Done { flow: FlowId(9) });
        assert_eq!(m.flow(), Some(FlowId(9)));
        assert_eq!(ez_update(6).flow(), Some(FlowId(6)));
        let m = Message::Central(CentralMsg::Ack {
            flow: FlowId(4),
            node: NodeId(2),
            round: 1,
        });
        assert_eq!(m.flow(), Some(FlowId(4)));
    }

    /// Equality and `clone` go through the box to the lists behind it.
    #[test]
    fn boxed_update_clones_deeply_and_compares_by_value() {
        let a = ez_update(6);
        let mut b = a.clone();
        assert_eq!(a, b);
        let Message::Ez(EzMsg::Update(u)) = &mut b else {
            unreachable!()
        };
        u.depends_on.push(7);
        assert_ne!(a, b, "the clone owns its own lists");
        assert_ne!(a, ez_update(5));
    }

    #[test]
    fn priorities_are_ordered() {
        assert!(EzPriority::High > EzPriority::Medium);
        assert!(EzPriority::Medium > EzPriority::Low);
    }
}
