//! The byzantine vector catalog: the typed ways a *lying switch* can
//! corrupt the control messages it sends.
//!
//! The paper's proof-labeling claim (§5, §7) is that a switch can locally
//! verify the update state its neighbors present; its evaluation only
//! ever faces an honest-but-lossy network. This catalog defines the
//! sharper adversary — forged labels, stale replays, equivocation, faked
//! acknowledgements — as *pure message transformations*, so the
//! simulation seam (`p4update-sim`) can offer each applicable vector as a
//! `ChoiceKind::Byzantine` choice point and the schedule explorer can
//! search and replay lying schedules exactly like fault schedules.
//!
//! Every transformation is a deterministic function of the honest
//! message. Alternative `0` at a byzantine choice point always means
//! "send honestly"; the catalog is never consulted in that case, which is
//! what keeps byzantine-enabled-but-honest runs byte-identical to the
//! pre-catalog engine.

use crate::types::{EzMsg, Message, UfmStatus, Unm};

/// A byzantine vector class: one way a lying switch corrupts outgoing
/// control traffic. The stable `name()` tokens appear in scenario names
/// (`fig2-ez+byz-dep-k1`) and documentation; the catalog order (in
/// [`ByzVector::ALL`]) fixes the alternative numbering at multi-vector
/// choice points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ByzVector {
    /// Corrupted dependency labels: a UNM whose new-distance claims the
    /// sender sits at the egress (`d_new = 0`, the strongest "downstream
    /// is done, you may act" lie), or an ez-Segway `SegmentDone` naming
    /// the *next* segment — unlocking a dependent segment whose real
    /// dependency never finished.
    DependencyLie,
    /// Stale-version replay: the honest message is delivered normally,
    /// plus a delayed replay of the sender's *previous* round — a UNM
    /// rolled back to its old version, or (ez-Segway, which carries no
    /// freshness marker at all) a verbatim duplicate.
    StaleReplay,
    /// Equivocation: the honest message is delivered to its intended
    /// target while a *conflicting* copy (labels shifted by one) goes to
    /// a different neighbor of the lying switch.
    Equivocate,
    /// Forged acknowledgement: an alarm UFM rewritten as success, a
    /// success UFM claiming a version never deployed, or an ez-Segway
    /// `GoodToMove` escalated to a `SegmentDone` completion claim.
    ForgedAck,
}

/// How the corrupted message is to be injected, relative to the honest
/// one. The distinction matters for the no-drift guarantee: `Replace`
/// suppresses the honest message entirely, the other two deliver it
/// unchanged and add the corrupted copy as an extra delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzDelivery {
    /// The corrupted message takes the honest one's place.
    Replace,
    /// Honest message delivered normally; the corrupted copy follows
    /// after the configured byzantine delay (a replay).
    ExtraDelayed,
    /// Honest message delivered normally; the corrupted copy goes to a
    /// *different* neighbor at the same time (equivocation).
    ExtraToOtherNeighbor,
}

impl ByzVector {
    /// Every vector, in catalog (= choice alternative) order.
    pub const ALL: [ByzVector; 4] = [
        ByzVector::DependencyLie,
        ByzVector::StaleReplay,
        ByzVector::Equivocate,
        ByzVector::ForgedAck,
    ];

    /// Stable one-word token used in scenario names and reports.
    pub fn name(self) -> &'static str {
        match self {
            ByzVector::DependencyLie => "dep",
            ByzVector::StaleReplay => "stale",
            ByzVector::Equivocate => "equiv",
            ByzVector::ForgedAck => "ack",
        }
    }

    /// Inverse of [`ByzVector::name`].
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|v| v.name() == s)
    }

    /// How this vector's corrupted message is injected.
    pub fn delivery(self) -> ByzDelivery {
        match self {
            ByzVector::DependencyLie | ByzVector::ForgedAck => ByzDelivery::Replace,
            ByzVector::StaleReplay => ByzDelivery::ExtraDelayed,
            ByzVector::Equivocate => ByzDelivery::ExtraToOtherNeighbor,
        }
    }

    /// The corrupted form of `msg` under this vector, or `None` when the
    /// vector does not apply to this message type. Pure and
    /// deterministic: the same honest message always yields the same lie.
    pub fn corrupt(self, msg: &Message) -> Option<Message> {
        match (self, msg) {
            (ByzVector::DependencyLie, Message::Unm(unm)) => {
                // Claim to be the egress: "the whole chain below me is
                // verified". Honest only when the sender truly is.
                (unm.d_new != 0).then_some(Message::Unm(Unm { d_new: 0, ..*unm }))
            }
            (ByzVector::DependencyLie, Message::Ez(EzMsg::SegmentDone { flow, segment })) => {
                Some(Message::Ez(EzMsg::SegmentDone {
                    flow: *flow,
                    segment: segment + 1,
                }))
            }
            (ByzVector::StaleReplay, Message::Unm(unm)) => {
                // Replay of the sender's previous round: old version in
                // both slots, old distance as the new one.
                (unm.v_new != unm.v_old).then_some(Message::Unm(Unm {
                    v_new: unm.v_old,
                    d_new: unm.d_old,
                    ..*unm
                }))
            }
            (
                ByzVector::StaleReplay,
                Message::Ez(EzMsg::GoodToMove { .. }) | Message::Ez(EzMsg::SegmentDone { .. }),
            ) => {
                // ez-Segway messages carry no version: a verbatim late
                // duplicate *is* the stale replay, and the receiver has
                // no field on which to tell it from a fresh message.
                Some(msg.clone())
            }
            (ByzVector::Equivocate, Message::Unm(unm)) => Some(Message::Unm(Unm {
                d_new: unm.d_new + 1,
                ..*unm
            })),
            (ByzVector::Equivocate, Message::Ez(EzMsg::GoodToMove { flow, segment })) => {
                Some(Message::Ez(EzMsg::GoodToMove {
                    flow: *flow,
                    segment: segment + 1,
                }))
            }
            (ByzVector::Equivocate, Message::Ez(EzMsg::SegmentDone { flow, segment })) => {
                Some(Message::Ez(EzMsg::SegmentDone {
                    flow: *flow,
                    segment: segment + 1,
                }))
            }
            (ByzVector::ForgedAck, Message::Ufm(ufm)) => Some(Message::Ufm(match ufm.status {
                // Mask an alarm as success…
                UfmStatus::Alarm(_) => crate::types::Ufm {
                    status: UfmStatus::Success,
                    ..*ufm
                },
                // …or acknowledge a version that was never deployed.
                UfmStatus::Success => crate::types::Ufm {
                    version: ufm.version.next(),
                    ..*ufm
                },
            })),
            (ByzVector::ForgedAck, Message::Ez(EzMsg::GoodToMove { flow, segment })) => {
                // Escalate "parent installed, child may proceed" into a
                // full completion claim for the same segment.
                Some(Message::Ez(EzMsg::SegmentDone {
                    flow: *flow,
                    segment: *segment,
                }))
            }
            _ => None,
        }
    }

    /// The vectors of `catalog` (or all of them, for `None`) that apply
    /// to `msg`, in catalog order. The returned list's positions are the
    /// non-default alternatives of the byzantine choice point for this
    /// message: alternative `i + 1` selects `applicable[i]`.
    pub fn applicable(catalog: Option<ByzVector>, msg: &Message) -> Vec<ByzVector> {
        Self::ALL
            .into_iter()
            .filter(|v| catalog.is_none_or(|only| only == *v))
            .filter(|v| v.corrupt(msg).is_some())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Ufm, UnmLayer, UpdateKind};
    use p4update_net::{FlowId, NodeId, Version};

    fn unm() -> Message {
        Message::Unm(Unm {
            flow: FlowId(0),
            v_new: Version(2),
            v_old: Version(1),
            d_new: 3,
            d_old: 5,
            counter: 0,
            kind: UpdateKind::Single,
            layer: UnmLayer::Intra,
        })
    }

    #[test]
    fn names_round_trip() {
        for v in ByzVector::ALL {
            assert_eq!(ByzVector::from_name(v.name()), Some(v));
        }
        assert_eq!(ByzVector::from_name("bogus"), None);
    }

    #[test]
    fn corruption_is_deterministic_and_differs_from_honest() {
        for v in ByzVector::ALL {
            let a = v.corrupt(&unm());
            let b = v.corrupt(&unm());
            assert_eq!(a, b, "{v:?} not deterministic");
            if let Some(lie) = a {
                assert_ne!(lie, unm(), "{v:?} produced the honest message");
            }
        }
    }

    #[test]
    fn dependency_lie_claims_the_egress() {
        let Some(Message::Unm(lie)) = ByzVector::DependencyLie.corrupt(&unm()) else {
            panic!("must apply to UNMs");
        };
        assert_eq!(lie.d_new, 0);
        assert_eq!(lie.v_new, Version(2));
        // A true egress has nothing to lie about on this axis.
        let honest_egress = Message::Unm(Unm {
            d_new: 0,
            ..match unm() {
                Message::Unm(u) => u,
                _ => unreachable!(),
            }
        });
        assert_eq!(ByzVector::DependencyLie.corrupt(&honest_egress), None);
    }

    #[test]
    fn stale_replay_rolls_the_version_back() {
        let Some(Message::Unm(lie)) = ByzVector::StaleReplay.corrupt(&unm()) else {
            panic!("must apply to UNMs");
        };
        assert_eq!(lie.v_new, Version(1));
        assert_eq!(lie.d_new, 5);
        assert_eq!(ByzVector::StaleReplay.delivery(), ByzDelivery::ExtraDelayed);
    }

    #[test]
    fn ez_stale_replay_is_a_verbatim_duplicate() {
        let msg = Message::Ez(EzMsg::SegmentDone {
            flow: FlowId(0),
            segment: 2,
        });
        assert_eq!(ByzVector::StaleReplay.corrupt(&msg), Some(msg.clone()));
    }

    #[test]
    fn forged_ack_masks_alarms_and_inflates_successes() {
        let alarm = Message::Ufm(Ufm {
            flow: FlowId(0),
            version: Version(2),
            status: UfmStatus::Alarm(crate::types::RejectReason::DistanceMismatch),
            reporter: NodeId(3),
        });
        let Some(Message::Ufm(masked)) = ByzVector::ForgedAck.corrupt(&alarm) else {
            panic!("must apply to UFMs");
        };
        assert_eq!(masked.status, UfmStatus::Success);
        assert_eq!(masked.version, Version(2));

        let success = Message::Ufm(Ufm {
            flow: FlowId(0),
            version: Version(2),
            status: UfmStatus::Success,
            reporter: NodeId(0),
        });
        let Some(Message::Ufm(inflated)) = ByzVector::ForgedAck.corrupt(&success) else {
            panic!("must apply to UFMs");
        };
        assert_eq!(inflated.version, Version(3));
    }

    #[test]
    fn applicability_respects_the_catalog_restriction() {
        let all = ByzVector::applicable(None, &unm());
        assert_eq!(
            all,
            vec![
                ByzVector::DependencyLie,
                ByzVector::StaleReplay,
                ByzVector::Equivocate,
            ]
        );
        let only = ByzVector::applicable(Some(ByzVector::StaleReplay), &unm());
        assert_eq!(only, vec![ByzVector::StaleReplay]);
        // Data packets are never corrupted.
        let data = Message::Data(crate::types::DataPacket::untagged(FlowId(0), 0, 64));
        assert!(ByzVector::applicable(None, &data).is_empty());
    }

    #[test]
    fn vectors_never_apply_to_data_or_uims() {
        // UIMs originate at the controller; the lying-switch model only
        // corrupts switch-originated traffic, so the catalog must not
        // touch them (gateway equivocation is expressed through UNMs).
        let uim = Message::Uim(crate::types::Uim {
            flow: FlowId(0),
            version: Version(2),
            new_distance: 1,
            flow_size: 1.0,
            next_hop: None,
            upstream: None,
            kind: UpdateKind::Single,
        });
        for v in ByzVector::ALL {
            assert_eq!(v.corrupt(&uim), None, "{v:?} corrupted a UIM");
        }
    }
}
