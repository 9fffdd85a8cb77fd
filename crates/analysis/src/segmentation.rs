//! Segmentation well-formedness (P4U005, P4U006, P4U007) and the §7.5
//! mechanism-choice advisory (P4U008).

use crate::diagnostic::{Code, Diagnostic};
use p4update_core::{PreparedUpdate, SegmentDir, SL_NODE_THRESHOLD};
use p4update_messages::UpdateKind;
use p4update_net::NodeId;

/// The old distance Algorithm 2 expects a gateway to carry: its hop
/// distance to the egress on the old path, or the synthetic endpoint values
/// for a fresh deployment (egress 0, ingress "infinitely far").
fn expected_old_distance(plan: &PreparedUpdate, node: NodeId) -> Option<u32> {
    if let Some(old) = &plan.update.old_path {
        old.distance_to_egress(node)
    } else if node == plan.update.new_path.egress() {
        Some(0)
    } else if node == plan.update.new_path.ingress() {
        Some(u32::MAX)
    } else {
        None
    }
}

/// Verify the plan's segmentation against Algorithm 2's construction:
/// gateways are exactly the shared nodes in new-path order, segments tile
/// the new path with fresh interiors, and each recorded old distance (the
/// "segment ID") matches the old path.
pub(crate) fn check_segmentation(plan: &PreparedUpdate, out: &mut Vec<Diagnostic>) {
    let seg = &plan.segmentation;
    let new_path = &plan.update.new_path;
    let old = plan.update.old_path.as_ref();

    // -- gateway set: on both paths, in new-path order, endpoints included.
    for &g in &seg.gateways {
        if !new_path.contains(g) {
            out.push(Diagnostic::new(
                Code::SegmentationMalformed,
                plan.flow,
                Some(g),
                "gateway is not on the new path",
            ));
        }
        if let Some(old) = old {
            if !old.contains(g) {
                out.push(Diagnostic::new(
                    Code::SegmentationMalformed,
                    plan.flow,
                    Some(g),
                    "gateway is not on the old path",
                ));
            }
        }
    }
    let positions: Vec<Option<usize>> =
        seg.gateways.iter().map(|&g| new_path.position(g)).collect();
    if positions.windows(2).any(|w| match (w[0], w[1]) {
        (Some(a), Some(b)) => a >= b,
        _ => false,
    }) {
        out.push(Diagnostic::new(
            Code::SegmentationMalformed,
            plan.flow,
            None,
            "gateways are not in new-path order",
        ));
    }
    match (seg.gateways.first(), seg.gateways.last()) {
        (Some(&first), Some(&last)) => {
            if first != new_path.ingress() || last != new_path.egress() {
                out.push(Diagnostic::new(
                    Code::SegmentationMalformed,
                    plan.flow,
                    None,
                    format!(
                        "gateway set spans {first}..{last}, expected {}..{}",
                        new_path.ingress(),
                        new_path.egress()
                    ),
                ));
            }
        }
        _ => {
            out.push(Diagnostic::new(
                Code::SegmentationMalformed,
                plan.flow,
                None,
                "empty gateway set",
            ));
            return;
        }
    }
    // Any shared node missing from the gateway set splits the old and new
    // distance spaces incorrectly.
    if let Some(old) = old {
        for &n in new_path.nodes() {
            if old.contains(n) && !seg.gateways.contains(&n) {
                out.push(Diagnostic::new(
                    Code::SegmentationMalformed,
                    plan.flow,
                    Some(n),
                    "node shared by both paths is missing from the gateway set",
                ));
            }
        }
    }

    // -- tiling: consecutive gateways chain through the segments, interiors
    // are fresh nodes, and the concatenation is exactly the new path.
    if seg.segments.len() + 1 != seg.gateways.len() {
        out.push(Diagnostic::new(
            Code::SegmentationMalformed,
            plan.flow,
            None,
            format!(
                "{} segments do not connect {} gateways",
                seg.segments.len(),
                seg.gateways.len()
            ),
        ));
    }
    let mut covered: Vec<NodeId> = Vec::new();
    if let Some(&g0) = seg.gateways.first() {
        covered.push(g0);
    }
    for (i, s) in seg.segments.iter().enumerate() {
        if covered.last() != Some(&s.ingress_gateway) {
            out.push(Diagnostic::new(
                Code::SegmentationMalformed,
                plan.flow,
                Some(s.ingress_gateway),
                format!("segment #{i} does not start where the previous one ended"),
            ));
        }
        for &n in &s.interior {
            if let Some(old) = old {
                if old.contains(n) {
                    out.push(Diagnostic::new(
                        Code::SegmentationMalformed,
                        plan.flow,
                        Some(n),
                        format!("segment #{i} interior node lies on the old path"),
                    ));
                }
            }
        }
        covered.extend(&s.interior);
        covered.push(s.egress_gateway);
    }
    if covered != new_path.nodes() {
        out.push(Diagnostic::new(
            Code::SegmentationMalformed,
            plan.flow,
            None,
            "segments do not tile the new path",
        ));
    }

    // -- old distances ("segment IDs") and direction classes.
    for (i, s) in seg.segments.iter().enumerate() {
        for (which, g, recorded) in [
            ("ingress", s.ingress_gateway, s.ingress_old_distance),
            ("egress", s.egress_gateway, s.egress_old_distance),
        ] {
            match expected_old_distance(plan, g) {
                Some(expected) if expected != recorded => {
                    out.push(Diagnostic::new(
                        Code::OldDistanceMismatch,
                        plan.flow,
                        Some(g),
                        format!(
                            "segment #{i} records {which} old distance {recorded}, \
                             the old path says {expected}"
                        ),
                    ));
                }
                None => {
                    out.push(Diagnostic::new(
                        Code::OldDistanceMismatch,
                        plan.flow,
                        Some(g),
                        format!("segment #{i} {which} gateway has no old distance at all"),
                    ));
                }
                _ => {}
            }
        }

        // Direction: Forward iff the ingress gateway's true old distance
        // exceeds the egress gateway's. `Segment::direction()` derives from
        // the recorded fields, so this catches corrupted distances whose
        // corruption flips the class — the dangerous case: a backward
        // segment treated as forward updates before its downstream segments
        // and can transiently loop (§3.2).
        if let (Some(d_in), Some(d_out)) = (
            expected_old_distance(plan, s.ingress_gateway),
            expected_old_distance(plan, s.egress_gateway),
        ) {
            let expected_dir = if d_in > d_out {
                SegmentDir::Forward
            } else {
                SegmentDir::Backward
            };
            if s.direction() != expected_dir {
                out.push(Diagnostic::new(
                    Code::SegmentDirectionMisclassified,
                    plan.flow,
                    Some(s.ingress_gateway),
                    format!(
                        "segment #{i} classifies as {:?} but its true old distances \
                         ({d_in} -> {d_out}) make it {expected_dir:?}",
                        s.direction()
                    ),
                ));
            }
        }
    }
}

/// The §7.5 deployment rule, as an advisory: single-layer is only intended
/// for forward-only updates touching at most [`SL_NODE_THRESHOLD`] nodes.
/// A forced-SL plan outside that envelope still completes (SL is
/// loop-limited, not loop-free, on backward stretches) but forfeits the
/// paper's consistency argument, so the analyzer flags it as a warning.
pub(crate) fn check_mechanism(plan: &PreparedUpdate, out: &mut Vec<Diagnostic>) {
    if plan.kind != UpdateKind::Single {
        return;
    }
    let seg = &plan.segmentation;
    if !seg.forward_only() {
        out.push(Diagnostic::new(
            Code::MechanismAdvisory,
            plan.flow,
            None,
            format!(
                "single-layer deployment of a plan with {} backward segment(s); \
                 the §7.5 rule calls for dual-layer",
                seg.backward_count()
            ),
        ));
    }
    let nodes_to_update = plan.update.new_path.nodes().len();
    if nodes_to_update > SL_NODE_THRESHOLD {
        out.push(Diagnostic::new(
            Code::MechanismAdvisory,
            plan.flow,
            None,
            format!(
                "single-layer deployment across {nodes_to_update} nodes \
                 (threshold {SL_NODE_THRESHOLD}); dual-layer converges faster"
            ),
        ));
    }
}
