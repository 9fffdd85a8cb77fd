//! The per-plan checks: label soundness, the distance/version proof carried
//! by the plan's UIMs (P4U001, P4U002, P4U004, P4U010, P4U013), routability
//! (P4U003) and the §7.5 mechanism-choice advisory (P4U008).

use crate::diagnostic::{Code, Diagnostic};
use p4update_core::{PreparedUpdate, SL_NODE_THRESHOLD};
use p4update_messages::UpdateKind;
use p4update_net::{segment_update, Topology, Version};

/// Verify the UIM set against the new path: one indication per path node,
/// egress first, each carrying the exact distance label and neighbor
/// pointers the proof-labeling scheme assigns (§3).
pub(crate) fn check_labels(plan: &PreparedUpdate, out: &mut Vec<Diagnostic>) {
    let path = &plan.update.new_path;
    let nodes = path.nodes();

    if plan.uims.len() != nodes.len() {
        out.push(Diagnostic::new(
            Code::UimSetMismatch,
            plan.flow,
            None,
            format!(
                "plan has {} UIMs for a new path of {} nodes",
                plan.uims.len(),
                nodes.len()
            ),
        ));
    }

    for (i, (target, uim)) in plan.uims.iter().enumerate() {
        let Some(pos) = path.position(*target) else {
            out.push(Diagnostic::new(
                Code::UimSetMismatch,
                plan.flow,
                Some(*target),
                "UIM addressed to a node that is not on the new path",
            ));
            continue;
        };

        // Egress-first ordering: uims[i] targets nodes[len-1-i]. The order
        // is part of the plan's contract (the egress starts the chain, so
        // its indication is pushed first).
        let expected_target = nodes[nodes.len() - 1 - i.min(nodes.len() - 1)];
        if i < nodes.len() && *target != expected_target {
            out.push(Diagnostic::new(
                Code::UimSetMismatch,
                plan.flow,
                Some(*target),
                format!(
                    "UIM #{i} targets {target}, expected {expected_target} (egress-first order)"
                ),
            ));
        }

        if uim.flow != plan.flow {
            out.push(Diagnostic::new(
                Code::UimSetMismatch,
                plan.flow,
                Some(*target),
                format!("UIM carries flow {} in a plan for {}", uim.flow, plan.flow),
            ));
        }
        if uim.kind != plan.kind {
            out.push(Diagnostic::new(
                Code::UimSetMismatch,
                plan.flow,
                Some(*target),
                format!(
                    "UIM kind {:?} disagrees with plan kind {:?}",
                    uim.kind, plan.kind
                ),
            ));
        }
        if uim.version != plan.version {
            out.push(Diagnostic::new(
                Code::VersionNotNewer,
                plan.flow,
                Some(*target),
                format!(
                    "UIM carries version {} in a plan for {}",
                    uim.version, plan.version
                ),
            ));
        }

        // The distance label: D_n(v) = hop distance to the egress. The
        // switches verify D_n(v) = D_n(UNM) + 1 hop by hop; a wrong label
        // here is exactly the forged proof the scheme exists to catch.
        let expected_d = (nodes.len() - 1 - pos) as u32;
        if uim.new_distance != expected_d {
            out.push(Diagnostic::new(
                Code::LabelChainBroken,
                plan.flow,
                Some(*target),
                format!(
                    "distance label {} breaks the chain (hop distance to egress is {expected_d})",
                    uim.new_distance
                ),
            ));
        }

        // Neighbor pointers: next hop forwards the flow, upstream receives
        // the cloned UNM. Either one wrong mis-wires the notification chain.
        let expected_next = path.successor(*target);
        if uim.next_hop != expected_next {
            out.push(Diagnostic::new(
                Code::UimChainMismatch,
                plan.flow,
                Some(*target),
                format!(
                    "next hop {:?} disagrees with the new path ({:?})",
                    uim.next_hop, expected_next
                ),
            ));
        }
        let expected_up = path.predecessor(*target);
        if uim.upstream != expected_up {
            out.push(Diagnostic::new(
                Code::UimChainMismatch,
                plan.flow,
                Some(*target),
                format!(
                    "upstream {:?} disagrees with the new path ({:?})",
                    uim.upstream, expected_up
                ),
            ));
        }

        if !uim.flow_size.is_finite() || uim.flow_size <= 0.0 {
            out.push(Diagnostic::new(
                Code::BadFlowSize,
                plan.flow,
                Some(*target),
                format!("flow size bound {} is unusable", uim.flow_size),
            ));
        } else if uim.flow_size != plan.update.size {
            out.push(Diagnostic::new(
                Code::BadFlowSize,
                plan.flow,
                Some(*target),
                format!(
                    "UIM flow size {} disagrees with the update's bound {}",
                    uim.flow_size, plan.update.size
                ),
            ));
        }
    }

    // Duplicate targets (two UIMs for one switch: the second overwrites the
    // staged entry and the chain count is off by one).
    let mut targets: Vec<_> = plan.uims.iter().map(|(n, _)| *n).collect();
    targets.sort_unstable();
    for w in targets.windows(2) {
        if w[0] == w[1] {
            out.push(Diagnostic::new(
                Code::UimSetMismatch,
                plan.flow,
                Some(w[0]),
                "duplicate UIM target",
            ));
        }
    }
}

/// Version soundness: the plan's version must be a real version and strictly
/// exceed whatever is installed (switches reject stale versions, §3 — a
/// plan that trips that check network-wide is a controller bug).
pub(crate) fn check_version(
    plan: &PreparedUpdate,
    installed: Option<Version>,
    out: &mut Vec<Diagnostic>,
) {
    if plan.version == Version::NONE {
        out.push(Diagnostic::new(
            Code::VersionNotNewer,
            plan.flow,
            None,
            "plan uses the reserved pre-deployment version V0",
        ));
    }
    if let Some(cur) = installed {
        if plan.version <= cur {
            out.push(Diagnostic::new(
                Code::VersionNotNewer,
                plan.flow,
                None,
                format!(
                    "plan version {} does not exceed installed version {cur}",
                    plan.version
                ),
            ));
        }
    }
}

/// Routability: every new-path edge must be a topology link (errors — the
/// plan cannot forward at all); missing old-path edges are warnings folded
/// into the same code (the old configuration predates this plan).
pub(crate) fn check_topology(plan: &PreparedUpdate, topo: &Topology, out: &mut Vec<Diagnostic>) {
    for (a, b) in plan.update.new_path.edges() {
        if topo.link_between(a, b).is_none() {
            out.push(Diagnostic::new(
                Code::UnroutableEdge,
                plan.flow,
                Some(a),
                format!(
                    "new path uses {a} -> {b}, which is not a link of '{}'",
                    topo.name
                ),
            ));
        }
    }
    for n in plan.update.new_path.nodes() {
        if n.index() >= topo.node_count() {
            out.push(Diagnostic::new(
                Code::UnroutableEdge,
                plan.flow,
                Some(*n),
                format!(
                    "new path visits {n}, which '{}' does not contain",
                    topo.name
                ),
            ));
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
    let backward = segment_update(&plan.update).backward_count();
    if backward > 0 {
        out.push(Diagnostic::new(
            Code::MechanismAdvisory,
            plan.flow,
            None,
            format!(
                "single-layer deployment of a plan with {backward} backward segment(s); \
                 the §7.5 rule calls for dual-layer"
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
