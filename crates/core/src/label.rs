//! Distance/version label computation (§3).
//!
//! For each node on the new flow path the control plane computes the
//! verification content of its UIM: the new version number, the node's
//! distance to the egress on the new path (`D_n`), the new next hop, and
//! the upstream neighbor for the UNM clone session. These labels form the
//! distributed proof the switches verify locally.

use p4update_messages::{Uim, UpdateKind};
use p4update_net::{FlowUpdate, NodeId, Version};

/// The labels of one node for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeLabel {
    /// The labeled node.
    pub node: NodeId,
    /// Hop distance to the egress on the new path (`D_n`).
    pub new_distance: u32,
    /// Next hop on the new path; `None` at the egress.
    pub next_hop: Option<NodeId>,
    /// Predecessor on the new path; `None` at the ingress.
    pub upstream: Option<NodeId>,
}

/// Compute the labels of every node on the update's new path, egress first.
///
/// Egress-first order matches the update direction (backward from egress to
/// ingress, §3.1) and makes `labels[0]` the node that starts the chain.
pub fn label_path(update: &FlowUpdate) -> Vec<NodeLabel> {
    let nodes = update.new_path.nodes();
    let mut labels: Vec<NodeLabel> = nodes
        .iter()
        .enumerate()
        .map(|(i, &node)| NodeLabel {
            node,
            new_distance: (nodes.len() - 1 - i) as u32,
            next_hop: nodes.get(i + 1).copied(),
            upstream: if i == 0 { None } else { Some(nodes[i - 1]) },
        })
        .collect();
    labels.reverse();
    labels
}

/// Build the UIM for one labeled node (§6: "the control plane ... decides
/// the update and verification contents, e.g., distance, for each flow and
/// encapsulates them into the UIM").
pub fn uim_for(update: &FlowUpdate, label: &NodeLabel, version: Version, kind: UpdateKind) -> Uim {
    Uim {
        flow: update.flow,
        version,
        new_distance: label.new_distance,
        flow_size: update.size,
        next_hop: label.next_hop,
        upstream: label.upstream,
        kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4update_net::{FlowId, Path};

    fn path(ids: &[u32]) -> Path {
        Path::new(ids.iter().map(|&i| NodeId(i)).collect())
    }

    fn fig1_update() -> FlowUpdate {
        FlowUpdate::new(
            FlowId(0),
            Some(path(&[0, 4, 2, 7])),
            path(&[0, 1, 2, 3, 4, 5, 6, 7]),
            1.0,
        )
    }

    #[test]
    fn labels_match_fig1() {
        // Paper §3: D_n(v0) = 7, D_n(v1) = 6, ..., D_n(v7) = 0.
        let labels = label_path(&fig1_update());
        assert_eq!(labels.len(), 8);
        // Egress first.
        assert_eq!(labels[0].node, NodeId(7));
        assert_eq!(labels[0].new_distance, 0);
        assert_eq!(labels[0].next_hop, None);
        assert_eq!(labels[0].upstream, Some(NodeId(6)));
        // Ingress last.
        let ingress = labels.last().unwrap();
        assert_eq!(ingress.node, NodeId(0));
        assert_eq!(ingress.new_distance, 7);
        assert_eq!(ingress.next_hop, Some(NodeId(1)));
        assert_eq!(ingress.upstream, None);
        // Each hop's distance is one more than its parent's.
        for w in labels.windows(2) {
            assert_eq!(w[1].new_distance, w[0].new_distance + 1);
            assert_eq!(w[1].next_hop, Some(w[0].node));
            assert_eq!(w[0].upstream, Some(w[1].node));
        }
    }

    #[test]
    fn uim_carries_label_and_metadata() {
        let u = fig1_update();
        let labels = label_path(&u);
        let uim = uim_for(&u, &labels[1], Version(2), UpdateKind::Dual);
        assert_eq!(uim.flow, FlowId(0));
        assert_eq!(uim.version, Version(2));
        assert_eq!(uim.new_distance, 1);
        assert_eq!(uim.next_hop, Some(NodeId(7)));
        assert_eq!(uim.upstream, Some(NodeId(5)));
        assert_eq!(uim.kind, UpdateKind::Dual);
        assert_eq!(uim.flow_size, 1.0);
    }

    #[test]
    fn two_node_path_labels() {
        let u = FlowUpdate::new(FlowId(1), None, path(&[3, 9]), 0.5);
        let labels = label_path(&u);
        assert_eq!(labels.len(), 2);
        assert_eq!(labels[0].node, NodeId(9));
        assert_eq!(labels[0].upstream, Some(NodeId(3)));
        assert_eq!(labels[1].node, NodeId(3));
        assert_eq!(labels[1].next_hop, Some(NodeId(9)));
        assert_eq!(labels[1].upstream, None);
    }
}
