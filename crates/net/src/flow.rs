//! The flow and update model: flows between ingress/egress switches, routed
//! along simple paths; an update migrates a flow from its old path to a new
//! one (paper §5).

use crate::graph::NodeId;
use crate::path::Path;
use std::fmt;

/// Identifier of a traffic flow. In the P4 implementation this is the hash
/// of the source–destination pair computed by the ingress switch when it
/// emits the flow-report message (Appendix B); here it is assigned by the
/// harness and carried verbatim in every message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

impl FlowId {
    /// Index into dense per-flow register arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Configuration version number. Strictly increases with each configuration
/// the controller emits for a flow; used by the data plane to reject
/// out-of-date update commands (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version(pub u32);

impl Version {
    /// The pre-first-configuration version (no rules installed).
    pub const NONE: Version = Version(0);

    /// The next version.
    pub fn next(self) -> Version {
        Version(self.0 + 1)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{}", self.0)
    }
}

/// A requested route update for one flow: migrate from `old_path` to
/// `new_path`. Old and new path share ingress and egress.
///
/// `PartialEq` (not `Eq`, because of the `f64` size) exists so batch
/// consumers can diff successive batches positionally.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowUpdate {
    /// The flow being rerouted.
    pub flow: FlowId,
    /// Current route (`None` for initial deployment of a new flow).
    pub old_path: Option<Path>,
    /// Target route.
    pub new_path: Path,
    /// Flow size bound, in link-capacity units: the congestion model
    /// assumes an immutable, ingress-enforced upper bound on the flow's
    /// rate that the controller knows (§7.4). Copied into the UIM so
    /// switches can do local capacity checks.
    pub size: f64,
}

impl FlowUpdate {
    /// Construct and sanity-check an update request.
    ///
    /// # Panics
    /// Panics if old and new paths disagree on ingress or egress — such a
    /// request is malformed at the controller, not an inconsistency the data
    /// plane is meant to catch.
    pub fn new(flow: FlowId, old_path: Option<Path>, new_path: Path, size: f64) -> Self {
        if let Some(old) = &old_path {
            assert_eq!(old.ingress(), new_path.ingress(), "ingress must match");
            assert_eq!(old.egress(), new_path.egress(), "egress must match");
        }
        FlowUpdate {
            flow,
            old_path,
            new_path,
            size,
        }
    }

    /// Nodes that need new forwarding rules: every node on the new path
    /// but the egress, whose old rule terminates the flow — unless the
    /// flow deploys fresh.
    pub fn nodes_to_update(&self) -> impl Iterator<Item = NodeId> + '_ {
        let egress = self.new_path.egress();
        self.new_path
            .nodes()
            .iter()
            .copied()
            .filter(move |&n| n != egress || self.old_path.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(ids: &[u32]) -> Path {
        Path::new(ids.iter().map(|&i| NodeId(i)).collect())
    }

    #[test]
    fn version_ordering_and_next() {
        assert!(Version(2) > Version(1));
        assert_eq!(Version::NONE.next(), Version(1));
        assert_eq!(Version(7).next(), Version(8));
    }

    #[test]
    fn update_nodes_exclude_egress() {
        let u = FlowUpdate::new(FlowId(0), Some(p(&[0, 4, 2, 7])), p(&[0, 1, 2, 3, 7]), 1.0);
        let nodes: Vec<_> = u.nodes_to_update().collect();
        assert_eq!(nodes, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    #[should_panic(expected = "egress must match")]
    fn mismatched_egress_panics() {
        FlowUpdate::new(FlowId(0), Some(p(&[0, 1, 2])), p(&[0, 3]), 1.0);
    }

    #[test]
    #[should_panic(expected = "ingress must match")]
    fn mismatched_ingress_panics() {
        FlowUpdate::new(FlowId(0), Some(p(&[1, 2])), p(&[0, 2]), 1.0);
    }

    #[test]
    fn initial_deployment_has_no_old_path() {
        let u = FlowUpdate::new(FlowId(3), None, p(&[0, 1, 2]), 1.0);
        assert!(u.old_path.is_none());
    }
}
