//! Per-switch runtime state: UIB registers, outgoing-link capacity
//! accounting, and pipeline overhead counters.

use crate::uib::Uib;
use p4update_net::{NodeId, Topology, CAPACITY_SLACK};

/// The mutable state of one switch, shared between the chassis (data-packet
/// forwarding) and the pluggable update logic.
#[derive(Debug, Clone)]
pub struct SwitchState {
    /// This switch's identity.
    pub id: NodeId,
    /// The per-flow register file.
    pub uib: Uib,
    /// Remaining capacity on each outgoing directed link `(self → neighbor)`
    /// in flow-size units. The sending endpoint exclusively controls its
    /// direction, which is what makes the paper's local congestion
    /// scheduling sound (§7.4). Ascending `NodeId` order, one entry per
    /// port, probed by binary search: a switch has a handful of ports and
    /// the set never changes after construction.
    capacity: Vec<(NodeId, f64)>,
}

impl SwitchState {
    /// State for switch `id` in `topo`, with full capacity on every
    /// outgoing link. `Topology::neighbors` is sorted by neighbor id and
    /// `TopologyBuilder::add_link` rejects duplicate links, so the list is
    /// taken as it comes: no two entries ever shared a neighbor.
    pub fn new(id: NodeId, topo: &Topology) -> Self {
        let capacity: Vec<(NodeId, f64)> = topo
            .neighbors(id)
            .iter()
            .map(|&(n, l)| (n, topo.link(l).capacity))
            .collect();
        assert!(
            capacity.windows(2).all(|w| w[0].0 < w[1].0),
            "neighbors of {id} are not strictly ascending"
        );
        SwitchState {
            id,
            uib: Uib::new(),
            capacity,
        }
    }

    fn port(&self, neighbor: NodeId) -> Option<usize> {
        self.capacity.binary_search_by_key(&neighbor, |e| e.0).ok()
    }

    /// Remaining capacity toward `neighbor` (`None` if not adjacent).
    pub fn remaining_capacity(&self, neighbor: NodeId) -> Option<f64> {
        self.port(neighbor).map(|i| self.capacity[i].1)
    }

    fn capacity_mut(&mut self, neighbor: NodeId) -> Option<&mut f64> {
        self.port(neighbor).map(|i| &mut self.capacity[i].1)
    }

    /// Whether `size` units fit on the link toward `neighbor`. Non-adjacent
    /// targets never fit.
    pub fn capacity_suffices(&self, neighbor: NodeId, size: f64) -> bool {
        self.remaining_capacity(neighbor)
            .is_some_and(|c| c + CAPACITY_SLACK >= size)
    }

    /// Reserve `size` units toward `neighbor`. Returns `false` (and
    /// reserves nothing) when capacity is insufficient.
    pub fn reserve_capacity(&mut self, neighbor: NodeId, size: f64) -> bool {
        match self.capacity_mut(neighbor) {
            Some(c) if *c + CAPACITY_SLACK >= size => {
                *c -= size;
                true
            }
            _ => false,
        }
    }

    /// Release `size` units toward `neighbor` (no-op for non-neighbors).
    /// Clamps at the link's nominal capacity is deliberately *not* applied:
    /// releases must balance reserves, and over-release indicates a logic
    /// bug that the consistency checker will flag.
    pub fn release_capacity(&mut self, neighbor: NodeId, size: f64) {
        if let Some(c) = self.capacity_mut(neighbor) {
            *c += size;
        }
    }

    /// Neighbors with tracked capacity (the switch's ports).
    pub fn neighbors(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.capacity.iter().map(|e| e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4update_des::SimDuration;
    use p4update_net::TopologyBuilder;

    fn line3() -> Topology {
        let mut b = TopologyBuilder::new("l3");
        let v: Vec<_> = (0..3).map(|i| b.add_node(format!("n{i}"))).collect();
        b.add_link(v[0], v[1], SimDuration::from_millis(1), 10.0);
        b.add_link(v[1], v[2], SimDuration::from_millis(1), 4.0);
        b.build()
    }

    #[test]
    fn capacity_initialized_from_topology() {
        let t = line3();
        let s = SwitchState::new(NodeId(1), &t);
        assert_eq!(s.remaining_capacity(NodeId(0)), Some(10.0));
        assert_eq!(s.remaining_capacity(NodeId(2)), Some(4.0));
        assert_eq!(s.remaining_capacity(NodeId(1)), None);
        assert_eq!(
            s.neighbors().collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(2)]
        );
    }

    #[test]
    fn reserve_and_release() {
        let t = line3();
        let mut s = SwitchState::new(NodeId(1), &t);
        assert!(s.reserve_capacity(NodeId(2), 3.0));
        assert_eq!(s.remaining_capacity(NodeId(2)), Some(1.0));
        assert!(!s.reserve_capacity(NodeId(2), 2.0));
        assert_eq!(s.remaining_capacity(NodeId(2)), Some(1.0));
        s.release_capacity(NodeId(2), 3.0);
        assert_eq!(s.remaining_capacity(NodeId(2)), Some(4.0));
    }

    #[test]
    fn capacity_check_tolerates_float_noise() {
        let t = line3();
        let mut s = SwitchState::new(NodeId(1), &t);
        assert!(s.reserve_capacity(NodeId(2), 4.0));
        assert!(s.capacity_suffices(NodeId(2), 0.0));
        assert!(!s.capacity_suffices(NodeId(2), 0.1));
    }

    #[test]
    fn exact_fill_is_allowed() {
        let t = line3();
        let mut s = SwitchState::new(NodeId(0), &t);
        assert!(s.capacity_suffices(NodeId(1), 10.0));
        assert!(s.reserve_capacity(NodeId(1), 10.0));
        assert!(!s.reserve_capacity(NodeId(1), 0.5));
    }

    #[test]
    fn non_neighbor_operations_are_safe() {
        let t = line3();
        let mut s = SwitchState::new(NodeId(0), &t);
        assert!(!s.capacity_suffices(NodeId(2), 0.1));
        assert!(!s.reserve_capacity(NodeId(2), 1.0));
        s.release_capacity(NodeId(2), 1.0); // no-op
        assert_eq!(s.remaining_capacity(NodeId(2)), None);
    }
}
