//! Per-switch runtime state: UIB registers and outgoing-link capacity
//! accounting.

use crate::uib::Uib;
use p4update_net::{NodeId, Topology, CAPACITY_SLACK};

/// One port: the neighbour it leads to and the remaining capacity on the
/// outgoing directed link toward it, in flow-size units. Packed, so a port
/// is 12 bytes and not 16; its fields are only read and written by value.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed)]
struct Port {
    to: NodeId,
    capacity: f64,
}

const _: () = assert!(std::mem::size_of::<Port>() == 12);

/// The mutable state of one switch, shared between the chassis (data-packet
/// forwarding) and the pluggable update logic.
#[derive(Debug, Clone)]
pub struct SwitchState {
    /// This switch's identity.
    pub id: NodeId,
    /// The per-flow register file.
    pub uib: Uib,
    /// The switch's ports, ascending by neighbour, probed by binary search:
    /// a switch has a handful of ports and the set never changes after
    /// construction. A switch alone accounts for the outgoing direction of
    /// its links, which is what makes the paper's local congestion
    /// scheduling sound (§7.4).
    ports: Box<[Port]>,
}

impl SwitchState {
    /// State for switch `id` in `topo`, with full capacity on every
    /// outgoing link. `Topology::neighbors` is sorted by neighbor id and
    /// `TopologyBuilder::add_link` rejects duplicate links, so the list is
    /// taken as it comes: no two entries ever shared a neighbor.
    pub fn new(id: NodeId, topo: &Topology) -> Self {
        let ports: Box<[Port]> = topo
            .neighbors(id)
            .iter()
            .map(|&(to, l)| Port {
                to,
                capacity: topo.link(l).capacity,
            })
            .collect();
        assert!(
            ports.windows(2).all(|w| { w[0].to } < { w[1].to }),
            "neighbors of {id} are not strictly ascending"
        );
        SwitchState {
            id,
            uib: Uib::new(),
            ports,
        }
    }

    fn port(&self, neighbor: NodeId) -> Option<usize> {
        self.ports.binary_search_by_key(&neighbor, |p| p.to).ok()
    }

    /// Remaining capacity toward `neighbor` (`None` if not adjacent).
    pub fn remaining_capacity(&self, neighbor: NodeId) -> Option<f64> {
        self.port(neighbor).map(|i| self.ports[i].capacity)
    }

    /// Whether `size` units fit on the link toward `neighbor`. Non-adjacent
    /// targets never fit.
    pub fn capacity_suffices(&self, neighbor: NodeId, size: f64) -> bool {
        self.remaining_capacity(neighbor)
            .is_some_and(|c| c + CAPACITY_SLACK >= size)
    }

    /// Reserve `size` units toward `neighbor`. Returns `false` (and
    /// reserves nothing) when capacity is insufficient, when `neighbor` is
    /// not a port, or when `size` is NaN. This is the one fit test of a
    /// switch-side move (§7.4), so its verdict must be read: a move that
    /// goes ahead on a `false` later releases capacity it never took.
    #[must_use = "a move whose reservation failed must not go ahead"]
    pub fn reserve_capacity(&mut self, neighbor: NodeId, size: f64) -> bool {
        match self.port(neighbor) {
            Some(i) if self.ports[i].capacity + CAPACITY_SLACK >= size => {
                self.ports[i].capacity -= size;
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
        if let Some(i) = self.port(neighbor) {
            self.ports[i].capacity += size;
        }
    }

    /// Neighbors with tracked capacity (the switch's ports).
    pub fn neighbors(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ports.iter().map(|p| p.to)
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
