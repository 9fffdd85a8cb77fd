//! Dense per-switch storage for the hot forwarding path.
//!
//! [`NodeId`]s are dense indices assigned in creation order, so the table
//! is a `Vec` indexed by `NodeId::index()`: every lookup is `O(1)`, and
//! iteration runs in ascending `NodeId` order, which the deterministic
//! traces of the corpus depend on.

use crate::network::SwitchImpl;
use p4update_dataplane::Switch;
use p4update_net::{NodeId, Topology};
use std::ops::{Index, IndexMut};

/// All switches of a simulated network, indexed by [`NodeId`], each
/// holding its system's logic by value.
pub struct SwitchTable {
    switches: Vec<Switch<SwitchImpl>>,
}

impl SwitchTable {
    /// Build one switch per topology node, in `NodeId` order, each
    /// holding a logic `make` returns.
    pub fn build(topo: &Topology, mut make: impl FnMut() -> SwitchImpl) -> Self {
        let switches = topo
            .node_ids()
            .enumerate()
            .map(|(i, id)| {
                assert_eq!(i, id.index(), "topology node ids must be dense");
                Switch::new(id, topo, Box::new(make()))
            })
            .collect();
        SwitchTable { switches }
    }

    /// The switch at `id`, if `id` is in range.
    pub fn get(&self, id: NodeId) -> Option<&Switch<SwitchImpl>> {
        self.switches.get(id.index())
    }

    /// All switches in ascending `NodeId` order.
    pub fn values(&self) -> impl Iterator<Item = &Switch<SwitchImpl>> {
        self.switches.iter()
    }

    /// Mutable iteration in ascending `NodeId` order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut Switch<SwitchImpl>> {
        self.switches.iter_mut()
    }

    /// `(id, switch)` pairs in ascending `NodeId` order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Switch<SwitchImpl>)> {
        self.switches
            .iter()
            .enumerate()
            .map(|(i, sw)| (NodeId(i as u32), sw))
    }
}

impl Index<NodeId> for SwitchTable {
    type Output = Switch<SwitchImpl>;
    fn index(&self, id: NodeId) -> &Switch<SwitchImpl> {
        &self.switches[id.index()]
    }
}

impl IndexMut<NodeId> for SwitchTable {
    fn index_mut(&mut self, id: NodeId) -> &mut Switch<SwitchImpl> {
        &mut self.switches[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4update_core::P4UpdateLogic;
    use p4update_net::topologies;

    fn table() -> SwitchTable {
        let topo = topologies::fig1();
        SwitchTable::build(&topo, || SwitchImpl::P4(P4UpdateLogic::new()))
    }

    #[test]
    fn lookup_and_iteration_follow_node_id_order() {
        let t = table();
        assert!(t.get(NodeId(7)).is_some());
        assert!(t.get(NodeId(8)).is_none());
        let ids: Vec<NodeId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, (0u32..8).map(NodeId).collect::<Vec<_>>());
        assert_eq!(t.values().count(), 8);
    }
}
