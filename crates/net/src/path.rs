//! Path representation and routing algorithms: Dijkstra shortest paths and
//! Yen's k-shortest loopless paths (the multi-flow scenario routes each flow
//! on its shortest path and migrates it to the 2nd-shortest, §9.1).

use crate::graph::{NodeId, Topology};
use p4update_des::SimDuration;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A simple (loop-free) path through the topology, as an ordered node list
/// from ingress to egress. Consecutive nodes are guaranteed adjacent when the
/// path was produced by the algorithms in this module; [`Path::validate`]
/// checks arbitrary inputs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    nodes: Vec<NodeId>,
}

impl Path {
    /// Wrap an ordered node list. Panics on fewer than 2 nodes or repeated
    /// nodes (paths are simple by definition in the update model).
    pub fn new(nodes: Vec<NodeId>) -> Self {
        assert!(nodes.len() >= 2, "a path needs at least ingress and egress");
        let mut seen = nodes.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), nodes.len(), "path visits a node twice");
        Path { nodes }
    }

    /// Ordered nodes, ingress first.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The ingress (source) node.
    pub fn ingress(&self) -> NodeId {
        self.nodes[0]
    }

    /// The egress (destination) node.
    pub fn egress(&self) -> NodeId {
        *self.nodes.last().expect("non-empty by construction")
    }

    /// Number of hops (edges).
    pub fn hop_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Whether `v` lies on the path.
    pub fn contains(&self, v: NodeId) -> bool {
        self.nodes.contains(&v)
    }

    /// Position of `v` on the path (0 = ingress).
    pub fn position(&self, v: NodeId) -> Option<usize> {
        self.nodes.iter().position(|&n| n == v)
    }

    /// Hop distance from `v` to the egress along this path — the paper's
    /// distance label `D` (egress has distance 0).
    pub fn distance_to_egress(&self, v: NodeId) -> Option<u32> {
        self.position(v).map(|p| (self.nodes.len() - 1 - p) as u32)
    }

    /// The node `v` forwards to on this path (its *parent* / successor in
    /// the paper's terminology), `None` for the egress.
    pub fn successor(&self, v: NodeId) -> Option<NodeId> {
        let p = self.position(v)?;
        self.nodes.get(p + 1).copied()
    }

    /// The node that forwards to `v` (its *child* / predecessor), `None` for
    /// the ingress.
    pub fn predecessor(&self, v: NodeId) -> Option<NodeId> {
        let p = self.position(v)?;
        p.checked_sub(1).map(|i| self.nodes[i])
    }

    /// Directed edges `(from, to)` along the path.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes.windows(2).map(|w| (w[0], w[1]))
    }

    /// Sum of link latencies along the path.
    pub fn total_latency(&self, topo: &Topology) -> SimDuration {
        self.edges().fold(SimDuration::ZERO, |acc, (a, b)| {
            acc + topo
                .latency_between(a, b)
                .expect("path edge must be a topology link")
        })
    }

    /// Check that every consecutive pair is adjacent in `topo`.
    pub fn validate(&self, topo: &Topology) -> bool {
        self.edges().all(|(a, b)| topo.link_between(a, b).is_some())
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // min-heap on cost, tie-broken by node id for determinism
        other
            .cost
            .partial_cmp(&self.cost)
            .expect("costs are finite")
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Latency-weighted shortest-path distances (in milliseconds) from `src` to
/// every node; `f64::INFINITY` for unreachable nodes.
pub fn latency_distances_from(topo: &Topology, src: NodeId) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; topo.node_count()];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0.0;
    heap.push(HeapEntry {
        cost: 0.0,
        node: src,
    });
    while let Some(HeapEntry { cost, node }) = heap.pop() {
        if cost > dist[node.index()] {
            continue;
        }
        for &(next, link) in topo.neighbors(node) {
            let w = topo.link(link).latency.as_millis_f64();
            let nd = cost + w;
            if nd < dist[next.index()] {
                dist[next.index()] = nd;
                heap.push(HeapEntry {
                    cost: nd,
                    node: next,
                });
            }
        }
    }
    dist
}

/// Dijkstra over link latency, with an edge filter (needed by Yen's spur
/// computation). Ties broken deterministically by node id.
fn shortest_path_filtered(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    banned_nodes: &[bool],
    banned_edges: &[(NodeId, NodeId)],
) -> Option<Path> {
    let n = topo.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    if banned_nodes[src.index()] || banned_nodes[dst.index()] {
        return None;
    }
    dist[src.index()] = 0.0;
    heap.push(HeapEntry {
        cost: 0.0,
        node: src,
    });
    while let Some(HeapEntry { cost, node }) = heap.pop() {
        if cost > dist[node.index()] {
            continue;
        }
        if node == dst {
            break;
        }
        for &(next, link) in topo.neighbors(node) {
            if banned_nodes[next.index()] {
                continue;
            }
            if banned_edges
                .iter()
                .any(|&(a, b)| (a == node && b == next) || (a == next && b == node))
            {
                continue;
            }
            let w = topo.link(link).latency.as_millis_f64();
            let nd = cost + w;
            if nd < dist[next.index()]
                || (nd == dist[next.index()] && prev[next.index()].is_some_and(|p| node < p))
            {
                dist[next.index()] = nd;
                prev[next.index()] = Some(node);
                heap.push(HeapEntry {
                    cost: nd,
                    node: next,
                });
            }
        }
    }
    if !dist[dst.index()].is_finite() {
        return None;
    }
    let mut nodes = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = prev[cur.index()].expect("reachable node has a predecessor");
        nodes.push(cur);
    }
    nodes.reverse();
    Some(Path::new(nodes))
}

/// Latency-weighted shortest path from `src` to `dst`.
pub fn shortest_path(topo: &Topology, src: NodeId, dst: NodeId) -> Option<Path> {
    shortest_path_avoiding(topo, src, dst, &[])
}

/// Latency-weighted shortest path from `src` to `dst` that visits none of
/// the `banned` nodes.
pub fn shortest_path_avoiding(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    banned: &[NodeId],
) -> Option<Path> {
    if src == dst {
        return None;
    }
    let mut banned_nodes = vec![false; topo.node_count()];
    for &v in banned {
        banned_nodes[v.index()] = true;
    }
    shortest_path_filtered(topo, src, dst, &banned_nodes, &[])
}

/// Yen's algorithm: the `k` shortest loopless paths from `src` to `dst`, in
/// nondecreasing latency order. Returns fewer than `k` if the graph does not
/// contain that many distinct simple paths.
pub fn k_shortest_paths(topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    let Some(first) = shortest_path(topo, src, dst) else {
        return Vec::new();
    };
    let mut result = vec![first];
    let mut candidates: Vec<(f64, Path)> = Vec::new();

    while result.len() < k {
        let last = result.last().expect("result non-empty").clone();
        // Each node of the previous path (except egress) is a spur point.
        for spur_idx in 0..last.nodes().len() - 1 {
            let spur_node = last.nodes()[spur_idx];
            let root: Vec<NodeId> = last.nodes()[..=spur_idx].to_vec();

            // Ban edges that would recreate an already-found path with the
            // same root, and ban root nodes (except the spur) to keep the
            // total path simple.
            let mut banned_edges = Vec::new();
            for p in result
                .iter()
                .map(Path::nodes)
                .chain(candidates.iter().map(|(_, p)| p.nodes()))
            {
                if p.len() > spur_idx + 1 && p[..=spur_idx] == root[..] {
                    banned_edges.push((p[spur_idx], p[spur_idx + 1]));
                }
            }
            let mut banned_nodes = vec![false; topo.node_count()];
            for &v in &root[..spur_idx] {
                banned_nodes[v.index()] = true;
            }

            if let Some(spur) =
                shortest_path_filtered(topo, spur_node, dst, &banned_nodes, &banned_edges)
            {
                let mut total = root.clone();
                total.extend_from_slice(&spur.nodes()[1..]);
                let path = Path::new(total);
                let cost = path.total_latency(topo).as_millis_f64();
                if !candidates.iter().any(|(_, p)| *p == path) && !result.contains(&path) {
                    candidates.push((cost, path));
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Pop the cheapest candidate (deterministic tie-break on node list).
        candidates.sort_by(|(c1, p1), (c2, p2)| {
            c1.partial_cmp(c2)
                .expect("finite")
                .then_with(|| p1.nodes().cmp(p2.nodes()))
        });
        result.push(candidates.remove(0).1);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopologyBuilder;

    /// Diamond: 0-1-3 (fast) and 0-2-3 (slow), plus direct 0-3 (slowest).
    fn diamond() -> Topology {
        let mut b = TopologyBuilder::new("diamond");
        let v: Vec<_> = (0..4).map(|i| b.add_node(format!("n{i}"))).collect();
        b.add_link(v[0], v[1], SimDuration::from_millis(1), 10.0);
        b.add_link(v[1], v[3], SimDuration::from_millis(1), 10.0);
        b.add_link(v[0], v[2], SimDuration::from_millis(2), 10.0);
        b.add_link(v[2], v[3], SimDuration::from_millis(2), 10.0);
        b.add_link(v[0], v[3], SimDuration::from_millis(10), 10.0);
        b.build()
    }

    #[test]
    fn path_accessors() {
        let p = Path::new(vec![NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(p.ingress(), NodeId(0));
        assert_eq!(p.egress(), NodeId(3));
        assert_eq!(p.hop_count(), 2);
        assert_eq!(p.distance_to_egress(NodeId(0)), Some(2));
        assert_eq!(p.distance_to_egress(NodeId(3)), Some(0));
        assert_eq!(p.distance_to_egress(NodeId(9)), None);
        assert_eq!(p.successor(NodeId(1)), Some(NodeId(3)));
        assert_eq!(p.successor(NodeId(3)), None);
        assert_eq!(p.predecessor(NodeId(1)), Some(NodeId(0)));
        assert_eq!(p.predecessor(NodeId(0)), None);
        assert!(p.contains(NodeId(1)));
        assert!(!p.contains(NodeId(2)));
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn looping_path_panics() {
        Path::new(vec![NodeId(0), NodeId(1), NodeId(0)]);
    }

    #[test]
    fn dijkstra_picks_the_fast_branch() {
        let t = diamond();
        let p = shortest_path(&t, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(p.total_latency(&t).as_millis_f64(), 2.0);
    }

    #[test]
    fn dijkstra_same_node_is_none() {
        let t = diamond();
        assert!(shortest_path(&t, NodeId(0), NodeId(0)).is_none());
    }

    #[test]
    fn distances_from_source() {
        let t = diamond();
        let d = latency_distances_from(&t, NodeId(0));
        assert_eq!(d[0], 0.0);
        assert_eq!(d[1], 1.0);
        assert_eq!(d[2], 2.0);
        assert_eq!(d[3], 2.0);
    }

    #[test]
    fn yen_orders_three_paths() {
        let t = diamond();
        let paths = k_shortest_paths(&t, NodeId(0), NodeId(3), 3);
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0].nodes(), &[NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(paths[1].nodes(), &[NodeId(0), NodeId(2), NodeId(3)]);
        assert_eq!(paths[2].nodes(), &[NodeId(0), NodeId(3)]);
        let costs: Vec<f64> = paths
            .iter()
            .map(|p| p.total_latency(&t).as_millis_f64())
            .collect();
        assert!(costs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn yen_returns_fewer_when_exhausted() {
        let mut b = TopologyBuilder::new("line");
        let v: Vec<_> = (0..3).map(|i| b.add_node(format!("n{i}"))).collect();
        b.add_link(v[0], v[1], SimDuration::from_millis(1), 1.0);
        b.add_link(v[1], v[2], SimDuration::from_millis(1), 1.0);
        let t = b.build();
        let paths = k_shortest_paths(&t, v[0], v[2], 5);
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn yen_paths_are_simple_and_valid() {
        let t = crate::topologies::internet2();
        let paths = k_shortest_paths(&t, NodeId(0), NodeId(15), 4);
        assert!(paths.len() >= 2);
        for p in &paths {
            assert!(p.validate(&t));
        }
        // All distinct.
        for i in 0..paths.len() {
            for j in i + 1..paths.len() {
                assert_ne!(paths[i], paths[j]);
            }
        }
    }

    #[test]
    fn validate_rejects_non_adjacent_hops() {
        let t = diamond();
        let p = Path::new(vec![NodeId(1), NodeId(2)]); // not adjacent
        assert!(!p.validate(&t));
    }
}
