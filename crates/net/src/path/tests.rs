//! The path search's tests, with the search it replaced kept as their
//! reference and the random graphs both are compared on.

use super::*;
use crate::graph::{tests::unit_graph, TopologyBuilder};
use p4update_des::propcheck::{cases, forall};
use p4update_des::SimRng;

/// The search as it stood before [`PathSolver`]: a full Dijkstra per query
/// and per spur on a `BinaryHeap`, kept (plus one counter, and with its
/// distances readable) as the reference the solver and
/// `latency_distances_from` are compared against.
mod oracle {
    use super::*;
    use std::cell::Cell;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    thread_local! {
        /// Nodes expanded by `dijkstra` on this thread.
        pub static EXPANDED: Cell<usize> = const { Cell::new(0) };
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

    /// Dijkstra over link latency from `src`, with an edge filter (needed
    /// by Yen's spur computation), stopping when `dst` pops: the labels and
    /// predecessors. Ties broken deterministically by node id.
    fn dijkstra(
        topo: &Topology,
        src: NodeId,
        dst: Option<NodeId>,
        banned_nodes: &[bool],
        banned_edges: &[(NodeId, NodeId)],
    ) -> (Vec<f64>, Vec<Option<NodeId>>) {
        let n = topo.node_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<NodeId>> = vec![None; n];
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
            if Some(node) == dst {
                break;
            }
            EXPANDED.with(|c| c.set(c.get() + 1));
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
        (dist, prev)
    }

    /// Latency-weighted distances from `src` to every node.
    pub fn distances_from(topo: &Topology, src: NodeId) -> Vec<f64> {
        dijkstra(topo, src, None, &vec![false; topo.node_count()], &[]).0
    }

    /// The shortest path from `src` to `dst` under the filters.
    fn shortest_path_filtered(
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        banned_nodes: &[bool],
        banned_edges: &[(NodeId, NodeId)],
    ) -> Option<Path> {
        if banned_nodes[src.index()] || banned_nodes[dst.index()] {
            return None;
        }
        let (dist, prev) = dijkstra(topo, src, Some(dst), banned_nodes, banned_edges);
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
}

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

fn path(nodes: &[u32]) -> Path {
    Path::new(nodes.iter().map(|&i| NodeId(i)).collect())
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
#[should_panic(expected = "path visits a node twice")]
fn a_revisit_in_a_three_node_path_panics() {
    path(&[0, 1, 1]);
}

#[test]
#[should_panic(expected = "path visits a node twice")]
fn an_egress_equal_to_the_ingress_panics() {
    path(&[0, 1, 2, 0]);
}

#[test]
#[should_panic(expected = "path visits a node twice")]
fn a_revisit_far_along_a_long_path_panics() {
    let mut ids: Vec<u32> = (0..99).collect();
    ids.push(0);
    path(&ids);
}

#[test]
fn a_long_simple_path_is_accepted() {
    let ids: Vec<u32> = (0..100).rev().collect();
    assert_eq!(path(&ids).hop_count(), 99);
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
fn yen_with_k_zero_is_empty_and_searches_nothing() {
    let t = diamond();
    assert!(k_shortest_paths(&t, NodeId(0), NodeId(3), 0).is_empty());
    let mut solver = PathSolver::new(&t);
    SETTLED.set(0);
    assert!(solver.k_shortest(NodeId(0), NodeId(3), 0).is_empty());
    assert_eq!((SETTLED.get(), solver.expanded), (0, 0));
    solver.assert_idle();
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

impl PathSolver<'_> {
    /// Everything a query may touch is back in its between-queries state.
    fn assert_idle(&self) {
        assert!(self.touched.is_empty());
        assert!(self.dist.iter().all(|&d| d == f64::INFINITY));
        assert!(self.prev.iter().all(|&p| p == NO_PREV));
        assert!(self.banned.iter().all(|&b| !b));
        assert!(self.potential.iter().all(|&h| h == 0.0));
    }
}

/// Every query form on `(src, dst)` — `k` up to `max_k`, and one search
/// around `avoid` — answered by `solver` and by the oracle.
fn assert_agrees(
    solver: &mut PathSolver<'_>,
    src: NodeId,
    dst: NodeId,
    max_k: usize,
    avoid: &[NodeId],
) {
    let topo = solver.topo;
    for k in 1..=max_k {
        assert_eq!(
            solver.k_shortest(src, dst, k),
            oracle::k_shortest_paths(topo, src, dst, k),
            "{}: k_shortest({src}, {dst}, {k})",
            topo.name
        );
        solver.assert_idle();
    }
    assert_eq!(
        solver.shortest_path_avoiding(src, dst, avoid),
        oracle::shortest_path_avoiding(topo, src, dst, avoid),
        "{}: shortest_path_avoiding({src}, {dst}, {avoid:?})",
        topo.name
    );
    solver.assert_idle();
}

/// The links `random_graph` starts from.
#[derive(Clone, Copy)]
pub(crate) enum Backbone {
    /// A random spanning tree.
    Tree,
    /// The chain 0-1-..-(n-1) with its first `len` nodes closed into a
    /// cycle: a ring when `len == n`, a lollipop below that. Between
    /// neighbours on the cycle the 2nd path is the long way round,
    /// nearly all of it farther from the destination than the source.
    Cycle { len: usize },
}

/// A random graph on `n` nodes: a backbone (minus one link when
/// `split`, leaving two components) plus `extra` more links.
pub(crate) fn random_graph(
    rng: &mut SimRng,
    n: usize,
    backbone: Backbone,
    extra: usize,
    split: bool,
    mut latency: impl FnMut(&mut SimRng) -> SimDuration,
) -> Topology {
    let mut b = TopologyBuilder::new(format!("random-{n}"));
    let ids: Vec<_> = (0..n).map(|i| b.add_node(format!("r{i}"))).collect();
    let cut = n / 2;
    // With a split, nodes below `cut` and nodes from `cut` on only ever
    // link among themselves.
    let side = |i: usize| split && i >= cut;
    for i in 1..n {
        if split && i == cut {
            continue;
        }
        let j = match backbone {
            Backbone::Tree => {
                let lo = if side(i) { cut } else { 0 };
                lo + rng.uniform_usize(i - lo)
            }
            Backbone::Cycle { .. } => i - 1,
        };
        let lat = latency(rng);
        b.add_link(ids[i], ids[j], lat, 1.0);
    }
    if let Backbone::Cycle { len } = backbone {
        if len >= 3 && side(len - 1) == side(0) {
            let lat = latency(rng);
            b.add_link(ids[len - 1], ids[0], lat, 1.0);
        }
    }
    for _ in 0..extra {
        let (i, j) = (rng.uniform_usize(n), rng.uniform_usize(n));
        if i != j && side(i) == side(j) && !b.has_link(ids[i], ids[j]) {
            let lat = latency(rng);
            b.add_link(ids[i], ids[j], lat, 1.0);
        }
    }
    b.build()
}

/// A random graph on 2 to 24 nodes for the solver's differentials, split
/// in two a fifth of the time.
fn solver_test_graph(rng: &mut SimRng) -> Topology {
    let n = 2 + rng.uniform_usize(23);
    let split = n >= 4 && rng.chance(0.2);
    // Half the graphs are dense, half a cycle with at most two chords,
    // where leaving the shortest path is a long detour.
    let (backbone, extra) = match rng.uniform_usize(4) {
        0 => (Backbone::Cycle { len: n }, rng.uniform_usize(3)),
        1 => {
            let len = 1 + rng.uniform_usize(n);
            (Backbone::Cycle { len }, rng.uniform_usize(3))
        }
        _ => (Backbone::Tree, rng.uniform_usize(3 * n)),
    };
    match rng.uniform_usize(4) {
        // Whole milliseconds from {1, 2, 3}: equally short paths
        // everywhere, so every answer is a tie-break.
        0 => random_graph(rng, n, backbone, extra, split, |r| {
            SimDuration::from_millis(1 + r.uniform_usize(3) as u64)
        }),
        // One latency on every link, as in a fat-tree: every link is a
        // lightest one, so the reverse search certifies sources through
        // their neighbours. 0.07 ms is inexact in floating point.
        3 => {
            let lat = [
                SimDuration::from_millis(1),
                SimDuration::from_micros(70),
                SimDuration::from_nanos(50_000 + rng.uniform_usize(20_000_000) as u64),
            ][rng.uniform_usize(3)];
            random_graph(rng, n, backbone, extra, split, |_| lat)
        }
        // As many ties, but 0.05, 0.07 and 0.13 ms are inexact in
        // floating point: equal sums taken in a different order differ
        // in the last bit, which is what TIE_SLACK absorbs.
        1 => random_graph(rng, n, backbone, extra, split, |r| {
            SimDuration::from_micros([50, 70, 130][r.uniform_usize(3)])
        }),
        // Geo-like: 50 us to 20 ms in whole nanoseconds.
        _ => random_graph(rng, n, backbone, extra, split, |r| {
            SimDuration::from_nanos(50_000 + r.uniform_usize(20_000_000) as u64)
        }),
    }
}

#[test]
fn solver_agrees_with_the_oracle_on_random_graphs() {
    forall("path_solver_vs_oracle", cases(96), |rng| {
        let topo = solver_test_graph(rng);
        let n = topo.node_count();
        let mut solver = PathSolver::new(&topo);
        for _ in 0..12 {
            let src = NodeId(rng.uniform_usize(n) as u32);
            let dst = NodeId(rng.uniform_usize(n) as u32);
            // May name `src` or `dst` themselves: the search refuses.
            let avoid: Vec<NodeId> = (0..rng.uniform_usize(4))
                .map(|_| NodeId(rng.uniform_usize(n) as u32))
                .collect();
            assert_agrees(&mut solver, src, dst, 5, &avoid);
        }
    });
}

/// `assert_agrees` on every ordered pair of `topo`, one solver for all.
fn assert_agrees_on_every_pair(topo: &Topology, max_k: usize) {
    let mut solver = PathSolver::new(topo);
    for src in topo.node_ids() {
        for dst in topo.node_ids() {
            // Two nodes picked by id stand in for the waypoints
            // `single_flow` bans; they may coincide with the pair.
            let n = topo.node_count() as u32;
            let avoid = [NodeId((src.0 + 1) % n), NodeId((dst.0 + n - 1) % n)];
            assert_agrees(&mut solver, src, dst, max_k, &avoid);
        }
    }
}

#[test]
fn solver_agrees_with_the_oracle_on_every_pair_of_the_evaluation_topologies() {
    use crate::topologies as t;
    for topo in [
        t::fat_tree(4),
        t::b4(),
        t::internet2(),
        t::att_mpls(),
        t::chinanet(),
    ] {
        assert_agrees_on_every_pair(&topo, 5);
    }
    assert_agrees_on_every_pair(&t::synthetic_fat_tree_64(), 3);
}

/// `k_shortest_batch` on `queries` against one `k_shortest` per query and
/// against the oracle, leaving the solver idle.
fn assert_batch_agrees(solver: &mut PathSolver<'_>, queries: &[(NodeId, NodeId)], k: usize) {
    let topo = solver.topo;
    let batch = solver.k_shortest_batch(queries, k);
    solver.assert_idle();
    assert_eq!(batch.len(), queries.len());
    for (&(src, dst), answer) in queries.iter().zip(&batch) {
        assert_eq!(
            *answer,
            solver.k_shortest(src, dst, k),
            "{}: batch vs single k_shortest({src}, {dst}, {k})",
            topo.name
        );
        // The oracle returns the shortest path even for `k = 0`.
        let want = match k {
            0 => Vec::new(),
            _ => oracle::k_shortest_paths(topo, src, dst, k),
        };
        assert_eq!(
            *answer, want,
            "{}: batch vs oracle k_shortest({src}, {dst}, {k})",
            topo.name
        );
    }
    solver.assert_idle();
}

/// `topo` with one new node per entry of `of`, linked to that node's
/// neighbours at the same latencies: its planted twin. Naming one node
/// several times plants a class of several.
fn with_twins(topo: &Topology, of: &[NodeId]) -> Topology {
    let mut b = TopologyBuilder::new(format!("{}+twins", topo.name));
    for v in topo.node_ids() {
        b.add_node(topo.node(v).name.clone());
    }
    for l in topo.links() {
        b.add_link(l.a, l.b, l.latency, l.capacity);
    }
    for (i, &v) in of.iter().enumerate() {
        let t = b.add_node(format!("twin{i}"));
        for &(u, link) in topo.neighbors(v) {
            b.add_link(t, u, topo.link(link).latency, 1.0);
        }
    }
    b.build()
}

/// How many twin classes `topo` has.
fn class_count(topo: &Topology) -> usize {
    let twin = twins(topo, &link_weights(topo));
    topo.node_ids().filter(|&v| twin[v.index()] == v).count()
}

#[test]
fn solver_agrees_with_the_oracle_on_random_graphs_in_a_batch() {
    forall("path_solver_batch_vs_oracle", cases(96), |rng| {
        // Up to three twins planted beside one node of a random graph.
        let base = solver_test_graph(rng);
        let planted = NodeId(rng.uniform_usize(base.node_count()) as u32);
        let topo = with_twins(&base, &vec![planted; rng.uniform_usize(4)]);
        let n = topo.node_count();
        let class: Vec<NodeId> = std::iter::once(planted)
            .chain((base.node_count()..n).map(|v| NodeId(v as u32)))
            .collect();
        let mut solver = PathSolver::new(&topo);
        // Destinations from a pool of at most three, so groups share one,
        // a split graph's sources sit on both sides of it, and a source
        // may be its own destination; and the planted twins, so a class
        // has several destinations and its lowest twin, the planted node,
        // is often none of them. A third of the sources are in the class.
        let mut pool: Vec<NodeId> = (0..1 + rng.uniform_usize(3))
            .map(|_| NodeId(rng.uniform_usize(n) as u32))
            .collect();
        pool.extend(&class[1..]);
        for _ in 0..3 {
            let queries: Vec<(NodeId, NodeId)> = (0..rng.uniform_usize(12))
                .map(|_| {
                    let src = match rng.uniform_usize(3) {
                        0 => class[rng.uniform_usize(class.len())],
                        _ => NodeId(rng.uniform_usize(n) as u32),
                    };
                    (src, pool[rng.uniform_usize(pool.len())])
                })
                .collect();
            assert_batch_agrees(&mut solver, &queries, rng.uniform_usize(6));
        }
    });
}

/// Each node's distances, bit for bit, against its lowest twin's with the
/// two entries exchanged: the automorphism a shared reverse search rests
/// on.
fn assert_twins_mirror(topo: &Topology) {
    let bits = |row: Vec<f64>| row.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    let twin = twins(topo, &link_weights(topo));
    for v in topo.node_ids() {
        let r = twin[v.index()];
        assert!(r <= v && twin[r.index()] == r, "{}: twin of {v}", topo.name);
        let mut mirrored = latency_distances_from(topo, r);
        mirrored.swap(r.index(), v.index());
        assert_eq!(
            bits(latency_distances_from(topo, v)),
            bits(mirrored),
            "{}: distances from {v} against its twin {r}",
            topo.name
        );
    }
}

#[test]
fn a_twin_class_search_certifies_its_destinations() {
    // fat_tree(4)'s pod 0: aggregation switches 4 and 5, edge switches 6
    // and 7, twins. Both are destinations, so the search runs from 6 and
    // the query from 6 to 7 reads its field with 6 and 7 exchanged: 6,
    // its source, holds the field's value at 7, exact only if the search
    // certified 7. It settles 6 and stops at the aggregation switches'
    // pop, which certifies 7 through its links. Certifying only 4, a
    // source, stops it at the first pop, settling nothing, and the
    // searches then expand 14 labels, not 11.
    let topo = crate::topologies::fat_tree(4);
    let queries = [(6, 7), (4, 6)].map(|(a, b)| (NodeId(a), NodeId(b)));
    let mut solver = PathSolver::new(&topo);
    SETTLED.set(0);
    let answers = solver.k_shortest_batch(&queries, 2);
    assert_eq!(answers[0][0], path(&[6, 4, 7]));
    assert_eq!((SETTLED.get(), solver.expanded), (1, 11));
    assert_batch_agrees(&mut solver, &queries, 2);
}

#[test]
fn twin_classes_are_a_fat_trees_pods_and_no_wan_has_any() {
    use crate::topologies as t;
    // A pod's edge switches are one class, and so are the cores that
    // share their aggregation switches in `fat_tree(4)` (two classes of
    // two); every other switch has a neighbour list of its own. ft4096's
    // 2,206 classes are pinned with its batch.
    for (topo, classes) in [
        (t::synthetic_fat_tree_512(), 280),
        (t::synthetic_fat_tree_64(), 40),
        (t::fat_tree(4), 14),
    ] {
        assert_eq!(class_count(&topo), classes, "{}", topo.name);
    }
    for topo in [t::b4(), t::internet2(), t::att_mpls(), t::chinanet()] {
        assert_eq!(class_count(&topo), topo.node_count(), "{}", topo.name);
    }
    assert_twins_mirror(&t::synthetic_fat_tree_64());
    assert_twins_mirror(&t::fat_tree(4));
}

#[test]
fn planted_twins_mirror_each_others_distances_on_random_graphs() {
    forall("twins_mirror", cases(96), |rng| {
        let base = solver_test_graph(rng);
        let planted = NodeId(rng.uniform_usize(base.node_count()) as u32);
        let topo = with_twins(&base, &vec![planted; 1 + rng.uniform_usize(3)]);
        let twin = twins(&topo, &link_weights(&topo));
        for v in base.node_count()..topo.node_count() {
            assert_eq!(
                twin[v],
                twin[planted.index()],
                "{}: planted twin",
                topo.name
            );
        }
        assert_twins_mirror(&topo);
    });
}

#[test]
fn solver_agrees_with_the_oracle_on_split_graphs_and_every_ft64_pair_in_a_batch() {
    // Sources on both sides of the split share a destination: the search
    // from it floods its side, and the far sources find nothing.
    let split = unit_graph("split", 5, &[(0, 1), (1, 2), (2, 0), (3, 4)]);
    let mut solver = PathSolver::new(&split);
    let queries =
        [(0, 2), (3, 2), (2, 2), (1, 2), (4, 3), (0, 4)].map(|(a, b)| (NodeId(a), NodeId(b)));
    for k in 0..=3 {
        assert_batch_agrees(&mut solver, &queries, k);
    }
    // Every pair of ft64 at `k = 2`: most 2nd paths tie the first, so
    // the final round's skip decides nearly every spur.
    let topo = crate::topologies::synthetic_fat_tree_64();
    let queries: Vec<_> = topo
        .node_ids()
        .flat_map(|src| topo.node_ids().map(move |dst| (src, dst)))
        .collect();
    assert_batch_agrees(&mut PathSolver::new(&topo), &queries, 2);
}

/// `two_paths` against what it stands in for — whether the oracle's Yen
/// finds a 2nd path — on every ordered pair of `topo`, `a == b` included.
fn assert_two_paths_agrees_on_every_pair(topo: &Topology) {
    let classes = topo.bridge_classes();
    for a in topo.node_ids() {
        for b in topo.node_ids() {
            assert_eq!(
                classes.two_paths(a, b),
                oracle::k_shortest_paths(topo, a, b, 2).len() == 2,
                "{}: two_paths({a}, {b})",
                topo.name
            );
        }
    }
}

#[test]
fn two_paths_agrees_with_the_oracle_on_every_pair_of_the_evaluation_topologies() {
    use crate::topologies as t;
    for topo in [
        t::fat_tree(4),
        t::b4(),
        t::internet2(),
        t::att_mpls(),
        t::chinanet(),
        t::fig1(),
        t::synthetic_fat_tree_64(),
    ] {
        assert_two_paths_agrees_on_every_pair(&topo);
    }
}

#[test]
fn two_paths_agrees_with_the_oracle_on_random_graphs() {
    forall("two_paths_vs_oracle", cases(96), |rng| {
        let n = 2 + rng.uniform_usize(23);
        let split = n >= 4 && rng.chance(0.3);
        // Sparse on purpose: a tree, a ring or a lollipop with at most
        // three more links is mostly bridges, and which pairs a chord
        // takes out of a class is the whole question.
        let backbone = match rng.uniform_usize(3) {
            0 => Backbone::Tree,
            1 => Backbone::Cycle { len: n },
            _ => Backbone::Cycle {
                len: 1 + rng.uniform_usize(n),
            },
        };
        let extra = rng.uniform_usize(4);
        let topo = random_graph(rng, n, backbone, extra, split, |r| {
            SimDuration::from_millis(1 + r.uniform_usize(3) as u64)
        });
        assert_two_paths_agrees_on_every_pair(&topo);
    });
}

#[test]
fn second_path_may_lie_wholly_beyond_the_reverse_search() {
    // 0 and 1 are neighbours on a ring of eight: the search from 1
    // settles nothing, since at its first pop 0 is joined to 1 by a
    // lightest link, every other node gets 0 + 1 ms as its potential,
    // and the 2nd path is the other seven links. Capped at the pop
    // where 0's label was final, the search settled 1.
    let ring: Vec<_> = (0..8).map(|i| (i, (i + 1) % 8)).collect();
    let ring = unit_graph("ring", 8, &ring);
    let mut solver = PathSolver::new(&ring);
    SETTLED.set(0);
    assert_eq!(
        solver.k_shortest(NodeId(0), NodeId(1), 3),
        [path(&[0, 1]), path(&[0, 7, 6, 5, 4, 3, 2, 1])]
    );
    assert_eq!(SETTLED.get(), 0);
    assert_agrees_on_every_pair(&ring, 3);
}

#[test]
fn second_path_may_start_by_moving_away_from_the_destination() {
    // A stick 5-4 on the cycle 4-0-3-2-1-4. From 5 to 0 the only 2nd
    // path turns at 4 to 1, which is farther from 0 than 4 is and as
    // far as 5: the search from 0 settles 0 alone and stops at 4's pop,
    // which certifies 5 through their link, short of 1 and 2. Capped at
    // the pop where 5's label was final, it settled 0, 4 and 3.
    let links = [(5, 4), (4, 0), (0, 3), (3, 2), (2, 1), (1, 4)];
    let lollipop = unit_graph("lollipop", 6, &links);
    let mut solver = PathSolver::new(&lollipop);
    SETTLED.set(0);
    assert_eq!(
        solver.k_shortest(NodeId(5), NodeId(0), 3),
        [path(&[5, 4, 0]), path(&[5, 4, 1, 2, 3, 0])]
    );
    assert_eq!(SETTLED.get(), 1);
    assert_agrees_on_every_pair(&lollipop, 3);
}

/// The potential `lay_potential` leaves for `sources` against the oracle's
/// distances from `dst`, bit for bit: `min(distance, cap)` at every node,
/// the distance itself at every source.
fn assert_potential_is_exact(topo: &Topology, dst: NodeId, sources: &[NodeId]) {
    let mut solver = PathSolver::new(topo);
    let cap = solver.lay_potential(dst, sources.iter().copied());
    let dist = oracle::distances_from(topo, dst);
    for v in topo.node_ids() {
        assert_eq!(
            solver.potential[v.index()].to_bits(),
            dist[v.index()].min(cap).to_bits(),
            "{}: potential at {v} to {dst}, cap {cap}, sources {sources:?}",
            topo.name
        );
    }
    for &s in sources {
        assert_eq!(
            solver.potential[s.index()].to_bits(),
            dist[s.index()].to_bits(),
            "{}: potential at source {s} to {dst}, cap {cap}",
            topo.name
        );
    }
}

#[test]
fn the_potential_is_exact_at_every_source_on_random_graphs() {
    forall("potential_vs_oracle", cases(96), |rng| {
        let topo = solver_test_graph(rng);
        let n = topo.node_count();
        for _ in 0..6 {
            let dst = NodeId(rng.uniform_usize(n) as u32);
            let sources: Vec<NodeId> = (0..1 + rng.uniform_usize(6))
                .map(|_| NodeId(rng.uniform_usize(n) as u32))
                .collect();
            assert_potential_is_exact(&topo, dst, &sources);
        }
    });
}

#[test]
fn the_potential_is_exact_at_every_source_on_the_ring_the_lollipop_and_ft512() {
    let ring: Vec<_> = (0..8).map(|i| (i, (i + 1) % 8)).collect();
    let ring = unit_graph("ring", 8, &ring);
    let links = [(5, 4), (4, 0), (0, 3), (3, 2), (2, 1), (1, 4)];
    let lollipop = unit_graph("lollipop", 6, &links);
    for topo in [ring, lollipop] {
        let all: Vec<NodeId> = topo.node_ids().collect();
        for dst in topo.node_ids() {
            for src in topo.node_ids() {
                assert_potential_is_exact(&topo, dst, &[src]);
            }
            assert_potential_is_exact(&topo, dst, &all);
        }
    }
    let topo = crate::topologies::synthetic_fat_tree_512();
    let edges = crate::topologies::fat_tree_edge_switches(&topo);
    let all: Vec<NodeId> = topo.node_ids().collect();
    for dst in [edges[edges.len() - 1], NodeId(0), all[all.len() - 1]] {
        for sources in [&edges[..1], &edges[..8], &edges[..], &all[..]] {
            assert_potential_is_exact(&topo, dst, sources);
        }
    }
}

#[test]
fn unreachable_source_floods_and_leaves_the_solver_idle() {
    let split = unit_graph("split", 5, &[(0, 1), (1, 2), (3, 4)]);
    let mut solver = PathSolver::new(&split);
    SETTLED.set(0);
    assert!(solver.k_shortest(NodeId(0), NodeId(4), 2).is_empty());
    // Nothing stopped the search from 4: it settled its whole side.
    assert_eq!((SETTLED.get(), solver.expanded), (2, 0));
    solver.assert_idle();
    // And one that does stop early, 1 being a neighbour of 2: at the
    // first pop, settling nothing (it settled 2 when the search ran on
    // until 1's label was final).
    assert_eq!(solver.k_shortest(NodeId(1), NodeId(2), 2), [path(&[1, 2])]);
    assert_eq!(SETTLED.get(), 2);
    solver.assert_idle();
}

#[test]
fn a_spur_search_stops_at_the_candidate_in_hand() {
    // 0-1-3 and 0-2-3 cost 2 ms; leaving 0-1-3 at 1 means 1-4-5-3 and
    // 4 ms in all.
    let links = [(0, 1), (1, 3), (0, 2), (2, 3), (1, 4), (4, 5), (5, 3)];
    let t = unit_graph("tie-then-detour", 6, &links);
    let mut solver = PathSolver::new(&t);
    assert_eq!(
        solver.k_shortest(NodeId(0), NodeId(3), 2),
        [path(&[0, 1, 3]), path(&[0, 2, 3])]
    );
    // Three labels for the first path (0, 1, 2) and two for the spur at
    // 0 that finds the tie (0, 2). The spur at 1 comes first but is
    // postponed: 1 ms of its root leaves 1 ms to tie, and its one free
    // hop, to 4, starts 1 + 2 ms of path. The tie then rules it out, so
    // it is never searched; unbounded, it would expand 1, 4 and 5.
    assert_eq!(solver.expanded, 5);
    // With two slots left the first round searches every spur with no
    // limit yet, so the detour is found, held, and comes out third.
    assert_eq!(
        solver.k_shortest(NodeId(0), NodeId(3), 3),
        [path(&[0, 1, 3]), path(&[0, 2, 3]), path(&[0, 1, 4, 5, 3])]
    );
    assert_agrees_on_every_pair(&t, 5);
}

#[test]
fn goal_direction_confines_the_search_on_ft512() {
    let topo = crate::topologies::synthetic_fat_tree_512();
    let edges = crate::topologies::fat_tree_edge_switches(&topo);
    let (src, dst) = (edges[0], edges[edges.len() - 1]);

    oracle::EXPANDED.set(0);
    let expected = oracle::k_shortest_paths(&topo, src, dst, 2);
    let flooded = oracle::EXPANDED.get();

    let mut solver = PathSolver::new(&topo);
    SETTLED.set(0);
    assert_eq!(solver.k_shortest(src, dst, 2), expected);
    // Deterministic counts, pinned so a lost potential, stop or bound
    // shows as a number and not as a slow benchmark. The reverse search
    // settled 301 nodes when it ran on until every source's label was
    // final; certified a lightest link early, it settles 91.
    assert_eq!((flooded, solver.expanded, SETTLED.get()), (2325, 181, 91));
    assert!(solver.expanded * 10 <= flooded);
    assert!(SETTLED.get() < topo.node_count());
}

#[test]
fn reverse_search_stops_short_of_the_graph_on_ft4096() {
    let topo = crate::topologies::synthetic_fat_tree_4096();
    let edges = crate::topologies::fat_tree_edge_switches(&topo);
    let (src, dst) = (edges[0], edges[edges.len() - 1]);
    let mut solver = PathSolver::new(&topo);
    SETTLED.set(0);
    assert_eq!(solver.k_shortest(src, dst, 2).len(), 2);
    // 578 settled when the reverse search ran on until the source's
    // label was final.
    assert_eq!((solver.expanded, SETTLED.get()), (45, 49));
    assert!(SETTLED.get() < topo.node_count());
}

#[test]
fn a_batch_shares_each_destinations_reverse_search_on_ft512() {
    // One drawn destination per node, as `multi_flow` draws them.
    let topo = crate::topologies::synthetic_fat_tree_512();
    let n = topo.node_count();
    let mut rng = SimRng::new(1);
    let queries: Vec<(NodeId, NodeId)> = topo
        .node_ids()
        .map(|src| {
            let mut dst = NodeId(rng.uniform_usize(n) as u32);
            while dst == src {
                dst = NodeId(rng.uniform_usize(n) as u32);
            }
            (src, dst)
        })
        .collect();
    let mut singles = PathSolver::new(&topo);
    SETTLED.set(0);
    let single: Vec<_> = queries
        .iter()
        .map(|&(src, dst)| singles.k_shortest(src, dst, 2))
        .collect();
    let single_settled = SETTLED.get();
    let mut solver = PathSolver::new(&topo);
    SETTLED.set(0);
    assert_eq!(solver.k_shortest_batch(&queries, 2), single);
    // Deterministic counts, pinned so a lost grouping, a lost skip, a lost
    // certificate or a lost twin class shows as a number. When each
    // reverse search ran on until every source's label was final it
    // settled 62,775 nodes; with one search per destination, each stopped
    // at its own sources, (17,419, 42,074). A pod's edge switches now
    // share one search, certified for the whole class.
    assert_eq!((SETTLED.get(), solver.expanded), (8793, 41631));
    assert!(SETTLED.get() < single_settled);
}

#[test]
#[ignore = "4096 k-shortest-path queries on the 4096-switch fat-tree: release only"]
fn a_batch_certifies_its_sources_early_on_ft4096() {
    // One drawn destination per node, as `multi_flow` draws them.
    let topo = crate::topologies::synthetic_fat_tree_4096();
    let n = topo.node_count();
    let mut rng = SimRng::new(1);
    let queries: Vec<(NodeId, NodeId)> = topo
        .node_ids()
        .map(|src| {
            let mut dst = NodeId(rng.uniform_usize(n) as u32);
            while dst == src {
                dst = NodeId(rng.uniform_usize(n) as u32);
            }
            (src, dst)
        })
        .collect();
    assert_eq!(class_count(&topo), 2_206);
    let mut solver = PathSolver::new(&topo);
    SETTLED.set(0);
    let answers = solver.k_shortest_batch(&queries, 2);
    assert!(answers.iter().all(|paths| paths.len() == 2));
    // Deterministic counts: when each reverse search ran on until every
    // source's label was final it settled 5,310,949 nodes; with one search
    // per destination, each stopped at its own sources, (4,022,649,
    // 1,188,492). A pod's 16 edge switches now share one search.
    assert_eq!((SETTLED.get(), solver.expanded), (2_417_807, 1_187_484));
}

/// One `k_shortest_batch` at k = 2 over every ordered pair of each
/// evaluation WAN, the query `multi_flow` makes: the labels its
/// point-to-point searches expand and the spur searches it runs, pinned so
/// a lost order or a lost first-hop test in the last round shows as a
/// number. Searching the postponed spurs in spur order, each one started,
/// read (1,166, 352) on B4, (2,110, 644) on Internet2, (7,478, 2,266) on
/// AttMpls and (31,247, 8,596) on Chinanet.
#[test]
fn the_last_round_searches_few_spurs_on_the_wans() {
    use crate::topologies as t;
    for (topo, counts) in [
        (t::b4(), (718, 132)),
        (t::internet2(), (1_400, 241)),
        (t::att_mpls(), (4_317, 598)),
        (t::chinanet(), (16_789, 1_445)),
    ] {
        let queries: Vec<(NodeId, NodeId)> = topo
            .node_ids()
            .flat_map(|src| topo.node_ids().map(move |dst| (src, dst)))
            .filter(|(src, dst)| src != dst)
            .collect();
        let mut solver = PathSolver::new(&topo);
        solver.k_shortest_batch(&queries, 2);
        assert_eq!(
            (solver.expanded, solver.spur_searches),
            counts,
            "{}",
            topo.name
        );
    }
}

#[test]
fn a_label_rounded_below_the_last_pop_is_raised_and_expanded() {
    // A line 0-1-2-3 of 0.3, 0.2 and 0.1 ms. The potential sums from 3,
    // the labels from 0, and the two sums round apart: 2's `f`, (0.3 +
    // 0.2) + 0.1, falls below 1's, 0.3 + (0.2 + 0.1), popped just before.
    let mut b = TopologyBuilder::new("rounding-line");
    let v: Vec<_> = (0..4).map(|i| b.add_node(format!("n{i}"))).collect();
    for (w, us) in v.windows(2).zip([300, 200, 100]) {
        b.add_link(w[0], w[1], SimDuration::from_micros(us), 10.0);
    }
    let line = b.build();
    let (w01, w12, w23) = (0.3, 0.2, 0.1);
    assert!((w01 + w12) + w23 < w01 + (w12 + w23));
    let mut solver = PathSolver::new(&line);
    assert_eq!(solver.k_shortest(v[0], v[3], 1), [path(&[0, 1, 2, 3])]);
    // 0, 1 and 2, the raised label among them.
    assert_eq!(solver.expanded, 3);
    solver.assert_idle();
}

#[test]
fn lightest_is_the_least_weight() {
    forall("lightest_vs_fold", cases(96), |rng| {
        let weights: Vec<f64> = (0..rng.uniform_usize(40))
            .map(|_| rng.uniform_usize(1_000) as f64 / 7.0)
            .collect();
        let want = weights.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(lightest(&weights).to_bits(), want.to_bits(), "{weights:?}");
    });
}

/// `latency_distances_from` from every source of `topo`, bit for bit
/// against the oracle's `BinaryHeap` Dijkstra.
fn assert_latency_rows_agree(topo: &Topology) {
    for src in topo.node_ids() {
        let bits = |row: Vec<f64>| row.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(latency_distances_from(topo, src)),
            bits(oracle::distances_from(topo, src)),
            "{}: latency_distances_from({src})",
            topo.name
        );
    }
}

#[test]
fn latency_rows_agree_with_the_oracle_on_random_graphs() {
    forall("latency_rows_vs_oracle", cases(96), |rng| {
        let n = 1 + rng.uniform_usize(24);
        let split = n >= 4 && rng.chance(0.2);
        let (backbone, extra) = if rng.chance(0.5) {
            let len = 1 + rng.uniform_usize(n);
            (Backbone::Cycle { len }, rng.uniform_usize(3))
        } else {
            (Backbone::Tree, rng.uniform_usize(3 * n))
        };
        let topo = match rng.uniform_usize(3) {
            0 => random_graph(rng, n, backbone, extra, split, |r| {
                SimDuration::from_millis(1 + r.uniform_usize(3) as u64)
            }),
            // Equal sums taken in a different order differ in the last
            // bit: the row must be the oracle's sum, not an equal one.
            1 => random_graph(rng, n, backbone, extra, split, |r| {
                SimDuration::from_micros([50, 70, 130][r.uniform_usize(3)])
            }),
            _ => random_graph(rng, n, backbone, extra, split, |r| {
                SimDuration::from_nanos(50_000 + r.uniform_usize(20_000_000) as u64)
            }),
        };
        assert_latency_rows_agree(&topo);
    });
}

#[test]
fn latency_rows_agree_with_the_oracle_on_the_evaluation_topologies() {
    use crate::topologies as t;
    for topo in [
        t::fat_tree(4),
        t::b4(),
        t::internet2(),
        t::att_mpls(),
        t::chinanet(),
        t::synthetic_fat_tree_512(),
    ] {
        assert_latency_rows_agree(&topo);
    }
}
