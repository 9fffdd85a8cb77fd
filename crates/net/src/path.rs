//! Path representation and path search. The multi-flow scenario routes
//! each flow on its shortest path and migrates it to the 2nd-shortest
//! (§9.1), so workload generation is one Yen's k-shortest query per switch;
//! [`PathSolver`] answers those, and the single shortest-path queries, with
//! one goal-directed search whose tie-break is a specification and which
//! stops where no answer can depend on what lies beyond: the potential is
//! computed out to the source's distance, a spur search out to the best
//! candidate in hand. The free functions are one query on a throw-away
//! solver; callers with a batch build one solver and keep it.

use crate::graph::{LinkId, NodeId, Topology};
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
        latency_along(topo, &self.nodes)
    }

    /// Check that every consecutive pair is adjacent in `topo`.
    pub fn validate(&self, topo: &Topology) -> bool {
        self.edges().all(|(a, b)| topo.link_between(a, b).is_some())
    }
}

/// Sum of link latencies along the walk `nodes`.
fn latency_along(topo: &Topology, nodes: &[NodeId]) -> SimDuration {
    nodes.windows(2).fold(SimDuration::ZERO, |acc, w| {
        acc + topo
            .latency_between(w[0], w[1])
            .expect("path edge must be a topology link")
    })
}

#[derive(PartialEq)]
pub(crate) struct HeapEntry {
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

#[cfg(test)]
thread_local! {
    /// Nodes settled by `sssp` on this thread.
    static SETTLED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Dijkstra from `src` over `weight` (milliseconds per link) into `dist`,
/// which the caller hands over filled with `f64::INFINITY`. `stop` is asked
/// at every pop, with the popped cost and the labels so far, and ends the
/// search by returning true. Costs pop in nondecreasing order, so at that
/// moment every label below the cost is final and every other node is at
/// least that far away: `min(label, cost)` is `min(distance, cost)` at every
/// node, whatever the cost the search was stopped at. Returns that cost,
/// or `f64::INFINITY` when the search ran out of labels and every one is
/// final.
pub(crate) fn sssp(
    topo: &Topology,
    weight: impl Fn(LinkId) -> f64,
    src: NodeId,
    dist: &mut [f64],
    heap: &mut BinaryHeap<HeapEntry>,
    stop: impl Fn(f64, &[f64]) -> bool,
) -> f64 {
    heap.clear();
    dist[src.index()] = 0.0;
    heap.push(HeapEntry {
        cost: 0.0,
        node: src,
    });
    while let Some(HeapEntry { cost, node }) = heap.pop() {
        if stop(cost, dist) {
            return cost;
        }
        if cost > dist[node.index()] {
            continue;
        }
        #[cfg(test)]
        SETTLED.set(SETTLED.get() + 1);
        for &(next, link) in topo.neighbors(node) {
            let nd = cost + weight(link);
            if nd < dist[next.index()] {
                dist[next.index()] = nd;
                heap.push(HeapEntry {
                    cost: nd,
                    node: next,
                });
            }
        }
    }
    f64::INFINITY
}

/// Latency in milliseconds, by link id, converted once for a caller that
/// searches more than once.
pub(crate) fn link_weights(topo: &Topology) -> Vec<f64> {
    topo.links()
        .iter()
        .map(|l| l.latency.as_millis_f64())
        .collect()
}

/// Latency-weighted shortest-path distances (in milliseconds) from `src` to
/// every node; `f64::INFINITY` for unreachable nodes.
pub fn latency_distances_from(topo: &Topology, src: NodeId) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; topo.node_count()];
    sssp(
        topo,
        |l| topo.link(l).latency.as_millis_f64(),
        src,
        &mut dist,
        &mut BinaryHeap::new(),
        |_, _| false,
    );
    dist
}

/// A label waiting in the point-to-point search: `g` is the distance from
/// the source, `f` is `g` plus the node's potential.
#[derive(PartialEq)]
struct Label {
    f: f64,
    g: f64,
    node: NodeId,
}
impl Eq for Label {}
impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Label {
    fn cmp(&self, other: &Self) -> Ordering {
        // min-heap on f; among equals the label farthest from the source
        // first, so the destination gets its distance — and the search its
        // bound — after one dive down the corridor. The order decides only
        // how much is pushed, never which path comes back.
        other
            .f
            .partial_cmp(&self.f)
            .expect("costs are finite")
            .then_with(|| self.g.partial_cmp(&other.g).expect("costs are finite"))
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// `prev` of a node no search has reached, and of the source.
const NO_PREV: NodeId = NodeId(u32::MAX);

/// How far above the destination's distance a label's `f` may lie and still
/// be expanded. Every node of every equally short path has `f` equal to
/// that distance in exact arithmetic; latencies are whole nanoseconds, so
/// the next possible value is 10⁻⁶ ms away, and the slack only has to
/// absorb the rounding between a sum taken from the source and one taken
/// from the destination (parts in 10¹⁶).
pub(crate) const TIE_SLACK: f64 = 1e-9;

/// Shortest and k-shortest path queries over one topology, for callers
/// that make many: link weights are converted to milliseconds once, and the
/// search state is allocated once and restored after every query, so a
/// query costs what it explores and a solver reused across queries answers
/// exactly as a fresh one.
///
/// # The path that comes back
///
/// Among equally short paths the answer is fixed by a rule, not by the
/// order a search happens to visit nodes in: take the true floating-point
/// distances `dist` from the source (each the minimum over neighbours `u`
/// of `dist[u] + w`, summed from the source outwards), then walk back from
/// the destination, stepping at every node `v` to the lowest-numbered
/// neighbour `u` with `dist[u] + w == dist[v]`. Workload digests, golden
/// cells and the trace corpus all rest on this rule.
///
/// # How it is found
///
/// Every search is A* with a potential that never overestimates the
/// remaining distance — zero for a single query; for [`Self::k_shortest`],
/// whose first search and every spur search share it, the distance to
/// `dst` (bans ignored) capped at the source's own: one Dijkstra from `dst`
/// that stops as soon as the source's distance `D` is final, every node it
/// did not settle taking `D`. That is `min(distance, D)` at every node,
/// which differs across a link by no more than the distance does. A label
/// is expanded only while `f = g + potential` stays within `TIE_SLACK` of
/// the destination's distance; every node lying on some equally short path
/// qualifies, so every neighbour the walk-back rule could step to is
/// expanded with its final distance, and `prev` ends up holding the rule's
/// answer however the heap ordered the ties.
///
/// A spur search of Yen's loop also starts under a limit: with `r` paths
/// still to output and at least `r` candidates in hand, a spur path that
/// would make a candidate dearer than the `r`-th cheapest of them is never
/// output, so the search gives up where only such paths remain. The limit
/// is not strict, leaving equally dear candidates to the `(cost, node
/// list)` tie-break.
pub struct PathSolver<'a> {
    topo: &'a Topology,
    /// Latency in milliseconds, by link id.
    weight: Vec<f64>,
    /// Lower bound on the distance to the current destination, by node;
    /// all zero between queries.
    potential: Vec<f64>,
    /// Search labels, `INFINITY`/[`NO_PREV`] between queries; `touched`
    /// lists the entries the running search has written.
    dist: Vec<f64>,
    prev: Vec<NodeId>,
    touched: Vec<NodeId>,
    /// Nodes the running search must not enter; all false between queries.
    banned: Vec<bool>,
    labels: BinaryHeap<Label>,
    sssp_heap: BinaryHeap<HeapEntry>,
    /// Labels expanded by point-to-point searches since construction.
    #[cfg(test)]
    expanded: usize,
}

impl<'a> PathSolver<'a> {
    /// A solver for `topo`. Costs one pass over the links and four
    /// node-sized allocations; nothing is added to the topology.
    pub fn new(topo: &'a Topology) -> Self {
        let n = topo.node_count();
        PathSolver {
            topo,
            weight: link_weights(topo),
            potential: vec![0.0; n],
            dist: vec![f64::INFINITY; n],
            prev: vec![NO_PREV; n],
            touched: Vec::new(),
            banned: vec![false; n],
            labels: BinaryHeap::new(),
            sssp_heap: BinaryHeap::new(),
            #[cfg(test)]
            expanded: 0,
        }
    }

    /// The search every query runs: the latency-shortest `src → dst` path
    /// that enters no `banned` node, does not leave `src` towards any of
    /// `banned_hops` and is no longer than `bound`, ties resolved by the
    /// rule in the type's docs. Appends the path's nodes, `src` first, to
    /// `out` and returns true if there is one. Expects `src != dst` and
    /// leaves `dist`/`prev` as it found them.
    fn search(
        &mut self,
        src: NodeId,
        dst: NodeId,
        banned_hops: &[NodeId],
        mut bound: f64,
        out: &mut Vec<NodeId>,
    ) -> bool {
        if self.banned[src.index()] || self.banned[dst.index()] {
            return false;
        }
        let topo = self.topo;
        // `bound` falls to `dist[dst] * (1 + TIE_SLACK)` once the
        // destination has a label; until then anything the caller's limit
        // and the potential allow may be on the path.
        self.labels.clear();
        self.dist[src.index()] = 0.0;
        self.touched.push(src);
        self.labels.push(Label {
            f: self.potential[src.index()],
            g: 0.0,
            node: src,
        });
        while let Some(Label { f, g, node }) = self.labels.pop() {
            if f > bound {
                break;
            }
            // A superseded label, or the destination, which has nothing to
            // tell the nodes before it.
            if g > self.dist[node.index()] || node == dst {
                continue;
            }
            #[cfg(test)]
            {
                self.expanded += 1;
            }
            for &(next, link) in topo.neighbors(node) {
                if self.banned[next.index()] || (node == src && banned_hops.contains(&next)) {
                    continue;
                }
                let nd = g + self.weight[link.index()];
                let known = self.dist[next.index()];
                if nd < known {
                    let f = nd + self.potential[next.index()];
                    if f > bound {
                        continue;
                    }
                    if known == f64::INFINITY {
                        self.touched.push(next);
                    }
                    self.dist[next.index()] = nd;
                    self.prev[next.index()] = node;
                    if next == dst {
                        bound = bound.min(nd * (1.0 + TIE_SLACK));
                    }
                    self.labels.push(Label {
                        f,
                        g: nd,
                        node: next,
                    });
                } else if nd == known {
                    // Equally short: the lower-numbered predecessor wins,
                    // and the label already queued for `next` still stands.
                    let p = self.prev[next.index()];
                    if p != NO_PREV && node < p {
                        self.prev[next.index()] = node;
                    }
                }
            }
        }
        let found = self.dist[dst.index()].is_finite();
        if found {
            let start = out.len();
            let mut cur = dst;
            out.push(dst);
            while cur != src {
                cur = self.prev[cur.index()];
                out.push(cur);
            }
            out[start..].reverse();
        }
        for v in self.touched.drain(..) {
            self.dist[v.index()] = f64::INFINITY;
            self.prev[v.index()] = NO_PREV;
        }
        found
    }

    /// Run `search` with `nodes` banned, and lift the ban again.
    fn search_avoiding(
        &mut self,
        src: NodeId,
        dst: NodeId,
        nodes: &[NodeId],
        banned_hops: &[NodeId],
        bound: f64,
        out: &mut Vec<NodeId>,
    ) -> bool {
        for &v in nodes {
            self.banned[v.index()] = true;
        }
        let found = self.search(src, dst, banned_hops, bound, out);
        for &v in nodes {
            self.banned[v.index()] = false;
        }
        found
    }

    /// Latency-weighted shortest path from `src` to `dst` that visits none
    /// of the `banned` nodes.
    pub fn shortest_path_avoiding(
        &mut self,
        src: NodeId,
        dst: NodeId,
        banned: &[NodeId],
    ) -> Option<Path> {
        if src == dst {
            return None;
        }
        let mut nodes = Vec::new();
        self.search_avoiding(src, dst, banned, &[], f64::MAX, &mut nodes)
            .then(|| Path::new(nodes))
    }

    /// Yen's algorithm: the `k` shortest loopless paths from `src` to `dst`,
    /// in nondecreasing latency order. Returns fewer than `k` if the graph
    /// does not contain that many distinct simple paths.
    pub fn k_shortest(&mut self, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
        if src == dst || k == 0 {
            return Vec::new();
        }
        // The potential is the distance to `dst`, bans ignored, capped at
        // the source's own distance `d`: the search from `dst` stops once
        // `d` is final, which leaves `min(label, d)` equal to
        // `min(distance, d)` everywhere. A ban can only lengthen a path, so
        // that stays a lower bound for the first search and for every spur
        // search. An unreachable source never stops the search, and the
        // first search then fails on its own infinite potential.
        self.potential.fill(f64::INFINITY);
        let weight = &self.weight;
        sssp(
            self.topo,
            |l| weight[l.index()],
            dst,
            &mut self.potential,
            &mut self.sssp_heap,
            |cost, label| cost >= label[src.index()],
        );
        let d = self.potential[src.index()];
        for h in &mut self.potential {
            *h = h.min(d);
        }
        let result = self.yen(src, dst, k);
        self.potential.fill(0.0);
        result
    }

    /// Yen's loop for `k >= 1`, on the potential `k_shortest` has laid out.
    fn yen(&mut self, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
        let mut total = Vec::new();
        if !self.search(src, dst, &[], f64::MAX, &mut total) {
            return Vec::new();
        }
        let mut result = vec![Path::new(total.clone())];
        // Kept in the order they will be output: by cost in whole
        // nanoseconds, then by node list.
        let mut candidates: Vec<(SimDuration, Path)> = Vec::new();
        let mut banned_hops = Vec::new();

        while result.len() < k {
            let last = result.last().expect("result non-empty");
            let mut root_cost = SimDuration::ZERO;
            // Each node of the previous path (except egress) is a spur point.
            for spur_idx in 0..last.nodes().len() - 1 {
                let spur_node = last.nodes()[spur_idx];
                let root = &last.nodes()[..=spur_idx];

                // Ban the hops out of the spur node that would recreate an
                // already-found path with the same root, and ban root nodes
                // (except the spur) to keep the total path simple.
                banned_hops.clear();
                for p in result
                    .iter()
                    .map(Path::nodes)
                    .chain(candidates.iter().map(|(_, p)| p.nodes()))
                {
                    if p.len() > spur_idx + 1 && p[..=spur_idx] == *root {
                        banned_hops.push(p[spur_idx + 1]);
                    }
                }

                // Only `k - result.len()` more paths will be output,
                // cheapest first, so once that many candidates are held a
                // path dearer than the dearest of them never will be, and
                // the spur search need not find it. An equally dear one
                // still reaches the node-list tie-break. The limit never
                // rises (an output takes the cheapest candidate and one
                // slot with it), so a path it hid from the scan above can
                // later only be found and hidden again.
                let limit = candidates
                    .get(k - result.len() - 1)
                    .map_or(f64::MAX, |(t, _)| {
                        let spur = t.as_nanos().saturating_sub(root_cost.as_nanos());
                        SimDuration::from_nanos(spur).as_millis_f64() * (1.0 + TIE_SLACK)
                    });
                // The candidate is assembled in `total`, root then spur
                // path, and becomes a `Path` only if it is kept.
                total.clear();
                total.extend_from_slice(&root[..spur_idx]);
                if self.search_avoiding(
                    spur_node,
                    dst,
                    &root[..spur_idx],
                    &banned_hops,
                    limit,
                    &mut total,
                ) {
                    let cost = root_cost + latency_along(self.topo, &total[spur_idx..]);
                    let at = candidates
                        .partition_point(|(c, p)| (*c, p.nodes()) < (cost, total.as_slice()));
                    let held = candidates.get(at).is_some_and(|(_, p)| p.nodes() == total);
                    if !held && !result.iter().any(|p| p.nodes() == total) {
                        candidates.insert(at, (cost, Path::new(total.clone())));
                    }
                }
                root_cost += self
                    .topo
                    .latency_between(spur_node, last.nodes()[spur_idx + 1])
                    .expect("path edge must be a topology link");
            }
            if candidates.is_empty() {
                break;
            }
            result.push(candidates.remove(0).1);
        }
        result
    }
}

/// Latency-weighted shortest path from `src` to `dst`.
pub fn shortest_path(topo: &Topology, src: NodeId, dst: NodeId) -> Option<Path> {
    shortest_path_avoiding(topo, src, dst, &[])
}

/// Latency-weighted shortest path from `src` to `dst` that visits none of
/// the `banned` nodes. One query on a throw-away [`PathSolver`].
pub fn shortest_path_avoiding(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    banned: &[NodeId],
) -> Option<Path> {
    PathSolver::new(topo).shortest_path_avoiding(src, dst, banned)
}

/// Yen's algorithm: the `k` shortest loopless paths from `src` to `dst`, in
/// nondecreasing latency order. Returns fewer than `k` if the graph does not
/// contain that many distinct simple paths. One query on a throw-away
/// [`PathSolver`].
pub fn k_shortest_paths(topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    PathSolver::new(topo).k_shortest(src, dst, k)
}

#[cfg(test)]
pub(crate) mod tests;
