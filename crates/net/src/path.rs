//! Path representation and path search. The multi-flow scenario routes
//! each flow on its shortest path and migrates it to the 2nd-shortest
//! (§9.1), so workload generation is one Yen's k-shortest query per switch;
//! [`PathSolver`] answers those, and the single shortest-path queries, with
//! one goal-directed search whose tie-break is a specification and which
//! stops where no answer can depend on what lies beyond: the potential is
//! computed once per destination, out to its sources' distance, a spur
//! search out to the best candidate in hand, and the last round of Yen's
//! loop searches only the spurs that can still win. The free functions are
//! one query on a throw-away solver; callers with a batch build one solver
//! and keep it.

use crate::graph::{LinkId, NodeId, Topology};
use p4update_des::{RadixHeap, SimDuration};
use std::ops::Range;

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
        assert!(is_simple(&nodes), "path visits a node twice");
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

/// Whether no node appears twice in `nodes`, checked pair by pair in
/// place: a search's path is short, so checking it allocates nothing.
fn is_simple(nodes: &[NodeId]) -> bool {
    nodes
        .iter()
        .enumerate()
        .all(|(i, v)| !nodes[..i].contains(v))
}

/// Sum of link latencies along the walk `nodes`.
fn latency_along(topo: &Topology, nodes: &[NodeId]) -> SimDuration {
    nodes.windows(2).fold(SimDuration::ZERO, |acc, w| {
        acc + topo
            .latency_between(w[0], w[1])
            .expect("path edge must be a topology link")
    })
}

/// The key a path search queues a non-negative cost at in the one
/// [`RadixHeap`]: its bits, which order finite non-negative costs (and
/// `INFINITY`) as their values. Panics on a negative or NaN cost.
fn key(cost: f64) -> u64 {
    let key = cost.to_bits();
    assert!(
        key <= f64::INFINITY.to_bits(),
        "a queued cost is non-negative: {cost}"
    );
    key
}

#[cfg(test)]
thread_local! {
    /// Nodes settled by `sssp` on this thread.
    static SETTLED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Dijkstra from `src` over `weight` (milliseconds per link) into `dist`,
/// which the caller hands over filled with `f64::INFINITY`. `stop` is asked
/// at every pop, with the popped cost and the labels so far, and ends the
/// search by returning true. Costs pop in nondecreasing order: a label
/// pushed from a popped `cost` is `cost + w >= cost` in IEEE arithmetic, so
/// no key falls below the last pop. At a stop every label below the cost is
/// therefore final and every other node is at least that far away:
/// `min(label, cost)` is `min(distance, cost)` at every node, whatever the
/// cost the search was stopped at. Returns that cost, or `f64::INFINITY`
/// when the search ran out of labels and every one is final. A final label
/// is the least `dist[u] + w` over the node's neighbours, so what a caller
/// reads, `min(label, cost)` and that cost, does not depend on the order
/// equal costs pop in.
pub(crate) fn sssp(
    topo: &Topology,
    weight: impl Fn(LinkId) -> f64,
    src: NodeId,
    dist: &mut [f64],
    heap: &mut RadixHeap<NodeId>,
    mut stop: impl FnMut(f64, &[f64]) -> bool,
) -> f64 {
    heap.clear();
    dist[src.index()] = 0.0;
    heap.push(key(0.0), src);
    while let Some((cost, node)) = heap.pop_until(u64::MAX) {
        let cost = f64::from_bits(cost);
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
                heap.push(key(nd), next);
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
        &mut RadixHeap::new(),
        |_, _| false,
    );
    dist
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
/// remaining distance — zero for a single query; for
/// [`Self::k_shortest_batch`], whose first searches and spur searches to
/// one destination all share it, the distance to `dst` (bans ignored)
/// capped at the cost `R` of one Dijkstra from `dst` that stops as soon as
/// every source's distance is final, every node it did not settle taking
/// `R`. That is `min(distance, R)` at every node, which differs across a
/// link by no more than the distance does. A label
/// is expanded only while `f = g + potential` stays within `TIE_SLACK` of
/// the destination's distance; every node lying on some equally short path
/// qualifies, so every neighbour the walk-back rule could step to is
/// expanded with its final distance, and `prev` ends up holding the rule's
/// answer however the queue ordered the ties.
///
/// Labels wait in the [`RadixHeap`] keyed by `f`. Across a link `f` never
/// falls in exact arithmetic, so a label can come in below the key just
/// popped only by rounding, and the search raises it to that key. Equal
/// keys pop first in, first out; the order decides how much is pushed,
/// never which path comes back. The search stops at the first key above
/// the bound, and no label with `f` within the bound is left behind: a
/// raised key is one popped earlier, and the bound only falls once `dst`
/// is labelled from some `x`, to `(g + w) * (1 + TIE_SLACK)` — at least
/// `x`'s own key, since the potential at `x` is at most `w`, and so at
/// least every key popped before. The first key above the bound is
/// therefore a label's own `f`, and so is every key left, none of them
/// lower.
///
/// A spur search of Yen's loop also starts under a limit: with `r` paths
/// still to output and at least `r` candidates in hand, a spur path that
/// would make a candidate dearer than the `r`-th cheapest of them is never
/// output, so the search gives up where only such paths remain. The limit
/// is not strict, leaving equally dear candidates to the `(cost, node
/// list)` tie-break. In the last round, only the cheapest candidate is
/// output, so a spur that can neither tie the newest path nor beat a tie
/// in hand on the node list is not searched (`final_round`).
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
    /// The point-to-point search's labels: `(g, node)` queued at `f`.
    labels: RadixHeap<(f64, NodeId)>,
    sssp_heap: RadixHeap<NodeId>,
    /// Yen's paths and buffers, kept across queries.
    scratch: Scratch,
    /// Yen's round scratch: the cost of the newest path up to each of its
    /// nodes, and the spurs the final round postponed, each with the least
    /// its candidate could cost, in milliseconds.
    root_costs: Vec<SimDuration>,
    postponed: Vec<(f64, usize)>,
    /// Labels expanded by point-to-point searches since construction.
    #[cfg(test)]
    expanded: usize,
    /// Spur searches run since construction.
    #[cfg(test)]
    spur_searches: usize,
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
            labels: RadixHeap::new(),
            sssp_heap: RadixHeap::new(),
            scratch: Scratch::default(),
            root_costs: Vec::new(),
            postponed: Vec::new(),
            #[cfg(test)]
            expanded: 0,
            #[cfg(test)]
            spur_searches: 0,
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
        self.labels
            .push(key(self.potential[src.index()]), (0.0, src));
        // `popped` is the label's key: its own `f`, or the key popped before
        // it if rounding put it lower (the type's docs). The search stops at
        // the first key above the bound.
        while let Some((popped, (g, node))) = self.labels.pop_until(bound.to_bits()) {
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
                    self.labels.push(key(f).max(popped), (nd, next));
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

    /// Mark `nodes` banned (`on`) or lift the ban.
    fn ban(&mut self, nodes: &[NodeId], on: bool) {
        for &v in nodes {
            self.banned[v.index()] = on;
        }
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
        self.ban(banned, true);
        let found = self.search(src, dst, &[], f64::MAX, &mut nodes);
        self.ban(banned, false);
        found.then(|| Path::new(nodes))
    }

    /// Yen's algorithm: the `k` shortest loopless paths from `src` to `dst`,
    /// in nondecreasing latency order. Returns fewer than `k` if the graph
    /// does not contain that many distinct simple paths. A batch of one.
    pub fn k_shortest(&mut self, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
        self.k_shortest_batch(&[(src, dst)], k)
            .pop()
            .expect("one answer per query")
    }

    /// [`Self::k_shortest`] for every `(src, dst)` of `queries`, answered in
    /// query order, each exactly as a query of its own: the queries sharing
    /// a destination share its reverse search.
    pub fn k_shortest_batch(&mut self, queries: &[(NodeId, NodeId)], k: usize) -> Vec<Vec<Path>> {
        let mut answers = vec![Vec::new(); queries.len()];
        if k == 0 {
            return answers;
        }
        let mut order: Vec<usize> = (0..queries.len())
            .filter(|&i| queries[i].0 != queries[i].1)
            .collect();
        order.sort_by_key(|&i| queries[i].1);
        let mut scratch = std::mem::take(&mut self.scratch);
        for group in order.chunk_by(|&a, &b| queries[a].1 == queries[b].1) {
            let dst = queries[group[0]].1;
            // The potential is the distance to `dst`, bans ignored, capped
            // at the cost the search from `dst` stopped at: the first pop
            // at or above every source's label, by which each source's
            // distance is final. That leaves `min(label, cost)` equal to
            // `min(distance, cost)` everywhere, at least each source's own
            // distance, and a ban can only lengthen a path, so it stays a
            // lower bound for the first search and for every spur search.
            // A source is done for good once reached: labels only fall and
            // pops only rise. An unreachable source never stops the
            // search, and its first search fails on its infinite potential.
            self.potential.fill(f64::INFINITY);
            let weight = &self.weight;
            let mut done = 0;
            let stop = sssp(
                self.topo,
                |l| weight[l.index()],
                dst,
                &mut self.potential,
                &mut self.sssp_heap,
                |cost, label| {
                    while let Some(&i) = group.get(done) {
                        if cost < label[queries[i].0.index()] {
                            return false;
                        }
                        done += 1;
                    }
                    true
                },
            );
            for h in &mut self.potential {
                *h = h.min(stop);
            }
            for &i in group {
                answers[i] = self.yen(queries[i].0, dst, k, &mut scratch);
            }
            self.potential.fill(0.0);
        }
        self.scratch = scratch;
        answers
    }

    /// Yen's loop for `k >= 1`, on the potential laid out for `dst`, in
    /// `scratch`; only the answer is allocated.
    fn yen(&mut self, src: NodeId, dst: NodeId, k: usize, scratch: &mut Scratch) -> Vec<Path> {
        scratch.nodes.clear();
        scratch.result.clear();
        scratch.candidates.clear();
        if !self.search(src, dst, &[], f64::MAX, &mut scratch.nodes) {
            return Vec::new();
        }
        scratch.result.push(0..scratch.nodes.len());

        while scratch.result.len() < k {
            let last = &scratch.nodes[scratch.last()];
            // The cost of `last` up to each of its nodes.
            self.root_costs.clear();
            self.root_costs.push(SimDuration::ZERO);
            for w in last.windows(2) {
                let hop = self
                    .topo
                    .latency_between(w[0], w[1])
                    .expect("path edge must be a topology link");
                self.root_costs
                    .push(*self.root_costs.last().expect("pushed") + hop);
            }
            let spurs = last.len() - 1;
            let mut round = Round {
                dst,
                wanted: k - scratch.result.len(),
                scratch: &mut *scratch,
            };
            if round.wanted == 1 {
                self.final_round(&mut round);
            } else {
                // Each node of the previous path (except egress) is a spur
                // point.
                for spur_idx in 0..spurs {
                    self.spur(&mut round, spur_idx);
                }
            }
            if scratch.candidates.is_empty() {
                break;
            }
            let (_, next) = scratch.candidates.remove(0);
            scratch.result.push(next);
        }
        scratch
            .result
            .iter()
            .map(|span| Path::new(scratch.nodes[span.clone()].to_vec()))
            .collect()
    }

    /// The round with one path left to output, which only the cheapest
    /// candidate survives. No candidate is cheaper than `last`, so the
    /// spurs that could tie it are searched first, deepest first, and a
    /// spur that could not is postponed: none of its hops passes the spur
    /// search's own first step against `last`'s cost. Once the cheapest
    /// candidate does cost as much as `last`, it is beaten only on the node
    /// list, by an equally dear path, so a spur is skipped unless one of
    /// the hops that could tie would put it first. The postponed spurs are
    /// searched only if no tie turned up, by the least their candidates
    /// can cost, the root's cost plus the cheapest first hop: the first
    /// candidate found is then likely the cheapest, and `spur` starts no
    /// search whose first hops all cost more than it.
    fn final_round(&mut self, round: &mut Round<'_>) {
        let span = round.scratch.last();
        let cost = self.root_costs[span.len() - 1];
        self.postponed.clear();
        for spur_idx in (0..span.len() - 1).rev() {
            let scratch = &*round.scratch;
            let last = &scratch.nodes[span.clone()];
            let root = &last[..=spur_idx];
            // Only a hop numbered below `below` can put the spur's path
            // ahead of a tie in hand.
            let mut below = None;
            let best = scratch.candidates.first().filter(|(c, _)| *c == cost);
            let tied = best.is_some();
            if let Some((_, best)) = best {
                let best = &scratch.nodes[best.clone()];
                match best.iter().zip(root).position(|(b, r)| b != r) {
                    // Every path from this spur follows the root, past
                    // where the tie leaves it for a lower node.
                    Some(d) if best[d] < root[d] => continue,
                    Some(_) => {}
                    // A path through the root does not end inside it.
                    None => below = Some(best[spur_idx + 1]),
                }
            }
            let tie = spur_budget(cost, self.root_costs[spur_idx]);
            let next = last[spur_idx + 1];
            // What the spur search's first step would add to each hop.
            let mut hops = self
                .topo
                .neighbors(root[spur_idx])
                .iter()
                .filter(|&&(u, _)| u != next && !root.contains(&u))
                .map(|&(u, link)| (u, self.weight[link.index()] + self.potential[u.index()]));
            if tied {
                if hops.any(|(u, f)| f <= tie && below.is_none_or(|b| u < b)) {
                    self.spur(round, spur_idx);
                }
                continue;
            }
            let cheapest = hops.map(|(_, f)| f).fold(f64::INFINITY, f64::min);
            if cheapest <= tie {
                self.spur(round, spur_idx);
            } else {
                // No candidate of this spur costs less than its root and
                // its cheapest first hop.
                let root_cost = self.root_costs[spur_idx].as_millis_f64();
                self.postponed.push((root_cost + cheapest, spur_idx));
            }
        }
        if round
            .scratch
            .candidates
            .first()
            .is_none_or(|(c, _)| *c != cost)
        {
            self.postponed
                .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for i in 0..self.postponed.len() {
                self.spur(round, self.postponed[i].1);
            }
        }
    }

    /// Search the spur of `last`, the newest result path, at `spur_idx`,
    /// and hold the path it finds as a candidate.
    fn spur(&mut self, round: &mut Round<'_>, spur_idx: usize) {
        let scratch = &mut *round.scratch;
        let last = scratch.last();
        let root = &scratch.nodes[last.start..=last.start + spur_idx];
        let spur_node = root[spur_idx];

        // Ban the hops out of the spur node that would recreate an
        // already-found path with the same root, and ban root nodes
        // (except the spur) to keep the total path simple.
        scratch.banned_hops.clear();
        for span in scratch
            .result
            .iter()
            .chain(scratch.candidates.iter().map(|(_, span)| span))
        {
            let p = &scratch.nodes[span.clone()];
            if p.len() > spur_idx + 1 && p[..=spur_idx] == *root {
                scratch.banned_hops.push(p[spur_idx + 1]);
            }
        }

        // Only `wanted` more paths will be output, cheapest first, so once
        // that many candidates are held a path dearer than the dearest of
        // them never will be, and the spur search need not find it. An
        // equally dear one still reaches the node-list tie-break. The limit
        // never rises (an output takes the cheapest candidate and one slot
        // with it), so a path it hid from the scan above can later only be
        // found and hidden again.
        let root_cost = self.root_costs[spur_idx];
        let limit = scratch
            .candidates
            .get(round.wanted - 1)
            .map_or(f64::MAX, |(t, _)| spur_budget(*t, root_cost));
        // The search's own first step: with no hop out of the spur node
        // that it may take and that fits under the limit, it would find
        // nothing, so it is not started.
        let fits = self.topo.neighbors(spur_node).iter().any(|&(u, link)| {
            self.weight[link.index()] + self.potential[u.index()] <= limit
                && !root[..spur_idx].contains(&u)
                && !scratch.banned_hops.contains(&u)
        });
        if !fits {
            return;
        }
        #[cfg(test)]
        {
            self.spur_searches += 1;
        }
        // The candidate is assembled at the end of the arena, root then
        // spur path, and stays only if the search finds one. A path
        // already held or output would share this root and leave it by a
        // banned hop, or differ inside the root, which does not hold `dst`.
        let start = scratch.nodes.len();
        scratch
            .nodes
            .extend_from_within(last.start..last.start + spur_idx);
        self.ban(&scratch.nodes[start..], true);
        let found = self.search(
            spur_node,
            round.dst,
            &scratch.banned_hops,
            limit,
            &mut scratch.nodes,
        );
        self.ban(&scratch.nodes[start..start + spur_idx], false);
        if found {
            let total = &scratch.nodes[start..];
            let cost = root_cost + latency_along(self.topo, &total[spur_idx..]);
            let at = scratch
                .candidates
                .partition_point(|(c, span)| (*c, &scratch.nodes[span.clone()]) < (cost, total));
            scratch
                .candidates
                .insert(at, (cost, start..scratch.nodes.len()));
        } else {
            scratch.nodes.truncate(start);
        }
    }
}

/// The paths a query holds, kept across queries so that a query allocates
/// only its answer: every path output or held as a candidate is a span of
/// one node arena, and becomes a [`Path`] only when it is output.
#[derive(Default)]
struct Scratch {
    /// The running query's paths, one after another; a candidate's span
    /// stays until the query ends, output or not.
    nodes: Vec<NodeId>,
    /// The paths output so far.
    result: Vec<Range<usize>>,
    /// The candidates held, in the order they will be output: by cost in
    /// whole nanoseconds, then by node list.
    candidates: Vec<(SimDuration, Range<usize>)>,
    /// The hops the running spur search may not take first.
    banned_hops: Vec<NodeId>,
}

impl Scratch {
    /// The span of the newest path output.
    fn last(&self) -> Range<usize> {
        self.result.last().expect("result non-empty").clone()
    }
}

/// One round of Yen's loop: how many paths are still wanted, and the
/// query's paths so far.
struct Round<'r> {
    dst: NodeId,
    wanted: usize,
    scratch: &'r mut Scratch,
}

/// What a spur path may cost, in milliseconds, for its candidate to cost no
/// more than `total` after a root costing `root`: the limit a spur search
/// starts under, with `TIE_SLACK` for the rounding between the two.
fn spur_budget(total: SimDuration, root: SimDuration) -> f64 {
    let spur = total.as_nanos().saturating_sub(root.as_nanos());
    SimDuration::from_nanos(spur).as_millis_f64() * (1.0 + TIE_SLACK)
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
