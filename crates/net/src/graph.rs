//! The network graph: switches (nodes) and bidirectional links with
//! propagation latency and per-direction capacity.

use p4update_des::SimDuration;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

/// Identifier of a switch / node. Dense, assigned in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into dense per-node arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of an undirected link (index into [`Topology::links`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Index into the topology's link table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How far a flow's size may exceed a link direction's free capacity and
/// the flow still fit: free capacity is an `f64` that reservations and
/// releases move in whatever order the updates happen, so a flow that fits
/// exactly can meet a remainder a rounding error short. Every capacity-fit
/// test in the workspace — switch, congestion gate, baselines' controllers,
/// workload generation — is `free + CAPACITY_SLACK >= size` (or its
/// negation) with this one value.
pub const CAPACITY_SLACK: f64 = 1e-9;

/// A node: a P4 switch with an optional geographic position (used to derive
/// propagation latency for WAN topologies).
#[derive(Debug, Clone)]
pub struct Node {
    /// Human-readable site name ("Chicago", "v3", ...).
    pub name: String,
    /// `(latitude, longitude)` in degrees, if the topology is geographic.
    pub position: Option<(f64, f64)>,
}

/// An undirected link between two nodes.
#[derive(Debug, Clone)]
pub struct Link {
    /// One endpoint (the lower `NodeId` by convention after normalization).
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Capacity per direction, in abstract flow-size units.
    pub capacity: f64,
}

impl Link {
    /// The endpoint opposite to `n`, or `None` if `n` is not an endpoint.
    pub fn opposite(&self, n: NodeId) -> Option<NodeId> {
        if n == self.a {
            Some(self.b)
        } else if n == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// The graph a [`Topology`] is a handle on: built once by
/// [`TopologyBuilder::build`], every `Vec` at its exact size, and never
/// changed afterwards.
#[derive(Debug)]
pub struct Graph {
    /// Descriptive name ("B4", "Internet2", "fat-tree-k4", ...).
    pub name: String,
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// The adjacency in compressed-sparse-row form: `v`'s neighbours, each
    /// with the connecting link and sorted by neighbour, are
    /// `arcs[offsets[v]..offsets[v + 1]]`. A position in `arcs` is an *arc
    /// id*, one per directed link `(v, w)`, ascending in `(v, w)` order.
    offsets: Vec<u32>,
    arcs: Vec<(NodeId, LinkId)>,
}

/// An immutable network topology.
///
/// Construction goes through [`TopologyBuilder`]; the built topology
/// precomputes adjacency so path algorithms and the simulator can look up
/// neighbors in O(degree).
///
/// A `Topology` is a handle: `clone` bumps a reference count and every
/// clone reads the same [`Graph`], so a world, its controllers' NIBs and
/// whoever built them hold one copy of what none of them can change.
/// (`Rc`, not `Arc`: the workspace runs on one thread.)
#[derive(Debug, Clone)]
pub struct Topology(Rc<Graph>);

impl Deref for Topology {
    type Target = Graph;

    fn deref(&self) -> &Graph {
        &self.0
    }
}

impl Topology {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All node ids, in order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Node metadata.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Find a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| NodeId(i as u32))
    }

    /// Link metadata.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Neighbors of `v` with the connecting link, sorted by neighbor id.
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, LinkId)] {
        &self.arcs[self.arc_range(v)]
    }

    /// The arc ids of the links leaving `v`.
    fn arc_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize
    }

    /// The arc id of `a -> b`, if they are adjacent. Binary search over
    /// `a`'s sorted neighbor list — a couple of cache lines even on the
    /// largest fat-trees, where this sits on the per-packet hot path
    /// (`transit` resolves every switch-to-switch hop through it).
    fn arc(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let start = *self.offsets.get(a.index())? as usize;
        let end = *self.offsets.get(a.index() + 1)? as usize;
        self.arcs[start..end]
            .binary_search_by_key(&b, |&(n, _)| n)
            .ok()
            .map(|i| start + i)
    }

    /// The link between `a` and `b`, if they are adjacent.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.arc(a, b).map(|arc| self.arcs[arc].1)
    }

    /// One-way latency between two *adjacent* nodes.
    pub fn latency_between(&self, a: NodeId, b: NodeId) -> Option<SimDuration> {
        self.link_between(a, b).map(|l| self.link(l).latency)
    }

    /// True if the graph is connected (and non-empty).
    pub fn is_connected(&self) -> bool {
        let component = self.bridge_classes().component;
        !component.is_empty() && component.iter().all(|&c| c == 0)
    }

    /// Classify the nodes by what joins them, for
    /// [`BridgeClasses::two_paths`]: one depth-first walk over
    /// [`Self::neighbors`], O(nodes + links), computed when asked for and
    /// not kept. The walk keeps its own stack — a 32,768-switch fat-tree,
    /// let alone a long chain, is deeper than the call stack allows.
    pub fn bridge_classes(&self) -> BridgeClasses {
        /// One level of the walk.
        struct Frame {
            node: NodeId,
            /// The parent, and the link the walk came down.
            from: Option<(NodeId, LinkId)>,
            /// Neighbours of `node` looked at so far.
            looked_at: usize,
        }
        const UNSEEN: u32 = u32::MAX;
        let n = self.node_count();
        // `disc` numbers the nodes in the order the walk enters them;
        // `low[v]` is the lowest number reachable from `v`'s subtree by
        // tree links downwards and then at most one other link. The tree
        // link into `v` is a bridge exactly when nothing below it reaches
        // above `v`: `low[v] == disc[v]`.
        let mut disc = vec![UNSEEN; n];
        let mut low = vec![UNSEEN; n];
        let mut component = vec![0; n];
        let mut components = 0;
        // Nodes in the order entered, each with its parent in the walk.
        let mut entered: Vec<(NodeId, Option<NodeId>)> = Vec::with_capacity(n);
        let mut stack: Vec<Frame> = Vec::new();
        for root in self.node_ids() {
            if disc[root.index()] != UNSEEN {
                continue;
            }
            stack.push(Frame {
                node: root,
                from: None,
                looked_at: 0,
            });
            while let Some(frame) = stack.last_mut() {
                let (v, from) = (frame.node, frame.from);
                if frame.looked_at == 0 {
                    // First time at the top of the stack: enter `v`.
                    disc[v.index()] = entered.len() as u32;
                    low[v.index()] = entered.len() as u32;
                    component[v.index()] = components;
                    entered.push((v, from.map(|(parent, _)| parent)));
                }
                if let Some(&(w, link)) = self.neighbors(v).get(frame.looked_at) {
                    frame.looked_at += 1;
                    if disc[w.index()] == UNSEEN {
                        stack.push(Frame {
                            node: w,
                            from: Some((v, link)),
                            looked_at: 0,
                        });
                    } else if from.is_none_or(|(_, via)| via != link) {
                        low[v.index()] = low[v.index()].min(disc[w.index()]);
                    }
                } else {
                    stack.pop();
                    if let Some((parent, _)) = from {
                        low[parent.index()] = low[parent.index()].min(low[v.index()]);
                    }
                }
            }
            components += 1;
        }
        // Every bridge is a tree link, so a class — nodes joined by bridges
        // alone — has one topmost node, entered before the rest of it: that
        // one opens the class and the others inherit across their bridge.
        let mut class = vec![0; n];
        let mut classes = 0;
        for (v, parent) in entered {
            match parent {
                Some(parent) if low[v.index()] == disc[v.index()] => {
                    class[v.index()] = class[parent.index()];
                }
                _ => {
                    class[v.index()] = classes;
                    classes += 1;
                }
            }
        }
        BridgeClasses { component, class }
    }

    /// The node minimizing the maximum shortest-path latency to all others —
    /// where the evaluation places the controller ("the physical controller
    /// resides at the centroid node, to minimize worst-case control
    /// latency", §9.1); the lowest id among equals, node 0 when the graph
    /// is disconnected.
    ///
    /// Sources are searched best first under a lower bound on each node's
    /// eccentricity: a search from `w` puts `v` at least `d(w, v)` and,
    /// by the triangle inequality, `ecc(w) - d(w, v)` from its farthest
    /// node, and the search ends once no unsearched node's bound can reach
    /// the best eccentricity found.
    pub fn centroid(&self) -> NodeId {
        use crate::path::TIE_SLACK;
        let n = self.node_count();
        let weight = crate::path::link_weights(self);
        let mut best = NodeId(0);
        let mut best_ecc = f64::INFINITY;
        let mut dist = vec![f64::INFINITY; n];
        // A lower bound on each node's eccentricity; infinite once the node
        // has been searched.
        let mut lower = vec![0.0f64; n];
        let mut heap = p4update_des::RadixHeap::new();
        loop {
            // The first of the least bounds, so among equal bounds the
            // lowest id goes first.
            let v = self
                .node_ids()
                .min_by(|a, b| lower[a.index()].total_cmp(&lower[b.index()]))
                .expect("a topology has a node");
            // The same distance summed from the other end may round apart
            // (parts in 10¹⁶, `TIE_SLACK`'s argument): the search ends only
            // when every bound clears the best by more than that, and then
            // no node left could have beaten the best, nor tied it.
            if lower[v.index()] > best_ecc * (1.0 + TIE_SLACK) {
                return best;
            }
            #[cfg(test)]
            CENTROID_SOURCES.set(CENTROID_SOURCES.get() + 1);
            dist.fill(f64::INFINITY);
            // A source stops at the first cost past the best `(ecc, id)` so
            // far. A node left unsettled by then has a label, tentative or
            // still infinite, of at least that cost, so the comparison
            // below fails; with none left every label is final and the
            // maximum is exact.
            let stop = crate::path::sssp(
                self,
                |l| weight[l.index()],
                v,
                &mut dist,
                &mut heap,
                |cost, _| (cost, v) > (best_ecc, best),
            );
            let ecc = dist.iter().copied().fold(0.0, f64::max);
            if stop == f64::INFINITY && ecc == f64::INFINITY {
                // A full search left a node unreached: every node's
                // eccentricity is infinite.
                return NodeId(0);
            }
            if (ecc, v) < (best_ecc, best) {
                best_ecc = ecc;
                best = v;
            }
            // `min(d, stop)` is `min(distance, stop)` at every node (see
            // `sssp`), and `v`'s eccentricity is at least `min(ecc, stop)`.
            let reach = ecc.min(stop);
            for (d, low) in dist.iter().zip(&mut lower) {
                let d = d.min(stop);
                *low = low.max(d).max(reach - d);
            }
            lower[v.index()] = f64::INFINITY;
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Sources `centroid` searched from on this thread.
    static CENTROID_SOURCES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One value per directed link of a topology, stored densely by arc id:
/// the per-link state of a capacity view at 8 bytes an arc for an `f64`,
/// where a map keyed by node pairs pays a tree node per entry. Iteration
/// runs in ascending `(a, b)` order, the order of a `BTreeMap` keyed by
/// `(a, b)`.
#[derive(Clone)]
pub struct ArcMap<T> {
    topo: Topology,
    /// By arc id.
    values: Vec<T>,
}

impl<T> ArcMap<T> {
    /// A map over `topo`'s arcs holding `value(link)` on both directions of
    /// every link.
    pub fn new(topo: &Topology, mut value: impl FnMut(&Link) -> T) -> Self {
        let values = topo
            .arcs
            .iter()
            .map(|&(_, l)| value(topo.link(l)))
            .collect();
        ArcMap {
            topo: topo.clone(),
            values,
        }
    }

    /// The value on `a -> b`; `None` when the two are not adjacent.
    pub fn get(&self, a: NodeId, b: NodeId) -> Option<&T> {
        self.topo.arc(a, b).map(|arc| &self.values[arc])
    }

    /// The value on `a -> b`, mutably; `None` when the two are not adjacent.
    pub fn get_mut(&mut self, a: NodeId, b: NodeId) -> Option<&mut T> {
        self.topo.arc(a, b).map(|arc| &mut self.values[arc])
    }

    /// Every arc with its value, in ascending `(a, b)` order.
    pub fn iter(&self) -> impl Iterator<Item = ((NodeId, NodeId), &T)> + '_ {
        self.topo.node_ids().flat_map(move |a| {
            let arcs = self.topo.arc_range(a);
            self.topo.arcs[arcs.clone()]
                .iter()
                .zip(&self.values[arcs])
                .map(move |(&(b, _), value)| ((a, b), value))
        })
    }
}

impl<T: fmt::Debug> fmt::Debug for ArcMap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Which node pairs have more than one simple path between them, from
/// [`Topology::bridge_classes`]. A pair has exactly one iff bridges — links
/// on no cycle — alone join its endpoints: if every link of a path is a
/// bridge, each separates the endpoints, every path must cross them all in
/// the same order and cannot leave the node two consecutive ones share;
/// and a link of the path that does lie on a cycle can be replaced by the
/// rest of that cycle, a walk that holds a different simple path.
#[derive(Debug)]
pub struct BridgeClasses {
    /// Connected component, by node; components are numbered from 0.
    component: Vec<u32>,
    /// Component of the graph with only its bridges kept, by node.
    class: Vec<u32>,
}

impl BridgeClasses {
    /// True when at least two simple paths lead from `a` to `b` — when
    /// `k_shortest(a, b, 2)` returns two. False for `a == b`.
    pub fn two_paths(&self, a: NodeId, b: NodeId) -> bool {
        let (a, b) = (a.index(), b.index());
        self.component[a] == self.component[b] && self.class[a] != self.class[b]
    }
}

/// Builder for [`Topology`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    name: String,
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Normalized endpoint pairs already linked — duplicate detection must
    /// be O(1) per link or hyper-scale topologies (ft32768: 1.1M links)
    /// take quadratic time to even build.
    seen: std::collections::HashSet<(NodeId, NodeId)>,
}

impl TopologyBuilder {
    /// Start a topology with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TopologyBuilder {
            name: name.into(),
            nodes: Vec::new(),
            links: Vec::new(),
            seen: std::collections::HashSet::new(),
        }
    }

    /// Add a node without coordinates; returns its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        self.nodes.push(Node {
            name: name.into(),
            position: None,
        });
        NodeId(self.nodes.len() as u32 - 1)
    }

    /// Add a node with `(latitude, longitude)` coordinates; returns its id.
    pub fn add_site(&mut self, name: impl Into<String>, lat: f64, lon: f64) -> NodeId {
        self.nodes.push(Node {
            name: name.into(),
            position: Some((lat, lon)),
        });
        NodeId(self.nodes.len() as u32 - 1)
    }

    /// Add an undirected link with explicit latency and capacity.
    ///
    /// # Panics
    /// Panics on self-loops, unknown endpoints, or duplicate links — all of
    /// which indicate a topology definition bug.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, latency: SimDuration, capacity: f64) {
        assert!(a != b, "self-loop {a}");
        assert!(a.index() < self.nodes.len(), "unknown endpoint {a}");
        assert!(b.index() < self.nodes.len(), "unknown endpoint {b}");
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        assert!(self.seen.insert((a, b)), "duplicate link {a}-{b}");
        self.links.push(Link {
            a,
            b,
            latency,
            capacity,
        });
    }

    /// Add a link whose latency is derived from the endpoints' geographic
    /// distance at signal speed 2·10⁵ km/s (the paper's optical-propagation
    /// assumption, §9.1). Both endpoints must have coordinates.
    pub fn add_geo_link(&mut self, a: NodeId, b: NodeId, capacity: f64) {
        let pa = self.nodes[a.index()]
            .position
            .expect("geo link endpoint without coordinates");
        let pb = self.nodes[b.index()]
            .position
            .expect("geo link endpoint without coordinates");
        let latency = crate::geo::propagation_latency(pa, pb);
        self.add_link(a, b, latency, capacity);
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links added so far.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Position of an already-added node.
    pub fn position(&self, id: NodeId) -> Option<(f64, f64)> {
        self.nodes[id.index()].position
    }

    /// True if a link between `a` and `b` exists already.
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.seen.contains(&(a, b))
    }

    /// Finalize into an immutable [`Topology`]. The builder's growth slack
    /// is given back first: the graph outlives the builder by the whole
    /// run, and on a fat-tree doubling leaves a third of it unused.
    pub fn build(mut self) -> Topology {
        self.nodes.shrink_to_fit();
        self.links.shrink_to_fit();
        // Degrees, then their prefix sums: `offsets[v]` is where `v`'s run
        // of arcs starts.
        let n = self.nodes.len();
        let mut offsets = vec![0u32; n + 1];
        for link in &self.links {
            offsets[link.a.index() + 1] += 1;
            offsets[link.b.index() + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut next: Vec<u32> = offsets[..n].to_vec();
        let mut arcs = vec![(NodeId(0), LinkId(0)); 2 * self.links.len()];
        for (i, link) in self.links.iter().enumerate() {
            let id = LinkId(i as u32);
            for (from, to) in [(link.a, link.b), (link.b, link.a)] {
                arcs[next[from.index()] as usize] = (to, id);
                next[from.index()] += 1;
            }
        }
        for v in 0..n {
            arcs[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable_by_key(|&(w, _)| w);
        }
        Topology(Rc::new(Graph {
            name: self.name,
            nodes: self.nodes,
            links: self.links,
            offsets,
            arcs,
        }))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn triangle() -> Topology {
        let mut b = TopologyBuilder::new("tri");
        let v0 = b.add_node("a");
        let v1 = b.add_node("b");
        let v2 = b.add_node("c");
        b.add_link(v0, v1, SimDuration::from_millis(1), 10.0);
        b.add_link(v1, v2, SimDuration::from_millis(2), 10.0);
        b.add_link(v0, v2, SimDuration::from_millis(3), 10.0);
        b.build()
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let t = triangle();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 3);
        assert_eq!(t.node(NodeId(1)).name, "b");
        assert_eq!(t.node_by_name("c"), Some(NodeId(2)));
        assert_eq!(t.node_by_name("zz"), None);
    }

    #[test]
    fn a_clone_is_a_handle_on_the_same_graph() {
        let t = triangle();
        let c = t.clone();
        assert!(std::ptr::eq(t.links().as_ptr(), c.links().as_ptr()));
        for v in t.node_ids() {
            assert!(std::ptr::eq(
                t.neighbors(v).as_ptr(),
                c.neighbors(v).as_ptr()
            ));
        }
        // The graph lives as long as any handle on it.
        drop(t);
        assert_eq!(c.name, "tri");
        assert_eq!((c.node_count(), c.link_count()), (3, 3));
    }

    #[test]
    fn build_hands_over_no_growth_slack() {
        // A ring of 40 with chords, degrees 2 to 4: grown by pushes, 58
        // links sit in 64 slots and three neighbours in four.
        let mut links: Vec<_> = (0..40).map(|i| (i, (i + 1) % 40)).collect();
        links.extend((0..13).map(|i| (i, i + 20)));
        links.extend((0..5).map(|i| (i, i + 10)));
        let t = unit_graph("chorded ring", 40, &links);
        assert_eq!(t.0.nodes.capacity(), 40);
        assert_eq!(t.0.links.capacity(), 58);
        assert_eq!(t.0.offsets.capacity(), 41);
        assert_eq!(t.0.arcs.capacity(), 2 * 58);
    }

    #[test]
    fn adjacency_is_symmetric_and_sorted() {
        let t = triangle();
        for v in t.node_ids() {
            for &(w, l) in t.neighbors(v) {
                assert!(t.neighbors(w).iter().any(|&(x, l2)| x == v && l2 == l));
            }
            let ids: Vec<_> = t.neighbors(v).iter().map(|&(n, _)| n).collect();
            let mut sorted = ids.clone();
            sorted.sort();
            assert_eq!(ids, sorted);
        }
    }

    #[test]
    fn link_lookup_is_order_independent() {
        let t = triangle();
        assert_eq!(
            t.link_between(NodeId(0), NodeId(2)),
            t.link_between(NodeId(2), NodeId(0))
        );
        assert_eq!(
            t.latency_between(NodeId(1), NodeId(2)),
            Some(SimDuration::from_millis(2))
        );
        assert_eq!(t.link_between(NodeId(0), NodeId(0)), None);
    }

    #[test]
    fn opposite_endpoint() {
        let t = triangle();
        let l = t.link(t.link_between(NodeId(0), NodeId(1)).unwrap());
        assert_eq!(l.opposite(NodeId(0)), Some(NodeId(1)));
        assert_eq!(l.opposite(NodeId(1)), Some(NodeId(0)));
        assert_eq!(l.opposite(NodeId(2)), None);
    }

    #[test]
    fn connectivity() {
        let t = triangle();
        assert!(t.is_connected());
        let mut b = TopologyBuilder::new("disc");
        b.add_node("a");
        b.add_node("b");
        assert!(!b.build().is_connected());
        let empty = TopologyBuilder::new("empty").build();
        assert!(!empty.is_connected());
    }

    /// `n` nodes linked as listed, 1 ms a link.
    pub(crate) fn unit_graph(name: &str, n: usize, links: &[(usize, usize)]) -> Topology {
        let mut b = TopologyBuilder::new(name);
        let v: Vec<_> = (0..n).map(|i| b.add_node(format!("n{i}"))).collect();
        for &(i, j) in links {
            b.add_link(v[i], v[j], SimDuration::from_millis(1), 1.0);
        }
        b.build()
    }

    /// The ordered pairs `two_paths` says yes to, as `(a, b)` with `a < b`
    /// after checking that the answer is symmetric.
    fn two_path_pairs(t: &Topology) -> Vec<(u32, u32)> {
        let classes = t.bridge_classes();
        let mut pairs = Vec::new();
        for a in t.node_ids() {
            assert!(!classes.two_paths(a, a));
            for b in t.node_ids().filter(|&b| a < b) {
                assert_eq!(classes.two_paths(a, b), classes.two_paths(b, a));
                if classes.two_paths(a, b) {
                    pairs.push((a.0, b.0));
                }
            }
        }
        pairs
    }

    #[test]
    fn two_paths_needs_a_cycle_between_the_pair() {
        // A cycle: every pair.
        assert_eq!(two_path_pairs(&triangle()), [(0, 1), (0, 2), (1, 2)]);
        // A tree: none.
        let tree = unit_graph("tree", 5, &[(0, 1), (1, 2), (1, 3), (3, 4)]);
        assert!(two_path_pairs(&tree).is_empty());
        // Stick 0-1 on the cycle 1-2-3: 0 reaches 2 and 3 two ways (the
        // cycle is on the way) but 1 only one way.
        let lollipop = unit_graph("lollipop", 4, &[(0, 1), (1, 2), (2, 3), (3, 1)]);
        assert_eq!(
            two_path_pairs(&lollipop),
            [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        );
        // Two triangles joined by the bridge 2-3: its endpoints are the
        // only pair with one path.
        let links = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)];
        let barbell = unit_graph("barbell", 6, &links);
        assert_eq!(two_path_pairs(&barbell).len(), 14);
        assert!(!barbell.bridge_classes().two_paths(NodeId(2), NodeId(3)));
        // Two components, an isolated node: never across.
        let links = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)];
        let split = unit_graph("split", 7, &links);
        assert_eq!(
            two_path_pairs(&split),
            [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        );
    }

    #[test]
    fn bridge_walk_does_not_recurse() {
        // A chain of 100,000 nodes closed into a cycle over its far half:
        // the walk is 100,000 deep, and a bridge's class is inherited
        // 50,000 times over.
        let n = 100_000;
        let mut links: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
        links.push((n - 1, n / 2));
        let t = unit_graph("half-closed chain", n, &links);
        assert!(t.is_connected());
        let classes = t.bridge_classes();
        let node = |i: usize| NodeId(i as u32);
        assert!(!classes.two_paths(node(0), node(n / 2)));
        assert!(!classes.two_paths(node(17), node(n / 2 - 1)));
        assert!(classes.two_paths(node(0), node(n / 2 + 1)));
        assert!(classes.two_paths(node(n / 2), node(n - 1)));
        assert!(classes.two_paths(node(n - 2), node(n - 1)));
    }

    #[test]
    fn has_link_sees_either_endpoint_order() {
        let mut b = TopologyBuilder::new("pair");
        let v: Vec<_> = (0..3).map(|i| b.add_node(format!("n{i}"))).collect();
        b.add_link(v[2], v[0], SimDuration::from_millis(1), 1.0);
        assert!(b.has_link(v[0], v[2]) && b.has_link(v[2], v[0]));
        assert!(!b.has_link(v[0], v[1]));
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_link_panics() {
        let mut b = TopologyBuilder::new("dup");
        let v0 = b.add_node("a");
        let v1 = b.add_node("b");
        b.add_link(v0, v1, SimDuration::ZERO, 1.0);
        b.add_link(v1, v0, SimDuration::ZERO, 1.0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut b = TopologyBuilder::new("loop");
        let v0 = b.add_node("a");
        b.add_link(v0, v0, SimDuration::ZERO, 1.0);
    }

    #[test]
    fn centroid_of_a_path_is_the_middle() {
        let mut b = TopologyBuilder::new("path");
        let ids: Vec<_> = (0..5).map(|i| b.add_node(format!("n{i}"))).collect();
        for w in ids.windows(2) {
            b.add_link(w[0], w[1], SimDuration::from_millis(10), 1.0);
        }
        assert_eq!(b.build().centroid(), NodeId(2));
    }

    /// `centroid` as it stood before it shared one buffer and stopped
    /// hopeless sources early: a full Dijkstra from every node.
    fn centroid_by_full_searches(topo: &Topology) -> NodeId {
        let mut best = NodeId(0);
        let mut best_ecc = f64::INFINITY;
        for v in topo.node_ids() {
            let dist = crate::path::latency_distances_from(topo, v);
            let ecc = dist.iter().copied().fold(0.0f64, |acc, d| {
                if d.is_finite() {
                    acc.max(d)
                } else {
                    f64::INFINITY
                }
            });
            if ecc < best_ecc {
                best_ecc = ecc;
                best = v;
            }
        }
        best
    }

    #[test]
    fn centroid_agrees_with_full_searches_on_random_graphs() {
        use crate::path::tests::{random_graph, Backbone};
        use p4update_des::propcheck::{cases, forall};
        forall("centroid_vs_full_searches", cases(1024), |rng| {
            let n = 1 + rng.uniform_usize(14);
            let split = n >= 4 && rng.chance(0.2);
            let (backbone, extra) = if rng.chance(0.5) {
                let len = 1 + rng.uniform_usize(n);
                (Backbone::Cycle { len }, rng.uniform_usize(3))
            } else {
                (Backbone::Tree, rng.uniform_usize(2 * n))
            };
            let topo = match rng.uniform_usize(3) {
                // Inexact in floating point: one distance summed from
                // its two ends may differ in the last bit.
                0 => random_graph(rng, n, backbone, extra, split, |r| {
                    SimDuration::from_micros([50, 70, 130][r.uniform_usize(3)])
                }),
                // Ties everywhere.
                1 => random_graph(rng, n, backbone, extra, split, |r| {
                    SimDuration::from_millis(1 + r.uniform_usize(3) as u64)
                }),
                _ => random_graph(rng, n, backbone, extra, split, |r| {
                    SimDuration::from_nanos(50_000 + r.uniform_usize(20_000_000) as u64)
                }),
            };
            assert_eq!(topo.centroid(), centroid_by_full_searches(&topo));
        });
    }

    #[test]
    fn centroid_searches_few_sources_on_the_wans() {
        use crate::topologies as t;
        // Deterministic counts, pinned so a lost bound or a lost order
        // shows as a number and not as a slow benchmark: without them
        // every node is a source. The fat-tree's nodes tie in whole
        // eccentricities, and an exact tie can only be settled by
        // searching it, so there every node is a source.
        for (topo, sources) in [
            (t::b4(), 3),
            (t::internet2(), 4),
            (t::att_mpls(), 2),
            (t::chinanet(), 6),
            (t::fat_tree(4), 20),
        ] {
            CENTROID_SOURCES.set(0);
            topo.centroid();
            assert_eq!(CENTROID_SOURCES.get(), sources, "{}", topo.name);
        }
    }

    #[test]
    fn centroid_is_the_one_full_searches_find() {
        use crate::topologies as t;
        for topo in [
            t::b4(),
            t::internet2(),
            t::att_mpls(),
            t::chinanet(),
            t::fat_tree(4),
            t::synthetic_fat_tree_64(),
            t::synthetic_fat_tree_512(),
        ] {
            assert_eq!(
                topo.centroid(),
                centroid_by_full_searches(&topo),
                "{}",
                topo.name
            );
        }
    }

    /// The capacity view as it was built before arcs were dense: two
    /// inserts per link into a map keyed by node pairs.
    fn map_of_arcs(topo: &Topology) -> Vec<((NodeId, NodeId), f64)> {
        let mut map = std::collections::BTreeMap::new();
        for link in topo.links() {
            map.insert((link.a, link.b), link.capacity);
            map.insert((link.b, link.a), link.capacity);
        }
        map.into_iter().collect()
    }

    #[test]
    fn arcs_are_the_map_keys_in_map_order() {
        use crate::topologies as t;
        for topo in [
            t::fig1(),
            t::fig2_chain(),
            t::fig2_chain_slow_detour(),
            t::multi_gateway(),
            t::fig4_net(),
            t::b4(),
            t::internet2(),
            t::att_mpls(),
            t::chinanet(),
            t::fat_tree(4),
            t::synthetic_fat_tree_64(),
            t::synthetic_fat_tree_512(),
        ] {
            let arcs = ArcMap::new(&topo, |l| l.capacity);
            let dense: Vec<_> = arcs.iter().map(|(e, &c)| (e, c)).collect();
            assert_eq!(dense, map_of_arcs(&topo), "{}", topo.name);
            for a in topo.node_ids() {
                for b in topo.node_ids() {
                    let link = topo.link_between(a, b);
                    let cap = arcs.get(a, b).copied();
                    assert_eq!(cap, link.map(|l| topo.link(l).capacity), "{}", topo.name);
                    if link.is_none() {
                        assert_eq!(cap, None, "{}: {a} {b}", topo.name);
                    }
                }
            }
        }
    }

    #[test]
    fn an_arc_map_misses_off_the_graph() {
        let t = triangle();
        let mut arcs = ArcMap::new(&t, |l| l.latency);
        let outside = NodeId(3);
        assert_eq!(arcs.get(NodeId(0), outside), None);
        assert_eq!(arcs.get(outside, NodeId(0)), None);
        assert_eq!(arcs.get(NodeId(1), NodeId(1)), None);
        assert!(arcs.get_mut(outside, outside).is_none());
        *arcs.get_mut(NodeId(2), NodeId(0)).expect("adjacent") = SimDuration::ZERO;
        assert_eq!(arcs.get(NodeId(2), NodeId(0)), Some(&SimDuration::ZERO));
        assert_eq!(
            arcs.get(NodeId(0), NodeId(2)),
            Some(&SimDuration::from_millis(3))
        );
        assert_eq!(arcs.iter().count(), 6);
    }

    #[test]
    fn centroid_of_a_disconnected_graph_is_node_zero() {
        let mut b = TopologyBuilder::new("split");
        let v: Vec<_> = (0..4).map(|i| b.add_node(format!("n{i}"))).collect();
        b.add_link(v[0], v[1], SimDuration::from_millis(3), 1.0);
        b.add_link(v[2], v[3], SimDuration::from_millis(1), 1.0);
        let topo = b.build();
        assert_eq!(topo.centroid(), NodeId(0));
        assert_eq!(topo.centroid(), centroid_by_full_searches(&topo));
    }
}
