//! The global consistency checker: the paper's three safety properties
//! (§5) as executable invariants over the simulated network state.
//!
//! The checker is the *oracle* the verification claims are tested against:
//! Theorems 1–4 and Corollaries 1–4 say P4Update never violates these
//! properties even under inconsistent, reordered, or lost control
//! messages; Fig. 2 shows ez-Segway does. Every run checks itself after
//! every event, and tests assert presence or absence of violations.
//!
//! It costs what an event changes: it keeps each flow's last walk and each
//! arc's load, and after an event walks again only the flows whose rule
//! flipped at a switch on their walk ([`Uib::drain_flips`]), from that
//! switch on, then compares only the arcs those walks left or took.

use crate::table::SwitchTable;
use p4update_dataplane::{Uib, UibEntry};
use p4update_des::SimTime;
use p4update_net::{ArcMap, FlowId, NodeId, Topology};
use std::collections::BTreeSet;

// The violation type itself lives in `p4update-core` (shared with the
// schedule explorer's trace corpus); re-exported here so harness users
// keep importing it from the checker.
pub use p4update_core::Violation;

/// Static facts about a flow the checker needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// The flow's ingress switch: the checker walks the flow from here
    /// until some switch terminates it.
    pub ingress: NodeId,
    /// The flow's size bound, in capacity units.
    pub size: f64,
}

/// Load units per capacity unit. A size is truncated to whole units once,
/// so a load is an exact integer sum no larger than the real one: a link
/// filled to capacity, within the `CAPACITY_SLACK` of every fit test, is
/// not overloaded. A `u32` holds 65,536 capacity units (links carry
/// 1,000); past that a load wraps, long after its link was reported.
const UNITS: f64 = 65_536.0;

fn units(size: f64) -> u32 {
    (size * UNITS) as u32
}

/// An overload of `load` units on `from -> to`, of capacity `capacity`.
fn overload(from: NodeId, to: NodeId, load: u32, capacity: f64) -> Violation {
    let load = f64::from(load) / UNITS;
    Violation::Congestion {
        from,
        to,
        load,
        capacity,
    }
}

/// Walk one flow's forwarding function on from `walk[from]`, the first
/// node whose rule may have changed: `walk` is cut there and extended by
/// the visited nodes, and after a loop by the node it closes on, so each
/// consecutive pair is a hop the flow loads. A loop or blackhole it ends
/// in goes to `found`; a loop's cycle starts at its smallest node, so the
/// same loop entered elsewhere is the same violation. A flow whose ingress
/// has no rule yet is not deployed (blackhole freedom is a property of
/// *installed* flows): its walk is the ingress alone.
fn walk_flow<'a>(
    flow: FlowId,
    uib: impl Fn(NodeId) -> Option<&'a Uib>,
    walk: &mut Vec<NodeId>,
    from: usize,
    found: &mut Vec<Violation>,
) {
    walk.truncate(from + 1);
    let mut cur = walk[from];
    if from == 0 && !uib(cur).is_some_and(|u| u.read(flow).has_active_rule()) {
        return;
    }
    loop {
        let entry = uib(cur).map(|u| u.read(flow));
        let Some(entry) = entry.filter(UibEntry::has_active_rule) else {
            return found.push(Violation::Blackhole { flow, at: cur });
        };
        let Some(next) = entry.active_next_hop.get() else {
            return; // delivered at this switch (egress role)
        };
        let revisit = walk.iter().position(|&n| n == next);
        walk.push(next);
        if let Some(pos) = revisit {
            let mut cycle = walk[pos..walk.len() - 1].to_vec();
            let smallest = (0..cycle.len()).min_by_key(|&i| cycle[i]).unwrap_or(0);
            cycle.rotate_left(smallest);
            return found.push(Violation::Loop { flow, cycle });
        }
        cur = next;
    }
}

/// Add (or, with `add` false, take back) `size` on every hop of `walk`,
/// noting each link in `touched`. A hop that names no link maps to a
/// sentinel of capacity 0, which the flow overloads by itself: added, it
/// goes to `found`.
fn charge(
    loads: &mut ArcMap<u32>,
    walk: &[NodeId],
    size: u32,
    add: bool,
    touched: &mut Vec<(NodeId, NodeId)>,
    found: &mut Vec<Violation>,
) {
    for hop in walk.windows(2) {
        let (from, to) = (hop[0], hop[1]);
        match loads.get_mut(from, to) {
            Some(load) => {
                *load = if add {
                    load.wrapping_add(size)
                } else {
                    load.wrapping_sub(size)
                };
                touched.push((from, to));
            }
            None if add => found.push(overload(from, to, size, 0.0)),
            None => {}
        }
    }
}

/// The incremental checker one world runs after each of its events.
pub(crate) struct Checker {
    /// The checked flows, ascending by id, each with its last walk.
    flows: Vec<(FlowId, FlowSpec, Vec<NodeId>)>,
    /// Each arc's load in units, over the flows' last walks.
    loads: ArcMap<u32>,
    /// Flows to walk again, each from a position on its last walk.
    dirty: Vec<(FlowId, usize)>,
    /// Every violation recorded so far, by its stable text encoding
    /// (which round-trips through `Violation::parse`).
    seen: BTreeSet<String>,
    /// Scratch: the hops the current event's walks left or took, and what
    /// the walks found.
    touched: Vec<(NodeId, NodeId)>,
    found: Vec<Violation>,
}

impl Checker {
    pub(crate) fn new(topo: &Topology) -> Self {
        Checker {
            flows: Vec::new(),
            loads: ArcMap::new(topo, |_| 0),
            dirty: Vec::new(),
            seen: BTreeSet::new(),
            touched: Vec::new(),
            found: Vec::new(),
        }
    }

    fn position(&self, flow: FlowId) -> Result<usize, usize> {
        self.flows.binary_search_by_key(&flow, |f| f.0)
    }

    pub(crate) fn knows(&self, flow: FlowId) -> bool {
        self.position(flow).is_ok()
    }

    /// The checked flows, ascending by id.
    pub(crate) fn flows(&self) -> impl Iterator<Item = (FlowId, FlowSpec)> + '_ {
        self.flows.iter().map(|&(flow, spec, _)| (flow, spec))
    }

    /// Check `flow` as `spec` from the next event on.
    pub(crate) fn register(&mut self, flow: FlowId, spec: FlowSpec) {
        let walk = vec![spec.ingress];
        match self.position(flow) {
            Ok(at) => {
                let (_, old, last) = &mut self.flows[at];
                let size = units(old.size);
                charge(
                    &mut self.loads,
                    last,
                    size,
                    false,
                    &mut self.touched,
                    &mut self.found,
                );
                (*old, *last) = (spec, walk);
            }
            Err(at) => self.flows.insert(at, (flow, spec, walk)),
        }
        self.dirty.push((flow, 0));
    }

    /// Take the flows whose rule flipped at `node` from its UIB: walk again
    /// those whose last walk visited it, from there on.
    pub(crate) fn flipped(&mut self, node: NodeId, uib: &mut Uib) {
        for flow in uib.drain_flips() {
            if let Ok(at) = self.position(flow) {
                if let Some(from) = self.flows[at].2.iter().position(|&n| n == node) {
                    self.dirty.push((flow, from));
                }
            }
        }
    }

    /// Walk the flows marked since the last call and compare the arcs they
    /// left or took, appending each violation not recorded before to `out`
    /// at `now`: flow violations in flow order, then overloads in arc
    /// order, as the from-scratch test oracle reports them.
    pub(crate) fn recheck(
        &mut self,
        now: SimTime,
        topo: &Topology,
        switches: &SwitchTable,
        out: &mut Vec<(SimTime, Violation)>,
    ) {
        if self.dirty.is_empty() {
            return;
        }
        let Checker {
            flows,
            loads,
            dirty,
            seen,
            touched,
            found,
        } = self;
        let mut record = |v: Violation| {
            if seen.insert(v.to_string()) {
                out.push((now, v));
            }
        };
        // Sorted, the first mark of a flow is its earliest position.
        dirty.sort_unstable();
        dirty.dedup_by_key(|&mut (flow, _)| flow);
        for (flow, from) in dirty.drain(..) {
            let at = flows.binary_search_by_key(&flow, |f| f.0);
            let (_, spec, walk) = &mut flows[at.expect("a dirty flow is registered")];
            let size = units(spec.size);
            charge(loads, &walk[from..], size, false, touched, found);
            let uib = |n| switches.get(n).map(|sw| &sw.state.uib);
            walk_flow(flow, uib, walk, from, found);
            charge(loads, &walk[from..], size, true, touched, found);
            found.drain(..).for_each(&mut record);
        }
        touched.sort_unstable();
        touched.dedup();
        for (from, to) in touched.drain(..) {
            let link = topo
                .link_between(from, to)
                .expect("a touched hop is a link");
            let load = *loads.get(from, to).expect("a link has a load");
            let capacity = topo.link(link).capacity;
            if load > units(capacity) {
                record(overload(from, to, load, capacity));
            }
        }
    }
}

/// The from-scratch check the incremental [`Checker`] is held to: every
/// flow walked, every load summed anew.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// Every violation of the current state: flow violations in flow
    /// order, then overloaded links in arc order.
    pub(crate) fn check<'a>(
        topo: &Topology,
        uib: impl Fn(NodeId) -> Option<&'a Uib> + Copy,
        flows: &[(FlowId, FlowSpec)],
    ) -> Vec<Violation> {
        let (mut found, mut hops) = (Vec::new(), Vec::new());
        for &(flow, spec) in flows {
            let mut walk = vec![spec.ingress];
            walk_flow(flow, uib, &mut walk, 0, &mut found);
            for hop in walk.windows(2) {
                let (from, to, load) = (hop[0], hop[1], units(spec.size));
                match topo.link_between(from, to) {
                    Some(link) => hops.push(((from, to), load, topo.link(link).capacity)),
                    None => found.push(overload(from, to, load, 0.0)),
                }
            }
        }
        hops.sort_unstable_by_key(|&(arc, _, _)| arc);
        for link in hops.chunk_by(|a, b| a.0 == b.0) {
            let ((from, to), _, capacity) = link[0];
            let load = link
                .iter()
                .fold(0u32, |sum, &(_, l, _)| sum.wrapping_add(l));
            if load > units(capacity) {
                found.push(overload(from, to, load, capacity));
            }
        }
        found
    }

    /// What a run records: each violation once, at the first event that
    /// shows it. The world's own record must equal this after every event.
    #[derive(Default)]
    pub(crate) struct Record(pub(crate) Vec<(SimTime, Violation)>);

    impl Record {
        pub(crate) fn after_event(&mut self, now: SimTime, current: Vec<Violation>) {
            for v in current {
                if !self.0.iter().any(|(_, seen)| *seen == v) {
                    self.0.push((now, v));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SwitchImpl;
    use p4update_core::P4UpdateLogic;
    use p4update_des::SimDuration;
    use p4update_net::{TopologyBuilder, Version};

    fn ring4() -> Topology {
        let mut b = TopologyBuilder::new("ring");
        let v: Vec<_> = (0..4).map(|i| b.add_node(format!("n{i}"))).collect();
        b.add_link(v[0], v[1], SimDuration::from_millis(1), 2.0);
        b.add_link(v[1], v[2], SimDuration::from_millis(1), 2.0);
        b.add_link(v[2], v[3], SimDuration::from_millis(1), 2.0);
        b.add_link(v[3], v[1], SimDuration::from_millis(1), 2.0);
        // A chord, so a walk from 0 can enter the ring (1 2 3) at 3 too.
        b.add_link(v[0], v[3], SimDuration::from_millis(1), 2.0);
        b.build()
    }

    fn network(topo: &Topology) -> SwitchTable {
        SwitchTable::build(topo, || SwitchImpl::P4(P4UpdateLogic::new()))
    }

    fn set_rule(switches: &mut SwitchTable, node: u32, flow: u32, next: Option<u32>) {
        switches[NodeId(node)].state.uib.update(FlowId(flow), |e| {
            e.applied_version = Version(1);
            e.active_next_hop = next.map(NodeId).into();
        });
    }

    fn spec(ingress: u32, size: f64) -> FlowSpec {
        FlowSpec {
            ingress: NodeId(ingress),
            size,
        }
    }

    /// The incremental checker after one event at time zero that flipped
    /// every rule `sw` holds, and the oracle on the same state: they must
    /// agree, and the checker's list is returned.
    fn check(topo: &Topology, sw: &mut SwitchTable, flows: &[(u32, FlowSpec)]) -> Vec<Violation> {
        let flows: Vec<_> = flows.iter().map(|&(f, s)| (FlowId(f), s)).collect();
        let mut checker = Checker::new(topo);
        for &(flow, spec) in &flows {
            checker.register(flow, spec);
        }
        let mut out = Vec::new();
        checker.recheck(SimTime::ZERO, topo, sw, &mut out);
        let uib = |n| sw.get(n).map(|s| &s.state.uib);
        let want = oracle::check(topo, uib, &flows);
        let got: Vec<Violation> = out.into_iter().map(|(_, v)| v).collect();
        assert_eq!(got, want);
        got
    }

    #[test]
    fn clean_path_has_no_violations() {
        let topo = ring4();
        let mut sw = network(&topo);
        set_rule(&mut sw, 0, 0, Some(1));
        set_rule(&mut sw, 1, 0, Some(2));
        set_rule(&mut sw, 2, 0, None);
        assert!(check(&topo, &mut sw, &[(0, spec(0, 1.0))]).is_empty());
    }

    #[test]
    fn undeployed_flow_is_skipped() {
        let topo = ring4();
        let mut sw = network(&topo);
        assert!(check(&topo, &mut sw, &[(0, spec(0, 1.0))]).is_empty());
    }

    #[test]
    fn loop_is_detected_with_cycle_nodes() {
        let topo = ring4();
        let mut sw = network(&topo);
        // 0 -> 1 -> 2 -> 3 -> 1: cycle (1 2 3).
        set_rule(&mut sw, 0, 0, Some(1));
        set_rule(&mut sw, 1, 0, Some(2));
        set_rule(&mut sw, 2, 0, Some(3));
        set_rule(&mut sw, 3, 0, Some(1));
        let v = check(&topo, &mut sw, &[(0, spec(0, 1.0))]);
        assert_eq!(v.len(), 1);
        match &v[0] {
            Violation::Loop { flow, cycle } => {
                assert_eq!(*flow, FlowId(0));
                assert_eq!(cycle, &[NodeId(1), NodeId(2), NodeId(3)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The same loop entered at a different node is the same violation
    /// (the simulator records each distinct violation once).
    #[test]
    fn a_loop_entered_at_different_nodes_is_one_violation() {
        let topo = ring4();
        let loop_entered_at = |entry: u32| {
            let mut sw = network(&topo);
            set_rule(&mut sw, 0, 0, Some(entry));
            set_rule(&mut sw, 1, 0, Some(2));
            set_rule(&mut sw, 2, 0, Some(3));
            set_rule(&mut sw, 3, 0, Some(1));
            check(&topo, &mut sw, &[(0, spec(0, 1.0))])
        };
        let cycle = vec![NodeId(1), NodeId(2), NodeId(3)];
        let expected = vec![Violation::Loop {
            flow: FlowId(0),
            cycle,
        }];
        assert_eq!(loop_entered_at(1), expected);
        assert_eq!(loop_entered_at(3), expected);
    }

    #[test]
    fn blackhole_is_detected_mid_path() {
        let topo = ring4();
        let mut sw = network(&topo);
        set_rule(&mut sw, 0, 0, Some(1)); // 1 has no rule
        let v = check(&topo, &mut sw, &[(0, spec(0, 1.0))]);
        assert_eq!(
            v,
            vec![Violation::Blackhole {
                flow: FlowId(0),
                at: NodeId(1)
            }]
        );
    }

    #[test]
    fn congestion_is_detected_per_directed_link() {
        let topo = ring4();
        let mut sw = network(&topo);
        // Two flows of size 1.5 on link (0,1) with capacity 2.0.
        for f in 0..2 {
            set_rule(&mut sw, 0, f, Some(1));
            set_rule(&mut sw, 1, f, None);
        }
        let v = check(&topo, &mut sw, &[(0, spec(0, 1.5)), (1, spec(0, 1.5))]);
        assert_eq!(v.len(), 1);
        match &v[0] {
            Violation::Congestion {
                from,
                to,
                load,
                capacity,
            } => {
                assert_eq!((*from, *to), (NodeId(0), NodeId(1)));
                assert_eq!(*load, 3.0);
                assert_eq!(*capacity, 2.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn opposite_directions_do_not_share_capacity() {
        let topo = ring4();
        let mut sw = network(&topo);
        // Flow 0: 0->1; flow 1: 1->0. Each 1.5 on a 2.0 link: fine
        // full-duplex.
        set_rule(&mut sw, 0, 0, Some(1));
        set_rule(&mut sw, 1, 0, None);
        set_rule(&mut sw, 1, 1, Some(0));
        set_rule(&mut sw, 0, 1, None);
        assert!(check(&topo, &mut sw, &[(0, spec(0, 1.5)), (1, spec(1, 1.5))]).is_empty());
    }

    /// A next hop that names no link (0 -> 2) is a hop of capacity 0: the
    /// flow overloads it by itself, and the walk goes on from there.
    #[test]
    fn a_hop_that_names_no_link_is_an_overload() {
        let topo = ring4();
        let mut sw = network(&topo);
        set_rule(&mut sw, 0, 0, Some(2));
        set_rule(&mut sw, 2, 0, None);
        let v = check(&topo, &mut sw, &[(0, spec(0, 1.5))]);
        let overload = Violation::Congestion {
            from: NodeId(0),
            to: NodeId(2),
            load: 1.5,
            capacity: 0.0,
        };
        assert_eq!(v, vec![overload]);
    }

    /// Only a flip on a flow's walk makes the checker walk it again, and a
    /// walk that leaves a link gives its load back exactly.
    #[test]
    fn a_flip_off_the_walk_is_not_walked_and_a_move_gives_its_load_back() {
        let topo = ring4();
        let mut sw = network(&topo);
        // Flow 0 (1.5) takes 0 -> 1; flow 1 (1.5) is undeployed.
        set_rule(&mut sw, 0, 0, Some(1));
        set_rule(&mut sw, 1, 0, None);
        let mut checker = Checker::new(&topo);
        checker.register(FlowId(0), spec(0, 1.5));
        checker.register(FlowId(1), spec(0, 1.5));
        let mut out = Vec::new();
        checker.recheck(SimTime::ZERO, &topo, &sw, &mut out);
        assert!(out.is_empty());
        for node in [0, 1] {
            sw[NodeId(node)].state.uib.drain_flips(); // seen by `register`
        }
        // A flip at 2, on no walk, marks nothing.
        sw[NodeId(2)]
            .state
            .uib
            .update(FlowId(0), |e| e.active_next_hop = None.into());
        sw[NodeId(2)]
            .state
            .uib
            .update(FlowId(1), |e| e.applied_version = Version(1));
        checker.flipped(NodeId(2), &mut sw[NodeId(2)].state.uib);
        assert!(checker.dirty.is_empty());
        // Flow 0 moves to 0 -> 3: (0, 1) is empty again.
        set_rule(&mut sw, 0, 0, Some(3));
        set_rule(&mut sw, 3, 0, None);
        checker.flipped(NodeId(0), &mut sw[NodeId(0)].state.uib);
        assert_eq!(checker.dirty, [(FlowId(0), 0)]);
        checker.recheck(SimTime::ZERO, &topo, &sw, &mut out);
        assert_eq!(checker.loads.get(NodeId(0), NodeId(1)), Some(&0));
        assert_eq!(checker.loads.get(NodeId(0), NodeId(3)), Some(&units(1.5)));
        assert!(out.is_empty());
    }
}
