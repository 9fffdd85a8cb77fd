//! The evaluation's workload scenarios (§9.1):
//!
//! - **single flow**: old and new paths intentionally long and triggering
//!   segmentation, sufficient capacity everywhere;
//! - **multiple flows**: each node picks a destination uniformly at random,
//!   old = shortest path, new = 2nd-shortest path, gravity-model sizes
//!   aiming near capacity, regenerated until the new assignment is
//!   feasible.

use crate::gravity::TrafficMatrix;
use p4update_des::SimRng;
use p4update_net::{
    segment_update, ArcMap, FlowId, FlowUpdate, NodeId, Path, PathSolver, Topology, CAPACITY_SLACK,
};

/// A generated workload: per-flow updates plus the capacity view after the
/// *old* paths are allocated (the state an experiment starts from).
#[derive(Debug, Clone)]
pub struct Workload {
    /// One update per flow.
    pub updates: Vec<FlowUpdate>,
    /// Free capacity per directed link once every old path is allocated.
    pub free_capacity: ArcMap<f64>,
}

/// Free capacity per directed link once every update's path — picked by
/// `path_of`; an update without one is skipped — carries the update's
/// size; `None` if any link overflows.
fn free_capacity_after(
    topo: &Topology,
    updates: &[FlowUpdate],
    path_of: impl Fn(&FlowUpdate) -> Option<&Path>,
) -> Option<ArcMap<f64>> {
    let mut free = ArcMap::new(topo, |link| link.capacity);
    for u in updates {
        for (a, b) in path_of(u).into_iter().flat_map(Path::edges) {
            let c = free.get_mut(a, b).expect("path edges are links");
            *c -= u.size;
            if *c < -CAPACITY_SLACK {
                return None;
            }
        }
    }
    Some(free)
}

/// Concatenate path legs, dropping the duplicated junction nodes; `None`
/// when the result revisits a node (not simple).
fn join_legs(legs: &[&Path]) -> Option<Path> {
    let mut nodes: Vec<NodeId> = Vec::new();
    for (i, leg) in legs.iter().enumerate() {
        let start = usize::from(i > 0);
        for &n in &leg.nodes()[start..] {
            if nodes.contains(&n) {
                return None;
            }
            nodes.push(n);
        }
    }
    (nodes.len() >= 2).then(|| Path::new(nodes))
}

/// The single-flow scenario. The paper intentionally selects old and new
/// paths that "traverse a long distance within the topology and ... trigger
/// segmentation" (§9.1) — i.e., a Fig. 1-shaped pair: the old path visits
/// intermediate waypoints `x` then `y`; the new path visits `y` then `x`
/// through fresh detours, producing forward segments plus one backward
/// segment with freshly-installed interior nodes. This constructor searches
/// all `(a, x, y, b)` waypoint combinations for the pair maximizing the
/// backward segment's interior, then total length.
pub fn single_flow(topo: &Topology) -> FlowUpdate {
    let nodes: Vec<NodeId> = topo.node_ids().collect();
    let mut solver = PathSolver::new(topo);
    let mut best: Option<((usize, usize, usize), FlowUpdate)> = None;
    for &a in &nodes {
        for &b in &nodes {
            if a == b {
                continue;
            }
            for &x in &nodes {
                if x == a || x == b {
                    continue;
                }
                for &y in &nodes {
                    if y == a || y == b || y == x {
                        continue;
                    }
                    // Old path: a -> x -> y -> b along shortest legs.
                    let Some(l1) = solver.shortest_path_avoiding(a, x, &[y, b]) else {
                        continue;
                    };
                    let Some(l2) = solver.shortest_path_avoiding(x, y, &[a, b]) else {
                        continue;
                    };
                    let Some(l3) = solver.shortest_path_avoiding(y, b, &[a, x]) else {
                        continue;
                    };
                    let Some(old) = join_legs(&[&l1, &l2, &l3]) else {
                        continue;
                    };
                    // New path: a -> y -> x -> b avoiding the old path's
                    // interior nodes, so the detours are fresh installs.
                    let interior: Vec<NodeId> = old
                        .nodes()
                        .iter()
                        .copied()
                        .filter(|&n| n != a && n != b && n != x && n != y)
                        .collect();
                    // Only the backward (y -> x) leg must be fresh; the
                    // other legs may reuse old-path nodes (they become
                    // extra gateways, splitting forward segments).
                    let ban_ay = [x, b];
                    let Some(n1) = solver.shortest_path_avoiding(a, y, &ban_ay) else {
                        continue;
                    };
                    let mut ban_yx: Vec<NodeId> = interior.clone();
                    ban_yx.extend(n1.nodes().iter().copied().filter(|&n| n != y));
                    ban_yx.push(b);
                    let Some(n2) = solver.shortest_path_avoiding(y, x, &ban_yx) else {
                        continue;
                    };
                    let mut ban_xb: Vec<NodeId> = Vec::new();
                    ban_xb.extend(n1.nodes().iter().copied().filter(|&n| n != x));
                    ban_xb.extend(n2.nodes().iter().copied().filter(|&n| n != x));
                    let Some(n3) = solver.shortest_path_avoiding(x, b, &ban_xb) else {
                        continue;
                    };
                    let Some(new) = join_legs(&[&n1, &n2, &n3]) else {
                        continue;
                    };
                    // Scored by its backward segments (§3.2): first the
                    // fresh interior nodes inside them — the rules the
                    // dual-layer mechanism can pre-install while such a
                    // segment waits for its loop dependency, the paper's
                    // headline parallelization gain (§10) — then how many
                    // there are, then length.
                    let hops = old.hop_count() + new.hop_count();
                    let update = FlowUpdate::new(FlowId(0), Some(old), new, 1.0);
                    let seg = segment_update(&update);
                    let backward = seg.backward_count();
                    if backward == 0 {
                        continue;
                    }
                    let fresh: usize = seg.backward().map(|s| s.interior.len()).sum();
                    let score = (fresh.min(4), backward.min(3), hops);
                    if best.as_ref().is_none_or(|(s, _)| score > *s) {
                        best = Some((score, update));
                    }
                }
            }
        }
    }
    if let Some((_, update)) = best {
        return update;
    }
    // Fallback: longest shortest/2nd-shortest pair.
    let mut fallback: Option<(usize, Path, Path)> = None;
    for &src in &nodes {
        for &dst in &nodes {
            if src >= dst {
                continue;
            }
            let paths = solver.k_shortest(src, dst, 2);
            if paths.len() < 2 {
                continue;
            }
            let score = paths[0].hop_count() + paths[1].hop_count();
            if fallback.as_ref().is_none_or(|(s, _, _)| score > *s) {
                fallback = Some((score, paths[0].clone(), paths[1].clone()));
            }
        }
    }
    let (_, old, new) = fallback.expect("topology has at least one 2-path pair");
    FlowUpdate::new(FlowId(0), Some(old), new, 1.0)
}

/// What [`multi_flow`] (and the loop it replaced, in the tests) did on this
/// thread, so that the work is pinned as counts: an attempt thrown away
/// after its searches, or searches run for an attempt that a draw had
/// already doomed, shows as a number and not as a slow benchmark.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Work {
    /// Attempts begun.
    attempts: usize,
    /// Traffic matrices scaled to their total demand.
    pub(crate) scaled: usize,
    /// Attempts given up at a drawn pair that has one simple path.
    one_path: usize,
    /// Attempts whose old paths overflow a link.
    old_infeasible: usize,
    /// Attempts whose old paths fit and whose new paths overflow a link.
    new_infeasible: usize,
    /// Pairs searched.
    queries: usize,
}

#[cfg(test)]
thread_local! {
    static WORK: std::cell::Cell<Work> = std::cell::Cell::new(Work::default());
}

#[cfg(test)]
pub(crate) fn count(add: impl FnOnce(&mut Work)) {
    let mut work = WORK.get();
    add(&mut work);
    WORK.set(work);
}

/// The multiple-flows scenario: every node picks a distinct destination
/// uniformly at random; old = shortest path, new = 2nd-shortest; sizes
/// from a gravity matrix scaled to `load_factor` of the mean link
/// capacity times the link count (i.e., near capacity at 0.3–0.5 for the
/// evaluated WANs). Regenerates until old and new assignments are both
/// feasible.
///
/// # Panics
/// After 200 attempts without a feasible workload.
pub fn multi_flow(topo: &Topology, rng: &mut SimRng, load_factor: f64) -> Workload {
    try_multi_flow(topo, rng, load_factor).unwrap_or_else(|| {
        panic!(
            "could not generate a feasible workload for {} at load {load_factor}",
            topo.name
        )
    })
}

/// [`multi_flow`], or `None` once the 200 attempts are spent.
///
/// An attempt is decided before it is searched. A pair with fewer than two
/// simple paths voids the whole attempt, and whether a pair has two is
/// read off [`Topology::bridge_classes`], not searched for; so the draws
/// come first — the stream steps past the words of the gravity masses,
/// then one destination per node is drawn in node order, stopping at the
/// first pair with one path — and the masses are computed (from a copy of
/// the stream taken before their words), the matrix scaled and the
/// attempt's pairs searched, as one batch, only for an attempt none of
/// whose pairs can fail. None of that draws from the stream, so it is
/// consumed exactly as if each pair had been searched as it was drawn.
///
/// # Panics
/// On a topology of fewer than two nodes, where no pair can be drawn.
fn try_multi_flow(topo: &Topology, rng: &mut SimRng, load_factor: f64) -> Option<Workload> {
    let nodes: Vec<NodeId> = topo.node_ids().collect();
    let n = nodes.len();
    assert!(n >= 2, "{}: multi_flow needs at least two nodes", topo.name);
    let total_capacity: f64 = topo.links().iter().map(|l| l.capacity).sum();
    let target_total = total_capacity * load_factor;
    let mut solver = PathSolver::new(topo);
    let classes = topo.bridge_classes();
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::with_capacity(n);

    'attempt: for _attempt in 0..200 {
        #[cfg(test)]
        count(|w| w.attempts += 1);
        let mut masses_at = rng.clone();
        TrafficMatrix::skip_draw(rng, n);
        pairs.clear();
        for &src in &nodes {
            // Uniformly random destination other than the source.
            let mut dst = nodes[rng.uniform_usize(n)];
            while dst == src {
                dst = nodes[rng.uniform_usize(n)];
            }
            if !classes.two_paths(src, dst) {
                #[cfg(test)]
                count(|w| w.one_path += 1);
                continue 'attempt;
            }
            pairs.push((src, dst));
        }
        let tm = TrafficMatrix::draw(&mut masses_at, n).scaled_to(target_total);
        #[cfg(test)]
        count(|w| w.queries += n);
        let answers = solver.k_shortest_batch(&pairs, 2);
        let mut updates = Vec::with_capacity(n);
        for (i, (&(src, dst), paths)) in pairs.iter().zip(answers).enumerate() {
            // Enforced in release too: skipping the pair instead would
            // move the stream against its specification.
            let Ok([old, new]) = <[Path; 2]>::try_from(paths) else {
                panic!(
                    "{}: two_paths({src}, {dst}) holds, the search disagrees",
                    topo.name
                );
            };
            let size = tm
                .demand(src, dst)
                .max(target_total / (n as f64 * n as f64));
            updates.push(FlowUpdate::new(FlowId(i as u32), Some(old), new, size));
        }
        // Feasible before the migration and after it, or generate again.
        let Some(free) = free_capacity_after(topo, &updates, |u| u.old_path.as_ref()) else {
            #[cfg(test)]
            count(|w| w.old_infeasible += 1);
            continue;
        };
        if free_capacity_after(topo, &updates, |u| Some(&u.new_path)).is_none() {
            #[cfg(test)]
            count(|w| w.new_infeasible += 1);
            continue;
        }
        return Some(Workload {
            updates,
            free_capacity: free,
        });
    }
    None
}

/// The deterministic scale workload for `seed`: one update per switch at
/// load factor 0.55 (§9.1's near-capacity multi-flow setting), plus the
/// post-allocation free capacity the congestion-aware controllers need.
pub fn bench_workload(topo: &Topology, seed: u64) -> Workload {
    multi_flow(topo, &mut SimRng::new(seed), 0.55)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4update_des::propcheck::{cases, forall};
    use p4update_net::topologies;

    /// `try_multi_flow` as it stood while an attempt was searched as it was
    /// drawn and free capacity was a map keyed by node pairs, kept verbatim
    /// (plus the counters, and `None` where `multi_flow` panics) as the
    /// reference the draw-decide-search order and the dense capacity view
    /// are compared against.
    mod oracle {
        use super::*;
        use std::collections::BTreeMap;

        /// The oracle's workload: the updates, and the free capacity per
        /// directed link in the map's key order.
        pub struct Generated {
            pub updates: Vec<FlowUpdate>,
            pub free_capacity: Vec<((NodeId, NodeId), f64)>,
        }

        /// Free capacity per directed link, two map inserts per link.
        fn free_capacity_after(
            topo: &Topology,
            updates: &[FlowUpdate],
            path_of: impl Fn(&FlowUpdate) -> Option<&Path>,
        ) -> Option<Vec<((NodeId, NodeId), f64)>> {
            let mut free = BTreeMap::new();
            for link in topo.links() {
                free.insert((link.a, link.b), link.capacity);
                free.insert((link.b, link.a), link.capacity);
            }
            for u in updates {
                for e in path_of(u).into_iter().flat_map(Path::edges) {
                    let c = free.get_mut(&e).expect("path edges are links");
                    *c -= u.size;
                    if *c < -CAPACITY_SLACK {
                        return None;
                    }
                }
            }
            Some(free.into_iter().collect())
        }

        pub fn try_multi_flow(
            topo: &Topology,
            rng: &mut SimRng,
            load_factor: f64,
        ) -> Option<Generated> {
            let nodes: Vec<NodeId> = topo.node_ids().collect();
            let n = nodes.len();
            let total_capacity: f64 = topo.links().iter().map(|l| l.capacity).sum();
            let target_total = total_capacity * load_factor;
            let mut solver = PathSolver::new(topo);

            for _attempt in 0..200 {
                count(|w| w.attempts += 1);
                let tm = TrafficMatrix::gravity(rng, n, target_total);
                let mut updates = Vec::new();
                let mut ok = true;
                for (i, &src) in nodes.iter().enumerate() {
                    // Uniformly random destination other than the source.
                    let mut dst = nodes[rng.uniform_usize(n)];
                    while dst == src {
                        dst = nodes[rng.uniform_usize(n)];
                    }
                    count(|w| w.queries += 1);
                    let paths = solver.k_shortest(src, dst, 2);
                    if paths.len() < 2 {
                        ok = false;
                        break;
                    }
                    let size = tm
                        .demand(src, dst)
                        .max(target_total / (n as f64 * n as f64));
                    updates.push(FlowUpdate::new(
                        FlowId(i as u32),
                        Some(paths[0].clone()),
                        paths[1].clone(),
                        size,
                    ));
                }
                if !ok {
                    continue;
                }
                // Feasible before the migration and after it, or generate again.
                if let Some(free) = free_capacity_after(topo, &updates, |u| u.old_path.as_ref()) {
                    if free_capacity_after(topo, &updates, |u| Some(&u.new_path)).is_some() {
                        return Some(Generated {
                            updates,
                            free_capacity: free,
                        });
                    }
                }
            }
            None
        }
    }

    /// Both generators on the same seed: the same workload bit for bit —
    /// the dense free capacity equal to the oracle's map arc by arc, in its
    /// key order — and the stream left at the same word, or neither finds
    /// one.
    fn assert_agrees_with_the_oracle(topo: &Topology, seed: u64, load_factor: f64) {
        let (mut rng, mut oracle_rng) = (SimRng::new(seed), SimRng::new(seed));
        let got = try_multi_flow(topo, &mut rng, load_factor);
        let expected = oracle::try_multi_flow(topo, &mut oracle_rng, load_factor);
        let what = format!("{} seed {seed} load {load_factor}", topo.name);
        assert_eq!(got.is_some(), expected.is_some(), "{what}");
        if let (Some(got), Some(expected)) = (got, expected) {
            assert_eq!(got.updates, expected.updates, "{what}");
            let dense: Vec<_> = got
                .free_capacity
                .iter()
                .map(|(e, c)| (e, c.to_bits()))
                .collect();
            let map: Vec<_> = expected
                .free_capacity
                .iter()
                .map(|&(e, c)| (e, c.to_bits()))
                .collect();
            assert_eq!(dense, map, "{what}");
        }
        assert_eq!(rng.next_u64(), oracle_rng.next_u64(), "{what}: next word");
    }

    #[test]
    fn multi_flow_agrees_with_the_oracle_on_the_wan_topologies() {
        for topo in [
            topologies::b4(),
            topologies::internet2(),
            topologies::att_mpls(),
            topologies::chinanet(),
            topologies::fat_tree(4),
        ] {
            for seed in 1..=u64::from(cases(64)) {
                assert_agrees_with_the_oracle(&topo, seed, 0.55);
            }
        }
    }

    #[test]
    fn multi_flow_agrees_with_the_oracle_on_random_graphs() {
        // At this load no link ever overflows: only the pair check decides
        // an attempt. With as many links again as nodes on top of the
        // spanning tree one case in twelve meets a one-path pair; with
        // fewer most do, and the sparsest spend all 200 attempts on both
        // sides.
        forall("multi_flow_vs_oracle", cases(42), |rng| {
            let n = 4 + rng.uniform_usize(21);
            let extra = if rng.chance(0.5) {
                n
            } else {
                rng.uniform_usize(n)
            };
            let topo = topologies::random_connected(rng, n, extra);
            assert_agrees_with_the_oracle(&topo, rng.next_u64(), 0.05);
        });
    }

    /// `Work` done by `generate` over seeds 1..=200 at load 0.55, the
    /// cells `wan-sweep` runs.
    fn work_over_the_sweep<T>(
        topo: &Topology,
        generate: fn(&Topology, &mut SimRng, f64) -> Option<T>,
    ) -> Work {
        WORK.set(Work::default());
        for seed in 1..=200 {
            assert!(generate(topo, &mut SimRng::new(seed), 0.55).is_some());
        }
        WORK.get()
    }

    #[test]
    fn an_attempt_is_searched_only_once_its_pairs_are_decided() {
        // Deterministic counts, pinned so a lost pre-check shows as a
        // number and not as a slow benchmark. Every searched attempt costs
        // one scaled matrix and one query per node; the oracle scales every
        // matrix and also pays for the searches before the pair that voids
        // an attempt.
        let pinned = [
            // (topology, attempts, one-path, old-, new-infeasible, oracle queries)
            (topologies::chinanet(), 2_627, 2_424, 3, 0, 34_447),
            (topologies::att_mpls(), 447, 232, 13, 2, 9_084),
            (topologies::b4(), 219, 0, 14, 5, 2_628),
            (topologies::internet2(), 203, 0, 1, 2, 3_248),
            (topologies::fat_tree(4), 201, 0, 0, 1, 4_020),
        ];
        for (topo, attempts, one_path, old_infeasible, new_infeasible, oracle_queries) in pinned {
            let work = work_over_the_sweep(&topo, try_multi_flow);
            let expected = Work {
                attempts,
                scaled: attempts - one_path,
                one_path,
                old_infeasible,
                new_infeasible,
                queries: (attempts - one_path) * topo.node_count(),
            };
            assert_eq!(work, expected, "{}", topo.name);
            assert_eq!(
                attempts - one_path - old_infeasible - new_infeasible,
                200,
                "{}",
                topo.name
            );
            let oracle = work_over_the_sweep(&topo, oracle::try_multi_flow);
            assert_eq!(
                (oracle.attempts, oracle.scaled, oracle.queries),
                (attempts, attempts, oracle_queries),
                "{}: oracle",
                topo.name
            );
        }
    }

    /// No pair can be drawn on one node: the draw loop would never find a
    /// destination, so the generator refuses up front.
    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn multi_flow_needs_two_nodes() {
        let mut b = p4update_net::TopologyBuilder::new("one-node");
        b.add_node("n0");
        multi_flow(&b.build(), &mut SimRng::new(1), 0.55);
    }

    #[test]
    fn bench_workload_is_deterministic_and_covers_every_switch() {
        let topo = topologies::fig1();
        let a = bench_workload(&topo, 7);
        let b = bench_workload(&topo, 7);
        assert_eq!(a.updates.len(), topo.node_count());
        assert_eq!(
            a.updates.iter().map(|u| u.flow).collect::<Vec<_>>(),
            b.updates.iter().map(|u| u.flow).collect::<Vec<_>>()
        );
        assert!(a.free_capacity.iter().eq(b.free_capacity.iter()));
    }

    #[test]
    fn bench_workload_generates_on_the_synthetic_fat_trees() {
        let topo = topologies::synthetic_fat_tree_64();
        let w = bench_workload(&topo, 1);
        assert_eq!(w.updates.len(), 64);
        assert!(w.updates.iter().all(|u| u.old_path.is_some()));
    }

    #[test]
    fn single_flow_triggers_segmentation_on_b4() {
        let topo = topologies::b4();
        let u = single_flow(&topo);
        let old = u.old_path.as_ref().expect("has old path");
        assert!(old.hop_count() >= 2);
        assert!(u.new_path.hop_count() >= 2);
        assert_ne!(old, &u.new_path);
        assert!(old.validate(&topo));
        assert!(u.new_path.validate(&topo));
    }

    #[test]
    fn single_flow_is_deterministic() {
        let topo = topologies::internet2();
        let a = single_flow(&topo);
        let b = single_flow(&topo);
        assert_eq!(a.new_path, b.new_path);
        assert_eq!(a.old_path, b.old_path);
    }

    #[test]
    fn multi_flow_generates_one_update_per_node() {
        let topo = topologies::b4();
        let mut rng = SimRng::new(11);
        let w = multi_flow(&topo, &mut rng, 0.3);
        assert_eq!(w.updates.len(), topo.node_count());
        for u in &w.updates {
            assert!(u.old_path.as_ref().unwrap().validate(&topo));
            assert!(u.new_path.validate(&topo));
            assert!(u.size > 0.0);
            assert_eq!(u.old_path.as_ref().unwrap().ingress(), u.new_path.ingress());
        }
    }

    #[test]
    fn multi_flow_old_allocation_fits_capacity() {
        let topo = topologies::internet2();
        let mut rng = SimRng::new(5);
        let w = multi_flow(&topo, &mut rng, 0.3);
        for (_, &free) in w.free_capacity.iter() {
            assert!(free >= -1e-9, "over-allocated link: {free}");
        }
    }

    #[test]
    fn multi_flow_new_assignment_is_feasible() {
        let topo = topologies::b4();
        let mut rng = SimRng::new(9);
        let w = multi_flow(&topo, &mut rng, 0.3);
        assert!(free_capacity_after(&topo, &w.updates, |u| Some(&u.new_path)).is_some());
    }

    #[test]
    fn fat_tree_multi_flow_works() {
        let topo = topologies::fat_tree(4);
        let mut rng = SimRng::new(13);
        let w = multi_flow(&topo, &mut rng, 0.2);
        assert_eq!(w.updates.len(), topo.node_count());
    }
}
