//! Which multi-flow workloads can be realized congestion-free at all.
//!
//! An *atomic order* moves one whole flow at a time from its old path to
//! its new one, every link within its capacity after each move. (While a
//! flow moves, a link carries the larger of its loads before and after the
//! move, so checking each state between moves checks the moves too.)
//! [`atomic_order`] finds one or reports that none exists.
//!
//! §7.4's claim (Corollaries 2 and 4) is that P4Update completes every
//! update a congestion-free order exists for. An atomic order is
//! sufficient for that, not necessary: a hop-by-hop system may complete
//! where no whole-flow order exists. So the check runs one way only: a
//! P4Update run (SL, DL or Auto) may strand a flow only in a cell that has
//! no atomic order. The cells are the benchmark's fault-free `wan-sweep`
//! cells (five topologies, seeds 1-200) and the workloads of Fig. 7's
//! three multi-flow panels, each run as the benchmark or the experiment
//! runs it.
//!
//! The sweep is ignored (a few seconds in release); `scripts/check.sh`
//! runs it unless `FAST=1`:
//! `cargo test --release --test optimal_oracle -- --ignored --nocapture`.

use p4update::core::Strategy;
use p4update::des::{SimDuration, SimRng, SimTime};
use p4update::net::{
    topologies, ArcMap, FlowId, FlowUpdate, NodeId, Path, Topology, TopologyBuilder, CAPACITY_SLACK,
};
use p4update::sim::{batch_simulation, NetworkSim, SimConfig, System, TimingConfig};
use p4update::traffic::{multi_flow, Workload};
use std::collections::HashSet;

/// Up to this many flows every state is searched; above it the search
/// stops at [`STEP_BUDGET`] states without a witness.
const EXHAUSTIVE_FLOWS: usize = 25;

/// States a search above [`EXHAUSTIVE_FLOWS`] may visit.
const STEP_BUDGET: usize = 1_000_000;

/// One flow's move, as the arcs it frees and the arcs it takes.
struct Move {
    flow: FlowId,
    size: f64,
    frees: Vec<(NodeId, NodeId)>,
    takes: Vec<(NodeId, NodeId)>,
}

impl Move {
    fn new(u: &FlowUpdate) -> Self {
        let old: Vec<_> = u.old_path.iter().flat_map(Path::edges).collect();
        let new: Vec<_> = u.new_path.edges().collect();
        Move {
            flow: u.flow,
            size: u.size,
            frees: old.iter().copied().filter(|e| !new.contains(e)).collect(),
            takes: new.iter().copied().filter(|e| !old.contains(e)).collect(),
        }
    }

    /// Whether the move fits on top of `load`.
    fn fits(&self, load: &ArcMap<f64>, cap: &ArcMap<f64>) -> bool {
        self.takes.iter().all(|&(a, b)| {
            load.get(a, b).expect("a path edge") + self.size
                <= cap.get(a, b).expect("a path edge") + CAPACITY_SLACK
        })
    }

    /// Apply the move to `load` (`sign` 1) or take it back (`sign` -1).
    fn apply(&self, load: &mut ArcMap<f64>, sign: f64) {
        for &(a, b) in &self.frees {
            *load.get_mut(a, b).expect("a path edge") -= sign * self.size;
        }
        for &(a, b) in &self.takes {
            *load.get_mut(a, b).expect("a path edge") += sign * self.size;
        }
    }
}

/// The load every old path puts on each arc.
fn old_load(topo: &Topology, updates: &[FlowUpdate]) -> ArcMap<f64> {
    let mut load = ArcMap::new(topo, |_| 0.0);
    for u in updates {
        for (a, b) in u.old_path.iter().flat_map(Path::edges) {
            *load.get_mut(a, b).expect("a path edge") += u.size;
        }
    }
    load
}

/// Whether `order` moves every flow of `workload` exactly once with no
/// arc ever over its capacity, starting from the old paths.
fn replays(topo: &Topology, workload: &Workload, order: &[FlowId]) -> bool {
    let cap = ArcMap::new(topo, |link| link.capacity);
    let within = |load: &ArcMap<f64>| {
        load.iter()
            .all(|((a, b), &l)| l <= cap.get(a, b).expect("an arc") + CAPACITY_SLACK)
    };
    let mut load = old_load(topo, &workload.updates);
    let mut left: Vec<FlowId> = workload.updates.iter().map(|u| u.flow).collect();
    if !within(&load) || order.len() != left.len() {
        return false;
    }
    for flow in order {
        let Some(i) = left.iter().position(|f| f == flow) else {
            return false;
        };
        left.swap_remove(i);
        let u = workload.updates.iter().find(|u| u.flow == *flow);
        Move::new(u.expect("a flow of the workload")).apply(&mut load, 1.0);
        if !within(&load) {
            return false;
        }
    }
    true
}

/// The states already searched, by the set of moved flows.
enum Seen {
    Every(Vec<u64>),
    Some(HashSet<u64>),
}

impl Seen {
    /// Record `state`; false if it was already there.
    fn insert(&mut self, state: u64) -> bool {
        match self {
            Seen::Every(bits) => {
                let (word, bit) = ((state / 64) as usize, 1 << (state % 64));
                let new = bits[word] & bit == 0;
                bits[word] |= bit;
                new
            }
            Seen::Some(set) => set.insert(state),
        }
    }
}

struct Search {
    moves: Vec<Move>,
    cap: ArcMap<f64>,
    load: ArcMap<f64>,
    seen: Seen,
    /// States left to visit; `None` searches them all.
    budget: Option<usize>,
}

impl Search {
    /// Depth first from `state` (the set of moved flows, `load` its load)
    /// to the state with every flow moved; on success `order` holds the
    /// moves, last first. A state that cannot reach the goal is recorded
    /// and never entered again, whatever order led there.
    fn from(&mut self, state: u64, order: &mut Vec<FlowId>) -> bool {
        if state.count_ones() as usize == self.moves.len() {
            return true;
        }
        for i in 0..self.moves.len() {
            let next = state | 1 << i;
            if next == state || !self.moves[i].fits(&self.load, &self.cap) {
                continue;
            }
            if !self.seen.insert(next) {
                continue;
            }
            if let Some(left) = &mut self.budget {
                if *left == 0 {
                    return false;
                }
                *left -= 1;
            }
            self.moves[i].apply(&mut self.load, 1.0);
            if self.from(next, order) {
                order.push(self.moves[i].flow);
                return true;
            }
            self.moves[i].apply(&mut self.load, -1.0);
        }
        false
    }
}

/// An atomic order for `workload` on `topo`, or `None`.
///
/// When every link can carry every flow's old and new path at once, any
/// order works and the workload's own order is returned without a search.
/// Otherwise the search is exhaustive up to 25 flows, so `None` there
/// means that no atomic order exists; above 25 it looks for a witness
/// within a budget of states, and `None` means none was found. Every
/// witness is replayed against the link capacities before it is returned.
fn atomic_order(topo: &Topology, workload: &Workload) -> Option<Vec<FlowId>> {
    let updates = &workload.updates;
    assert!(
        updates.len() <= 64,
        "a state is a 64-bit set of moved flows"
    );
    let cap = ArcMap::new(topo, |link| link.capacity);
    let mut both = old_load(topo, updates);
    for m in updates.iter().map(Move::new) {
        for &(a, b) in &m.takes {
            *both.get_mut(a, b).expect("a path edge") += m.size;
        }
    }
    let order = if both
        .iter()
        .all(|((a, b), &l)| l <= cap.get(a, b).expect("an arc") + CAPACITY_SLACK)
    {
        updates.iter().map(|u| u.flow).collect()
    } else {
        let exhaustive = updates.len() <= EXHAUSTIVE_FLOWS;
        let mut search = Search {
            moves: updates.iter().map(Move::new).collect(),
            cap,
            load: old_load(topo, updates),
            seen: if exhaustive {
                Seen::Every(vec![0; (1usize << updates.len()).div_ceil(64)])
            } else {
                Seen::Some(HashSet::new())
            },
            budget: (!exhaustive).then_some(STEP_BUDGET),
        };
        let mut order = Vec::new();
        if !search.from(0, &mut order) {
            return None;
        }
        order.reverse();
        order
    };
    assert!(
        replays(topo, workload, &order),
        "{}: the witness {order:?} overloads a link",
        topo.name
    );
    Some(order)
}

/// Unit flows with the given old and new paths on a graph of four nodes
/// and the given links, each of capacity `cap`.
fn instance(
    links: &[(usize, usize)],
    cap: f64,
    flows: &[(&[u32], &[u32])],
) -> (Topology, Workload) {
    let mut tb = TopologyBuilder::new("instance");
    let ids: Vec<NodeId> = (0..4).map(|i| tb.add_node(format!("v{i}"))).collect();
    for &(x, y) in links {
        tb.add_link(ids[x], ids[y], SimDuration::from_millis(1), cap);
    }
    let topo = tb.build();
    let path = |ids: &[u32]| Path::new(ids.iter().map(|&i| NodeId(i)).collect());
    let updates = (0..)
        .zip(flows)
        .map(|(i, (old, new))| FlowUpdate::new(FlowId(i), Some(path(old)), path(new), 1.0))
        .collect();
    let free_capacity = ArcMap::new(&topo, |link| link.capacity);
    let workload = Workload {
        updates,
        free_capacity,
    };
    (topo, workload)
}

/// The diamond `0 -> {1, 2} -> 3`.
const DIAMOND: [(usize, usize); 4] = [(0, 1), (1, 3), (0, 2), (2, 3)];

#[test]
fn a_swap_across_a_full_bottleneck_has_no_atomic_order() {
    let swap: &[(&[u32], &[u32])] = &[(&[0, 1, 3], &[0, 2, 3]), (&[0, 2, 3], &[0, 1, 3])];
    let (topo, workload) = instance(&DIAMOND, 1.0, swap);
    assert_eq!(atomic_order(&topo, &workload), None);
    // With room for both flows on one side, any order works.
    let (topo, workload) = instance(&DIAMOND, 2.0, swap);
    let order = atomic_order(&topo, &workload);
    assert_eq!(order, Some(vec![FlowId(0), FlowId(1)]));
}

#[test]
fn a_chain_of_moves_is_found_in_the_one_order_that_works() {
    // Flow 0 moves onto the side flow 1 leaves for the chord `0 -> 3`.
    let chain: &[(&[u32], &[u32])] = &[(&[0, 1, 3], &[0, 2, 3]), (&[0, 2, 3], &[0, 3])];
    let links = [DIAMOND.as_slice(), &[(0, 3)]].concat();
    let (topo, workload) = instance(&links, 1.0, chain);
    let order = atomic_order(&topo, &workload);
    assert_eq!(order, Some(vec![FlowId(1), FlowId(0)]));
    assert!(!replays(&topo, &workload, &[FlowId(0), FlowId(1)]));
    assert!(!replays(&topo, &workload, &[FlowId(1)]));
}

/// The flows `system` leaves stranded on `workload`, run fault-free from
/// time zero for 600 simulated seconds.
fn stranded(
    topo: &Topology,
    system: System,
    timing: TimingConfig,
    seed: u64,
    workload: &Workload,
) -> Vec<FlowId> {
    let free = Some(workload.free_capacity.clone());
    let world = NetworkSim::new(topo.clone(), system, SimConfig::new(timing, seed), free);
    let mut sim = batch_simulation(world, workload.updates.clone(), SimTime::ZERO);
    let _ = sim.run_until(SimTime::ZERO + SimDuration::from_secs(600));
    sim.into_world().record_stranded_flows()
}

const P4UPDATE: [System; 3] = [
    System::P4Update(Strategy::ForceSingle),
    System::P4Update(Strategy::ForceDual),
    System::P4Update(Strategy::Auto),
];

/// Check every cell of one group; returns the cells with no atomic order.
fn check_cells(
    group: &str,
    cells: impl Iterator<Item = (Topology, TimingConfig, u64, Workload)>,
) -> Vec<String> {
    let mut unrealizable = Vec::new();
    let mut cells_seen = 0;
    for (topo, timing, seed, workload) in cells {
        cells_seen += 1;
        let cell = format!("{} seed {seed}", topo.name);
        let order = atomic_order(&topo, &workload);
        for system in P4UPDATE {
            let left = stranded(&topo, system, timing, seed, &workload);
            assert!(
                left.is_empty() || order.is_none(),
                "{group}: {cell}: {system:?} strands {left:?} though {order:?} is an atomic order"
            );
            if order.is_none() {
                println!("{group}: {cell}: no atomic order; {system:?} strands {left:?}");
            }
        }
        if order.is_none() {
            unrealizable.push(cell);
        }
    }
    println!(
        "{group}: {} of {cells_seen} cells have no atomic order",
        unrealizable.len()
    );
    unrealizable
}

/// The timing both the benchmark and Fig. 7 run a multi-flow cell under.
fn timing_of(topo: &Topology) -> TimingConfig {
    if topo.name.starts_with("fat-tree") {
        TimingConfig::fat_tree()
    } else {
        TimingConfig::wan_multi_flow(topo.centroid())
    }
}

#[test]
#[ignore = "3,000 + 2,700 runs and the oracle: run in release with --ignored"]
fn p4update_strands_a_flow_only_where_no_atomic_order_exists() {
    let wan = [
        topologies::b4(),
        topologies::internet2(),
        topologies::att_mpls(),
        topologies::chinanet(),
        topologies::fat_tree(4),
    ];
    // `wan-sweep`: gravity load 0.55, the cell's seed drawing the workload
    // and seeding the run.
    let sweep = wan.into_iter().flat_map(|topo| {
        (1..=200).map(move |seed| {
            let workload = multi_flow(&topo, &mut SimRng::new(seed), 0.55);
            (topo.clone(), timing_of(&topo), seed, workload)
        })
    });
    assert_eq!(check_cells("wan-sweep", sweep), ["Internet2 seed 172"]);

    // Fig. 7b/7d/7f at the 300 runs EXPERIMENTS.md's multi-flow column
    // pairs: run `r` draws its workload from `r ^ 0xFEED` and runs at seed
    // 2000 + r. Fig. 7d's runs 29 and 194 are the ones every system
    // strands.
    for (panel, topo, expected) in [
        ("Fig. 7b", topologies::fat_tree(4), &[][..]),
        (
            "Fig. 7d",
            topologies::b4(),
            &["B4 seed 2029", "B4 seed 2194"][..],
        ),
        ("Fig. 7f", topologies::internet2(), &[][..]),
    ] {
        let runs = (0..300u64).map(|r| {
            let workload = multi_flow(&topo, &mut SimRng::new(r ^ 0xFEED), 0.55);
            (topo.clone(), timing_of(&topo), 2_000 + r, workload)
        });
        assert_eq!(check_cells(panel, runs), expected);
    }
}
