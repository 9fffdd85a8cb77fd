//! The 32768-switch fat-tree on the one engine: 192 cross-pod dual-layer
//! migrations through plain `NetworkSim::new` + `batch_simulation()`. Dense
//! all-pairs path tables would need ~16 GiB here, so this is also the
//! test that the simulator's path-table rows really are filled on demand.
//!
//! Ignored by default (~1 s release, ~3 s debug, ~400 MB);
//! `scripts/check.sh` runs it in release:
//! `cargo test --release --test ft32768 -- --ignored`.

use p4update::core::Strategy;
use p4update::des::{SimDuration, SimTime};
use p4update::net::{topologies, FlowId, FlowUpdate, Path, Topology};
use p4update::sim::{batch_simulation, NetworkSim, SimConfig, System, TimingConfig};

/// Hand-derived cross-pod migrations. The gravity-model generator makes
/// one flow per switch, and each of those 32,768 Yen queries starts with a
/// Dijkstra from the destination over 2.2M arcs (~9 ms a query, ~5 minutes
/// in all) where this test needs 192 flows — so the routes come straight
/// from the topology's wiring rules
/// (`agg{p}_{j}` uplinks to cores `(p+j) % 128` and `(p+j+1) % 128`; pods
/// are internally complete bipartite): flow `i` moves from
/// `edge{i}_0 → agg{i}_1 → core{(i+1)%128} → agg{i+1}_0 → edge{i+1}_0`
/// to the disjoint-spine `agg{i}_2 → core{(i+2)%128} → agg{i+1}_1` route.
/// `install_initial_path` re-validates every hop against the topology.
fn ft32768_updates(topo: &Topology, flows: usize) -> Vec<FlowUpdate> {
    let node = |name: String| topo.node_by_name(&name).expect("fat-tree grammar name");
    (0..flows)
        .map(|i| {
            let (a, b) = (i, i + 1);
            let old = Path::new(vec![
                node(format!("edge{a}_0")),
                node(format!("agg{a}_1")),
                node(format!("core{}", (a + 1) % 128)),
                node(format!("agg{b}_0")),
                node(format!("edge{b}_0")),
            ]);
            let new = Path::new(vec![
                node(format!("edge{a}_0")),
                node(format!("agg{a}_2")),
                node(format!("core{}", (a + 2) % 128)),
                node(format!("agg{b}_1")),
                node(format!("edge{b}_0")),
            ]);
            FlowUpdate::new(FlowId(i as u32), Some(old), new, 1.0)
        })
        .collect()
}

#[test]
#[ignore = "builds a 32768-switch topology: ~1 s release, ~400 MB"]
fn ft32768_runs_on_the_sequential_engine() {
    let topo = topologies::synthetic_fat_tree_32768();
    let nodes = topo.node_count();
    let updates = ft32768_updates(&topo, 192);
    let config = SimConfig::new(TimingConfig::fat_tree(), 1);
    let world = NetworkSim::new(topo, System::P4Update(Strategy::ForceDual), config, None);
    let mut sim = batch_simulation(world, updates, SimTime::ZERO);
    let _ = sim.run_until(SimTime::ZERO + SimDuration::from_secs(600));
    // 8,348 while reports drew their latency at a controller-side event:
    // one event fewer per switch report.
    assert_eq!(sim.events_delivered(), 8_156);
    let mut world = sim.into_world();
    assert!(world.record_stranded_flows().is_empty());
    let counts = world.metrics().counts();
    assert_eq!((counts.completions, counts.alarms), (192, 0));
    // No packet is injected, so the per-packet log costs nothing here.
    let m = world.metrics();
    assert!(m.arrivals.is_empty() && m.deliveries.is_empty() && m.drops.is_empty());
    assert!(
        world.path_rows_filled() * 100 < nodes,
        "{} of {nodes} path rows filled: the table is not lazy",
        world.path_rows_filled()
    );
}
