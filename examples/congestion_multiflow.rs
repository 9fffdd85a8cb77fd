//! Data-plane congestion scheduling (§7.4): two flows compete for one
//! link's capacity, and the deferred move resolves itself locally —
//! entirely in the data plane, with dynamic priorities and no controller
//! involvement.
//!
//! Topology (all links capacity 10 except the shared first hop):
//!
//! ```text
//!      v0 --20-- v1 --10-- v2 --10-- v4
//!                 \--10-- v3 --10--/
//! ```
//!
//! Flow A (size 4) runs v0→v1→v2→v4; flow B (size 3) runs v0→v1→v3→v4,
//! where the v1→v3 link only has capacity 6. The controller swaps their
//! middle hops: A must move onto v1→v3, which cannot fit until B has left
//! it — a genuine inter-flow dependency. The data-plane scheduler defers
//! A's move, raises B's priority, and retries A the moment B's flip
//! releases the capacity: no controller involvement, no transient
//! congestion.
//!
//! ```sh
//! cargo run --example congestion_multiflow
//! ```

use p4update::core::Strategy;
use p4update::des::{SimDuration, SimTime};
use p4update::net::{FlowId, FlowUpdate, NodeId, Path, TopologyBuilder};
use p4update::sim::{batch_simulation, NetworkSim, SimConfig, System, TimingConfig};

fn main() {
    let mut b = TopologyBuilder::new("congestion-demo");
    let v: Vec<NodeId> = (0..5).map(|i| b.add_node(format!("v{i}"))).collect();
    let lat = SimDuration::from_millis(5);
    b.add_link(v[0], v[1], lat, 20.0); // shared first hop: room for both
    b.add_link(v[1], v[2], lat, 10.0);
    b.add_link(v[1], v[3], lat, 6.0);
    b.add_link(v[2], v[4], lat, 10.0);
    b.add_link(v[3], v[4], lat, 10.0);
    let topo = b.build();

    let p = |ids: &[u32]| Path::new(ids.iter().map(|&i| NodeId(i)).collect());
    let flow_a = FlowId(0);
    let flow_b = FlowId(1);

    let config = SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), 3);
    let world = NetworkSim::new(topo, System::P4Update(Strategy::Auto), config, None);

    // Swap the flows' second hops. The updates race: whoever's
    // notification reaches v1 first gets deferred (the target link still
    // carries the other flow), the scheduler raises the other flow's
    // priority, and the deferred move fires the moment capacity frees.
    let updates = vec![
        FlowUpdate::new(flow_a, Some(p(&[0, 1, 2, 4])), p(&[0, 1, 3, 4]), 4.0),
        FlowUpdate::new(flow_b, Some(p(&[0, 1, 3, 4])), p(&[0, 1, 2, 4]), 3.0),
    ];
    let mut sim = batch_simulation(world, updates, SimTime::ZERO);
    assert!(sim.run().drained());
    let world = sim.into_world();

    println!("completions (controller view):");
    for &(t, flow, version) in &world.metrics().completions {
        println!("  {flow} reached {version} at {t}");
    }
    let a = world.switches[NodeId(1)].state.uib.read(flow_a);
    let b = world.switches[NodeId(1)].state.uib.read(flow_b);
    println!(
        "\nfinal next hops at v1:  flow A -> {:?},  flow B -> {:?}",
        a.active_next_hop, b.active_next_hop
    );
    println!(
        "capacity violations during the swap: {}",
        world
            .violations
            .iter()
            .filter(|(_, v)| matches!(v, p4update::sim::Violation::Congestion { .. }))
            .count()
    );
    assert_eq!(a.active_next_hop.get(), Some(NodeId(3)));
    assert_eq!(b.active_next_hop.get(), Some(NodeId(2)));
    assert!(world.violations.is_empty());
    println!("\n=> the swap completed congestion-free with no controller scheduling.");
}
