//! Quickstart: migrate one flow on the paper's Fig. 1 topology with
//! P4Update's automatic strategy (which picks the dual-layer mechanism
//! here, because the update contains a backward segment), then show the
//! resulting forwarding state and the measured update time.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use p4update::core::{segment_update, Strategy};
use p4update::des::SimTime;
use p4update::net::{topologies, FlowId, FlowUpdate, Path, Version};
use p4update::sim::{batch_simulation, NetworkSim, SimConfig, System, TimingConfig};

fn main() {
    let topo = topologies::fig1();
    println!(
        "topology: {} ({} nodes, {} links)",
        topo.name,
        topo.node_count(),
        topo.link_count()
    );

    let old = Path::new(topologies::fig1_old_path());
    let new = Path::new(topologies::fig1_new_path());
    let update = FlowUpdate::new(FlowId(0), Some(old), new.clone(), 1.0);

    // What the controller will compute for this update (§3.2).
    let seg = segment_update(&update);
    println!("gateways: {:?}", seg.gateways);
    for s in &seg.segments {
        println!(
            "  segment {:?} ({:?}, {} interior nodes)",
            s.nodes(),
            s.direction(),
            s.interior.len()
        );
    }

    // Assemble the network, install the old path, and trigger the update.
    let config = SimConfig::new(TimingConfig::wan_single_flow(topo.centroid()), 7);
    let world = NetworkSim::new(topo, System::P4Update(Strategy::Auto), config, None);
    let mut sim = batch_simulation(world, vec![update], SimTime::ZERO);
    assert!(sim.run().drained());
    let world = sim.into_world();

    let done = world
        .metrics()
        .completion_of(FlowId(0), Version(2))
        .expect("update completed");
    println!("\nupdate completed after {done} (simulated)");
    println!(
        "consistency violations during migration: {}",
        world.violations.len()
    );

    println!("\nfinal forwarding state:");
    for w in new.nodes().windows(2) {
        let entry = world.switches[w[0]].state.uib.read(FlowId(0));
        println!(
            "  {} -> {}   (version {}, D_n = {})",
            w[0],
            entry
                .active_next_hop
                .get()
                .map_or("terminate".to_string(), |n| n.to_string()),
            entry.applied_version,
            entry.applied_distance
        );
    }
}
