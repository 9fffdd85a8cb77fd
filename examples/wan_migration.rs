//! WAN migration on Google's B4: run the same single-flow migration under
//! all five system variants and compare measured update times — a one-run
//! slice of Fig. 7c.
//!
//! ```sh
//! cargo run --release --example wan_migration
//! ```

use p4update::core::{segment_update, Strategy};
use p4update::des::SimTime;
use p4update::net::{topologies, Version};
use p4update::sim::{batch_simulation, NetworkSim, SimConfig, System, TimingConfig};
use p4update::traffic::single_flow;

fn main() {
    let topo = topologies::b4();
    let update = single_flow(&topo);
    let old = update.old_path.as_ref().expect("migration has an old path");

    println!(
        "topology: {} ({} sites, {} links)",
        topo.name,
        topo.node_count(),
        topo.link_count()
    );
    println!(
        "old path: {}",
        old.nodes()
            .iter()
            .map(|n| topo.node(*n).name.clone())
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    println!(
        "new path: {}",
        update
            .new_path
            .nodes()
            .iter()
            .map(|n| topo.node(*n).name.clone())
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    let seg = segment_update(&update);
    println!(
        "segments: {} ({} backward)",
        seg.segments.len(),
        seg.backward_count()
    );

    println!("\nupdate time per system (same seed, same install delays):");
    for (label, system) in [
        ("P4Update (auto)", System::P4Update(Strategy::Auto)),
        ("SL-P4Update", System::P4Update(Strategy::ForceSingle)),
        ("DL-P4Update", System::P4Update(Strategy::ForceDual)),
        ("ez-Segway", System::EzSegway { congestion: false }),
        ("Central", System::Central { congestion: false }),
    ] {
        let config = SimConfig::new(TimingConfig::wan_single_flow(topo.centroid()), 11);
        let world = NetworkSim::new(topo.clone(), system, config, None);
        let mut sim = batch_simulation(world, vec![update.clone()], SimTime::ZERO);
        assert!(sim.run().drained());
        let world = sim.into_world();
        let t = world
            .metrics()
            .completion_of(update.flow, Version(2))
            .expect("update completes");
        println!("  {label:<16} {:>8.1} ms", t.as_millis_f64());
    }
}
