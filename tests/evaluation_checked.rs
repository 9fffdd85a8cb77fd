//! The evaluation's own inputs, checked: the benchmark's `wan-sweep`
//! cells (five topologies, seeds 1-200, all four systems) and `wan-lossy`'s
//! fault mix (seeds 1-150, SL and DL), each run as the benchmark runs it
//! (gravity load 0.55, old paths installed, one batch at time zero, 600
//! simulated seconds). Every run checks itself after every event; P4Update
//! must record no loop, blackhole or overload (Theorems 1-4), and each
//! baseline's count is printed (EXPERIMENTS.md quotes them).
//!
//! Ignored (a few seconds in release); `scripts/check.sh` runs it unless
//! `FAST=1`: `cargo test --release --test evaluation_checked -- --ignored
//! --nocapture`.

use p4update::core::Strategy;
use p4update::des::{SimDuration, SimRng, SimTime};
use p4update::net::{topologies, Topology};
use p4update::sim::{batch_simulation, FaultConfig, NetworkSim, SimConfig, System, TimingConfig};
use p4update::traffic::multi_flow;

const SL: System = System::P4Update(Strategy::ForceSingle);
const DL: System = System::P4Update(Strategy::ForceDual);
const EZ: System = System::EzSegway { congestion: true };
const CENTRAL: System = System::Central { congestion: true };

/// `wan-lossy`'s faults, recovered by the §11 timer every 300 ms.
const LOSSY: FaultConfig = FaultConfig {
    drop_ctrl_to_switch: 0.05,
    drop_switch_to_switch: 0.05,
    jitter_ms: 5.0,
    hold_ctrl_to: None,
};

fn fat_tree_k4() -> Topology {
    topologies::fat_tree(4)
}

const WAN_TOPOLOGIES: [fn() -> Topology; 5] = [
    topologies::b4,
    topologies::internet2,
    topologies::att_mpls,
    topologies::chinanet,
    fat_tree_k4,
];

/// Violations each system records over seeds `1..=seeds` of every WAN
/// topology, in `systems` order.
fn violations(systems: &[System], seeds: u64, lossy: bool) -> Vec<usize> {
    let mut counts = vec![0; systems.len()];
    for build in WAN_TOPOLOGIES {
        let topo = build();
        let timing = if topo.name.starts_with("fat-tree") {
            TimingConfig::fat_tree()
        } else {
            TimingConfig::wan_multi_flow(topo.centroid())
        };
        for seed in 1..=seeds {
            let batch = multi_flow(&topo, &mut SimRng::new(seed), 0.55);
            let mut config = SimConfig::new(timing, seed);
            if lossy {
                config = config.with_faults(LOSSY).with_retry_ms(300.0);
            }
            for (count, &system) in counts.iter_mut().zip(systems) {
                let free = Some(batch.free_capacity.clone());
                let world = NetworkSim::new(topo.clone(), system, config, free);
                let mut sim = batch_simulation(world, batch.updates.clone(), SimTime::ZERO);
                let _ = sim.run_until(SimTime::ZERO + SimDuration::from_secs(600));
                let world = sim.into_world();
                if matches!(system, System::P4Update(_)) {
                    let cell = format!("{} seed {seed} {system:?}", topo.name);
                    assert!(
                        world.violations.is_empty(),
                        "{cell}: {:?}",
                        world.violations
                    );
                }
                *count += world.violations.len();
            }
        }
    }
    counts
}

#[test]
#[ignore = "4,000 + 1,500 runs: run in release with --ignored"]
fn the_benchmark_cells_record_no_p4update_violation() {
    let systems = [SL, DL, EZ, CENTRAL];
    let sweep = violations(&systems, 200, false);
    for (system, count) in systems.iter().zip(&sweep) {
        println!("wan-sweep {system:?}: {count} violations");
    }
    let lossy = violations(&[SL, DL], 150, true);
    println!("wan-lossy SL, DL: {lossy:?} violations");
}
