//! Shared scenario plumbing: running one update experiment for one system
//! and collecting its completion time.

use p4update_core::Strategy;
use p4update_des::{SimDuration, SimTime};
use p4update_net::{ArcMap, FlowId, FlowUpdate, Topology, Version};
use p4update_sim::{simulation, Event, NetworkSim, SimConfig, System, TimingConfig};

/// Human label of a system variant as used in figure legends.
pub fn system_label(system: System) -> &'static str {
    match system {
        System::P4Update(Strategy::Auto) => "P4Update",
        System::P4Update(Strategy::ForceSingle) => "SL-P4Update",
        System::P4Update(Strategy::ForceDual) => "DL-P4Update",
        System::EzSegway { .. } => "ez-Segway",
        System::Central { .. } => "Central",
    }
}

/// Build a network for one run: install every update's old path, register
/// the batch, seed congestion-aware controllers with the post-allocation
/// free capacity.
pub fn build_run(
    topo: &Topology,
    system: System,
    config: SimConfig,
    updates: &[FlowUpdate],
    free_capacity: Option<ArcMap<f64>>,
) -> (NetworkSim, usize) {
    let mut world = NetworkSim::new(topo.clone(), system, config, free_capacity);
    for u in updates {
        if let Some(old) = &u.old_path {
            world.install_initial_path(u.flow, old, u.size);
        }
    }
    let batch = world.add_batch(updates.to_vec());
    (world, batch)
}

/// Run one update experiment: trigger at t=0, run to completion, return
/// the last flow's completion time in milliseconds. `None` when any flow
/// failed to complete (which the experiments treat as a hard error).
pub fn run_update_once(
    topo: &Topology,
    system: System,
    timing: TimingConfig,
    seed: u64,
    updates: &[FlowUpdate],
    free_capacity: Option<ArcMap<f64>>,
) -> Option<f64> {
    let config = SimConfig::new(timing, seed);
    let (world, batch) = build_run(topo, system, config, updates, free_capacity);
    let mut sim = simulation(world);
    sim.schedule_at(SimTime::ZERO, Event::Trigger { batch });
    // Generous horizon: scenarios complete in seconds of simulated time.
    let _ = sim.run_until(SimTime::ZERO + SimDuration::from_secs(600));
    let world = sim.into_world();
    let flows: Vec<FlowId> = updates.iter().map(|u| u.flow).collect();
    world
        .metrics()
        .last_completion(&flows)
        .map(p4update_des::SimTime::as_millis_f64)
}

/// The version an update completes at for freshly-installed old paths
/// (initial install is version 1, the update version 2).
pub const UPDATE_VERSION: Version = Version(2);
