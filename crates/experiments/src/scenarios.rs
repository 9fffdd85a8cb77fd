//! Shared scenario plumbing: running one update experiment for one system
//! and collecting its completion time.

use p4update_core::Strategy;
use p4update_des::{SimDuration, SimTime};
use p4update_net::{ArcMap, FlowId, FlowUpdate, Topology, Version};
use p4update_sim::{batch_simulation, NetworkSim, SimConfig, System, TimingConfig};

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

/// Run one update experiment: trigger at t=0 ([`batch_simulation`]), with
/// congestion-aware controllers seeded with the post-allocation free
/// capacity, run to completion, return the last flow's completion time in
/// milliseconds. `None` when any flow failed to complete (which the
/// experiments treat as a hard error).
pub fn run_update_once(
    topo: &Topology,
    system: System,
    timing: TimingConfig,
    seed: u64,
    updates: &[FlowUpdate],
    free_capacity: Option<ArcMap<f64>>,
) -> Option<f64> {
    let config = SimConfig::new(timing, seed);
    let world = NetworkSim::new(topo.clone(), system, config, free_capacity);
    let mut sim = batch_simulation(world, updates.to_vec(), SimTime::ZERO);
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
