//! Figure 4 (§4.2): two consecutive updates — fast-forward.
//!
//! A complex update `U2` is in flight when the controller realizes a
//! simpler `U3` is better. ez-Segway must wait for `U2` to finish before
//! scheduling `U3`; P4Update's version numbers let switches jump straight
//! to `V3`. The measured quantity is `U3`'s completion time; the paper
//! reports P4Update roughly 4× faster.

use p4update_core::Strategy;
use p4update_des::{Samples, SimDuration, SimTime};
use p4update_net::{topologies, FlowId, FlowUpdate, Path, Version};
use p4update_sim::{batch_simulation, Event, NetworkSim, SimConfig, System, TimingConfig};

/// `U3` is triggered this long after `U2`.
const U3_DELAY_MS: u64 = 50;

fn paths() -> (Path, Path, Path) {
    let n = |ids: &[u32]| Path::new(ids.iter().map(|&i| p4update_net::NodeId(i)).collect());
    // Initial config V1, the complex U2 (interior chains plus a backward
    // segment: the gateway order on the new path reverses v3 and v1), and
    // the simple direct U3.
    (n(&[0, 1, 3, 5]), n(&[0, 2, 4, 3, 1, 5]), n(&[0, 5]))
}

/// One run: returns U3's completion time in milliseconds (measured from
/// the U3 trigger).
pub fn run_once(system: System, seed: u64) -> Option<f64> {
    let topo = topologies::fig4_net();
    let (v1, v2, v3) = paths();
    let flow = FlowId(0);
    // The data plane runs V1 (U2's old path) when the run starts.
    let u2 = FlowUpdate::new(flow, Some(v1), v2.clone(), 1.0);
    let u3 = FlowUpdate::new(flow, Some(v2), v3, 1.0);

    // Single-flow style timing: installs are slowed (this is what makes
    // waiting for U2 expensive).
    let timing = TimingConfig::wan_single_flow(topo.centroid());
    let config = SimConfig::new(timing, seed);
    let world = NetworkSim::new(topo, system, config, None);
    let mut sim = batch_simulation(world, vec![u2], SimTime::ZERO);
    let batch3 = sim.world_mut().add_batch(vec![u3]);
    let t3 = SimTime::ZERO + SimDuration::from_millis(U3_DELAY_MS);
    sim.schedule_at(t3, Event::Trigger { batch: batch3 });
    let _ = sim.run_until(SimTime::ZERO + SimDuration::from_secs(600));
    let world = sim.into_world();
    // U3 is version 3 under P4Update; the baselines report nominal
    // versions, so take the *last* completion of the flow.
    let done = match system {
        System::P4Update(_) => world.metrics().completion_of(flow, Version(3)),
        _ => world
            .metrics()
            .completions
            .iter()
            .filter(|&&(_, f, _)| f == flow)
            .map(|&(t, _, _)| t)
            .max(),
    }?;
    Some(done.saturating_since(t3).as_millis_f64())
}

/// The full experiment: CDFs over `runs` seeds.
pub fn run(runs: u64) -> (Samples, Samples) {
    let mut p4 = Samples::new();
    let mut ez = Samples::new();
    for seed in 0..runs {
        if let Some(t) = run_once(System::P4Update(Strategy::Auto), 1000 + seed) {
            p4.push(t);
        }
        if let Some(t) = run_once(System::EzSegway { congestion: false }, 1000 + seed) {
            ez.push(t);
        }
    }
    (p4, ez)
}

/// Print the figure's data as text rows.
pub fn print(runs: u64) {
    let (p4, ez) = run(runs);
    println!("# Fig. 4 — two sequential updates, U3 completion time CDF ({runs} runs)");
    println!(
        "# mean: P4Update {:.1} ms, ez-Segway {:.1} ms, speedup {:.2}x",
        p4.mean(),
        ez.mean(),
        ez.mean() / p4.mean().max(1e-9)
    );
    println!("# columns: system time_ms cdf");
    for (label, s) in [("P4Update", &p4), ("ez-Segway", &ez)] {
        for (v, p) in s.cdf_points() {
            println!("{label:<10} {v:>9.1} {p:.3}");
        }
    }
}
