//! End-to-end protocol tests: full update runs for every system on the
//! Fig. 1 topology, with the consistency checker armed on every event.

use p4update_core::Strategy;
use p4update_des::SimTime;
use p4update_net::{topologies, FlowId, FlowUpdate, NodeId, Path, Version};
use p4update_sim::{batch_simulation, NetworkSim, SimConfig, System, TimingConfig};

fn fig1_update() -> FlowUpdate {
    FlowUpdate::new(
        FlowId(0),
        Some(Path::new(topologies::fig1_old_path())),
        Path::new(topologies::fig1_new_path()),
        1.0,
    )
}

/// Run the Fig. 1 migration under `system`; return the completed world.
fn run_fig1(system: System, seed: u64) -> NetworkSim {
    let topo = topologies::fig1();
    let config = SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), seed);
    let world = NetworkSim::new(topo, system, config, None);
    let mut sim = batch_simulation(world, vec![fig1_update()], SimTime::ZERO);
    let outcome = sim.run();
    assert!(outcome.drained(), "simulation stalled: {outcome:?}");
    sim.into_world()
}

/// After a successful migration the new path must be the active forwarding
/// walk.
fn assert_new_path_active(world: &NetworkSim) {
    let new_path = topologies::fig1_new_path();
    for w in new_path.windows(2) {
        let e = world.switches[w[0]].state.uib.read(FlowId(0));
        assert_eq!(
            e.active_next_hop.get(),
            Some(w[1]),
            "node {} should forward to {}",
            w[0],
            w[1]
        );
    }
    assert!(world.switches[NodeId(7)]
        .state
        .uib
        .read(FlowId(0))
        .is_egress());
}

#[test]
fn p4update_dual_layer_completes_fig1() {
    let world = run_fig1(System::P4Update(Strategy::Auto), 1);
    assert!(
        world
            .metrics()
            .completion_of(FlowId(0), Version(2))
            .is_some(),
        "controller never learned of completion; alarms: {:?}",
        world.metrics().alarms
    );
    assert_new_path_active(&world);
    assert!(
        world.violations.is_empty(),
        "consistency violated: {:?}",
        world.violations
    );
    assert!(world.metrics().alarms.is_empty());
}

#[test]
fn p4update_single_layer_completes_fig1() {
    let world = run_fig1(System::P4Update(Strategy::ForceSingle), 2);
    assert!(world
        .metrics()
        .completion_of(FlowId(0), Version(2))
        .is_some());
    assert_new_path_active(&world);
    assert!(world.violations.is_empty(), "{:?}", world.violations);
}

#[test]
fn ez_segway_completes_fig1() {
    let world = run_fig1(System::EzSegway { congestion: false }, 3);
    assert!(
        world
            .metrics()
            .completion_of(FlowId(0), Version(2))
            .is_some(),
        "ez-Segway never completed"
    );
    assert_new_path_active(&world);
    assert!(world.violations.is_empty(), "{:?}", world.violations);
}

#[test]
fn central_completes_fig1() {
    let world = run_fig1(System::Central { congestion: false }, 4);
    assert!(world
        .metrics()
        .completion_of(FlowId(0), Version(2))
        .is_some());
    assert_new_path_active(&world);
    assert!(world.violations.is_empty(), "{:?}", world.violations);
}

#[test]
fn dual_layer_beats_single_layer_on_fig1_with_install_delays() {
    // The Fig. 1 scenario is segmented; with exp(100 ms) install delays the
    // dual layer's parallel segment chains must beat the strictly
    // sequential single layer on average (paper: DL −31.5% on Synthetic).
    let topo = topologies::fig1();
    let mut sl_total = 0.0;
    let mut dl_total = 0.0;
    for seed in 0..10 {
        for (strategy, acc) in [
            (Strategy::ForceSingle, &mut sl_total),
            (Strategy::ForceDual, &mut dl_total),
        ] {
            let config = SimConfig::new(TimingConfig::wan_single_flow(topo.centroid()), 100 + seed);
            let world = NetworkSim::new(topo.clone(), System::P4Update(strategy), config, None);
            let mut sim = batch_simulation(world, vec![fig1_update()], SimTime::ZERO);
            assert!(sim.run().drained());
            let world = sim.into_world();
            let t = world
                .metrics()
                .completion_of(FlowId(0), Version(2))
                .expect("completed");
            *acc += t.as_millis_f64();
        }
    }
    assert!(
        dl_total < sl_total,
        "DL ({dl_total:.0} ms total) should beat SL ({sl_total:.0} ms total)"
    );
}
