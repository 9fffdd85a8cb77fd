//! The §11 discussion features implemented as extensions: rule cleanup
//! along abandoned old paths, controller loss recovery, and FRM-driven
//! flow setup.

use p4update::core::Strategy;
use p4update::des::{SimDuration, SimTime};
use p4update::messages::DataPacket;
use p4update::net::{topologies, FlowId, FlowUpdate, NodeId, Path, Version};
use p4update::sim::{
    batch_simulation, simulation, Event, FaultConfig, NetworkSim, SimConfig, System, TimingConfig,
};

fn p(ids: &[u32]) -> Path {
    Path::new(ids.iter().map(|&i| NodeId(i)).collect())
}

fn fig1_update() -> FlowUpdate {
    FlowUpdate::new(
        FlowId(0),
        Some(Path::new(topologies::fig1_old_path())),
        Path::new(topologies::fig1_new_path()),
        1.0,
    )
}

/// Rule cleanup (§11): after a migration away from a node, the cleanup
/// packet clears the abandoned node's rule and releases its capacity.
#[test]
fn cleanup_clears_abandoned_old_path() {
    // fig4 topology; old [0,1,3,5] -> new [0,2,4,3,5]... use fig4_net edges:
    // old 0-1-3-5; new 0-2-3-5 leaves node 1 stranded.
    let topo = topologies::fig4_net();
    let flow = FlowId(0);
    let old = p(&[0, 1, 3, 5]);
    let new = p(&[0, 2, 3, 5]);
    let config = SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), 5);
    let world = NetworkSim::new(topo, System::P4Update(Strategy::ForceSingle), config, None);
    let update = FlowUpdate::new(flow, Some(old), new, 2.0);
    let mut sim = batch_simulation(world, vec![update], SimTime::ZERO);

    let before = sim.world().switches[NodeId(1)]
        .state
        .remaining_capacity(NodeId(3))
        .expect("adjacent");
    assert!(sim.run().drained());
    let world = sim.into_world();

    assert!(world.metrics().completion_of(flow, Version(2)).is_some());
    assert!(world.violations.is_empty(), "{:?}", world.violations);
    // Node 1 left the path: rule cleared, capacity released.
    let e1 = world.switches[NodeId(1)].state.uib.read(flow);
    assert!(!e1.has_active_rule(), "abandoned node still holds a rule");
    let after = world.switches[NodeId(1)]
        .state
        .remaining_capacity(NodeId(3))
        .expect("adjacent");
    assert_eq!(after, before + 2.0, "capacity was not released");
    // Nodes still on the path keep their rules.
    assert!(world.switches[NodeId(3)]
        .state
        .uib
        .read(flow)
        .has_active_rule());
}

/// Loss recovery (§11): with heavy UNM loss the update stalls; the
/// controller's retry timer re-pushes the indications, the egress
/// regenerates the chain, and the update eventually completes.
#[test]
fn recovery_completes_update_despite_unm_loss() {
    let mut completed = 0;
    let runs = 10;
    for seed in 0..runs {
        let topo = topologies::fig1();
        let config = SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), seed)
            .with_faults(FaultConfig {
                drop_switch_to_switch: 0.2,
                ..FaultConfig::NONE
            })
            .with_retry_ms(300.0);
        let world = NetworkSim::new(topo, System::P4Update(Strategy::ForceSingle), config, None);
        let mut sim = batch_simulation(world, vec![fig1_update()], SimTime::ZERO);
        let _ = sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
        let world = sim.into_world();
        assert!(
            world.violations.is_empty(),
            "seed {seed}: {:?}",
            world.violations
        );
        if world
            .metrics()
            .completion_of(FlowId(0), Version(2))
            .is_some()
        {
            completed += 1;
        }
    }
    // With 20% per-hop UNM loss, p(chain survives once) ≈ 0.8^7 ≈ 21%,
    // and each regenerated chain advances the frontier incrementally
    // (expected retries to cross all 7 hops ≈ Σ 0.8^{-k} ≈ 19 < 25);
    // recovery must carry most runs to completion.
    assert!(
        completed >= runs - 2,
        "only {completed}/{runs} runs completed despite recovery"
    );
}

/// Without recovery the same loss rate stalls most runs — the control
/// experiment for the test above.
#[test]
fn without_recovery_unm_loss_stalls() {
    let mut completed = 0;
    let runs = 10;
    for seed in 0..runs {
        let topo = topologies::fig1();
        let config = SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), seed)
            .with_faults(FaultConfig {
                drop_switch_to_switch: 0.2,
                ..FaultConfig::NONE
            });
        let world = NetworkSim::new(topo, System::P4Update(Strategy::ForceSingle), config, None);
        let mut sim = batch_simulation(world, vec![fig1_update()], SimTime::ZERO);
        let _ = sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
        if sim
            .into_world()
            .metrics()
            .completion_of(FlowId(0), Version(2))
            .is_some()
        {
            completed += 1;
        }
    }
    assert!(
        completed <= runs / 2,
        "loss barely hurt ({completed}/{runs}); the recovery test is vacuous"
    );
    // (p(initial chain survives 7 lossy hops) ≈ 21%, so a handful of
    // lucky completions is expected — the contrast with recovery is the
    // point.)
}

/// FRM-driven setup (§6, Appendix B): packets of an unknown flow trigger a
/// flow report; the controller computes a path from its NIB and deploys it
/// from scratch; subsequent packets are delivered.
#[test]
fn frm_sets_up_a_new_flow_end_to_end() {
    let topo = topologies::internet2();
    let ingress = NodeId(0);
    let egress = NodeId(15);
    let flow = FlowId(42);
    let config = SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), 3);
    let world = NetworkSim::new(topo, System::P4Update(Strategy::Auto), config, None);
    let mut sim = simulation(world);
    // A packet stream starts with no rules anywhere.
    for i in 0..40u64 {
        sim.schedule_at(
            SimTime::ZERO + SimDuration::from_millis(i * 25),
            Event::InjectPacket {
                node: ingress,
                pkt: DataPacket {
                    flow,
                    seq: i as u32,
                    ttl: 64,
                    tag: None,
                },
                egress_hint: egress,
            },
        );
    }
    assert!(sim.run().drained());
    let world = sim.into_world();
    // The first packets blackholed, the flow got reported and set up, and
    // later packets were delivered at the egress.
    let delivered = world.metrics().delivered_seqs_at(egress);
    assert!(
        !delivered.is_empty(),
        "no packets delivered; flow setup never happened"
    );
    assert!(
        world.metrics().completion_of(flow, Version(1)).is_some(),
        "controller never learned the setup completed"
    );
    let e = world.switches[ingress].state.uib.read(flow);
    assert_eq!(e.applied_version, Version(1));
    // Earlier packets were lost while rules were absent (expected).
    assert!(delivered.len() < 40);
    // The checker learned the flow from its FRM and walked it clean.
    assert!(world.checked_flows().any(|(f, _)| f == flow));
    assert!(world.violations.is_empty(), "{:?}", world.violations);
}
