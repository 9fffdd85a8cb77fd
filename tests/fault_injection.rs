//! The verification model (§5) under adversity: control messages dropped,
//! jittered (reordered), or held back. P4Update's partial implementations
//! must stay consistent in every case (the checker runs after every
//! event); the Fig. 2 scenario shows ez-Segway does not have this
//! property.

use p4update::core::Strategy;
use p4update::des::{SimDuration, SimTime};
use p4update::net::{topologies, FlowId, FlowUpdate, NodeId, Path, Version};
use p4update::sim::{
    simulation, Event, FaultConfig, NetworkSim, SimConfig, System, TimingConfig, Violation,
};

fn fig1_update() -> FlowUpdate {
    FlowUpdate::new(
        FlowId(0),
        Some(Path::new(topologies::fig1_old_path())),
        Path::new(topologies::fig1_new_path()),
        1.0,
    )
}

fn run_with_faults(strategy: Strategy, seed: u64, faults: FaultConfig) -> NetworkSim {
    let topo = topologies::fig1();
    let config = SimConfig::new(TimingConfig::wan_single_flow(topo.centroid()), seed)
        .paranoid()
        .with_faults(faults);
    let mut world = NetworkSim::new(topo, System::P4Update(strategy), config, None);
    world.install_initial_path(FlowId(0), &Path::new(topologies::fig1_old_path()), 1.0);
    let batch = world.add_batch(vec![fig1_update()]);
    let mut sim = simulation(world);
    sim.schedule_at(SimTime::ZERO, Event::Trigger { batch });
    let _ = sim.run_until(SimTime::ZERO + SimDuration::from_secs(120));
    sim.into_world()
}

/// Dropped UIMs stall the affected chain but never produce a loop,
/// blackhole, or capacity violation (Theorems 1/3 under loss).
#[test]
fn uim_loss_never_breaks_consistency() {
    for strategy in [Strategy::ForceSingle, Strategy::ForceDual] {
        for seed in 0..20 {
            let world = run_with_faults(
                strategy,
                seed,
                FaultConfig {
                    drop_ctrl_to_switch: 0.3,
                    ..FaultConfig::NONE
                },
            );
            assert!(
                world.violations.is_empty(),
                "{strategy:?} seed {seed}: {:?}",
                world.violations
            );
        }
    }
}

/// Dropped UNMs likewise stall but never break consistency.
#[test]
fn unm_loss_never_breaks_consistency() {
    for strategy in [Strategy::ForceSingle, Strategy::ForceDual] {
        for seed in 0..20 {
            let world = run_with_faults(
                strategy,
                seed,
                FaultConfig {
                    drop_switch_to_switch: 0.3,
                    ..FaultConfig::NONE
                },
            );
            assert!(
                world.violations.is_empty(),
                "{strategy:?} seed {seed}: {:?}",
                world.violations
            );
        }
    }
}

/// Reordering (heavy jitter) may delay but never breaks consistency, and
/// without loss the update still completes.
#[test]
fn reordering_preserves_consistency_and_liveness() {
    for strategy in [Strategy::ForceSingle, Strategy::ForceDual] {
        for seed in 0..20 {
            let world = run_with_faults(
                strategy,
                seed,
                FaultConfig {
                    jitter_ms: 200.0,
                    ..FaultConfig::NONE
                },
            );
            assert!(
                world.violations.is_empty(),
                "{strategy:?} seed {seed}: {:?}",
                world.violations
            );
            assert!(
                world
                    .metrics()
                    .completion_of(FlowId(0), Version(2))
                    .is_some(),
                "{strategy:?} seed {seed}: no completion without loss"
            );
        }
    }
}

/// Fast-forward (§4.2) under loss: a complex `U2` is in flight when the
/// simpler `U3` arrives, and 30% of switch-to-switch control messages
/// (UIM/UNM relays) are dropped. With the §11 loss-recovery timer the
/// controller re-pushes outstanding indications, so every seed still
/// fast-forwards the flow to `V3` — consistently throughout. The same
/// seeds *without* the timer include stalls, which is what makes the
/// retry assertion meaningful.
#[test]
fn fast_forward_completes_under_unm_loss_with_controller_retry() {
    let run = |seed: u64, retry_ms: f64| {
        let topo = topologies::fig4_net();
        let n = |ids: &[u32]| Path::new(ids.iter().map(|&i| NodeId(i)).collect());
        // V1, the complex U2 (includes a backward segment), the direct U3.
        let (v1, v2, v3) = (n(&[0, 1, 3, 5]), n(&[0, 2, 4, 3, 1, 5]), n(&[0, 5]));
        let flow = FlowId(0);
        let config = SimConfig::new(TimingConfig::wan_single_flow(topo.centroid()), seed)
            .paranoid()
            .with_faults(FaultConfig {
                drop_switch_to_switch: 0.3,
                ..FaultConfig::NONE
            })
            .with_retry_ms(retry_ms);
        let mut world = NetworkSim::new(topo, System::P4Update(Strategy::Auto), config, None);
        world.install_initial_path(flow, &v1, 1.0);
        let b2 = world.add_batch(vec![FlowUpdate::new(
            flow,
            Some(v1.clone()),
            v2.clone(),
            1.0,
        )]);
        let b3 = world.add_batch(vec![FlowUpdate::new(flow, Some(v2), v3, 1.0)]);
        let mut sim = simulation(world);
        sim.schedule_at(SimTime::ZERO, Event::Trigger { batch: b2 });
        sim.schedule_at(
            SimTime::ZERO + SimDuration::from_millis(50),
            Event::Trigger { batch: b3 },
        );
        let _ = sim.run_until(SimTime::ZERO + SimDuration::from_secs(600));
        let world = sim.into_world();
        (
            world.violations.is_empty(),
            world.metrics().completion_of(flow, Version(3)).is_some(),
        )
    };

    let mut stalled_without_retry = 0;
    for seed in 0..12 {
        let (consistent, done) = run(seed, 200.0);
        assert!(consistent, "seed {seed}: violation under loss with retry");
        assert!(
            done,
            "seed {seed}: retry must recover the fast-forward to V3"
        );

        let (consistent, done) = run(seed, 0.0);
        assert!(
            consistent,
            "seed {seed}: violation under loss without retry"
        );
        stalled_without_retry += u32::from(!done);
    }
    assert!(
        stalled_without_retry > 0,
        "every seed completed without retry; the loss rate exercises nothing"
    );
}

/// Alg. 2's inherited-distance wait, observed on the many-gateway
/// dual-layer update under adversarial reordering (heavy control-plane
/// jitter). The new path's segments alternate forward/backward; a
/// backward segment joins the old path *upstream* of where it left, so
/// flipping its ingress gateway early would forward packets into the
/// still-old downstream and close a loop. The dual layer prevents that:
/// a backward gateway holds its segment until the first-layer chain has
/// relayed the inherited (smaller) old distance up from the flow egress,
/// which in turn happens only after every downstream gateway flipped.
/// The test steps the simulation, records each node's first flip to its
/// new-path successor, and asserts that ordering — under schedules the
/// jitter has adversarially reordered.
#[test]
fn multi_gateway_backward_segments_wait_for_inherited_distance() {
    let new_path = topologies::multi_gateway_new_path();
    // Segments of old [0..=5] vs new 0-6-3-7-1-8-4-9-2-10-5 (gateway old
    // distances 5,2,4,1,3,0): [3,7,1] and [4,9,2] are backward. For each:
    // (ingress gateway, interior, egress gateway, downstream gateways that
    // must flip first).
    let backward: [(u32, u32, u32, &[u32]); 2] = [(3, 7, 1, &[1, 4, 2]), (4, 9, 2, &[2])];

    for seed in 0..8 {
        let topo = topologies::multi_gateway();
        let flow = FlowId(0);
        let old = Path::new(topologies::multi_gateway_old_path());
        let new = Path::new(new_path.clone());
        let config = SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), seed)
            .paranoid()
            .with_faults(FaultConfig {
                jitter_ms: 150.0,
                ..FaultConfig::NONE
            });
        let mut world = NetworkSim::new(topo, System::P4Update(Strategy::ForceDual), config, None);
        world.install_initial_path(flow, &old, 1.0);
        let batch = world.add_batch(vec![FlowUpdate::new(flow, Some(old.clone()), new, 1.0)]);
        let mut sim = simulation(world);
        sim.schedule_at(SimTime::ZERO, Event::Trigger { batch });

        let horizon = SimTime::ZERO + SimDuration::from_secs(120);
        let mut flips: std::collections::BTreeMap<u32, SimTime> = std::collections::BTreeMap::new();
        while let Some(t) = sim.step() {
            if t > horizon {
                break;
            }
            for w in new_path.windows(2) {
                let (node, succ) = (w[0], w[1]);
                if !flips.contains_key(&node.0)
                    && sim.world().switches[node]
                        .state
                        .uib
                        .read(flow)
                        .active_next_hop
                        == Some(succ)
                {
                    flips.insert(node.0, t);
                }
            }
        }
        let world = sim.into_world();
        assert!(
            world.violations.is_empty(),
            "seed {seed}: {:?}",
            world.violations
        );
        assert!(
            world.metrics().completion_of(flow, Version(2)).is_some(),
            "seed {seed}: update did not complete"
        );

        for &(ingress, interior, egress, downstream) in &backward {
            let flip = |n: u32| flips[&n];
            assert!(
                flip(ingress) > flip(interior),
                "seed {seed}: backward gateway v{ingress} flipped before its \
                 segment interior v{interior}"
            );
            assert!(
                flip(ingress) > flip(egress),
                "seed {seed}: backward gateway v{ingress} flipped before its \
                 egress gateway v{egress}"
            );
            for &gw in downstream {
                assert!(
                    flip(ingress) > flip(gw),
                    "seed {seed}: backward gateway v{ingress} flipped before \
                     downstream gateway v{gw} — the inherited-distance wait \
                     did not happen"
                );
            }
        }
    }
}

/// The Fig. 2 contrast as a checker-level assertion: under the reordered
/// deployment, ez-Segway's mixed state contains a forwarding loop at some
/// instant; P4Update's never does.
#[test]
fn fig2_reordering_loops_ez_segway_but_not_p4update() {
    let topo = topologies::fig2_chain();
    let flow = FlowId(0);
    let config_a = Path::new(topologies::fig2_config_a());
    let config_b = Path::new(topologies::fig2_config_b());
    let config_c = Path::new(topologies::fig2_config_c());
    let update_c = FlowUpdate::new(flow, Some(config_b), config_c, 1.0);
    let faults = FaultConfig {
        hold_ctrl_to: Some((NodeId(2), SimDuration::from_millis(400))),
        ..FaultConfig::NONE
    };

    let mut saw = Vec::new();
    for system in [
        System::P4Update(Strategy::ForceSingle),
        System::EzSegway { congestion: false },
    ] {
        let config = SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), 1)
            .paranoid()
            .with_faults(faults);
        let mut world = NetworkSim::new(topo.clone(), system, config, None);
        world.install_initial_path(flow, &config_a, 1.0);
        let batch = world.add_batch(vec![update_c.clone()]);
        let mut sim = simulation(world);
        sim.schedule_at(
            SimTime::ZERO + SimDuration::from_millis(100),
            Event::Trigger { batch },
        );
        let _ = sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        let world = sim.into_world();
        let looped = world
            .violations
            .iter()
            .any(|(_, v)| matches!(v, Violation::Loop { .. }));
        saw.push(looped);
    }
    assert!(!saw[0], "P4Update must never loop");
    assert!(saw[1], "ez-Segway must loop in the Fig. 2 scenario");
}

/// The benchmark's ft512 seed-1 batch under congestion-aware ez-Segway
/// and P4Update: both complete it with nothing stranded. In its ez-Segway
/// run several SegmentDones of one flow reach the global ingress before
/// its Update does, and the ingress must replay them all to report the
/// flow done.
#[test]
fn ez_segway_and_p4update_complete_the_ft512_batch() {
    use p4update::traffic::bench_workload;

    let topo = topologies::synthetic_fat_tree_512();
    let workload = bench_workload(&topo, 1);

    for system in [
        System::EzSegway { congestion: true },
        System::P4Update(Strategy::ForceSingle),
    ] {
        let config = SimConfig::new(TimingConfig::fat_tree(), 1);
        let mut world = NetworkSim::new(
            topo.clone(),
            system,
            config,
            Some(workload.free_capacity.clone()),
        );
        for u in &workload.updates {
            if let Some(old) = &u.old_path {
                world.install_initial_path(u.flow, old, u.size);
            }
        }
        let batch = world.add_batch(workload.updates.clone());
        let mut sim = simulation(world);
        sim.schedule_at(SimTime::ZERO, Event::Trigger { batch });
        let _ = sim.run_until(SimTime::ZERO + SimDuration::from_secs(600));
        let mut world = sim.into_world();
        let stranded = world.record_stranded_flows();
        assert!(stranded.is_empty(), "{system:?} stranded {stranded:?}");
        assert_eq!(world.metrics().counts().stranded_flows, 0);
        assert_eq!(
            world.metrics().completions.len(),
            workload.updates.len(),
            "{system:?}"
        );
    }
}
