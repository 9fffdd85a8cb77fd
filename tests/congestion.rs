//! Congestion freedom under multi-flow updates (§7.4, §A.2, Corollaries
//! 1–4): random near-capacity workloads on the evaluation topologies, with
//! the checker armed on every event. Capacity may defer moves, but actual
//! link usage must never exceed capacity at any instant, for either
//! mechanism.

use p4update::core::Strategy;
use p4update::dataplane::SwitchLogic;
use p4update::des::{SimDuration, SimRng, SimTime};
use p4update::net::{topologies, FlowId, CAPACITY_SLACK};
use p4update::sim::{batch_simulation, NetworkSim, SimConfig, System, TimingConfig, Violation};
use p4update::traffic::multi_flow;

fn run_workload(
    topo: p4update::net::Topology,
    strategy: Strategy,
    seed: u64,
    load: f64,
) -> NetworkSim {
    let mut rng = SimRng::new(seed);
    let workload = multi_flow(&topo, &mut rng, load);
    let config = SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), seed);
    let world = NetworkSim::new(topo, System::P4Update(strategy), config, None);
    let mut sim = batch_simulation(world, workload.updates, SimTime::ZERO);
    let _ = sim.run_until(SimTime::ZERO + SimDuration::from_secs(300));
    sim.into_world()
}

/// Corollaries 1 and 3: the data-plane scheduler never lets actual link
/// usage exceed capacity, under either mechanism, at any point of a
/// near-capacity multi-flow migration.
#[test]
fn multi_flow_migrations_never_violate_capacity() {
    for (mk_topo, seeds) in [
        (topologies::b4 as fn() -> p4update::net::Topology, 0..4u64),
        (
            topologies::internet2 as fn() -> p4update::net::Topology,
            0..4u64,
        ),
    ] {
        for seed in seeds {
            for strategy in [Strategy::Auto, Strategy::ForceDual] {
                let world = run_workload(mk_topo(), strategy, 7000 + seed, 0.55);
                let congestion: Vec<_> = world
                    .violations
                    .iter()
                    .filter(|(_, v)| matches!(v, Violation::Congestion { .. }))
                    .collect();
                assert!(
                    congestion.is_empty(),
                    "{} seed {seed} {strategy:?}: {congestion:?}",
                    world.topology().name
                );
                // Loop/blackhole freedom holds alongside (Corollary 1/3).
                assert!(
                    world.violations.is_empty(),
                    "{} seed {seed} {strategy:?}: {:?}",
                    world.topology().name,
                    world.violations
                );
            }
        }
    }
}

/// Liveness at moderate load: when the transition is realizable, all
/// flows complete despite deferrals.
#[test]
fn moderate_load_multi_flow_completes() {
    for seed in 0..5u64 {
        let topo = topologies::b4();
        let mut rng = SimRng::new(9000 + seed);
        let workload = multi_flow(&topo, &mut rng, 0.25);
        let flows: Vec<FlowId> = workload.updates.iter().map(|u| u.flow).collect();
        let config = SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), seed);
        let world = NetworkSim::new(topo, System::P4Update(Strategy::Auto), config, None);
        let mut sim = batch_simulation(world, workload.updates, SimTime::ZERO);
        let _ = sim.run_until(SimTime::ZERO + SimDuration::from_secs(300));
        let world = sim.into_world();
        assert!(
            world.violations.is_empty(),
            "seed {seed}: {:?}",
            world.violations
        );
        assert!(
            world.metrics().last_completion(&flows).is_some(),
            "seed {seed}: some flow never completed at moderate load"
        );
    }
}

/// Fat-tree multi-flow with the DC control-latency model: consistency and
/// completion hold there too (the Fig. 7b substrate).
#[test]
fn fat_tree_multi_flow_is_consistent() {
    for seed in 0..3u64 {
        let topo = topologies::fat_tree(4);
        let mut rng = SimRng::new(11_000 + seed);
        let workload = multi_flow(&topo, &mut rng, 0.3);
        let config = SimConfig::new(TimingConfig::fat_tree(), seed);
        let world = NetworkSim::new(topo, System::P4Update(Strategy::Auto), config, None);
        let mut sim = batch_simulation(world, workload.updates, SimTime::ZERO);
        let _ = sim.run_until(SimTime::ZERO + SimDuration::from_secs(300));
        let world = sim.into_world();
        assert!(
            world.violations.is_empty(),
            "seed {seed}: {:?}",
            world.violations
        );
    }
}

/// Regression: under `ForceSingle`, two blocked flows that each sit on the
/// link the other wants used to re-raise and retry each other without
/// bound (`gate_and_install` <-> `process_unm`, a stack overflow at any
/// stack size). The run must drain, stay consistent, and strand exactly the
/// flows caught in the circular capacity wait EXPERIMENTS.md documents:
/// each stranded flow lacks room on a link that another stranded flow
/// still holds, so none of them can ever be the first to move.
#[test]
fn mutually_blocked_flows_park_instead_of_recursing() {
    type MkTopo = fn() -> p4update::net::Topology;
    for (mk_topo, seed, flows, completed) in [
        (topologies::att_mpls as MkTopo, 123_478u64, 25, 23),
        (topologies::b4 as MkTopo, 5656, 12, 10),
        (topologies::internet2 as MkTopo, 12_129, 16, 12),
    ] {
        let mut world = run_workload(mk_topo(), Strategy::ForceSingle, seed, 0.55);
        let name = world.topology().name.clone();
        assert!(
            world.violations.is_empty(),
            "{name}: {:?}",
            world.violations
        );
        assert_eq!(world.metrics().counts().alarms, 0, "{name}");
        let stranded = world.record_stranded_flows();
        assert_eq!(world.checked_flows().count(), flows, "{name}");
        assert_eq!(flows - stranded.len(), completed, "{name}: {stranded:?}");
        for &f in &stranded {
            let waits_on_a_stranded_holder = world.switches.values().any(|sw| {
                let uib = &sw.state.uib;
                let e = uib.read(f);
                let Some(wanted) = e.staged_next_hop.get() else {
                    return false;
                };
                e.uim_version > e.applied_version
                    && e.active_next_hop.get() != Some(wanted)
                    && !sw.state.capacity_suffices(wanted, e.flow_size)
                    && stranded
                        .iter()
                        .any(|&g| g != f && uib.read(g).active_next_hop.get() == Some(wanted))
            });
            assert!(
                waits_on_a_stranded_holder,
                "{name}: {f:?} is stranded outside the circular capacity wait"
            );
        }
    }
}

/// The baselines' strands in `wan-sweep` (DESIGN §10), where P4Update
/// completes every flow: each stranded flow waits for a link on its new
/// path that lacks room for it, and the room it lacks is held by the old
/// rule of a flow that completed along another path, or (fat-tree 13's
/// flow 11) by a stranded flow that waits so. Neither baseline
/// removes the rules, or frees the capacity, of the nodes an update leaves
/// behind; P4Update's cleanup (§11) does, and without that load each
/// stranded flow would fit. Internet2 172, where no atomic order exists,
/// is `tests/optimal_oracle.rs`'s.
#[test]
fn baselines_strand_behind_rules_a_completed_update_left_behind() {
    type MkTopo = fn() -> p4update::net::Topology;
    let fat_tree_k4: MkTopo = || topologies::fat_tree(4);
    for (mk_topo, seed, ez_stranded, central_stranded) in [
        (
            topologies::internet2 as MkTopo,
            169u64,
            &[10u32][..],
            &[6u32][..],
        ),
        (topologies::att_mpls, 48, &[21], &[20]),
        (topologies::att_mpls, 123, &[11], &[11]),
        (fat_tree_k4, 13, &[3, 11], &[3, 11]),
    ] {
        let topo = mk_topo();
        let timing = if topo.name.starts_with("fat-tree") {
            TimingConfig::fat_tree()
        } else {
            TimingConfig::wan_multi_flow(topo.centroid())
        };
        let workload = multi_flow(&topo, &mut SimRng::new(seed), 0.55);
        for (system, expected) in [
            (System::P4Update(Strategy::ForceSingle), &[][..]),
            (System::EzSegway { congestion: true }, ez_stranded),
            (System::Central { congestion: true }, central_stranded),
        ] {
            let cell = format!("{} seed {seed} {system:?}", topo.name);
            let config = SimConfig::new(timing, seed);
            let free = Some(workload.free_capacity.clone());
            let world = NetworkSim::new(topo.clone(), system, config, free);
            let mut sim = batch_simulation(world, workload.updates.clone(), SimTime::ZERO);
            let _ = sim.run_until(SimTime::ZERO + SimDuration::from_secs(600));
            let mut world = sim.into_world();
            let stranded = world.record_stranded_flows();
            let expected: Vec<FlowId> = expected.iter().copied().map(FlowId).collect();
            assert_eq!(stranded, expected, "{cell}");
            let sizes: Vec<(FlowId, f64)> =
                world.checked_flows().map(|(f, s)| (f, s.size)).collect();
            // Per stranded flow and link of its new path it has not moved
            // onto and lacks room on: what it lacks, the load of rules that
            // completed flows left behind there, and the stranded holders.
            let mut waits = Vec::new();
            for &f in &stranded {
                let update = &workload.updates[f.0 as usize];
                assert_eq!(update.flow, f);
                for (a, b) in update.new_path.edges() {
                    let uib = &world.switches[a].state.uib;
                    let holds = |g: FlowId| uib.read(g).active_next_hop.get() == Some(b);
                    if holds(f) {
                        continue;
                    }
                    let link = topo.link_between(a, b).expect("a link");
                    let mut room = topo.link(link).capacity;
                    let (mut left_behind, mut holders) = (0.0, Vec::new());
                    for &(g, size) in sizes.iter().filter(|&&(g, _)| holds(g)) {
                        room -= size;
                        if stranded.contains(&g) {
                            holders.push((g, size));
                        } else if workload.updates[g.0 as usize].new_path.successor(a) != Some(b) {
                            left_behind += size;
                        }
                    }
                    if update.size > room + CAPACITY_SLACK {
                        waits.push((f, update.size - room, left_behind, holders));
                    }
                }
            }
            // A flow waits behind a left-behind rule when that rule's load
            // covers what it lacks; one that does not waits for a stranded
            // flow that waits so.
            let direct: Vec<FlowId> = waits
                .iter()
                .filter(|(_, short, left, _)| left + CAPACITY_SLACK >= *short)
                .map(|w| w.0)
                .collect();
            for &f in &stranded {
                let chained = waits.iter().any(|(g, short, left, holders)| {
                    let freed: f64 = holders
                        .iter()
                        .filter(|(h, _)| direct.contains(h))
                        .map(|h| h.1)
                        .sum();
                    *g == f && left + freed + CAPACITY_SLACK >= *short
                });
                assert!(
                    direct.contains(&f) || chained,
                    "{cell}: {f:?} waits on something else: {waits:?}"
                );
            }
        }
    }
}

/// A run without faults ends with no message parked at any switch: a
/// parked message makes its switch re-circulate it until the horizon.
/// Covered on `wan-sweep`'s cells — its five topologies × seeds 1-40,
/// `multi_flow` at load 0.55 — under all four systems.
#[test]
fn fault_free_runs_end_with_no_parked_message() {
    let systems = [
        System::P4Update(Strategy::ForceSingle),
        System::P4Update(Strategy::ForceDual),
        System::EzSegway { congestion: true },
        System::Central { congestion: true },
    ];
    let mut parked_runs = Vec::new();
    for (name, topo) in [
        ("b4", topologies::b4()),
        ("internet2", topologies::internet2()),
        ("att_mpls", topologies::att_mpls()),
        ("chinanet", topologies::chinanet()),
        ("fat_tree_k4", topologies::fat_tree(4)),
    ] {
        let timing = if name == "fat_tree_k4" {
            TimingConfig::fat_tree()
        } else {
            TimingConfig::wan_multi_flow(topo.centroid())
        };
        for seed in 1..=40u64 {
            let workload = multi_flow(&topo, &mut SimRng::new(seed), 0.55);
            for system in systems {
                let config = SimConfig::new(timing, seed);
                let free = Some(workload.free_capacity.clone());
                let world = NetworkSim::new(topo.clone(), system, config, free);
                let mut sim = batch_simulation(world, workload.updates.clone(), SimTime::ZERO);
                let _ = sim.run_until(SimTime::ZERO + SimDuration::from_secs(600));
                let world = sim.into_world();
                let parked: usize = world
                    .switches
                    .values()
                    .map(|sw| sw.logic.parked_messages())
                    .sum();
                if parked > 0 {
                    parked_runs.push(format!("{name} seed {seed} {system:?}: {parked}"));
                }
            }
        }
    }
    assert!(
        parked_runs.is_empty(),
        "runs that end with parked messages: {parked_runs:#?}"
    );
}
