//! The incremental checker held to the from-scratch oracle after every
//! event: the explorer's registry and its byzantine scenarios under random
//! walks, and the four systems on multi-flow batches under random fault
//! mixes. Run at `PROPCHECK_SCALE=16` by `scripts/check.sh`.
//!
//! The registry is `p4update-explore`'s, which links this crate's library
//! build rather than this test build, so its worlds are another
//! `NetworkSim` type: [`agree!`] reads either through their public fields.

use crate::checker::{oracle, FlowSpec};
use crate::config::{FaultConfig, SimConfig, TimingConfig};
use crate::network::{batch_simulation, NetworkSim, System};
use p4update_core::Strategy;
use p4update_des::propcheck::{cases, forall};
use p4update_des::{SimDuration, SimRng, SimTime};
use p4update_explore::{scenarios, FreePolicy, TraceChooser};
use p4update_net::{topologies, FlowId, NodeId, Topology};
use p4update_traffic::multi_flow;
use std::cell::Cell;
use std::collections::BTreeMap;

/// Step `$sim` to `$horizon`, asserting after every event that the world's
/// record equals the oracle's; evaluates to the number of violations
/// recorded.
macro_rules! agree {
    ($sim:expr, $horizon:expr) => {{
        let (mut sim, horizon) = ($sim, $horizon);
        let mut record = oracle::Record::default();
        while let Some(now) = sim.step() {
            let world = sim.world();
            let flows: Vec<(FlowId, FlowSpec)> = world
                .checked_flows()
                .map(|(f, s)| {
                    (
                        f,
                        FlowSpec {
                            ingress: s.ingress,
                            size: s.size,
                        },
                    )
                })
                .collect();
            let uib = |n: NodeId| world.switches.get(n).map(|sw| &sw.state.uib);
            record.after_event(now, oracle::check(world.topology(), uib, &flows));
            assert_eq!(world.violations, record.0, "at {now:?}");
            if now > horizon {
                break;
            }
        }
        record.0.len()
    }};
}

/// A random walk over the choice points: faults, tie-breaks and lies.
fn walker(rng: &mut SimRng) -> Box<TraceChooser> {
    let free = FreePolicy::Random {
        rng: SimRng::new(rng.next_u64()),
        fault_p: 0.04,
        tie_p: 0.05,
        byz_p: 0.25,
    };
    Box::new(TraceChooser::with_policy(BTreeMap::new(), free).0)
}

#[test]
fn the_checker_agrees_with_the_oracle_on_the_registry_and_its_byzantine_scenarios() {
    let mut names: Vec<String> = scenarios::names().into_iter().map(String::from).collect();
    names.extend(
        [
            "fig2-ez+byz-ack-k1",
            "fig2-ez+byz-any-k2",
            "fig2-p4+byz-any-k2",
            "fig1-dual+byz-any-k1+repl",
            "multigw-dual+byz-dep-k1",
            "fig1-single+repl",
        ]
        .map(String::from),
    );
    let found = Cell::new(0);
    for name in &names {
        let walks = if name.starts_with("ft512") { 1 } else { 4 };
        forall(name, cases(walks), |rng| {
            for seed in 1..=3 {
                let built = scenarios::build(name, seed).expect("registered");
                let sim = built.sim.with_chooser(walker(rng));
                found.set(found.get() + agree!(sim, built.horizon));
            }
        });
    }
    assert!(
        found.get() > 0,
        "no walk broke anything: the record went unchecked"
    );
}

/// Fresh deployments among the updates, congestion-blind baselines and
/// seeded faults give loops, blackholes and overloads a chance.
#[test]
fn the_checker_agrees_with_the_oracle_on_every_system_under_random_faults() {
    let topos: [(fn() -> Topology, bool); 4] = [
        (topologies::fig1, false),
        (topologies::b4, false),
        (topologies::internet2, false),
        (|| topologies::fat_tree(4), true),
    ];
    let found = Cell::new(0);
    forall("every_system_under_random_faults", cases(8), |rng| {
        let (build, dc) = topos[rng.uniform_usize(topos.len())];
        let topo = build();
        let load = rng.uniform_range(0.55, 0.95);
        let mut workload = multi_flow(&topo, rng, load);
        // Some flows deploy fresh, at up to four times their size: a
        // congestion-blind baseline overloads their links.
        for u in &mut workload.updates {
            if rng.chance(0.2) {
                u.old_path = None;
                u.size *= rng.uniform_range(1.0, 4.0);
            }
        }
        let timing = if dc {
            TimingConfig::fat_tree()
        } else {
            TimingConfig::wan_multi_flow(topo.centroid())
        };
        let faults = FaultConfig {
            drop_ctrl_to_switch: rng.uniform_range(0.0, 0.1),
            drop_switch_to_switch: rng.uniform_range(0.0, 0.1),
            jitter_ms: rng.uniform_range(0.0, 50.0),
            hold_ctrl_to: None,
        };
        let retry = if rng.chance(0.5) { 300.0 } else { 0.0 };
        let config = SimConfig::new(timing, rng.next_u64())
            .with_faults(faults)
            .with_retry_ms(retry);
        let congestion = rng.chance(0.5);
        let systems = [
            System::P4Update(Strategy::ForceSingle),
            System::P4Update(Strategy::ForceDual),
            System::EzSegway { congestion },
            System::Central { congestion },
        ];
        for system in systems {
            let free = Some(workload.free_capacity.clone());
            let world = NetworkSim::new(topo.clone(), system, config, free);
            let updates = workload.updates.clone();
            let sim = batch_simulation(world, updates, SimTime::ZERO).with_chooser(walker(rng));
            // Long enough for a fault-free batch to finish; a stalled one
            // only polls on.
            let horizon = SimTime::ZERO + SimDuration::from_secs(20);
            found.set(found.get() + agree!(sim, horizon));
        }
    });
    assert!(
        found.get() > 0,
        "no run broke anything: the record went unchecked"
    );
}
