//! The scenario registry: named, deterministic simulation setups the
//! explorer searches over and committed traces replay against.
//!
//! A scenario fixes everything except the choice sequence: topology,
//! system under test, update batch, timing model, trigger time, and
//! horizon. Together with a seed it determines the base run exactly; a
//! [`crate::Trace`] then only needs `(scenario, seed, choices)` to
//! reproduce a schedule bit-for-bit.
//!
//! Every run is checked after every event (the oracle). Every control
//! message of any world is a fault choice point, and nothing a run does
//! depends on the build profile, so a committed trace replays identically
//! in debug and release.

use p4update_core::Strategy;
use p4update_des::{SimDuration, SimTime};
use p4update_net::{topologies, FlowId, FlowUpdate, Path, PathSolver};
use p4update_sim::{
    batch_simulation, simulation, ByzVector, ByzantineConfig, Event, NetworkSim, SimConfig, System,
    TimingConfig,
};

/// A named scenario's metadata.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioInfo {
    /// Registry name (what trace files reference).
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// Whether an adversarial schedule is *expected* to break this
    /// scenario. P4Update scenarios are marked `false`: a search hit
    /// against one of them is a bug in the implementation, and CI treats
    /// it as such.
    pub vulnerable: bool,
}

/// All registered scenarios.
pub const SCENARIOS: &[ScenarioInfo] = &[
    ScenarioInfo {
        name: "fig2-ez",
        about: "Fig. 2 slow-detour chain, ez-Segway deploying (c) from the \
                paper's stale state: faulting v2's repair yields the loop",
        vulnerable: true,
    },
    ScenarioInfo {
        name: "fig2-p4",
        about: "Fig. 2 slow-detour chain, P4Update (single-layer) on the \
                identical stale-state deployment: must never loop",
        vulnerable: false,
    },
    ScenarioInfo {
        name: "fig1-single",
        about: "Fig. 1 topology, P4Update single-layer, the paper's \
                8-node update",
        vulnerable: false,
    },
    ScenarioInfo {
        name: "fig1-dual",
        about: "Fig. 1 topology, P4Update dual-layer, the paper's \
                8-node update",
        vulnerable: false,
    },
    ScenarioInfo {
        name: "multigw-dual",
        about: "11-node many-gateway update, P4Update dual-layer: \
                alternating forward/backward segments (Alg. 2)",
        vulnerable: false,
    },
    ScenarioInfo {
        name: "ft512-dual",
        about: "512-switch synthetic fat-tree, P4Update dual-layer, four \
                concurrent cross-pod migrations: the scale harness's \
                largest topology under adversarial schedules",
        vulnerable: false,
    },
];

/// A built scenario: the ready-to-run simulation (trigger already
/// scheduled, chooser not yet installed) and the horizon to run to.
pub struct BuiltScenario {
    /// The simulation; attach a chooser with
    /// [`p4update_des::Simulation::with_chooser`] before running.
    pub sim: p4update_des::Simulation<NetworkSim>,
    /// Run horizon (scenarios with injected faults may stall, so runs are
    /// time-bounded rather than drained).
    pub horizon: SimTime,
}

/// List the registered scenario names.
pub fn names() -> Vec<&'static str> {
    SCENARIOS.iter().map(|s| s.name).collect()
}

/// Build `name` at `seed`. Returns `None` for unknown names.
///
/// Beyond the registered base names, `build` accepts `+`-separated
/// modifier suffixes (e.g. `fig2-ez+byz-dep-k1`, `fig1-dual+repl`):
///
/// - `byz-<vec>-k<N>` installs the byzantine catalog with vector `<vec>`
///   (`dep`, `stale`, `equiv`, `ack`, or `any` for the full catalog) and
///   a liar budget of `N` switches.
/// - `repl` runs a standby controller with a deterministic failover
///   50 ms after the update trigger (25 ms replication lag) and the §11
///   retry timer enabled so the promoted standby can finish the update.
///
/// Modified names are deliberately *not* in [`SCENARIOS`]: the registry
/// lists base scenarios whose default runs are clean and deterministic,
/// while modifiers parameterize adversarial studies on top of them.
pub fn build(name: &str, seed: u64) -> Option<BuiltScenario> {
    let (base, mods) = parse_mods(name)?;
    match base {
        "fig2-ez" => Some(fig2(System::EzSegway { congestion: false }, seed, mods)),
        "fig2-p4" => Some(fig2(System::P4Update(Strategy::ForceSingle), seed, mods)),
        "fig1-single" => Some(fig1(Strategy::ForceSingle, seed, mods)),
        "fig1-dual" => Some(fig1(Strategy::ForceDual, seed, mods)),
        "multigw-dual" => Some(multi_gateway(seed, mods)),
        "ft512-dual" => Some(ft512(seed, mods)),
        _ => None,
    }
}

/// The base (registry) part of a possibly-modified scenario name:
/// `fig2-ez+byz-dep-k1` → `fig2-ez`. Names without modifiers pass
/// through unchanged.
pub fn base_name(name: &str) -> &str {
    name.split('+').next().unwrap_or(name)
}

/// Parsed modifier suffixes, applied to a scenario's [`SimConfig`] at
/// construction time (the controller standby is built in the world
/// constructor, so modifiers cannot be bolted on afterwards).
#[derive(Debug, Clone, Copy, Default)]
struct Mods {
    byzantine: Option<ByzantineConfig>,
    failover: bool,
}

impl Mods {
    fn apply(self, config: SimConfig, trigger_ms: f64) -> SimConfig {
        let mut config = config;
        if let Some(byz) = self.byzantine {
            config = config.with_byzantine(byz);
        }
        if self.failover {
            // Fail over mid-update (50 ms after the trigger), with the
            // last 25 ms of primary traffic lost to replication lag; the
            // retry timer lets the promoted standby re-drive stalled
            // switches (§11).
            config = config
                .with_failover_at_ms(trigger_ms + 50.0)
                .with_retry_ms(200.0);
        }
        config
    }
}

fn parse_mods(name: &str) -> Option<(&str, Mods)> {
    let mut parts = name.split('+');
    let base = parts.next()?;
    let mut mods = Mods::default();
    for part in parts {
        if let Some(rest) = part.strip_prefix("byz-") {
            let (vec_name, k) = rest.rsplit_once("-k")?;
            let max_liars: u8 = k.parse().ok().filter(|k| (1..=8).contains(k))?;
            let vector = match vec_name {
                "any" => None,
                other => Some(ByzVector::from_name(other)?),
            };
            mods.byzantine = Some(ByzantineConfig { max_liars, vector });
        } else if part == "repl" {
            mods.failover = true;
        } else {
            return None;
        }
    }
    Some((base, mods))
}

/// The Fig. 2 deployment (§4.1), starting from the paper's inconsistent
/// premise: config (a) is what the switches actually run, but the
/// controller believes (b) is in place (its push to `v2` was lost) and
/// now deploys (c). Two in-band chains race: one repairs
/// `v2 → v4`, the other installs `v3 → v1` and flips `v0`. Over
/// [`topologies::fig2_chain_slow_detour`] the repair wins under the
/// default schedule — the base run is clean — so the adversary must
/// *find* a deviation (drop or outlast the repair) to expose the
/// `v3 → v1 → v2 → v3` loop. ez-Segway trusts the controller's stale
/// view and walks into it; P4Update's local verification keeps upstream
/// activation waiting for provably consistent downstream state.
fn fig2(system: System, seed: u64, mods: Mods) -> BuiltScenario {
    let topo = topologies::fig2_chain_slow_detour();
    let flow = FlowId(0);
    let config_a = Path::new(topologies::fig2_config_a());
    let config_b = Path::new(topologies::fig2_config_b());
    let config_c = Path::new(topologies::fig2_config_c());
    let config = mods.apply(
        SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), seed),
        100.0,
    );
    let mut world = NetworkSim::new(topo, system, config, None);
    // Assembled by hand: (a) is installed while the update names (b) as
    // the old path (the §4.1 premise).
    world.install_initial_path(flow, &config_a, 1.0);
    let batch = world.add_batch(vec![FlowUpdate::new(flow, Some(config_b), config_c, 1.0)]);
    let mut sim = simulation(world);
    sim.schedule_at(
        SimTime::ZERO + SimDuration::from_millis(100),
        Event::Trigger { batch },
    );
    BuiltScenario {
        sim,
        horizon: SimTime::ZERO + SimDuration::from_secs(10),
    }
}

/// The Fig. 1 update (8 nodes, old `v0 v4 v2 v7`, new `v0 … v7`).
fn fig1(strategy: Strategy, seed: u64, mods: Mods) -> BuiltScenario {
    let topo = topologies::fig1();
    let flow = FlowId(0);
    let old = Path::new(topologies::fig1_old_path());
    let new = Path::new(topologies::fig1_new_path());
    let config = mods.apply(
        SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), seed),
        0.0,
    );
    let world = NetworkSim::new(topo, System::P4Update(strategy), config, None);
    let update = FlowUpdate::new(flow, Some(old), new, 1.0);
    BuiltScenario {
        sim: batch_simulation(world, vec![update], SimTime::ZERO),
        horizon: SimTime::ZERO + SimDuration::from_secs(120),
    }
}

/// The many-gateway dual-layer update (see
/// [`p4update_net::topologies::multi_gateway`]).
fn multi_gateway(seed: u64, mods: Mods) -> BuiltScenario {
    let topo = topologies::multi_gateway();
    let flow = FlowId(0);
    let old = Path::new(topologies::multi_gateway_old_path());
    let new = Path::new(topologies::multi_gateway_new_path());
    let config = mods.apply(
        SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), seed),
        0.0,
    );
    let world = NetworkSim::new(topo, System::P4Update(Strategy::ForceDual), config, None);
    let update = FlowUpdate::new(flow, Some(old), new, 1.0);
    BuiltScenario {
        sim: batch_simulation(world, vec![update], SimTime::ZERO),
        horizon: SimTime::ZERO + SimDuration::from_secs(120),
    }
}

/// Four concurrent cross-pod migrations on the 512-switch synthetic
/// fat-tree from the scale harness ([`topologies::synthetic_fat_tree_512`]).
/// Each flow moves from its shortest edge-to-edge route to the
/// second-shortest (a different core), so updates overlap at the
/// aggregation layer. The flow count is deliberately small — corpus
/// traces replay in debug CI, and the topology itself is the point.
fn ft512(seed: u64, mods: Mods) -> BuiltScenario {
    let topo = topologies::synthetic_fat_tree_512();
    let edges = topologies::fat_tree_edge_switches(&topo);
    let config = mods.apply(SimConfig::new(TimingConfig::fat_tree(), seed), 0.0);
    let world = NetworkSim::new(
        topo.clone(),
        System::P4Update(Strategy::ForceDual),
        config,
        None,
    );
    // Pair edge switches from pods on opposite sides of the tree.
    let pairs = [
        (edges[0], edges[edges.len() - 1]),
        (edges[1], edges[edges.len() / 2]),
        (edges[edges.len() / 4], edges[edges.len() - 2]),
        (edges[2], edges[3 * edges.len() / 4]),
    ];
    let mut solver = PathSolver::new(&topo);
    let mut updates = Vec::new();
    for (i, &(src, dst)) in pairs.iter().enumerate() {
        let flow = FlowId(i as u32);
        let mut routes = solver.k_shortest(src, dst, 2);
        assert!(routes.len() >= 2, "fat-tree must offer two disjoint routes");
        let new = routes.pop().expect("second route");
        let old = routes.pop().expect("first route");
        updates.push(FlowUpdate::new(flow, Some(old), new, 1.0));
    }
    BuiltScenario {
        sim: batch_simulation(world, updates, SimTime::ZERO),
        horizon: SimTime::ZERO + SimDuration::from_secs(120),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_builds() {
        for info in SCENARIOS {
            let built = build(info.name, 1);
            assert!(built.is_some(), "{} did not build", info.name);
        }
        assert!(build("no-such-scenario", 1).is_none());
    }

    #[test]
    fn modifier_suffixes_parse_and_configure_the_world() {
        let built = build("fig2-ez+byz-dep-k2", 7).expect("byz modifier must build");
        let cfg = built.sim.world().config();
        let byz = cfg.byzantine.expect("catalog installed");
        assert_eq!(byz.max_liars, 2);
        assert_eq!(byz.vector, Some(ByzVector::DependencyLie));
        assert_eq!(cfg.failover_at_ms, None);

        let built = build("fig1-dual+repl", 7).expect("repl modifier must build");
        let cfg = built.sim.world().config();
        assert!(cfg.byzantine.is_none());
        assert_eq!(cfg.failover_at_ms, Some(50.0));
        assert!(cfg.retry_ms > 0.0, "failover recovery needs §11 retries");

        let built = build("fig2-p4+byz-any-k1+repl", 7).expect("stacked modifiers");
        let cfg = built.sim.world().config();
        assert_eq!(cfg.byzantine.expect("catalog").vector, None);
        // fig2 triggers at 100 ms, so failover lands at 150 ms.
        assert_eq!(cfg.failover_at_ms, Some(150.0));

        for bad in [
            "fig2-ez+byz-bogus-k1",
            "fig2-ez+byz-dep-k0",
            "fig2-ez+byz-dep-k9",
            "fig2-ez+repl2",
            "fig2-ez+repl3",
            "fig2-ez+nonsense",
            "no-such-base+byz-dep-k1",
        ] {
            assert!(build(bad, 7).is_none(), "{bad} must not build");
        }
        assert_eq!(base_name("fig2-ez+byz-dep-k1+repl"), "fig2-ez");
        assert_eq!(base_name("fig2-ez"), "fig2-ez");
    }
}
