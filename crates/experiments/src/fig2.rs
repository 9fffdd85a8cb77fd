//! Figure 2 (§4.1): inconsistent, reordered updates.
//!
//! The network starts on configuration (a). Configuration (c) is deployed
//! while the control messages that config (c) assumes already applied at
//! `v2` (config (b)'s part) are delayed. ez-Segway installs what it is
//! told and traps packets in the `v3 → v1 → v2 → v3` loop until the
//! delayed messages land; packets die when TTL 64 runs out after ~21 loop
//! traversals. P4Update's local verification makes `v2` hold the chain, so
//! every packet is seen exactly once at `v1` and all packets are delivered
//! at `v4`.

use p4update_core::Strategy;
use p4update_des::{SimDuration, SimTime};
use p4update_messages::DataPacket;
use p4update_net::{topologies, FlowId, FlowUpdate, NodeId, Path};
use p4update_sim::{
    batch_simulation, Event, FaultConfig, NetworkSim, SimConfig, System, TimingConfig,
};

/// Results of one Fig. 2 run for one system.
#[derive(Debug, Clone)]
pub struct Fig2Series {
    /// Legend label.
    pub label: &'static str,
    /// `(time_s, seq)` arrivals at `v1` (Fig. 2b's series).
    pub arrivals_v1: Vec<(f64, u32)>,
    /// Sequence numbers delivered at the egress `v4` (Fig. 2c's series).
    pub delivered_v4: Vec<u32>,
    /// Packets observed more than once at `v1` (looped packets).
    pub looped_at_v1: usize,
    /// Packets that died of TTL exhaustion.
    pub ttl_deaths: usize,
    /// Maximum number of times any single packet was seen at `v1` —
    /// ≈ 21 for the ez-Segway loop (TTL 64 / 3-hop loop).
    pub max_visits_v1: usize,
}

/// Scenario constants (paper §4.1).
const PPS: u64 = 125;
const TTL: u8 = 64;
/// Update (c) is deployed at this time.
const T_UPDATE_C_MS: u64 = 10_050;
/// The delayed (b)-part messages (to `v2`) are released at this time; the
/// gray window of Fig. 2 is `T_UPDATE_C_MS..T_RELEASE_MS`.
const T_RELEASE_MS: u64 = 10_300;
/// Probe traffic runs from 10.0 s to 10.5 s.
const T_TRAFFIC_START_MS: u64 = 10_000;
const T_TRAFFIC_END_MS: u64 = 10_500;

/// Run the scenario for one system.
pub fn run_system(system: System, seed: u64) -> Fig2Series {
    let topo = topologies::fig2_chain();
    let flow = FlowId(0);
    let config_a = Path::new(topologies::fig2_config_a());
    let config_b = Path::new(topologies::fig2_config_b());
    let config_c = Path::new(topologies::fig2_config_c());

    // The controller believes (b) is in place and computes (c) against it;
    // the (b)-part state at v2 is what the delayed messages would have
    // fixed. We model the delay by holding all controller messages to v2
    // until T_RELEASE.
    let update_c = FlowUpdate::new(flow, Some(config_b.clone()), config_c, 1.0);

    // Fast-forwarding-plane timing: the §4.1 demonstration runs on an
    // emulated chain where BMv2 forwards a 125 pps probe stream without
    // queueing; the loop must spin fast enough to exhaust TTL 64 inside
    // the inconsistency window.
    let timing = TimingConfig {
        switch_proc_ms: 0.05,
        ..TimingConfig::wan_multi_flow(topo.centroid())
    };
    let faults = FaultConfig {
        hold_ctrl_to: Some((NodeId(2), SimDuration::from_millis(T_RELEASE_MS))),
        ..FaultConfig::NONE
    };
    let config = SimConfig::new(timing, seed).with_faults(faults);

    let world = NetworkSim::new(topo, system, config, None);
    let t_update_c = SimTime::ZERO + SimDuration::from_millis(T_UPDATE_C_MS);
    let mut sim = batch_simulation(world, vec![update_c], t_update_c);
    // The *actual* data plane runs configuration (a) — overwrite the
    // bootstrap (which installed the controller's assumed (b) state).
    sim.world_mut().install_initial_path(flow, &config_a, 1.0);
    // 125 pps probe stream.
    let interval_ns = 1_000_000_000 / PPS;
    let mut t = T_TRAFFIC_START_MS * 1_000_000;
    let mut seq = 0;
    while t < T_TRAFFIC_END_MS * 1_000_000 {
        sim.schedule_at(
            SimTime::from_nanos(t),
            Event::InjectPacket {
                node: NodeId(0),
                pkt: DataPacket {
                    flow,
                    seq,
                    ttl: TTL,
                    tag: None,
                },
                egress_hint: NodeId(4),
            },
        );
        seq += 1;
        t += interval_ns;
    }
    let _ = sim.run_until(SimTime::ZERO + SimDuration::from_secs(12));
    let world = sim.into_world();

    let arrivals_v1: Vec<(f64, u32)> = world
        .metrics()
        .arrivals_at(NodeId(1))
        .into_iter()
        .map(|(t, s)| (t.as_secs_f64(), s))
        .collect();
    let mut visit_counts = std::collections::BTreeMap::new();
    for &(_, s) in &arrivals_v1 {
        *visit_counts.entry(s).or_insert(0usize) += 1;
    }
    Fig2Series {
        label: crate::scenarios::system_label(system),
        looped_at_v1: world.metrics().duplicate_arrivals_at(NodeId(1)),
        max_visits_v1: visit_counts.values().copied().max().unwrap_or(0),
        delivered_v4: world.metrics().delivered_seqs_at(NodeId(4)),
        ttl_deaths: world.metrics().counts().ttl_deaths as usize,
        arrivals_v1,
    }
}

/// Run the full Fig. 2 comparison: SL-P4Update vs ez-Segway.
pub fn run(seed: u64) -> (Fig2Series, Fig2Series) {
    let p4 = run_system(System::P4Update(Strategy::ForceSingle), seed);
    let ez = run_system(System::EzSegway { congestion: false }, seed);
    (p4, ez)
}

/// Print the figure's data as text rows.
pub fn print(seed: u64) {
    let (p4, ez) = run(seed);
    println!("# Fig. 2 — inconsistent update scenario (§4.1)");
    println!(
        "# window: update (c) at {:.1}s, delayed messages released at {:.1}s",
        T_UPDATE_C_MS as f64 / 1000.0,
        T_RELEASE_MS as f64 / 1000.0
    );
    for s in [&p4, &ez] {
        // Injection count: ceil of window / interval (the stream starts at
        // the window's first instant).
        let total = ((T_TRAFFIC_END_MS - T_TRAFFIC_START_MS) * PPS).div_ceil(1000);
        println!(
            "{:<14} arrivals@v1={:<5} looped_pkts@v1={:<4} max_visits@v1={:<3} delivered@v4={}/{} ttl_deaths={}",
            s.label,
            s.arrivals_v1.len(),
            s.looped_at_v1,
            s.max_visits_v1,
            s.delivered_v4.len(),
            total,
            s.ttl_deaths,
        );
    }
    println!("# Fig. 2b series (time_s seq), first 5 rows each:");
    for s in [&p4, &ez] {
        for (t, q) in s.arrivals_v1.iter().take(5) {
            println!("{:<14} {t:.4} {q}", s.label);
        }
    }
}
