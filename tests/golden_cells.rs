//! The canonical bench cells as a cross-commit fixed point.
//!
//! These are the deterministic cells of the retired perf harness's
//! `--smoke --strip-timing` artifact, recorded at the last commit that
//! had it: gravity-model multi-flow updates at load factor 0.55 on
//! `fig1` (seeds 1-2) and `ft64` (seed 1) for all four systems, on the
//! sequential engine with every library default. They pin what no other
//! test compares *across commits*: event counts, peak queue depth and the
//! FCT percentiles. A change that moves any of them has changed simulated
//! behaviour (timing model, path-table values, RNG stream, protocol
//! logic), not just its implementation.
//!
//! The `fig1-lossy` group runs the same `fig1` workload under 5 % control
//! loss, 5 ms jitter and the §11 recovery timer (300 ms), P4Update only:
//! it pins the retry path — `on_timer`'s flow order, the seeded drops and
//! jitter draws, duplicate-UIM chain regeneration — that the fault-free
//! cells never enter.

use p4update::core::Strategy;
use p4update::des::{Samples, SimDuration, SimRng, SimTime};
use p4update::net::{topologies, Topology};
use p4update::sim::{simulation, Event, FaultConfig, NetworkSim, SimConfig, System, TimingConfig};
use p4update::traffic::multi_flow;

struct Cell {
    system: System,
    events: u64,
    completed_flows: usize,
    stranded_flows: usize,
    peak_queue_depth: usize,
    control_drops: u64,
    unm_deliveries: u64,
    fct_p50_ms: f64,
    fct_p99_ms: f64,
}

const SL: System = System::P4Update(Strategy::ForceSingle);
const DL: System = System::P4Update(Strategy::ForceDual);
const EZ: System = System::EzSegway { congestion: true };
const CENTRAL: System = System::Central { congestion: true };

#[rustfmt::skip]
const FIG1: [Cell; 4] = [
    Cell { system: SL, events: 261, completed_flows: 16, stranded_flows: 0, peak_queue_depth: 35, control_drops: 0, unm_deliveries: 53, fct_p50_ms: 208.19797, fct_p99_ms: 320.60632515 },
    Cell { system: DL, events: 505, completed_flows: 16, stranded_flows: 0, peak_queue_depth: 36, control_drops: 0, unm_deliveries: 106, fct_p50_ms: 213.3396865, fct_p99_ms: 326.79234125 },
    Cell { system: EZ, events: 220, completed_flows: 16, stranded_flows: 0, peak_queue_depth: 36, control_drops: 0, unm_deliveries: 0, fct_p50_ms: 215.02139499999998, fct_p99_ms: 346.60632515 },
    Cell { system: CENTRAL, events: 215, completed_flows: 16, stranded_flows: 0, peak_queue_depth: 10, control_drops: 0, unm_deliveries: 0, fct_p50_ms: 290.2380665, fct_p99_ms: 402.55549345 },
];

// Fat-tree timing draws each switch report's control latency when the
// report is sent, one event per report fewer than a controller-side draw.
#[rustfmt::skip]
const FT64: [Cell; 4] = [
    Cell { system: SL, events: 1466, completed_flows: 64, stranded_flows: 0, peak_queue_depth: 254, control_drops: 0, unm_deliveries: 190, fct_p50_ms: 1689.4414794999998, fct_p99_ms: 1973.22786909 },
    Cell { system: DL, events: 2205, completed_flows: 64, stranded_flows: 0, peak_queue_depth: 254, control_drops: 0, unm_deliveries: 380, fct_p50_ms: 1685.139865, fct_p99_ms: 1899.9036900899998 },
    Cell { system: EZ, events: 1098, completed_flows: 64, stranded_flows: 0, peak_queue_depth: 294, control_drops: 0, unm_deliveries: 0, fct_p50_ms: 1763.1608740000001, fct_p99_ms: 2071.64752008 },
    Cell { system: CENTRAL, events: 764, completed_flows: 64, stranded_flows: 0, peak_queue_depth: 104, control_drops: 0, unm_deliveries: 0, fct_p50_ms: 2245.8760389999998, fct_p99_ms: 2628.98635576 },
];

#[rustfmt::skip]
const FIG1_LOSSY: [Cell; 2] = [
    Cell { system: SL, events: 292, completed_flows: 16, stranded_flows: 0, peak_queue_depth: 35, control_drops: 5, unm_deliveries: 66, fct_p50_ms: 251.9361055, fct_p99_ms: 460.21337044999996 },
    Cell { system: DL, events: 503, completed_flows: 16, stranded_flows: 0, peak_queue_depth: 36, control_drops: 8, unm_deliveries: 134, fct_p50_ms: 244.995302, fct_p99_ms: 471.50103519999993 },
];

const LOSSY: FaultConfig = FaultConfig {
    drop_ctrl_to_switch: 0.05,
    drop_switch_to_switch: 0.05,
    jitter_ms: 5.0,
    hold_ctrl_to: None,
};

/// Run `cell.system` on `topo` under `base` (reseeded) for seeds
/// `1..=seeds` and compare the aggregate against the pinned cell, bit for
/// bit.
fn check(scale: &str, topo: &Topology, base: SimConfig, seeds: u64, cell: &Cell) {
    let (mut events, mut peak, mut stranded) = (0u64, 0usize, 0usize);
    let (mut drops, mut unms) = (0u64, 0u64);
    let mut fct = Samples::new();
    for seed in 1..=seeds {
        let workload = multi_flow(topo, &mut SimRng::new(seed), 0.55);
        let config = SimConfig { seed, ..base };
        let mut world = NetworkSim::new(
            topo.clone(),
            cell.system,
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
        events += sim.events_delivered();
        peak = peak.max(sim.peak_queue_depth());
        let mut world = sim.into_world();
        stranded += world.record_stranded_flows().len();
        drops += world.metrics().counts().control_drops;
        unms += world.metrics().counts().unm_deliveries;
        for u in &workload.updates {
            if let Some(t) = world.metrics().last_completion(&[u.flow]) {
                fct.push(t.as_millis_f64());
            }
        }
    }
    let ps = fct.percentiles(&[50.0, 99.0]);
    let got = (events, fct.len(), stranded, peak, drops, unms, ps[0], ps[1]);
    let want = (
        cell.events,
        cell.completed_flows,
        cell.stranded_flows,
        cell.peak_queue_depth,
        cell.control_drops,
        cell.unm_deliveries,
        cell.fct_p50_ms,
        cell.fct_p99_ms,
    );
    assert_eq!(got, want, "{scale} {:?}", cell.system);
}

#[test]
fn canonical_cells_are_unchanged() {
    let fig1 = topologies::fig1();
    let wan = SimConfig::new(TimingConfig::wan_multi_flow(fig1.centroid()), 0);
    for cell in &FIG1 {
        check("fig1", &fig1, wan, 2, cell);
    }
    let lossy = wan.with_faults(LOSSY).with_retry_ms(300.0);
    for cell in &FIG1_LOSSY {
        check("fig1-lossy", &fig1, lossy, 2, cell);
    }
    let ft64 = topologies::synthetic_fat_tree_64();
    let dc = SimConfig::new(TimingConfig::fat_tree(), 0);
    for cell in &FT64 {
        check("ft64", &ft64, dc, 1, cell);
    }
}
