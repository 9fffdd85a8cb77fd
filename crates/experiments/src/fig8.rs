//! Figure 8 (§9.3): control-plane preparation time.
//!
//! Wall-clock ratio of DL-P4Update's preparation (distance labeling + UIM
//! generation; a DL switch inherits its segment ID, so the controller does
//! not segment) to ez-Segway's (segmentation +
//! dependency wiring + message generation; plus the global congestion
//! dependency graph when congestion freedom is on), per topology, for a
//! 1000-update batch timed over `runs` repetitions. The paper reports
//! ≈ 0.7 without congestion freedom and 0.002–0.02 with it.

use p4update_baselines::{ez_prepare, ez_prepare_congestion};
use p4update_core::{prepare_update, Strategy};
use p4update_des::{Samples, SimRng};
use p4update_messages::EzPriority;
use p4update_net::{topologies, ArcMap, FlowUpdate, Topology, Version};
use p4update_traffic::multi_flow;
use std::time::Instant;

/// The four topologies of Fig. 8, with their (nodes, edges) signature.
pub fn fig8_topologies() -> Vec<Topology> {
    vec![
        topologies::b4(),
        topologies::internet2(),
        topologies::att_mpls(),
        topologies::chinanet(),
    ]
}

/// One topology's measured ratio.
#[derive(Debug, Clone)]
pub struct RatioRow {
    /// Topology name.
    pub name: String,
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Per-run preparation-time ratios (DL-P4Update / ez-Segway).
    pub ratios: Samples,
    /// Each system's fastest run in host seconds, DL-P4Update's first.
    pub fastest: (f64, f64),
}

impl RatioRow {
    /// The ratio of the two systems' fastest runs. A batch takes well
    /// under a millisecond, so one cold or preempted run can outweigh
    /// every other in the mean; it cannot lower a minimum.
    pub fn fastest_ratio(&self) -> f64 {
        self.fastest.0 / self.fastest.1.max(1e-12)
    }
}

/// Updates per timed batch (the paper records "1000 updates").
const BATCH: usize = 1000;

/// Build ~1000 updates grouped by workload: the congestion dependency
/// graph is a per-workload computation (all concurrently-updating flows),
/// so the grouping must survive into the measurement.
fn batch_for(topo: &Topology, rng: &mut SimRng) -> Vec<Vec<FlowUpdate>> {
    let mut groups = Vec::new();
    let mut total = 0;
    while total < BATCH {
        let w = multi_flow(topo, rng, 0.55);
        total += w.updates.len();
        groups.push(w.updates);
    }
    groups
}

/// Measure one topology: `runs` repetitions of preparing a 1000-update
/// batch with each system, the two timed back to back and taking turns
/// at going first.
pub fn measure(topo: &Topology, congestion: bool, runs: u64) -> RatioRow {
    let mut rng = SimRng::new(42);
    let groups = batch_for(topo, &mut rng);
    let cap = ArcMap::new(topo, |link| link.capacity);
    let p4 = || {
        let t0 = Instant::now();
        for group in &groups {
            for u in group {
                let p = prepare_update(u, Version(2), Strategy::ForceDual);
                std::hint::black_box(&p);
            }
        }
        t0.elapsed().as_secs_f64()
    };
    let ez = || {
        let t0 = Instant::now();
        for group in &groups {
            if congestion {
                // ez-Segway computes the dependency graph over the
                // concurrently-updating flows of each workload.
                let prios = ez_prepare_congestion(group, &cap);
                std::hint::black_box(&prios);
                for u in group {
                    let plan = ez_prepare(u, *prios.get(&u.flow).unwrap_or(&EzPriority::Low));
                    std::hint::black_box(&plan);
                }
            } else {
                for u in group {
                    let plan = ez_prepare(u, EzPriority::Low);
                    std::hint::black_box(&plan);
                }
            }
        }
        t0.elapsed().as_secs_f64()
    };
    let mut ratios = Samples::new();
    let mut fastest = (f64::INFINITY, f64::INFINITY);
    for run in 0..runs {
        let (p4_time, ez_time) = if run % 2 == 0 {
            let p4_time = p4();
            (p4_time, ez())
        } else {
            let ez_time = ez();
            (p4(), ez_time)
        };
        ratios.push(p4_time / ez_time.max(1e-12));
        fastest = (fastest.0.min(p4_time), fastest.1.min(ez_time));
    }
    RatioRow {
        name: topo.name.clone(),
        nodes: topo.node_count(),
        edges: topo.link_count(),
        ratios,
        fastest,
    }
}

/// Run the full figure (both panels share the measurement, differing in
/// `congestion`).
pub fn run(congestion: bool, runs: u64) -> Vec<RatioRow> {
    fig8_topologies()
        .iter()
        .map(|t| measure(t, congestion, runs))
        .collect()
}

/// Print the figure's data as text rows.
pub fn print(congestion: bool, runs: u64) {
    let rows = run(congestion, runs);
    let which = if congestion {
        "8b (with congestion freedom)"
    } else {
        "8a (w/o congestion freedom)"
    };
    println!("# Fig. {which} — CP preparation runtime ratio DL-P4Update / ez-Segway");
    println!("# {runs} runs of a {BATCH}-update batch; 99% CI half-width in parentheses");
    for r in rows {
        println!(
            "{:<10} ({:>2}, {:>2})  ratio {:.4} (±{:.4})",
            r.name,
            r.nodes,
            r.edges,
            r.ratios.mean(),
            r.ratios.ci99_half_width()
        );
    }
}
