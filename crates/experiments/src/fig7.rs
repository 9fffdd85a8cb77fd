//! Figure 7 (§9.2): total update time CDFs.
//!
//! Six panels: single-flow scenarios (synthetic Fig. 1, B4, Internet2) and
//! multi-flow scenarios (fat-tree K=4, B4, Internet2), each comparing
//! P4Update (with the §7.5 strategy), ez-Segway, and Central, plus the
//! SL/DL ablation the paper reports in prose.

use crate::scenarios::{run_update_once, system_label};
use p4update_core::Strategy;
use p4update_des::{Samples, SimRng};
use p4update_net::{topologies, FlowId, FlowUpdate, Path, Topology};
use p4update_sim::{System, TimingConfig};
use p4update_traffic::{multi_flow, single_flow};

/// The six panels of Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Panel {
    /// (a) single flow, synthetic Fig. 1 topology.
    SyntheticSingle,
    /// (b) multiple flows, fat-tree K=4.
    FatTreeMulti,
    /// (c) single flow, B4.
    B4Single,
    /// (d) multiple flows, B4.
    B4Multi,
    /// (e) single flow, Internet2.
    Internet2Single,
    /// (f) multiple flows, Internet2.
    Internet2Multi,
}

impl Panel {
    /// Parse a panel id (`a`–`f`).
    pub fn from_letter(s: &str) -> Option<Panel> {
        Some(match s {
            "a" => Panel::SyntheticSingle,
            "b" => Panel::FatTreeMulti,
            "c" => Panel::B4Single,
            "d" => Panel::B4Multi,
            "e" => Panel::Internet2Single,
            "f" => Panel::Internet2Multi,
            _ => return None,
        })
    }

    /// Figure caption of the panel.
    pub fn caption(self) -> &'static str {
        match self {
            Panel::SyntheticSingle => "Synthetic Topology (Fig. 1) — single flow",
            Panel::FatTreeMulti => "Fat-tree (K=4) — multiple flows",
            Panel::B4Single => "B4 — single flow",
            Panel::B4Multi => "B4 — multiple flows",
            Panel::Internet2Single => "Internet2 — single flow",
            Panel::Internet2Multi => "Internet2 — multiple flows",
        }
    }

    /// True for the multi-flow panels.
    pub fn is_multi(self) -> bool {
        matches!(
            self,
            Panel::FatTreeMulti | Panel::B4Multi | Panel::Internet2Multi
        )
    }

    fn topology(self) -> Topology {
        match self {
            Panel::SyntheticSingle => topologies::fig1(),
            Panel::FatTreeMulti => topologies::fat_tree(4),
            Panel::B4Single | Panel::B4Multi => topologies::b4(),
            Panel::Internet2Single | Panel::Internet2Multi => topologies::internet2(),
        }
    }
}

/// One system's measured update-time samples for a panel.
#[derive(Debug, Clone)]
pub struct PanelSeries {
    /// Legend label.
    pub label: &'static str,
    /// Update times in milliseconds, one per run.
    pub samples: Samples,
}

/// The systems compared in a panel: the headline three plus the SL/DL
/// ablation variants.
fn systems(multi: bool) -> Vec<System> {
    vec![
        System::P4Update(Strategy::Auto),
        System::P4Update(Strategy::ForceSingle),
        System::P4Update(Strategy::ForceDual),
        System::EzSegway { congestion: multi },
        System::Central { congestion: multi },
    ]
}

/// Free-capacity view per directed link, as the congestion-aware
/// controllers consume it.
type FreeCapacity = p4update_net::ArcMap<f64>;

/// The workload of one run of a panel.
fn panel_updates(panel: Panel, seed: u64) -> (Vec<FlowUpdate>, Option<FreeCapacity>) {
    let topo = panel.topology();
    match panel {
        Panel::SyntheticSingle => {
            let u = FlowUpdate::new(
                FlowId(0),
                Some(Path::new(topologies::fig1_old_path())),
                Path::new(topologies::fig1_new_path()),
                1.0,
            );
            (vec![u], None)
        }
        Panel::B4Single | Panel::Internet2Single => (vec![single_flow(&topo)], None),
        Panel::FatTreeMulti | Panel::B4Multi | Panel::Internet2Multi => {
            let mut rng = SimRng::new(seed ^ 0xFEED);
            let w = multi_flow(&topo, &mut rng, 0.55);
            (w.updates, Some(w.free_capacity))
        }
    }
}

/// Run one panel for `runs` seeds; returns one series per system.
pub fn run(panel: Panel, runs: u64) -> Vec<PanelSeries> {
    let topo = panel.topology();
    let timing = match panel {
        Panel::FatTreeMulti => TimingConfig::fat_tree(),
        p if p.is_multi() => TimingConfig::wan_multi_flow(topo.centroid()),
        _ => TimingConfig::wan_single_flow(topo.centroid()),
    };
    let mut series: Vec<PanelSeries> = systems(panel.is_multi())
        .into_iter()
        .map(|s| PanelSeries {
            label: system_label(s),
            samples: Samples::new(),
        })
        .collect();
    for seed in 0..runs {
        let (updates, free) = panel_updates(panel, seed);
        for (i, system) in systems(panel.is_multi()).into_iter().enumerate() {
            let t = run_update_once(&topo, system, timing, 2_000 + seed, &updates, free.clone());
            if let Some(t) = t {
                series[i].samples.push(t);
            }
        }
    }
    series
}

/// Print one panel's data as text rows.
pub fn print(panel: Panel, runs: u64) {
    let series = run(panel, runs);
    println!("# Fig. 7 — {} ({} runs)", panel.caption(), runs);
    println!("# means:");
    for s in &series {
        println!(
            "#   {:<14} mean {:>8.1} ms  (n={})",
            s.label,
            s.samples.mean(),
            s.samples.len()
        );
    }
    let p4 = series
        .iter()
        .find(|s| s.label == "P4Update")
        .expect("P4Update series");
    let ez = series
        .iter()
        .find(|s| s.label == "ez-Segway")
        .expect("ez series");
    println!(
        "# P4Update vs ez-Segway: {:+.1}%",
        (p4.samples.mean() / ez.samples.mean() - 1.0) * 100.0
    );
    println!("# columns: system time_ms cdf");
    for s in &series {
        for (v, p) in s.samples.cdf_points() {
            println!("{:<14} {v:>9.1} {p:.3}", s.label);
        }
    }
}
