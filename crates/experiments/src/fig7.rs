//! Figure 7 (§9.2): total update time CDFs.
//!
//! Six panels: single-flow scenarios (synthetic Fig. 1, B4, Internet2) and
//! multi-flow scenarios (fat-tree K=4, B4, Internet2), each comparing
//! P4Update (with the §7.5 strategy), ez-Segway, and Central, plus the
//! SL/DL ablation the paper reports in prose.

use crate::scenarios::{run_update_once, system_label};
use p4update_core::Strategy;
use p4update_des::{Samples, SimRng};
use p4update_net::{topologies, ArcMap, FlowId, FlowUpdate, Path, Topology};
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

/// The workload of one run of a panel.
fn panel_updates(
    panel: Panel,
    topo: &Topology,
    seed: u64,
) -> (Vec<FlowUpdate>, Option<ArcMap<f64>>) {
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
        Panel::B4Single | Panel::Internet2Single => (vec![single_flow(topo)], None),
        Panel::FatTreeMulti | Panel::B4Multi | Panel::Internet2Multi => {
            let mut rng = SimRng::new(seed ^ 0xFEED);
            let w = multi_flow(topo, &mut rng, 0.55);
            (w.updates, Some(w.free_capacity))
        }
    }
}

/// One panel's runs in run order. Run i gives every system the same
/// workload and simulator seed, so the systems' times pair.
#[derive(Debug, Clone)]
pub struct PanelRuns {
    /// Legend labels, in the order of each row's times.
    pub labels: Vec<&'static str>,
    /// Per run, each system's update time in ms; `None` where the system
    /// stranded a flow.
    pub rows: Vec<Vec<Option<f64>>>,
}

impl PanelRuns {
    /// One series of update times (ms) per system, in `labels` order,
    /// over the runs no system stranded, so every series covers the same
    /// workloads and index i is one pair. A run that some system strands
    /// is counted apart, never dropped from one series only.
    pub fn series(&self) -> Vec<Samples> {
        let paired: Vec<Vec<f64>> = self
            .rows
            .iter()
            .filter_map(|row| row.iter().copied().collect())
            .collect();
        let series = |i| paired.iter().map(|row: &Vec<f64>| row[i]).collect();
        (0..self.labels.len()).map(series).collect()
    }
}

/// Run one panel for `runs` seeds.
pub fn run(panel: Panel, runs: u64) -> PanelRuns {
    let topo = panel.topology();
    let timing = match panel {
        Panel::FatTreeMulti => TimingConfig::fat_tree(),
        p if p.is_multi() => TimingConfig::wan_multi_flow(topo.centroid()),
        _ => TimingConfig::wan_single_flow(topo.centroid()),
    };
    let systems = systems(panel.is_multi());
    // A single-flow panel's update is the same in every run: search it once.
    let fixed = (!panel.is_multi()).then(|| panel_updates(panel, &topo, 0));
    let rows = (0..runs)
        .map(|seed| {
            let (updates, free) = fixed
                .clone()
                .unwrap_or_else(|| panel_updates(panel, &topo, seed));
            systems
                .iter()
                .map(|&s| run_update_once(&topo, s, timing, 2_000 + seed, &updates, free.clone()))
                .collect()
        })
        .collect();
    PanelRuns {
        labels: systems.into_iter().map(system_label).collect(),
        rows,
    }
}

/// P4Update against another system over paired runs.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// P4Update's mean over the other's, minus one, in percent (−5: 5 %
    /// sooner).
    pub percent: f64,
    /// 95 % bootstrap interval of `percent`, resampling whole pairs.
    pub interval: (f64, f64),
    /// Pairs P4Update finished strictly sooner.
    pub wins: usize,
    /// Pairs both finished at the same time.
    pub ties: usize,
}

/// Compare two paired series (index i of each is one run). The bootstrap
/// draws 10,000 resamples from a fixed-seed `SimRng`, so the interval is
/// the same on every machine. Panics on empty series.
pub fn compare(ours: &Samples, theirs: &Samples) -> Comparison {
    let (a, b) = (ours.values(), theirs.values());
    let mut rng = SimRng::new(0xB007);
    let boot: Samples = (0..10_000)
        .map(|_| {
            let (mut x, mut y) = (0.0, 0.0);
            for _ in 0..a.len() {
                let i = rng.uniform_usize(a.len());
                x += a[i];
                y += b[i];
            }
            (x / y - 1.0) * 100.0
        })
        .collect();
    Comparison {
        percent: (ours.mean() / theirs.mean() - 1.0) * 100.0,
        interval: (boot.percentile(2.5), boot.percentile(97.5)),
        wins: a.iter().zip(b).filter(|(x, y)| x < y).count(),
        ties: a.iter().zip(b).filter(|(x, y)| x == y).count(),
    }
}

/// Print one panel: the paired means, P4Update against each other
/// system, the stranded runs, and every run's row in run order.
pub fn print(panel: Panel, runs: u64) {
    let result = run(panel, runs);
    let series = result.series();
    let n = series[0].len();
    println!("# Fig. 7 — {} ({runs} runs)", panel.caption());
    println!("# means over the {n} runs every system completed:");
    for (label, s) in result.labels.iter().zip(&series) {
        println!("#   {label:<14} mean {:>8.1} ms", s.mean());
    }
    if n > 0 {
        println!("# P4Update vs: mean ratio - 1, 95 % bootstrap interval, pairs won / tied");
        for (label, s) in result.labels.iter().zip(&series).skip(1) {
            let c = compare(&series[0], s);
            let (pct, lo, hi) = (c.percent, c.interval.0, c.interval.1);
            let (wins, ties) = (c.wins, c.ties);
            println!("#   {label:<14} {pct:+6.1}% [{lo:+.1}, {hi:+.1}]  {wins} / {ties} of {n}");
        }
    }
    println!("# runs some system stranded ('-'): {}", runs as usize - n);
    println!("# columns: run, then time_ms per system as above (sort a column for its CDF)");
    for (i, row) in result.rows.iter().enumerate() {
        let cell = |t: &Option<f64>| t.map_or("-".to_string(), |t| format!("{t:.1}"));
        let cells: Vec<String> = row.iter().map(cell).collect();
        println!("{i:>4} {}", cells.join(" "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_one_system_strands_leaves_every_series() {
        let runs = PanelRuns {
            labels: vec!["P4Update", "ez-Segway"],
            rows: vec![
                vec![Some(1.0), Some(2.0)],
                vec![Some(3.0), None],
                vec![Some(5.0), Some(4.0)],
            ],
        };
        let series = runs.series();
        assert_eq!(series[0].values(), [1.0, 5.0]);
        assert_eq!(series[1].values(), [2.0, 4.0]);
        // Equal means; resampling the two pairs gives -50 %, 0 or +25 %.
        let c = compare(&series[0], &series[1]);
        assert_eq!(
            (c.percent, c.interval, c.wins, c.ties),
            (0.0, (-50.0, 25.0), 1, 0)
        );
    }
}
