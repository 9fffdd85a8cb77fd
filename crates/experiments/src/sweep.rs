//! The timing sensitivity sweep: every Fig. 7 panel with one cost of the
//! timing model at a time scaled by ×0.1, ×0.5 and ×2, beside the model
//! itself (×1). Per cell it prints P4Update's margin over each other
//! system, as [`fig7::compare`] gives it, and the systems in order of
//! their mean update time, so a claim of EXPERIMENTS.md can be read off
//! the grid as holding everywhere or as resting on one constant.

use crate::fig7::{self, Panel, PanelRuns};
use p4update_des::Samples;
use p4update_sim::TimingConfig;

/// A cost of the timing model the sweep scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// The controller's serialization cost per outbound message.
    CtrlTx,
    /// The controller's mean service time per message.
    CtrlService,
    /// The resubmission poll interval of a switch with parked messages.
    ResubmitPoll,
    /// The mean exponential install delay (single-flow panels only).
    InstallMean,
    /// A switch's processing time per message.
    SwitchProc,
}

impl Knob {
    /// Every knob, in the order the sweep prints them.
    pub const ALL: [Knob; 5] = [
        Knob::CtrlTx,
        Knob::CtrlService,
        Knob::ResubmitPoll,
        Knob::InstallMean,
        Knob::SwitchProc,
    ];

    /// The [`TimingConfig`] field the knob scales.
    pub fn name(self) -> &'static str {
        match self {
            Knob::CtrlTx => "ctrl_tx_ms",
            Knob::CtrlService => "ctrl_service_mean_ms",
            Knob::ResubmitPoll => "resubmit_poll_ms",
            Knob::InstallMean => "install_mean_ms",
            Knob::SwitchProc => "switch_proc_ms",
        }
    }

    fn field(self, timing: &mut TimingConfig) -> &mut f64 {
        match self {
            Knob::CtrlTx => &mut timing.ctrl_tx_ms,
            Knob::CtrlService => &mut timing.ctrl_service_mean_ms,
            Knob::ResubmitPoll => &mut timing.resubmit_poll_ms,
            Knob::InstallMean => &mut timing.install_mean_ms,
            Knob::SwitchProc => &mut timing.switch_proc_ms,
        }
    }

    /// Whether scaling the knob can move `panel`: the multi-flow panels
    /// draw no install delay.
    pub fn applies(self, panel: Panel) -> bool {
        self != Knob::InstallMean || !panel.is_multi()
    }
}

/// The factors a knob is scaled by besides ×1, the model.
pub const FACTORS: [f64; 3] = [0.1, 0.5, 2.0];

/// `panel`'s runs with `knob` scaled by `factor`, and the knob's value.
pub fn cell(panel: Panel, knob: Knob, factor: f64, runs: u64) -> (PanelRuns, f64) {
    let mut value = 0.0;
    let result = fig7::run_timed(panel, runs, |timing| {
        let field = knob.field(timing);
        *field *= factor;
        value = *field;
    });
    (result, value)
}

/// The panels, by letter.
const PANELS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

/// Print the grid at `runs` runs per cell: one row per panel at ×1, then
/// one per knob that applies to the panel and factor.
pub fn print(runs: u64) {
    println!(
        "# Timing sensitivity: Fig. 7 panels, one cost at a time scaled, {runs} runs per cell"
    );
    println!("# per cell: the runs every system completed (n), P4Update's ratio of means - 1");
    println!("# over each other system with its 95 % bootstrap interval, and the systems");
    println!("# from fastest mean to slowest ('=' for equal means)");
    for letter in PANELS {
        let panel = Panel::from_letter(letter).expect("valid panel");
        println!();
        println!("# 7{letter}: {}", panel.caption());
        print_cell(letter, "model", 1.0, None, &fig7::run(panel, runs));
        for knob in Knob::ALL.into_iter().filter(|k| k.applies(panel)) {
            for factor in FACTORS {
                let (result, value) = cell(panel, knob, factor, runs);
                print_cell(letter, knob.name(), factor, Some(value), &result);
            }
        }
    }
}

fn print_cell(letter: &str, knob: &str, factor: f64, value: Option<f64>, result: &PanelRuns) {
    let series = result.series();
    let n = series[0].len();
    let value = value.map_or(String::new(), |v| format!(" = {v}"));
    let mut line = format!("7{letter} {knob} x{factor}{value} n={n}");
    if n == 0 {
        println!("{line} (no run every system completed)");
        return;
    }
    for (label, s) in result.labels.iter().zip(&series).skip(1) {
        let c = fig7::compare(&series[0], s);
        let (pct, lo, hi) = (c.percent, c.interval.0, c.interval.1);
        line += &format!(" | vs {label} {pct:+.1} [{lo:+.1}, {hi:+.1}]");
    }
    let mut by_mean: Vec<(f64, &str)> = series
        .iter()
        .map(Samples::mean)
        .zip(result.labels.iter().copied())
        .collect();
    by_mean.sort_by(|a, b| a.0.total_cmp(&b.0));
    line += &format!(" | {}", by_mean[0].1);
    for w in by_mean.windows(2) {
        let sep = if w[0].0 == w[1].0 { " = " } else { " < " };
        line += &format!("{sep}{}", w[1].1);
    }
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_knob_reaches_the_panels_it_applies_to() {
        for letter in ["c", "d"] {
            let panel = Panel::from_letter(letter).expect("valid panel");
            let model = fig7::run(panel, 3).rows;
            for knob in Knob::ALL {
                // ×1 is the model, bit for bit.
                assert_eq!(cell(panel, knob, 1.0, 3).0.rows, model, "{letter} {knob:?}");
                let moved = cell(panel, knob, 2.0, 3).0.rows != model;
                assert_eq!(moved, knob.applies(panel), "{letter} {knob:?}");
            }
        }
    }
}
