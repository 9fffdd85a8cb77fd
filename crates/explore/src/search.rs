//! Interleaving search: random walks and bounded systematic enumeration
//! over the choice-point space.
//!
//! Both searches share the oracle: run a scenario under an adversarial
//! chooser and ask the paranoid checker whether any consistency property
//! broke. A hit is returned as a canonicalized, pinned [`Trace`]
//! (ready for [`crate::shrink`] or the corpus).

use crate::trace::{ForcedChoice, FreePolicy, Trace};
use crate::{pin, run, RunReport};
use p4update_des::SimRng;
use std::collections::{BTreeMap, VecDeque};

/// A found counterexample plus search accounting.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The failing trace, canonicalized and pinned (replays to exactly
    /// the violations in `report`).
    pub trace: Trace,
    /// The failing run's report.
    pub report: RunReport,
    /// Simulation runs spent (including the pinning replay).
    pub runs_used: u32,
}

/// Per-tie probability of a non-FIFO pick in a random walk: light
/// tie-break noise, so a hit is attributable to the faults or the lies.
const WALK_TIE_P: f64 = 0.05;

/// Search depth of [`systematic`]: the number of simultaneously forced
/// decisions. Depth 1 suffices for the Fig. 2 loop (one lost or delayed
/// configuration message, §4.1); 2 also reaches every pair of deviations
/// inside the window.
const SYSTEMATIC_DEPTH: usize = 2;

/// Expansion window of [`systematic`]: from each explored run, only the
/// first this many choice points *after* its last forced index are
/// branched on. Keeps the frontier from exploding on long schedules while
/// still reaching any bounded-depth combination eventually.
const SYSTEMATIC_WINDOW: usize = 24;

/// Random-walk search parameters.
#[derive(Debug, Clone, Copy)]
pub struct WalkOptions {
    /// Maximum number of walks (simulation runs) before giving up.
    pub runs: u32,
    /// Per-choice-point probability of injecting a fault.
    pub fault_p: f64,
    /// Per-choice-point probability of lying at a byzantine choice point
    /// (only consulted when the scenario installs the byzantine catalog).
    pub byz_p: f64,
}

impl Default for WalkOptions {
    fn default() -> Self {
        // Sparse deviations find single-cause bugs (one lost or delayed
        // message) far faster than dense ones: a walk that perturbs
        // everything mostly stalls the protocol before any mixed
        // forwarding state can form.
        WalkOptions {
            runs: 64,
            fault_p: 0.04,
            // Byzantine points are rare (only applicable messages from
            // budget-eligible senders emit one), so lying can afford to be
            // much denser than fault injection without stalling the run.
            byz_p: 0.25,
        }
    }
}

/// Random-walk exploration: repeatedly run `scenario` with random
/// deviations until the checker records a violation or the budget is
/// spent. Returns `Ok(None)` when the budget runs out violation-free.
/// Walk `i` draws from `SimRng::new(i)`, independent of the scenario seed.
pub fn random_walk(
    scenario: &str,
    seed: u64,
    opts: WalkOptions,
) -> Result<Option<SearchOutcome>, String> {
    for i in 0..opts.runs {
        let free = FreePolicy::Random {
            rng: SimRng::new(u64::from(i)),
            fault_p: opts.fault_p,
            tie_p: WALK_TIE_P,
            byz_p: opts.byz_p,
        };
        let report = run(scenario, seed, BTreeMap::new(), free)?;
        if !report.violations.is_empty() {
            let mut trace = Trace::from_choices(scenario, seed, &report.choices);
            let pinned = pin(&mut trace)?;
            assert_eq!(pinned.violations, report.violations);
            return Ok(Some(SearchOutcome {
                trace,
                report: pinned,
                runs_used: i + 2,
            }));
        }
    }
    Ok(None)
}

/// Bounded systematic exploration (breadth-first over forced-decision
/// sets): deterministically enumerates schedules with up to two
/// deviations (`SYSTEMATIC_DEPTH`), branching each explored run on the
/// alternatives of the 24 choice points after its last forced one
/// (`SYSTEMATIC_WINDOW`). Stops at the first violation or after `runs`
/// simulation runs (`Ok(None)`).
///
/// Children only force indices strictly beyond the parent's last forced
/// index, so every deviation *set* is visited at most once.
pub fn systematic(scenario: &str, seed: u64, runs: u32) -> Result<Option<SearchOutcome>, String> {
    let mut frontier: VecDeque<BTreeMap<u64, ForcedChoice>> = VecDeque::new();
    frontier.push_back(BTreeMap::new());
    let mut runs_used = 0;
    while let Some(forced) = frontier.pop_front() {
        if runs_used >= runs {
            return Ok(None);
        }
        runs_used += 1;
        let report = run(scenario, seed, forced.clone(), FreePolicy::Default)?;
        if !report.violations.is_empty() {
            let mut trace = Trace::from_choices(scenario, seed, &report.choices);
            let pinned = pin(&mut trace)?;
            return Ok(Some(SearchOutcome {
                trace,
                report: pinned,
                runs_used: runs_used + 1,
            }));
        }
        if forced.len() >= SYSTEMATIC_DEPTH {
            continue;
        }
        let min_index = forced.keys().next_back().map_or(0, |last| last + 1);
        let expand = report
            .choices
            .iter()
            .filter(|r| r.index >= min_index)
            .take(SYSTEMATIC_WINDOW);
        for record in expand {
            for pick in 1..record.arity {
                let mut child = forced.clone();
                child.insert(
                    record.index,
                    ForcedChoice {
                        kind: record.kind,
                        arity: record.arity,
                        pick,
                    },
                );
                frontier.push_back(child);
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4update_core::Violation;

    /// The tentpole acceptance check, in miniature: a small random-walk
    /// budget finds the Fig. 2 reordering loop against ez-Segway, and the
    /// identical budget over P4Update finds nothing.
    #[test]
    fn random_walk_finds_the_fig2_loop_only_for_ez_segway() {
        let opts = WalkOptions::default();
        let hit = random_walk("fig2-ez", 1, opts)
            .unwrap()
            .expect("budget must suffice for the Fig. 2 loop");
        assert!(
            hit.report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::Loop { .. })),
            "expected a forwarding loop, got {:?}",
            hit.report.violations
        );
        assert!(hit.trace.expect_events.is_some(), "trace must be pinned");

        let p4 = random_walk("fig2-p4", 1, opts).unwrap();
        assert!(
            p4.is_none(),
            "P4Update must survive the same budget: {:?}",
            p4.map(|o| o.report.violations)
        );
    }

    /// Systematic search reaches the Fig. 2 loop with a single forced
    /// deviation (breadth-first, so depth 1 is exhausted first): one
    /// dropped or delayed configuration message is enough, exactly as the
    /// paper's §4.1 narrative says.
    #[test]
    fn systematic_depth_one_finds_the_fig2_loop() {
        let hit = systematic("fig2-ez", 1, 256)
            .unwrap()
            .expect("one deviation must suffice");
        assert_eq!(hit.trace.forced_count(), 1);
        assert!(hit
            .report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Loop { .. })));
    }

    #[test]
    fn search_is_deterministic() {
        let a = random_walk("fig2-ez", 1, WalkOptions::default()).unwrap();
        let b = random_walk("fig2-ez", 1, WalkOptions::default()).unwrap();
        match (a, b) {
            (Some(x), Some(y)) => {
                assert_eq!(x.trace, y.trace);
                assert_eq!(x.runs_used, y.runs_used);
            }
            (None, None) => {}
            _ => panic!("runs disagreed on whether a violation exists"),
        }
    }
}
