//! Interleaving search: random walks and an exhaustive enumeration of
//! every schedule within a bound on deviations from the default.
//!
//! Both searches share the oracle: run a scenario under an adversarial
//! chooser and ask the checker whether any consistency property
//! broke. A hit is returned as a canonicalized, pinned [`Trace`]
//! (ready for [`crate::shrink`] or the corpus).

use crate::trace::{ForcedChoice, FreePolicy, Trace};
use crate::{pin, run, RunReport};
use p4update_des::SimRng;
use std::collections::BTreeMap;

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

/// What [`exhaustive`] concluded.
#[derive(Debug, Clone)]
pub enum Exhaustive {
    /// A violating schedule with the fewest deviations of any.
    Hit(SearchOutcome),
    /// Every schedule within `bound` deviations ran clean.
    Clean {
        /// The largest bound whose every schedule ran (`None` only for a
        /// budget of 0 runs).
        bound: Option<usize>,
        /// Simulation runs spent.
        runs: u32,
    },
}

/// Per-tie probability of a non-FIFO pick in a random walk: light
/// tie-break noise, so a hit is attributable to the faults or the lies.
const WALK_TIE_P: f64 = 0.05;

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
            return outcome(scenario, seed, &report, i + 1).map(Some);
        }
    }
    Ok(None)
}

/// Exhaustive exploration within a deviation bound: for d = 0, 1, 2, …
/// runs every schedule that takes a non-default alternative at no more
/// than d choice points, of any kind (tie, fault or lie alike), until a
/// run violates or `runs` simulation runs are spent.
///
/// A stateless depth-first search with prefix replay: after each run, the
/// deepest choice point that still has an untried alternative and room in
/// the bound takes its next alternative, every forced decision after it
/// is dropped, and the scenario runs again. Each bound starts over from
/// the base schedule (iterative context bounding, as in CHESS: Musuvathi
/// & Qadeer, PLDI 2007), so a hit has the fewest deviations of any
/// violating schedule.
pub fn exhaustive(scenario: &str, seed: u64, runs: u32) -> Result<Exhaustive, String> {
    let mut forced: BTreeMap<u64, ForcedChoice> = BTreeMap::new();
    let mut bound = 0;
    for used in 1..=runs {
        let report = run(scenario, seed, forced.clone(), FreePolicy::Default)?;
        if !report.violations.is_empty() {
            return outcome(scenario, seed, &report, used).map(Exhaustive::Hit);
        }
        // The forced decisions are exactly the run's deviations.
        let next = report
            .choices
            .iter()
            .rev()
            .find(|r| r.pick + 1 < r.arity && forced.range(..r.index).count() < bound);
        match next {
            Some(r) => {
                forced.retain(|&index, _| index < r.index);
                let (kind, arity, pick) = (r.kind, r.arity, r.pick + 1);
                forced.insert(r.index, ForcedChoice { kind, arity, pick });
            }
            None => {
                bound += 1;
                forced.clear();
            }
        }
    }
    let bound = bound.checked_sub(1);
    Ok(Exhaustive::Clean { bound, runs })
}

/// Pin the violating run `report`, found after `runs` search runs, as a
/// trace (the pinning replay is one run more).
fn outcome(
    scenario: &str,
    seed: u64,
    report: &RunReport,
    runs: u32,
) -> Result<SearchOutcome, String> {
    let mut trace = Trace::from_choices(scenario, seed, &report.choices);
    let pinned = pin(&mut trace)?;
    assert_eq!(pinned.violations, report.violations);
    Ok(SearchOutcome {
        trace,
        report: pinned,
        runs_used: runs + 1,
    })
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

    /// Exhaustive search reaches the Fig. 2 loop with a single forced
    /// deviation (every bound is finished before the next starts): one
    /// dropped or delayed configuration message is enough, exactly as the
    /// paper's §4.1 narrative says.
    #[test]
    fn exhaustive_finds_the_fig2_loop_at_one_deviation() {
        let Exhaustive::Hit(hit) = exhaustive("fig2-ez", 1, 256).unwrap() else {
            panic!("one deviation must suffice");
        };
        assert_eq!(hit.trace.forced_count(), 1);
        assert!(hit
            .report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Loop { .. })));
    }

    /// The enumeration is exact: a schedule with one deviation shares the
    /// base schedule's prefix up to it, so bound 1 runs the base plus one
    /// schedule per non-default alternative of each of the base's choice
    /// points. A budget of exactly bounds 0 and 1 completes bound 1, and
    /// one run less does not.
    #[test]
    fn bound_one_runs_every_single_deviation_of_the_base_schedule() {
        for (scenario, schedules) in [
            ("fig2-p4", 43),
            ("fig1-single", 62),
            ("fig1-dual", 91),
            ("multigw-dual", 155),
        ] {
            let base = run(scenario, 1, BTreeMap::new(), FreePolicy::Default).unwrap();
            let alternatives: u32 = base.choices.iter().map(|r| r.arity - 1).sum();
            assert_eq!(1 + alternatives, schedules, "{scenario}");
            let budget = 1 + schedules;
            assert_eq!(clean(scenario, budget), Some(1), "{scenario}");
            assert_eq!(clean(scenario, budget - 1), Some(0), "{scenario}");
        }
    }

    /// The bound a clean exhaustive search of `scenario` at seed 1
    /// finishes within `runs`, which it spends whole.
    fn clean(scenario: &str, runs: u32) -> Option<usize> {
        match exhaustive(scenario, 1, runs).unwrap() {
            Exhaustive::Clean { bound, runs: used } => {
                assert_eq!(used, runs, "{scenario}");
                bound
            }
            Exhaustive::Hit(hit) => panic!("{scenario}: {:?}", hit.report.violations),
        }
    }

    /// The completeness table of DESIGN §9, at seed 1: the deviation
    /// bound `d` and the runs `runs` of every registered scenario. A safe
    /// scenario finishes bound `d` in exactly `runs` runs (one run less
    /// leaves it unfinished); the vulnerable one's loop is found at `d`
    /// deviations after exactly `runs` runs, the pinning replay included.
    #[test]
    #[ignore = "about 36,000 runs, a few seconds in release; scripts/check.sh runs it"]
    fn every_registered_scenario_is_exhausted_to_its_pinned_bound() {
        let table: [(&str, usize, u32); 6] = [
            ("fig2-ez", 1, 13),
            ("fig2-p4", 2, 805),
            ("fig1-single", 2, 1_662),
            ("fig1-dual", 2, 4_053),
            ("multigw-dual", 2, 11_310),
            ("ft512-dual", 1, 218),
        ];
        for info in crate::scenarios::SCENARIOS {
            let &(_, d, runs) = table
                .iter()
                .find(|row| row.0 == info.name)
                .unwrap_or_else(|| panic!("{} has no row", info.name));
            if info.vulnerable {
                let Exhaustive::Hit(hit) = exhaustive(info.name, 1, runs).unwrap() else {
                    panic!("{}: no hit within {runs} runs", info.name);
                };
                assert_eq!((hit.trace.forced_count(), hit.runs_used), (d, runs));
                assert!(matches!(hit.report.violations[0], Violation::Loop { .. }));
            } else {
                assert_eq!(clean(info.name, runs), Some(d), "{}", info.name);
                assert_eq!(clean(info.name, runs - 1), d.checked_sub(1));
            }
        }
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
