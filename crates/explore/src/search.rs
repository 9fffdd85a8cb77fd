//! Interleaving search: an exhaustive enumeration of every schedule
//! within a bound on deviations from the default.
//!
//! The oracle is the checker: run a scenario with some decisions forced
//! and ask whether any consistency property broke. A hit is returned as
//! a canonicalized, pinned [`Trace`], minimal by construction and ready
//! for the corpus.

use crate::trace::{ForcedChoice, FreePolicy, Trace};
use crate::{pin, run, RunReport};
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
            let mut trace = Trace::from_choices(scenario, seed, &report.choices);
            let pinned = pin(&mut trace)?;
            assert_eq!(pinned.violations, report.violations);
            return Ok(Exhaustive::Hit(SearchOutcome {
                trace,
                report: pinned,
                // The pinning replay is one run more.
                runs_used: used + 1,
            }));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{base_name, SCENARIOS};
    use p4update_core::Violation;

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
    /// bound `d` and the runs `runs` of every registered scenario and of
    /// the byzantine smoke matrix (`examples/explore.rs --byzantine`). A
    /// safe scenario finishes bound `d` in exactly `runs` runs (one run
    /// less leaves it unfinished); a vulnerable one's loop is found at `d`
    /// deviations after exactly `runs` runs, the pinning replay included.
    #[test]
    #[ignore = "about 43,000 runs, a few seconds in release; scripts/check.sh runs it"]
    fn every_registered_scenario_is_exhausted_to_its_pinned_bound() {
        let table: [(&str, usize, u32); 12] = [
            ("fig2-ez", 1, 13),
            ("fig2-p4", 2, 805),
            ("fig1-single", 2, 1_662),
            ("fig1-dual", 2, 4_053),
            ("multigw-dual", 2, 11_310),
            ("ft512-dual", 1, 218),
            ("fig2-ez+byz-ack-k1", 1, 14),
            ("fig2-ez+byz-ack-k2", 1, 14),
            ("fig2-p4+byz-ack-k1", 2, 840),
            ("fig2-p4+byz-dep-k1", 2, 904),
            ("fig2-p4+byz-equiv-k1", 2, 985),
            ("fig2-p4+byz-stale-k1", 2, 805),
        ];
        for info in SCENARIOS {
            assert!(table.iter().any(|row| row.0 == info.name), "{}", info.name);
        }
        for (name, d, runs) in table {
            let base = SCENARIOS.iter().find(|s| s.name == base_name(name));
            if base.expect("a registered base").vulnerable {
                let Exhaustive::Hit(hit) = exhaustive(name, 1, runs).unwrap() else {
                    panic!("{name}: no hit within {runs} runs");
                };
                assert_eq!((hit.trace.forced_count(), hit.runs_used), (d, runs));
                assert!(matches!(hit.report.violations[0], Violation::Loop { .. }));
            } else {
                assert_eq!(clean(name, runs), Some(d), "{name}");
                assert_eq!(clean(name, runs - 1), d.checked_sub(1), "{name}");
            }
        }
    }
}
