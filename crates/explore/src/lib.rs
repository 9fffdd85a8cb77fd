//! # p4update-explore
//!
//! Adversarial schedule exploration for the P4Update simulator.
//!
//! The discrete-event engine surfaces every nondeterministic decision —
//! same-timestamp tie-breaks and per-message fault injection — as a
//! numbered *choice point* (`p4update_des::Chooser`). This crate searches
//! the space of choice sequences for schedules that break the paper's
//! consistency properties (the simulator's checker is the oracle) and
//! stores a counterexample, which has the fewest forced decisions of any,
//! as a text [`Trace`] that replays byte-identically in CI.
//!
//! Pipeline:
//!
//! 1. [`scenarios`] — named deterministic setups (Fig. 1, Fig. 2,
//!    many-gateway dual-layer).
//! 2. [`search`] — every schedule within d deviations from the default,
//!    for d = 0, 1, 2, … ([`search::exhaustive`]).
//! 3. [`trace`] — the replayable choice-trace format; [`verify_replay`]
//!    re-executes a trace and checks its pinned outcome.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenarios;
pub mod search;
pub mod trace;

pub use trace::{ChoiceRecord, ForcedChoice, FreePolicy, Trace, TraceChooser};

use p4update_core::Violation;
use std::collections::BTreeMap;

/// Outcome of one explored or replayed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Events delivered before the horizon (or queue drain).
    pub events: u64,
    /// Whether the event queue drained before the horizon.
    pub drained: bool,
    /// Violations the checker recorded, in detection order
    /// (deduplicated by the simulator).
    pub violations: Vec<Violation>,
    /// Every choice point consulted, in consultation order.
    pub choices: Vec<ChoiceRecord>,
}

/// Execute `scenario` at `seed` with the given forced decisions; free
/// choice points resolve through `free`. Errors on unknown scenario
/// names.
pub fn run(
    scenario: &str,
    seed: u64,
    forced: BTreeMap<u64, ForcedChoice>,
    free: FreePolicy,
) -> Result<RunReport, String> {
    let built =
        scenarios::build(scenario, seed).ok_or_else(|| format!("unknown scenario {scenario:?}"))?;
    let (chooser, log) = TraceChooser::with_policy(forced, free);
    let mut sim = built.sim.with_chooser(Box::new(chooser));
    let outcome = sim.run_until(built.horizon);
    let events = sim.events_delivered();
    let world = sim.into_world();
    let violations = world.violations.into_iter().map(|(_, v)| v).collect();
    let choices = log.borrow().clone();
    Ok(RunReport {
        events,
        drained: outcome.drained(),
        violations,
        choices,
    })
}

/// Replay `trace` exactly: its forced decisions, defaults everywhere
/// else. Does *not* check the trace's pinned expectations — see
/// [`verify_replay`].
pub fn replay(trace: &Trace) -> Result<RunReport, String> {
    run(
        &trace.scenario,
        trace.seed,
        trace.choices.clone(),
        FreePolicy::Default,
    )
}

/// Replay `trace` and check its pinned expectations (event count and the
/// exact violation list). Returns the report on success and a diagnostic
/// string on the first mismatch — this is the CI-facing entry point for
/// the committed corpus.
pub fn verify_replay(trace: &Trace) -> Result<RunReport, String> {
    let report = replay(trace)?;
    if let Some(expected) = trace.expect_events {
        if expected != report.events {
            return Err(format!(
                "{}@{}: expected {expected} events, replay delivered {}",
                trace.scenario, trace.seed, report.events
            ));
        }
    }
    if trace.expect_violations != report.violations {
        return Err(format!(
            "{}@{}: expected violations {:?}, replay produced {:?}",
            trace.scenario,
            trace.seed,
            trace
                .expect_violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>(),
            report
                .violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        ));
    }
    Ok(report)
}

/// Canonicalize and pin `trace`: replay it, rebuild the forced set from
/// the decisions that actually deviated (dropping stale no-op entries and
/// refreshing recorded kind/arity), and pin the replay's event count and
/// violation list as the trace's expectations. After `pin`,
/// [`verify_replay`] succeeds by construction.
pub fn pin(trace: &mut Trace) -> Result<RunReport, String> {
    let report = replay(trace)?;
    let canonical = Trace::from_choices(trace.scenario.clone(), trace.seed, &report.choices);
    trace.choices = canonical.choices;
    trace.expect_events = Some(report.events);
    trace.expect_violations = report.violations.clone();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_scenario_is_an_error() {
        let t = Trace::new("nope", 1);
        assert!(replay(&t).is_err());
    }

    #[test]
    fn default_replay_is_deterministic_and_clean() {
        // The base schedule (no forced deviations) of every scenario is
        // consistent and reproducible run-to-run.
        for info in scenarios::SCENARIOS {
            let t = Trace::new(info.name, 1);
            let a = replay(&t).unwrap();
            let b = replay(&t).unwrap();
            assert_eq!(a, b, "{} not deterministic", info.name);
            assert!(
                a.violations.is_empty(),
                "{} base run violated: {:?}",
                info.name,
                a.violations
            );
            assert!(a.events > 0);
            assert!(!a.choices.is_empty(), "{} consulted no choices", info.name);
        }
    }

    #[test]
    fn pin_makes_verify_replay_pass() {
        let mut t = Trace::new("fig1-single", 3);
        // A forced entry that will be a no-op (huge index): pin drops it.
        t.choices.insert(
            u64::MAX - 1,
            ForcedChoice {
                kind: p4update_des::ChoiceKind::Fault,
                arity: 4,
                pick: 1,
            },
        );
        pin(&mut t).unwrap();
        assert!(t.choices.is_empty(), "stale entry should canonicalize away");
        assert!(t.expect_events.is_some());
        verify_replay(&t).unwrap();
    }

    #[test]
    fn verify_replay_reports_expectation_mismatch() {
        let mut t = Trace::new("fig2-p4", 1);
        pin(&mut t).unwrap();
        t.expect_events = Some(t.expect_events.unwrap() + 1);
        let err = verify_replay(&t).unwrap_err();
        assert!(err.contains("expected"), "unhelpful error: {err}");
    }
}
