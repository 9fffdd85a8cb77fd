//! The choice trace: a recorded path through the engine's choice points,
//! with a line-oriented text format that replays byte-identically.
//!
//! A run of the simulator consults its [`Chooser`] at a sequence of choice
//! points; numbering those consultations `0, 1, 2, …` gives every decision
//! a stable index *along its own trajectory*. A trace stores the decisions
//! that deviated from the default (everything not listed is alternative
//! `0`), plus the expected outcome, so a committed counterexample can be
//! re-executed and checked on every CI run.
//!
//! ## File format (version 2)
//!
//! ```text
//! # p4update-explore choice trace v2
//! scenario fig2-ez
//! seed 1
//! expect-events 412
//! expect-violation loop flow=0 cycle=1>2>3
//! choice 17 fault 4 1
//! choice 23 tie 3 2
//! ```
//!
//! - `scenario` / `seed` identify the deterministic base run (see
//!   [`crate::scenarios`]).
//! - `expect-events` is the total number of delivered events; together
//!   with the `expect-violation` lines (in detection order, stable
//!   encoding from `p4update_core::Violation`) it pins the replay outcome
//!   exactly.
//! - `choice <index> <kind> <arity> <pick>` forces consultation `<index>`
//!   to `<pick>`; the kinds are `fault`, `tie` and `byz` (a byzantine
//!   lying decision, `p4update_des::ChoiceKind`). Kind and arity document the decision; replay applies the
//!   pick by index and ignores a forced entry whose pick is out of range
//!   for the arity actually encountered (that only happens to stale or
//!   hand-edited traces, and [`crate::pin`] canonicalizes one by dropping
//!   such entries).
//! - `#`-prefixed lines and blank lines are comments.

use p4update_core::Violation;
use p4update_des::{ChoiceKind, Chooser, SimRng};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// Format-version marker, first line of every trace file.
pub const TRACE_HEADER: &str = "# p4update-explore choice trace v2";

/// One consulted choice point: its consultation index, what kind of
/// decision it was, how many alternatives existed, and which was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChoiceRecord {
    /// Consultation sequence number within the run (0-based).
    pub index: u64,
    /// Decision kind (advisory; see module docs).
    pub kind: ChoiceKind,
    /// Number of alternatives presented.
    pub arity: u32,
    /// Alternative taken (`0` = default).
    pub pick: u32,
}

/// A forced decision stored in a trace (the record minus its index, which
/// is the map key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForcedChoice {
    /// Decision kind as recorded.
    pub kind: ChoiceKind,
    /// Arity as recorded.
    pub arity: u32,
    /// Alternative to take.
    pub pick: u32,
}

/// A replayable choice trace (see module docs for the file format).
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Name of the scenario in [`crate::scenarios`] this trace drives.
    pub scenario: String,
    /// Scenario seed.
    pub seed: u64,
    /// Expected total delivered events, if pinned.
    pub expect_events: Option<u64>,
    /// Expected violations in detection order (empty = clean run
    /// expected only if `expect_events` is also set; an un-pinned trace
    /// carries no expectations).
    pub expect_violations: Vec<Violation>,
    /// Forced decisions by consultation index.
    pub choices: BTreeMap<u64, ForcedChoice>,
}

impl Trace {
    /// An empty trace for `scenario`/`seed`: replays the default schedule.
    pub fn new(scenario: impl Into<String>, seed: u64) -> Self {
        Trace {
            scenario: scenario.into(),
            seed,
            expect_events: None,
            expect_violations: Vec::new(),
            choices: BTreeMap::new(),
        }
    }

    /// Build a trace from a run's full choice log, keeping only the
    /// non-default decisions (the rest replay as `0` implicitly).
    pub fn from_choices(scenario: impl Into<String>, seed: u64, log: &[ChoiceRecord]) -> Self {
        let mut t = Trace::new(scenario, seed);
        for r in log {
            if r.pick != 0 {
                t.choices.insert(
                    r.index,
                    ForcedChoice {
                        kind: r.kind,
                        arity: r.arity,
                        pick: r.pick,
                    },
                );
            }
        }
        t
    }

    /// Number of forced (non-default) decisions.
    pub fn forced_count(&self) -> usize {
        self.choices.len()
    }

    /// Serialize to the text format. `parse` of the result yields an equal
    /// trace, and serializing that parses back byte-identically.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{TRACE_HEADER}");
        let _ = writeln!(s, "scenario {}", self.scenario);
        let _ = writeln!(s, "seed {}", self.seed);
        if let Some(ev) = self.expect_events {
            let _ = writeln!(s, "expect-events {ev}");
        }
        for v in &self.expect_violations {
            let _ = writeln!(s, "expect-violation {v}");
        }
        for (&index, c) in &self.choices {
            let _ = writeln!(
                s,
                "choice {index} {} {} {}",
                c.kind.token(),
                c.arity,
                c.pick
            );
        }
        s
    }

    /// Parse the text format. Returns a description of the first problem
    /// on malformed input, a repeated `scenario`, `seed` or `expect-events`
    /// line or choice index among them: a trace names one run.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut scenario: Option<String> = None;
        let mut seed: Option<u64> = None;
        let mut expect_events = None;
        let mut expect_violations = Vec::new();
        let mut choices = BTreeMap::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let err = |what: &str| format!("line {}: {what}: {raw:?}", lineno + 1);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, rest) = line.split_once(' ').ok_or_else(|| err("missing value"))?;
            let repeated = match key {
                "scenario" => scenario.is_some(),
                "seed" => seed.is_some(),
                "expect-events" => expect_events.is_some(),
                _ => false,
            };
            if repeated {
                return Err(err(&format!("duplicate {key}")));
            }
            match key {
                "scenario" => scenario = Some(rest.trim().to_string()),
                "seed" => {
                    seed = Some(rest.trim().parse().map_err(|_| err("bad seed"))?);
                }
                "expect-events" => {
                    expect_events = Some(rest.trim().parse().map_err(|_| err("bad count"))?);
                }
                "expect-violation" => {
                    expect_violations
                        .push(Violation::parse(rest.trim()).ok_or_else(|| err("bad violation"))?);
                }
                "choice" => {
                    let parts: Vec<&str> = rest.split_whitespace().collect();
                    let [index, kind, arity, pick] = parts.as_slice() else {
                        return Err(err("expected: choice <index> <kind> <arity> <pick>"));
                    };
                    let kind = ChoiceKind::from_token(kind).ok_or_else(|| err("bad kind"))?;
                    let arity: u32 = arity.parse().map_err(|_| err("bad arity"))?;
                    let pick: u32 = pick.parse().map_err(|_| err("bad pick"))?;
                    if arity < 2 || pick == 0 || pick >= arity {
                        return Err(err("pick must be in [1, arity) and arity >= 2"));
                    }
                    let index: u64 = index.parse().map_err(|_| err("bad index"))?;
                    if choices
                        .insert(index, ForcedChoice { kind, arity, pick })
                        .is_some()
                    {
                        return Err(err("duplicate choice index"));
                    }
                }
                _ => return Err(err("unknown directive")),
            }
        }
        Ok(Trace {
            scenario: scenario.ok_or("missing `scenario` line")?,
            seed: seed.ok_or("missing `seed` line")?,
            expect_events,
            expect_violations,
            choices,
        })
    }
}

/// What an exploring chooser does at choice points that are *not* forced
/// by a trace prefix.
pub enum FreePolicy {
    /// Take the default (alternative 0) everywhere: pure replay.
    Default,
    /// Random walk: deviate from the default with the given per-kind
    /// probabilities, choosing uniformly among the non-default
    /// alternatives when deviating.
    Random {
        /// The walk's private RNG (independent of the scenario seed).
        rng: SimRng,
        /// Probability of injecting a fault at a `Fault` choice point.
        fault_p: f64,
        /// Probability of a non-FIFO pick at a `TieBreak` choice point.
        tie_p: f64,
        /// Probability of lying at a `Byzantine` choice point.
        byz_p: f64,
    },
}

/// The exploring chooser: forces a trace's decisions by consultation
/// index, resolves everything else through a [`FreePolicy`], and logs the
/// complete decision sequence into a shared buffer the driver reads back
/// after the run.
pub struct TraceChooser {
    next_index: u64,
    forced: BTreeMap<u64, ForcedChoice>,
    free: FreePolicy,
    log: Rc<RefCell<Vec<ChoiceRecord>>>,
}

impl TraceChooser {
    /// Chooser for a pure replay of `trace`.
    pub fn replay(trace: &Trace) -> (Self, Rc<RefCell<Vec<ChoiceRecord>>>) {
        Self::with_policy(trace.choices.clone(), FreePolicy::Default)
    }

    /// Chooser with explicit forced decisions and free policy.
    pub fn with_policy(
        forced: BTreeMap<u64, ForcedChoice>,
        free: FreePolicy,
    ) -> (Self, Rc<RefCell<Vec<ChoiceRecord>>>) {
        let log = Rc::new(RefCell::new(Vec::new()));
        (
            TraceChooser {
                next_index: 0,
                forced,
                free,
                log: Rc::clone(&log),
            },
            log,
        )
    }
}

impl Chooser for TraceChooser {
    fn choose(&mut self, kind: ChoiceKind, arity: usize) -> usize {
        let index = self.next_index;
        self.next_index += 1;
        let pick = match self.forced.get(&index) {
            // Out-of-range forced picks are no-ops (see module docs).
            Some(f) if (f.pick as usize) < arity => f.pick as usize,
            Some(_) => 0,
            None => match &mut self.free {
                FreePolicy::Default => 0,
                FreePolicy::Random {
                    rng,
                    fault_p,
                    tie_p,
                    byz_p,
                } => {
                    let p = match kind {
                        ChoiceKind::Fault => *fault_p,
                        ChoiceKind::TieBreak => *tie_p,
                        ChoiceKind::Byzantine => *byz_p,
                    };
                    if rng.chance(p) {
                        1 + rng.uniform_usize(arity - 1)
                    } else {
                        0
                    }
                }
            },
        };
        self.log.borrow_mut().push(ChoiceRecord {
            index,
            kind,
            arity: arity as u32,
            pick: pick as u32,
        });
        pick
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4update_net::{FlowId, NodeId};

    fn sample_trace() -> Trace {
        let mut t = Trace::new("fig2-ez", 1);
        t.expect_events = Some(412);
        t.expect_violations = vec![Violation::Loop {
            flow: FlowId(0),
            cycle: vec![NodeId(3), NodeId(1), NodeId(2)],
        }];
        t.choices.insert(
            17,
            ForcedChoice {
                kind: ChoiceKind::Fault,
                arity: 4,
                pick: 1,
            },
        );
        t.choices.insert(
            23,
            ForcedChoice {
                kind: ChoiceKind::TieBreak,
                arity: 3,
                pick: 2,
            },
        );
        t
    }

    #[test]
    fn text_round_trip_is_byte_identical() {
        let t = sample_trace();
        let text = t.to_text();
        let parsed = Trace::parse(&text).unwrap();
        assert_eq!(parsed, t);
        assert_eq!(parsed.to_text(), text);
    }

    /// A byzantine choice serializes under the same header and
    /// round-trips.
    #[test]
    fn byzantine_choices_round_trip() {
        let mut t = sample_trace();
        t.choices.insert(
            40,
            ForcedChoice {
                kind: ChoiceKind::Byzantine,
                arity: 2,
                pick: 1,
            },
        );
        let text = t.to_text();
        assert!(text.starts_with(TRACE_HEADER));
        let parsed = Trace::parse(&text).unwrap();
        assert_eq!(parsed, t);
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# hello\n\nscenario x\n# mid\nseed 7\n";
        let t = Trace::parse(text).unwrap();
        assert_eq!(t.scenario, "x");
        assert_eq!(t.seed, 7);
        assert!(t.choices.is_empty());
    }

    #[test]
    fn malformed_lines_are_rejected_with_location() {
        for bad in [
            "seed 1\n",                                // missing scenario
            "scenario x\n",                            // missing seed
            "scenario x\nseed nope\n",                 // bad seed
            "scenario x\nseed 1\nchoice 0 tie 3\n",    // short choice
            "scenario x\nseed 1\nchoice 0 tie 3 0\n",  // default pick stored
            "scenario x\nseed 1\nchoice 0 tie 3 3\n",  // pick >= arity
            "scenario x\nseed 1\nchoice 0 warp 3 1\n", // unknown kind
            "scenario x\nseed 1\nfrobnicate 9\n",      // unknown directive
            "scenario x\nseed 1\nexpect-violation ???\n",
        ] {
            assert!(Trace::parse(bad).is_err(), "accepted: {bad:?}");
        }
        let dup = "scenario x\nseed 1\nchoice 0 tie 3 1\nchoice 0 tie 3 2\n";
        assert!(Trace::parse(dup).unwrap_err().contains("duplicate"));
    }

    /// A trace names one run: a second `scenario`, `seed` or
    /// `expect-events` line is an error at its own line, not a quiet
    /// override of the first, while `expect-violation` repeats.
    #[test]
    fn repeated_single_directives_are_rejected_with_location() {
        for (text, want) in [
            (
                "scenario x\nscenario y\nseed 1\n",
                "line 2: duplicate scenario",
            ),
            (
                "scenario x\nseed 1\n# c\nseed 2\n",
                "line 4: duplicate seed",
            ),
            (
                "scenario x\nseed 1\nexpect-events 5\nexpect-events 6\n",
                "line 4: duplicate expect-events",
            ),
        ] {
            let e = Trace::parse(text).unwrap_err();
            assert!(e.starts_with(want), "{text:?}: {e}");
        }
        let loops = "expect-violation loop flow=0 cycle=1>2>3\n".repeat(2);
        let t = Trace::parse(&format!("scenario x\nseed 1\n{loops}")).unwrap();
        assert_eq!(t.expect_violations.len(), 2);
    }

    #[test]
    fn replay_chooser_forces_by_index_and_logs_everything() {
        let t = sample_trace();
        let (mut chooser, log) = TraceChooser::replay(&t);
        // Indices 0..17 free (default), 17 forced to 1, 18.. free.
        for i in 0..17 {
            assert_eq!(chooser.choose(ChoiceKind::Fault, 4), 0, "index {i}");
        }
        assert_eq!(chooser.choose(ChoiceKind::Fault, 4), 1);
        // Forced pick out of range for the encountered arity: no-op.
        for _ in 18..23 {
            chooser.choose(ChoiceKind::TieBreak, 2);
        }
        assert_eq!(chooser.choose(ChoiceKind::TieBreak, 2), 0); // pick 2 >= arity 2
        let log = log.borrow();
        assert_eq!(log.len(), 24);
        assert_eq!(log[17].pick, 1);
        assert_eq!(log[23].pick, 0);
    }

    #[test]
    fn from_choices_keeps_only_deviations() {
        let log = vec![
            ChoiceRecord {
                index: 0,
                kind: ChoiceKind::TieBreak,
                arity: 2,
                pick: 0,
            },
            ChoiceRecord {
                index: 1,
                kind: ChoiceKind::Fault,
                arity: 4,
                pick: 2,
            },
        ];
        let t = Trace::from_choices("s", 9, &log);
        assert_eq!(t.forced_count(), 1);
        assert_eq!(t.choices[&1].pick, 2);
    }

    #[test]
    fn random_policy_is_reproducible() {
        let run = |seed: u64| {
            let (mut c, log) = TraceChooser::with_policy(
                BTreeMap::new(),
                FreePolicy::Random {
                    rng: SimRng::new(seed),
                    fault_p: 0.3,
                    tie_p: 0.3,
                    byz_p: 0.3,
                },
            );
            for _ in 0..100 {
                c.choose(ChoiceKind::Fault, 4);
                c.choose(ChoiceKind::TieBreak, 3);
            }
            let log = log.borrow().clone();
            log
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
