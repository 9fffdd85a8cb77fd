//! Choice points: the seam through which schedule exploration drives the
//! engine.
//!
//! A deterministic run of the engine still contains *decisions* — which of
//! several same-timestamp events to deliver first, whether a fault strikes
//! a message — that the seed-driven implementation resolves one fixed way.
//! Each such decision is surfaced as a *choice point*: the engine (or the
//! world) asks the scheduler's [`Chooser`] to pick one of `arity`
//! alternatives. Alternative `0` is always the default behavior (FIFO
//! tie-break, no fault), so the default [`FifoChooser`] reproduces the
//! historical engine byte-for-byte, while an exploring chooser can steer
//! the run through any interleaving and record the path it took as a
//! replayable trace (see the `p4update-explore` crate).

/// What kind of decision a choice point represents.
///
/// The kind is advisory — it labels trace entries and lets strategies
/// weight decisions differently — and does not change the contract: pick
/// an index in `[0, arity)`, where `0` is the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChoiceKind {
    /// Tie-break among same-timestamp events. The alternatives are the
    /// tied events in FIFO (scheduling) order; picking `0` reproduces the
    /// engine's historical FIFO delivery.
    TieBreak,
    /// A fault decision attached to a message. The world defines the
    /// alternatives; `0` must mean "no fault".
    Fault,
    /// A byzantine decision attached to a message: whether (and how) the
    /// sending switch *lies* — forging labels, replaying stale state,
    /// equivocating, or faking acknowledgements. The world defines the
    /// alternatives; `0` must mean "send honestly". Traces containing
    /// this kind use the v2 trace format (`p4update-explore`).
    Byzantine,
}

impl ChoiceKind {
    /// Stable one-word token used in trace files.
    pub fn token(self) -> &'static str {
        match self {
            ChoiceKind::TieBreak => "tie",
            ChoiceKind::Fault => "fault",
            ChoiceKind::Byzantine => "byz",
        }
    }

    /// Inverse of [`ChoiceKind::token`].
    pub fn from_token(s: &str) -> Option<Self> {
        match s {
            "tie" => Some(ChoiceKind::TieBreak),
            "fault" => Some(ChoiceKind::Fault),
            "byz" => Some(ChoiceKind::Byzantine),
            _ => None,
        }
    }
}

/// A decision procedure for choice points.
///
/// Implementations must be deterministic functions of their own state: the
/// engine guarantees it asks the same questions in the same order for the
/// same world and seed, which is what makes recorded choice sequences
/// replayable.
pub trait Chooser {
    /// Pick one of `arity` alternatives (`arity >= 1`). Must return a
    /// value in `[0, arity)`; `0` is the default behavior.
    fn choose(&mut self, kind: ChoiceKind, arity: usize) -> usize;

    /// Fast-path hint: a trivial chooser always picks `0`, letting the
    /// scheduler skip gathering tie sets and answer world-level choice
    /// points itself. Exploring choosers must return `false` or they
    /// will never be consulted.
    fn is_trivial(&self) -> bool {
        false
    }
}

/// The default policy: always alternative `0` — FIFO tie-breaks, no
/// faults. This is the engine's historical behavior, now expressed through
/// the choice-point seam.
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoChooser;

impl Chooser for FifoChooser {
    fn choose(&mut self, _kind: ChoiceKind, _arity: usize) -> usize {
        0
    }

    fn is_trivial(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_chooser_always_picks_the_default() {
        let mut c = FifoChooser;
        assert!(c.is_trivial());
        for arity in 1..5 {
            assert_eq!(c.choose(ChoiceKind::TieBreak, arity), 0);
            assert_eq!(c.choose(ChoiceKind::Fault, arity), 0);
        }
    }

    #[test]
    fn kind_tokens_round_trip() {
        for kind in [
            ChoiceKind::TieBreak,
            ChoiceKind::Fault,
            ChoiceKind::Byzantine,
        ] {
            assert_eq!(ChoiceKind::from_token(kind.token()), Some(kind));
        }
        assert_eq!(ChoiceKind::from_token("bogus"), None);
    }
}
