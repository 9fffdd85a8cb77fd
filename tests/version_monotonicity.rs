//! Algorithm 1's central safety invariant, checked under adversarial
//! schedules: however the network reorders, delays, drops, or duplicates
//! update notifications, the configuration version a switch has *applied*
//! for a flow only ever moves forward, and never runs ahead of the
//! version the controller staged at that switch. In particular a
//! fast-forward (a UNM for a newer version overtaking an older one)
//! must never result in a stale version being installed afterwards.
//!
//! The adversary is a [`Chooser`] that resolves every tie-break and every
//! fault choice point randomly — fault choices select among deliver /
//! drop / delay / duplicate, which is exactly the UNM reordering and
//! duplication model the invariant must survive. The run is inspected
//! after *every* delivered event, not just at the end, so a transient
//! rollback is caught even if later progress repairs it.

use p4update::des::propcheck::{cases, forall};
use p4update::des::{ChoiceKind, Chooser, SimRng};
use p4update::explore::scenarios;
use p4update::net::{FlowId, NodeId, Version};
use std::collections::BTreeMap;

/// Random adversary. Tie-breaks are uniform (arbitrary interleavings);
/// fault choices deliver with 70% probability and otherwise pick
/// uniformly among drop / delay / duplicate, so runs make progress while
/// still exercising loss, reordering, and duplication.
struct RandomAdversary {
    rng: SimRng,
}

impl Chooser for RandomAdversary {
    fn choose(&mut self, kind: ChoiceKind, arity: usize) -> usize {
        match kind {
            ChoiceKind::TieBreak => self.rng.uniform_usize(arity),
            ChoiceKind::Fault => {
                if self.rng.chance(0.7) {
                    0 // deliver
                } else {
                    self.rng.uniform_usize(arity)
                }
            }
            // These scenarios never install the byzantine catalog, so no
            // such choice point is ever emitted; stay honest regardless.
            ChoiceKind::Byzantine => 0,
        }
    }
}

/// Step `scenario` under a random adversary, asserting after every event
/// that per-(switch, flow) staged and applied versions are monotonically
/// non-decreasing and that applied never exceeds staged.
fn check_monotonicity(scenario: &str, rng: &mut SimRng) {
    let seed = 1 + rng.uniform_usize(1 << 16) as u64;
    let built = scenarios::build(scenario, seed).expect("registered scenario");
    let horizon = built.horizon;
    let mut sim = built.sim.with_chooser(Box::new(RandomAdversary {
        rng: rng.fork(0xadfe),
    }));

    // (switch, flow) → highest (staged, applied) versions seen so far.
    let mut high: BTreeMap<(NodeId, FlowId), (Version, Version)> = BTreeMap::new();
    let mut steps = 0u32;
    while let Some(t) = sim.step() {
        if t > horizon || steps > 20_000 {
            break;
        }
        steps += 1;
        for (node, switch) in sim.world().switches.iter() {
            for flow in switch.state.uib.flows() {
                let e = switch.state.uib.read(flow);
                // The pre-update config (version 1) is installed directly,
                // without a UIM; any version beyond it must be staged first.
                assert!(
                    e.applied_version <= e.uim_version.max(Version(1)),
                    "{scenario} seed {seed}: {node:?} applied {:?} ahead of staged {:?} for {flow:?}",
                    e.applied_version,
                    e.uim_version,
                );
                let entry = high
                    .entry((node, flow))
                    .or_insert((e.uim_version, e.applied_version));
                // A register may reset to NONE when the flow's old rule is
                // removed from a switch that left the path; it must never
                // step *down* to an older live version.
                assert!(
                    e.uim_version >= entry.0 || e.uim_version == Version::NONE,
                    "{scenario} seed {seed}: {node:?} staged version regressed \
                     {:?} -> {:?} for {flow:?}",
                    entry.0,
                    e.uim_version,
                );
                assert!(
                    e.applied_version >= entry.1 || e.applied_version == Version::NONE,
                    "{scenario} seed {seed}: {node:?} applied version regressed \
                     {:?} -> {:?} for {flow:?} (stale install after fast-forward)",
                    entry.1,
                    e.applied_version,
                );
                *entry = (e.uim_version, e.applied_version);
            }
        }
    }
    assert!(steps > 0, "{scenario} seed {seed}: nothing ran");
}

#[test]
fn applied_version_is_monotone_under_adversarial_schedules() {
    forall("version_monotonicity", cases(64), |rng| {
        // Rotate through the single-update P4Update scenarios; both
        // mechanisms (single- and dual-layer) face the adversary.
        let scenario = *rng
            .choose(&["fig1-single", "fig1-dual", "multigw-dual"])
            .expect("non-empty");
        check_monotonicity(scenario, rng);
    });
}

#[test]
fn applied_version_is_monotone_on_the_512_switch_fat_tree() {
    // A few cases only: the topology is the scale harness's largest and
    // each case walks every switch after every event.
    forall("version_monotonicity_ft512", 3, |rng| {
        check_monotonicity("ft512-dual", rng);
    });
}
