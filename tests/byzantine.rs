//! The byzantine invariant-survival wall: lying switches against
//! ez-Segway and P4Update, cell by cell.
//!
//! Each cell of the matrix fixes a corruption vector from the catalog
//! (`p4update::messages::ByzVector`), a liar budget `k ∈ {1, 2}`, and a
//! system (ez-Segway or P4Update on the identical Fig. 2 deployment),
//! then runs the scenario under an always-lie chooser (every byzantine
//! choice point takes the corruption) and asserts, per cell:
//!
//! - **loop freedom** — whether a forwarding loop formed,
//! - **version monotonicity** — whether any switch's staged/applied
//!   version ever stepped backwards (checked after every event),
//! - **completion** — whether the update finished by the horizon, and
//! - **detection** — which [`ByzDisposition`] the lie earned: locally
//!   rejected (the receiving switch and its reason are pinned), accepted,
//!   ignored, or (controller-bound) undetectable.
//!
//! The headline claim mirrors the paper's §7 local-verification
//! argument: P4Update switches verify dependency labels and versions
//! against their own UIB state, so every data-plane lie is either
//! locally rejected or harmless, and no safety property falls. ez-Segway
//! trusts its neighbors' GoodToMove/SegmentDone claims outright, and a
//! single forged-ack liar collapses loop freedom under search (the
//! shrunk counterexamples live in `tests/corpus/`).
//!
//! The file also holds the satellite walls: the no-drift differential
//! (catalog installed but no lie taken ⇒ byte-identical behavior), the
//! replicated-controller failover scenarios, and the trace format
//! v2 round-trip property.

use p4update::dataplane::Endpoint;
use p4update::des::propcheck::{cases, forall};
use p4update::des::{ChoiceKind, Scheduler, SimDuration, SimRng, SimTime, Simulation, World};
use p4update::explore::scenarios::{self, SCENARIOS};
use p4update::explore::search::{random_walk, WalkOptions};
use p4update::explore::trace::{ForcedChoice, FreePolicy, Trace, TraceChooser};
use p4update::explore::{run, ChoiceRecord};
use p4update::messages::{Message, RejectReason};
use p4update::net::{FlowId, NodeId, Version};
use p4update::sim::config::ADVERSARY_DELAY_MS;
use p4update::sim::{ByzDisposition, ByzVector, Event, NetworkSim};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// What one matrix cell actually did.
#[derive(Debug)]
struct CellOutcome {
    looped: bool,
    /// No switch's staged or applied version ever stepped backwards.
    monotone: bool,
    /// Applied version stayed bounded by the staged (UIM) version.
    /// Meaningful for P4Update only: ez-Segway installs without staging,
    /// so its applied version runs ahead of the (unused) UIM register
    /// even on honest runs.
    staged_bound: bool,
    completed: bool,
    /// Dispositions of every lie told during the run.
    dispositions: Vec<ByzDisposition>,
    /// Violations the checker found (each one a breach).
    breaches: Vec<String>,
    /// Receiver and reason of every rejected lie, in delivery order.
    rejections: Vec<(Endpoint, RejectReason)>,
    liars: usize,
    /// Byzantine choice points consulted (0 = the vector never found an
    /// applicable message: structurally inapplicable).
    byz_points: usize,
    /// Byzantine choice points that took a lie (always-lie policy takes
    /// every one).
    byz_picks: usize,
}

impl CellOutcome {
    fn accepted(&self) -> usize {
        self.dispositions
            .iter()
            .filter(|d| matches!(d, ByzDisposition::Accepted))
            .count()
    }
}

/// The always-lie random policy (byzantine choice points always corrupt;
/// faults and tie-breaks stay at the default, so whatever breaks is
/// attributable to the lies alone), and the log of what it chose.
fn always_lie() -> (TraceChooser, Rc<RefCell<Vec<ChoiceRecord>>>) {
    TraceChooser::with_policy(
        BTreeMap::new(),
        FreePolicy::Random {
            rng: SimRng::new(0xB12A17),
            fault_p: 0.0,
            tie_p: 0.0,
            byz_p: 1.0,
        },
    )
}

/// Run one cell under the always-lie policy.
fn run_cell(scenario: &str, seed: u64) -> CellOutcome {
    let built = scenarios::build(scenario, seed).expect("cell scenario must build");
    let horizon = built.horizon;
    let (chooser, log) = always_lie();
    let mut sim = built.sim.with_chooser(Box::new(chooser));

    // Version monotonicity, checked after every event (the transient is
    // the bug; end-state checks would miss a repaired rollback).
    let mut high: BTreeMap<(NodeId, FlowId), (Version, Version)> = BTreeMap::new();
    let mut monotone = true;
    let mut staged_bound = true;
    while let Some(t) = sim.step() {
        if t > horizon {
            break;
        }
        for (node, switch) in sim.world().switches.iter() {
            for flow in switch.state.uib.flows() {
                let e = switch.state.uib.read(flow);
                if e.applied_version > e.uim_version.max(Version(1)) {
                    staged_bound = false;
                }
                let entry = high
                    .entry((node, flow))
                    .or_insert((e.uim_version, e.applied_version));
                if (e.uim_version < entry.0 && e.uim_version != Version::NONE)
                    || (e.applied_version < entry.1 && e.applied_version != Version::NONE)
                {
                    monotone = false;
                }
                *entry = (e.uim_version, e.applied_version);
            }
        }
    }
    let world = sim.into_world();
    let looped = world
        .violations
        .iter()
        .any(|(_, v)| matches!(v, p4update::core::Violation::Loop { .. }));
    let completed = world
        .metrics()
        .completions
        .iter()
        .any(|&(_, f, _)| f == FlowId(0));
    let breaches = world.violations.iter().map(|(_, v)| v.to_string());
    let rejections = world
        .byz_outcomes
        .iter()
        .filter_map(|o| match o.disposition {
            ByzDisposition::Rejected(reason) => Some((o.receiver, reason)),
            _ => None,
        });
    let liars = world
        .byz_outcomes
        .iter()
        .map(|o| o.liar)
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let choices = log.borrow();
    let byz_points = choices
        .iter()
        .filter(|c| c.kind == ChoiceKind::Byzantine)
        .count();
    let byz_picks = choices
        .iter()
        .filter(|c| c.kind == ChoiceKind::Byzantine && c.pick != 0)
        .count();
    drop(choices);
    CellOutcome {
        looped,
        monotone,
        staged_bound,
        completed,
        dispositions: world.byz_outcomes.iter().map(|o| o.disposition).collect(),
        breaches: breaches.collect(),
        rejections: rejections.collect(),
        liars,
        byz_points,
        byz_picks,
    }
}

// ---------- the invariant-survival matrix ----------

/// One pinned matrix cell: scenario name, whether the update completes
/// by the horizon, distinct liars observed, the exact disposition of
/// every lie, and the receiver and reason of every rejected one.
struct Cell {
    name: &'static str,
    completed: bool,
    liars: usize,
    dispositions: &'static [ByzDisposition],
    rejections: &'static [(Endpoint, RejectReason)],
}

use ByzDisposition::{Accepted, Ignored, Undetectable};
const REJ_DIST: ByzDisposition = ByzDisposition::Rejected(RejectReason::DistanceMismatch);
const REJ_VER: ByzDisposition = ByzDisposition::Rejected(RejectReason::OutdatedVersion);
/// Switch 1 rejecting a distance that does not fit its label.
const AT1_DIST: (Endpoint, RejectReason) =
    (Endpoint::Switch(NodeId(1)), RejectReason::DistanceMismatch);

/// The Fig. 2 matrix under the always-lie deterministic chooser: vector
/// class × liar budget × system. ez-Segway swallows the lies (the
/// dependency and forged-ack liars stall its update outright; of the stale
/// replays, which arrive [`ADVERSARY_DELAY_MS`] after the honest copies
/// they duplicate, each `SegmentDone` is *accepted* — the global ingress
/// counts the segment again and re-sends `Done` to the controller — and
/// each `GoodToMove` is ignored, its role having acted already); P4Update
/// locally rejects the dependency lie at switch 1, ignores
/// the equivocation, never even sees an applicable stale replay, and
/// classifies the forged controller-bound ack as undetectable-but-harmless.
const FIG2_MATRIX: &[Cell] = &[
    // ez-Segway -----------------------------------------------------
    Cell {
        name: "fig2-ez+byz-dep-k1",
        completed: false,
        liars: 1,
        dispositions: &[Ignored],
        rejections: &[],
    },
    Cell {
        name: "fig2-ez+byz-dep-k2",
        completed: true,
        liars: 2,
        dispositions: &[Ignored, Ignored],
        rejections: &[],
    },
    Cell {
        name: "fig2-ez+byz-stale-k1",
        completed: true,
        liars: 1,
        dispositions: &[Accepted, Ignored],
        rejections: &[],
    },
    Cell {
        name: "fig2-ez+byz-stale-k2",
        completed: true,
        liars: 2,
        dispositions: &[Ignored, Accepted, Accepted, Ignored],
        rejections: &[],
    },
    Cell {
        name: "fig2-ez+byz-equiv-k1",
        completed: true,
        liars: 1,
        dispositions: &[Ignored, Ignored],
        rejections: &[],
    },
    Cell {
        name: "fig2-ez+byz-equiv-k2",
        completed: true,
        liars: 2,
        dispositions: &[Ignored, Ignored, Ignored, Ignored],
        rejections: &[],
    },
    Cell {
        name: "fig2-ez+byz-ack-k1",
        completed: false,
        liars: 1,
        dispositions: &[Ignored],
        rejections: &[],
    },
    Cell {
        name: "fig2-ez+byz-ack-k2",
        completed: false,
        liars: 2,
        dispositions: &[Ignored, Ignored],
        rejections: &[],
    },
    // P4Update ------------------------------------------------------
    Cell {
        name: "fig2-p4+byz-dep-k1",
        completed: false,
        liars: 1,
        dispositions: &[REJ_DIST],
        rejections: &[AT1_DIST],
    },
    Cell {
        name: "fig2-p4+byz-dep-k2",
        completed: false,
        liars: 1,
        dispositions: &[REJ_DIST],
        rejections: &[AT1_DIST],
    },
    Cell {
        name: "fig2-p4+byz-stale-k1",
        completed: true,
        liars: 0,
        dispositions: &[],
        rejections: &[],
    },
    Cell {
        name: "fig2-p4+byz-stale-k2",
        completed: true,
        liars: 0,
        dispositions: &[],
        rejections: &[],
    },
    Cell {
        name: "fig2-p4+byz-equiv-k1",
        completed: true,
        liars: 1,
        dispositions: &[Ignored],
        rejections: &[],
    },
    Cell {
        name: "fig2-p4+byz-equiv-k2",
        completed: true,
        liars: 2,
        dispositions: &[Ignored, Ignored],
        rejections: &[],
    },
    Cell {
        name: "fig2-p4+byz-ack-k1",
        completed: true,
        liars: 1,
        dispositions: &[Undetectable],
        rejections: &[],
    },
    Cell {
        name: "fig2-p4+byz-ack-k2",
        completed: true,
        liars: 1,
        dispositions: &[Undetectable],
        rejections: &[],
    },
];

#[test]
fn invariant_survival_matrix_fig2() {
    for cell in FIG2_MATRIX {
        let out = run_cell(cell.name, 1);
        let p4 = cell.name.starts_with("fig2-p4");
        // Safety invariants: under the *deterministic* always-lie
        // schedule neither system loops or regresses a version — the
        // ez-Segway loop needs the lie *and* an adversarial interleaving
        // (see `search_splits_the_systems_on_forged_acks`).
        assert!(!out.looped, "{}: looped", cell.name);
        assert!(out.monotone, "{}: version regressed", cell.name);
        assert_eq!(
            out.staged_bound, p4,
            "{}: staged-bound should hold iff P4Update (ez installs \
             without staging)",
            cell.name
        );
        assert!(
            out.breaches.is_empty(),
            "{}: unexpected breach {:?}",
            cell.name,
            out.breaches
        );
        // Liveness and detection, cell by cell.
        assert_eq!(out.completed, cell.completed, "{}: completion", cell.name);
        assert_eq!(out.liars, cell.liars, "{}: liars", cell.name);
        assert_eq!(
            out.dispositions, cell.dispositions,
            "{}: dispositions",
            cell.name
        );
        assert_eq!(out.rejections, cell.rejections, "{}: rejections", cell.name);
        // P4Update never *accepts* forged state into a switch.
        if p4 {
            assert_eq!(out.accepted(), 0, "{}: P4Update accepted a lie", cell.name);
        }
    }
}

/// A world that logs every switch-bound delivery it handles: `(time,
/// receiver, sender, message, whether it is a lie)`.
struct Deliveries {
    world: NetworkSim,
    log: Vec<(SimTime, NodeId, Endpoint, Message, bool)>,
}

impl World for Deliveries {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        if let Event::DeliverToSwitch {
            node,
            from,
            msg,
            lie,
        } = &event
        {
            self.log
                .push((now, *node, *from, msg.clone(), lie.is_some()));
        }
        self.world.handle(now, event, sched);
    }
}

/// A lie is classified where it is delivered, not where an identical
/// honest message is: every outcome of ez-Segway's stale replay (a
/// verbatim duplicate, so equality cannot tell the two apart) is recorded
/// at the replay's own delivery, at least [`ADVERSARY_DELAY_MS`] after
/// the honest copy it replays arrived.
#[test]
fn ez_stale_replays_are_classified_at_their_own_delivery() {
    let built = scenarios::build("fig2-ez+byz-stale-k1", 1).expect("scenario builds");
    let horizon = built.horizon;
    let mut sim = Simulation::new(Deliveries {
        world: built.sim.into_world(),
        log: Vec::new(),
    })
    .with_chooser(Box::new(always_lie().0));
    // The trigger `scenarios::build` schedules for Fig. 2.
    sim.schedule_at(
        SimTime::ZERO + SimDuration::from_millis(100),
        Event::Trigger { batch: 0 },
    );
    sim.run_until(horizon);
    let Deliveries { world, log } = sim.into_world();
    let dispositions: Vec<ByzDisposition> =
        world.byz_outcomes.iter().map(|o| o.disposition).collect();
    assert_eq!(dispositions, [Accepted, Ignored], "the matrix cell's run");
    let lies: Vec<_> = log.iter().filter(|d| d.4).collect();
    assert_eq!(lies.len(), world.byz_outcomes.len());
    let late = SimDuration::from_millis(ADVERSARY_DELAY_MS as u64);
    for (outcome, (at, node, from, msg, _)) in world.byz_outcomes.iter().zip(lies) {
        assert_eq!(outcome.receiver, Endpoint::Switch(*node));
        assert_eq!(Endpoint::Switch(outcome.liar), *from);
        let honest = log
            .iter()
            .find(|d| !d.4 && (d.1, d.2, &d.3) == (*node, *from, msg))
            .expect("a stale replay duplicates an honest delivery");
        assert!(
            outcome.at >= *at && *at >= honest.0 + late,
            "{outcome:?} classifies a delivery at {at} replaying one at {}",
            honest.0
        );
    }
}

/// The same always-lie chooser on the other registered topologies: the
/// single- and dual-layer Fig. 1 updates and the multi-gateway overlap
/// case. Dual-layer verification upgrades the stale replay from
/// inapplicable to an explicit `OutdatedVersion` rejection.
#[test]
fn other_topologies_pin_their_dispositions() {
    // Each case: scenario, dispositions, and the switch that rejected each
    // rejected lie (the reason is the disposition's).
    let cases: &[(&str, &[ByzDisposition], &[u32])] = &[
        ("fig1-single+byz-dep-k1", &[REJ_DIST], &[5]),
        ("fig1-single+byz-equiv-k1", &[REJ_DIST], &[2]),
        ("fig1-single+byz-ack-k1", &[Undetectable], &[]),
        ("fig1-dual+byz-stale-k1", &[REJ_VER, REJ_VER], &[6, 6]),
        ("fig1-dual+byz-equiv-k1", &[REJ_DIST, REJ_DIST], &[2, 2]),
        ("multigw-dual+byz-equiv-k1", &[Ignored, Ignored], &[]),
        ("multigw-dual+byz-stale-k1", &[REJ_VER, REJ_VER], &[10, 10]),
    ];
    for &(name, dispositions, rejected_at) in cases {
        let out = run_cell(name, 1);
        assert!(!out.looped, "{name}: looped");
        assert!(out.monotone, "{name}: version regressed");
        assert!(out.staged_bound, "{name}: applied ran ahead of staged");
        assert!(
            out.breaches.is_empty(),
            "{name}: unexpected breach {:?}",
            out.breaches
        );
        assert_eq!(out.dispositions, dispositions, "{name}: dispositions");
        let receivers: Vec<Endpoint> = out.rejections.iter().map(|&(r, _)| r).collect();
        let expected: Vec<Endpoint> = rejected_at
            .iter()
            .map(|&n| Endpoint::Switch(NodeId(n)))
            .collect();
        assert_eq!(receivers, expected, "{name}: rejections");
    }
}

// ---------- detector completeness ----------

/// Every catalog vector, against both systems, is *classified*: each
/// delivered lie earns one disposition (rejected / accepted / ignored /
/// undetectable) — a lie the fault seam duplicates earns two, one it drops
/// none — and the one combination with no disposition at all —
/// stale replay against P4Update — is inapplicable by construction
/// (Algorithm 1 overwrites `old_version` with the staged version at
/// apply time, so an honest UNM never carries `v_new != v_old` and the
/// corruption has nothing to latch onto: zero byzantine choice points
/// are even emitted). No vector silently passes: P4Update accepts no
/// forged state, and the only acceptances anywhere are ez-Segway
/// swallowing stale replays (a replayed `SegmentDone` re-sends `Done`) —
/// the trust gap the paper closes.
#[test]
fn detector_completeness_no_vector_silently_passes() {
    for vector in ByzVector::ALL {
        for sys in ["ez", "p4"] {
            let name = format!("fig2-{sys}+byz-{}-k2", vector.name());
            let out = run_cell(&name, 1);
            assert_eq!(
                out.byz_points, out.byz_picks,
                "{name}: always-lie policy must take every choice point"
            );
            if sys == "p4" && vector == ByzVector::StaleReplay {
                assert_eq!(
                    out.byz_points, 0,
                    "{name}: stale replay must be structurally inapplicable \
                     to honest P4Update notifications"
                );
                continue;
            }
            assert!(
                out.byz_points > 0,
                "{name}: catalog vector never found an applicable message"
            );
            assert!(
                !out.dispositions.is_empty(),
                "{name}: lies were told but none classified"
            );
            if sys == "p4" {
                assert_eq!(out.accepted(), 0, "{name}: P4Update accepted a lie");
            }
        }
    }
}

// ---------- search: the headline split ----------

/// Byzantine-only random walks (no faults, light tie-break noise) find
/// the forged-ack loop against ez-Segway within a small budget and find
/// nothing against P4Update with double the budget. The hit's shrunk
/// form is committed as `tests/corpus/fig2-ez+byz-ack-k1-loop.trace`.
#[test]
fn search_splits_the_systems_on_forged_acks() {
    let walk = |runs| WalkOptions {
        runs,
        fault_p: 0.0,
        byz_p: 0.5,
    };
    let hit = random_walk("fig2-ez+byz-ack-k1", 1, walk(16))
        .expect("scenario builds")
        .expect("forged acks must break ez-Segway within 16 walks");
    assert!(
        hit.trace
            .expect_violations
            .iter()
            .any(|v| matches!(v, p4update::core::Violation::Loop { .. })),
        "ez-Segway breach must be a forwarding loop: {:?}",
        hit.trace.expect_violations
    );
    let clean = random_walk("fig2-p4+byz-ack-k1", 1, walk(32)).expect("scenario builds");
    assert!(
        clean.is_none(),
        "P4Update must survive the same forged-ack adversary: {:?}",
        clean.map(|o| o.trace.expect_violations)
    );
}

// ---------- no-drift differential wall ----------

/// Strip a report's choice log down to `(kind, arity, pick)` tuples,
/// optionally dropping byzantine records (their presence shifts the
/// consultation indexes of everything after them).
fn shape(choices: &[ChoiceRecord], keep_byz: bool) -> Vec<(ChoiceKind, u32, u32)> {
    choices
        .iter()
        .filter(|c| keep_byz || c.kind != ChoiceKind::Byzantine)
        .map(|c| (c.kind, c.arity, c.pick))
        .collect()
}

/// Installing the byzantine catalog without taking a single lie must not
/// move anything: for every registered scenario, the `+byz-any-k2`
/// modifier under the default (honest) policy yields the same event
/// count, drain flag, violation list, and non-byzantine choice sequence
/// as the unmodified scenario.
#[test]
fn catalog_without_lies_is_behaviorally_invisible() {
    for s in SCENARIOS {
        let byz_name = format!("{}+byz-any-k2", s.name);
        for seed in [1u64, 7] {
            let base = run(s.name, seed, BTreeMap::new(), FreePolicy::Default)
                .expect("base scenario runs");
            let byz = run(&byz_name, seed, BTreeMap::new(), FreePolicy::Default)
                .expect("byz-modified scenario runs");
            assert_eq!(base.events, byz.events, "{byz_name}@{seed}: events drifted");
            assert_eq!(
                base.drained, byz.drained,
                "{byz_name}@{seed}: drain drifted"
            );
            assert_eq!(
                base.violations, byz.violations,
                "{byz_name}@{seed}: violations drifted"
            );
            // The byz run logs extra (honest, pick-0) byzantine records;
            // everything else must match decision for decision.
            assert!(
                shape(&base.choices, true) == shape(&base.choices, false),
                "{}@{seed}: base run emitted byzantine choice points \
                 without a catalog",
                s.name
            );
            assert_eq!(
                shape(&base.choices, true),
                shape(&byz.choices, false),
                "{byz_name}@{seed}: non-byzantine choice sequence drifted"
            );
        }
    }
}

// ---------- replicated controller ----------

/// Deterministic mid-update failover: with 2–3 controller replicas the
/// primary dies at the configured instant, a standby (fed by the lagged
/// replication stream plus the §11 retry path) takes over, and the
/// update still completes with no violations.
#[test]
fn replicated_controller_failover_still_completes() {
    for name in [
        "fig1-single+repl2",
        "fig1-dual+repl3",
        "multigw-dual+repl2",
        "fig2-p4+repl2",
    ] {
        let built = scenarios::build(name, 1).expect("replicated scenario builds");
        let horizon = built.horizon;
        let mut sim = built.sim;
        sim.run_until(horizon);
        let world = sim.into_world();
        assert!(world.failed_over, "{name}: failover never fired");
        assert!(
            world.violations.is_empty(),
            "{name}: violations {:?}",
            world.violations
        );
        assert!(
            world
                .metrics()
                .completions
                .iter()
                .any(|&(_, f, _)| f == FlowId(0)),
            "{name}: update never completed after failover"
        );
    }
}

/// Lies and failover together: the byzantine catalog plus a replicated
/// controller is still safe for P4Update — the standby inherits the
/// primary's verdict state and no breach or acceptance appears.
#[test]
fn failover_under_lies_stays_safe() {
    for name in ["fig2-p4+byz-ack-k1+repl2", "fig2-p4+byz-equiv-k1+repl2"] {
        let out = run_cell(name, 1);
        assert!(!out.looped, "{name}: looped");
        assert!(out.monotone, "{name}: version regressed");
        assert!(out.breaches.is_empty(), "{name}: {:?}", out.breaches);
        assert_eq!(out.accepted(), 0, "{name}: accepted a lie");
    }
}

// ---------- trace format v2 ----------

/// A random trace: scenario, seed, optional event pin, and a sparse set
/// of forced decisions across all three choice kinds.
fn gen_trace(rng: &mut SimRng) -> Trace {
    let names = [
        "fig2-ez",
        "fig2-p4+byz-any-k1",
        "fig1-dual+byz-ack-k2+repl2",
        "ft512-dual",
    ];
    let mut t = Trace::new(
        *rng.choose(&names).expect("non-empty"),
        1 + rng.uniform_usize(1 << 16) as u64,
    );
    if rng.chance(0.5) {
        t.expect_events = Some(rng.uniform_usize(500) as u64);
    }
    let mut index = 0u64;
    for _ in 0..rng.uniform_usize(8) {
        index += 1 + rng.uniform_usize(20) as u64;
        let kind = match rng.uniform_usize(3) {
            0 => ChoiceKind::TieBreak,
            1 => ChoiceKind::Fault,
            _ => ChoiceKind::Byzantine,
        };
        let arity = 2 + rng.uniform_usize(5) as u32;
        let pick = 1 + rng.uniform_usize(arity as usize - 1) as u32;
        t.choices.insert(index, ForcedChoice { kind, arity, pick });
    }
    t
}

/// v2 text round-trip: serialize → parse → equal trace, re-serialize →
/// byte-identical text, and the header version is exactly v2 when (and
/// only when) the trace forces a byzantine decision.
#[test]
fn trace_text_round_trips_across_versions() {
    forall("byz_trace_round_trip", cases(128), |rng| {
        let t = gen_trace(rng);
        let text = t.to_text();
        let header = text.lines().next().expect("non-empty");
        assert_eq!(
            header.ends_with("v2"),
            t.needs_v2(),
            "header {header:?} vs needs_v2={}",
            t.needs_v2()
        );
        let parsed = Trace::parse(&text).expect("own serialization parses");
        assert_eq!(parsed, t, "parse(to_text) round trip");
        assert_eq!(parsed.to_text(), text, "to_text idempotence");
    });
}

/// Strict v1 backward compatibility: a byzantine decision under an
/// explicit v1 header is a parse error, while a v2 header over a
/// byz-free body still parses (v2 is a superset).
#[test]
fn v1_header_refuses_byzantine_choices() {
    let mut t = Trace::new("fig2-ez", 1);
    t.choices.insert(
        3,
        ForcedChoice {
            kind: ChoiceKind::Byzantine,
            arity: 2,
            pick: 1,
        },
    );
    let v2_text = t.to_text();
    let v1_text = v2_text.replacen("trace v2", "trace v1", 1);
    let err = Trace::parse(&v1_text).expect_err("byz choice under v1 header must fail");
    assert!(
        err.contains("v2") || err.contains("byz"),
        "unhelpful diagnostic: {err}"
    );

    let mut honest = Trace::new("fig2-ez", 1);
    honest.choices.insert(
        2,
        ForcedChoice {
            kind: ChoiceKind::TieBreak,
            arity: 3,
            pick: 1,
        },
    );
    let upgraded = honest.to_text().replacen("trace v1", "trace v2", 1);
    let parsed = Trace::parse(&upgraded).expect("v2 header accepts a byz-free body");
    assert_eq!(parsed, honest);
}
