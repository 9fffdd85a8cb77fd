//! The P4Update control plane (§6, §8): flow database, network information
//! base, update preparation (distance labeling + mechanism choice), UIM
//! generation, and feedback handling.
//!
//! The preparation path is a pure function ([`prepare_update`] /
//! [`prepare_batch`]) so the Fig. 8 experiment can time exactly the work
//! the controller does per update — the paper's point being that P4Update
//! needs *no* congestion dependency computation here, unlike ez-Segway.

use p4update_dataplane::{ControllerLogic, CtrlEffect};
use p4update_des::SimTime;
use p4update_messages::{Message, UfmStatus, Uim, UpdateKind};
use p4update_net::{segment_update, FlowId, FlowUpdate, NodeId, Topology, Version};
use std::collections::BTreeMap;

/// The §7.5 deployment strategy: single-layer for updates that install new
/// rules on few nodes in forward-only segmentations, dual-layer otherwise.
/// "Few" is the paper's threshold of five nodes to update.
pub const SL_NODE_THRESHOLD: usize = 5;

/// Which mechanism the controller picks for an update (§7.5), with an
/// override for experiments that force one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// The §7.5 rule: SL for forward-only updates touching at most
    /// [`SL_NODE_THRESHOLD`] nodes, DL otherwise.
    #[default]
    Auto,
    /// Always single-layer.
    ForceSingle,
    /// Always dual-layer.
    ForceDual,
}

impl Strategy {
    /// Resolve the mechanism for one update; only [`Strategy::Auto`]
    /// segments it.
    pub fn choose(self, update: &FlowUpdate) -> UpdateKind {
        match self {
            Strategy::ForceSingle => UpdateKind::Single,
            Strategy::ForceDual => UpdateKind::Dual,
            Strategy::Auto => {
                let nodes_to_update = update.new_path.nodes().len();
                if nodes_to_update <= SL_NODE_THRESHOLD && segment_update(update).forward_only() {
                    UpdateKind::Single
                } else {
                    UpdateKind::Dual
                }
            }
        }
    }
}

/// The prepared configuration for one flow update: the per-switch UIMs plus
/// the metadata the controller records.
///
/// `PartialEq` (not `Eq`, because flow sizes are `f64`) lets incremental
/// analysis diff successive batches plan-by-plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedUpdate {
    /// Flow being updated.
    pub flow: FlowId,
    /// The update request this plan was prepared from (kept so static
    /// analysis can re-derive the expected labels).
    pub update: FlowUpdate,
    /// Version assigned to the new configuration.
    pub version: Version,
    /// Chosen mechanism.
    pub kind: UpdateKind,
    /// `(switch, UIM)` pairs to push, egress first (the egress starts the
    /// chain, so its indication matters most under in-flight loss).
    pub uims: Vec<(NodeId, Uim)>,
}

/// Prepare one flow update: choose the mechanism, label the new path and
/// build all UIMs. This is the complete control-plane computation P4Update
/// needs per update; a segmentation is never shipped, because a dual-layer
/// switch inherits its segment ID from its own old distance (Alg. 2).
pub fn prepare_update(update: &FlowUpdate, version: Version, strategy: Strategy) -> PreparedUpdate {
    let kind = strategy.choose(update);
    PreparedUpdate {
        flow: update.flow,
        update: update.clone(),
        version,
        kind,
        uims: indications(update, version, kind).collect(),
    }
}

/// The `(switch, UIM)` pairs of `update` at `version` under `kind`, egress
/// first: the one place a UIM is built, for a prepared plan and for every
/// push of the controller's loss recovery alike. Each node's UIM carries
/// the labels it verifies locally (§3): its hop distance to the egress on
/// the new path (`D_n`), its next hop there and the upstream neighbour its
/// UNM clone goes to. Egress first is the update's direction (§3.1).
fn indications(
    update: &FlowUpdate,
    version: Version,
    kind: UpdateKind,
) -> impl Iterator<Item = (NodeId, Uim)> + '_ {
    let nodes = update.new_path.nodes();
    (0..nodes.len()).rev().map(move |i| {
        let uim = Uim {
            flow: update.flow,
            version,
            new_distance: (nodes.len() - 1 - i) as u32,
            flow_size: update.size,
            next_hop: nodes.get(i + 1).copied(),
            upstream: i.checked_sub(1).map(|p| nodes[p]),
            kind,
        };
        (nodes[i], uim)
    })
}

/// Prepare a batch of updates (the Fig. 8 measurement unit). Versions are
/// provided per flow by the caller.
pub fn prepare_batch(updates: &[(FlowUpdate, Version)], strategy: Strategy) -> Vec<PreparedUpdate> {
    updates
        .iter()
        .map(|(u, v)| prepare_update(u, *v, strategy))
        .collect()
}

/// Per-flow record in the controller's flow database.
#[derive(Debug, Clone)]
struct FlowRecord {
    /// Newest acknowledged version.
    version: Version,
    /// The update awaiting a success UFM, if any; boxed so that a record
    /// at rest stays two words.
    in_flight: Option<Box<InFlight>>,
}

/// One unacknowledged update, kept for loss recovery (§11): what its
/// indications are a function of, not the indications themselves.
#[derive(Debug, Clone)]
struct InFlight {
    update: FlowUpdate,
    version: Version,
    kind: UpdateKind,
    /// Recovery re-pushes spent so far.
    retries: u32,
}

impl InFlight {
    /// Push every indication of the update, built afresh.
    fn push(&self, out: &mut Vec<CtrlEffect>) {
        out.extend(
            indications(&self.update, self.version, self.kind).map(|(node, uim)| {
                CtrlEffect::Send {
                    to: node,
                    msg: Message::Uim(uim),
                }
            }),
        );
    }
}

/// Maximum recovery re-triggers per pending update (§11). Each retry only
/// needs to advance the chain past one more loss, so the budget is sized
/// for heavy loss rates on long paths.
pub const MAX_RETRIES: u32 = 25;

/// Size bound assigned to flows set up from FRMs.
pub const DEFAULT_FLOW_SIZE: f64 = 1.0;

/// The P4Update controller.
pub struct P4UpdateController {
    strategy: Strategy,
    flows: BTreeMap<FlowId, FlowRecord>,
    /// The Network Information Base: the controller's topology view, used
    /// to set up paths for flows reported via FRM (§6). A handle on the
    /// graph the simulator runs on, like every replica's.
    nib: Topology,
}

impl P4UpdateController {
    /// Controller with the given mechanism strategy and Network
    /// Information Base.
    pub fn new(strategy: Strategy, nib: Topology) -> Self {
        P4UpdateController {
            strategy,
            flows: BTreeMap::new(),
            nib,
        }
    }

    /// Register a flow at an already-deployed version (scenario bootstrap:
    /// the old configuration is in place before the experiment starts).
    pub fn register_flow(&mut self, flow: FlowId, version: Version) {
        self.flows.insert(
            flow,
            FlowRecord {
                version,
                in_flight: None,
            },
        );
    }

    /// The next version number for a flow: one past the newest version
    /// ever issued, whether acknowledged or still in flight (a new
    /// configuration may be pushed while the previous update is ongoing —
    /// the fast-forward case of §4.2).
    pub fn next_version(&self, flow: FlowId) -> Version {
        self.flows.get(&flow).map_or(Version(1), |r| {
            let issued = r.in_flight.as_ref().map_or(Version::NONE, |i| i.version);
            r.version.max(issued).next()
        })
    }

    /// The versions [`ControllerLogic::start_update`] assigns to `updates`,
    /// in order: each entry gets [`Self::next_version`] of its flow,
    /// counting the versions earlier entries of the same batch take. The
    /// one statement of the version rule, for the controller and for a
    /// test that prepares the controller's plans to lint them.
    pub fn batch_versions(&self, updates: &[FlowUpdate]) -> Vec<Version> {
        let mut issued: BTreeMap<FlowId, Version> = BTreeMap::new();
        updates
            .iter()
            .map(|u| {
                let v = issued
                    .get(&u.flow)
                    .map_or_else(|| self.next_version(u.flow), |v| v.next());
                issued.insert(u.flow, v);
                v
            })
            .collect()
    }

    /// Current version of a flow, if known: the newest version its
    /// switches acknowledged, which is the installed context a plan of
    /// the flow is linted against.
    pub fn current_version(&self, flow: FlowId) -> Option<Version> {
        self.flows.get(&flow).map(|r| r.version)
    }
}

impl ControllerLogic for P4UpdateController {
    fn start_update(&mut self, _now: SimTime, updates: &[FlowUpdate], out: &mut Vec<CtrlEffect>) {
        for (update, version) in updates.iter().zip(self.batch_versions(updates)) {
            let in_flight = Box::new(InFlight {
                update: update.clone(),
                version,
                kind: self.strategy.choose(update),
                retries: 0,
            });
            in_flight.push(out);
            let rec = self.flows.entry(update.flow).or_insert(FlowRecord {
                version: Version::NONE,
                in_flight: None,
            });
            rec.in_flight = Some(in_flight);
        }
    }

    fn on_message(
        &mut self,
        _now: SimTime,
        _from: NodeId,
        msg: Message,
        out: &mut Vec<CtrlEffect>,
    ) {
        match msg {
            Message::Ufm(ufm) => match ufm.status {
                UfmStatus::Success => {
                    if let Some(rec) = self.flows.get_mut(&ufm.flow) {
                        if rec
                            .in_flight
                            .as_ref()
                            .is_some_and(|i| i.version == ufm.version)
                        {
                            rec.in_flight = None;
                        }
                        if ufm.version > rec.version {
                            rec.version = ufm.version;
                        }
                    }
                    out.push(CtrlEffect::UpdateComplete {
                        flow: ufm.flow,
                        version: ufm.version,
                    });
                }
                UfmStatus::Alarm(reason) => {
                    out.push(CtrlEffect::AlarmRaised {
                        flow: ufm.flow,
                        reason,
                    });
                }
            },
            Message::Frm(frm) => {
                // A new flow emerged in the data plane (§6): compute its
                // initial route from the NIB and deploy it as a fresh
                // single-layer update, from scratch (blackhole-free:
                // rules install from the egress upstream).
                if self.flows.contains_key(&frm.flow) {
                    return; // already known (duplicate report)
                }
                let Some(path) = p4update_net::shortest_path(&self.nib, frm.ingress, frm.egress)
                else {
                    return;
                };
                let update = FlowUpdate::new(frm.flow, None, path, DEFAULT_FLOW_SIZE);
                self.start_update(_now, &[update], out);
            }
            _ => {}
        }
    }

    /// Loss recovery (§11): while an update's feedback is outstanding,
    /// re-push its indications; the egress regenerates the notification
    /// chain on the duplicate. Gives up after [`MAX_RETRIES`].
    fn on_timer(&mut self, _now: SimTime, out: &mut Vec<CtrlEffect>) -> bool {
        let mut any_pending = false;
        // Ascending `FlowId`: the map's order is the re-push order.
        for in_flight in self.flows.values_mut().filter_map(|r| r.in_flight.as_mut()) {
            if in_flight.retries >= MAX_RETRIES {
                continue;
            }
            in_flight.retries += 1;
            any_pending = true;
            in_flight.push(out);
        }
        any_pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4update_messages::Ufm;
    use p4update_net::Path;

    fn controller() -> P4UpdateController {
        P4UpdateController::new(Strategy::Auto, p4update_net::topologies::fig1())
    }

    fn path(ids: &[u32]) -> Path {
        Path::new(ids.iter().map(|&i| NodeId(i)).collect())
    }

    fn fig1_update() -> FlowUpdate {
        FlowUpdate::new(
            FlowId(0),
            Some(path(&[0, 4, 2, 7])),
            path(&[0, 1, 2, 3, 4, 5, 6, 7]),
            1.0,
        )
    }

    #[test]
    fn auto_strategy_picks_dl_for_fig1() {
        // Backward segment present → dual-layer.
        let u = fig1_update();
        assert_eq!(Strategy::Auto.choose(&u), UpdateKind::Dual);
    }

    #[test]
    fn auto_strategy_picks_sl_for_small_forward_detour() {
        let u = FlowUpdate::new(FlowId(0), Some(path(&[0, 1, 5])), path(&[0, 2, 3, 5]), 1.0);
        assert_eq!(Strategy::Auto.choose(&u), UpdateKind::Single);
    }

    #[test]
    fn auto_strategy_picks_dl_for_long_forward_path() {
        // Forward-only but more than five nodes to update.
        let u = FlowUpdate::new(
            FlowId(0),
            Some(path(&[0, 9, 7])),
            path(&[0, 1, 2, 3, 4, 5, 7]),
            1.0,
        );
        assert!(segment_update(&u).forward_only());
        assert_eq!(Strategy::Auto.choose(&u), UpdateKind::Dual);
    }

    #[test]
    fn forced_strategies_override() {
        let u = fig1_update();
        assert_eq!(Strategy::ForceSingle.choose(&u), UpdateKind::Single);
        assert_eq!(Strategy::ForceDual.choose(&u), UpdateKind::Dual);
    }

    #[test]
    fn prepare_builds_uims_egress_first() {
        let prepared = prepare_update(&fig1_update(), Version(2), Strategy::Auto);
        assert_eq!(prepared.uims.len(), 8);
        assert_eq!(prepared.uims[0].0, NodeId(7));
        assert_eq!(prepared.uims[0].1.new_distance, 0);
        assert_eq!(prepared.uims.last().unwrap().0, NodeId(0));
        assert_eq!(prepared.uims.last().unwrap().1.new_distance, 7);
        assert!(prepared
            .uims
            .iter()
            .all(|(_, u)| u.version == Version(2) && u.kind == UpdateKind::Dual));
    }

    #[test]
    fn uims_carry_the_fig1_labels() {
        // Paper §3: D_n(v0) = 7, D_n(v1) = 6, ..., D_n(v7) = 0.
        let prepared = prepare_update(&fig1_update(), Version(2), Strategy::ForceDual);
        let uims = &prepared.uims;
        assert!(uims.iter().all(|(_, u)| u.flow == FlowId(0)
            && u.version == Version(2)
            && u.kind == UpdateKind::Dual
            && u.flow_size == 1.0));
        // Egress first.
        let (egress, uim) = &uims[0];
        assert_eq!(*egress, NodeId(7));
        assert_eq!(
            (uim.new_distance, uim.next_hop, uim.upstream),
            (0, None, Some(NodeId(6)))
        );
        // Ingress last.
        let (ingress, uim) = uims.last().unwrap();
        assert_eq!(*ingress, NodeId(0));
        assert_eq!(
            (uim.new_distance, uim.next_hop, uim.upstream),
            (7, Some(NodeId(1)), None)
        );
        // Each hop's distance is one more than its parent's.
        for w in uims.windows(2) {
            assert_eq!(w[1].1.new_distance, w[0].1.new_distance + 1);
            assert_eq!(w[1].1.next_hop, Some(w[0].0));
            assert_eq!(w[0].1.upstream, Some(w[1].0));
        }
    }

    #[test]
    fn the_nib_is_a_handle_on_the_callers_graph() {
        let topo = p4update_net::topologies::fig1();
        let c = P4UpdateController::new(Strategy::Auto, topo.clone());
        assert!(std::ptr::eq(c.nib.links().as_ptr(), topo.links().as_ptr()));
    }

    #[test]
    fn controller_versions_increment_per_flow() {
        let mut c = controller();
        assert_eq!(c.next_version(FlowId(0)), Version(1));
        c.register_flow(FlowId(0), Version(3));
        assert_eq!(c.next_version(FlowId(0)), Version(4));
        assert_eq!(c.current_version(FlowId(0)), Some(Version(3)));
        assert_eq!(c.current_version(FlowId(9)), None);
    }

    /// A flow named twice in one batch gets two successive versions, an
    /// unknown flow starts at 1, and `start_update` issues exactly what
    /// `batch_versions` promised.
    #[test]
    fn batch_versions_count_earlier_entries_of_the_batch() {
        let mut c = controller();
        c.register_flow(FlowId(0), Version(3));
        let other = FlowUpdate::new(FlowId(5), None, path(&[0, 1]), 1.0);
        let batch = [fig1_update(), other, fig1_update()];
        let versions = c.batch_versions(&batch);
        assert_eq!(versions, vec![Version(4), Version(1), Version(5)]);
        let mut out = Vec::new();
        c.start_update(SimTime::ZERO, &batch, &mut out);
        let issued: Vec<Version> = out
            .iter()
            .filter_map(|e| match e {
                CtrlEffect::Send {
                    msg: Message::Uim(u),
                    ..
                } if u.next_hop.is_none() => Some(u.version),
                _ => None,
            })
            .collect();
        assert_eq!(issued, versions);
        assert_eq!(c.next_version(FlowId(0)), Version(6));
    }

    /// The simulator's trigger hands P4Update a batch one entry at a time:
    /// that must issue exactly what one call over the batch issues — the
    /// same targets, messages and versions in the same order — a flow named
    /// twice included, because `next_version` counts the in-flight version.
    #[test]
    fn one_call_per_update_issues_what_one_call_per_batch_does() {
        let other = FlowUpdate::new(FlowId(5), None, path(&[0, 1]), 1.0);
        let batch = [fig1_update(), other, fig1_update()];
        let fresh = || {
            let mut c = controller();
            c.register_flow(FlowId(0), Version(3));
            c
        };
        let mut whole = Vec::new();
        fresh().start_update(SimTime::ZERO, &batch, &mut whole);
        let mut split = Vec::new();
        let mut c = fresh();
        for update in &batch {
            c.start_update(SimTime::ZERO, std::slice::from_ref(update), &mut split);
        }
        assert_eq!(whole, split);
        let sends = |out: &[CtrlEffect]| {
            out.iter()
                .map(|e| match e {
                    CtrlEffect::Send {
                        to,
                        msg: Message::Uim(u),
                    } => (*to, u.flow, u.version),
                    other => panic!("unexpected effect {other:?}"),
                })
                .collect::<Vec<_>>()
        };
        let issued = sends(&split);
        assert_eq!(issued.len(), 8 + 2 + 8);
        assert!(issued[..8]
            .iter()
            .all(|&(_, f, v)| (f, v) == (FlowId(0), Version(4))));
        assert!(issued[8..10]
            .iter()
            .all(|&(_, f, v)| (f, v) == (FlowId(5), Version(1))));
        assert!(issued[10..]
            .iter()
            .all(|&(_, f, v)| (f, v) == (FlowId(0), Version(5))));
        assert_eq!(c.next_version(FlowId(0)), Version(6));
    }

    #[test]
    fn start_update_emits_one_uim_per_path_node() {
        let mut c = controller();
        c.register_flow(FlowId(0), Version(1));
        let mut out = Vec::new();
        c.start_update(SimTime::ZERO, &[fig1_update()], &mut out);
        assert_eq!(out.len(), 8);
        assert!(c.flows[&FlowId(0)].in_flight.is_some());
        assert!(out.iter().all(|e| matches!(
            e,
            CtrlEffect::Send {
                msg: Message::Uim(u),
                ..
            } if u.version == Version(2)
        )));
    }

    #[test]
    fn success_ufm_completes_the_update() {
        let mut c = controller();
        c.register_flow(FlowId(0), Version(1));
        let mut out = Vec::new();
        c.start_update(SimTime::ZERO, &[fig1_update()], &mut out);
        out.clear();
        c.on_message(
            SimTime::ZERO,
            NodeId(0),
            Message::Ufm(Ufm {
                flow: FlowId(0),
                version: Version(2),
                status: UfmStatus::Success,
                reporter: NodeId(0),
            }),
            &mut out,
        );
        assert!(c.flows[&FlowId(0)].in_flight.is_none());
        assert_eq!(c.current_version(FlowId(0)), Some(Version(2)));
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            CtrlEffect::UpdateComplete {
                flow: FlowId(0),
                version: Version(2)
            }
        ));
    }

    /// Loss recovery re-pushes exactly what the start pushed — the same
    /// targets and UIMs in the same order, which are the prepared plans'
    /// — for every flow in flight, and a success UFM for the version in
    /// flight ends it.
    #[test]
    fn a_recovery_push_is_the_first_push_again() {
        let single = FlowUpdate::new(FlowId(5), Some(path(&[0, 1, 5])), path(&[0, 2, 3, 5]), 1.5);
        let batch = [fig1_update(), single];
        let mut c = controller();
        c.register_flow(FlowId(0), Version(1));
        let mut first = Vec::new();
        c.start_update(SimTime::ZERO, &batch, &mut first);
        let prepared = prepare_batch(
            &[
                (batch[0].clone(), Version(2)),
                (batch[1].clone(), Version(1)),
            ],
            Strategy::Auto,
        );
        assert_eq!(
            (prepared[0].kind, prepared[1].kind),
            (UpdateKind::Dual, UpdateKind::Single)
        );
        let expected: Vec<CtrlEffect> = prepared
            .into_iter()
            .flat_map(|p| p.uims)
            .map(|(to, uim)| CtrlEffect::Send {
                to,
                msg: Message::Uim(uim),
            })
            .collect();
        assert_eq!(first, expected);
        for _ in 0..3 {
            let mut again = Vec::new();
            assert!(c.on_timer(SimTime::ZERO, &mut again));
            assert_eq!(again, first);
        }
        let success = |flow, version| {
            Message::Ufm(Ufm {
                flow,
                version,
                status: UfmStatus::Success,
                reporter: NodeId(0),
            })
        };
        let mut out = Vec::new();
        c.on_message(
            SimTime::ZERO,
            NodeId(0),
            success(FlowId(0), Version(2)),
            &mut out,
        );
        let mut again = Vec::new();
        assert!(c.on_timer(SimTime::ZERO, &mut again));
        assert_eq!(again, first[8..]);
        c.on_message(
            SimTime::ZERO,
            NodeId(0),
            success(FlowId(5), Version(1)),
            &mut out,
        );
        again.clear();
        assert!(!c.on_timer(SimTime::ZERO, &mut again));
        assert!(again.is_empty());
    }

    #[test]
    fn alarm_ufm_is_recorded() {
        use p4update_messages::RejectReason;
        let mut c = controller();
        let mut out = Vec::new();
        c.on_message(
            SimTime::ZERO,
            NodeId(3),
            Message::Ufm(Ufm {
                flow: FlowId(0),
                version: Version(2),
                status: UfmStatus::Alarm(RejectReason::DistanceMismatch),
                reporter: NodeId(3),
            }),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            CtrlEffect::AlarmRaised {
                flow: FlowId(0),
                reason: RejectReason::DistanceMismatch
            }
        ));
    }
}
