//! The P4Update switch logic: the data-plane side of the framework (§7, §8,
//! Appendix B), plugged into the shared switch chassis.
//!
//! Responsibilities:
//!
//! - **UIM processing**: stage the labels into the UIB; at the egress,
//!   apply directly and start the notification chain(s); at dual-layer
//!   segment-egress gateways, start the segment's second-layer chain.
//! - **UNM processing**: run Algorithm 1/2 ([`crate::verify`](mod@crate::verify)), then act on
//!   the verdict — install & continue the chain, park until the UIM arrives
//!   (packet resubmission, Appendix B), hold for a better notification, or
//!   drop-and-alarm.
//! - **Congestion gating** (§7.4): before installing, check the new
//!   outgoing link's remaining capacity; defer blocked moves in per-link
//!   wait queues and raise the priority of flows that could free the
//!   contended link.

use crate::congestion::CongestionScheduler;
use crate::verify::{verify, Verdict};
use p4update_dataplane::{Effect, Endpoint, FlowPriority, SwitchLogic, SwitchState, UibEntry};
use p4update_des::SimTime;
use p4update_messages::{Message, RejectReason, Ufm, UfmStatus, Uim, Unm, UnmLayer, UpdateKind};
use p4update_net::{FlowId, NodeId, Version};
use std::collections::BTreeMap;

/// How an accepted update is applied at installation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ApplyKind {
    /// [`UibEntry::apply_single`].
    Single,
    /// [`UibEntry::apply_dual`] with the inherited values.
    Dual {
        old_version: Version,
        old_distance: u32,
        counter: u32,
    },
}

/// A verified update waiting for its rule write to complete.
#[derive(Debug, Clone)]
struct PendingInstall {
    /// Names this write in its `BeginInstall` / completion pair.
    token: u64,
    version: Version,
    apply: ApplyKind,
    /// Layer of the triggering UNM: decides whether the chain continues
    /// upstream after the flip (second-layer chains die at gateways, §8).
    layer: UnmLayer,
    /// True when the flip happened at a gateway via the gateway rule —
    /// second-layer notifications stop here.
    via_gateway: bool,
    /// Capacity reserved on the new outgoing link, to release on abort.
    reserved: Option<(NodeId, f64)>,
}

/// A verified update deferred by the congestion scheduler.
#[derive(Debug, Clone)]
struct BlockedMove {
    /// Wire sender of the accepted notification, preserved so the retried
    /// move re-passes the §7 sender binding.
    from: Endpoint,
    unm: Unm,
}

/// Bound on UNMs parked waiting for their UIM: the packet buffer of the
/// software switch. A notification arriving at a full buffer is lost, and
/// the controller's loss recovery re-triggers it.
const UIM_WAITER_CAPACITY: usize = 4096;

/// Notifications parked at this switch until something changes for their
/// flow, in arrival order. Each keeps its wire sender, so re-verification
/// re-passes the §7 sender binding.
#[derive(Debug, Default)]
struct Parked(Vec<(Endpoint, Unm)>);

impl Parked {
    fn push(&mut self, from: Endpoint, unm: Unm) {
        self.0.push((from, unm));
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    /// Remove and return `flow`'s notifications, in arrival order. When
    /// they are all there is, the list itself moves out, so a switch whose
    /// parked messages drained holds no buffer for them.
    fn take(&mut self, flow: FlowId) -> Vec<(Endpoint, Unm)> {
        if self.0.iter().all(|(_, unm)| unm.flow == flow) {
            return std::mem::take(&mut self.0);
        }
        let mut taken = Vec::new();
        self.0.retain(|&parked| {
            let keep = parked.1.flow != flow;
            if !keep {
                taken.push(parked);
            }
            keep
        });
        taken
    }
}

/// The P4Update data-plane logic for one switch.
#[derive(Default)]
pub struct P4UpdateLogic {
    /// UNMs waiting for their version's UIM: the model of Appendix B's
    /// data-plane waiting by packet resubmission, drained when the UIM
    /// arrives and bounded by `UIM_WAITER_CAPACITY`.
    waiting_for_uim: Parked,
    /// First-layer UNMs held at unsatisfied dual-layer gates; retried on
    /// every state change of the flow.
    held: Parked,
    /// The rule write in flight per flow — at most one, as on the real
    /// switch: further notifications for the flow go to `deferred` and are
    /// re-verified once the write completes. Probed by flow, removed by
    /// `(flow, token)` and never iterated: a vector, not a map.
    pending: Vec<(FlowId, PendingInstall)>,
    next_token: u64,
    deferred: Parked,
    scheduler: CongestionScheduler,
    /// Moves the congestion gate deferred. A map, and empty on every switch
    /// the gate never defers at — where it allocates nothing.
    blocked: BTreeMap<FlowId, BlockedMove>,
    /// The newest version each flow's success was reported at, ascending by
    /// flow and probed by binary search (one entry per flow this switch is
    /// the ingress of).
    ufm_sent: Vec<(FlowId, Version)>,
}

impl P4UpdateLogic {
    /// Fresh logic.
    pub fn new() -> Self {
        Self::default()
    }

    fn has_pending(&self, flow: FlowId) -> bool {
        self.pending.iter().any(|(f, _)| *f == flow)
    }

    fn unm_from_entry(entry: &UibEntry, flow: FlowId, kind: UpdateKind, layer: UnmLayer) -> Unm {
        Unm {
            flow,
            v_new: entry.applied_version,
            v_old: entry.old_version,
            d_new: entry.applied_distance,
            d_old: entry.old_distance,
            counter: entry.counter,
            kind,
            layer,
        }
    }

    fn send_unm(&mut self, to: NodeId, unm: Unm, out: &mut Vec<Effect>) {
        out.push(Effect::SendSwitch {
            to,
            msg: Message::Unm(unm),
        });
    }

    fn send_ufm(
        &mut self,
        state: &SwitchState,
        flow: FlowId,
        version: Version,
        status: UfmStatus,
        out: &mut Vec<Effect>,
    ) {
        if status == UfmStatus::Success {
            // Suppressed unless strictly newer than the last one reported.
            match self.ufm_sent.binary_search_by_key(&flow, |&(f, _)| f) {
                Ok(at) if self.ufm_sent[at].1 >= version => return,
                Ok(at) => self.ufm_sent[at].1 = version,
                Err(at) => self.ufm_sent.insert(at, (flow, version)),
            }
        }
        out.push(Effect::SendController {
            msg: Message::Ufm(Ufm {
                flow,
                version,
                status,
                reporter: state.id,
            }),
        });
    }

    /// Stage a UIM into the UIB. Returns `true` when it staged a new
    /// configuration (as opposed to a stale duplicate).
    fn process_uim(
        &mut self,
        now: SimTime,
        state: &mut SwitchState,
        uim: Uim,
        out: &mut Vec<Effect>,
    ) {
        let entry = state.uib.read(uim.flow);

        // Flow-size immutability (§A.2): a different size is an
        // inconsistency; discard and alarm.
        if entry.has_active_rule() && entry.flow_size > 0.0 && uim.flow_size != entry.flow_size {
            self.send_ufm(
                state,
                uim.flow,
                uim.version,
                UfmStatus::Alarm(RejectReason::FlowSizeChanged),
                out,
            );
            return;
        }

        // Stale or duplicate indications. A duplicate at the egress
        // regenerates the notification chain (the controller's loss
        // recovery re-triggers updates through the egress, §11).
        if uim.version < entry.uim_version || uim.version <= entry.applied_version {
            if uim.version == entry.applied_version && entry.is_egress() {
                self.start_chains(state, &uim, out);
            }
            return;
        }
        let duplicate = uim.version == entry.uim_version;

        // Stage the labels (Table 1's new_* registers).
        state.uib.update(uim.flow, |e| {
            e.uim_version = uim.version;
            e.uim_distance = uim.new_distance;
            e.staged_next_hop = uim.next_hop.into();
            e.staged_upstream = uim.upstream.into();
            e.uim_kind = Some(uim.kind);
            if e.flow_size == 0.0 {
                e.flow_size = uim.flow_size;
            }
        });

        if uim.next_hop.is_none() {
            // Egress role: apply directly (§7.1 — "the egress node in the
            // new path can apply the new configuration directly"), then
            // trigger the update process of the child nodes.
            let prev = state.uib.read(uim.flow);
            state.uib.update(uim.flow, |e| match uim.kind {
                UpdateKind::Single => e.apply_single(),
                UpdateKind::Dual => {
                    // Keep the inheritance layer at the previous
                    // configuration: the chain's old distances gate the
                    // backward segments.
                    e.apply_dual(
                        prev.applied_version,
                        prev.applied_distance.min(prev.old_distance),
                        0,
                    );
                }
            });
            self.start_chains(state, &uim, out);
        } else if !duplicate {
            // Dual-layer segment-egress gateways start their segment's
            // second-layer chain at indication time (§8: "the
            // intra-segment UNM is generated at the egress node of each
            // segment") — they are on both paths, so interior nodes can
            // safely point at their old rule (a node holding none is not).
            let e = state.uib.read(uim.flow);
            if let Some(upstream) = uim.upstream {
                let gateway = e.has_active_rule() && e.applied_version.next() == uim.version;
                if uim.kind == UpdateKind::Dual && gateway {
                    let unm = Unm {
                        flow: uim.flow,
                        v_new: uim.version,
                        v_old: e.applied_version,
                        d_new: uim.new_distance,
                        d_old: e.old_distance,
                        counter: e.counter,
                        kind: UpdateKind::Dual,
                        layer: UnmLayer::Intra,
                    };
                    self.send_unm(upstream, unm, out);
                }
            }
        }

        // The indication may unblock notifications that arrived early
        // (data-plane waiting via resubmission, Appendix B).
        for (from, unm) in self.waiting_for_uim.take(uim.flow) {
            self.process_unm(now, state, from, unm, out);
        }
        self.retry_held(now, state, uim.flow, out);
    }

    /// Start the notification chain(s) from the egress: the single chain
    /// for SL, both layers for DL (§8).
    fn start_chains(&mut self, state: &mut SwitchState, uim: &Uim, out: &mut Vec<Effect>) {
        let Some(upstream) = uim.upstream else {
            return; // single-node path cannot exist; defensive
        };
        let entry = state.uib.read(uim.flow);
        match uim.kind {
            UpdateKind::Single => {
                let unm =
                    Self::unm_from_entry(&entry, uim.flow, UpdateKind::Single, UnmLayer::Intra);
                self.send_unm(upstream, unm, out);
            }
            UpdateKind::Dual => {
                let intra =
                    Self::unm_from_entry(&entry, uim.flow, UpdateKind::Dual, UnmLayer::Intra);
                let inter = Unm {
                    layer: UnmLayer::Inter,
                    ..intra
                };
                self.send_unm(upstream, intra, out);
                self.send_unm(upstream, inter, out);
            }
        }
    }

    /// Carry a `kind`/`layer` chain past this switch once its rule is in
    /// place: a UNM built from its registers goes upstream, and at the
    /// ingress the single layer or the first layer reports success (§8:
    /// "if the first-layer UNM arrives at the ingress node, it is
    /// transformed to UFM"; deduplicated per version).
    fn continue_chain(
        &mut self,
        state: &SwitchState,
        flow: FlowId,
        kind: UpdateKind,
        layer: UnmLayer,
        out: &mut Vec<Effect>,
    ) {
        let e = state.uib.read(flow);
        match e.active_upstream.get() {
            Some(up) => {
                let fwd = Self::unm_from_entry(&e, flow, kind, layer);
                self.send_unm(up, fwd, out);
            }
            None if layer == UnmLayer::Inter || kind == UpdateKind::Single => {
                self.send_ufm(state, flow, e.applied_version, UfmStatus::Success, out);
            }
            None => {}
        }
    }

    /// Verify a notification and act on the verdict.
    fn process_unm(
        &mut self,
        now: SimTime,
        state: &mut SwitchState,
        from: Endpoint,
        unm: Unm,
        out: &mut Vec<Effect>,
    ) {
        // One rule write at a time per flow: notifications arriving while
        // a write is in flight resubmit after it completes (they usually
        // become pass-alongs then).
        if self.has_pending(unm.flow) {
            self.deferred.push(from, unm);
            return;
        }
        let entry = state.uib.read(unm.flow);
        let mut verdict = verify(&entry, &unm);
        // Sender binding (§7): an accepting notification must have arrived
        // from this node's staged child on the new path. The verification
        // labels alone can be satisfied by an equivocating neighbor's
        // forged notification (it just claims a distance one further out);
        // the arrival port cannot be forged.
        if verdict.accepts() && Some(from) != entry.staged_next_hop.get().map(Endpoint::Switch) {
            verdict = Verdict::Reject(RejectReason::UnexpectedSender);
        }
        match verdict {
            Verdict::WaitForUim => {
                if self.waiting_for_uim.len() < UIM_WAITER_CAPACITY {
                    self.waiting_for_uim.push(from, unm);
                }
            }
            Verdict::Hold => {
                // Keep only first-layer notifications that may still become
                // actionable; second-layer holds are dropped (the first
                // layer will carry better information).
                if unm.layer == UnmLayer::Inter && unm.v_new > entry.applied_version {
                    self.held.push(from, unm);
                }
            }
            Verdict::Reject(reason) => {
                self.send_ufm(state, unm.flow, unm.v_new, UfmStatus::Alarm(reason), out);
            }
            Verdict::PassAlong => {
                // Dual layer: inherit the smaller old distance (Alg. 2
                // lines 24–28). Single layer: a regenerated recovery chain
                // relays through without touching the inheritance layer.
                if unm.kind == UpdateKind::Dual {
                    state.uib.update(unm.flow, |e| {
                        e.old_distance = unm.d_old;
                        e.old_version = unm.v_old;
                        e.counter = unm.counter + 1;
                    });
                }
                self.continue_chain(state, unm.flow, unm.kind, unm.layer, out);
                self.retry_held(now, state, unm.flow, out);
            }
            Verdict::Accept => {
                self.gate_and_install(now, state, from, unm, ApplyKind::Single, false, out);
            }
            Verdict::AcceptInterior => {
                let apply = ApplyKind::Dual {
                    old_version: Version(unm.v_new.0 - 1),
                    old_distance: unm.d_old,
                    counter: unm.counter + 1,
                };
                self.gate_and_install(now, state, from, unm, apply, false, out);
            }
            Verdict::AcceptGateway => {
                let apply = ApplyKind::Dual {
                    old_version: unm.v_old,
                    old_distance: unm.d_old,
                    counter: unm.counter + 1,
                };
                self.gate_and_install(now, state, from, unm, apply, true, out);
            }
        }
    }

    /// The congestion gate (§7.4) followed by the rule write.
    #[allow(clippy::too_many_arguments)]
    fn gate_and_install(
        &mut self,
        now: SimTime,
        state: &mut SwitchState,
        from: Endpoint,
        unm: Unm,
        apply: ApplyKind,
        via_gateway: bool,
        out: &mut Vec<Effect>,
    ) {
        let entry = state.uib.read(unm.flow);
        let new_hop = entry
            .staged_next_hop
            .get()
            .expect("non-egress acceptance always has a staged next hop");

        // Capacity is already allocated when the flow keeps its link
        // (§A.2: "if the flow was routed on e under the prior forwarding
        // rules ... capacity is already allocated").
        let needs_capacity = entry.active_next_hop.get() != Some(new_hop);
        if needs_capacity {
            let must_yield = self
                .scheduler
                .must_yield(unm.flow, new_hop, entry.priority, |f| {
                    state.uib.read(f).priority
                });
            // The reservation is the fit test: it refuses a shortfall, a
            // size no link can hold and a staged hop that is not a port.
            if must_yield || !state.reserve_capacity(new_hop, entry.flow_size) {
                self.scheduler.park(new_hop, unm.flow);
                self.blocked.insert(unm.flow, BlockedMove { from, unm });
                // Raise the priority of flows that could free the contended
                // link: active on it, staged to leave it. Only flows whose
                // priority actually rises are retried: two flows each
                // blocked on the link the other wants would otherwise
                // re-raise and retry each other forever.
                let mut raised = Vec::new();
                state.uib.for_each_mut(|g, ge| {
                    if g != unm.flow
                        && ge.priority != FlowPriority::High
                        && ge.active_next_hop.get() == Some(new_hop)
                        && ge.uim_version > ge.applied_version
                        && ge.staged_next_hop.get() != Some(new_hop)
                    {
                        ge.priority = FlowPriority::High;
                        raised.push(g);
                    }
                });
                // A raised flow blocked only by priority yielding can now
                // pass: retry its move.
                for g in raised {
                    if let Some(bm) = self.blocked.remove(&g) {
                        self.process_unm(now, state, bm.from, bm.unm, out);
                    }
                }
                return;
            }
        }
        let reserved = needs_capacity.then_some((new_hop, entry.flow_size));

        let token = self.next_token;
        self.next_token += 1;
        assert!(
            !self.has_pending(unm.flow),
            "second rule write for {} while one is in flight",
            unm.flow
        );
        self.pending.push((
            unm.flow,
            PendingInstall {
                token,
                version: unm.v_new,
                apply,
                layer: unm.layer,
                via_gateway,
                reserved,
            },
        ));
        out.push(Effect::BeginInstall {
            flow: unm.flow,
            token,
        });
    }

    /// Re-verify notifications deferred while `flow`'s rule write was in
    /// flight.
    fn drain_deferred(
        &mut self,
        now: SimTime,
        state: &mut SwitchState,
        flow: FlowId,
        out: &mut Vec<Effect>,
    ) {
        for (from, unm) in self.deferred.take(flow) {
            self.process_unm(now, state, from, unm, out);
        }
    }

    /// Rule cleanup (§11): a cleanup packet walking the abandoned old
    /// path. A node still carrying the flow in the version that triggered
    /// the cleanup (or newer) stops the walk; any other node releases its
    /// capacity, clears its rule, and passes the packet downstream.
    fn process_cleanup(
        &mut self,
        now: SimTime,
        state: &mut SwitchState,
        c: p4update_messages::Cleanup,
        out: &mut Vec<Effect>,
    ) {
        let entry = state.uib.read(c.flow);
        if entry.uim_version >= c.version || !entry.has_active_rule() {
            return; // still on the flow's path (or nothing to clean)
        }
        if let Some(next) = entry.active_next_hop.get() {
            state.release_capacity(next, entry.flow_size);
            out.push(Effect::SendSwitch {
                to: next,
                msg: Message::Cleanup(c),
            });
            state.uib.update(c.flow, |e| {
                *e = p4update_dataplane::UibEntry::default();
            });
            self.retry_parked(now, state, next, out);
        } else {
            state.uib.update(c.flow, |e| {
                *e = p4update_dataplane::UibEntry::default();
            });
        }
    }

    /// Retry notifications held at this flow's dual-layer gates after a
    /// state change, purging ones that can never fire anymore.
    fn retry_held(
        &mut self,
        now: SimTime,
        state: &mut SwitchState,
        flow: FlowId,
        out: &mut Vec<Effect>,
    ) {
        for (from, unm) in self.held.take(flow) {
            self.process_unm(now, state, from, unm, out);
        }
    }
}

impl SwitchLogic for P4UpdateLogic {
    fn on_control(
        &mut self,
        now: SimTime,
        state: &mut SwitchState,
        from: Endpoint,
        msg: Message,
        out: &mut Vec<Effect>,
    ) {
        match msg {
            Message::Uim(uim) => self.process_uim(now, state, uim, out),
            Message::Unm(unm) => self.process_unm(now, state, from, unm, out),
            Message::Cleanup(c) => self.process_cleanup(now, state, c, out),
            // FRM/UFM terminate at the controller; other systems' messages
            // are not ours to handle.
            _ => {}
        }
    }

    fn parked_messages(&self) -> usize {
        self.waiting_for_uim.len() + self.held.len() + self.deferred.len()
    }

    fn on_installed(
        &mut self,
        now: SimTime,
        state: &mut SwitchState,
        flow: FlowId,
        token: u64,
        out: &mut Vec<Effect>,
    ) {
        // A token names one flow's rule write. A completion quoting it for
        // another flow is not that write finishing: leave it pending.
        let Some(i) = self
            .pending
            .iter()
            .position(|(f, p)| *f == flow && p.token == token)
        else {
            return;
        };
        let (_, p) = self.pending.swap_remove(i);
        if self.pending.is_empty() {
            // No write in flight: the switch keeps no buffer for one.
            self.pending = Vec::new();
        }
        let entry = state.uib.read(flow);

        // A newer indication superseded this install while the rule write
        // was in flight (fast-forward, §4.2): abort; the newer chain will
        // re-update. Also abort if someone already applied this or newer.
        if entry.uim_version != p.version || entry.applied_version >= p.version {
            if let Some((link, size)) = p.reserved {
                state.release_capacity(link, size);
                self.retry_parked(now, state, link, out);
            }
            self.drain_deferred(now, state, flow, out);
            return;
        }

        // Release capacity on the link the flow moves away from.
        let old_link = entry.active_next_hop.get();
        let moves_off = entry.has_active_rule()
            && old_link.is_some()
            && old_link != entry.staged_next_hop.get();
        if moves_off {
            state.release_capacity(old_link.expect("checked"), entry.flow_size);
        }

        // The flip: egress_port_updated becomes egress_port (Appendix B).
        state.uib.update(flow, |e| match p.apply {
            ApplyKind::Single => e.apply_single(),
            ApplyKind::Dual {
                old_version,
                old_distance,
                counter,
            } => e.apply_dual(old_version, old_distance, counter),
        });
        state.uib.update(flow, |e| e.priority = FlowPriority::Low);
        self.blocked.remove(&flow);

        // Continue the chain upstream — except second-layer notifications
        // at gateways, which die here (§8).
        if !(p.via_gateway && p.layer == UnmLayer::Intra) {
            let kind = match p.apply {
                ApplyKind::Single => UpdateKind::Single,
                ApplyKind::Dual { .. } => UpdateKind::Dual,
            };
            self.continue_chain(state, flow, kind, p.layer, out);
        }

        // Rule cleanup (§11): tell the abandoned old parent no further
        // packets will come, so it can release rules and capacity
        // downstream. The freed capacity may unblock deferred moves.
        if moves_off {
            let old = old_link.expect("checked");
            out.push(Effect::SendSwitch {
                to: old,
                msg: Message::Cleanup(p4update_messages::Cleanup {
                    flow,
                    version: state.uib.read(flow).applied_version,
                }),
            });
            self.retry_parked(now, state, old, out);
        }
        self.retry_held(now, state, flow, out);
        self.drain_deferred(now, state, flow, out);
    }
}

impl P4UpdateLogic {
    /// Retry every move parked for `link`, high-priority first.
    fn retry_parked(
        &mut self,
        now: SimTime,
        state: &mut SwitchState,
        link: NodeId,
        out: &mut Vec<Effect>,
    ) {
        let candidates = self.scheduler.drain(link, |f| state.uib.read(f).priority);
        for f in candidates {
            if let Some(bm) = self.blocked.remove(&f) {
                self.process_unm(now, state, bm.from, bm.unm, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4update_dataplane::Switch;
    use p4update_des::SimDuration;
    use p4update_net::{Topology, TopologyBuilder};

    fn line(n: usize, capacity: f64) -> Topology {
        let mut b = TopologyBuilder::new("line");
        let v: Vec<_> = (0..n).map(|i| b.add_node(format!("n{i}"))).collect();
        for w in v.windows(2) {
            b.add_link(w[0], w[1], SimDuration::from_millis(1), capacity);
        }
        b.build()
    }

    fn uim(flow: u32, version: u32, d: u32, next: Option<u32>, up: Option<u32>) -> Message {
        Message::Uim(Uim {
            flow: FlowId(flow),
            version: Version(version),
            new_distance: d,
            flow_size: 1.0,
            next_hop: next.map(NodeId),
            upstream: up.map(NodeId),
            kind: UpdateKind::Single,
        })
    }

    /// A single-layer notification for `flow`: version `v_new`, from a
    /// sender at distance `d_new`.
    fn unm(flow: u32, v_new: u32, d_new: u32) -> Unm {
        Unm {
            flow: FlowId(flow),
            v_new: Version(v_new),
            v_old: Version(v_new - 1),
            d_new,
            d_old: 0,
            counter: 0,
            kind: UpdateKind::Single,
            layer: UnmLayer::Intra,
        }
    }

    fn p4switch(topo: &Topology, id: u32) -> Switch<P4UpdateLogic> {
        Switch::new(NodeId(id), topo, Box::new(P4UpdateLogic::new()))
    }

    #[test]
    fn egress_applies_uim_directly_and_notifies_child() {
        let t = line(3, 10.0);
        let mut egress = p4switch(&t, 2);
        let effects = egress.handle_message(
            SimTime::ZERO,
            Endpoint::Controller,
            uim(0, 1, 0, None, Some(1)),
        );
        // Applied without install delay.
        let e = egress.state.uib.read(FlowId(0));
        assert_eq!(e.applied_version, Version(1));
        assert!(e.is_egress());
        // UNM sent to the child v1.
        assert_eq!(effects.len(), 1);
        match &effects[0] {
            Effect::SendSwitch {
                to,
                msg: Message::Unm(u),
            } => {
                assert_eq!(*to, NodeId(1));
                assert_eq!(u.v_new, Version(1));
                assert_eq!(u.d_new, 0);
                assert_eq!(u.kind, UpdateKind::Single);
            }
            other => panic!("unexpected effect {other:?}"),
        }
    }

    #[test]
    fn non_egress_node_verifies_then_installs_then_forwards() {
        let t = line(3, 10.0);
        let mut v1 = p4switch(&t, 1);
        // UIM first.
        let effects = v1.handle_message(
            SimTime::ZERO,
            Endpoint::Controller,
            uim(0, 1, 1, Some(2), Some(0)),
        );
        assert!(effects.is_empty(), "no action before the notification");
        // UNM from the egress.
        let unm = Message::Unm(unm(0, 1, 0));
        let effects = v1.handle_message(SimTime::ZERO, Endpoint::Switch(NodeId(2)), unm);
        assert_eq!(effects.len(), 1);
        let token = match effects[0] {
            Effect::BeginInstall { flow, token } => {
                assert_eq!(flow, FlowId(0));
                token
            }
            ref other => panic!("unexpected effect {other:?}"),
        };
        // Not yet applied during the install.
        assert_eq!(v1.state.uib.read(FlowId(0)).applied_version, Version::NONE);
        // Completion flips and forwards upstream.
        let effects = v1.handle_installed(SimTime::ZERO, FlowId(0), token);
        let e = v1.state.uib.read(FlowId(0));
        assert_eq!(e.applied_version, Version(1));
        assert_eq!(e.active_next_hop.get(), Some(NodeId(2)));
        assert_eq!(effects.len(), 1);
        assert!(matches!(
            &effects[0],
            Effect::SendSwitch { to, msg: Message::Unm(u) } if *to == NodeId(0) && u.d_new == 1
        ));
    }

    #[test]
    fn unm_before_uim_waits_then_fires() {
        let t = line(3, 10.0);
        let mut v1 = p4switch(&t, 1);
        let unm = Message::Unm(unm(0, 1, 0));
        let effects = v1.handle_message(SimTime::ZERO, Endpoint::Switch(NodeId(2)), unm);
        assert!(effects.is_empty(), "parked waiting for the UIM");
        // The UIM releases it.
        let effects = v1.handle_message(
            SimTime::ZERO,
            Endpoint::Controller,
            uim(0, 1, 1, Some(2), Some(0)),
        );
        assert!(matches!(effects[0], Effect::BeginInstall { .. }));
    }

    #[test]
    fn ingress_flip_reports_success() {
        let t = line(2, 10.0);
        let mut v0 = p4switch(&t, 0);
        v0.handle_message(
            SimTime::ZERO,
            Endpoint::Controller,
            uim(0, 1, 1, Some(1), None),
        );
        let unm = Message::Unm(unm(0, 1, 0));
        let effects = v0.handle_message(SimTime::ZERO, Endpoint::Switch(NodeId(1)), unm);
        let token = match effects[0] {
            Effect::BeginInstall { token, .. } => token,
            ref o => panic!("unexpected {o:?}"),
        };
        let effects = v0.handle_installed(SimTime::ZERO, FlowId(0), token);
        assert_eq!(effects.len(), 1);
        match &effects[0] {
            Effect::SendController {
                msg: Message::Ufm(u),
            } => {
                assert_eq!(u.status, UfmStatus::Success);
                assert_eq!(u.version, Version(1));
                assert_eq!(u.reporter, NodeId(0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn inconsistent_distance_is_alarmed() {
        let t = line(3, 10.0);
        let mut v1 = p4switch(&t, 1);
        v1.handle_message(
            SimTime::ZERO,
            Endpoint::Controller,
            uim(0, 1, 1, Some(2), Some(0)),
        );
        // Parent claims distance 1 == ours → loop potential (Fig. 6b).
        let unm = Message::Unm(unm(0, 1, 1));
        let effects = v1.handle_message(SimTime::ZERO, Endpoint::Switch(NodeId(2)), unm);
        assert_eq!(effects.len(), 1);
        assert!(matches!(
            &effects[0],
            Effect::SendController { msg: Message::Ufm(u) }
                if u.status == UfmStatus::Alarm(RejectReason::DistanceMismatch)
        ));
        assert_eq!(v1.state.uib.read(FlowId(0)).applied_version, Version::NONE);
    }

    /// Sender binding (§7): a notification whose distance arithmetic is
    /// perfectly consistent is still rejected when it does not arrive
    /// from the staged child on the new path — an equivocating third
    /// party cannot vouch for a hop it does not own.
    #[test]
    fn accepting_unm_from_wrong_sender_is_alarmed() {
        let t = line(4, 10.0);
        let mut v1 = p4switch(&t, 1);
        v1.handle_message(
            SimTime::ZERO,
            Endpoint::Controller,
            uim(0, 1, 2, Some(2), Some(0)),
        );
        // d_new = 1 satisfies `uim_distance == d_new + 1` exactly, but
        // the claim comes from node 3, not the staged child (node 2).
        let unm = Message::Unm(unm(0, 1, 1));
        let effects = v1.handle_message(SimTime::ZERO, Endpoint::Switch(NodeId(3)), unm);
        assert_eq!(effects.len(), 1);
        assert!(matches!(
            &effects[0],
            Effect::SendController { msg: Message::Ufm(u) }
                if u.status == UfmStatus::Alarm(RejectReason::UnexpectedSender)
        ));
        assert_eq!(v1.state.uib.read(FlowId(0)).applied_version, Version::NONE);
    }

    #[test]
    fn capacity_shortfall_defers_the_move() {
        // v1 with two flows: flow 0 active on link to 2 with size 6; flow 1
        // wants to move onto the same link (capacity 10) with size 6 → must
        // wait until flow 0 leaves.
        let mut b = TopologyBuilder::new("y");
        let v: Vec<_> = (0..4).map(|i| b.add_node(format!("n{i}"))).collect();
        b.add_link(v[0], v[1], SimDuration::from_millis(1), 10.0);
        b.add_link(v[1], v[2], SimDuration::from_millis(1), 10.0);
        b.add_link(v[1], v[3], SimDuration::from_millis(1), 10.0);
        let t = b.build();
        let mut v1 = p4switch(&t, 1);

        // Flow 0 active toward v2, consuming 6 of 10.
        v1.state.uib.update(FlowId(0), |e| {
            e.applied_version = Version(1);
            e.applied_distance = 1;
            e.old_version = Version(1);
            e.old_distance = 1;
            e.active_next_hop = Some(NodeId(2)).into();
            e.flow_size = 6.0;
        });
        assert!(v1.state.reserve_capacity(NodeId(2), 6.0));

        // Flow 1 stages an update onto the v1→v2 link (size 6 > remaining 4).
        let u = Message::Uim(Uim {
            flow: FlowId(1),
            version: Version(2),
            new_distance: 1,
            flow_size: 6.0,
            next_hop: Some(NodeId(2)),
            upstream: Some(NodeId(0)),
            kind: UpdateKind::Single,
        });
        v1.handle_message(SimTime::ZERO, Endpoint::Controller, u);
        let unm = Message::Unm(unm(1, 2, 0));
        let effects = v1.handle_message(SimTime::ZERO, Endpoint::Switch(NodeId(2)), unm);
        assert!(effects.is_empty(), "deferred, not installed: {effects:?}");
        assert_eq!(v1.state.uib.read(FlowId(1)).applied_version, Version::NONE);
    }

    #[test]
    fn blocked_flow_retries_when_capacity_frees() {
        // Same as above, then flow 0 moves off the link → flow 1 proceeds.
        let mut b = TopologyBuilder::new("y");
        let v: Vec<_> = (0..4).map(|i| b.add_node(format!("n{i}"))).collect();
        b.add_link(v[0], v[1], SimDuration::from_millis(1), 10.0);
        b.add_link(v[1], v[2], SimDuration::from_millis(1), 10.0);
        b.add_link(v[1], v[3], SimDuration::from_millis(1), 10.0);
        let t = b.build();
        let mut v1 = p4switch(&t, 1);

        v1.state.uib.update(FlowId(0), |e| {
            e.applied_version = Version(1);
            e.applied_distance = 1;
            e.old_version = Version(1);
            e.old_distance = 1;
            e.active_next_hop = Some(NodeId(2)).into();
            e.flow_size = 6.0;
        });
        assert!(v1.state.reserve_capacity(NodeId(2), 6.0));

        // Flow 1: blocked move onto v1→v2.
        v1.handle_message(
            SimTime::ZERO,
            Endpoint::Controller,
            Message::Uim(Uim {
                flow: FlowId(1),
                version: Version(2),
                new_distance: 1,
                flow_size: 6.0,
                next_hop: Some(NodeId(2)),
                upstream: Some(NodeId(0)),
                kind: UpdateKind::Single,
            }),
        );
        v1.handle_message(
            SimTime::ZERO,
            Endpoint::Switch(NodeId(2)),
            Message::Unm(unm(1, 2, 0)),
        );

        // Flow 0 moves to v3 (update to version 2): UIM + UNM + install.
        v1.handle_message(
            SimTime::ZERO,
            Endpoint::Controller,
            Message::Uim(Uim {
                flow: FlowId(0),
                version: Version(2),
                new_distance: 1,
                flow_size: 6.0,
                next_hop: Some(NodeId(3)),
                upstream: Some(NodeId(0)),
                kind: UpdateKind::Single,
            }),
        );
        let effects = v1.handle_message(
            SimTime::ZERO,
            Endpoint::Switch(NodeId(3)),
            Message::Unm(unm(0, 2, 0)),
        );
        let token = match effects[0] {
            Effect::BeginInstall { token, .. } => token,
            ref o => panic!("unexpected {o:?}"),
        };
        let effects = v1.handle_installed(SimTime::ZERO, FlowId(0), token);
        // Flow 0 flipped to v3, releasing 6 units on v1→v2; the parked
        // flow 1 move restarts (a BeginInstall among the effects).
        assert!(effects
            .iter()
            .any(|e| matches!(e, Effect::BeginInstall { flow, .. } if *flow == FlowId(1))));
        assert_eq!(v1.state.uib.active_next_hop(FlowId(0)), Some(NodeId(3)));
    }

    #[test]
    fn fast_forward_aborts_superseded_install() {
        let t = line(3, 10.0);
        let mut v1 = p4switch(&t, 1);
        v1.handle_message(
            SimTime::ZERO,
            Endpoint::Controller,
            uim(0, 1, 1, Some(2), Some(0)),
        );
        let effects = v1.handle_message(
            SimTime::ZERO,
            Endpoint::Switch(NodeId(2)),
            Message::Unm(unm(0, 1, 0)),
        );
        let token = match effects[0] {
            Effect::BeginInstall { token, .. } => token,
            ref o => panic!("unexpected {o:?}"),
        };
        // Version 2's UIM lands while version 1's install is in flight.
        v1.handle_message(
            SimTime::ZERO,
            Endpoint::Controller,
            uim(0, 2, 1, Some(2), Some(0)),
        );
        // The version-1 flip aborts: the staged labels belong to version 2.
        let effects = v1.handle_installed(SimTime::ZERO, FlowId(0), token);
        assert!(effects.is_empty());
        assert_eq!(v1.state.uib.read(FlowId(0)).applied_version, Version::NONE);
        // Version 2's notification updates normally.
        let effects = v1.handle_message(
            SimTime::ZERO,
            Endpoint::Switch(NodeId(2)),
            Message::Unm(unm(0, 2, 0)),
        );
        let token = match effects[0] {
            Effect::BeginInstall { token, .. } => token,
            ref o => panic!("unexpected {o:?}"),
        };
        v1.handle_installed(SimTime::ZERO, FlowId(0), token);
        assert_eq!(v1.state.uib.read(FlowId(0)).applied_version, Version(2));
    }

    #[test]
    fn stale_uim_is_ignored() {
        let t = line(3, 10.0);
        let mut v1 = p4switch(&t, 1);
        v1.handle_message(
            SimTime::ZERO,
            Endpoint::Controller,
            uim(0, 5, 1, Some(2), Some(0)),
        );
        let effects = v1.handle_message(
            SimTime::ZERO,
            Endpoint::Controller,
            uim(0, 3, 1, Some(2), Some(0)),
        );
        assert!(effects.is_empty());
        assert_eq!(v1.state.uib.read(FlowId(0)).uim_version, Version(5));
    }

    #[test]
    fn flow_size_change_is_alarmed() {
        let t = line(3, 10.0);
        let mut v1 = p4switch(&t, 1);
        v1.state.uib.update(FlowId(0), |e| {
            e.applied_version = Version(1);
            e.active_next_hop = Some(NodeId(2)).into();
            e.flow_size = 2.0;
        });
        let effects = v1.handle_message(
            SimTime::ZERO,
            Endpoint::Controller,
            Message::Uim(Uim {
                flow: FlowId(0),
                version: Version(2),
                new_distance: 1,
                flow_size: 99.0,
                next_hop: Some(NodeId(2)),
                upstream: Some(NodeId(0)),
                kind: UpdateKind::Single,
            }),
        );
        assert!(matches!(
            &effects[0],
            Effect::SendController { msg: Message::Ufm(u) }
                if u.status == UfmStatus::Alarm(RejectReason::FlowSizeChanged)
        ));
    }

    /// The scheduler admits on `remaining + eps < size`, which a NaN size
    /// passes, and the reservation then takes nothing: the move must park
    /// as blocked rather than start an install that would later release
    /// capacity it never held.
    #[test]
    fn admitted_move_that_reserves_nothing_is_blocked() {
        let t = line(3, 10.0);
        let mut state = SwitchState::new(NodeId(1), &t);
        let mut logic = P4UpdateLogic::new();
        let mut out = Vec::new();
        let staged = Message::Uim(Uim {
            flow: FlowId(0),
            version: Version(1),
            new_distance: 1,
            flow_size: f64::NAN,
            next_hop: Some(NodeId(2)),
            upstream: Some(NodeId(0)),
            kind: UpdateKind::Single,
        });
        logic.on_control(
            SimTime::ZERO,
            &mut state,
            Endpoint::Controller,
            staged,
            &mut out,
        );
        logic.on_control(
            SimTime::ZERO,
            &mut state,
            Endpoint::Switch(NodeId(2)),
            Message::Unm(unm(0, 1, 0)),
            &mut out,
        );
        assert!(out.is_empty(), "no install began: {out:?}");
        assert_eq!(logic.blocked.keys().collect::<Vec<_>>(), [&FlowId(0)]);
        assert_eq!(state.remaining_capacity(NodeId(2)), Some(10.0));
    }

    /// `Switch::handle_installed` takes the flow and the token from its
    /// caller: a token quoted for the wrong flow must neither flip that
    /// flow's slot nor consume the real flow's pending install.
    #[test]
    fn completion_for_another_flow_leaves_the_install_pending() {
        let t = line(3, 10.0);
        let mut v1 = p4switch(&t, 1);
        v1.handle_message(
            SimTime::ZERO,
            Endpoint::Controller,
            uim(0, 1, 1, Some(2), Some(0)),
        );
        let effects = v1.handle_message(
            SimTime::ZERO,
            Endpoint::Switch(NodeId(2)),
            Message::Unm(unm(0, 1, 0)),
        );
        let token = match effects[0] {
            Effect::BeginInstall { token, .. } => token,
            ref o => panic!("unexpected {o:?}"),
        };
        let effects = v1.handle_installed(SimTime::ZERO, FlowId(7), token);
        assert!(effects.is_empty());
        assert!(!v1.state.uib.knows(FlowId(7)));
        assert_eq!(v1.state.uib.read(FlowId(0)).applied_version, Version::NONE);
        // Flow 0's write is still in flight: a second notification defers.
        v1.handle_message(
            SimTime::ZERO,
            Endpoint::Switch(NodeId(2)),
            Message::Unm(unm(0, 1, 0)),
        );
        assert_eq!(v1.logic.parked_messages(), 1);
        // The real completion still flips it.
        v1.handle_installed(SimTime::ZERO, FlowId(0), token);
        assert_eq!(v1.state.uib.read(FlowId(0)).applied_version, Version(1));
    }

    /// Two writes in flight: a completion carrying flow 0's token for
    /// flow 1 matches neither `(flow, token)` pair, so both stay pending
    /// and each real completion still flips its own flow.
    #[test]
    fn completion_with_another_flows_token_leaves_both_installs_pending() {
        let t = line(3, 10.0);
        let mut v1 = p4switch(&t, 1);
        let mut tokens = Vec::new();
        for flow in [0, 1] {
            v1.handle_message(
                SimTime::ZERO,
                Endpoint::Controller,
                uim(flow, 1, 1, Some(2), Some(0)),
            );
            let effects = v1.handle_message(
                SimTime::ZERO,
                Endpoint::Switch(NodeId(2)),
                Message::Unm(unm(flow, 1, 0)),
            );
            match effects[0] {
                Effect::BeginInstall { token, .. } => tokens.push(token),
                ref o => panic!("unexpected {o:?}"),
            }
        }
        assert_ne!(tokens[0], tokens[1]);
        let effects = v1.handle_installed(SimTime::ZERO, FlowId(1), tokens[0]);
        assert!(effects.is_empty());
        for flow in [0, 1] {
            assert_eq!(
                v1.state.uib.read(FlowId(flow)).applied_version,
                Version::NONE
            );
            // Still in flight: a second notification defers.
            v1.handle_message(
                SimTime::ZERO,
                Endpoint::Switch(NodeId(2)),
                Message::Unm(unm(flow, 1, 0)),
            );
        }
        assert_eq!(v1.logic.parked_messages(), 2);
        // Completions in the other order than the writes began.
        for flow in [1, 0] {
            v1.handle_installed(SimTime::ZERO, FlowId(flow), tokens[flow as usize]);
            assert_eq!(v1.state.uib.read(FlowId(flow)).applied_version, Version(1));
        }
    }

    /// The ingress reports a version's success once: the same version again
    /// and an older one after a newer are suppressed, a strictly newer one is
    /// sent — per flow, whatever order the flows first reported in. An alarm
    /// is never suppressed and suppresses nothing.
    #[test]
    fn a_success_ufm_is_sent_once_per_version() {
        let t = line(2, 10.0);
        let state = SwitchState::new(NodeId(0), &t);
        let mut logic = P4UpdateLogic::new();
        let mut sent = |flow: u32, version: u32, status: UfmStatus| {
            let mut out = Vec::new();
            logic.send_ufm(&state, FlowId(flow), Version(version), status, &mut out);
            match out.as_slice() {
                [] => false,
                [Effect::SendController {
                    msg: Message::Ufm(u),
                }] => {
                    let want = (FlowId(flow), Version(version), status, NodeId(0));
                    assert_eq!((u.flow, u.version, u.status, u.reporter), want);
                    true
                }
                other => panic!("unexpected effects {other:?}"),
            }
        };
        // First reports arrive descending, ascending and in between.
        for flow in [7, 3, 9, 5, 4] {
            assert!(sent(flow, 2, UfmStatus::Success));
        }
        let alarm = UfmStatus::Alarm(RejectReason::OutdatedVersion);
        for flow in [3, 4, 5, 7, 9] {
            assert!(!sent(flow, 2, UfmStatus::Success), "same version twice");
            assert!(!sent(flow, 1, UfmStatus::Success), "older after newer");
            assert!(sent(flow, 4, alarm) && sent(flow, 4, alarm));
            assert!(sent(flow, 3, UfmStatus::Success), "strictly newer");
            assert!(!sent(flow, 2, UfmStatus::Success));
            assert!(!sent(flow, 3, UfmStatus::Success));
        }
        // A flow that never reported is not covered by its neighbours'.
        assert!(sent(6, 1, UfmStatus::Success));
        assert!(!sent(6, 1, UfmStatus::Success));
    }

    /// 4,097 notifications ahead of their UIM: the buffer keeps the first
    /// `UIM_WAITER_CAPACITY` and loses the overflow silently, and the
    /// UIM's arrival re-verifies the kept ones in arrival order.
    #[test]
    fn uim_waiters_are_bounded_and_drain_in_arrival_order() {
        let t = line(3, 10.0);
        let mut state = SwitchState::new(NodeId(1), &t);
        let mut logic = P4UpdateLogic::new();
        let mut out = Vec::new();
        // Distinct versions tell the notifications apart afterwards.
        let sent = UIM_WAITER_CAPACITY as u32 + 1;
        for v in 1..=sent {
            logic.on_control(
                SimTime::ZERO,
                &mut state,
                Endpoint::Switch(NodeId(2)),
                Message::Unm(unm(0, v, 0)),
                &mut out,
            );
        }
        assert!(out.is_empty());
        assert_eq!(logic.parked_messages(), UIM_WAITER_CAPACITY);

        // A UIM newer than all of them: each waiter re-verifies as
        // outdated and alarms with its own version.
        logic.on_control(
            SimTime::ZERO,
            &mut state,
            Endpoint::Controller,
            uim(0, sent + 1, 1, Some(2), Some(0)),
            &mut out,
        );
        assert_eq!(logic.parked_messages(), 0);
        let alarmed: Vec<u32> = out
            .iter()
            .map(|e| match e {
                Effect::SendController {
                    msg: Message::Ufm(u),
                } if u.status == UfmStatus::Alarm(RejectReason::OutdatedVersion) => u.version.0,
                other => panic!("unexpected effect {other:?}"),
            })
            .collect();
        assert_eq!(alarmed, (1..sent).collect::<Vec<_>>());
    }

    /// A switch whose update finished holds no buffer for it: a UNM parked
    /// ahead of its UIM, a duplicate deferred behind the rule write and a
    /// held second-layer UNM all drain when the write completes, and the
    /// write's slot and the three lists are left with no capacity. (The
    /// held notification is placed by hand: a real hold needs a dual-layer
    /// gateway.)
    #[test]
    fn a_finished_update_leaves_no_buffer_behind() {
        let t = line(3, 10.0);
        let mut state = SwitchState::new(NodeId(1), &t);
        let mut logic = P4UpdateLogic::new();
        let mut out = Vec::new();
        let from = Endpoint::Switch(NodeId(2));
        logic.on_control(
            SimTime::ZERO,
            &mut state,
            from,
            Message::Unm(unm(0, 1, 0)),
            &mut out,
        );
        assert_eq!(logic.waiting_for_uim.len(), 1);
        logic.on_control(
            SimTime::ZERO,
            &mut state,
            Endpoint::Controller,
            uim(0, 1, 1, Some(2), Some(0)),
            &mut out,
        );
        let token = match out.as_slice() {
            [Effect::BeginInstall { token, .. }] => *token,
            other => panic!("unexpected effects {other:?}"),
        };
        out.clear();
        logic.on_control(
            SimTime::ZERO,
            &mut state,
            from,
            Message::Unm(unm(0, 1, 0)),
            &mut out,
        );
        assert_eq!(logic.deferred.len(), 1);
        let inter = Unm {
            layer: UnmLayer::Inter,
            ..unm(0, 1, 0)
        };
        logic.held.push(from, inter);
        assert_eq!(logic.pending.len(), 1);

        logic.on_installed(SimTime::ZERO, &mut state, FlowId(0), token, &mut out);
        assert_eq!(state.uib.read(FlowId(0)).applied_version, Version(1));
        assert!(
            !out.iter().any(|e| matches!(e, Effect::BeginInstall { .. })),
            "{out:?}"
        );
        assert_eq!(logic.parked_messages(), 0);
        assert_eq!(logic.pending.capacity(), 0);
        for parked in [&logic.waiting_for_uim, &logic.held, &logic.deferred] {
            assert_eq!(parked.0.capacity(), 0);
        }
    }

    /// Taking one flow out of a list that parks two returns that flow's
    /// notifications in arrival order and keeps the other's in theirs.
    #[test]
    fn a_mixed_take_splits_the_flows_in_arrival_order() {
        let mut parked = Parked::default();
        for (flow, v) in [(0, 1), (1, 2), (0, 3), (1, 4), (0, 5)] {
            parked.push(Endpoint::Switch(NodeId(v)), unm(flow, v, 0));
        }
        let versions = |list: &[(Endpoint, Unm)]| -> Vec<(u32, u32)> {
            list.iter().map(|(_, u)| (u.flow.0, u.v_new.0)).collect()
        };
        let taken = parked.take(FlowId(0));
        assert_eq!(versions(&taken), [(0, 1), (0, 3), (0, 5)]);
        assert_eq!(versions(&parked.0), [(1, 2), (1, 4)]);
        assert!(taken
            .iter()
            .all(|(from, u)| *from == Endpoint::Switch(NodeId(u.v_new.0))));
        assert_eq!(versions(&parked.take(FlowId(1))), [(1, 2), (1, 4)]);
        assert_eq!(parked.0.capacity(), 0);
    }
}
