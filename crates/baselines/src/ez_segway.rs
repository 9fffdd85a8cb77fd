//! The ez-Segway baseline (Nguyen et al., SOSR '17), reimplemented per the
//! paper's adaptation (§9.1): the controller computes segments and their
//! dependencies once, pushes each switch its share, and the data plane
//! coordinates with "good to move" / "segment done" notifications. Unlike
//! P4Update there is **no verification** — switches trust whatever arrives —
//! and **no fast-forward** — a new update waits for the previous one.
//!
//! Congestion awareness runs entirely in the control plane: a global
//! dependency graph over all flows and links, with transitive propagation
//! and static three-level priorities ([`ez_prepare_congestion`]) — the
//! computation Fig. 8b shows P4Update avoiding.

use p4update_dataplane::{ControllerLogic, CtrlEffect, Effect, Endpoint, SwitchLogic, SwitchState};
use p4update_des::SimTime;
use p4update_messages::{EzMsg, EzPriority, EzUpdate, Message};
use p4update_net::{
    segment_update, ArcMap, FlowId, FlowUpdate, NodeId, SegmentDir, Version, CAPACITY_SLACK,
};
use std::collections::{BTreeMap, BTreeSet};

/// Segment classification in ez-Segway (Nguyen et al.; §9.1): segments
/// whose activation cannot create a loop update immediately, `InLoop`
/// segments wait for their dependencies. A switch needs no copy of it: an
/// `InLoop` initiator's [`EzUpdate::depends_on`] lists what it waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EzSegmentKind {
    /// Safe to update independently.
    NotInLoop,
    /// Must wait for downstream segments to finish first.
    InLoop,
}

/// One segment of an ez-Segway update plan.
#[derive(Debug, Clone)]
pub struct EzSegment {
    /// Segment id, 0 at the global ingress end.
    pub id: u32,
    /// Nodes in new-path order: `[finalizer, interior.., initiator]`.
    pub nodes: Vec<NodeId>,
    /// Classification: `InLoop` segments wait for downstream segments.
    pub kind: EzSegmentKind,
    /// Segments that must complete before this one starts.
    pub depends_on: Vec<u32>,
}

/// The full prepared plan for one flow.
#[derive(Debug, Clone)]
pub struct EzPlan {
    /// Flow being updated.
    pub flow: FlowId,
    /// Segments, ingress-most first.
    pub segments: Vec<EzSegment>,
    /// Per-switch messages (one per role a node plays).
    pub msgs: Vec<(NodeId, EzMsg)>,
}

/// An update's segments as ez-Segway plans them: the segmentation P4Update
/// uses ([`segment_update`]: gateways are the nodes shared by the old and
/// new path), a backward segment becoming `InLoop` and waiting for every
/// segment downstream of it.
fn ez_segments(update: &FlowUpdate) -> Vec<EzSegment> {
    let segments = segment_update(update).segments;
    let n = segments.len() as u32;
    (0..n)
        .zip(segments)
        .map(|(id, s)| {
            let (kind, depends_on) = match s.direction() {
                SegmentDir::Forward => (EzSegmentKind::NotInLoop, Vec::new()),
                SegmentDir::Backward => (EzSegmentKind::InLoop, (id + 1..n).collect()),
            };
            EzSegment {
                id,
                nodes: s.nodes(),
                kind,
                depends_on,
            }
        })
        .collect()
}

/// Prepare one flow update without congestion awareness: segmentation,
/// dependency wiring, and the per-switch message set. This is the
/// control-plane work Fig. 8a measures for ez-Segway.
pub fn ez_prepare(update: &FlowUpdate, priority: EzPriority) -> EzPlan {
    let segments = ez_segments(update);
    let total = segments.len() as u32;
    let global_ingress = update.new_path.ingress();

    // Who must learn of each segment's completion: initiators of dependent
    // segments, plus the global ingress (whole-flow completion tracking).
    let mut notify: BTreeMap<u32, BTreeSet<NodeId>> = BTreeMap::new();
    for s in &segments {
        let initiator = *s.nodes.last().expect("segments are non-empty");
        for &dep in &s.depends_on {
            notify.entry(dep).or_default().insert(initiator);
        }
        notify.entry(s.id).or_default().insert(global_ingress);
    }

    let mut msgs = Vec::new();
    for s in &segments {
        let len = s.nodes.len();
        for (i, &node) in s.nodes.iter().enumerate() {
            let is_finalizer = i == 0;
            // A gateway's own flip belongs to the segment where it is the
            // finalizer; as an initiator it only starts the chain.
            let is_initiator = i == len - 1;
            let next_hop = update.new_path.successor(node);
            let upstream = update.new_path.predecessor(node);
            // Initiators need no rule change within this segment; their
            // Update message still configures the chain start.
            let notify_on_done = if is_finalizer {
                notify
                    .get(&s.id)
                    .map(|set| set.iter().copied().collect())
                    .unwrap_or_default()
            } else {
                Vec::new()
            };
            msgs.push((
                node,
                EzMsg::Update(Box::new(EzUpdate {
                    flow: update.flow,
                    next_hop,
                    upstream,
                    segment: s.id,
                    depends_on: if is_initiator {
                        s.depends_on.clone()
                    } else {
                        Vec::new()
                    },
                    initiator: is_initiator,
                    finalizer: is_finalizer,
                    priority,
                    size: update.size,
                    notify_on_done,
                    total_segments: (node == global_ingress && is_finalizer).then_some(total),
                })),
            ));
        }
    }
    EzPlan {
        flow: update.flow,
        segments,
        msgs,
    }
}

/// The centralized congestion dependency computation (Fig. 8b's target).
///
/// ez-Segway's scheduling entities are *segments*, not flows: for every
/// segment of every concurrently-updating flow, the controller determines
/// which directed links the segment's activation claims and which links
/// its deactivation releases, builds the segment-level dependency graph
/// ("segment `s` waits until segment `t` frees capacity"), computes its
/// transitive closure (deadlock detection requires visibility of wait
/// chains), and finally condenses the per-segment results into the static
/// three-level flow priorities the switches use.
pub fn ez_prepare_congestion(
    updates: &[FlowUpdate],
    capacity: &ArcMap<f64>,
) -> BTreeMap<FlowId, EzPriority> {
    // Entity table: (flow index, claimed links, released links, size).
    struct Entity {
        flow: usize,
        claims: Vec<(NodeId, NodeId)>,
        releases: Vec<(NodeId, NodeId)>,
        size: f64,
    }
    let mut entities: Vec<Entity> = Vec::new();
    for (fi, u) in updates.iter().enumerate() {
        let old_edges: Vec<(NodeId, NodeId)> = u
            .old_path
            .as_ref()
            .map(|p| p.edges().collect())
            .unwrap_or_default();
        let new_edges: Vec<(NodeId, NodeId)> = u.new_path.edges().collect();
        for seg in ez_segments(u) {
            let nodes = &seg.nodes;
            let claims: Vec<(NodeId, NodeId)> = nodes
                .windows(2)
                .map(|w| (w[0], w[1]))
                .filter(|e| !old_edges.contains(e))
                .collect();
            // Links the segment's completion vacates: old-path edges
            // between the segment's gateways that the new path abandons.
            let first = nodes[0];
            let last = *nodes.last().expect("non-empty");
            let releases: Vec<(NodeId, NodeId)> = u
                .old_path
                .as_ref()
                .map(|p| {
                    let (Some(i), Some(j)) = (p.position(first), p.position(last)) else {
                        return Vec::new();
                    };
                    let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
                    p.nodes()[lo..=hi]
                        .windows(2)
                        .map(|w| (w[0], w[1]))
                        .filter(|e| !new_edges.contains(e))
                        .collect()
                })
                .unwrap_or_default();
            entities.push(Entity {
                flow: fi,
                claims,
                releases,
                size: u.size,
            });
        }
    }

    let m = entities.len();
    // Segment-level dependency matrix: dep[i][j] = entity i waits for j.
    // The published algorithm enumerates every (link, claiming segment,
    // releasing segment) combination; no fast paths.
    let mut base = vec![false; m * m];
    for (e, &cap) in capacity.iter() {
        let leaving: Vec<usize> = (0..m)
            .filter(|&j| entities[j].releases.contains(&e))
            .collect();
        let mut free = cap;
        for i in 0..m {
            if entities[i].claims.contains(&e) {
                if free + CAPACITY_SLACK < entities[i].size {
                    for &j in &leaving {
                        if entities[i].flow != entities[j].flow {
                            base[i * m + j] = true;
                        }
                    }
                } else {
                    free -= entities[i].size;
                }
            }
        }
    }

    // Transitive closure (Floyd–Warshall style) over segments, followed by
    // ez-Segway's deadlock resolution: a cycle in the dependency graph
    // (a segment transitively waiting on itself) is broken by splitting
    // that segment's volume, and the closure is recomputed — iterating
    // until the graph is acyclic.
    let closure = |base: &[bool]| -> Vec<bool> {
        let mut dep = base.to_vec();
        for k in 0..m {
            for i in 0..m {
                if dep[i * m + k] {
                    for j in 0..m {
                        if dep[k * m + j] {
                            dep[i * m + j] = true;
                        }
                    }
                }
            }
        }
        dep
    };
    let mut dep = closure(&base);
    let mut rounds = 0;
    while rounds < m {
        let Some(c) = (0..m).find(|&i| dep[i * m + i]) else {
            break;
        };
        // Split entity c: its (halved) volume fits, so it stops waiting.
        for j in 0..m {
            base[c * m + j] = false;
        }
        dep = closure(&base);
        rounds += 1;
    }

    // Condense to flow priorities: a flow whose segment unblocks others is
    // high priority; one that both blocks and waits is medium; the rest
    // are low.
    let mut blocks = vec![false; updates.len()];
    let mut waits = vec![false; updates.len()];
    for i in 0..m {
        for j in 0..m {
            if dep[i * m + j] {
                waits[entities[i].flow] = true;
                blocks[entities[j].flow] = true;
            }
        }
    }
    updates
        .iter()
        .enumerate()
        .map(|(fi, u)| {
            let prio = match (blocks[fi], waits[fi]) {
                (true, false) => EzPriority::High,
                (true, true) => EzPriority::Medium,
                _ => EzPriority::Low,
            };
            (u.flow, prio)
        })
        .collect()
}

/// The ez-Segway controller.
pub struct EzController {
    /// Capacity view used only when congestion awareness is on.
    capacity: Option<ArcMap<f64>>,
    pending: BTreeSet<FlowId>,
    /// Updates queued behind an unfinished one for the same flow — ez-Segway
    /// cannot fast-forward (§4.2) and waits for completion.
    queued: Vec<FlowUpdate>,
}

impl EzController {
    /// Controller that computes priorities from the global capacity view
    /// when it has one, and sends every update at low priority otherwise.
    pub fn new(capacity: Option<ArcMap<f64>>) -> Self {
        EzController {
            capacity,
            pending: BTreeSet::new(),
            queued: Vec::new(),
        }
    }

    fn dispatch(&mut self, updates: &[FlowUpdate], out: &mut Vec<CtrlEffect>) {
        let priorities = match &self.capacity {
            Some(cap) => ez_prepare_congestion(updates, cap),
            None => BTreeMap::new(),
        };
        for u in updates {
            let prio = priorities.get(&u.flow).copied().unwrap_or(EzPriority::Low);
            let plan = ez_prepare(u, prio);
            self.pending.insert(u.flow);
            for (node, msg) in plan.msgs {
                out.push(CtrlEffect::Send {
                    to: node,
                    msg: Message::Ez(msg),
                });
            }
        }
    }
}

impl ControllerLogic for EzController {
    fn start_update(&mut self, _now: SimTime, updates: &[FlowUpdate], out: &mut Vec<CtrlEffect>) {
        // No fast-forward: an update for a flow with one still in flight
        // queues until the Done arrives (§4.2's comparison point).
        let (ready, blocked): (Vec<FlowUpdate>, Vec<FlowUpdate>) = updates
            .iter()
            .cloned()
            .partition(|u| !self.pending.contains(&u.flow));
        self.queued.extend(blocked);
        self.dispatch(&ready, out);
    }

    fn on_message(&mut self, now: SimTime, _from: NodeId, msg: Message, out: &mut Vec<CtrlEffect>) {
        let Message::Ez(EzMsg::Done { flow }) = msg else {
            return;
        };
        if self.pending.remove(&flow) {
            // The version is nominal: ez-Segway has no versioning.
            out.push(CtrlEffect::UpdateComplete {
                flow,
                version: Version(2),
            });
        }
        // Release any queued update for this flow.
        if let Some(pos) = self.queued.iter().position(|u| u.flow == flow) {
            let u = self.queued.remove(pos);
            self.start_update(now, &[u], out);
        }
    }
}

/// A switch's role in one (flow, segment): the update it received and
/// whether its action (chain start / install) ran.
struct Role {
    update: Box<EzUpdate>,
    acted: bool,
}

/// The ez-Segway switch logic.
#[derive(Default)]
pub struct EzSwitchLogic {
    roles: BTreeMap<(FlowId, u32), Role>,
    /// GoodToMove notifications that arrived before their Update message.
    early: Vec<(FlowId, u32)>,
    /// SegmentDone notifications that arrived before their Update message.
    early_done: Vec<(FlowId, u32)>,
    /// Done segments seen at this node (for dependency resolution and
    /// whole-flow tracking at the global ingress).
    done_segments: BTreeMap<FlowId, BTreeSet<u32>>,
    /// Rule writes in flight: the segment each `(flow, token)` installs.
    pending: BTreeMap<(FlowId, u64), u32>,
    next_token: u64,
    /// Moves deferred on capacity: (flow, segment) parked per link.
    parked: BTreeMap<NodeId, Vec<(FlowId, u32)>>,
}

impl EzSwitchLogic {
    /// Start acting on a role whose trigger fired: initiators forward the
    /// chain, others install their rule (capacity permitting).
    fn act(&mut self, state: &mut SwitchState, flow: FlowId, segment: u32, out: &mut Vec<Effect>) {
        let Some(role) = self.roles.get(&(flow, segment)) else {
            return;
        };
        if role.acted {
            return;
        }
        let u = &*role.update;
        if u.initiator {
            // Start the in-segment chain: notify upstream. A fresh
            // deployment's egress first writes its terminating rule.
            if u.next_hop.is_none() && !state.uib.read(flow).has_active_rule() {
                state.uib.update(flow, |e| e.applied_version = Version(2));
            }
            let up = u.upstream;
            self.roles
                .get_mut(&(flow, segment))
                .expect("role exists")
                .acted = true;
            if let Some(up) = up {
                out.push(Effect::SendSwitch {
                    to: up,
                    msg: Message::Ez(EzMsg::GoodToMove { flow, segment }),
                });
            }
            return;
        }
        // Interior or finalizer: install the new rule, once it holds the
        // link it moves onto. A move parks behind a higher-priority one
        // waiting for the link, and where the reservation does not fit.
        let moves_onto = u
            .next_hop
            .filter(|&to| state.uib.read(flow).active_next_hop.get() != Some(to));
        if let Some(to) = moves_onto {
            let higher_waiting = self.parked.get(&to).into_iter().flatten().any(|key| {
                self.roles
                    .get(key)
                    .is_some_and(|r| r.update.priority > u.priority)
            });
            if higher_waiting || !state.reserve_capacity(to, u.size) {
                let q = self.parked.entry(to).or_default();
                if !q.contains(&(flow, segment)) {
                    q.push((flow, segment));
                }
                return;
            }
        }
        let token = self.next_token;
        self.next_token += 1;
        self.pending.insert((flow, token), segment);
        self.roles
            .get_mut(&(flow, segment))
            .expect("role exists")
            .acted = true;
        out.push(Effect::BeginInstall { flow, token });
    }

    /// A segment this node's roles may depend on completed.
    fn on_segment_done(
        &mut self,
        state: &mut SwitchState,
        flow: FlowId,
        segment: u32,
        out: &mut Vec<Effect>,
    ) {
        self.done_segments.entry(flow).or_default().insert(segment);

        // Unblock initiators of dependent InLoop segments.
        let ready: Vec<u32> = self
            .roles
            .iter()
            .filter(|(&(f, _), r)| {
                f == flow && r.update.initiator && !r.acted && !r.update.depends_on.is_empty()
            })
            .filter(|(_, r)| {
                let done = self.done_segments.get(&flow).expect("inserted above");
                r.update.depends_on.iter().all(|d| done.contains(d))
            })
            .map(|(&(_, s), _)| s)
            .collect();
        for s in ready {
            self.act(state, flow, s, out);
        }

        // Whole-flow completion tracking at the global ingress.
        self.check_flow_complete(flow, out);
    }

    fn check_flow_complete(&self, flow: FlowId, out: &mut Vec<Effect>) {
        let Some(total) = self
            .roles
            .iter()
            .find(|(&(f, _), r)| f == flow && r.update.total_segments.is_some())
            .and_then(|(_, r)| r.update.total_segments)
        else {
            return;
        };
        let done = self.done_segments.get(&flow).map_or(0, |s| s.len() as u32);
        if done >= total {
            out.push(Effect::SendController {
                msg: Message::Ez(EzMsg::Done { flow }),
            });
        }
    }

    /// Retry parked moves for a link after capacity was released, highest
    /// priority first.
    fn retry_parked(&mut self, state: &mut SwitchState, link: NodeId, out: &mut Vec<Effect>) {
        let Some(mut q) = self.parked.remove(&link) else {
            return;
        };
        q.sort_by_key(|&(f, s)| {
            std::cmp::Reverse(
                self.roles
                    .get(&(f, s))
                    .map_or(EzPriority::Low, |r| r.update.priority),
            )
        });
        for (f, s) in q {
            self.act(state, f, s, out);
        }
    }
}

impl SwitchLogic for EzSwitchLogic {
    fn parked_messages(&self) -> usize {
        // Notifications buffered ahead of their Update message spin in the
        // pipeline just like P4Update's waiting UNMs.
        self.early.len() + self.early_done.len()
    }

    fn on_control(
        &mut self,
        _now: SimTime,
        state: &mut SwitchState,
        _from: Endpoint,
        msg: Message,
        out: &mut Vec<Effect>,
    ) {
        let Message::Ez(msg) = msg else {
            return;
        };
        match msg {
            EzMsg::Update(update) => {
                let (flow, segment) = (update.flow, update.segment);
                if state.uib.read(flow).flow_size == 0.0 {
                    state.uib.update(flow, |e| e.flow_size = update.size);
                }
                // An initiator starts once every segment it depends on is
                // done: at once when it depends on none, and a dependent one
                // may already be satisfied by early dones.
                let starts = update.initiator
                    && update.depends_on.iter().all(|d| {
                        self.done_segments
                            .get(&flow)
                            .is_some_and(|set| set.contains(d))
                    });
                self.roles.insert(
                    (flow, segment),
                    Role {
                        update,
                        acted: false,
                    },
                );
                if starts {
                    self.act(state, flow, segment, out);
                }
                // A GoodToMove that raced ahead of this Update can fire now.
                if let Some(pos) = self
                    .early
                    .iter()
                    .position(|&(f, s)| f == flow && s == segment)
                {
                    self.early.remove(pos);
                    self.act(state, flow, segment, out);
                }
                // So can every SegmentDone of the flow, in arrival order.
                while let Some(pos) = self.early_done.iter().position(|&(f, _)| f == flow) {
                    let (f, s) = self.early_done.remove(pos);
                    self.on_segment_done(state, f, s, out);
                }
            }
            EzMsg::GoodToMove { flow, segment } => {
                if self.roles.contains_key(&(flow, segment)) {
                    self.act(state, flow, segment, out);
                } else {
                    self.early.push((flow, segment));
                }
            }
            EzMsg::SegmentDone { flow, segment } => {
                if self.roles.keys().any(|&(f, _)| f == flow) {
                    self.on_segment_done(state, flow, segment, out);
                } else {
                    self.early_done.push((flow, segment));
                }
            }
            EzMsg::Done { .. } => {}
        }
    }

    fn on_installed(
        &mut self,
        _now: SimTime,
        state: &mut SwitchState,
        flow: FlowId,
        token: u64,
        out: &mut Vec<Effect>,
    ) {
        // A token names one flow's rule write. A completion quoting it for
        // another flow is not that write finishing: leave it pending.
        let Some(segment) = self.pending.remove(&(flow, token)) else {
            return;
        };
        let Some(role) = self.roles.get(&(flow, segment)) else {
            return;
        };
        let u = &*role.update;
        let (next_hop, upstream) = (u.next_hop, u.upstream);
        let notify_on_done = u.finalizer.then(|| u.notify_on_done.clone());
        // Move capacity off the old link and flip the rule.
        let entry = state.uib.read(flow);
        let left = entry
            .active_next_hop
            .get()
            .filter(|&old| next_hop != Some(old));
        if let Some(old) = left {
            state.release_capacity(old, entry.flow_size.max(u.size));
        }
        state.uib.update(flow, |e| {
            e.applied_version = Version(e.applied_version.0.max(1) + 1);
            e.active_next_hop = next_hop.into();
        });

        match notify_on_done {
            // Segment complete: notify dependents and the global ingress.
            Some(targets) => {
                for target in targets {
                    if target == state.id {
                        self.on_segment_done(state, flow, segment, out);
                    } else {
                        out.push(Effect::SendSwitch {
                            to: target,
                            msg: Message::Ez(EzMsg::SegmentDone { flow, segment }),
                        });
                    }
                }
            }
            // Interior: pass the chain upstream.
            None => {
                if let Some(up) = upstream {
                    out.push(Effect::SendSwitch {
                        to: up,
                        msg: Message::Ez(EzMsg::GoodToMove { flow, segment }),
                    });
                }
            }
        }

        if let Some(old) = left {
            self.retry_parked(state, old, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4update_net::Path;

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
    fn segments_classify_like_the_paper() {
        let segs = ez_segments(&fig1_update());
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].kind, EzSegmentKind::NotInLoop);
        assert_eq!(segs[1].kind, EzSegmentKind::InLoop);
        assert_eq!(segs[2].kind, EzSegmentKind::NotInLoop);
        // The InLoop segment depends on everything downstream.
        assert_eq!(segs[1].depends_on, vec![2]);
        assert!(segs[0].depends_on.is_empty());
    }

    #[test]
    fn plan_marks_roles_and_notifications() {
        let plan = ez_prepare(&fig1_update(), EzPriority::Low);
        // One message per (node, segment) membership: 3+3+4 = 10.
        assert_eq!(plan.msgs.len(), 10);
        // The global ingress carries the total segment count.
        let ingress_msg = plan
            .msgs
            .iter()
            .find_map(|(n, m)| match m {
                EzMsg::Update(u) if *n == NodeId(0) => u.total_segments,
                _ => None,
            })
            .expect("ingress message with total");
        assert_eq!(ingress_msg, 3);
        // Segment 2's finalizer (v4) must notify segment 1's initiator
        // (also v4 — self-notification) and the global ingress.
        let v4_finalizer_notify = plan
            .msgs
            .iter()
            .find_map(|(n, m)| match m {
                EzMsg::Update(u) if *n == NodeId(4) && u.segment == 2 && u.finalizer => {
                    Some(u.notify_on_done.clone())
                }
                _ => None,
            })
            .expect("v4 finalizer message");
        assert!(v4_finalizer_notify.contains(&NodeId(0)));
        assert!(v4_finalizer_notify.contains(&NodeId(4)));
    }

    #[test]
    fn congestion_priorities_form_three_levels() {
        // f0 leaves link (0,1); f1 needs (0,1); f2 independent.
        use p4update_des::SimDuration;
        let mut b = p4update_net::TopologyBuilder::new("square");
        let v: Vec<_> = (0..4).map(|i| b.add_node(format!("n{i}"))).collect();
        for (x, y) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            b.add_link(v[x], v[y], SimDuration::from_millis(1), 10.0);
        }
        let mut cap = ArcMap::new(&b.build(), |l| l.capacity);
        let f0 = FlowUpdate::new(FlowId(0), Some(path(&[0, 1, 3])), path(&[0, 2, 3]), 1.0);
        let f1 = FlowUpdate::new(FlowId(1), Some(path(&[0, 2, 3])), path(&[0, 1, 3]), 1.0);
        let f2 = FlowUpdate::new(FlowId(2), Some(path(&[2, 3])), path(&[2, 3]), 1.0);
        // Seed capacity as if old paths are allocated: (0,1) holds f0 → 0
        // free. f1 wants in → depends on f0.
        *cap.get_mut(NodeId(0), NodeId(1)).expect("a link") = 0.0;
        let prios = ez_prepare_congestion(&[f0, f1, f2], &cap);
        assert_eq!(prios[&FlowId(0)], EzPriority::High);
        assert_eq!(prios[&FlowId(2)], EzPriority::Low);
        assert_eq!(prios[&FlowId(1)], EzPriority::Low);
    }

    #[test]
    fn controller_queues_second_update_for_same_flow() {
        let mut c = EzController::new(None);
        let mut out = Vec::new();
        c.start_update(SimTime::ZERO, &[fig1_update()], &mut out);
        let first_count = out.len();
        assert!(first_count > 0);
        out.clear();
        // Second update while the first is pending: nothing goes out.
        c.start_update(SimTime::ZERO, &[fig1_update()], &mut out);
        assert!(out.is_empty());
        // Done releases the queued update.
        c.on_message(
            SimTime::ZERO,
            NodeId(0),
            Message::Ez(EzMsg::Done { flow: FlowId(0) }),
            &mut out,
        );
        assert!(out
            .iter()
            .any(|e| matches!(e, CtrlEffect::UpdateComplete { .. })));
        assert!(out.iter().any(|e| matches!(e, CtrlEffect::Send { .. })));
    }

    #[test]
    fn switch_chain_installs_upstream() {
        use p4update_dataplane::Switch;
        use p4update_des::SimDuration;
        use p4update_net::TopologyBuilder;
        // Segment: 0 (finalizer) - 1 (interior) - 2 (initiator/egress).
        let mut b = TopologyBuilder::new("t");
        let v: Vec<_> = (0..3).map(|i| b.add_node(format!("n{i}"))).collect();
        b.add_link(v[0], v[1], SimDuration::from_millis(1), 10.0);
        b.add_link(v[1], v[2], SimDuration::from_millis(1), 10.0);
        let t = b.build();
        let mut s1 = Switch::new(NodeId(1), &t, Box::new(EzSwitchLogic::default()));

        let upd = Message::Ez(EzMsg::Update(Box::new(EzUpdate {
            flow: FlowId(0),
            next_hop: Some(NodeId(2)),
            upstream: Some(NodeId(0)),
            segment: 0,
            depends_on: vec![],
            initiator: false,
            finalizer: false,
            priority: EzPriority::Low,
            size: 1.0,
            notify_on_done: vec![],
            total_segments: None,
        })));
        let effects = s1.handle_message(SimTime::ZERO, Endpoint::Controller, upd);
        assert!(effects.is_empty(), "interior waits for GoodToMove");
        let effects = s1.handle_message(
            SimTime::ZERO,
            Endpoint::Switch(NodeId(2)),
            Message::Ez(EzMsg::GoodToMove {
                flow: FlowId(0),
                segment: 0,
            }),
        );
        let token = match effects[0] {
            Effect::BeginInstall { token, .. } => token,
            ref o => panic!("unexpected {o:?}"),
        };
        let effects = s1.handle_installed(SimTime::ZERO, FlowId(0), token);
        assert!(matches!(
            &effects[0],
            Effect::SendSwitch { to, msg: Message::Ez(EzMsg::GoodToMove { .. }) }
                if *to == NodeId(0)
        ));
        assert_eq!(s1.state.uib.active_next_hop(FlowId(0)), Some(NodeId(2)));
    }

    #[test]
    fn good_to_move_before_update_is_buffered() {
        use p4update_dataplane::Switch;
        use p4update_des::SimDuration;
        use p4update_net::TopologyBuilder;
        let mut b = TopologyBuilder::new("t");
        let v: Vec<_> = (0..3).map(|i| b.add_node(format!("n{i}"))).collect();
        b.add_link(v[0], v[1], SimDuration::from_millis(1), 10.0);
        b.add_link(v[1], v[2], SimDuration::from_millis(1), 10.0);
        let t = b.build();
        let mut s1 = Switch::new(NodeId(1), &t, Box::new(EzSwitchLogic::default()));
        let effects = s1.handle_message(
            SimTime::ZERO,
            Endpoint::Switch(NodeId(2)),
            Message::Ez(EzMsg::GoodToMove {
                flow: FlowId(0),
                segment: 0,
            }),
        );
        assert!(effects.is_empty());
        let upd = Message::Ez(EzMsg::Update(Box::new(EzUpdate {
            flow: FlowId(0),
            next_hop: Some(NodeId(2)),
            upstream: Some(NodeId(0)),
            segment: 0,
            depends_on: vec![],
            initiator: false,
            finalizer: false,
            priority: EzPriority::Low,
            size: 1.0,
            notify_on_done: vec![],
            total_segments: None,
        })));
        let effects = s1.handle_message(SimTime::ZERO, Endpoint::Controller, upd);
        assert!(matches!(effects[0], Effect::BeginInstall { .. }));
    }

    /// Every SegmentDone that reaches the global ingress ahead of its
    /// Update is replayed when the Update arrives: one left parked would
    /// spin the switch until the horizon, and the flow would never report
    /// Done.
    #[test]
    fn every_segment_done_before_update_is_replayed() {
        use p4update_dataplane::Switch;
        use p4update_des::SimDuration;
        use p4update_net::TopologyBuilder;
        let mut b = TopologyBuilder::new("t");
        let v: Vec<_> = (0..2).map(|i| b.add_node(format!("n{i}"))).collect();
        b.add_link(v[0], v[1], SimDuration::from_millis(1), 10.0);
        let t = b.build();
        let mut s0 = Switch::new(NodeId(0), &t, Box::new(EzSwitchLogic::default()));
        // Segments 2 and 1 finish before the ingress learns its own role.
        for segment in [2, 1] {
            let done = Message::Ez(EzMsg::SegmentDone {
                flow: FlowId(0),
                segment,
            });
            let effects = s0.handle_message(SimTime::ZERO, Endpoint::Switch(NodeId(1)), done);
            assert!(effects.is_empty());
        }
        assert_eq!(s0.logic.parked_messages(), 2);
        // The ingress finalizes segment 0 and tracks all three.
        let upd = Message::Ez(EzMsg::Update(Box::new(EzUpdate {
            flow: FlowId(0),
            next_hop: Some(NodeId(1)),
            upstream: None,
            segment: 0,
            depends_on: vec![],
            initiator: false,
            finalizer: true,
            priority: EzPriority::Low,
            size: 1.0,
            notify_on_done: vec![NodeId(0)],
            total_segments: Some(3),
        })));
        let effects = s0.handle_message(SimTime::ZERO, Endpoint::Controller, upd);
        assert!(effects.is_empty(), "the finalizer waits for GoodToMove");
        assert_eq!(s0.logic.parked_messages(), 0);
        let effects = s0.handle_message(
            SimTime::ZERO,
            Endpoint::Switch(NodeId(1)),
            Message::Ez(EzMsg::GoodToMove {
                flow: FlowId(0),
                segment: 0,
            }),
        );
        let token = match effects[0] {
            Effect::BeginInstall { token, .. } => token,
            ref o => panic!("unexpected {o:?}"),
        };
        let effects = s0.handle_installed(SimTime::ZERO, FlowId(0), token);
        assert!(
            effects.iter().any(|e| matches!(
                e,
                Effect::SendController {
                    msg: Message::Ez(EzMsg::Done { flow: FlowId(0) })
                }
            )),
            "{effects:?}"
        );
    }

    /// The 0 - 1 - 2 line of the switch tests, links of capacity 10.
    fn line3() -> p4update_net::Topology {
        use p4update_des::SimDuration;
        let mut b = p4update_net::TopologyBuilder::new("t");
        let v: Vec<_> = (0..3).map(|i| b.add_node(format!("n{i}"))).collect();
        b.add_link(v[0], v[1], SimDuration::from_millis(1), 10.0);
        b.add_link(v[1], v[2], SimDuration::from_millis(1), 10.0);
        b.build()
    }

    /// Node 1's share of segment `segment` of flow 0 on [`line3`], moving
    /// onto the link toward 2.
    fn update_at_v1(segment: u32, initiator: bool, depends_on: Vec<u32>, size: f64) -> Message {
        Message::Ez(EzMsg::Update(Box::new(EzUpdate {
            flow: FlowId(0),
            next_hop: Some(NodeId(2)),
            upstream: Some(NodeId(0)),
            segment,
            depends_on,
            initiator,
            finalizer: false,
            priority: EzPriority::Low,
            size,
            notify_on_done: vec![],
            total_segments: None,
        })))
    }

    fn good_to_move(segment: u32) -> Message {
        Message::Ez(EzMsg::GoodToMove {
            flow: FlowId(0),
            segment,
        })
    }

    /// An initiator starts on its `Update` when it depends on nothing,
    /// whatever its segment's class: a `NotInLoop` segment never has
    /// dependencies, and an `InLoop` one has none when no segment lies
    /// downstream of it. So the wire carries no class, and an initiator
    /// that does depend on a segment starts on that segment's `SegmentDone`.
    #[test]
    fn an_initiator_starts_once_its_dependencies_are_done() {
        use p4update_dataplane::Switch;
        let starts = |effects: &[Effect]| {
            matches!(
                effects,
                [Effect::SendSwitch {
                    to: NodeId(0),
                    msg: Message::Ez(EzMsg::GoodToMove { .. })
                }]
            )
        };
        let t = line3();
        let mut free = Switch::new(NodeId(1), &t, Box::new(EzSwitchLogic::default()));
        let effects = free.handle_message(
            SimTime::ZERO,
            Endpoint::Controller,
            update_at_v1(1, true, vec![], 1.0),
        );
        assert!(starts(&effects), "{effects:?}");

        let mut bound = Switch::new(NodeId(1), &t, Box::new(EzSwitchLogic::default()));
        let effects = bound.handle_message(
            SimTime::ZERO,
            Endpoint::Controller,
            update_at_v1(1, true, vec![2], 1.0),
        );
        assert!(effects.is_empty(), "{effects:?}");
        let done = Message::Ez(EzMsg::SegmentDone {
            flow: FlowId(0),
            segment: 2,
        });
        let effects = bound.handle_message(SimTime::ZERO, Endpoint::Switch(NodeId(2)), done);
        assert!(starts(&effects), "{effects:?}");

        // On a plan: only an InLoop initiator with segments downstream
        // waits. Fig. 1's segment 1 is InLoop and waits for segment 2.
        let plan = ez_prepare(&fig1_update(), EzPriority::Low);
        for (_, msg) in &plan.msgs {
            let EzMsg::Update(u) = msg else {
                unreachable!()
            };
            let seg = &plan.segments[u.segment as usize];
            let waits = u.initiator
                && seg.kind == EzSegmentKind::InLoop
                && u.segment + 1 < plan.segments.len() as u32;
            assert_eq!(!u.depends_on.is_empty(), waits, "{u:?}");
        }
    }

    /// A size no link can hold (NaN) fails the reservation, so the move
    /// parks, as at P4Update, and takes nothing from the link it never
    /// holds.
    #[test]
    fn a_move_that_reserves_nothing_parks() {
        use p4update_dataplane::Switch;
        let t = line3();
        let mut s1 = Switch::new(NodeId(1), &t, Box::new(EzSwitchLogic::default()));
        s1.handle_message(
            SimTime::ZERO,
            Endpoint::Controller,
            update_at_v1(0, false, vec![], f64::NAN),
        );
        let effects =
            s1.handle_message(SimTime::ZERO, Endpoint::Switch(NodeId(2)), good_to_move(0));
        assert!(effects.is_empty(), "no install began: {effects:?}");
        assert_eq!(s1.logic.parked[&NodeId(2)], [(FlowId(0), 0)]);
        assert_eq!(s1.state.remaining_capacity(NodeId(2)), Some(10.0));
    }

    /// `Switch::handle_installed` takes the flow and the token from its
    /// caller: a token quoted for the wrong flow must neither flip that
    /// flow's slot nor consume the real flow's pending install.
    #[test]
    fn completion_for_another_flow_leaves_the_install_pending() {
        use p4update_dataplane::Switch;
        let t = line3();
        let mut s1 = Switch::new(NodeId(1), &t, Box::new(EzSwitchLogic::default()));
        s1.handle_message(
            SimTime::ZERO,
            Endpoint::Controller,
            update_at_v1(0, false, vec![], 1.0),
        );
        let effects =
            s1.handle_message(SimTime::ZERO, Endpoint::Switch(NodeId(2)), good_to_move(0));
        let token = match effects[0] {
            Effect::BeginInstall { token, .. } => token,
            ref o => panic!("unexpected {o:?}"),
        };
        let effects = s1.handle_installed(SimTime::ZERO, FlowId(7), token);
        assert!(effects.is_empty(), "{effects:?}");
        assert!(!s1.state.uib.knows(FlowId(7)));
        assert_eq!(s1.state.uib.active_next_hop(FlowId(0)), None);
        // The real completion still flips flow 0 and passes the chain on.
        let effects = s1.handle_installed(SimTime::ZERO, FlowId(0), token);
        assert_eq!(effects.len(), 1, "{effects:?}");
        assert_eq!(s1.state.uib.active_next_hop(FlowId(0)), Some(NodeId(2)));
    }
}
