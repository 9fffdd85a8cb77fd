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
use p4update_messages::{EzMsg, EzPriority, EzSegmentKind, EzUpdate, Message};
use p4update_net::{
    segment_update, FlowId, FlowUpdate, NodeId, SegmentDir, Version, CAPACITY_SLACK,
};
use std::collections::{BTreeMap, BTreeSet};

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
                    kind: s.kind,
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
    capacity: &BTreeMap<(NodeId, NodeId), f64>,
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
    for (&e, &cap) in capacity {
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
    capacity: Option<BTreeMap<(NodeId, NodeId), f64>>,
    pending: BTreeSet<FlowId>,
    /// Updates queued behind an unfinished one for the same flow — ez-Segway
    /// cannot fast-forward (§4.2) and waits for completion.
    queued: Vec<FlowUpdate>,
}

impl EzController {
    /// Controller without congestion awareness.
    pub fn new() -> Self {
        EzController {
            capacity: None,
            pending: BTreeSet::new(),
            queued: Vec::new(),
        }
    }

    /// Controller with the global capacity view for priority computation.
    pub fn with_congestion(capacity: BTreeMap<(NodeId, NodeId), f64>) -> Self {
        EzController {
            capacity: Some(capacity),
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

impl Default for EzController {
    fn default() -> Self {
        Self::new()
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

/// Per-(flow, segment) role data at a switch.
#[derive(Debug, Clone)]
struct Role {
    next_hop: Option<NodeId>,
    upstream: Option<NodeId>,
    kind: EzSegmentKind,
    depends_on: BTreeSet<u32>,
    initiator: bool,
    finalizer: bool,
    priority: EzPriority,
    size: f64,
    notify_on_done: Vec<NodeId>,
    total_segments: Option<u32>,
    /// Set once this role's action (chain start / install / flip) ran.
    acted: bool,
}

/// The ez-Segway switch logic.
pub struct EzSwitchLogic {
    roles: BTreeMap<(FlowId, u32), Role>,
    /// GoodToMove notifications that arrived before their Update message.
    early: Vec<(FlowId, u32)>,
    /// SegmentDone notifications that arrived before their Update message.
    early_done: Vec<(FlowId, u32)>,
    /// Done segments seen at this node (for dependency resolution and
    /// whole-flow tracking at the global ingress).
    done_segments: BTreeMap<FlowId, BTreeSet<u32>>,
    pending: BTreeMap<u64, (FlowId, u32)>,
    next_token: u64,
    /// Moves deferred on capacity: (flow, segment) parked per link.
    parked: BTreeMap<NodeId, Vec<(FlowId, u32)>>,
}

impl Default for EzSwitchLogic {
    fn default() -> Self {
        Self::new()
    }
}

impl EzSwitchLogic {
    /// Fresh logic.
    pub fn new() -> Self {
        EzSwitchLogic {
            roles: BTreeMap::new(),
            early: Vec::new(),
            early_done: Vec::new(),
            done_segments: BTreeMap::new(),
            pending: BTreeMap::new(),
            next_token: 0,
            parked: BTreeMap::new(),
        }
    }

    /// Start acting on a role whose trigger fired: initiators forward the
    /// chain, others install their rule (capacity permitting).
    fn act(&mut self, state: &mut SwitchState, flow: FlowId, segment: u32, out: &mut Vec<Effect>) {
        let Some(role) = self.roles.get(&(flow, segment)) else {
            return;
        };
        if role.acted {
            return;
        }
        if role.initiator {
            // Start the in-segment chain: notify upstream.
            let up = role.upstream;
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
        // Interior or finalizer: install the new rule. Capacity gate first.
        let entry = state.uib.read(flow);
        let new_hop = role.next_hop;
        let needs_capacity = new_hop.is_some() && entry.active_next_hop != new_hop;
        if needs_capacity {
            let to = new_hop.expect("checked");
            let remaining = state.remaining_capacity(to).unwrap_or(0.0);
            let my_prio = role.priority;
            let higher_waiting = self.parked.get(&to).into_iter().flatten().any(|&(f, s)| {
                self.roles
                    .get(&(f, s))
                    .is_some_and(|r| r.priority > my_prio)
            });
            if remaining + CAPACITY_SLACK < role.size || higher_waiting {
                let q = self.parked.entry(to).or_default();
                if !q.contains(&(flow, segment)) {
                    q.push((flow, segment));
                }
                return;
            }
            state.reserve_capacity(to, role.size);
        }
        let token = self.next_token;
        self.next_token += 1;
        self.pending.insert(token, (flow, segment));
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
            .filter(|(&(f, _), r)| f == flow && r.initiator && !r.acted && !r.depends_on.is_empty())
            .filter(|(_, r)| {
                let done = self.done_segments.get(&flow).expect("inserted above");
                r.depends_on.iter().all(|d| done.contains(d))
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
            .find(|(&(f, _), r)| f == flow && r.total_segments.is_some())
            .and_then(|(_, r)| r.total_segments)
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
                    .map_or(EzPriority::Low, |r| r.priority),
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
                let EzUpdate {
                    flow,
                    next_hop,
                    upstream,
                    segment,
                    kind,
                    depends_on,
                    initiator,
                    finalizer,
                    priority,
                    size,
                    notify_on_done,
                    total_segments,
                } = *update;
                self.roles.insert(
                    (flow, segment),
                    Role {
                        next_hop,
                        upstream,
                        kind,
                        depends_on: depends_on.into_iter().collect(),
                        initiator,
                        finalizer,
                        priority,
                        size,
                        notify_on_done,
                        total_segments,
                        acted: false,
                    },
                );
                if state.uib.read(flow).flow_size == 0.0 {
                    state.uib.update(flow, |e| e.flow_size = size);
                }
                // Initiators of independent segments start immediately;
                // dependent ones may already be satisfied by early dones.
                let role = self.roles.get(&(flow, segment)).expect("just inserted");
                if role.initiator {
                    let deps_met = role.depends_on.iter().all(|d| {
                        self.done_segments
                            .get(&flow)
                            .is_some_and(|set| set.contains(d))
                    });
                    if role.kind == EzSegmentKind::NotInLoop || deps_met {
                        self.act(state, flow, segment, out);
                    }
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
        let Some((f, segment)) = self.pending.remove(&token) else {
            return;
        };
        assert_eq!(f, flow);
        let Some(role) = self.roles.get(&(flow, segment)).cloned() else {
            return;
        };
        // Move capacity off the old link and flip the rule.
        let entry = state.uib.read(flow);
        let old_link = entry.active_next_hop;
        if let Some(old) = old_link {
            if role.next_hop != Some(old) {
                state.release_capacity(old, entry.flow_size.max(role.size));
            }
        }
        state.uib.update(flow, |e| {
            e.applied_version = Version(e.applied_version.0.max(1) + 1);
            e.active_next_hop = role.next_hop;
        });

        if role.finalizer {
            // Segment complete: notify dependents and the global ingress.
            for &target in &role.notify_on_done {
                if target == state.id {
                    self.on_segment_done(state, flow, segment, out);
                } else {
                    out.push(Effect::SendSwitch {
                        to: target,
                        msg: Message::Ez(EzMsg::SegmentDone { flow, segment }),
                    });
                }
            }
        } else {
            // Interior: pass the chain upstream.
            if let Some(up) = role.upstream {
                out.push(Effect::SendSwitch {
                    to: up,
                    msg: Message::Ez(EzMsg::GoodToMove { flow, segment }),
                });
            }
        }

        if let Some(old) = old_link {
            if role.next_hop != Some(old) {
                self.retry_parked(state, old, out);
            }
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
        let mut cap = BTreeMap::new();
        cap.insert((NodeId(0), NodeId(1)), 1.0);
        cap.insert((NodeId(0), NodeId(2)), 10.0);
        cap.insert((NodeId(1), NodeId(3)), 10.0);
        cap.insert((NodeId(2), NodeId(3)), 10.0);
        let f0 = FlowUpdate::new(FlowId(0), Some(path(&[0, 1, 3])), path(&[0, 2, 3]), 1.0);
        let f1 = FlowUpdate::new(FlowId(1), Some(path(&[0, 2, 3])), path(&[0, 1, 3]), 1.0);
        let f2 = FlowUpdate::new(FlowId(2), Some(path(&[2, 3])), path(&[2, 3]), 1.0);
        // Seed capacity as if old paths are allocated: (0,1) holds f0 → 0
        // free. f1 wants in → depends on f0.
        cap.insert((NodeId(0), NodeId(1)), 0.0);
        let prios = ez_prepare_congestion(&[f0, f1, f2], &cap);
        assert_eq!(prios[&FlowId(0)], EzPriority::High);
        assert_eq!(prios[&FlowId(2)], EzPriority::Low);
        assert_eq!(prios[&FlowId(1)], EzPriority::Low);
    }

    #[test]
    fn controller_queues_second_update_for_same_flow() {
        let mut c = EzController::new();
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
        let mut s1 = Switch::new(NodeId(1), &t, Box::new(EzSwitchLogic::new()));

        let upd = Message::Ez(EzMsg::Update(Box::new(EzUpdate {
            flow: FlowId(0),
            next_hop: Some(NodeId(2)),
            upstream: Some(NodeId(0)),
            segment: 0,
            kind: EzSegmentKind::NotInLoop,
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
        assert_eq!(
            s1.state.uib.read(FlowId(0)).active_next_hop,
            Some(NodeId(2))
        );
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
        let mut s1 = Switch::new(NodeId(1), &t, Box::new(EzSwitchLogic::new()));
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
            kind: EzSegmentKind::NotInLoop,
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
        let mut s0 = Switch::new(NodeId(0), &t, Box::new(EzSwitchLogic::new()));
        // Segments 2 and 1 finish before the ingress learns its own role.
        for segment in [2, 1] {
            let done = Message::Ez(EzMsg::SegmentDone {
                flow: FlowId(0),
                segment,
            });
            let effects = s0.handle_message(SimTime::ZERO, Endpoint::Switch(NodeId(1)), done);
            assert!(effects.is_empty());
        }
        assert_eq!(s0.parked_messages(), 2);
        // The ingress finalizes segment 0 and tracks all three.
        let upd = Message::Ez(EzMsg::Update(Box::new(EzUpdate {
            flow: FlowId(0),
            next_hop: Some(NodeId(1)),
            upstream: None,
            segment: 0,
            kind: EzSegmentKind::NotInLoop,
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
        assert_eq!(s0.parked_messages(), 0);
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
}
