//! The simulated network: switches, the controller, links, and the timing
//! model, assembled into a [`p4update_des::World`].
//!
//! Every system under test (P4Update, ez-Segway, Central) runs on this
//! exact substrate — same link latencies, same per-switch serial
//! processing, same controller queueing — so measured differences come
//! from protocol structure alone.

use crate::checker::{Checker, FlowSpec, Violation};
use crate::config::{
    ms, ControlLatency, InstallDelay, SimConfig, ADVERSARY_DELAY_MS, CTRL_LATENCY_FLOOR_MS,
    CTRL_LATENCY_MEAN_MS, CTRL_LATENCY_STD_DEV_MS, RELAY_HOP_MS, REPLICATION_LAG_MS,
};
use crate::metrics::Metrics;
use crate::table::SwitchTable;
use p4update_baselines::{CentralController, CentralSwitchLogic, EzController, EzSwitchLogic};
use p4update_core::controller::DEFAULT_FLOW_SIZE;
use p4update_core::{P4UpdateController, P4UpdateLogic, Strategy};
use p4update_dataplane::{ControllerLogic, CtrlEffect, Effect, Endpoint, SwitchLogic, SwitchState};
use p4update_des::{ChoiceKind, Scheduler, SimDuration, SimRng, SimTime, Simulation, World};
use p4update_messages::{ByzDelivery, ByzVector, DataPacket, Message, RejectReason, UfmStatus};
use p4update_net::{
    latency_distances_from, ArcMap, FlowId, FlowUpdate, NodeId, Path, Topology, Version,
};
use std::cell::OnceCell;
use std::collections::BTreeMap;

/// One row: per-destination shortest-path latencies (ms) and hop counts
/// from a single source node.
type PathRow = (Vec<f64>, Vec<u32>);

fn path_row(topo: &Topology, v: NodeId) -> PathRow {
    let n = topo.node_count();
    let lat = latency_distances_from(topo, v);
    // Hop counts via BFS (good enough for relay cost estimation).
    let mut hops = vec![u32::MAX; n];
    hops[v.index()] = 0;
    let mut queue = std::collections::VecDeque::from([v]);
    while let Some(x) = queue.pop_front() {
        for &(y, _) in topo.neighbors(x) {
            if hops[y.index()] == u32::MAX {
                hops[y.index()] = hops[x.index()] + 1;
                queue.push_back(y);
            }
        }
    }
    (lat, hops)
}

/// Shortest-path rows by source node, each filled on first use.
///
/// Only `ControlLatency::ShortestPathFrom` and switch-to-switch messages
/// between non-adjacent switches consult the table, so a run touches one
/// row under WAN timing and almost none under fat-tree timing. All-pairs
/// tables would be 2 × n² entries — ~16 GiB at 32768 switches.
struct PathTables {
    rows: Vec<OnceCell<PathRow>>,
}

impl PathTables {
    fn new(nodes: usize) -> Self {
        PathTables {
            rows: (0..nodes).map(|_| OnceCell::new()).collect(),
        }
    }

    fn row(&self, topo: &Topology, from: NodeId) -> &PathRow {
        self.rows[from.index()].get_or_init(|| path_row(topo, from))
    }
}

/// Which system drives the updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// P4Update with the given mechanism strategy (§7.5).
    P4Update(Strategy),
    /// ez-Segway; `congestion` enables its centralized priority
    /// computation.
    EzSegway {
        /// Compute the global congestion dependency graph in the control
        /// plane (Fig. 8b's expensive path).
        congestion: bool,
    },
    /// Central; `congestion` makes rounds capacity-aware.
    Central {
        /// Enforce capacity feasibility when scheduling rounds.
        congestion: bool,
    },
}

/// The controller implementations, kept as an enum so the world can
/// reach system-specific state (e.g., flow registration).
enum ControllerImpl {
    /// P4Update's controller.
    P4(P4UpdateController),
    /// ez-Segway's controller.
    Ez(EzController),
    /// Central's controller.
    Central(CentralController),
}

impl ControllerImpl {
    fn as_logic(&mut self) -> &mut dyn ControllerLogic {
        match self {
            ControllerImpl::P4(c) => c,
            ControllerImpl::Ez(c) => c,
            ControllerImpl::Central(c) => c,
        }
    }

    /// How many entries of a `len`-update batch one trigger pass hands
    /// [`ControllerLogic::start_update`]. P4Update prepares every flow on
    /// its own (one call per entry issues what one call over the batch
    /// does), so it takes one at a time and the effect buffer never holds
    /// more than one flow's UIMs. ez-Segway's congestion dependencies and
    /// Central's rounds read the whole batch.
    fn trigger_pass_len(&self, len: usize) -> usize {
        match self {
            ControllerImpl::P4(_) => 1,
            ControllerImpl::Ez(_) | ControllerImpl::Central(_) => len.max(1),
        }
    }
}

/// The switch-side twin of `ControllerImpl`: each switch holds its
/// system's logic by value, and [`NetworkSim`] reaches it through this
/// enum only, so `world.switches[n].logic` is a typed value.
pub enum SwitchImpl {
    /// P4Update's switch logic.
    P4(P4UpdateLogic),
    /// ez-Segway's switch logic.
    Ez(EzSwitchLogic),
    /// Central's switch logic.
    Central(CentralSwitchLogic),
}

impl SwitchLogic for SwitchImpl {
    fn on_control(
        &mut self,
        now: SimTime,
        state: &mut SwitchState,
        from: Endpoint,
        msg: Message,
        out: &mut Vec<Effect>,
    ) {
        match self {
            SwitchImpl::P4(l) => l.on_control(now, state, from, msg, out),
            SwitchImpl::Ez(l) => l.on_control(now, state, from, msg, out),
            SwitchImpl::Central(l) => l.on_control(now, state, from, msg, out),
        }
    }

    fn on_installed(
        &mut self,
        now: SimTime,
        state: &mut SwitchState,
        flow: FlowId,
        token: u64,
        out: &mut Vec<Effect>,
    ) {
        match self {
            SwitchImpl::P4(l) => l.on_installed(now, state, flow, token, out),
            SwitchImpl::Ez(l) => l.on_installed(now, state, flow, token, out),
            SwitchImpl::Central(l) => l.on_installed(now, state, flow, token, out),
        }
    }

    fn parked_messages(&self) -> usize {
        match self {
            SwitchImpl::P4(l) => l.parked_messages(),
            SwitchImpl::Ez(l) => l.parked_messages(),
            SwitchImpl::Central(l) => l.parked_messages(),
        }
    }
}

/// What a byzantine-corrupted message did at its receiver — the raw
/// material of the detector-completeness suite: every lie a run injects
/// must land in exactly one of these buckets; none may vanish silently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ByzDisposition {
    /// The receiver's local verification caught the lie and raised an
    /// alarm UFM with this reason.
    Rejected(RejectReason),
    /// The receiver acted on the lie — state changed, a rule install
    /// began, or follow-on messages were sent. For a system without
    /// local verification (ez-Segway) this is the expected bucket.
    Accepted,
    /// The receiver neither rejected nor acted (e.g. the lie parked
    /// waiting for a UIM that never names it, or deduplicated away).
    Ignored,
    /// The lie went to the controller, which has no label to verify it
    /// against — undetectable *locally* by construction (forged UFMs).
    Undetectable,
}

/// Classification record for one delivered lie (see [`ByzDisposition`]).
///
/// A lie is a delivery: the event that carries the corrupted message is
/// tagged with its vector where the message is corrupted, and the receiver
/// classifies exactly the tagged deliveries it processes — one outcome per
/// delivered copy, so a lie the fault seam duplicates earns two and one it
/// drops earns none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByzOutcome {
    /// When the lie was processed.
    pub at: SimTime,
    /// The lying switch.
    pub liar: NodeId,
    /// Who received it.
    pub receiver: Endpoint,
    /// Which catalog vector it was.
    pub vector: ByzVector,
    /// What happened.
    pub disposition: ByzDisposition,
}

/// Outcome of a per-message fault choice point: every honest
/// control-message send is a `ChoiceKind::Fault` choice point with these
/// four alternatives, so the schedule explorer can *search* over fault
/// placements and a recorded trace can replay them exactly. Under the
/// default chooser every one resolves to [`FaultDecision::Deliver`] and
/// only the seeded faults of [`SimConfig::faults`] touch a control message.
/// Data packets are never subject to choice points (same policy as the
/// probabilistic injector).
enum FaultDecision {
    /// Deliver untouched (the default alternative).
    Deliver,
    /// Lose the message.
    Drop,
    /// Deliver [`ADVERSARY_DELAY_MS`] late.
    Delay,
    /// Deliver, plus a second copy [`ADVERSARY_DELAY_MS`] later.
    Duplicate,
}

/// Events of the simulated network.
#[derive(Debug, Clone)]
pub enum Event {
    /// A message reaches a switch.
    DeliverToSwitch {
        /// Destination switch.
        node: NodeId,
        /// Sender.
        from: Endpoint,
        /// Payload.
        msg: Message,
        /// The catalog vector that corrupted `msg` when the sender lied
        /// (then `from` is the lying switch), `None` for an honest message.
        lie: Option<ByzVector>,
    },
    /// A message reaches the controller's input queue.
    DeliverToController {
        /// Sending switch.
        from: NodeId,
        /// Payload.
        msg: Message,
        /// As on [`Event::DeliverToSwitch`].
        lie: Option<ByzVector>,
    },
    /// The controller finishes processing one queued message.
    ControllerExec {
        /// Sending switch.
        from: NodeId,
        /// Payload.
        msg: Message,
        /// As on [`Event::DeliverToSwitch`].
        lie: Option<ByzVector>,
    },
    /// A rule write completes at a switch.
    InstallComplete {
        /// The switch.
        node: NodeId,
        /// Flow whose rule was written.
        flow: FlowId,
        /// Continuation token.
        token: u64,
    },
    /// A data packet enters the network at its ingress.
    InjectPacket {
        /// Ingress switch.
        node: NodeId,
        /// The packet.
        pkt: DataPacket,
        /// Destination hint for flow reports.
        egress_hint: NodeId,
    },
    /// The controller is asked to start a batch of updates.
    Trigger {
        /// Index into the scheduled batches.
        batch: usize,
    },
    /// Resubmission poll round at a switch: every parked message spins
    /// through the pipeline once, consuming forwarding capacity.
    PollTick {
        /// The polling switch.
        node: NodeId,
    },
    /// The controller's loss-recovery timer fires (§11).
    ControllerTimer,
    /// The primary controller fails; the standby takes over (see
    /// [`SimConfig::failover_at_ms`]). Scheduled once by [`simulation`]
    /// when a failover instant is set.
    ControllerFailover,
}

// One cache line: the queue moves every event at least twice.
const _: () = assert!(std::mem::size_of::<Event>() <= 64);

/// The simulated network world.
pub struct NetworkSim {
    /// The same graph as the P4Update controllers' NIBs (primary and
    /// standby) and the caller's own handle.
    topo: Topology,
    /// Per-switch chassis, densely indexed by [`NodeId`].
    pub switches: SwitchTable,
    /// The controller.
    controller: ControllerImpl,
    config: SimConfig,
    rng: SimRng,
    /// Shortest-path rows, filled on first use (see [`PathTables`]).
    tables: PathTables,
    /// Serial-processing horizon per switch, indexed by `NodeId::index`.
    switch_busy: Vec<SimTime>,
    /// Whether each switch has an armed resubmission poll loop.
    polling: Vec<bool>,
    /// Serial-processing horizon of the controller.
    ctrl_busy: SimTime,
    /// Update batches by trigger index.
    batches: Vec<Vec<FlowUpdate>>,
    /// The run's measurements.
    metrics: Metrics,
    /// Reusable effect buffer (see [`Self::switch_pass`]).
    scratch: Vec<Effect>,
    /// Its controller-side twin (see [`Self::controller_pass`]).
    ctrl_scratch: Vec<CtrlEffect>,
    /// The consistency checker, run after every event.
    checker: Checker,
    /// What it found: each violation once, when it first appeared.
    pub violations: Vec<(SimTime, Violation)>,
    /// Switches that have taken a lying alternative at a byzantine choice
    /// point, in first-lie order (bounds enforcement for
    /// `ByzantineConfig::max_liars`).
    liars: Vec<NodeId>,
    /// Per-lie classification log (see [`ByzOutcome`]).
    pub byz_outcomes: Vec<ByzOutcome>,
    /// The standby controller, a shadow state machine built only when a
    /// failover is set and taken by [`Event::ControllerFailover`] (see
    /// [`SimConfig::failover_at_ms`]).
    standby: Option<ControllerImpl>,
}

impl NetworkSim {
    /// Assemble a network for `system` on `topo`. `free_capacity` seeds the
    /// controller view of the congestion-aware baselines, ez-Segway and
    /// Central with `congestion` set (from
    /// `p4update_traffic::Workload::free_capacity`); they alone read it,
    /// so every other system drops it unread. A congestion-aware baseline
    /// without one runs as its plain variant.
    pub fn new(
        topo: Topology,
        system: System,
        config: SimConfig,
        free_capacity: Option<ArcMap<f64>>,
    ) -> Self {
        let mut rng = SimRng::new(config.seed);
        let switches = SwitchTable::build(&topo, || match system {
            System::P4Update(_) => SwitchImpl::P4(P4UpdateLogic::new()),
            System::EzSegway { .. } => SwitchImpl::Ez(EzSwitchLogic::default()),
            System::Central { .. } => SwitchImpl::Central(CentralSwitchLogic::default()),
        });
        let capacity_view = match system {
            System::EzSegway { congestion } | System::Central { congestion } if congestion => {
                free_capacity
            }
            _ => None,
        };
        let make_controller = |capacity: Option<ArcMap<f64>>| match system {
            // The NIB lets the controller set up paths for flows the data
            // plane reports via FRMs (§6).
            System::P4Update(strategy) => {
                ControllerImpl::P4(P4UpdateController::new(strategy, topo.clone()))
            }
            System::EzSegway { .. } => ControllerImpl::Ez(EzController::new(capacity)),
            System::Central { .. } => ControllerImpl::Central(CentralController::new(capacity)),
        };
        // The standby is an identically-constructed shadow state machine
        // with a copy of the capacity view; the primary takes the original.
        let standby = config
            .failover_at_ms
            .map(|_| make_controller(capacity_view.clone()));
        let controller = make_controller(capacity_view);
        let n = topo.node_count();
        // One word is drawn and discarded: every stream the repository pins
        // (golden cells, the trace corpus, the benchmark's statistics)
        // starts after it.
        rng.next_u64();
        let checker = Checker::new(&topo);
        NetworkSim {
            switch_busy: vec![SimTime::ZERO; n],
            polling: vec![false; n],
            topo,
            switches,
            controller,
            config,
            rng,
            tables: PathTables::new(n),
            ctrl_busy: SimTime::ZERO,
            batches: Vec::new(),
            metrics: Metrics::default(),
            checker,
            violations: Vec::new(),
            scratch: Vec::new(),
            ctrl_scratch: Vec::new(),
            liars: Vec::new(),
            byz_outcomes: Vec::new(),
            standby,
        }
    }

    /// The topology under simulation.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The scheduled update batches, in trigger order (exposed so a test
    /// can prepare and lint the same batches the controller will ship).
    pub fn batches(&self) -> &[Vec<FlowUpdate>] {
        &self.batches
    }

    /// The configuration this world was assembled with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Whether [`Event::ControllerFailover`] has promoted the standby.
    pub fn failed_over(&self) -> bool {
        self.config.failover_at_ms.is_some() && self.standby.is_none()
    }

    /// How many source nodes have had their shortest-path row computed so
    /// far (rows are filled on first use; a run on the 32768-switch
    /// fat-tree must stay far below the node count).
    pub fn path_rows_filled(&self) -> usize {
        self.tables
            .rows
            .iter()
            .filter(|r| r.get().is_some())
            .count()
    }

    /// The run's measurements.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The benchmark's name for [`Self::metrics`] (`benchmark/README.md`,
    /// "Pinned API surface"); nothing else uses it.
    pub fn sink(&self) -> &Metrics {
        &self.metrics
    }

    /// Pinned by the benchmark like [`Self::sink`]: starts the run from the
    /// given (empty) recorder.
    #[expect(clippy::boxed_local, reason = "the benchmark pins the boxed signature")]
    pub fn with_metrics_sink(mut self, sink: Box<Metrics>) -> Self {
        self.metrics = *sink;
        self
    }

    /// End-of-run accounting: record every flow whose scheduled updates
    /// outnumber its completions as *stranded* in the metrics, and return
    /// those flows (ascending). Idempotent: a repeated call recomputes the
    /// same list. A non-empty result on a fault-free run is a liveness gap
    /// in the system under test (ez-Segway's circular capacity waits at
    /// ft512 are the motivating case — see `tests/fault_injection.rs`).
    pub fn record_stranded_flows(&mut self) -> Vec<FlowId> {
        // Updates scheduled per flow, less one per completion.
        let mut outstanding: BTreeMap<FlowId, u64> = BTreeMap::new();
        for u in self.batches.iter().flatten() {
            *outstanding.entry(u.flow).or_insert(0) += 1;
        }
        for &(_, flow, _) in &self.metrics.completions {
            if let Some(left) = outstanding.get_mut(&flow) {
                *left = left.saturating_sub(1);
            }
        }
        let stranded: Vec<FlowId> = outstanding
            .into_iter()
            .filter(|&(_, left)| left > 0)
            .map(|(flow, _)| flow)
            .collect();
        self.metrics.set_stranded(stranded.clone());
        stranded
    }

    /// Install a flow's initial path directly (scenario bootstrap: the old
    /// configuration pre-exists the experiment), reserving capacities and
    /// registering the flow with the controller.
    pub fn install_initial_path(&mut self, flow: FlowId, path: &Path, size: f64) {
        assert!(path.validate(&self.topo), "initial path must be routable");
        for (i, &node) in path.nodes().iter().enumerate() {
            let next = path.nodes().get(i + 1).copied();
            let prev = i.checked_sub(1).map(|j| path.nodes()[j]);
            let dist = (path.nodes().len() - 1 - i) as u32;
            let sw = &mut self.switches[node];
            sw.state.uib.update(flow, |e| {
                e.applied_version = Version(1);
                e.applied_distance = dist;
                e.active_next_hop = next.into();
                e.active_upstream = prev.into();
                e.old_version = Version(1);
                e.old_distance = dist;
                e.flow_size = size;
                e.last_update_type = Some(p4update_messages::UpdateKind::Single);
            });
            if let Some(next) = next {
                let ok = sw.state.reserve_capacity(next, size);
                assert!(ok, "initial allocation exceeds capacity at {node}");
            }
            self.checker.flipped(node, &mut sw.state.uib);
        }
        if let ControllerImpl::P4(c) = &mut self.controller {
            c.register_flow(flow, Version(1));
        }
        // The standby mirrors the primary's flow registry so a
        // post-failover controller assigns the same versions.
        if let Some(ControllerImpl::P4(c)) = &mut self.standby {
            c.register_flow(flow, Version(1));
        }
        let ingress = path.ingress();
        self.checker.register(flow, FlowSpec { ingress, size });
    }

    /// The flows the checker walks, ascending: every flow with an
    /// installed initial path, in a batch, or reported by an FRM.
    pub fn checked_flows(&self) -> impl Iterator<Item = (FlowId, FlowSpec)> + '_ {
        self.checker.flows()
    }

    /// Enable the §11 two-phase-commit mode on every switch: ingresses
    /// stamp packets with their applied version, and forwarding honors the
    /// stamps (per-packet path consistency).
    pub fn enable_two_phase_commit(&mut self) {
        for sw in self.switches.values_mut() {
            sw.enable_two_phase_commit();
        }
    }

    /// Register an update batch; returns the batch index for
    /// [`Event::Trigger`].
    ///
    /// This is also where register files are sized, the way a P4 program
    /// fixes its register arrays before traffic arrives: every switch on one
    /// of the batch's paths gets room for exactly the flows it holds plus
    /// the batch's flows whose new path crosses it and that it does not hold
    /// yet ([`Uib::provision`](p4update_dataplane::Uib::provision)), so a
    /// run grows no register file and none keeps growth slack. A flow the
    /// count did not foresee still gets its record; one twice in a batch is
    /// counted twice. The count is one counter per switch and two passes
    /// over the batch's path nodes.
    ///
    /// A batch flow the checker does not know yet (a fresh deployment) is
    /// checked from here on.
    pub fn add_batch(&mut self, updates: Vec<FlowUpdate>) -> usize {
        // Per switch, the batch's flows it will hold for the first time;
        // `u32::MAX` once the switch is provisioned.
        let mut fresh = vec![0u32; self.topo.node_count()];
        for u in &updates {
            for &node in u.new_path.nodes() {
                if !self.switches[node].state.uib.knows(u.flow) {
                    fresh[node.index()] += 1;
                }
            }
        }
        for u in &updates {
            let old = u.old_path.iter().flat_map(Path::nodes);
            for &node in u.new_path.nodes().iter().chain(old) {
                let count = std::mem::replace(&mut fresh[node.index()], u32::MAX);
                if count != u32::MAX {
                    self.switches[node].state.uib.provision(count as usize);
                }
            }
            if !self.checker.knows(u.flow) {
                let (ingress, size) = (u.new_path.ingress(), u.size);
                self.checker.register(u.flow, FlowSpec { ingress, size });
            }
        }
        self.batches.push(updates);
        self.batches.len() - 1
    }

    /// Control latency between the controller and `node` (one way).
    fn control_latency(&mut self, node: NodeId) -> SimDuration {
        match self.config.timing.control {
            ControlLatency::ShortestPathFrom(ctrl) => {
                ms(self.tables.row(&self.topo, ctrl).0[node.index()])
            }
            ControlLatency::Normal => ms(self.rng.normal_clamped(
                CTRL_LATENCY_MEAN_MS,
                CTRL_LATENCY_STD_DEV_MS,
                CTRL_LATENCY_FLOOR_MS,
            )),
        }
    }

    /// Transit time of a switch-to-switch message: one link hop when
    /// adjacent, otherwise the shortest path plus per-hop relay cost.
    fn transit(&self, from: NodeId, to: NodeId) -> SimDuration {
        if let Some(lat) = self.topo.latency_between(from, to) {
            return lat;
        }
        let (latency_ms, hops) = self.tables.row(&self.topo, from);
        let lat = ms(latency_ms[to.index()]);
        let hops = hops[to.index()].max(1);
        lat + ms(RELAY_HOP_MS).saturating_mul(hops as u64)
    }

    fn install_delay(&mut self) -> SimDuration {
        match self.config.timing.install {
            InstallDelay::None => SimDuration::ZERO,
            InstallDelay::Exponential => {
                ms(self.rng.exponential(self.config.timing.install_mean_ms))
            }
        }
    }

    fn fault_drop(&mut self, prob: f64) -> bool {
        prob > 0.0 && self.rng.chance(prob)
    }

    /// Resolve one control message's adversarial fault decision through
    /// the choice-point seam. Alternative 0 is always "deliver untouched",
    /// so a default chooser keeps the run fault-free.
    fn fault_choice(sched: &mut Scheduler<Event>) -> FaultDecision {
        match sched.choose(ChoiceKind::Fault, 4) {
            0 => FaultDecision::Deliver,
            1 => FaultDecision::Drop,
            2 => FaultDecision::Delay,
            _ => FaultDecision::Duplicate,
        }
    }

    /// Ship one honest control message: resolve its fault choice point,
    /// then schedule `event` at `at` as the decision says (not at all,
    /// late, or twice). Every honest send comes through here.
    fn deliver(&mut self, at: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        let late = at + ms(ADVERSARY_DELAY_MS);
        match Self::fault_choice(sched) {
            FaultDecision::Drop => self.metrics.record_control_drop(),
            FaultDecision::Deliver => sched.schedule_at(at, event),
            FaultDecision::Delay => sched.schedule_at(late, event),
            FaultDecision::Duplicate => {
                sched.schedule_at(at, event.clone());
                sched.schedule_at(late, event);
            }
        }
    }

    /// Resolve one outbound control message's byzantine decision through
    /// the choice-point seam (when `SimConfig::byzantine` is installed).
    /// Emits a `ChoiceKind::Byzantine` choice point only when some catalog
    /// vector applies to `msg` *and* the sender is allowed to lie (it
    /// already lied, or the liar budget has room). Alternative 0 — the
    /// default — means "send honestly" and has zero side effects: no RNG
    /// draw, no state change, no extra event, which is what keeps
    /// byzantine-enabled-but-honest runs identical to the plain engine.
    fn byz_choice(
        &mut self,
        node: NodeId,
        msg: &Message,
        sched: &mut Scheduler<Event>,
    ) -> Option<ByzVector> {
        let bc = self.config.byzantine?;
        let is_liar = self.liars.contains(&node);
        if !is_liar && self.liars.len() >= bc.max_liars as usize {
            return None;
        }
        let applicable = ByzVector::applicable(bc.vector, msg);
        if applicable.is_empty() {
            return None;
        }
        let pick = sched.choose(ChoiceKind::Byzantine, applicable.len() + 1);
        if pick == 0 || pick > applicable.len() {
            return None;
        }
        if !is_liar {
            self.liars.push(node);
        }
        Some(applicable[pick - 1])
    }

    /// Ship a lying switch's corrupted switch-to-switch message according
    /// to the vector's delivery mode, the lie's delivery tagged with its
    /// vector (see [`ByzOutcome`]).
    fn send_byz_switch(
        &mut self,
        liar: NodeId,
        to: NodeId,
        msg: Message,
        vector: ByzVector,
        base: SimTime,
        sched: &mut Scheduler<Event>,
    ) {
        let lie = vector.corrupt(&msg).expect("vector was applicable");
        let at = base + self.transit(liar, to) + self.fault_jitter();
        let deliver = |node, msg, lie| Event::DeliverToSwitch {
            node,
            from: Endpoint::Switch(liar),
            msg,
            lie,
        };
        let delivery = vector.delivery();
        if delivery != ByzDelivery::Replace {
            sched.schedule_at(at, deliver(to, msg, None));
        }
        // Where and when the lie lands.
        let (dest, lie_at) = match delivery {
            ByzDelivery::Replace => (to, at),
            ByzDelivery::ExtraDelayed => (to, at + ms(ADVERSARY_DELAY_MS)),
            ByzDelivery::ExtraToOtherNeighbor => {
                // Equivocate toward the lowest-id *other* neighbor; a
                // degree-1 liar has nobody else to lie to.
                let other = self.topo.neighbors(liar).iter().map(|&(n, _)| n);
                let Some(other) = other.filter(|&n| n != to).min() else {
                    return;
                };
                let at = base + self.transit(liar, other) + self.fault_jitter();
                (other, at)
            }
        };
        sched.schedule_at(lie_at, deliver(dest, lie, Some(vector)));
    }

    /// What a just-delivered lie about `flow` did at switch `node`, from
    /// the effects its processing produced and the before/after UIB state.
    /// A raised alarm is a local rejection — the defense the paper's
    /// verification promises.
    fn lie_disposition(
        &self,
        node: NodeId,
        flow: Option<FlowId>,
        before: Option<p4update_dataplane::UibEntry>,
        effects: &[Effect],
    ) -> ByzDisposition {
        for e in effects {
            if let Effect::SendController {
                msg: Message::Ufm(ufm),
            } = e
            {
                if let UfmStatus::Alarm(reason) = ufm.status {
                    return ByzDisposition::Rejected(reason);
                }
            }
        }
        let after = flow.map(|f| self.switches[node].state.uib.read(f));
        let acted = effects.iter().any(|e| {
            matches!(
                e,
                Effect::BeginInstall { .. }
                    | Effect::SendSwitch { .. }
                    | Effect::SendController { .. }
            )
        });
        if before != after || acted {
            ByzDisposition::Accepted
        } else {
            ByzDisposition::Ignored
        }
    }

    /// Mirror a delivered controller message into the standby (outputs
    /// discarded — a shadow doesn't talk), unless it falls inside the
    /// replication-lag window just before the failover, in which case the
    /// standby never learns of it.
    fn feed_standby_msg(&mut self, now: SimTime, from: NodeId, msg: &Message) {
        let (Some(standby), Some(at_ms)) = (&mut self.standby, self.config.failover_at_ms) else {
            return;
        };
        if now.as_millis_f64() >= at_ms - REPLICATION_LAG_MS {
            return; // lost in the dead primary's replication pipeline
        }
        standby
            .as_logic()
            .on_message(now, from, msg.clone(), &mut self.ctrl_scratch);
        self.ctrl_scratch.clear();
    }

    fn fault_jitter(&mut self) -> SimDuration {
        let j = self.config.faults.jitter_ms;
        if j <= 0.0 {
            SimDuration::ZERO
        } else {
            ms(self.rng.uniform_range(0.0, j))
        }
    }

    /// Apply a switch's effects, all anchored at `base` (the time its
    /// pipeline pass finished).
    fn apply_switch_effects(
        &mut self,
        node: NodeId,
        base: SimTime,
        effects: &mut Vec<Effect>,
        sched: &mut Scheduler<Event>,
    ) {
        for effect in effects.drain(..) {
            match effect {
                Effect::SendSwitch { to, msg } => {
                    if self.fault_drop(self.config.faults.drop_switch_to_switch) {
                        self.metrics.record_control_drop();
                        continue;
                    }
                    if let Some(vector) = self.byz_choice(node, &msg, sched) {
                        // A lying send replaces the whole honest delivery
                        // path (no separate fault choice: the lie is the
                        // fault).
                        self.send_byz_switch(node, to, msg, vector, base, sched);
                        continue;
                    }
                    let at = base + self.transit(node, to) + self.fault_jitter();
                    let event = Event::DeliverToSwitch {
                        node: to,
                        from: Endpoint::Switch(node),
                        msg,
                        lie: None,
                    };
                    self.deliver(at, event, sched);
                }
                Effect::SendController { mut msg } => {
                    // Controller-bound lies (forged UFMs) replace the honest
                    // message and ride the normal delivery path below; the
                    // controller has no label to check them against, so
                    // each delivered copy classifies as locally
                    // undetectable.
                    let lie = self.byz_choice(node, &msg, sched);
                    if let Some(vector) = lie {
                        msg = vector.corrupt(&msg).expect("vector was applicable");
                    }
                    let at = base + self.control_latency(node);
                    let event = Event::DeliverToController {
                        from: node,
                        msg,
                        lie,
                    };
                    self.deliver(at, event, sched);
                }
                Effect::BeginInstall { flow, token } => {
                    let at = base + self.install_delay();
                    sched.schedule_at(at, Event::InstallComplete { node, flow, token });
                }
                Effect::ForwardData { to, pkt } => {
                    let at = base + self.transit(node, to);
                    sched.schedule_at(
                        at,
                        Event::DeliverToSwitch {
                            node: to,
                            from: Endpoint::Switch(node),
                            msg: Message::Data(pkt),
                            lie: None,
                        },
                    );
                }
                Effect::PacketDelivered { pkt } => {
                    self.metrics.record_delivery(base, node, pkt);
                }
                Effect::PacketDropped { pkt, reason } => {
                    self.metrics.record_drop(base, node, pkt, reason);
                }
            }
        }
    }

    /// Apply controller effects: outbound messages serialize on the
    /// controller's transmit path.
    fn apply_ctrl_effects(
        &mut self,
        base: SimTime,
        effects: &mut Vec<CtrlEffect>,
        sched: &mut Scheduler<Event>,
    ) {
        let tx = ms(self.config.timing.ctrl_tx_ms);
        let mut send_time = base;
        for effect in effects.drain(..) {
            match effect {
                CtrlEffect::Send { to, msg } => {
                    send_time += tx;
                    if self.fault_drop(self.config.faults.drop_ctrl_to_switch) {
                        self.metrics.record_control_drop();
                        continue;
                    }
                    let mut at = send_time + self.control_latency(to) + self.fault_jitter();
                    if let Some((held, release)) = self.config.faults.hold_ctrl_to {
                        if held == to {
                            at = at.max(SimTime::ZERO + release);
                        }
                    }
                    let event = Event::DeliverToSwitch {
                        node: to,
                        from: Endpoint::Controller,
                        msg,
                        lie: None,
                    };
                    self.deliver(at, event, sched);
                }
                CtrlEffect::UpdateComplete { flow, version } => {
                    self.metrics.record_completion(base, flow, version);
                }
                CtrlEffect::AlarmRaised { flow, reason } => {
                    self.metrics.record_alarm(base, flow, reason);
                }
            }
        }
        self.ctrl_busy = self.ctrl_busy.max(send_time);
    }

    /// One pass of the controller for a controller-side event
    /// (`ControllerExec`, `Trigger`, `ControllerTimer`): `act` fills the
    /// reusable effect buffer and the effects are applied anchored at
    /// `base`. Returns what `act` returned.
    fn controller_pass<R>(
        &mut self,
        base: SimTime,
        sched: &mut Scheduler<Event>,
        act: impl FnOnce(&mut dyn ControllerLogic, &mut Vec<CtrlEffect>) -> R,
    ) -> R {
        let mut effects = std::mem::take(&mut self.ctrl_scratch);
        let result = act(self.controller.as_logic(), &mut effects);
        self.apply_ctrl_effects(base, &mut effects, sched);
        self.ctrl_scratch = effects;
        result
    }

    /// Arm the §11 loss-recovery timer one period ahead, if recovery is on.
    fn arm_retry(&self, sched: &mut Scheduler<Event>) {
        if self.config.retry_ms > 0.0 {
            sched.schedule_in(ms(self.config.retry_ms), Event::ControllerTimer);
        }
    }

    /// Arm the resubmission poll loop at a switch that has parked
    /// messages (Appendix B's data-plane waiting): each poll round charges
    /// one pipeline pass per parked message.
    fn arm_poll(&mut self, node: NodeId, sched: &mut Scheduler<Event>) {
        if self.polling[node.index()] || self.switches[node].logic.parked_messages() == 0 {
            return;
        }
        self.polling[node.index()] = true;
        sched.schedule_in(
            ms(self.config.timing.resubmit_poll_ms),
            Event::PollTick { node },
        );
    }

    /// One pass of `node`'s serial pipeline for a switch-side event
    /// (`DeliverToSwitch`, `InstallComplete`, `InjectPacket`). While the
    /// switch is busy the event is requeued at its horizon and `false`
    /// comes back. Otherwise the horizon advances by `switch_proc_ms`, the
    /// switch fills the reusable effect buffer (so the event loop allocates
    /// nothing per event), and the effects are applied anchored at the
    /// pass's end.
    fn switch_pass(
        &mut self,
        now: SimTime,
        node: NodeId,
        event: Event,
        sched: &mut Scheduler<Event>,
    ) -> bool {
        let busy = self.switch_busy[node.index()];
        if busy > now {
            sched.schedule_at(busy, event);
            return false;
        }
        let done = now + ms(self.config.timing.switch_proc_ms);
        self.switch_busy[node.index()] = done;
        let mut effects = std::mem::take(&mut self.scratch);
        let switch = &mut self.switches[node];
        // Control events may park messages; an injected packet cannot.
        let may_park = match event {
            Event::DeliverToSwitch { from, msg, lie, .. } => {
                if let Message::Data(pkt) = &msg {
                    self.metrics.record_arrival(now, node, *pkt);
                }
                if matches!(msg, Message::Unm(_)) {
                    self.metrics.record_unm_delivery();
                }
                // A lie's pre-delivery UIB entry anchors its classification.
                let flow = lie.and_then(|_| msg.flow());
                let before = flow.map(|f| switch.state.uib.read(f));
                switch.handle_message_into(now, from, msg, &mut effects);
                if let (Some(vector), Endpoint::Switch(liar)) = (lie, from) {
                    let disposition = self.lie_disposition(node, flow, before, &effects);
                    self.byz_outcomes.push(ByzOutcome {
                        at: now,
                        liar,
                        receiver: Endpoint::Switch(node),
                        vector,
                        disposition,
                    });
                }
                true
            }
            Event::InstallComplete { flow, token, .. } => {
                switch.handle_installed_into(now, flow, token, &mut effects);
                true
            }
            Event::InjectPacket {
                pkt, egress_hint, ..
            } => {
                self.metrics.record_arrival(now, node, pkt);
                switch.inject_packet_into(now, pkt, egress_hint, &mut effects);
                false
            }
            other => unreachable!("not a switch-side event: {other:?}"),
        };
        self.apply_switch_effects(node, done, &mut effects, sched);
        self.scratch = effects;
        if may_park {
            self.arm_poll(node, sched);
        }
        true
    }
}

impl World for NetworkSim {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        match event {
            Event::DeliverToSwitch { node, .. }
            | Event::InstallComplete { node, .. }
            | Event::InjectPacket { node, .. } => {
                // A requeued event changed nothing, and no other switch
                // changes on a switch-side event.
                if self.switch_pass(now, node, event, sched) {
                    self.checker
                        .flipped(node, &mut self.switches[node].state.uib);
                }
            }
            Event::DeliverToController { from, msg, lie } => {
                // FIFO single-threaded controller: queue behind the busy
                // horizon, then serve with an exponential service time.
                let start = now.max(self.ctrl_busy);
                let svc = ms(self
                    .rng
                    .exponential(self.config.timing.ctrl_service_mean_ms));
                let done = start + svc;
                self.ctrl_busy = done;
                sched.schedule_at(done, Event::ControllerExec { from, msg, lie });
            }
            Event::ControllerExec { from, msg, lie } => {
                if let Message::Frm(frm) = &msg {
                    // The controller may set the reported flow up.
                    if !self.checker.knows(frm.flow) {
                        let (ingress, size) = (frm.ingress, DEFAULT_FLOW_SIZE);
                        self.checker.register(frm.flow, FlowSpec { ingress, size });
                    }
                }
                if let Some(vector) = lie {
                    self.byz_outcomes.push(ByzOutcome {
                        at: now,
                        liar: from,
                        receiver: Endpoint::Controller,
                        vector,
                        disposition: ByzDisposition::Undetectable,
                    });
                }
                self.feed_standby_msg(now, from, &msg);
                self.controller_pass(now, sched, |c, out| c.on_message(now, from, msg, out));
            }
            Event::PollTick { node } => {
                let parked = self.switches[node].logic.parked_messages();
                if parked == 0 {
                    self.polling[node.index()] = false;
                } else {
                    // Each parked message makes one pipeline pass.
                    let start = now.max(self.switch_busy[node.index()]);
                    let spin = ms(self.config.timing.switch_proc_ms).saturating_mul(parked as u64);
                    let done = start + spin;
                    self.switch_busy[node.index()] = done;
                    let poll = ms(self.config.timing.resubmit_poll_ms);
                    sched.schedule_at(done + poll, Event::PollTick { node });
                }
            }
            Event::Trigger { batch } => {
                // Taken out for the arm (no clone), put back below.
                let slot = self.batches.get_mut(batch).unwrap_or_else(|| {
                    panic!("Event::Trigger names batch {batch}, which add_batch never returned")
                });
                let updates = std::mem::take(slot);
                self.metrics.record_trigger();
                // The shadow sees the same trigger so a post-failover
                // primary holds the same pending state.
                if let Some(standby) = &mut self.standby {
                    standby
                        .as_logic()
                        .start_update(now, &updates, &mut self.ctrl_scratch);
                    self.ctrl_scratch.clear();
                }
                // Each pass queues behind the sends of the one before, so
                // splitting the batch moves no send time.
                for part in updates.chunks(self.controller.trigger_pass_len(updates.len())) {
                    let base = now.max(self.ctrl_busy);
                    self.controller_pass(base, sched, |c, out| c.start_update(now, part, out));
                }
                // A whole-batch pass leaves the effect buffer with room for
                // every message of the batch; what is kept between passes is
                // for the few effects of a steady-state one, so this one goes
                // back to the heap.
                self.ctrl_scratch = Vec::new();
                self.batches[batch] = updates;
                self.arm_retry(sched);
            }
            Event::ControllerTimer => {
                let base = now.max(self.ctrl_busy);
                if self.controller_pass(base, sched, |c, out| c.on_timer(now, out)) {
                    self.arm_retry(sched);
                }
            }
            Event::ControllerFailover => {
                if let Some(standby) = self.standby.take() {
                    self.controller = standby;
                    // The new primary's view may be stale (replication
                    // lag); the §11 recovery timer is what reconciles
                    // in-flight updates, so re-arm it immediately.
                    self.arm_retry(sched);
                }
            }
        }
        // What changed was marked above; the checker records what is new.
        self.checker
            .recheck(now, &self.topo, &self.switches, &mut self.violations);
    }
}

/// Convenience: wrap a [`NetworkSim`] into a ready-to-run simulation with
/// a livelock guard sized for the evaluation scenarios.
pub fn simulation(world: NetworkSim) -> Simulation<NetworkSim> {
    let failover_at_ms = world.config().failover_at_ms;
    let mut sim = Simulation::new(world).with_event_budget(20_000_000);
    if let Some(at_ms) = failover_at_ms {
        sim.schedule_at(SimTime::ZERO + ms(at_ms), Event::ControllerFailover);
    }
    sim
}

/// Start a batch run: the one statement of the bootstrap convention. Every
/// update's old path exists before the run — installed at version 1 with
/// its capacity reserved ([`NetworkSim::install_initial_path`]); an update
/// without one is a fresh deployment and installs nothing — then the
/// updates become one batch, the world is wrapped by [`simulation`], and
/// the batch's [`Event::Trigger`] is scheduled at `at`, after every event
/// `simulation` scheduled. A second batch in the same run goes through
/// [`NetworkSim::add_batch`] and a trigger of its own.
pub fn batch_simulation(
    mut world: NetworkSim,
    updates: Vec<FlowUpdate>,
    at: SimTime,
) -> Simulation<NetworkSim> {
    for u in &updates {
        if let Some(old) = &u.old_path {
            world.install_initial_path(u.flow, old, u.size);
        }
    }
    let batch = world.add_batch(updates);
    let mut sim = simulation(world);
    sim.schedule_at(at, Event::Trigger { batch });
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TimingConfig;
    use p4update_net::topologies;

    fn basic_sim(system: System) -> NetworkSim {
        fig1_world(system, |c| c)
    }

    fn fig1_world(system: System, configure: impl FnOnce(SimConfig) -> SimConfig) -> NetworkSim {
        let topo = topologies::fig1();
        let config = configure(SimConfig::new(
            TimingConfig::wan_multi_flow(topo.centroid()),
            1,
        ));
        NetworkSim::new(topo, system, config, None)
    }

    /// Flow 0's Fig. 1 update (old `v0 v4 v2 v7`), triggered at time zero.
    fn fig1_run(world: NetworkSim) -> Simulation<NetworkSim> {
        let old = Path::new(topologies::fig1_old_path());
        let new = Path::new(topologies::fig1_new_path());
        let update = FlowUpdate::new(FlowId(0), Some(old), new, 1.0);
        batch_simulation(world, vec![update], SimTime::ZERO)
    }

    /// The world reads the graph its caller built, not a copy of it; each
    /// P4Update controller's NIB is a clone of the same handle (`new`; core's
    /// `the_nib_is_a_handle_on_the_callers_graph`), standby or not.
    #[test]
    fn a_world_shares_its_callers_topology() {
        let topo = topologies::fig1();
        let config = SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), 1)
            .with_failover_at_ms(50.0);
        let world = NetworkSim::new(topo.clone(), System::P4Update(Strategy::Auto), config, None);
        assert!(world.standby.is_some() && !world.failed_over());
        let (ours, theirs) = (topo.links(), world.topology().links());
        assert!(std::ptr::eq(ours.as_ptr(), theirs.as_ptr()));
    }

    #[test]
    fn initial_path_installs_rules_and_reserves_capacity() {
        let mut sim = basic_sim(System::P4Update(Strategy::Auto));
        let path = Path::new(topologies::fig1_old_path());
        sim.install_initial_path(FlowId(0), &path, 2.0);
        let e = sim.switches[NodeId(0)].state.uib.read(FlowId(0));
        assert_eq!(e.active_next_hop.get(), Some(NodeId(4)));
        assert_eq!(e.applied_distance, 3);
        let remaining = sim.switches[NodeId(0)]
            .state
            .remaining_capacity(NodeId(4))
            .unwrap();
        assert_eq!(remaining, topologies::DEFAULT_CAPACITY - 2.0);
        // Egress terminates.
        assert!(sim.switches[NodeId(7)]
            .state
            .uib
            .read(FlowId(0))
            .is_egress());
        // Checker is clean.
        let flows: Vec<_> = sim.checked_flows().collect();
        let uib = |n| sim.switches.get(n).map(|sw| &sw.state.uib);
        assert!(crate::checker::oracle::check(&sim.topo, uib, &flows).is_empty());
    }

    #[test]
    fn data_packet_traverses_initial_path() {
        let mut world = basic_sim(System::P4Update(Strategy::Auto));
        let path = Path::new(topologies::fig1_old_path());
        world.install_initial_path(FlowId(0), &path, 1.0);
        let mut sim = simulation(world);
        sim.schedule_at(
            SimTime::ZERO,
            Event::InjectPacket {
                node: NodeId(0),
                pkt: DataPacket {
                    flow: FlowId(0),
                    seq: 7,
                    ttl: 64,
                    tag: None,
                },
                egress_hint: NodeId(7),
            },
        );
        assert!(sim.run().drained());
        let world = sim.into_world();
        assert_eq!(world.metrics().deliveries.len(), 1);
        let (t, node, pkt) = &world.metrics().deliveries[0];
        assert_eq!(*node, NodeId(7));
        assert_eq!(pkt.seq, 7);
        // 3 hops of 20 ms plus processing.
        assert!(t.as_millis_f64() > 60.0 && t.as_millis_f64() < 70.0, "{t}");
    }

    #[test]
    fn all_three_systems_assemble() {
        for system in [
            System::P4Update(Strategy::Auto),
            System::EzSegway { congestion: false },
            System::Central { congestion: false },
        ] {
            let sim = basic_sim(system);
            assert_eq!(sim.switches.values().count(), 8);
            for sw in sim.switches.values() {
                let named = matches!(
                    (system, &sw.logic),
                    (System::P4Update(_), SwitchImpl::P4(_))
                        | (System::EzSegway { .. }, SwitchImpl::Ez(_))
                        | (System::Central { .. }, SwitchImpl::Central(_))
                );
                assert!(named, "{system:?} built another system's switch logic");
            }
        }
    }

    /// ez-Segway's controller still sees a trigger's batch in one call:
    /// two flows swapping paths across a full link, where the one leaving
    /// it gets `High` only because the other waits for it — a priority
    /// neither flow gets from `ez_prepare_congestion` alone.
    #[test]
    fn ez_segway_prepares_a_triggered_batch_whole() {
        use p4update_baselines::ez_prepare_congestion;
        use p4update_messages::{EzMsg, EzPriority};
        use p4update_net::TopologyBuilder;
        // Records the priority of every ez-Segway update a switch receives.
        struct Spy {
            world: NetworkSim,
            seen: Vec<(FlowId, EzPriority)>,
        }
        impl World for Spy {
            type Event = Event;
            fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
                if let Event::DeliverToSwitch {
                    msg: Message::Ez(EzMsg::Update(u)),
                    ..
                } = &event
                {
                    self.seen.push((u.flow, u.priority));
                }
                self.world.handle(now, event, sched);
            }
        }
        let mut b = TopologyBuilder::new("square");
        let v: Vec<_> = (0..4).map(|i| b.add_node(format!("n{i}"))).collect();
        for (x, y) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            b.add_link(v[x], v[y], SimDuration::from_millis(1), 10.0);
        }
        let topo = b.build();
        let p = |nodes: &[u32]| Path::new(nodes.iter().copied().map(NodeId).collect());
        let leaves = FlowUpdate::new(FlowId(0), Some(p(&[0, 1, 3])), p(&[0, 2, 3]), 1.0);
        let enters = FlowUpdate::new(FlowId(1), Some(p(&[0, 2, 3])), p(&[0, 1, 3]), 1.0);
        let mut free = ArcMap::new(&topo, |_| 10.0);
        *free.get_mut(NodeId(0), NodeId(1)).expect("a link") = 0.0;
        let batch = [leaves.clone(), enters.clone()];
        let whole = ez_prepare_congestion(&batch, &free);
        assert_eq!(whole[&FlowId(0)], EzPriority::High);
        for alone in &batch {
            let prio = ez_prepare_congestion(std::slice::from_ref(alone), &free);
            assert!(prio.values().all(|&p| p != EzPriority::High), "{prio:?}");
        }

        let config = SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), 1);
        let system = System::EzSegway { congestion: true };
        let mut world = NetworkSim::new(topo, system, config, Some(free));
        // Assembled by hand: the run's world is the `Spy` around this one.
        for u in &batch {
            world.install_initial_path(u.flow, u.old_path.as_ref().expect("old path"), u.size);
        }
        let batch = world.add_batch(batch.to_vec());
        let mut sim = Simulation::new(Spy {
            world,
            seen: Vec::new(),
        });
        sim.schedule_at(SimTime::ZERO, Event::Trigger { batch });
        assert!(sim.run().drained());
        let seen = &sim.world().seen;
        assert!(seen.iter().any(|s| s.0 == FlowId(0)) && seen.iter().any(|s| s.0 == FlowId(1)));
        for &(flow, prio) in seen {
            assert_eq!(prio, whole.get(&flow).copied().unwrap_or(EzPriority::Low));
        }
        assert!(seen.contains(&(FlowId(0), EzPriority::High)));
    }

    /// Every control message of a plain `SimConfig::new` world is a fault
    /// choice point: an installed chooser sees them all, and one that
    /// answers "deliver" at each leaves the run as the default chooser
    /// (which is never asked) leaves it.
    #[test]
    fn a_plain_world_asks_an_installed_chooser_at_every_control_message() {
        use std::cell::Cell;
        use std::rc::Rc;
        struct Deliver(Rc<Cell<usize>>);
        impl p4update_des::Chooser for Deliver {
            fn choose(&mut self, kind: ChoiceKind, arity: usize) -> usize {
                if kind == ChoiceKind::Fault {
                    assert_eq!(arity, 4);
                    self.0.set(self.0.get() + 1);
                }
                0
            }
        }
        let run = |chooser: Option<Box<dyn p4update_des::Chooser>>| {
            let mut sim = fig1_run(basic_sim(System::P4Update(Strategy::Auto)));
            if let Some(chooser) = chooser {
                sim = sim.with_chooser(chooser);
            }
            assert!(sim.run().drained());
            (sim.events_delivered(), sim.into_world().metrics)
        };
        let asked = Rc::new(Cell::new(0));
        let (events, metrics) = run(Some(Box::new(Deliver(Rc::clone(&asked)))));
        let (default_events, default_metrics) = run(None);
        assert_eq!(events, default_events);
        assert_eq!(metrics.completions, default_metrics.completions);
        assert_eq!(metrics.completions.len(), 1);
        assert!(asked.get() > 0, "no fault choice point reached the chooser");
    }

    /// A chooser that drops every control message stalls the update (no
    /// completion) without ever breaking consistency.
    #[test]
    fn drop_all_chooser_stalls_but_stays_consistent() {
        struct DropAll;
        impl p4update_des::Chooser for DropAll {
            fn choose(&mut self, kind: ChoiceKind, _arity: usize) -> usize {
                match kind {
                    ChoiceKind::TieBreak => 0,
                    ChoiceKind::Fault => 1,     // drop
                    ChoiceKind::Byzantine => 0, // honest
                }
            }
        }
        let world = fig1_world(System::P4Update(Strategy::Auto), |c| c);
        let mut sim = fig1_run(world).with_chooser(Box::new(DropAll));
        assert!(sim.run().drained());
        let world = sim.into_world();
        assert!(world.metrics().completions.is_empty());
        assert!(world.violations.is_empty(), "{:?}", world.violations);
        assert!(world.metrics().counts().control_drops > 0);
    }

    /// A flow the batch deploys fresh is checked like a migrated one: once
    /// it is up, a rule bent back upstream is a recorded loop.
    #[test]
    fn a_freshly_deployed_flow_is_checked() {
        let new = Path::new(topologies::fig1_new_path());
        let update = FlowUpdate::new(FlowId(0), None, new, 1.0);
        let world = basic_sim(System::P4Update(Strategy::ForceSingle));
        let mut sim = batch_simulation(world, vec![update], SimTime::ZERO);
        assert!(sim.run().drained());
        assert_eq!(sim.world().metrics().counts().completions, 1);
        assert!(sim.world().violations.is_empty());
        // v5 forwards back to v4, which forwards to v5.
        let bent = NodeId(5);
        sim.world_mut().switches[bent]
            .state
            .uib
            .update(FlowId(0), |e| {
                e.active_next_hop = Some(NodeId(4)).into();
            });
        let pkt = DataPacket {
            flow: FlowId(0),
            seq: 0,
            ttl: 8,
            tag: None,
        };
        let at = sim.now();
        let egress_hint = NodeId(7);
        let inject = Event::InjectPacket {
            node: bent,
            pkt,
            egress_hint,
        };
        sim.schedule_at(at, inject);
        assert!(sim.run().drained());
        let cycle = vec![NodeId(4), NodeId(5)];
        let looped = Violation::Loop {
            flow: FlowId(0),
            cycle,
        };
        assert_eq!(sim.world().violations, vec![(at, looped)]);
    }

    /// End-of-run accounting assigns: asked twice, a run with one completed
    /// and one stranded flow still reports the stranded one once.
    #[test]
    fn record_stranded_flows_is_idempotent() {
        let mut sim = fig1_run(basic_sim(System::P4Update(Strategy::Auto)));
        // Flow 1's batch is never triggered, so it cannot complete.
        let new = Path::new(topologies::fig1_new_path());
        sim.world_mut()
            .add_batch(vec![FlowUpdate::new(FlowId(1), None, new, 1.0)]);
        assert!(sim.run().drained());
        let mut world = sim.into_world();
        assert_eq!(world.metrics().counts().completions, 1);
        for _ in 0..2 {
            assert_eq!(world.record_stranded_flows(), vec![FlowId(1)]);
            assert_eq!(world.metrics().stranded, vec![FlowId(1)]);
            assert_eq!(world.metrics().counts().stranded_flows, 1);
        }
    }

    /// Installing the byzantine catalog without ever taking a lying
    /// alternative changes nothing: alternative 0 draws no randomness and
    /// schedules nothing, so the run is byte-identical to the plain
    /// engine.
    #[test]
    fn byzantine_catalog_with_default_chooser_changes_nothing() {
        let run = |byz: bool| {
            let world = fig1_world(System::P4Update(Strategy::Auto), |c| {
                if byz {
                    c.with_byzantine(crate::config::ByzantineConfig::default())
                } else {
                    c
                }
            });
            let mut sim = fig1_run(world);
            assert!(sim.run().drained());
            let events = sim.events_delivered();
            let world = sim.into_world();
            assert!(world.byz_outcomes.is_empty());
            (
                events,
                world.metrics().completions.clone(),
                world.violations,
            )
        };
        assert_eq!(run(false), run(true));
    }

    /// A switch that always lies about its dependency labels is caught by
    /// its upstream neighbor's local verification: the lie is rejected
    /// with an alarm, and no consistency breach occurs.
    #[test]
    fn p4update_rejects_a_dependency_lie_locally() {
        struct AlwaysLie;
        impl p4update_des::Chooser for AlwaysLie {
            fn choose(&mut self, kind: ChoiceKind, _arity: usize) -> usize {
                match kind {
                    ChoiceKind::Byzantine => 1,
                    _ => 0,
                }
            }
        }
        let world = fig1_world(System::P4Update(Strategy::Auto), |c| {
            c.with_byzantine(crate::config::ByzantineConfig {
                vector: Some(ByzVector::DependencyLie),
                ..Default::default()
            })
        });
        let mut sim = fig1_run(world).with_chooser(Box::new(AlwaysLie));
        assert!(sim.run().drained());
        let world = sim.into_world();
        let rejected = world
            .byz_outcomes
            .iter()
            .filter(|o| matches!(o.disposition, ByzDisposition::Rejected(_)));
        assert_eq!(rejected.count(), 1, "{:?}", world.byz_outcomes);
        assert!(world.violations.is_empty(), "{:?}", world.violations);
        assert_eq!(world.liars.len(), 1);
    }

    /// Deterministic mid-update failover: the standby takes over and the
    /// §11 recovery timer finishes the update, despite the replication-lag
    /// window having swallowed part of the primary's feedback.
    #[test]
    fn controller_failover_mid_update_still_completes() {
        let world = fig1_world(System::P4Update(Strategy::Auto), |c| {
            c.with_retry_ms(40.0).with_failover_at_ms(50.0)
        });
        let mut sim = fig1_run(world);
        assert!(sim.run().drained());
        let world = sim.into_world();
        assert!(world.failed_over());
        assert!(
            world
                .metrics()
                .completions
                .iter()
                .any(|&(_, f, _)| f == FlowId(0)),
            "update did not complete after failover"
        );
        assert!(world.violations.is_empty(), "{:?}", world.violations);
    }

    /// A switch's report under [`ControlLatency::Normal`] draws its latency
    /// when it is sent and reaches the controller through `deliver`, like
    /// every other control message. Two back-to-back single-flow updates on
    /// `fat_tree(4)` each end in exactly one report (the ingress's UFM, the
    /// update's last fault choice point): the first is delayed, the second
    /// duplicated.
    #[test]
    fn delayed_and_duplicated_reports_under_normal_control_latency() {
        use std::cell::Cell;
        use std::rc::Rc;

        /// Picks `faults[i]`'s alternative at the fault choice point it
        /// names (counted from 0), the default everywhere else.
        struct Script {
            seen: Rc<Cell<usize>>,
            faults: Vec<(usize, usize)>,
        }
        impl p4update_des::Chooser for Script {
            fn choose(&mut self, kind: ChoiceKind, _arity: usize) -> usize {
                if kind != ChoiceKind::Fault {
                    return 0;
                }
                let i = self.seen.replace(self.seen.get() + 1);
                self.faults
                    .iter()
                    .find(|&&(at, _)| at == i)
                    .map_or(0, |&(_, alt)| alt)
            }
        }

        // Returns the fault choice points seen by the end of each update,
        // the events delivered and the completion times.
        let run = |faults: Vec<(usize, usize)>| {
            let topo = topologies::fat_tree(4);
            let edges = topologies::fat_tree_edge_switches(&topo);
            let paths = p4update_net::k_shortest_paths(&topo, edges[0], *edges.last().unwrap(), 2);
            let (old, new) = (paths[0].clone(), paths[1].clone());
            let config = SimConfig::new(TimingConfig::fat_tree(), 1);
            let world = NetworkSim::new(topo, System::P4Update(Strategy::Auto), config, None);
            let there = FlowUpdate::new(FlowId(0), Some(old.clone()), new.clone(), 1.0);
            let seen = Rc::new(Cell::new(0));
            let mut sim = batch_simulation(world, vec![there], SimTime::ZERO).with_chooser(
                Box::new(Script {
                    seen: Rc::clone(&seen),
                    faults,
                }),
            );
            let back =
                sim.world_mut()
                    .add_batch(vec![FlowUpdate::new(FlowId(0), Some(new), old, 1.0)]);
            let second = SimTime::ZERO + SimDuration::from_secs(5);
            sim.schedule_at(second, Event::Trigger { batch: back });
            assert!(!sim
                .run_until(SimTime::ZERO + SimDuration::from_millis(4_999))
                .drained());
            let after_first = seen.get();
            assert!(sim.run().drained());
            let events = sim.events_delivered();
            let world = sim.into_world();
            assert!(world.violations.is_empty(), "{:?}", world.violations);
            let done: Vec<u64> = world
                .metrics()
                .completions
                .iter()
                .map(|&(at, _, _)| at.as_nanos())
                .collect();
            (after_first, seen.get(), events, done)
        };

        let (first_end, second_end, clean_events, clean_done) = run(Vec::new());
        let (_, _, events, done) = run(vec![(first_end - 1, 2), (second_end - 1, 3)]);
        let late = ms(ADVERSARY_DELAY_MS).as_nanos();
        // The delay adds no event and no draw: the first completion moves
        // by exactly the adversary's delay. The duplicate is one latency
        // draw and two deliveries (a queue entry and a service each: two
        // more events), and the controller completes on both: the on-time
        // copy exactly when the clean run does.
        assert_eq!(done[0], clean_done[0] + late);
        assert_eq!(done[1], clean_done[1]);
        assert_eq!(events, clean_events + 2);
        assert_eq!((first_end, second_end), (12, 24));
        assert_eq!(
            (clean_events, clean_done),
            (41, vec![134_687_585, 5_094_460_631])
        );
        assert_eq!(done, vec![534_687_585, 5_094_460_631, 5_532_636_841]);
    }

    #[test]
    #[should_panic(expected = "which add_batch never returned")]
    fn trigger_for_an_unknown_batch_panics() {
        let mut sim = simulation(basic_sim(System::P4Update(Strategy::Auto)));
        sim.schedule_at(SimTime::ZERO, Event::Trigger { batch: 0 });
        sim.run();
    }

    #[test]
    fn transit_uses_link_latency_for_neighbors() {
        let sim = basic_sim(System::P4Update(Strategy::Auto));
        assert_eq!(
            sim.transit(NodeId(0), NodeId(1)),
            SimDuration::from_millis(20)
        );
        // Non-adjacent: 0 to 7 over >= 3 links at 20ms plus relay cost.
        let t = sim.transit(NodeId(0), NodeId(7));
        assert!(t >= SimDuration::from_millis(60));
    }
}
