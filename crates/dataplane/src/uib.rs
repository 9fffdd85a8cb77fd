//! The Update Information Base (UIB): the per-flow register file of the
//! P4Update data plane (§6, Table 1 / Appendix B).
//!
//! Table 1 is one record of proof labels per flow, and [`UibEntry`] is that
//! record, one field per register; [`Uib`] keeps one entry per flow it
//! holds, in ascending flow order, beside the sorted flow ids that index
//! them — the P4 program's structure ("the distance, version number, and
//! other helping variables are defined per-flow and indexed by the flow
//! ID", §10) with the per-field register arrays transposed into an array of
//! records. Like a P4 program's register arrays, the file is sized before
//! the traffic that fills it: [`Uib::provision`] fixes it at what it holds
//! plus the flows a batch will bring.
//!
//! Register groups (the paper's Table 1 plus the "other helping variables"
//! §10 mentions):
//!
//! - **staged** (`new_version`, `new_distance`, `egress_port_updated`, and
//!   the clone-session port): the labels of the highest UIM received, not
//!   yet active;
//! - **applied** (`V_n(v)`, `D_n(v)` in Algorithm 2, `egress_port`): the
//!   configuration data packets currently follow;
//! - **inheritance** (`old_version`, `old_distance` — `V_o(v)`, `D_o(v)`):
//!   the dual-layer gating layer. Single-layer flips copy the applied
//!   values here ("the old_distance and old_version will also be updated to
//!   the corresponding value in new_distance and new_version", Appendix B);
//!   dual-layer updates *inherit* downstream old distances instead, which
//!   is the loop-freedom invariant of §3.2.
//!
//! The five port registers (`egress_port`, `egress_port_updated`, the two
//! upstream ports and the previous generation's port) are 4-byte
//! [`HopRegister`]s.

use p4update_messages::UpdateKind;
use p4update_net::{FlowId, NodeId, Version};
use std::fmt;

/// One port register: a neighbour, or none, in four bytes. None is
/// `u32::MAX`, the wire format's rule for an absent node, so
/// `NodeId(u32::MAX)` is not a neighbour here either.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HopRegister(u32);

impl HopRegister {
    /// The empty register: no neighbour (the flow terminates here, or no
    /// rule names a port).
    pub const NONE: HopRegister = HopRegister(u32::MAX);

    /// The neighbour this register names, if any.
    pub fn get(self) -> Option<NodeId> {
        (self != Self::NONE).then_some(NodeId(self.0))
    }
}

impl From<Option<NodeId>> for HopRegister {
    fn from(hop: Option<NodeId>) -> Self {
        hop.map_or(Self::NONE, |n| HopRegister(n.0))
    }
}

impl fmt::Debug for HopRegister {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

/// Congestion priority of a flow at this switch (§7.4): flows that must
/// move away from a contended link are raised to high priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowPriority {
    /// Default priority.
    #[default]
    Low,
    /// The flow's move frees capacity another flow is waiting for.
    High,
}

/// A consistent snapshot of one flow's UIB registers at one switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UibEntry {
    // --- staged from the highest UIM ---
    /// `new_version`: version of the highest UIM received.
    pub uim_version: Version,
    /// `new_distance`: this node's `D_n` label in that UIM.
    pub uim_distance: u32,
    /// `egress_port_updated`: staged next hop (none = terminate here).
    pub staged_next_hop: HopRegister,
    /// Staged upstream neighbor (UNM clone-session port).
    pub staged_upstream: HopRegister,
    /// Mechanism announced by the UIM.
    pub uim_kind: Option<UpdateKind>,
    // --- applied configuration ---
    /// `V_n(v)`: version of the last accepted configuration
    /// (`Version::NONE` when the switch holds no rule for the flow).
    pub applied_version: Version,
    /// `D_n(v)`: distance of the last accepted configuration.
    pub applied_distance: u32,
    /// `egress_port`: the active next hop data packets follow.
    pub active_next_hop: HopRegister,
    /// Active upstream neighbor.
    pub active_upstream: HopRegister,
    // --- inheritance layer (dual-layer gating) ---
    /// `V_o(v)`.
    pub old_version: Version,
    /// `D_o(v)` — the "segment ID" of §3.2's intuition.
    pub old_distance: u32,
    // --- previous generation (two-phase commit, §11) ---
    /// Version of the configuration that was active before the last flip;
    /// packets tagged with it still forward by its rule.
    pub prev_version: Version,
    /// Next hop of the previous generation (none = terminated here).
    pub prev_next_hop: HopRegister,
    // --- misc ---
    /// Immutable flow size bound for local capacity checks.
    pub flow_size: f64,
    /// Dynamic congestion priority.
    pub priority: FlowPriority,
    /// `t`: mechanism of the last applied update.
    pub last_update_type: Option<UpdateKind>,
    /// Hop counter for dual-layer symmetry breaking (Alg. 2).
    pub counter: u32,
}

// `read` returns the record by value on every message a switch handles,
// and a switch's UIB memory is its flow count times this: a field that
// pushes the record past 64 bytes is a decision to take knowingly.
const _: () = assert!(std::mem::size_of::<UibEntry>() <= 64);

impl Default for UibEntry {
    fn default() -> Self {
        UibEntry {
            uim_version: Version::NONE,
            uim_distance: u32::MAX,
            staged_next_hop: HopRegister::NONE,
            staged_upstream: HopRegister::NONE,
            uim_kind: None,
            applied_version: Version::NONE,
            applied_distance: u32::MAX,
            active_next_hop: HopRegister::NONE,
            active_upstream: HopRegister::NONE,
            old_version: Version::NONE,
            old_distance: u32::MAX,
            prev_version: Version::NONE,
            prev_next_hop: HopRegister::NONE,
            flow_size: 0.0,
            priority: FlowPriority::Low,
            last_update_type: None,
            counter: 0,
        }
    }
}

impl UibEntry {
    /// True when the switch holds an active forwarding or terminating rule
    /// for the flow.
    pub fn has_active_rule(&self) -> bool {
        self.applied_version > Version::NONE
    }

    /// True when the active rule terminates the flow here (egress role).
    pub fn is_egress(&self) -> bool {
        self.has_active_rule() && self.active_next_hop == HopRegister::NONE
    }

    /// What a data packet of the flow sees here: whether a rule is active,
    /// and the port it names.
    fn rule(&self) -> (bool, HopRegister) {
        (self.has_active_rule(), self.active_next_hop)
    }

    /// Apply the staged configuration as a **single-layer** flip: the
    /// staged labels become the applied configuration, and the inheritance
    /// layer is reset to the applied values (Appendix B).
    pub fn apply_single(&mut self) {
        self.save_previous_generation();
        self.applied_version = self.uim_version;
        self.applied_distance = self.uim_distance;
        self.active_next_hop = self.staged_next_hop;
        self.active_upstream = self.staged_upstream;
        self.old_version = self.uim_version;
        self.old_distance = self.uim_distance;
        self.last_update_type = Some(UpdateKind::Single);
        self.counter = 0;
    }

    /// Keep the outgoing rule of the configuration being replaced, so
    /// packets stamped with its version under the two-phase-commit mode
    /// (§11) still follow it.
    fn save_previous_generation(&mut self) {
        if self.has_active_rule() {
            self.prev_version = self.applied_version;
            self.prev_next_hop = self.active_next_hop;
        }
    }

    /// Apply the staged configuration as a **dual-layer** flip, inheriting
    /// the sender's old distance/version from the verified UNM
    /// (Alg. 2 lines 11–16 and 20–23).
    pub fn apply_dual(
        &mut self,
        inherited_old_version: Version,
        inherited_old_distance: u32,
        counter: u32,
    ) {
        self.save_previous_generation();
        self.applied_version = self.uim_version;
        self.applied_distance = self.uim_distance;
        self.active_next_hop = self.staged_next_hop;
        self.active_upstream = self.staged_upstream;
        self.old_version = inherited_old_version;
        self.old_distance = inherited_old_distance;
        self.last_update_type = Some(UpdateKind::Dual);
        self.counter = counter;
    }
}

/// The full UIB: one [`UibEntry`] per flow seen at this switch, in
/// ascending flow order.
#[derive(Debug, Clone, Default)]
pub struct Uib {
    /// The flows held, ascending and probed by binary search: register `i`
    /// is `entries[i]` (the P4 program hashes a flow to its index; a switch
    /// holds a handful of flows, for which a map's nodes would weigh more
    /// than the registers they index).
    index: Vec<FlowId>,
    entries: Vec<UibEntry>,
    /// Flows whose rule ([`UibEntry::rule`]) a write changed since the last
    /// [`Uib::drain_flips`], in write order: the simulator's consistency
    /// checker re-walks exactly these.
    flips: Vec<FlowId>,
}

impl Uib {
    /// Fresh, empty UIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where `flow` is, or where it would be inserted.
    fn probe(&self, flow: FlowId) -> Result<usize, usize> {
        self.index.binary_search(&flow)
    }

    fn get(&self, flow: FlowId) -> Option<&UibEntry> {
        self.probe(flow).ok().map(|at| &self.entries[at])
    }

    /// True when the flow has ever been seen at this switch.
    pub fn knows(&self, flow: FlowId) -> bool {
        self.probe(flow).is_ok()
    }

    /// Size the register file for the flows it holds plus `fresh` more,
    /// exactly, the way a P4 program fixes its register arrays: a file with
    /// room for more gives the slack back (never a record), one with room
    /// for fewer grows once, one that fits is left as it is. A flow beyond
    /// the count still gets its record, with the usual amortized growth.
    pub fn provision(&mut self, fresh: usize) {
        let slots = self.index.len() + fresh;
        if self.index.capacity() != slots || self.entries.capacity() != slots {
            fit(&mut self.index, slots);
            fit(&mut self.entries, slots);
        }
    }

    /// Snapshot a flow's registers ([`UibEntry::default`] for unknown
    /// flows, matching uninitialized register contents).
    pub fn read(&self, flow: FlowId) -> UibEntry {
        self.get(flow).copied().unwrap_or_default()
    }

    /// Write a flow's registers wholesale.
    pub fn write(&mut self, flow: FlowId, e: UibEntry) {
        self.update(flow, |slot| *slot = e);
    }

    /// Read-modify-write a flow's registers in place, allocating the
    /// flow's registers on first use.
    pub fn update<R>(&mut self, flow: FlowId, f: impl FnOnce(&mut UibEntry) -> R) -> R {
        let at = self.probe(flow).unwrap_or_else(|at| {
            self.index.insert(at, flow);
            self.entries.insert(at, UibEntry::default());
            at
        });
        let entry = &mut self.entries[at];
        let rule = entry.rule();
        let out = f(entry);
        if entry.rule() != rule {
            self.flips.push(flow);
        }
        out
    }

    /// The flows whose rule changed since the last call, in write order (a
    /// flow that changed twice comes twice).
    pub fn drain_flips(&mut self) -> std::vec::Drain<'_, FlowId> {
        self.flips.drain(..)
    }

    /// The active next hop data packets follow, if an active rule exists.
    pub fn active_next_hop(&self, flow: FlowId) -> Option<NodeId> {
        self.get(flow).and_then(|e| e.active_next_hop.get())
    }

    /// The flows with registers here, ascending.
    pub fn flows(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.index.iter().copied()
    }

    /// Call `f` on every flow's registers, writable in place, in ascending
    /// flow order (each write logged like [`Self::update`]'s).
    pub fn for_each_mut(&mut self, mut f: impl FnMut(FlowId, &mut UibEntry)) {
        for (&flow, entry) in self.index.iter().zip(&mut self.entries) {
            let rule = entry.rule();
            f(flow, entry);
            if entry.rule() != rule {
                self.flips.push(flow);
            }
        }
    }
}

/// Give `v` a capacity of exactly `slots` (at least its length).
fn fit<T>(v: &mut Vec<T>, slots: usize) {
    if v.capacity() < slots {
        v.reserve_exact(slots - v.len());
    } else {
        v.shrink_to(slots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4update_des::propcheck::{cases, forall};
    use p4update_des::SimRng;
    use std::collections::BTreeMap;

    #[test]
    fn unknown_flow_reads_default() {
        let uib = Uib::new();
        let e = uib.read(FlowId(7));
        assert_eq!(e, UibEntry::default());
        assert!(!e.has_active_rule());
        assert!(!e.is_egress());
        assert!(!uib.knows(FlowId(7)));
    }

    #[test]
    fn write_read_roundtrip() {
        let mut uib = Uib::new();
        let entry = UibEntry {
            uim_version: Version(2),
            uim_distance: 3,
            staged_next_hop: Some(NodeId(4)).into(),
            staged_upstream: Some(NodeId(1)).into(),
            uim_kind: Some(UpdateKind::Dual),
            applied_version: Version(1),
            applied_distance: 2,
            active_next_hop: Some(NodeId(5)).into(),
            active_upstream: None.into(),
            old_version: Version(1),
            old_distance: 2,
            prev_version: Version(1),
            prev_next_hop: Some(NodeId(6)).into(),
            flow_size: 1.5,
            priority: FlowPriority::High,
            last_update_type: Some(UpdateKind::Single),
            counter: 9,
        };
        uib.write(FlowId(3), entry);
        assert_eq!(uib.read(FlowId(3)), entry);
        assert!(uib.knows(FlowId(3)));
        assert_eq!(uib.active_next_hop(FlowId(3)), Some(NodeId(5)));
    }

    #[test]
    fn egress_role_detection() {
        let mut uib = Uib::new();
        uib.update(FlowId(0), |e| {
            e.applied_version = Version(1);
            e.active_next_hop = None.into();
        });
        assert!(uib.read(FlowId(0)).is_egress());
        uib.update(FlowId(0), |e| e.active_next_hop = Some(NodeId(2)).into());
        assert!(!uib.read(FlowId(0)).is_egress());
        assert!(uib.read(FlowId(0)).has_active_rule());
    }

    #[test]
    fn apply_single_resets_inheritance_layer() {
        let mut e = UibEntry {
            uim_version: Version(3),
            uim_distance: 4,
            staged_next_hop: Some(NodeId(9)).into(),
            staged_upstream: Some(NodeId(8)).into(),
            old_version: Version(1),
            old_distance: 0, // inherited by a past dual-layer run
            last_update_type: Some(UpdateKind::Dual),
            counter: 5,
            ..UibEntry::default()
        };
        e.apply_single();
        assert_eq!(e.applied_version, Version(3));
        assert_eq!(e.applied_distance, 4);
        assert_eq!(e.active_next_hop.get(), Some(NodeId(9)));
        assert_eq!(e.active_upstream.get(), Some(NodeId(8)));
        // Appendix B: old_* take the new values at a single-layer flip.
        assert_eq!(e.old_version, Version(3));
        assert_eq!(e.old_distance, 4);
        assert_eq!(e.last_update_type, Some(UpdateKind::Single));
        assert_eq!(e.counter, 0);
    }

    #[test]
    fn apply_dual_inherits_old_distance() {
        let mut e = UibEntry {
            uim_version: Version(2),
            uim_distance: 5,
            staged_next_hop: Some(NodeId(3)).into(),
            old_version: Version(1),
            old_distance: 1,
            ..UibEntry::default()
        };
        e.apply_dual(Version(1), 0, 4);
        assert_eq!(e.applied_version, Version(2));
        assert_eq!(e.applied_distance, 5);
        // Inheritance layer takes the UNM's values, not the staged ones.
        assert_eq!(e.old_version, Version(1));
        assert_eq!(e.old_distance, 0);
        assert_eq!(e.counter, 4);
        assert_eq!(e.last_update_type, Some(UpdateKind::Dual));
    }

    #[test]
    fn update_closure_result_propagates() {
        let mut uib = Uib::new();
        let was_known = uib.update(FlowId(1), |e| {
            let known = e.has_active_rule();
            e.applied_version = Version(1);
            known
        });
        assert!(!was_known);
        assert!(uib.read(FlowId(1)).has_active_rule());
    }

    #[test]
    fn registers_grow_past_initial_sizing() {
        let mut uib = Uib::new();
        for i in 0..200 {
            uib.update(FlowId(i), |e| e.uim_distance = i);
        }
        assert_eq!(uib.read(FlowId(150)).uim_distance, 150);
        assert_eq!(uib.flows().count(), 200);
    }

    #[test]
    fn flows_are_sorted() {
        let mut uib = Uib::new();
        for i in [5u32, 1, 3] {
            uib.update(FlowId(i), |_| ());
        }
        assert_eq!(
            uib.flows().collect::<Vec<_>>(),
            vec![FlowId(1), FlowId(3), FlowId(5)]
        );
    }

    /// A port register reads back the node it was given, and none is the
    /// wire format's `NONE_NODE`: the node a UIM's absent next hop decodes
    /// from is the one an empty register holds, and a node the wire cannot
    /// carry (`u32::MAX`) reads back as none from both.
    #[test]
    fn an_empty_hop_register_is_the_wire_formats_none() {
        use p4update_messages::{decode, encode, Message, Uim};
        assert_eq!(std::mem::size_of::<HopRegister>(), 4);
        assert_eq!(HopRegister::NONE.get(), None);
        for hop in [
            None,
            Some(NodeId(0)),
            Some(NodeId(7)),
            Some(NodeId(u32::MAX - 1)),
            Some(NodeId(u32::MAX)),
        ] {
            let uim = Message::Uim(Uim {
                flow: FlowId(1),
                version: Version(2),
                new_distance: 3,
                flow_size: 1.0,
                next_hop: hop,
                upstream: None,
                kind: UpdateKind::Single,
            });
            let Ok(Message::Uim(back)) = decode(&encode(&uim).expect("encodes")) else {
                panic!("a UIM decodes to a UIM");
            };
            assert_eq!(HopRegister::from(hop).get(), back.next_hop, "{hop:?}");
            assert_eq!(HopRegister::from(back.next_hop), HopRegister::from(hop));
        }
        assert_eq!(HopRegister::from(Some(NodeId(u32::MAX))), HopRegister::NONE);
    }

    /// A hop the registers must hold: none, the lowest and highest node
    /// ids a register can carry, or a small one.
    fn random_hop(rng: &mut SimRng) -> Option<NodeId> {
        match rng.uniform_usize(5) {
            0 => None,
            1 => Some(NodeId(0)),
            2 => Some(NodeId(u32::MAX - 1)),
            _ => Some(NodeId(rng.next_u32() % 8)),
        }
    }

    fn random_entry(rng: &mut SimRng) -> UibEntry {
        let kind = |rng: &mut SimRng| match rng.uniform_usize(3) {
            0 => None,
            1 => Some(UpdateKind::Single),
            _ => Some(UpdateKind::Dual),
        };
        UibEntry {
            uim_version: Version(rng.next_u32() % 6),
            uim_distance: rng.next_u32() % 12,
            staged_next_hop: random_hop(rng).into(),
            staged_upstream: random_hop(rng).into(),
            uim_kind: kind(rng),
            applied_version: Version(rng.next_u32() % 6),
            applied_distance: rng.next_u32() % 12,
            active_next_hop: random_hop(rng).into(),
            active_upstream: random_hop(rng).into(),
            old_version: Version(rng.next_u32() % 6),
            old_distance: rng.next_u32() % 12,
            prev_version: Version(rng.next_u32() % 6),
            prev_next_hop: random_hop(rng).into(),
            flow_size: rng.uniform_range(0.0, 8.0),
            priority: if rng.chance(0.5) {
                FlowPriority::High
            } else {
                FlowPriority::Low
            },
            last_update_type: kind(rng),
            counter: rng.next_u32() % 5,
        }
    }

    /// Random `write`/`update`/`read`/`knows`/`flows`/`provision` sequences
    /// against a `BTreeMap` model: every flow reads back what was last
    /// stored under it and nothing else, and the flip log, drained after
    /// every step, names the step's flow iff its rule changed. First uses come in descending
    /// runs, ascending runs and anywhere, with known flows repeated in
    /// between — a new flow lands at the front, at the back or inside the
    /// sorted index — and `flows()` and `knows()` are compared after every
    /// step, not only at the end. Port registers are written with `None`,
    /// `NodeId(0)` and `NodeId(u32::MAX - 1)` among their values and read
    /// back as given. A `provision` sizes the file to exactly what it holds
    /// plus the count, growing or shrinking it; after one, every record
    /// still reads as the model says, and first uses within the count
    /// never reallocate.
    #[test]
    fn uib_agrees_with_map_model() {
        forall("uib_agrees_with_map_model", cases(128), |rng| {
            // Dense ids revisit the same few slots; sparse ones spread over
            // the index.
            let id_space = if rng.chance(0.5) { 12 } else { u32::MAX };
            let mut pool: Vec<FlowId> = Vec::new();
            let mut cursor = rng.next_u32() % id_space;
            let mut uib = Uib::new();
            let mut model = BTreeMap::new();
            // The slot count of the last provision, while the file is
            // still within it.
            let mut provisioned: Option<usize> = None;
            for _ in 0..200 {
                // The cursor jumps, steps down or steps up; or a flow
                // already drawn comes again.
                let flow = match rng.uniform_usize(6) {
                    0 => FlowId(rng.next_u32() % id_space),
                    1 => FlowId(cursor.saturating_sub(1)),
                    2 => FlowId((cursor + 1) % id_space),
                    _ => rng.choose(&pool).copied().unwrap_or(FlowId(cursor)),
                };
                cursor = flow.0;
                pool.push(flow);
                let before = model.get(&flow).copied();
                match rng.uniform_usize(8) {
                    0 => {
                        let e = random_entry(rng);
                        uib.write(flow, e);
                        model.insert(flow, e);
                    }
                    1 => {
                        let stage = |e: &mut UibEntry| {
                            e.uim_version = e.uim_version.next();
                            e.counter += 1;
                            e.has_active_rule()
                        };
                        let got = uib.update(flow, stage);
                        assert_eq!(got, stage(model.entry(flow).or_default()));
                    }
                    2 => {
                        let flip = |e: &mut UibEntry| e.apply_single();
                        uib.update(flow, flip);
                        flip(model.entry(flow).or_default());
                    }
                    3 => {
                        // `process_cleanup` resets a slot this way.
                        uib.update(flow, |e| *e = UibEntry::default());
                        model.insert(flow, UibEntry::default());
                    }
                    4 => {
                        let want = model.get(&flow).copied().unwrap_or_default();
                        assert_eq!(uib.read(flow), want);
                        assert_eq!(uib.active_next_hop(flow), want.active_next_hop.get());
                    }
                    5 => {
                        // The five port registers, each set from a hop and
                        // read back as that hop.
                        let hops: [Option<NodeId>; 5] = std::array::from_fn(|_| random_hop(rng));
                        let set = |e: &mut UibEntry| {
                            e.staged_next_hop = hops[0].into();
                            e.staged_upstream = hops[1].into();
                            e.active_next_hop = hops[2].into();
                            e.active_upstream = hops[3].into();
                            e.prev_next_hop = hops[4].into();
                        };
                        uib.update(flow, set);
                        set(model.entry(flow).or_default());
                        let e = uib.read(flow);
                        let back = [
                            e.staged_next_hop,
                            e.staged_upstream,
                            e.active_next_hop,
                            e.active_upstream,
                            e.prev_next_hop,
                        ]
                        .map(HopRegister::get);
                        assert_eq!(back, hops);
                    }
                    6 => {
                        let fresh = rng.uniform_usize(6);
                        uib.provision(fresh);
                        let slots = model.len() + fresh;
                        assert_eq!(uib.entries.capacity(), slots);
                        assert_eq!(uib.index.capacity(), slots);
                        provisioned = Some(slots);
                        for (&flow, want) in &model {
                            assert_eq!(uib.read(flow), *want);
                        }
                    }
                    // Drawn and not touched: a first use stays unknown.
                    _ => (),
                }
                // A step logs its flow iff it changed the flow's rule.
                let before = before.unwrap_or_default().rule();
                let after = model.get(&flow).copied().unwrap_or_default().rule();
                let logged: Vec<FlowId> = uib.drain_flips().collect();
                let flipped = if before == after { vec![] } else { vec![flow] };
                assert_eq!(logged, flipped, "{before:?} -> {after:?}");
                if let Some(slots) = provisioned {
                    if model.len() <= slots {
                        assert_eq!(uib.entries.capacity(), slots, "grew within its count");
                    } else {
                        provisioned = None;
                    }
                }
                assert_eq!(uib.knows(flow), model.contains_key(&flow));
                assert!(uib.flows().eq(model.keys().copied()));
            }
            for (&flow, want) in &model {
                assert_eq!(uib.read(flow), *want);
            }
        });
    }

    /// A provision that fits leaves the file as it is; one over a file
    /// with growth slack gives the slack back.
    #[test]
    fn provision_fits_the_file_to_its_flows() {
        let mut uib = Uib::new();
        for i in 0..5 {
            uib.update(FlowId(i), |_| ());
        }
        assert_eq!(uib.entries.capacity(), 8, "amortized growth");
        uib.provision(0);
        assert_eq!(uib.entries.capacity(), 5);
        uib.provision(3);
        let at = uib.entries.as_ptr();
        for i in 5..8 {
            uib.update(FlowId(i), |_| ());
        }
        uib.provision(0);
        assert_eq!(
            uib.entries.as_ptr(),
            at,
            "a fitting file is not reallocated"
        );
        assert_eq!((uib.entries.capacity(), uib.index.capacity()), (8, 8));
    }
}
