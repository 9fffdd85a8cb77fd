//! The §11 two-phase-commit integration: per-packet path consistency on
//! top of P4Update. With tagging enabled, every packet follows exactly one
//! rule generation — the complete old path or the complete new path —
//! never a mix, even while the migration is in flight.

use p4update::core::Strategy;
use p4update::des::{SimDuration, SimTime};
use p4update::messages::DataPacket;
use p4update::net::{FlowId, FlowUpdate, NodeId, Path, Topology, TopologyBuilder, Version};
use p4update::sim::{batch_simulation, Event, NetworkSim, SimConfig, System, TimingConfig};
use std::collections::{BTreeMap, BTreeSet};

/// A topology where mixed walks are *detectable*: the old path has a
/// private node (v1) and the new path has a private suffix (v4), pivoting
/// at the shared v2 whose next hop differs between generations.
///
/// ```text
/// old: 0 -> 1 -> 2 -> 5
/// new: 0 -> 3 -> 2 -> 4 -> 5
/// ```
fn pivot_topology() -> (Topology, Path, Path) {
    let mut b = TopologyBuilder::new("pivot");
    let v: Vec<NodeId> = (0..6).map(|i| b.add_node(format!("v{i}"))).collect();
    let lat = SimDuration::from_millis(10);
    for (x, y) in [
        (0usize, 1usize),
        (1, 2),
        (2, 5),
        (0, 3),
        (3, 2),
        (2, 4),
        (4, 5),
    ] {
        b.add_link(v[x], v[y], lat, 1_000.0);
    }
    let p = |ids: &[u32]| Path::new(ids.iter().map(|&i| NodeId(i)).collect());
    (b.build(), p(&[0, 1, 2, 5]), p(&[0, 3, 2, 4, 5]))
}

/// Reconstruct each packet's traversed node set from the arrival trace and
/// assert it is a subset of exactly one configuration's path.
#[test]
fn tagged_packets_never_mix_generations() {
    let (topo, old, new) = pivot_topology();
    let flow = FlowId(0);

    // Single-layer migration with slow installs, so the mixed window is
    // long and heavily exercised by traffic.
    let config = SimConfig::new(TimingConfig::wan_single_flow(topo.centroid()), 21);
    let mut world = NetworkSim::new(topo, System::P4Update(Strategy::ForceSingle), config, None);
    world.enable_two_phase_commit();
    // Trigger at 100 ms; stream packets from 0 to 2 s (the migration takes
    // several hundred ms under exp(100 ms) installs).
    let update = FlowUpdate::new(flow, Some(old.clone()), new.clone(), 1.0);
    let trigger = SimTime::ZERO + SimDuration::from_millis(100);
    let mut sim = batch_simulation(world, vec![update], trigger);
    for i in 0..200u64 {
        sim.schedule_at(
            SimTime::ZERO + SimDuration::from_millis(i * 10),
            Event::InjectPacket {
                node: NodeId(0),
                pkt: DataPacket {
                    flow,
                    seq: i as u32,
                    ttl: 64,
                    tag: None, // stamped by the ingress
                },
                egress_hint: NodeId(5),
            },
        );
    }
    assert!(sim.run().drained());
    let world = sim.into_world();
    assert!(world.violations.is_empty(), "{:?}", world.violations);
    assert!(world.metrics().completion_of(flow, Version(2)).is_some());

    // Per-packet traversal sets.
    let mut visited: BTreeMap<u32, BTreeSet<NodeId>> = BTreeMap::new();
    for &(_, node, pkt) in &world.metrics().arrivals {
        visited.entry(pkt.seq).or_default().insert(node);
    }
    let old_set: BTreeSet<NodeId> = old.nodes().iter().copied().collect();
    let new_set: BTreeSet<NodeId> = new.nodes().iter().copied().collect();
    let mut via_old = 0;
    let mut via_new = 0;
    for (seq, nodes) in &visited {
        let in_old = nodes.is_subset(&old_set);
        let in_new = nodes.is_subset(&new_set);
        assert!(
            in_old || in_new,
            "packet {seq} mixed generations: {nodes:?}"
        );
        // Count only completed traversals.
        if in_old && nodes.len() == old_set.len() {
            via_old += 1;
        }
        if in_new && nodes.len() == new_set.len() {
            via_new += 1;
        }
    }
    // The stream spans the migration: both generations must carry traffic.
    assert!(via_old > 0, "no packet completed the old path");
    assert!(via_new > 0, "no packet completed the new path");

    // Every packet is delivered: no loss during the tagged migration.
    assert_eq!(
        world.metrics().deliveries.len(),
        200,
        "lost packets: {:?}",
        world.metrics().drops
    );
}

/// Without tagging, the same migration forwards some packets over mixed
/// (old-prefix + new-suffix) walks — still loop- and blackhole-free, but
/// not per-packet path-consistent. This is the control experiment showing
/// the 2PC mode adds a real property.
#[test]
fn untagged_packets_do_mix_generations() {
    let (topo, old, new) = pivot_topology();
    let flow = FlowId(0);
    let config = SimConfig::new(TimingConfig::wan_single_flow(topo.centroid()), 21);
    // No enable_two_phase_commit().
    let world = NetworkSim::new(topo, System::P4Update(Strategy::ForceSingle), config, None);
    let update = FlowUpdate::new(flow, Some(old.clone()), new.clone(), 1.0);
    let trigger = SimTime::ZERO + SimDuration::from_millis(100);
    let mut sim = batch_simulation(world, vec![update], trigger);
    for i in 0..200u64 {
        sim.schedule_at(
            SimTime::ZERO + SimDuration::from_millis(i * 10),
            Event::InjectPacket {
                node: NodeId(0),
                pkt: DataPacket {
                    flow,
                    seq: i as u32,
                    ttl: 64,
                    tag: None,
                },
                egress_hint: NodeId(5),
            },
        );
    }
    assert!(sim.run().drained());
    let world = sim.into_world();
    // Consistency (loop/blackhole) still holds without tags — that is
    // P4Update's own guarantee.
    assert!(world.violations.is_empty(), "{:?}", world.violations);

    let mut visited: BTreeMap<u32, BTreeSet<NodeId>> = BTreeMap::new();
    for &(_, node, pkt) in &world.metrics().arrivals {
        visited.entry(pkt.seq).or_default().insert(node);
    }
    let old_set: BTreeSet<NodeId> = old.nodes().iter().copied().collect();
    let new_set: BTreeSet<NodeId> = new.nodes().iter().copied().collect();
    let mixed = visited
        .values()
        .filter(|nodes| !nodes.is_subset(&old_set) && !nodes.is_subset(&new_set))
        .count();
    assert!(
        mixed > 0,
        "expected mixed-generation walks without tagging (the SL chain \
         creates old-prefix/new-suffix walks mid-migration)"
    );
}
