//! Randomized property tests on the core data structures and algorithm
//! invariants, driven by the in-tree `propcheck` harness (see
//! `p4update::des::propcheck`). `PROPCHECK_SCALE=16` multiplies the case
//! counts for an exhaustive run.

use p4update::core::{prepare_update, segment_update, verify, verify_sl, Strategy, Verdict};
use p4update::dataplane::{FlowPriority, Uib, UibEntry};
use p4update::des::propcheck::{cases, forall};
use p4update::des::{Samples, SimRng};
use p4update::messages::{
    decode, encode, DataPacket, Frm, Message, RejectReason, Ufm, UfmStatus, Uim, Unm, UnmLayer,
    UpdateKind,
};
use p4update::net::{FlowId, FlowUpdate, NodeId, Path, Version};
use std::cell::Cell;

// ---------- generators ----------

/// A simple path: a shuffled prefix (length in `2..=max_len`) of `0..32`.
fn gen_simple_path(rng: &mut SimRng, max_len: usize) -> Vec<u32> {
    let len = 2 + rng.uniform_usize(max_len - 1);
    let mut pool: Vec<u32> = (0..32).collect();
    rng.shuffle(&mut pool);
    pool.truncate(len);
    pool
}

/// Old and new path share ingress and egress; the old interior is a random
/// subset of the new interior so both overlapping and disjoint cases
/// appear, in new-path order or, in a quarter of the cases, shuffled, so
/// backward segments appear too.
fn gen_update(rng: &mut SimRng) -> FlowUpdate {
    let nodes = gen_simple_path(rng, 10);
    let ingress = nodes[0];
    let egress = *nodes.last().expect("len >= 2");
    let interior = &nodes[1..nodes.len() - 1];
    let mut old = vec![ingress];
    for &n in interior {
        if rng.chance(0.5) {
            old.push(n);
        }
    }
    if rng.chance(0.25) {
        rng.shuffle(&mut old[1..]);
    }
    old.push(egress);
    let to_path = |v: &[u32]| Path::new(v.iter().map(|&i| NodeId(i)).collect());
    FlowUpdate::new(
        FlowId(0),
        Some(to_path(&old)),
        to_path(&nodes),
        1.0 + rng.uniform_f64(),
    )
}

fn gen_kind(rng: &mut SimRng) -> UpdateKind {
    if rng.chance(0.5) {
        UpdateKind::Single
    } else {
        UpdateKind::Dual
    }
}

fn gen_opt_kind(rng: &mut SimRng) -> Option<UpdateKind> {
    if rng.chance(0.5) {
        None
    } else {
        Some(gen_kind(rng))
    }
}

fn gen_layer(rng: &mut SimRng) -> UnmLayer {
    if rng.chance(0.5) {
        UnmLayer::Inter
    } else {
        UnmLayer::Intra
    }
}

fn gen_u32(rng: &mut SimRng, bound: u32) -> u32 {
    rng.uniform_usize(bound as usize) as u32
}

fn gen_unm(rng: &mut SimRng) -> Unm {
    Unm {
        flow: FlowId(0),
        v_new: Version(gen_u32(rng, 8)),
        v_old: Version(gen_u32(rng, 8)),
        d_new: gen_u32(rng, 12),
        d_old: gen_u32(rng, 12),
        counter: gen_u32(rng, 20),
        kind: gen_kind(rng),
        layer: gen_layer(rng),
    }
}

fn gen_entry(rng: &mut SimRng) -> UibEntry {
    UibEntry {
        uim_version: Version(gen_u32(rng, 8)),
        uim_distance: gen_u32(rng, 12),
        uim_kind: gen_opt_kind(rng),
        applied_version: Version(gen_u32(rng, 8)),
        applied_distance: gen_u32(rng, 12),
        old_version: Version(gen_u32(rng, 8)),
        old_distance: gen_u32(rng, 12),
        last_update_type: gen_opt_kind(rng),
        counter: gen_u32(rng, 20),
        staged_next_hop: Some(NodeId(1)).into(),
        ..UibEntry::default()
    }
}

// ---------- properties ----------

/// Labels: the UIMs a prepared plan ships carry distances that strictly
/// decrease toward the egress; successors and upstreams mirror each other;
/// egress-first ordering.
#[test]
fn labels_are_a_valid_distance_proof() {
    forall("labels_are_a_valid_distance_proof", cases(256), |rng| {
        let update = gen_update(rng);
        let uims = prepare_update(&update, Version(1), Strategy::Auto).uims;
        assert_eq!(uims.len(), update.new_path.nodes().len());
        assert_eq!(uims[0].1.new_distance, 0);
        assert!(uims[0].1.next_hop.is_none());
        for w in uims.windows(2) {
            assert_eq!(w[1].1.new_distance, w[0].1.new_distance + 1);
            assert_eq!(w[1].1.next_hop, Some(w[0].0));
            assert_eq!(w[0].1.upstream, Some(w[1].0));
        }
    });
}

/// Segmentation: gateways appear on both paths in new-path order; segments
/// tile the new path exactly; interiors are fresh nodes. Some cases have a
/// backward segment.
#[test]
fn segmentation_tiles_the_new_path() {
    let backward = Cell::new(0u32);
    forall("segmentation_tiles_the_new_path", cases(256), |rng| {
        let update = gen_update(rng);
        let seg = segment_update(&update);
        backward.set(backward.get() + u32::from(!seg.forward_only()));
        let old = update.old_path.as_ref().expect("generated with old path");
        for &g in &seg.gateways {
            assert!(update.new_path.contains(g));
            assert!(old.contains(g));
        }
        let mut covered = vec![seg.gateways[0]];
        for s in &seg.segments {
            assert_eq!(*covered.last().expect("non-empty"), s.ingress_gateway);
            covered.extend(&s.interior);
            covered.push(s.egress_gateway);
            for &i in &s.interior {
                assert!(!old.contains(i));
            }
        }
        assert_eq!(covered.as_slice(), update.new_path.nodes());
    });
    assert!(backward.get() > 0, "no case had a backward segment");
}

/// Algorithm 1 soundness: an accepting verdict implies the version matches
/// the staged UIM exactly, the distance label fits
/// (`D_n(v) = D_n(UNM) + 1`), and the node had not applied it yet.
#[test]
fn alg1_accepts_only_consistent_notifications() {
    forall(
        "alg1_accepts_only_consistent_notifications",
        cases(256),
        |rng| {
            let entry = gen_entry(rng);
            let unm = gen_unm(rng);
            if verify_sl(&entry, &unm) == Verdict::Accept {
                assert_eq!(unm.v_new, entry.uim_version);
                assert_eq!(entry.uim_distance, unm.d_new.wrapping_add(1));
                assert!(entry.applied_version < unm.v_new);
            }
        },
    );
}

/// Algorithm 2 soundness: every accepting verdict requires the exact
/// distance fit; gateway acceptance additionally requires the old-distance
/// gate and the single-layer precondition.
#[test]
fn alg2_accepts_only_consistent_notifications() {
    forall(
        "alg2_accepts_only_consistent_notifications",
        cases(256),
        |rng| {
            let entry = gen_entry(rng);
            let unm = gen_unm(rng);
            match verify(&entry, &unm) {
                Verdict::AcceptInterior => {
                    assert_eq!(unm.v_new, entry.uim_version);
                    assert_eq!(entry.uim_distance, unm.d_new.wrapping_add(1));
                    assert!(Version(entry.applied_version.0 + 1) < unm.v_new);
                }
                Verdict::AcceptGateway => {
                    assert_eq!(unm.v_new, entry.uim_version);
                    assert_eq!(entry.uim_distance, unm.d_new.wrapping_add(1));
                    assert!(entry.old_distance > unm.d_old);
                    assert!(entry.last_update_type != Some(UpdateKind::Dual));
                }
                Verdict::PassAlong
                    if unm.kind == UpdateKind::Dual && entry.uim_kind == Some(UpdateKind::Dual) =>
                {
                    // The dual layer only forwards with progress: smaller old
                    // distance or a counter tie-break. (Single-layer pass-alongs
                    // are §11 recovery relays and carry no inheritance.)
                    assert!(
                        entry.old_distance > unm.d_old
                            || (entry.old_distance == unm.d_old && entry.counter > unm.counter)
                    );
                }
                _ => {}
            }
        },
    );
}

/// Verification is a pure function: same inputs, same verdict.
#[test]
fn verification_is_deterministic() {
    forall("verification_is_deterministic", cases(256), |rng| {
        let entry = gen_entry(rng);
        let unm = gen_unm(rng);
        assert_eq!(verify(&entry, &unm), verify(&entry, &unm));
    });
}

/// Wire codec: every encodable message round-trips bit-exactly.
#[test]
fn wire_roundtrip() {
    forall("wire_roundtrip", cases(256), |rng| {
        let flow = gen_u32(rng, 1000);
        let seq = rng.next_u32();
        let ttl = (rng.next_u32() & 0xFF) as u8;
        let version = gen_u32(rng, 100);
        let d = gen_u32(rng, 64);
        let size = rng.uniform_range(0.0, 1e6);
        let kind = gen_kind(rng);
        let layer = gen_layer(rng);
        let next = rng.chance(0.5).then(|| NodeId(gen_u32(rng, 64)));
        let up = rng.chance(0.5).then(|| NodeId(gen_u32(rng, 64)));
        let msgs = vec![
            Message::Data(DataPacket {
                flow: FlowId(flow),
                seq,
                ttl,
                tag: None,
            }),
            Message::Frm(Frm {
                flow: FlowId(flow),
                ingress: NodeId(d),
                egress: NodeId(d + 1),
            }),
            Message::Uim(Uim {
                flow: FlowId(flow),
                version: Version(version),
                new_distance: d,
                flow_size: size,
                next_hop: next,
                upstream: up,
                kind,
            }),
            Message::Unm(Unm {
                flow: FlowId(flow),
                v_new: Version(version),
                v_old: Version(version / 2),
                d_new: d,
                d_old: d / 2,
                counter: seq % 1000,
                kind,
                layer,
            }),
            Message::Ufm(Ufm {
                flow: FlowId(flow),
                version: Version(version),
                status: UfmStatus::Alarm(RejectReason::DistanceMismatch),
                reporter: NodeId(d),
            }),
        ];
        for msg in msgs {
            let wire = encode(&msg).expect("encodable");
            assert_eq!(decode(&wire).expect("decodable"), msg);
        }
    });
}

/// UIB storage: write/read round-trips arbitrary entries across many flows
/// without crosstalk.
#[test]
fn uib_roundtrip_without_crosstalk() {
    forall("uib_roundtrip_without_crosstalk", cases(256), |rng| {
        let entries: Vec<UibEntry> = (0..1 + rng.uniform_usize(19))
            .map(|_| gen_entry(rng))
            .collect();
        let mut uib = Uib::new();
        for (i, e) in entries.iter().enumerate() {
            uib.write(FlowId(i as u32), *e);
        }
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(uib.read(FlowId(i as u32)), *e);
        }
    });
}

/// Statistics: percentiles are monotone and bounded by min/max.
#[test]
fn percentiles_are_monotone() {
    forall("percentiles_are_monotone", cases(256), |rng| {
        let values: Vec<f64> = (0..1 + rng.uniform_usize(199))
            .map(|_| rng.uniform_range(0.0, 1e9))
            .collect();
        let s = Samples::from_iter(values.iter().copied());
        let p25 = s.percentile(25.0);
        let p50 = s.percentile(50.0);
        let p75 = s.percentile(75.0);
        assert!(p25 <= p50 && p50 <= p75);
        assert!(s.min() <= p25 && p75 <= s.max());
        // CDF covers every sample exactly once.
        assert_eq!(s.cdf_points().len(), values.len());
    });
}

/// Congestion scheduler: a low-priority flow must yield a link exactly
/// when another flow parked there is high priority, a high one never
/// yields, and drained flows are exactly the parked ones, high-priority
/// first.
#[test]
fn scheduler_drain_is_a_priority_ordered_permutation() {
    forall(
        "scheduler_drain_is_a_priority_ordered_permutation",
        cases(256),
        |rng| {
            use p4update::core::CongestionScheduler;
            let flows: Vec<u32> = (0..1 + rng.uniform_usize(29))
                .map(|_| gen_u32(rng, 50))
                .collect();
            let high_mask = rng.next_u64();
            let mut s = CongestionScheduler::new();
            let mut unique: Vec<u32> = flows.clone();
            unique.sort_unstable();
            unique.dedup();
            for &f in &flows {
                s.park(NodeId(0), FlowId(f));
            }
            let prio = |f: FlowId| {
                if high_mask & (1 << (f.0 % 64)) != 0 {
                    FlowPriority::High
                } else {
                    FlowPriority::Low
                }
            };
            // One parked flow and one never parked.
            for probe in [FlowId(flows[0]), FlowId(1000)] {
                let high_other = unique
                    .iter()
                    .any(|&f| FlowId(f) != probe && prio(FlowId(f)) == FlowPriority::High);
                assert_eq!(
                    s.must_yield(probe, NodeId(0), FlowPriority::Low, prio),
                    high_other
                );
                assert!(!s.must_yield(probe, NodeId(0), FlowPriority::High, prio));
                assert!(!s.must_yield(probe, NodeId(1), FlowPriority::Low, prio));
            }
            let order = s.drain(NodeId(0), prio);
            assert_eq!(order.len(), unique.len());
            // Permutation of the parked set.
            let mut sorted: Vec<u32> = order.iter().map(|f| f.0).collect();
            sorted.sort_unstable();
            assert_eq!(sorted, unique);
            // All highs precede all lows.
            let first_low = order.iter().position(|&f| prio(f) == FlowPriority::Low);
            if let Some(pos) = first_low {
                assert!(order[pos..].iter().all(|&f| prio(f) == FlowPriority::Low));
            }
        },
    );
}
