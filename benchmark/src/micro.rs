//! The `layers` micro-measurements: one hot public function of each layer,
//! timed alone for at least [`MIN_SECONDS`] (a tenth of that under
//! `--smoke`), so a move in an end-to-end metric can be attributed. Inputs
//! are fixed (no `--seed`); each measurement first checks that the function
//! still answers as expected.

use p4update_core::{verify_dl, verify_sl, P4UpdateLogic, Verdict};
use p4update_dataplane::{Effect, Endpoint, Switch, UibEntry};
use p4update_des::{Scheduler, SimDuration, SimTime, Simulation, World};
use p4update_messages::{decode, encode, Message, RejectReason, Uim, Unm, UnmLayer, UpdateKind};
use p4update_net::{
    k_shortest_paths, latency_distances_from, topologies, FlowId, NodeId, Topology, Version,
};
use std::hint::black_box;
use std::time::Instant;

/// Shortest time any measurement iterates for.
pub const MIN_SECONDS: f64 = 0.2;
/// Events per `des` world.
const DES_EVENTS: u64 = 100_000;

/// One measurement: metric name, value, unit.
pub type Sample = (&'static str, f64, &'static str);

/// Call `batch` (which performs `ops` operations) until `min_seconds`
/// have passed; nanoseconds per operation over all calls.
fn ns_per_op(min_seconds: f64, ops: u64, mut batch: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut done = 0u64;
    loop {
        batch();
        done += ops;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_seconds {
            return elapsed * 1e9 / done as f64;
        }
    }
}

fn check(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("micro input check failed: {what}"))
    }
}

/// `count` node pairs spread over the topology by two fixed strides; the
/// two ends always differ.
fn fixed_pairs(n: usize, count: usize) -> Vec<(NodeId, NodeId)> {
    (0..count)
        .map(|i| {
            let src = (i * 7919) % n;
            let dst = (src + 1 + (i * 104_729) % (n - 1)) % n;
            (NodeId(src as u32), NodeId(dst as u32))
        })
        .collect()
}

fn net(min_seconds: f64, topo: &Topology, out: &mut Vec<Sample>) -> Result<(), String> {
    let n = topo.node_count();
    let pairs = fixed_pairs(n, 256);
    let (src, dst) = pairs[0];
    let found = k_shortest_paths(topo, src, dst, 2);
    check(
        found
            .first()
            .is_some_and(|p| p.ingress() == src && p.egress() == dst),
        "k_shortest_paths connects the pair it was asked for",
    )?;
    let ns = ns_per_op(min_seconds, pairs.len() as u64, || {
        for &(s, d) in &pairs {
            black_box(k_shortest_paths(black_box(topo), s, d, 2));
        }
    });
    out.push(("net.ksp_us_per_pair", ns / 1e3, "us"));

    let sources: Vec<NodeId> = (0..64).map(|i| NodeId(((i * 7919) % n) as u32)).collect();
    let dist = latency_distances_from(topo, sources[0]);
    check(
        dist.len() == n && dist[sources[0].index()] == 0.0,
        "latency_distances_from covers every node",
    )?;
    let ns = ns_per_op(min_seconds, sources.len() as u64, || {
        for &s in &sources {
            black_box(latency_distances_from(black_box(topo), s));
        }
    });
    out.push(("net.sssp_us_per_source", ns / 1e3, "us"));
    Ok(())
}

fn unm(v_new: u32, v_old: u32, d_new: u32, d_old: u32, kind: UpdateKind) -> Unm {
    Unm {
        flow: FlowId(0),
        v_new: Version(v_new),
        v_old: Version(v_old),
        d_new,
        d_old,
        counter: 0,
        kind,
        layer: UnmLayer::Intra,
    }
}

/// Algorithms 1 and 2 on the four verdicts the workloads exercise most.
fn core(min_seconds: f64, out: &mut Vec<Sample>) -> Result<(), String> {
    // A fresh node with the UIM for version 1 staged, two hops out (Fig. 6a).
    let sl_fresh = UibEntry {
        uim_version: Version(1),
        uim_distance: 2,
        uim_kind: Some(UpdateKind::Single),
        ..UibEntry::default()
    };
    // A Fig. 1 gateway: at version 1, version-2 dual-layer UIM staged.
    let dl_gateway = UibEntry {
        uim_version: Version(2),
        uim_distance: 3,
        uim_kind: Some(UpdateKind::Dual),
        applied_version: Version(1),
        applied_distance: 5,
        old_version: Version(1),
        old_distance: 5,
        last_update_type: Some(UpdateKind::Single),
        ..UibEntry::default()
    };
    // The same node after it applied version 2 and inherited segment 4.
    let dl_updated = UibEntry {
        applied_version: Version(2),
        applied_distance: 3,
        old_distance: 4,
        last_update_type: Some(UpdateKind::Dual),
        ..dl_gateway
    };
    // A node already indicated version 2 (Fig. 6c).
    let sl_newer = UibEntry {
        uim_version: Version(2),
        ..sl_fresh
    };
    type Case = (
        &'static str,
        fn(&UibEntry, &Unm) -> Verdict,
        UibEntry,
        Unm,
        Verdict,
    );
    let cases: [Case; 4] = [
        (
            "core.verify_sl_accept_ns",
            verify_sl,
            sl_fresh,
            unm(1, 0, 1, 0, UpdateKind::Single),
            Verdict::Accept,
        ),
        (
            "core.verify_dl_gateway_ns",
            verify_dl,
            dl_gateway,
            unm(2, 1, 2, 1, UpdateKind::Dual),
            Verdict::AcceptGateway,
        ),
        (
            "core.verify_dl_pass_along_ns",
            verify_dl,
            dl_updated,
            unm(2, 1, 2, 1, UpdateKind::Dual),
            Verdict::PassAlong,
        ),
        (
            "core.verify_reject_outdated_ns",
            verify_sl,
            sl_newer,
            unm(1, 0, 1, 0, UpdateKind::Single),
            Verdict::Reject(RejectReason::OutdatedVersion),
        ),
    ];
    for (name, f, entry, msg, want) in cases {
        check(f(&entry, &msg) == want, name)?;
        let ns = ns_per_op(min_seconds, 1024, || {
            for _ in 0..1024 {
                black_box(f(black_box(&entry), black_box(&msg)));
            }
        });
        out.push((name, ns, "ns"));
    }
    Ok(())
}

fn messages(min_seconds: f64, out: &mut Vec<Sample>) -> Result<(), String> {
    let cases = [
        (
            "messages.wire_roundtrip_unm_ns",
            Message::Unm(unm(7, 6, 3, 5, UpdateKind::Dual)),
        ),
        (
            "messages.wire_roundtrip_uim_ns",
            Message::Uim(Uim {
                flow: FlowId(11),
                version: Version(7),
                new_distance: 3,
                flow_size: 12.5,
                next_hop: Some(NodeId(4)),
                upstream: None,
                kind: UpdateKind::Dual,
            }),
        ),
    ];
    for (name, msg) in cases {
        let back = encode(&msg).ok().and_then(|bytes| decode(&bytes).ok());
        check(back.as_ref() == Some(&msg), name)?;
        let ns = ns_per_op(min_seconds, 1024, || {
            for _ in 0..1024 {
                let bytes = encode(black_box(&msg)).expect("checked above");
                black_box(decode(black_box(&bytes)).expect("checked above"));
            }
        });
        out.push((name, ns, "ns"));
    }
    Ok(())
}

/// One switch with the P4Update logic: a UIM from the controller, its UNM
/// from the staged child, and the rule-write completion that lets the next
/// version through — `v1` of Fig. 1, between `v0` (upstream) and `v2`.
fn dataplane(min_seconds: f64, out: &mut Vec<Sample>) -> Result<(), String> {
    let topo = topologies::fig1();
    let (me, upstream, child) = (NodeId(1), NodeId(0), NodeId(2));
    let flow = FlowId(0);
    let mut switch = Switch::new(me, &topo, Box::new(P4UpdateLogic::new()));
    let mut version = 0u32;
    let mut cycle = |switch: &mut Switch| -> (Vec<Effect>, Vec<Effect>) {
        version += 1;
        let uim = Uim {
            flow,
            version: Version(version),
            new_distance: 1,
            flow_size: 1.0,
            next_hop: Some(child),
            upstream: Some(upstream),
            kind: UpdateKind::Single,
        };
        let note = unm(version, version - 1, 0, 0, UpdateKind::Single);
        let now = SimTime::ZERO;
        switch.handle_message(now, Endpoint::Controller, Message::Uim(uim));
        let on_unm = switch.handle_message(now, Endpoint::Switch(child), Message::Unm(note));
        let token = match on_unm.first() {
            Some(Effect::BeginInstall { token, .. }) => *token,
            _ => return (on_unm, Vec::new()),
        };
        let on_installed = switch.handle_installed(now, flow, token);
        (on_unm, on_installed)
    };
    let (on_unm, on_installed) = cycle(&mut switch);
    check(
        matches!(on_unm.as_slice(), [Effect::BeginInstall { .. }]),
        "the verified UNM starts a rule write",
    )?;
    check(
        matches!(
            on_installed.as_slice(),
            [Effect::SendSwitch { to, msg: Message::Unm(n) }] if *to == upstream && n.v_new == Version(1)
        ),
        "the installed rule continues the chain upstream",
    )?;
    let ns = ns_per_op(min_seconds, 256, || {
        for _ in 0..256 {
            black_box(cycle(black_box(&mut switch)));
        }
    });
    out.push(("dataplane.handle_uim_unm_ns", ns, "ns"));
    Ok(())
}

/// A world that counts deliveries and, while `chain` is non-zero, answers
/// each event with one more a millisecond later.
struct Counter {
    delivered: u64,
    chain: u64,
}

impl World for Counter {
    type Event = ();

    fn handle(&mut self, _now: SimTime, (): (), sched: &mut Scheduler<()>) {
        self.delivered += 1;
        if self.chain > 0 {
            self.chain -= 1;
            sched.schedule_in(SimDuration::from_millis(1), ());
        }
    }
}

/// The default engine (`Simulation::new`: default queue, FIFO ties) over
/// three trivial worlds; each figure is the cost of scheduling and
/// delivering one event.
fn des(min_seconds: f64, out: &mut Vec<Sample>) -> Result<(), String> {
    // `preloaded`: events queued before the run, at distinct instants or
    // all at one; `chain`: follow-ups each delivery schedules.
    let run = |preloaded: u64, same_instant: bool, chain: u64| {
        let mut sim = Simulation::new(Counter {
            delivered: 0,
            chain,
        });
        for i in 0..preloaded {
            let at = if same_instant { 1 } else { 1 + i };
            sim.schedule_at(SimTime::ZERO + SimDuration::from_millis(at), ());
        }
        sim.run();
        sim.world().delivered
    };
    let cases: [(&'static str, u64, bool, u64); 3] = [
        ("des.preloaded_queue_ns_per_event", DES_EVENTS, false, 0),
        ("des.event_chain_ns_per_event", 1, false, DES_EVENTS - 1),
        ("des.same_instant_ties_ns_per_event", DES_EVENTS, true, 0),
    ];
    for (name, preloaded, same_instant, chain) in cases {
        check(run(preloaded, same_instant, chain) == DES_EVENTS, name)?;
        let ns = ns_per_op(min_seconds, DES_EVENTS, || {
            black_box(run(black_box(preloaded), same_instant, chain));
        });
        out.push((name, ns, "ns"));
    }
    Ok(())
}

/// Every micro-measurement, each iterated for
/// at least `min_seconds`; `topo` is the workload's largest topology.
pub fn measure(min_seconds: f64, topo: &Topology) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    net(min_seconds, topo, &mut out)?;
    core(min_seconds, &mut out)?;
    messages(min_seconds, &mut out)?;
    dataplane(min_seconds, &mut out)?;
    des(min_seconds, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_pairs_are_distinct_ends_inside_the_topology() {
        for n in [2, 12, 64, 4096] {
            let pairs = fixed_pairs(n, 256);
            assert_eq!(pairs.len(), 256);
            for (s, d) in pairs {
                assert_ne!(s, d);
                assert!(s.index() < n && d.index() < n);
            }
        }
    }

    #[test]
    fn ns_per_op_divides_by_the_operations_done() {
        let mut calls = 0u64;
        let ns = ns_per_op(0.01, 10, || calls += 1);
        assert!(calls >= 1);
        // All calls together took at least the time asked for.
        assert!(ns * (calls * 10) as f64 >= 0.01 * 1e9);
    }
}
