//! The evaluation's qualitative claims as assertions, run on the same code
//! paths as the `p4update-experiments` binary (with reduced run counts to
//! keep test time reasonable).

use p4update::core::Strategy;
use p4update::des::Samples;
use p4update::net::{
    k_shortest_paths, segment_update, topologies, FlowId, FlowUpdate, NodeId, Path, Topology,
};
use p4update::sim::System;
use p4update_experiments::{fig2, fig4, fig7, fig8};

/// Fig. 2 (§4.1): under reordered updates, ez-Segway loops packets —
/// the worst packet traverses the 3-hop loop ⌊TTL 64 / 3⌋ = 21 times —
/// and loses traffic; P4Update delivers everything exactly once.
#[test]
fn fig2_loop_and_loss_contrast() {
    let (p4, ez) = fig2::run(7);
    assert_eq!(p4.looped_at_v1, 0);
    assert_eq!(p4.ttl_deaths, 0);
    assert_eq!(p4.max_visits_v1, 1);
    assert!(
        ez.looped_at_v1 > 10,
        "ez-Segway should loop many packets, saw {}",
        ez.looped_at_v1
    );
    assert!(
        (21..=22).contains(&ez.max_visits_v1),
        "worst loop count should be ~21 (TTL 64 / 3 hops), saw {}",
        ez.max_visits_v1
    );
    assert!(ez.ttl_deaths > 0, "ez-Segway should lose packets to TTL");
    // P4Update delivers every probe; ez-Segway misses the dead ones.
    assert!(p4.delivered_v4.len() > ez.delivered_v4.len());
    assert_eq!(ez.delivered_v4.len() + ez.ttl_deaths, p4.delivered_v4.len());
}

/// Fig. 4 (§4.2): P4Update fast-forwards to U3 several times faster than
/// ez-Segway's wait-for-U2 (paper: ~4×; assert > 2.5× to keep the test
/// robust across seeds).
#[test]
fn fig4_fast_forward_speedup() {
    let (p4, ez) = fig4::run(10);
    assert_eq!(p4.len(), 10, "P4Update runs must all complete");
    assert_eq!(ez.len(), 10, "ez-Segway runs must all complete");
    let speedup = ez.mean() / p4.mean();
    assert!(
        speedup > 2.5,
        "expected ~4x fast-forward speedup, measured {speedup:.2}x"
    );
}

/// Fig. 7a (synthetic single flow): the dual layer beats the single layer
/// (paper: 31.5%), and P4Update's auto strategy picks the winner; all
/// systems beat none — P4Update is fastest overall.
#[test]
fn fig7a_dual_layer_wins_on_segmented_single_flow() {
    let series = fig7::run(fig7::Panel::SyntheticSingle, 8);
    let mean = |label: &str| {
        series
            .iter()
            .find(|s| s.label == label)
            .expect("series present")
            .samples
            .mean()
    };
    let sl = mean("SL-P4Update");
    let dl = mean("DL-P4Update");
    let auto = mean("P4Update");
    let ez = mean("ez-Segway");
    assert!(dl < sl, "DL ({dl:.0}) must beat SL ({sl:.0}) on Fig. 1");
    assert!(
        (auto - dl).abs() < 1e-6,
        "auto strategy must pick DL here (auto {auto:.0}, dl {dl:.0})"
    );
    assert!(
        auto < ez,
        "P4Update ({auto:.0}) must beat ez-Segway ({ez:.0})"
    );
}

/// Fig. 7 multi-flow ordering: P4Update ≤ ez-Segway ≤/< Central on B4.
#[test]
fn fig7d_multi_flow_ordering() {
    let series = fig7::run(fig7::Panel::B4Multi, 5);
    let mean = |label: &str| {
        series
            .iter()
            .find(|s| s.label == label)
            .expect("series present")
            .samples
            .mean()
    };
    let p4 = mean("P4Update");
    let ez = mean("ez-Segway");
    let central = mean("Central");
    assert!(p4 < ez, "P4Update ({p4:.0}) must beat ez-Segway ({ez:.0})");
    assert!(
        p4 < central,
        "P4Update ({p4:.0}) must beat Central ({central:.0})"
    );
}

/// Fig. 7's per-system mean update times (ms) at the default 30 runs, as
/// `fig7::print` shows them and EXPERIMENTS.md quotes them, in the order
/// `fig7::run` returns the series: P4Update, SL-P4Update, DL-P4Update,
/// ez-Segway, Central.
#[rustfmt::skip]
const FIG7_MEANS: [(&str, [&str; 5]); 6] = [
    ("a", ["702.0", "993.5", "702.0", "830.2", "800.7"]),
    ("b", ["627.2", "627.2", "636.3", "715.9", "877.8"]),
    ("c", ["574.1", "1013.7", "574.1", "609.3", "556.9"]),
    ("d", ["443.0", "446.4", "443.9", "530.0", "601.0"]),
    ("e", ["872.2", "1381.6", "872.2", "1134.9", "1115.0"]),
    ("f", ["523.9", "523.9", "523.9", "606.6", "749.3"]),
];

/// EXPERIMENTS.md's Fig. 4 and Fig. 7 numbers are the tree's: every
/// per-system mean of the seven 30-run experiments, to the 0.1 ms the
/// binary prints. A change that moves one has moved simulated behaviour;
/// re-derive the document with it.
#[test]
#[ignore = "seven 30-run experiments, a few seconds in release: scripts/check.sh runs it"]
fn experiments_md_quotes_the_tree() {
    let shown = |s: &Samples| format!("{:.1}", s.mean());
    let (p4, ez) = fig4::run(30);
    assert_eq!([shown(&p4), shown(&ez)], ["137.2", "611.2"], "Fig. 4");
    for (letter, want) in FIG7_MEANS {
        let panel = fig7::Panel::from_letter(letter).expect("a panel letter");
        let got: Vec<String> = fig7::run(panel, 30)
            .iter()
            .map(|s| shown(&s.samples))
            .collect();
        assert_eq!(got, want, "Fig. 7{letter}");
    }
}

/// Fig. 7c's deviation rests on this: no update between two simple paths
/// of B4 has a backward segment with an interior, so the dual layer has
/// nothing to pre-install there. Checked over every ordered pair of
/// distinct simple paths between every ordered node pair, not only the
/// shortest few.
#[test]
#[ignore = "every pair of simple paths on B4, a few seconds in release: scripts/check.sh runs it"]
fn b4_has_no_backward_segment_with_an_interior() {
    fn simple_paths(topo: &Topology, path: &mut Vec<NodeId>, to: NodeId, out: &mut Vec<Path>) {
        let at = *path.last().expect("the walk starts at the source");
        if at == to {
            out.push(Path::new(path.clone()));
            return;
        }
        for &(next, _) in topo.neighbors(at) {
            if !path.contains(&next) {
                path.push(next);
                simple_paths(topo, path, to, out);
                path.pop();
            }
        }
    }
    let topo = topologies::b4();
    let mut pairs = 0u64;
    for src in topo.node_ids() {
        for dst in topo.node_ids().filter(|&d| d != src) {
            let mut paths = Vec::new();
            simple_paths(&topo, &mut vec![src], dst, &mut paths);
            for old in &paths {
                for new in paths.iter().filter(|&new| new != old) {
                    let update = FlowUpdate::new(FlowId(0), Some(old.clone()), new.clone(), 1.0);
                    let fresh = segment_update(&update)
                        .backward()
                        .any(|s| !s.interior.is_empty());
                    assert!(!fresh, "{src:?} -> {dst:?}: {old:?} to {new:?}");
                    pairs += 1;
                }
            }
        }
    }
    println!("B4: {pairs} ordered pairs of simple paths, none with a fresh backward interior");
}

/// Where the dual layer has work among the paths a workload draws from:
/// for each topology, the ordered (old, new) pairs among every ordered
/// node pair's 8 shortest paths whose segmentation has a backward
/// segment, and how many of those have one with a fresh interior. B4 has
/// none of the latter (Fig. 7c's deviation; the test above checks every
/// simple path); half of the fat-tree's backward pairs have one.
#[test]
fn backward_pairs_among_the_eight_shortest_paths() {
    let count = |topo: &Topology| {
        let (mut backward, mut fresh) = (0u32, 0u32);
        for src in topo.node_ids() {
            for dst in topo.node_ids().filter(|&d| d != src) {
                let paths = k_shortest_paths(topo, src, dst, 8);
                for old in &paths {
                    for new in paths.iter().filter(|&new| new != old) {
                        let update =
                            FlowUpdate::new(FlowId(0), Some(old.clone()), new.clone(), 1.0);
                        let segmentation = segment_update(&update);
                        let mut segments = segmentation.backward().peekable();
                        if segments.peek().is_some() {
                            backward += 1;
                            fresh += u32::from(segments.any(|s| !s.interior.is_empty()));
                        }
                    }
                }
            }
        }
        (backward, fresh)
    };
    for (topo, pinned) in [
        (topologies::b4(), (184, 0)),
        (topologies::internet2(), (912, 10)),
        (topologies::att_mpls(), (792, 22)),
        (topologies::fat_tree(4), (896, 448)),
    ] {
        assert_eq!(count(&topo), pinned, "{}", topo.name);
    }
}

/// Fig. 8 (§9.3): P4Update's preparation is cheaper than ez-Segway's in
/// both regimes, and dramatically so once ez-Segway must compute the
/// congestion dependency graph. Compared on each system's fastest run: a
/// batch takes well under a millisecond, and a mean over three runs is
/// one preemption away from any ratio.
#[test]
fn fig8_preparation_ratios() {
    let without = fig8::run(false, 5);
    let with = fig8::run(true, 5);
    for (a, b) in without.iter().zip(&with) {
        assert!(
            a.fastest_ratio() < 1.0,
            "{}: P4Update prep must be cheaper (ratio {:.3})",
            a.name,
            a.fastest_ratio()
        );
        assert!(
            b.fastest_ratio() < 0.25,
            "{}: congestion-freedom prep must be dramatically cheaper (ratio {:.4})",
            b.name,
            b.fastest_ratio()
        );
        assert!(
            b.fastest_ratio() < a.fastest_ratio(),
            "{}: congestion must widen the gap",
            b.name
        );
    }
}

/// The §7.5 strategy is observable: small forward-only updates run
/// single-layer, segmented ones dual-layer (checked through the public
/// controller API).
#[test]
fn strategy_selection_follows_section_7_5() {
    use p4update::core::{prepare_update, segment_update};
    use p4update::messages::UpdateKind;
    use p4update::net::{FlowId, FlowUpdate, NodeId, Path, Version};
    let p = |ids: &[u32]| Path::new(ids.iter().map(|&i| NodeId(i)).collect());
    let small = FlowUpdate::new(FlowId(0), Some(p(&[0, 1, 5])), p(&[0, 2, 3, 5]), 1.0);
    let prepared = prepare_update(&small, Version(2), Strategy::Auto);
    assert_eq!(prepared.kind, UpdateKind::Single);
    assert!(segment_update(&small).forward_only());

    let fig1 = FlowUpdate::new(
        FlowId(0),
        Some(p(&[0, 4, 2, 7])),
        p(&[0, 1, 2, 3, 4, 5, 6, 7]),
        1.0,
    );
    let prepared = prepare_update(&fig1, Version(2), Strategy::Auto);
    assert_eq!(prepared.kind, UpdateKind::Dual);
}

/// Sanity: the system labels used across experiments match the paper's
/// legends.
#[test]
fn system_labels_match_figures() {
    use p4update_experiments::scenarios::system_label;
    assert_eq!(system_label(System::P4Update(Strategy::Auto)), "P4Update");
    assert_eq!(
        system_label(System::P4Update(Strategy::ForceSingle)),
        "SL-P4Update"
    );
    assert_eq!(
        system_label(System::P4Update(Strategy::ForceDual)),
        "DL-P4Update"
    );
    assert_eq!(
        system_label(System::EzSegway { congestion: false }),
        "ez-Segway"
    );
    assert_eq!(
        system_label(System::Central { congestion: false }),
        "Central"
    );
}

/// A flow deployed where none ran before (`old_path: None`, Fig. 1's new
/// path) comes up on every system: the run drains, the flow completes
/// exactly once, and the checker records no loop, blackhole or overload —
/// in particular the egress holds its terminating rule.
#[test]
fn a_fresh_deployment_completes_cleanly_on_every_system() {
    use p4update::des::{SimDuration, SimTime};
    use p4update::sim::{batch_simulation, NetworkSim, SimConfig, TimingConfig};
    let systems = [
        System::P4Update(Strategy::ForceSingle),
        System::P4Update(Strategy::ForceDual),
        System::P4Update(Strategy::Auto),
        System::EzSegway { congestion: false },
        System::Central { congestion: false },
    ];
    for system in systems {
        let topo = topologies::fig1();
        let config = SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), 1);
        let world = NetworkSim::new(topo, system, config, None);
        let new = Path::new(topologies::fig1_new_path());
        let update = FlowUpdate::new(FlowId(0), None, new, 1.0);
        let mut sim = batch_simulation(world, vec![update], SimTime::ZERO);
        let drained = sim
            .run_until(SimTime::ZERO + SimDuration::from_secs(5))
            .drained();
        let world = sim.world();
        assert!(drained, "{system:?}: the fresh deployment never settles");
        assert_eq!(
            world.metrics().counts().completions,
            1,
            "{system:?}: {:?}",
            world.metrics().completions
        );
        assert!(
            world.violations.is_empty(),
            "{system:?}: {:?}",
            world.violations
        );
    }
}
