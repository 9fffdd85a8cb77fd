//! The §9.1 workload generators as a cross-commit fixed point.
//!
//! Every experiment and benchmark number downstream is a function of the
//! flow updates these generators emit, so their output is pinned here bit
//! for bit: flow ids, both paths node by node, `size.to_bits()`, and (for
//! the multi-flow workloads) the free capacity left per directed link. A
//! change that moves a digest has changed the workload — a different
//! path search tie-break, a reordered floating-point sum, a shifted RNG
//! stream — not just how it is computed.

use p4update::des::SimRng;
use p4update::net::{topologies, FlowUpdate, Path};
use p4update::traffic::{bench_workload, multi_flow, single_flow, Workload};

/// FNV-1a over a stream of `u64` words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn path(&mut self, p: &Path) {
        self.word(p.nodes().len() as u64);
        for n in p.nodes() {
            self.word(u64::from(n.0));
        }
    }

    fn update(&mut self, u: &FlowUpdate) {
        self.word(u64::from(u.flow.0));
        match &u.old_path {
            Some(old) => self.path(old),
            None => self.word(u64::MAX),
        }
        self.path(&u.new_path);
        self.word(u.size.to_bits());
    }
}

fn workload_digest(w: &Workload) -> u64 {
    let mut d = Digest::new();
    for u in &w.updates {
        d.update(u);
    }
    for ((a, b), free) in w.free_capacity.iter() {
        d.word(u64::from(a.0));
        d.word(u64::from(b.0));
        d.word(free.to_bits());
    }
    d.0
}

fn update_digest(u: &FlowUpdate) -> u64 {
    let mut d = Digest::new();
    d.update(u);
    d.0
}

#[test]
fn generated_workloads_are_unchanged() {
    let ft64 = bench_workload(&topologies::synthetic_fat_tree_64(), 1);
    assert_eq!(
        workload_digest(&ft64),
        0x7ddc_813a_bc20_1117,
        "bench_workload(ft64, 1)"
    );

    // The scale `lint-churn` runs at.
    let ft512 = bench_workload(&topologies::synthetic_fat_tree_512(), 1);
    assert_eq!(
        workload_digest(&ft512),
        0x6108_79fb_aa1d_107f,
        "bench_workload(ft512, 1)"
    );

    let mut rng = SimRng::new(11);
    let b4 = multi_flow(&topologies::b4(), &mut rng, 0.3);
    assert_eq!(
        workload_digest(&b4),
        0xa600_b774_0948_70a9,
        "multi_flow(b4, 11, 0.3)"
    );
    assert_eq!(rng.next_u64(), 0x0462_09cc_fb1b_3f8e, "next word after b4");

    let single_b4 = single_flow(&topologies::b4());
    assert_eq!(
        update_digest(&single_b4),
        0x4d5d_7665_4391_7bdb,
        "single_flow(b4)"
    );

    let single_i2 = single_flow(&topologies::internet2());
    assert_eq!(
        update_digest(&single_i2),
        0x8ba1_2ae2_a25a_02d4,
        "single_flow(internet2)"
    );
}

/// The two evaluation topologies with bridges, where `multi_flow` abandons
/// most attempts at a pair that has one simple path (seed 1: 12 attempts on
/// chinanet). Fig. 8 threads one RNG through a whole batch of such calls,
/// so the stream position each call leaves behind is part of the next
/// workload: the word drawn after the call is pinned beside its digest.
#[test]
fn bridged_workloads_and_the_stream_after_them_are_unchanged() {
    let pinned = [
        (
            topologies::att_mpls(),
            1,
            0x08ea_7657_a3ff_7c7f,
            0x608c_6dea_08c3_a2c7,
        ),
        (
            topologies::att_mpls(),
            2,
            0x91a2_a103_463b_530c,
            0xe190_2c08_37d2_94a0,
        ),
        (
            topologies::att_mpls(),
            7,
            0x5ae8_fe16_20ec_e637,
            0xec9c_ece4_bc9c_8a17,
        ),
        (
            topologies::chinanet(),
            1,
            0x1f02_32cb_9100_7682,
            0xd153_0bd8_54fc_a39b,
        ),
        (
            topologies::chinanet(),
            2,
            0x2675_16dc_83e4_5442,
            0xb267_1517_bd39_d792,
        ),
        (
            topologies::chinanet(),
            7,
            0xcd83_eade_e660_2537,
            0xb8a9_6640_6f90_b18b,
        ),
    ];
    for (topo, seed, digest, next_word) in pinned {
        let mut rng = SimRng::new(seed);
        let w = multi_flow(&topo, &mut rng, 0.55);
        let what = format!("multi_flow({}, {seed}, 0.55)", topo.name);
        assert_eq!(workload_digest(&w), digest, "{what}");
        assert_eq!(rng.next_u64(), next_word, "next word after {what}");
    }

    // Shaped like `fig8::batch_for`: successive workloads off one stream.
    let chinanet = topologies::chinanet();
    let mut rng = SimRng::new(42);
    let chain: Vec<u64> = (0..3)
        .map(|_| workload_digest(&multi_flow(&chinanet, &mut rng, 0.55)))
        .collect();
    assert_eq!(
        chain,
        [
            0xa649_52ea_49bd_b417,
            0x7611_0ee9_ab9a_21ee,
            0x6434_3330_6018_f4dd
        ],
        "three multi_flow(chinanet, 0.55) calls on SimRng::new(42)"
    );
    assert_eq!(
        rng.next_u64(),
        0x75de_2817_3788_f4b8,
        "next word after the chain"
    );
}

/// The scale `dc-scale` runs at: 4096 Yen searches on a 72,576-arc graph.
/// Ignored by default (seconds in release, minutes in debug);
/// `scripts/check.sh` runs it in release:
/// `cargo test --release --test workload_digest -- --ignored`.
#[test]
#[ignore = "4096 k-shortest-path searches on the 4096-switch fat-tree: release only"]
fn ft4096_workload_is_unchanged() {
    let ft4096 = bench_workload(&topologies::synthetic_fat_tree_4096(), 1);
    assert_eq!(
        workload_digest(&ft4096),
        0x9219_aaed_607c_48ca,
        "bench_workload(ft4096, 1)"
    );
}
