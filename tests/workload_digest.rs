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
    for (&(a, b), free) in &w.free_capacity {
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

    let b4 = multi_flow(&topologies::b4(), &mut SimRng::new(11), 0.3);
    assert_eq!(
        workload_digest(&b4),
        0xa600_b774_0948_70a9,
        "multi_flow(b4, 11, 0.3)"
    );

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
