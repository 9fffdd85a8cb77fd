//! The evaluation topologies (paper §9.1 and Fig. 8).
//!
//! - `fig1()` — the 8-node synthetic topology of Fig. 1 (20 ms links).
//! - `fig2_chain()` — the 5-node scenario of Fig. 2 (reordered updates).
//! - `fig4_net()` — the 6-node two-consecutive-update scenario of §4.2.
//! - `multi_gateway()` — 11-node many-gateway scenario (backward segments).
//! - `fat_tree(k)` — DC topology, switch-level fat-tree.
//! - `b4()` — Google's inter-DC WAN (12 nodes, 19 edges).
//! - `internet2()` — the US research network (16 nodes, 26 edges).
//! - `att_mpls()` — AT&T North America MPLS backbone (25 nodes, 56 edges).
//! - `chinanet()` — Chinanet backbone (38 nodes, 62 edges).
//!
//! WAN link latencies derive from great-circle distance at 2·10⁵ km/s
//! (§9.1). Node/edge counts match what the paper reports in Fig. 8. Site
//! coordinates are approximations of the real locations. `att_mpls` and
//! `chinanet` keep Topology Zoo's node and edge counts and city sets, but
//! their edge lists are derived, not the Zoo's: a minimum spanning tree
//! over great-circle distance, then the shortest remaining site pairs until
//! the Zoo's edge count is reached (DESIGN.md §2). The derived lists are
//! embedded as data, like B4's and Internet2's; the tests keep the
//! derivation and check the tables against it.

use crate::graph::{NodeId, Topology, TopologyBuilder};
use p4update_des::{SimDuration, SimRng};

/// Default per-direction link capacity for scenario topologies, in flow-size
/// units. Chosen so capacity binds only when the traffic generator aims for
/// it (multi-flow scenario).
pub const DEFAULT_CAPACITY: f64 = 1_000.0;

/// The synthetic topology of Fig. 1: 8 nodes with old path `v0 v4 v2 v7` and
/// new path `v0 v1 v2 v3 v4 v5 v6 v7`, homogeneous 20 ms link latency.
pub fn fig1() -> Topology {
    let mut b = TopologyBuilder::new("fig1");
    let v: Vec<NodeId> = (0..8).map(|i| b.add_node(format!("v{i}"))).collect();
    let lat = SimDuration::from_millis(20);
    // Old path edges.
    for &(x, y) in &[(0usize, 4usize), (4, 2), (2, 7)] {
        b.add_link(v[x], v[y], lat, DEFAULT_CAPACITY);
    }
    // New path edges.
    for w in [0usize, 1, 2, 3, 4, 5, 6, 7].windows(2) {
        b.add_link(v[w[0]], v[w[1]], lat, DEFAULT_CAPACITY);
    }
    b.build()
}

/// The old path of the Fig. 1 scenario.
pub fn fig1_old_path() -> Vec<NodeId> {
    [0u32, 4, 2, 7].map(NodeId).to_vec()
}

/// The new path of the Fig. 1 scenario.
pub fn fig1_new_path() -> Vec<NodeId> {
    (0u32..8).map(NodeId).collect()
}

/// The 5-node chain of Fig. 2 plus the shortcut links its configurations
/// (b) and (c) need. Links are 1 ms (the §4.1 demonstration runs on an
/// emulated chain with fast links, so that looped packets exhaust TTL 64
/// within the inconsistency window).
///
/// - config (a): `v0 v1 v2 v3 v4`
/// - config (b): `v0 v1 v2 v4` (shortcut `v2–v4`)
/// - config (c): `v0 v3 v1 v2 v4` (uses `v0–v3` and `v3–v1`)
pub fn fig2_chain() -> Topology {
    let mut b = TopologyBuilder::new("fig2");
    let v: Vec<NodeId> = (0..5).map(|i| b.add_node(format!("v{i}"))).collect();
    let lat = SimDuration::from_millis(1);
    for w in [0usize, 1, 2, 3, 4].windows(2) {
        b.add_link(v[w[0]], v[w[1]], lat, DEFAULT_CAPACITY);
    }
    b.add_link(v[2], v[4], lat, DEFAULT_CAPACITY); // for config (b)
    b.add_link(v[0], v[3], lat, DEFAULT_CAPACITY); // for config (c)
    b.add_link(v[3], v[1], lat, DEFAULT_CAPACITY); // for config (c)
    b.build()
}

/// The Fig. 2 chain with one twist for the schedule explorer: the detour
/// link `v3–v1` that only config (c) uses is slow (50 ms instead of
/// 1 ms). Deploying (c) from the paper's inconsistent state (`v2` still
/// on config (a) because (b)'s message was lost) races two in-band
/// chains: the one repairing `v2 → v4` and the one installing
/// `v3 → v1`. Over this topology the repair wins under the default
/// schedule — the run is clean — and only an adversarial drop or delay
/// of the repair exposes the `v3 → v1 → v2 → v3` loop, which is exactly
/// the search problem `p4update-explore` is pointed at.
pub fn fig2_chain_slow_detour() -> Topology {
    let mut b = TopologyBuilder::new("fig2-slow-detour");
    let v: Vec<NodeId> = (0..5).map(|i| b.add_node(format!("v{i}"))).collect();
    let lat = SimDuration::from_millis(1);
    for w in [0usize, 1, 2, 3, 4].windows(2) {
        b.add_link(v[w[0]], v[w[1]], lat, DEFAULT_CAPACITY);
    }
    b.add_link(v[2], v[4], lat, DEFAULT_CAPACITY); // for config (b)
    b.add_link(v[0], v[3], lat, DEFAULT_CAPACITY); // for config (c)
    b.add_link(v[3], v[1], SimDuration::from_millis(50), DEFAULT_CAPACITY); // slow detour
    b.build()
}

/// Config (a) of Fig. 2.
pub fn fig2_config_a() -> Vec<NodeId> {
    [0u32, 1, 2, 3, 4].map(NodeId).to_vec()
}

/// Config (b) of Fig. 2 (only the `v2 → v4` part changes).
pub fn fig2_config_b() -> Vec<NodeId> {
    [0u32, 1, 2, 4].map(NodeId).to_vec()
}

/// Config (c) of Fig. 2. Deploying (c) while (b) is lost leaves the mixed
/// state with the `v3 → v1 → v2 → v3` loop the paper demonstrates.
pub fn fig2_config_c() -> Vec<NodeId> {
    [0u32, 3, 1, 2, 4].map(NodeId).to_vec()
}

/// An 11-node topology whose update has *many* gateways, exercising the
/// dual-layer mechanism's backward segments (Alg. 2). The old path is the
/// chain `v0 … v5`; the new path detours through fresh nodes `v6 … v10`
/// but revisits every old node in the shuffled order
/// `v0 v6 v3 v7 v1 v8 v4 v9 v2 v10 v5`, so all six old nodes are
/// gateways and the segments alternate forward/backward:
/// `0→3` forward, `3→1` backward, `1→4` forward, `4→2` backward,
/// `2→5` forward (backward iff the ingress gateway's old distance does
/// not exceed the egress gateway's, §6.2). 5 ms links.
pub fn multi_gateway() -> Topology {
    let mut b = TopologyBuilder::new("multi-gateway");
    for i in 0..11 {
        b.add_node(format!("v{i}"));
    }
    let lat = SimDuration::from_millis(5);
    for w in multi_gateway_old_path().windows(2) {
        b.add_link(w[0], w[1], lat, DEFAULT_CAPACITY);
    }
    for w in multi_gateway_new_path().windows(2) {
        if !b.has_link(w[0], w[1]) {
            b.add_link(w[0], w[1], lat, DEFAULT_CAPACITY);
        }
    }
    b.build()
}

/// Old path of the multi-gateway scenario (the plain chain).
pub fn multi_gateway_old_path() -> Vec<NodeId> {
    [0u32, 1, 2, 3, 4, 5].map(NodeId).to_vec()
}

/// New path of the multi-gateway scenario (every old node revisited out
/// of order; see [`multi_gateway`]).
pub fn multi_gateway_new_path() -> Vec<NodeId> {
    [0u32, 6, 3, 7, 1, 8, 4, 9, 2, 10, 5].map(NodeId).to_vec()
}

/// The 6-node network for the §4.2 fast-forward scenario, 20 ms links.
/// Dense enough to host one complex (segmented) update `U2` and one simple
/// update `U3` between the same endpoints.
pub fn fig4_net() -> Topology {
    let mut b = TopologyBuilder::new("fig4");
    let v: Vec<NodeId> = (0..6).map(|i| b.add_node(format!("v{i}"))).collect();
    let lat = SimDuration::from_millis(20);
    let edges = [
        (0usize, 1usize),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (0, 2),
        (1, 3),
        (2, 4),
        (3, 5),
        (0, 5),
        (1, 5),
    ];
    for (x, y) in edges {
        b.add_link(v[x], v[y], lat, DEFAULT_CAPACITY);
    }
    b.build()
}

/// Switch-level fat-tree with parameter `k` (k pods, k²/4 core switches).
/// Node naming: `core{i}`, `agg{p}_{i}`, `edge{p}_{i}`. Intra-DC links get
/// 0.05 ms latency. `k` must be even and ≥ 2.
pub fn fat_tree(k: usize) -> Topology {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree k must be even and >= 2"
    );
    let mut b = TopologyBuilder::new(format!("fat-tree-k{k}"));
    let lat = SimDuration::from_micros(50);
    let half = k / 2;
    let cores: Vec<NodeId> = (0..half * half)
        .map(|i| b.add_node(format!("core{i}")))
        .collect();
    let mut aggs = Vec::new();
    let mut edges = Vec::new();
    for p in 0..k {
        let agg: Vec<NodeId> = (0..half)
            .map(|i| b.add_node(format!("agg{p}_{i}")))
            .collect();
        let edge: Vec<NodeId> = (0..half)
            .map(|i| b.add_node(format!("edge{p}_{i}")))
            .collect();
        // Full bipartite agg <-> edge inside the pod.
        for &a in &agg {
            for &e in &edge {
                b.add_link(a, e, lat, DEFAULT_CAPACITY);
            }
        }
        // agg i connects to cores [i*half, (i+1)*half).
        for (i, &a) in agg.iter().enumerate() {
            for j in 0..half {
                b.add_link(a, cores[i * half + j], lat, DEFAULT_CAPACITY);
            }
        }
        aggs.push(agg);
        edges.push(edge);
    }
    b.build()
}

/// Synthetic fat-tree with independently chosen core count, pod count, and
/// per-pod width — the scale knob the benchmark turns. A strict
/// [`fat_tree`]`(k)` only exists at sizes `k + k²` for even `k` (20, 80,
/// 320, …), so hitting round node budgets like 64 or 512 needs the
/// relaxed form: `cores + pods × (per_pod agg + per_pod edge)` switches,
/// full bipartite agg↔edge inside each pod, and aggregation switch `j`
/// of pod `p` uplinked to cores `(p + j) % cores` and `(p + j + 1) %
/// cores` (two distinct uplinks whenever `cores ≥ 2`; the pod offset
/// rotates coverage so `pods + per_pod ≥ cores` guarantees every core is
/// reached and the fabric stays connected and multipath). Node naming
/// matches [`fat_tree`] (`core{i}`, `agg{p}_{i}`, `edge{p}_{i}`), so
/// [`fat_tree_edge_switches`] works on both. 0.05 ms intra-DC links.
pub fn synthetic_fat_tree(cores: usize, pods: usize, per_pod: usize) -> Topology {
    assert!(cores >= 2 && pods >= 1 && per_pod >= 1);
    assert!(
        pods + per_pod >= cores,
        "too few aggregation switches to reach every core"
    );
    let total = cores + pods * 2 * per_pod;
    let mut b = TopologyBuilder::new(format!("synth-fat-tree-{total}"));
    let lat = SimDuration::from_micros(50);
    let core_ids: Vec<NodeId> = (0..cores).map(|i| b.add_node(format!("core{i}"))).collect();
    for p in 0..pods {
        let agg: Vec<NodeId> = (0..per_pod)
            .map(|i| b.add_node(format!("agg{p}_{i}")))
            .collect();
        let edge: Vec<NodeId> = (0..per_pod)
            .map(|i| b.add_node(format!("edge{p}_{i}")))
            .collect();
        for &a in &agg {
            for &e in &edge {
                b.add_link(a, e, lat, DEFAULT_CAPACITY);
            }
        }
        for (j, &a) in agg.iter().enumerate() {
            b.add_link(a, core_ids[(p + j) % cores], lat, DEFAULT_CAPACITY);
            b.add_link(a, core_ids[(p + j + 1) % cores], lat, DEFAULT_CAPACITY);
        }
    }
    b.build()
}

/// 64-switch synthetic fat-tree (8 cores, 4 pods × 7 agg + 7 edge) — the
/// benchmark's smoke-size topology.
pub fn synthetic_fat_tree_64() -> Topology {
    synthetic_fat_tree(8, 4, 7)
}

/// 512-switch synthetic fat-tree (32 cores, 8 pods × 30 agg + 30 edge) —
/// the benchmark's `lint-churn` topology.
pub fn synthetic_fat_tree_512() -> Topology {
    synthetic_fat_tree(32, 8, 30)
}

/// 4096-switch synthetic fat-tree (64 cores, 126 pods × 16 agg + 16 edge)
/// — the benchmark's `dc-scale` topology.
pub fn synthetic_fat_tree_4096() -> Topology {
    synthetic_fat_tree(64, 126, 16)
}

/// 32768-switch synthetic fat-tree (128 cores, 240 pods × 68 agg + 68
/// edge) — the hyper-scale topology: dense all-pairs path tables alone
/// would need ~16 GiB at this node count, which is why the simulator fills
/// its path-table rows on first use.
pub fn synthetic_fat_tree_32768() -> Topology {
    synthetic_fat_tree(128, 240, 68)
}

/// Edge switches of a fat-tree built by [`fat_tree`] — the ingress/egress
/// candidates for DC flows.
pub fn fat_tree_edge_switches(topo: &Topology) -> Vec<NodeId> {
    topo.node_ids()
        .filter(|&v| topo.node(v).name.starts_with("edge"))
        .collect()
}

/// Google's B4 inter-DC WAN as reconstructed from Jain et al. (SIGCOMM '13):
/// 12 sites, 19 links (counts as reported in the paper's Fig. 8).
pub fn b4() -> Topology {
    let sites: [(&str, f64, f64); 12] = [
        ("TheDalles-OR", 45.60, -121.18),
        ("CouncilBluffs-IA", 41.26, -95.86),
        ("MayesCounty-OK", 36.30, -95.32),
        ("Lenoir-NC", 35.91, -81.54),
        ("BerkeleyCounty-SC", 33.20, -80.02),
        ("Dublin-IE", 53.35, -6.26),
        ("StGhislain-BE", 50.45, 3.82),
        ("Hamina-FI", 60.57, 27.20),
        ("HongKong", 22.32, 114.17),
        ("Singapore", 1.35, 103.82),
        ("Changhua-TW", 24.08, 120.54),
        ("Tokyo-JP", 35.68, 139.69),
    ];
    let edges: [(u32, u32); 19] = [
        // North America mesh
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (0, 2),
        (1, 3),
        // transatlantic + Europe
        (4, 5),
        (3, 5),
        (5, 6),
        (6, 7),
        (5, 7),
        (4, 6),
        // transpacific + Asia
        (0, 11),
        (0, 8),
        (1, 11),
        (11, 10),
        (10, 8),
        (8, 9),
        (10, 9),
    ];
    geo_wan("B4", &sites, &edges)
}

/// The Internet2 US research backbone: 16 nodes, 26 edges (counts as in the
/// paper's Fig. 8).
pub fn internet2() -> Topology {
    let sites: [(&str, f64, f64); 16] = [
        ("Seattle", 47.61, -122.33),
        ("Sunnyvale", 37.37, -122.04),
        ("LosAngeles", 34.05, -118.24),
        ("SaltLakeCity", 40.76, -111.89),
        ("Denver", 39.74, -104.99),
        ("ElPaso", 31.76, -106.49),
        ("Houston", 29.76, -95.37),
        ("Dallas", 32.78, -96.80),
        ("KansasCity", 39.10, -94.58),
        ("Chicago", 41.88, -87.63),
        ("Indianapolis", 39.77, -86.16),
        ("Nashville", 36.16, -86.78),
        ("Atlanta", 33.75, -84.39),
        ("Jacksonville", 30.33, -81.66),
        ("WashingtonDC", 38.91, -77.04),
        ("NewYork", 40.71, -74.01),
    ];
    let edges: [(u32, u32); 26] = [
        (0, 1),
        (0, 3),
        (0, 9),
        (1, 2),
        (1, 3),
        (2, 3),
        (2, 5),
        (3, 4),
        (4, 7),
        (4, 8),
        (5, 6),
        (5, 7),
        (6, 7),
        (6, 13),
        (7, 8),
        (8, 9),
        (8, 11),
        (9, 10),
        (9, 15),
        (10, 11),
        (10, 14),
        (11, 12),
        (12, 13),
        (12, 14),
        (13, 14),
        (14, 15),
    ];
    geo_wan("Internet2", &sites, &edges)
}

/// AT&T North America MPLS backbone (Topology Zoo "AttMpls"): 25 nodes,
/// 56 edges. City set approximates the published PoPs; the links are the
/// derived list of the module docs.
pub fn att_mpls() -> Topology {
    geo_wan("AttMpls", &ATT_MPLS_SITES, &ATT_MPLS_LINKS)
}

/// Chinanet backbone (Topology Zoo "Chinanet"): 38 nodes, 62 edges. City
/// set approximates the provincial capitals the published map shows; the
/// links are the derived list of the module docs.
pub fn chinanet() -> Topology {
    geo_wan("Chinanet", &CHINANET_SITES, &CHINANET_LINKS)
}

/// A WAN of `sites`, node `i` being `sites[i]`, joined by `links` in list
/// order (so `LinkId(j)` is `links[j]`), each link's latency derived from
/// its endpoints' great-circle distance.
fn geo_wan(name: &str, sites: &[(&str, f64, f64)], links: &[(u32, u32)]) -> Topology {
    let mut b = TopologyBuilder::new(name);
    for &(site, lat, lon) in sites {
        b.add_site(site, lat, lon);
    }
    for &(x, y) in links {
        b.add_geo_link(NodeId(x), NodeId(y), DEFAULT_CAPACITY);
    }
    b.build()
}

const ATT_MPLS_SITES: [(&str, f64, f64); 25] = [
    ("NewYork", 40.71, -74.01),
    ("Washington", 38.91, -77.04),
    ("Atlanta", 33.75, -84.39),
    ("Orlando", 28.54, -81.38),
    ("Miami", 25.76, -80.19),
    ("Nashville", 36.16, -86.78),
    ("Chicago", 41.88, -87.63),
    ("Detroit", 42.33, -83.05),
    ("Cleveland", 41.50, -81.69),
    ("Philadelphia", 39.95, -75.17),
    ("Boston", 42.36, -71.06),
    ("StLouis", 38.63, -90.20),
    ("KansasCity", 39.10, -94.58),
    ("Dallas", 32.78, -96.80),
    ("Houston", 29.76, -95.37),
    ("SanAntonio", 29.42, -98.49),
    ("NewOrleans", 29.95, -90.07),
    ("Denver", 39.74, -104.99),
    ("Phoenix", 33.45, -112.07),
    ("Albuquerque", 35.08, -106.65),
    ("LosAngeles", 34.05, -118.24),
    ("SanDiego", 32.72, -117.16),
    ("SanFrancisco", 37.77, -122.42),
    ("Sacramento", 38.58, -121.49),
    ("Seattle", 47.61, -122.33),
];

/// The spanning tree's 24 links first, then the 32 shortest others.
#[rustfmt::skip]
const ATT_MPLS_LINKS: [(u32, u32); 56] = [
    (22, 23), (0, 9), (7, 8), (20, 21), (1, 9), (14, 15), (0, 10), (3, 4),
    (2, 5), (13, 14), (6, 7), (11, 12), (5, 11), (6, 11), (18, 21), (1, 8),
    (14, 16), (18, 19), (17, 19), (20, 22), (2, 3), (2, 16), (12, 17), (23, 24),
    (0, 1), (13, 15), (9, 10), (6, 8), (18, 20), (8, 9), (20, 23), (1, 10),
    (1, 7), (5, 6), (0, 8), (6, 12), (7, 9), (13, 16), (12, 13), (7, 11),
    (21, 22), (5, 8), (2, 11), (5, 16), (5, 7), (21, 23), (5, 12), (0, 7),
    (8, 11), (15, 16), (3, 16), (1, 2), (11, 13), (8, 10), (2, 8), (1, 5),
];

const CHINANET_SITES: [(&str, f64, f64); 38] = [
    ("Beijing", 39.90, 116.41),
    ("Shanghai", 31.23, 121.47),
    ("Guangzhou", 23.13, 113.26),
    ("Shenzhen", 22.54, 114.06),
    ("Chengdu", 30.57, 104.07),
    ("Chongqing", 29.56, 106.55),
    ("Wuhan", 30.59, 114.31),
    ("Xian", 34.34, 108.94),
    ("Nanjing", 32.06, 118.80),
    ("Hangzhou", 30.27, 120.16),
    ("Tianjin", 39.34, 117.36),
    ("Shenyang", 41.81, 123.43),
    ("Harbin", 45.80, 126.53),
    ("Changchun", 43.82, 125.32),
    ("Jinan", 36.65, 117.12),
    ("Qingdao", 36.07, 120.38),
    ("Zhengzhou", 34.75, 113.63),
    ("Changsha", 28.23, 112.94),
    ("Nanchang", 28.68, 115.86),
    ("Fuzhou", 26.07, 119.30),
    ("Xiamen", 24.48, 118.09),
    ("Kunming", 24.88, 102.83),
    ("Guiyang", 26.65, 106.63),
    ("Nanning", 22.82, 108.37),
    ("Haikou", 20.04, 110.34),
    ("Lanzhou", 36.06, 103.83),
    ("Xining", 36.62, 101.78),
    ("Urumqi", 43.83, 87.62),
    ("Lhasa", 29.65, 91.14),
    ("Yinchuan", 38.49, 106.23),
    ("Hohhot", 40.84, 111.75),
    ("Taiyuan", 37.87, 112.55),
    ("Shijiazhuang", 38.04, 114.51),
    ("Hefei", 31.82, 117.23),
    ("Wenzhou", 28.00, 120.70),
    ("Dalian", 38.91, 121.61),
    ("Suzhou", 31.30, 120.58),
    ("Dongguan", 23.02, 113.75),
];

/// The spanning tree's 37 links first, then the 25 shortest others.
#[rustfmt::skip]
const CHINANET_LINKS: [(u32, u32); 62] = [
    (2, 37), (3, 37), (1, 36), (0, 10), (9, 36), (8, 33), (31, 32), (8, 36),
    (25, 26), (19, 20), (12, 13), (19, 34), (9, 34), (6, 18), (4, 5), (0, 32),
    (11, 13), (14, 32), (17, 18), (14, 15), (6, 33), (5, 22), (15, 35), (30, 31),
    (25, 29), (11, 35), (16, 31), (23, 24), (21, 22), (7, 16), (2, 24), (22, 23),
    (3, 20), (6, 16), (7, 25), (4, 28), (26, 27), (2, 3), (1, 9), (8, 9),
    (1, 8), (10, 32), (6, 17), (10, 14), (33, 36), (9, 33), (0, 14), (1, 34),
    (34, 36), (10, 35), (18, 33), (16, 32), (14, 16), (30, 32), (0, 31), (1, 33),
    (0, 30), (14, 31), (26, 29), (18, 19), (10, 31), (10, 15),
];

/// Random connected topology for property-based tests: a random spanning
/// tree plus `extra_edges` random additional links, 1–30 ms latencies.
pub fn random_connected(rng: &mut SimRng, n: usize, extra_edges: usize) -> Topology {
    assert!(n >= 2);
    let mut b = TopologyBuilder::new(format!("random-{n}"));
    let ids: Vec<NodeId> = (0..n).map(|i| b.add_node(format!("r{i}"))).collect();
    // Random spanning tree: attach each node to a random earlier node.
    for i in 1..n {
        let j = rng.uniform_usize(i);
        let lat = SimDuration::from_millis(1 + rng.uniform_usize(30) as u64);
        b.add_link(ids[i], ids[j], lat, DEFAULT_CAPACITY);
    }
    let mut added = 0;
    let mut attempts = 0;
    while added < extra_edges && attempts < extra_edges * 20 {
        attempts += 1;
        let i = rng.uniform_usize(n);
        let j = rng.uniform_usize(n);
        if i != j && !b.has_link(ids[i], ids[j]) {
            let lat = SimDuration::from_millis(1 + rng.uniform_usize(30) as u64);
            b.add_link(ids[i], ids[j], lat, DEFAULT_CAPACITY);
            added += 1;
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::haversine_km;

    #[test]
    fn fig1_matches_the_paper() {
        let t = fig1();
        assert_eq!(t.node_count(), 8);
        assert!(t.is_connected());
        // Old/new paths must be routable.
        for w in fig1_old_path().windows(2) {
            assert!(t.link_between(w[0], w[1]).is_some());
        }
        for w in fig1_new_path().windows(2) {
            assert!(t.link_between(w[0], w[1]).is_some());
        }
        assert_eq!(
            t.latency_between(NodeId(0), NodeId(1)),
            Some(SimDuration::from_millis(20))
        );
    }

    #[test]
    fn fig2_configs_are_routable() {
        let t = fig2_chain();
        for cfg in [fig2_config_a(), fig2_config_b(), fig2_config_c()] {
            for w in cfg.windows(2) {
                assert!(
                    t.link_between(w[0], w[1]).is_some(),
                    "missing link {}-{}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn fig2_mixed_state_contains_the_paper_loop() {
        // With (c) deployed except v2 (still on (a)'s rule), the walk from
        // v0 is v0 -> v3 -> v1 -> v2 -> v3: a loop over v1,v2,v3.
        let next = |v: u32| -> u32 {
            match v {
                0 => 3, // (c)
                3 => 1, // (c)
                1 => 2, // (c)
                2 => 3, // still (a)
                _ => unreachable!(),
            }
        };
        let mut seen = vec![];
        let mut cur = 0;
        for _ in 0..6 {
            cur = next(cur);
            seen.push(cur);
        }
        assert_eq!(seen, vec![3, 1, 2, 3, 1, 2]);
    }

    #[test]
    fn multi_gateway_paths_are_routable_and_disjoint_in_the_middle() {
        let t = multi_gateway();
        assert_eq!(t.node_count(), 11);
        assert!(t.is_connected());
        for cfg in [multi_gateway_old_path(), multi_gateway_new_path()] {
            for w in cfg.windows(2) {
                assert!(
                    t.link_between(w[0], w[1]).is_some(),
                    "missing link {}-{}",
                    w[0],
                    w[1]
                );
            }
        }
        // Every old node reappears on the new path: all six are gateways.
        let new = multi_gateway_new_path();
        for v in multi_gateway_old_path() {
            assert!(new.contains(&v), "old node {v} must be on the new path");
        }
    }

    #[test]
    fn fat_tree_k4_has_20_switches() {
        let t = fat_tree(4);
        assert_eq!(t.node_count(), 20); // 4 core + 8 agg + 8 edge
        assert_eq!(t.link_count(), 32); // 16 pod links + 16 core links
        assert!(t.is_connected());
        assert_eq!(fat_tree_edge_switches(&t).len(), 8);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn fat_tree_odd_k_panics() {
        fat_tree(3);
    }

    #[test]
    fn synthetic_fat_trees_hit_their_node_budgets() {
        let t64 = synthetic_fat_tree_64();
        assert_eq!(t64.node_count(), 64);
        assert!(t64.is_connected());
        assert_eq!(fat_tree_edge_switches(&t64).len(), 4 * 7);

        let t512 = synthetic_fat_tree_512();
        assert_eq!(t512.node_count(), 512);
        assert!(t512.is_connected());
        assert_eq!(fat_tree_edge_switches(&t512).len(), 8 * 30);

        // Every aggregation switch has two distinct core uplinks.
        for v in t512.node_ids() {
            if t512.node(v).name.starts_with("agg") {
                let core_neighbors = t512
                    .neighbors(v)
                    .iter()
                    .filter(|&&(u, _)| t512.node(u).name.starts_with("core"))
                    .count();
                assert_eq!(core_neighbors, 2, "agg {v} uplinks");
            }
        }

        let t4096 = synthetic_fat_tree_4096();
        assert_eq!(t4096.node_count(), 4096); // 64 + 126 × (16 + 16)
        assert!(t4096.is_connected());
        assert_eq!(fat_tree_edge_switches(&t4096).len(), 126 * 16);
    }

    #[test]
    fn b4_counts_match_fig8() {
        let t = b4();
        assert_eq!(t.node_count(), 12);
        assert_eq!(t.link_count(), 19);
        assert!(t.is_connected());
    }

    #[test]
    fn internet2_counts_match_fig8() {
        let t = internet2();
        assert_eq!(t.node_count(), 16);
        assert_eq!(t.link_count(), 26);
        assert!(t.is_connected());
    }

    #[test]
    fn att_mpls_counts_match_fig8() {
        let t = att_mpls();
        assert_eq!(t.node_count(), 25);
        assert_eq!(t.link_count(), 56);
        assert!(t.is_connected());
    }

    #[test]
    fn chinanet_counts_match_fig8() {
        let t = chinanet();
        assert_eq!(t.node_count(), 38);
        assert_eq!(t.link_count(), 62);
        assert!(t.is_connected());
    }

    #[test]
    fn wan_latencies_are_physical() {
        let t = b4();
        for link in t.links() {
            let ms = link.latency.as_millis_f64();
            assert!(ms > 0.0 && ms < 120.0, "implausible WAN latency {ms} ms");
        }
        // Transpacific must be slower than intra-US.
        let td = t.node_by_name("TheDalles-OR").unwrap();
        let cb = t.node_by_name("CouncilBluffs-IA").unwrap();
        let tokyo = t.node_by_name("Tokyo-JP").unwrap();
        let us = t.latency_between(td, cb).unwrap();
        let pacific = t.latency_between(td, tokyo).unwrap();
        assert!(pacific > us.saturating_mul(2));
    }

    /// The derivation the AttMpls and Chinanet link tables came from:
    /// Kruskal's minimum spanning tree over great-circle distance, then the
    /// shortest remaining site pairs until `target_edges` links exist.
    fn geo_mesh(name: &str, sites: &[(&str, f64, f64)], target_edges: usize) -> Topology {
        let n = sites.len();
        assert!(
            target_edges >= n.saturating_sub(1),
            "too few edges to connect"
        );
        assert!(target_edges <= n * (n - 1) / 2, "more edges than pairs");
        let mut b = TopologyBuilder::new(name);
        let ids: Vec<NodeId> = sites
            .iter()
            .map(|&(name, lat, lon)| b.add_site(name, lat, lon))
            .collect();

        // All pairs sorted by distance (ties by index pair → deterministic).
        let mut pairs: Vec<(f64, usize, usize)> = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in i + 1..n {
                let d = haversine_km((sites[i].1, sites[i].2), (sites[j].1, sites[j].2));
                pairs.push((d, i, j));
            }
        }
        pairs.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite distances")
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
        });

        // Kruskal MST.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for &(_, i, j) in &pairs {
            let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
            if ri != rj {
                parent[ri] = rj;
                b.add_geo_link(ids[i], ids[j], DEFAULT_CAPACITY);
            }
        }
        // Augment with shortest non-tree pairs.
        for &(_, i, j) in &pairs {
            if b.link_count() >= target_edges {
                break;
            }
            if !b.has_link(ids[i], ids[j]) {
                b.add_geo_link(ids[i], ids[j], DEFAULT_CAPACITY);
            }
        }
        b.build()
    }

    #[test]
    fn the_link_tables_are_the_derivation() {
        let derived = [
            geo_mesh("AttMpls", &ATT_MPLS_SITES, 56),
            geo_mesh("Chinanet", &CHINANET_SITES, 62),
        ];
        for (table, derived) in [att_mpls(), chinanet()].iter().zip(&derived) {
            assert_eq!(table.name, derived.name);
            let links = |t: &Topology| -> Vec<_> {
                t.links()
                    .iter()
                    .map(|l| (l.a, l.b, l.latency.as_nanos(), l.capacity))
                    .collect()
            };
            assert_eq!(links(table), links(derived), "{}", table.name);
        }
    }

    #[test]
    fn random_connected_is_connected() {
        let mut rng = SimRng::new(7);
        for n in [2, 5, 20] {
            let t = random_connected(&mut rng, n, n / 2);
            assert_eq!(t.node_count(), n);
            assert!(t.is_connected());
        }
    }
}
