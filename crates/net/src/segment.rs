//! Path segmentation (§3.2), the one both dual-layer P4Update and
//! ez-Segway (whose idea it is) run on, and the one the single-flow
//! workload is scored by.
//!
//! Gateway nodes are the nodes shared between the old path `P_o` and the new
//! path `P_n`; they cut the new path into segments. A segment is *forward*
//! when it does not increase the distance to the egress w.r.t. the old
//! path's distances (its ingress gateway's old distance is larger than its
//! egress gateway's) and can update independently; a *backward* segment
//! increases that distance and must wait for downstream segments (gated by
//! the inherited old distances at runtime).

use crate::flow::FlowUpdate;
use crate::graph::NodeId;

/// Direction class of a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentDir {
    /// Cannot create a loop; updates independently.
    Forward,
    /// Potential loop; waits on downstream segments.
    Backward,
}

/// One segment of a dual-layer update: the new-path stretch between two
/// consecutive gateway nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Gateway closer to the global ingress (flips last in this segment).
    pub ingress_gateway: NodeId,
    /// Gateway closer to the global egress (initiates the segment's
    /// second-layer chain).
    pub egress_gateway: NodeId,
    /// Interior nodes between the gateways, in new-path order (may be
    /// empty when the gateways are adjacent on the new path).
    pub interior: Vec<NodeId>,
    /// Old distance of the ingress gateway (`D_o`, the "segment ID" of the
    /// paper's intuition).
    pub ingress_old_distance: u32,
    /// Old distance of the egress gateway.
    pub egress_old_distance: u32,
}

impl Segment {
    /// The segment's direction class: backward iff joining the egress
    /// gateway's segment would move the ingress gateway *away* from the
    /// egress in old-distance terms.
    pub fn direction(&self) -> SegmentDir {
        if self.ingress_old_distance > self.egress_old_distance {
            SegmentDir::Forward
        } else {
            SegmentDir::Backward
        }
    }

    /// All nodes of the segment in new-path order (ingress gateway first).
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v = vec![self.ingress_gateway];
        v.extend(&self.interior);
        v.push(self.egress_gateway);
        v
    }
}

/// The result of segmenting an update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segmentation {
    /// Gateway nodes in new-path order, ingress first (paper: the set `G`).
    pub gateways: Vec<NodeId>,
    /// Segments in new-path order, ingress-most first.
    pub segments: Vec<Segment>,
}

impl Segmentation {
    /// The backward segments, in new-path order.
    pub fn backward(&self) -> impl Iterator<Item = &Segment> {
        self.segments
            .iter()
            .filter(|s| s.direction() == SegmentDir::Backward)
    }

    /// Number of backward segments.
    pub fn backward_count(&self) -> usize {
        self.backward().count()
    }

    /// True when every segment is forward.
    pub fn forward_only(&self) -> bool {
        self.backward_count() == 0
    }
}

/// Segment an update: find the gateways (nodes on both paths, in new-path
/// order) and the segments between consecutive gateways.
///
/// For an initial deployment (no old path) the result has the whole new
/// path as a single segment between ingress and egress — which both count
/// as gateways by convention (they are shared by definition), with
/// synthetic old distances: the ingress "infinitely far", the egress 0.
pub fn segment_update(update: &FlowUpdate) -> Segmentation {
    let new_nodes = update.new_path.nodes();
    let last = new_nodes.len() - 1;
    // Gateways with their new-path positions and old distances.
    let gateways: Vec<(usize, NodeId, u32)> = new_nodes
        .iter()
        .enumerate()
        .filter_map(|(i, &n)| {
            let d = match &update.old_path {
                Some(old) => old.distance_to_egress(n),
                None if i == 0 => Some(u32::MAX),
                None if i == last => Some(0),
                None => None,
            };
            d.map(|d| (i, n, d))
        })
        .collect();
    let segments = gateways
        .windows(2)
        .map(|w| {
            let (i_in, g_in, d_in) = w[0];
            let (i_out, g_out, d_out) = w[1];
            Segment {
                ingress_gateway: g_in,
                egress_gateway: g_out,
                interior: new_nodes[i_in + 1..i_out].to_vec(),
                ingress_old_distance: d_in,
                egress_old_distance: d_out,
            }
        })
        .collect();
    Segmentation {
        gateways: gateways.into_iter().map(|(_, n, _)| n).collect(),
        segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowId, Path};

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
    fn fig1_gateways_match_the_paper() {
        // §3.2: G = {v0, v2, v4, v7} (in new-path order).
        let seg = segment_update(&fig1_update());
        assert_eq!(
            seg.gateways,
            vec![NodeId(0), NodeId(2), NodeId(4), NodeId(7)]
        );
    }

    #[test]
    fn fig1_segments_match_the_paper() {
        // §3.2: {v0,v1,v2} forward, {v2,v3,v4} backward, {v4,v5,v6,v7}
        // forward; segment IDs (old distances) v0 = 3, v4 = 2, v2 = 1,
        // v7 = 0.
        let seg = segment_update(&fig1_update());
        assert_eq!(seg.segments.len(), 3);

        let s0 = &seg.segments[0];
        assert_eq!(s0.nodes(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(s0.direction(), SegmentDir::Forward);
        assert_eq!((s0.ingress_old_distance, s0.egress_old_distance), (3, 1));

        let s1 = &seg.segments[1];
        assert_eq!(s1.nodes(), vec![NodeId(2), NodeId(3), NodeId(4)]);
        assert_eq!(s1.direction(), SegmentDir::Backward);
        assert_eq!((s1.ingress_old_distance, s1.egress_old_distance), (1, 2));

        let s2 = &seg.segments[2];
        assert_eq!(s2.nodes(), vec![NodeId(4), NodeId(5), NodeId(6), NodeId(7)]);
        assert_eq!(s2.direction(), SegmentDir::Forward);
        assert_eq!((s2.ingress_old_distance, s2.egress_old_distance), (2, 0));

        assert_eq!(seg.backward_count(), 1);
        assert_eq!(seg.backward().next(), Some(s1));
        assert!(!seg.forward_only());
        assert!(seg.gateways.contains(&NodeId(2)));
        assert!(!seg.gateways.contains(&NodeId(3)));
    }

    #[test]
    fn identical_paths_are_all_gateways() {
        let u = FlowUpdate::new(FlowId(0), Some(path(&[0, 1, 2])), path(&[0, 1, 2]), 1.0);
        let seg = segment_update(&u);
        assert_eq!(seg.gateways.len(), 3);
        assert_eq!(seg.segments.len(), 2);
        assert!(seg.segments.iter().all(|s| s.interior.is_empty()));
        assert!(seg.forward_only());
    }

    #[test]
    fn disjoint_detour_is_one_forward_segment() {
        let u = FlowUpdate::new(FlowId(0), Some(path(&[0, 1, 5])), path(&[0, 2, 3, 5]), 1.0);
        let seg = segment_update(&u);
        assert_eq!(seg.gateways, vec![NodeId(0), NodeId(5)]);
        assert_eq!(seg.segments.len(), 1);
        let s = &seg.segments[0];
        assert_eq!(s.interior, vec![NodeId(2), NodeId(3)]);
        assert_eq!(s.direction(), SegmentDir::Forward);
    }

    #[test]
    fn fresh_deployment_is_a_single_segment() {
        let u = FlowUpdate::new(FlowId(0), None, path(&[0, 2, 3, 5]), 1.0);
        let seg = segment_update(&u);
        assert_eq!(seg.gateways, vec![NodeId(0), NodeId(5)]);
        assert_eq!(seg.segments.len(), 1);
        let s = &seg.segments[0];
        assert_eq!(
            (s.ingress_old_distance, s.egress_old_distance),
            (u32::MAX, 0)
        );
        assert_eq!(s.direction(), SegmentDir::Forward);
    }

    #[test]
    fn reversal_creates_backward_segment() {
        // Old: 0 -> 1 -> 2 -> 3. New visits 2 before 1: 0 -> 2 -> 1 -> 3
        // would revisit old nodes in reversed order; use interior detours.
        let u = FlowUpdate::new(
            FlowId(0),
            Some(path(&[0, 1, 2, 3])),
            path(&[0, 4, 2, 5, 1, 6, 3]),
            1.0,
        );
        let seg = segment_update(&u);
        assert_eq!(
            seg.gateways,
            vec![NodeId(0), NodeId(2), NodeId(1), NodeId(3)]
        );
        let dirs: Vec<SegmentDir> = seg.segments.iter().map(Segment::direction).collect();
        // 0(d=3) -> 2(d=1): forward; 2(d=1) -> 1(d=2): backward;
        // 1(d=2) -> 3(d=0): forward.
        assert_eq!(
            dirs,
            vec![
                SegmentDir::Forward,
                SegmentDir::Backward,
                SegmentDir::Forward
            ]
        );
    }

    #[test]
    fn segment_nodes_cover_new_path_exactly() {
        let u = fig1_update();
        let seg = segment_update(&u);
        let mut covered = vec![seg.segments[0].ingress_gateway];
        for s in &seg.segments {
            covered.extend(&s.interior);
            covered.push(s.egress_gateway);
        }
        assert_eq!(covered, u.new_path.nodes());
    }

    /// A random (old, new) pair of simple paths with shared endpoints: the
    /// old path visits a random subset of the new interior in random order
    /// (so backward segments appear) and fresh nodes of its own; one case
    /// in eight is a fresh deployment.
    fn gen_update(rng: &mut p4update_des::SimRng) -> FlowUpdate {
        let mut pool: Vec<u32> = (0..24).collect();
        rng.shuffle(&mut pool);
        let new_len = 2 + rng.uniform_usize(9);
        let (new, rest) = pool.split_at(new_len);
        let new_path = path(new);
        if rng.uniform_usize(8) == 0 {
            return FlowUpdate::new(FlowId(0), None, new_path, 1.0);
        }
        let mut interior: Vec<u32> = new[1..new_len - 1]
            .iter()
            .copied()
            .filter(|_| rng.chance(0.5))
            .collect();
        interior.extend(rest.iter().take(rng.uniform_usize(4)));
        rng.shuffle(&mut interior);
        let mut old = vec![new[0]];
        old.extend(interior);
        old.push(new[new_len - 1]);
        FlowUpdate::new(FlowId(0), Some(path(&old)), new_path, 1.0)
    }

    /// `segment_update` is Algorithm 2's construction: the gateways are
    /// exactly the shared nodes in new-path order, endpoints included; the
    /// segments tile the new path; interiors are off the old path; each
    /// recorded old distance is the old path's; a segment is forward iff
    /// its ingress gateway lies farther from the egress on the old path.
    /// A fresh deployment is one forward segment with the synthetic
    /// distances (ingress `u32::MAX`, egress 0).
    #[test]
    fn segment_update_follows_algorithm_2() {
        use p4update_des::propcheck::{cases, forall};
        use std::cell::Cell;
        let backward = Cell::new(0u32);
        forall("segment_update_follows_algorithm_2", cases(512), |rng| {
            let update = gen_update(rng);
            let new = &update.new_path;
            let seg = segment_update(&update);
            let Some(old) = &update.old_path else {
                assert_eq!(seg.gateways, vec![new.ingress(), new.egress()]);
                assert_eq!(seg.segments.len(), 1);
                let s = &seg.segments[0];
                assert_eq!(s.nodes(), new.nodes());
                assert_eq!(
                    (s.ingress_old_distance, s.egress_old_distance),
                    (u32::MAX, 0)
                );
                assert_eq!(s.direction(), SegmentDir::Forward);
                return;
            };
            let shared: Vec<NodeId> = new
                .nodes()
                .iter()
                .copied()
                .filter(|&n| old.contains(n))
                .collect();
            assert_eq!(seg.gateways, shared);
            assert_eq!(seg.gateways.first(), Some(&new.ingress()));
            assert_eq!(seg.gateways.last(), Some(&new.egress()));
            assert_eq!(seg.segments.len() + 1, seg.gateways.len());
            let mut covered = vec![new.ingress()];
            for (s, g) in seg.segments.iter().zip(seg.gateways.windows(2)) {
                assert_eq!((s.ingress_gateway, s.egress_gateway), (g[0], g[1]));
                assert!(s.interior.iter().all(|&n| !old.contains(n)));
                covered.extend(&s.interior);
                covered.push(s.egress_gateway);
                let d_in = old.distance_to_egress(s.ingress_gateway);
                let d_out = old.distance_to_egress(s.egress_gateway);
                assert_eq!(d_in, Some(s.ingress_old_distance));
                assert_eq!(d_out, Some(s.egress_old_distance));
                let forward = d_in > d_out;
                assert_eq!(s.direction() == SegmentDir::Forward, forward);
                if !forward {
                    backward.set(backward.get() + 1);
                }
            }
            assert_eq!(covered, new.nodes());
        });
        assert!(
            backward.get() > 0,
            "the generator never made a backward segment"
        );
    }
}
