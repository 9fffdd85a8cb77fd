//! Path segmentation for the dual-layer mechanism (§3.2).
//!
//! Gateway nodes are the nodes shared between the old path `P_o` and the new
//! path `P_n`; they cut the new path into segments. A segment is *forward*
//! when it does not increase the distance to the egress w.r.t. the old
//! path's distances (its ingress gateway's old distance is larger than its
//! egress gateway's) and can update independently; a *backward* segment
//! increases that distance and must wait for downstream segments (gated by
//! the inherited old distances at runtime).

use p4update_net::{FlowUpdate, NodeId};

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
    /// Number of backward segments.
    pub fn backward_count(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| s.direction() == SegmentDir::Backward)
            .count()
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
/// as gateways by convention (they are shared by definition).
pub fn segment_update(update: &FlowUpdate) -> Segmentation {
    let new_nodes = update.new_path.nodes();
    let old_dist: Vec<(NodeId, u32)> = crate::label::old_distances(update);
    let on_old = |n: NodeId| old_dist.iter().find(|&&(m, _)| m == n).map(|&(_, d)| d);

    // Gateways: nodes of the new path that also lie on the old path.
    // Ingress and egress are always shared (the update model requires it).
    let mut gateways: Vec<(NodeId, u32)> = Vec::new();
    for &n in new_nodes {
        if let Some(d) = on_old(n) {
            gateways.push((n, d));
        } else if update.old_path.is_none()
            && (n == update.new_path.ingress() || n == update.new_path.egress())
        {
            // Fresh deployment: endpoints act as gateways with synthetic
            // old distances (ingress "far", egress 0).
            let d = if n == update.new_path.egress() {
                0
            } else {
                u32::MAX
            };
            gateways.push((n, d));
        }
    }

    let mut segments = Vec::new();
    for w in gateways.windows(2) {
        let (g_in, d_in) = w[0];
        let (g_out, d_out) = w[1];
        let i_in = update.new_path.position(g_in).expect("gateway on new path");
        let i_out = update
            .new_path
            .position(g_out)
            .expect("gateway on new path");
        let interior = new_nodes[i_in + 1..i_out].to_vec();
        segments.push(Segment {
            ingress_gateway: g_in,
            egress_gateway: g_out,
            interior,
            ingress_old_distance: d_in,
            egress_old_distance: d_out,
        });
    }

    Segmentation {
        gateways: gateways.into_iter().map(|(n, _)| n).collect(),
        segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4update_net::{FlowId, FlowUpdate, Path};

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
        // forward.
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

        assert_eq!(seg.backward_count(), 1);
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
        assert_eq!(seg.segments[0].direction(), SegmentDir::Forward);
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
        let dirs: Vec<SegmentDir> = seg.segments.iter().map(super::Segment::direction).collect();
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
}
