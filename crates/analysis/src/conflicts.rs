//! Cross-update checks over a batch: duplicate/monotone versions (P4U011)
//! and waits-for cycle detection between concurrent updates (P4U012).
//!
//! The engine ([`crate::engine::BatchAnalyzer`]) builds the waits-for graph
//! from a link index; the cycle search and the diagnostics are shared
//! pieces here. The test-only `oracle` module builds the same graph by a
//! pairwise O(n²) scan, and the engine's differentials assert that both
//! emit byte-identical findings.

use crate::diagnostic::{Code, Diagnostic};
use p4update_core::PreparedUpdate;
use p4update_net::{NodeId, Topology, Version};
use std::collections::{BTreeMap, BTreeSet};

/// Duplicate-flow entries in one batch must carry strictly increasing
/// versions in batch order; otherwise the later plan is dead on arrival
/// (switches keep the highest version, §3). Each entry is compared with
/// the highest version of its flow before it.
pub(crate) fn check_batch_versions(plans: &[PreparedUpdate], out: &mut Vec<Diagnostic>) {
    let mut highest: BTreeMap<_, _> = BTreeMap::new();
    for plan in plans {
        match highest.get(&plan.flow) {
            Some(&prev) if plan.version <= prev => out.push(version_conflict(plan, prev)),
            _ => {
                highest.insert(plan.flow, plan.version);
            }
        }
    }
}

/// The `P4U011` finding for `plan`, whose version does not exceed `prev`.
fn version_conflict(plan: &PreparedUpdate, prev: Version) -> Diagnostic {
    Diagnostic::new(
        Code::BatchVersionConflict,
        plan.flow,
        None,
        format!(
            "batch contains {} twice with non-increasing versions \
             ({prev} then {})",
            plan.flow, plan.version
        ),
    )
}

/// Directed edges traversed by a path, as ordered node pairs: ascending,
/// each once.
fn edge_set(path: &p4update_net::Path) -> Vec<(NodeId, NodeId)> {
    let mut edges: Vec<_> = path.edges().collect();
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// The per-plan inputs of the waits-for graph: the directed edge sets of a
/// plan's new and old paths plus its flow identity and size. Precomputed
/// once so both graph constructions (pairwise and link-indexed) read the
/// same data. Each set is a sorted vector probed by binary search: a path
/// has a handful of edges, for which a tree's nodes weigh more than the
/// pairs they hold.
pub(crate) struct PlanEdges {
    pub(crate) flow: p4update_net::FlowId,
    pub(crate) size: f64,
    pub(crate) new_edges: Vec<(NodeId, NodeId)>,
    pub(crate) old_edges: Vec<(NodeId, NodeId)>,
}

impl PlanEdges {
    pub(crate) fn of(plan: &PreparedUpdate) -> Self {
        PlanEdges {
            flow: plan.flow,
            size: plan.update.size,
            new_edges: edge_set(&plan.update.new_path),
            old_edges: plan
                .update
                .old_path
                .as_ref()
                .map(edge_set)
                .unwrap_or_default(),
        }
    }

    /// Whether the plan moves off link `e`: on its old path, not on its
    /// new one.
    pub(crate) fn vacates(&self, e: &(NodeId, NodeId)) -> bool {
        self.old_edges.binary_search(e).is_ok() && self.new_edges.binary_search(e).is_err()
    }
}

/// Whether plans `a` and `b` genuinely contend on the directed link
/// `(x, y)`: with a topology in hand the edge is only real when the link
/// cannot hold both flows at once; without one the analyzer is
/// conservative and assumes contention. (An edge that is not a topology
/// link is flagged elsewhere as P4U003 and treated as contended here.)
pub(crate) fn contended(
    topo: Option<&Topology>,
    (x, y): (NodeId, NodeId),
    a: &PlanEdges,
    b: &PlanEdges,
) -> bool {
    match topo.and_then(|t| t.link_between(x, y)) {
        Some(link) => a.size + b.size > topo.expect("link implies topo").link(link).capacity,
        None => true,
    }
}

/// Find the cycles a three-coloring DFS reports over the `waits_for`
/// adjacency (vertex ids are indices into `waits_for`; roots are tried in
/// ascending order). Cycles are canonicalized (rotated to start at the
/// smallest participant) and deduplicated; the `BTreeSet` order is the
/// stable emission order.
///
/// The DFS is iterative (an explicit stack mirroring the recursion
/// exactly), so deep chains in large batches cannot overflow the stack.
pub(crate) fn find_cycles(waits_for: &[Vec<usize>]) -> BTreeSet<Vec<usize>> {
    let n = waits_for.len();
    let mut reported: BTreeSet<Vec<usize>> = BTreeSet::new();
    let mut color = vec![0u8; n]; // 0 = white, 1 = on stack, 2 = done
    let mut path: Vec<usize> = Vec::new();
    // (vertex, index of the next neighbor to examine)
    let mut stack: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if color[root] != 0 {
            continue;
        }
        color[root] = 1;
        path.push(root);
        stack.push((root, 0));
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if *next < waits_for[v].len() {
                let w = waits_for[v][*next];
                *next += 1;
                match color[w] {
                    0 => {
                        color[w] = 1;
                        path.push(w);
                        stack.push((w, 0));
                    }
                    1 => {
                        let start = path.iter().position(|&x| x == w).expect("on stack");
                        let mut cycle: Vec<usize> = path[start..].to_vec();
                        let min_pos = cycle
                            .iter()
                            .enumerate()
                            .min_by_key(|&(_, &x)| x)
                            .map_or(0, |(i, _)| i);
                        cycle.rotate_left(min_pos);
                        reported.insert(cycle);
                    }
                    _ => {}
                }
            } else {
                path.pop();
                stack.pop();
                color[v] = 2;
            }
        }
    }
    reported
}

/// Render the canonical cycle set as `P4U012` diagnostics, one per cycle,
/// reported at the cycle's smallest flow id in `BTreeSet` order.
///
/// A cycle means every update in it waits on another — the deadlock
/// ez-Segway resolves with global dependency graphs and P4Update leaves to
/// the local congestion scheduler (§7.4), which breaks ties by priority but
/// may serialize or park flows. That is a legal but noteworthy plan, so the
/// finding is a warning.
pub(crate) fn cycle_diagnostics(
    plans: &[PreparedUpdate],
    cycles: &BTreeSet<Vec<usize>>,
    out: &mut Vec<Diagnostic>,
) {
    for cycle in cycles {
        let flows: Vec<String> = cycle.iter().map(|&i| plans[i].flow.to_string()).collect();
        out.push(Diagnostic::new(
            Code::WaitsForCycle,
            plans[cycle[0]].flow,
            None,
            format!(
                "updates wait on each other's freed capacity in a cycle: {}; \
                 completion depends on the runtime congestion scheduler",
                flows.join(" -> ")
            ),
        ));
    }
}

/// The engine's test oracle: the batch checks by pairwise scan, with no
/// index and no running state.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use crate::{analyze_with, AnalysisContext};

    /// What the engine's diagnostic list must equal: every plan's
    /// findings in plan order, then `P4U011`, then `P4U012`.
    pub(crate) fn lint_batch(
        plans: &[PreparedUpdate],
        ctx: &AnalysisContext<'_>,
    ) -> Vec<Diagnostic> {
        let mut out: Vec<Diagnostic> = plans.iter().flat_map(|p| analyze_with(p, ctx)).collect();
        check_batch_versions(plans, &mut out);
        check_waits_for(plans, ctx.topo, &mut out);
        out
    }

    /// `P4U011` by comparing each plan with every earlier plan of its
    /// flow.
    fn check_batch_versions(plans: &[PreparedUpdate], out: &mut Vec<Diagnostic>) {
        for (i, plan) in plans.iter().enumerate() {
            let earlier = plans[..i].iter().filter(|p| p.flow == plan.flow);
            if let Some(prev) = earlier.map(|p| p.version).max() {
                if plan.version <= prev {
                    out.push(version_conflict(plan, prev));
                }
            }
        }
    }

    /// Build the full waits-for adjacency by pairwise scan: update `A`
    /// *waits for* update `B` when some directed link on `A`'s new path
    /// lies on `B`'s old path but not on `B`'s new path — `A` moves onto
    /// capacity that only frees once `B` has moved off it — and the link
    /// cannot hold both flows.
    fn build_waits_for(edges: &[PlanEdges], topo: Option<&Topology>) -> Vec<Vec<usize>> {
        let n = edges.len();
        let mut waits_for: Vec<Vec<usize>> = vec![Vec::new(); n];
        for a in 0..n {
            for b in 0..n {
                if a == b || edges[a].flow == edges[b].flow {
                    continue;
                }
                let shared = edges[a].new_edges.iter().filter(|e| edges[b].vacates(e));
                for &e in shared {
                    if contended(topo, e, &edges[a], &edges[b]) {
                        waits_for[a].push(b);
                        break;
                    }
                }
            }
        }
        waits_for
    }

    /// Build the waits-for graph over the batch and flag its cycles.
    fn check_waits_for(
        plans: &[PreparedUpdate],
        topo: Option<&Topology>,
        out: &mut Vec<Diagnostic>,
    ) {
        let edges: Vec<PlanEdges> = plans.iter().map(PlanEdges::of).collect();
        let cycles = find_cycles(&build_waits_for(&edges, topo));
        cycle_diagnostics(plans, &cycles, out);
    }
}
