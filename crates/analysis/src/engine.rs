//! `BatchAnalyzer`: the hyper-scale batch verification engine.
//!
//! The sequential entry points ([`crate::analyze_batch_with`]) lint one
//! plan after another and build the waits-for graph by an O(n²) pairwise
//! scan. This engine produces the *byte-identical* diagnostic list (proved
//! by the differential suites in `tests/analysis_parallel_equivalence.rs`)
//! while scaling to hyper-scale batches two ways:
//!
//! - **Parallel**: per-plan lints are independent, so they shard across a
//!   `std::thread::scope` pool (a deterministic fork-join map) and merge
//!   in plan order. The waits-for graph is built from a *link index* —
//!   only plan pairs that actually share a directed link are examined —
//!   and cycle detection runs per link-disjoint component, components in
//!   parallel.
//! - **Deterministic**: workers stash `(index, result)` pairs and the
//!   merge sorts by index, so the output is identical for any worker
//!   count; cycle sets merge through the same `BTreeSet` canonical order
//!   the sequential path emits in.
//!
//! Why sharding by link is sound: a waits-for edge `A → B` requires a
//! directed link on `A`'s new path that lies on `B`'s old path, so every
//! edge stays inside one link-connected component, and a three-coloring
//! DFS restricted to a component (vertices in ascending order) reports
//! exactly the cycles the global DFS would. See `DESIGN.md` §13.

use crate::conflicts::{
    check_batch_versions, contended, cycle_diagnostics, find_cycles, PlanEdges,
};
use crate::delta::PlanDelta;
use crate::{analyze_with, AnalysisContext, Diagnostic};
use p4update_core::PreparedUpdate;
use p4update_net::{NodeId, Version};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Deterministic fork-join map: evaluate `f(0..jobs)` on up to `workers`
/// threads and return results in input order, so the caller sees the same
/// output for any worker count.
fn parallel_map<T, F>(jobs: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, jobs.max(1));
    if workers == 1 {
        return (0..jobs).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, T)> = Vec::with_capacity(jobs);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            indexed.extend(h.join().expect("analysis worker panicked"));
        }
    });
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, t)| t).collect()
}

/// What one plan's lint saw and produced; cached so a delta can reuse it
/// when the plan and its context inputs are unchanged.
#[derive(Debug, Clone)]
struct PlanRecord {
    /// Findings of the per-plan checks (P4U001–P4U010, P4U013).
    diags: Vec<Diagnostic>,
    /// The installed-version context the lint observed for this flow
    /// (`P4U004`'s input); a different value invalidates the record.
    installed: Option<Version>,
}

/// The parallel, incremental batch verification engine. Stateless apart
/// from its worker count; results (and the caches a delta reuses) live in
/// the [`BatchAnalysis`] it returns.
#[derive(Debug, Clone, Copy)]
pub struct BatchAnalyzer {
    workers: usize,
}

impl BatchAnalyzer {
    /// An engine running on `workers` threads (clamped to at least 1).
    /// One worker runs everything inline — no threads are spawned — and
    /// is still byte-identical to any other worker count.
    pub fn new(workers: usize) -> Self {
        BatchAnalyzer {
            workers: workers.max(1),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Analyze a batch from scratch. The returned
    /// [`BatchAnalysis::diagnostics`] list is byte-identical to
    /// [`crate::analyze_batch_with`] on the same inputs.
    pub fn analyze(&self, plans: &[PreparedUpdate], ctx: &AnalysisContext<'_>) -> BatchAnalysis {
        let records: Vec<PlanRecord> = parallel_map(plans.len(), self.workers, |i| PlanRecord {
            diags: analyze_with(&plans[i], ctx),
            installed: ctx.installed.get(&plans[i].flow).copied(),
        });
        self.assemble(plans.to_vec(), records, plans.len(), ctx, None)
    }

    /// Re-analyze `prev`'s batch after `delta`, reusing every cached
    /// result whose inputs did not change:
    ///
    /// - per-plan lints are reused unless the plan was added/revised or
    ///   the installed version of its flow in `ctx` differs from what the
    ///   cached lint saw;
    /// - waits-for cycle sets are reused per link-disjoint component when
    ///   the component's member set maps exactly onto a component of the
    ///   previous analysis with every member unchanged.
    ///
    /// The result is byte-identical to a full [`Self::analyze`] of the
    /// post-delta batch (asserted by the differential suites);
    /// [`BatchAnalysis::revalidated`] reports how many plans were
    /// actually re-linted. `ctx` must target the same topology as the
    /// previous analysis — the caches do not fingerprint the topology.
    pub fn reanalyze(
        &self,
        prev: &BatchAnalysis,
        delta: &PlanDelta,
        ctx: &AnalysisContext<'_>,
    ) -> BatchAnalysis {
        let (plans, origin) = delta.apply(&prev.plans);
        // Decide, per plan, whether the cached record is still valid.
        let reusable: Vec<Option<usize>> = plans
            .iter()
            .zip(&origin)
            .map(|(plan, o)| {
                o.filter(|&p| prev.per_plan[p].installed == ctx.installed.get(&plan.flow).copied())
            })
            .collect();
        let misses: Vec<usize> = (0..plans.len())
            .filter(|&i| reusable[i].is_none())
            .collect();
        let fresh: Vec<PlanRecord> = parallel_map(misses.len(), self.workers, |j| {
            let i = misses[j];
            PlanRecord {
                diags: analyze_with(&plans[i], ctx),
                installed: ctx.installed.get(&plans[i].flow).copied(),
            }
        });
        let mut fresh = fresh.into_iter();
        let records: Vec<PlanRecord> = (0..plans.len())
            .map(|i| match reusable[i] {
                Some(p) => prev.per_plan[p].clone(),
                None => fresh.next().expect("one fresh record per miss"),
            })
            .collect();
        let revalidated = misses.len();
        // Components are reusable only when every member is an unchanged
        // plan (origin preserved), independent of installed context —
        // the waits-for graph reads paths, sizes, and capacities only.
        let cache = ComponentCache {
            origin: &origin,
            prev: &prev.components,
        };
        self.assemble(plans, records, revalidated, ctx, Some(cache))
    }

    /// Shared back half of [`Self::analyze`] / [`Self::reanalyze`]: batch
    /// version check, link-sharded waits-for analysis, and final
    /// diagnostic assembly in the sequential emission order.
    fn assemble(
        &self,
        plans: Vec<PreparedUpdate>,
        per_plan: Vec<PlanRecord>,
        revalidated: usize,
        ctx: &AnalysisContext<'_>,
        cache: Option<ComponentCache<'_>>,
    ) -> BatchAnalysis {
        let mut diags: Vec<Diagnostic> = Vec::new();
        for r in &per_plan {
            diags.extend(r.diags.iter().cloned());
        }
        check_batch_versions(&plans, &mut diags);
        let components = self.waits_for_components(&plans, ctx, cache);
        let mut all_cycles: BTreeSet<Vec<usize>> = BTreeSet::new();
        for (members, local_cycles) in &components {
            for cycle in local_cycles {
                all_cycles.insert(cycle.iter().map(|&p| members[p]).collect());
            }
        }
        cycle_diagnostics(&plans, &all_cycles, &mut diags);
        BatchAnalysis {
            plans,
            per_plan,
            components,
            diags,
            revalidated,
        }
    }

    /// The link-sharded waits-for analysis. Returns each non-trivial
    /// component as `(ascending member indices, cycles in member-local
    /// positions)`, ordered by smallest member.
    fn waits_for_components(
        &self,
        plans: &[PreparedUpdate],
        ctx: &AnalysisContext<'_>,
        cache: Option<ComponentCache<'_>>,
    ) -> BTreeMap<Vec<usize>, Vec<Vec<usize>>> {
        let n = plans.len();
        if n < 2 {
            return BTreeMap::new();
        }
        let edges: Vec<PlanEdges> = parallel_map(n, self.workers, |i| PlanEdges::of(&plans[i]));
        // Link index: for every directed link, the plans whose *new* path
        // uses it (edge sources) and the plans moving *off* it (old but
        // not new — edge targets). Only these pairs can contend, so the
        // construction never touches the n² pair space.
        let mut by_link: BTreeMap<(NodeId, NodeId), (Vec<usize>, Vec<usize>)> = BTreeMap::new();
        for (i, e) in edges.iter().enumerate() {
            for &l in &e.new_edges {
                by_link.entry(l).or_default().0.push(i);
            }
            for &l in &e.old_edges {
                if !e.new_edges.contains(&l) {
                    by_link.entry(l).or_default().1.push(i);
                }
            }
        }
        // Shard adjacency construction by link: each worker scans a chunk
        // of the link entries and emits candidate waits-for edges; the
        // merge unions them into per-vertex sets (order-insensitive), so
        // the adjacency is identical for any worker count — and identical
        // to the pairwise reference construction, which admits an edge
        // `a → b` iff *some* shared link contends.
        type LinkEntry<'a> = (&'a (NodeId, NodeId), &'a (Vec<usize>, Vec<usize>));
        let entries: Vec<LinkEntry<'_>> = by_link.iter().collect();
        let chunks = self.workers.min(entries.len()).max(1);
        let chunk_size = entries.len().div_ceil(chunks);
        let edge_lists: Vec<Vec<(usize, usize)>> = parallel_map(chunks, self.workers, |c| {
            let mut found = Vec::new();
            let lo = (c * chunk_size).min(entries.len());
            let hi = (lo + chunk_size).min(entries.len());
            for (&link, (sources, targets)) in &entries[lo..hi] {
                for &a in sources {
                    for &b in targets {
                        if a != b
                            && edges[a].flow != edges[b].flow
                            && contended(ctx.topo, link, &edges[a], &edges[b])
                        {
                            found.push((a, b));
                        }
                    }
                }
            }
            found
        });
        let mut adj_sets: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        let mut dsu = Dsu::new(n);
        for (a, b) in edge_lists.into_iter().flatten() {
            adj_sets[a].insert(b);
            dsu.union(a, b);
        }
        let adj: Vec<Vec<usize>> = adj_sets
            .into_iter()
            .map(|s| s.into_iter().collect())
            .collect();
        // Group vertices that share waits-for edges into components.
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (v, out) in adj.iter().enumerate() {
            if !out.is_empty() || dsu.find(v) != v {
                groups.entry(dsu.find(v)).or_default().push(v);
            }
        }
        let comps: Vec<Vec<usize>> = groups.into_values().filter(|m| m.len() >= 2).collect();
        // Cycle detection per component, components in parallel; reuse a
        // previous component's cycles when the member sets correspond
        // exactly through the delta's origin map.
        let local_cycles: Vec<Vec<Vec<usize>>> = parallel_map(comps.len(), self.workers, |c| {
            let members = &comps[c];
            if let Some(cached) = cache.as_ref().and_then(|ca| ca.lookup(members)) {
                return cached;
            }
            find_cycles(&adj, members.iter().copied())
                .into_iter()
                .map(|cycle| {
                    cycle
                        .iter()
                        .map(|&g| {
                            members
                                .binary_search(&g)
                                .expect("cycle vertex in component")
                        })
                        .collect()
                })
                .collect()
        });
        comps.into_iter().zip(local_cycles).collect()
    }
}

/// The previous analysis' component cache plus the index mapping a delta
/// established: `origin[new_index]` is the plan's index in the previous
/// batch when it was carried over unchanged.
struct ComponentCache<'a> {
    origin: &'a [Option<usize>],
    prev: &'a BTreeMap<Vec<usize>, Vec<Vec<usize>>>,
}

impl ComponentCache<'_> {
    /// Cycles (member-local) for a component whose members are all
    /// unchanged plans forming exactly one previous component. Member
    /// order is preserved because deltas keep retained plans in batch
    /// order, so ascending stays ascending through the mapping.
    fn lookup(&self, members: &[usize]) -> Option<Vec<Vec<usize>>> {
        let prev_members: Vec<usize> = members
            .iter()
            .map(|&i| self.origin[i])
            .collect::<Option<_>>()?;
        self.prev.get(&prev_members).cloned()
    }
}

/// Union-find with path halving; determinism is irrelevant here because
/// only the final partition (not the root choice) is observable.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut v: usize) -> usize {
        while self.parent[v] != v {
            self.parent[v] = self.parent[self.parent[v]];
            v = self.parent[v];
        }
        v
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Smaller root wins so `find` results are stable per partition.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// The result of one engine pass: the analyzed plans, the diagnostic list
/// (byte-identical to the sequential path), and the caches the next
/// [`BatchAnalyzer::reanalyze`] call draws on.
#[derive(Debug, Clone)]
pub struct BatchAnalysis {
    plans: Vec<PreparedUpdate>,
    per_plan: Vec<PlanRecord>,
    /// Non-trivial waits-for components: ascending member indices →
    /// cycles in member-local positions.
    components: BTreeMap<Vec<usize>, Vec<Vec<usize>>>,
    diags: Vec<Diagnostic>,
    revalidated: usize,
}

impl BatchAnalysis {
    /// The plans this analysis covers, in batch order.
    pub fn plans(&self) -> &[PreparedUpdate] {
        &self.plans
    }

    /// Every finding, in the exact order [`crate::analyze_batch_with`]
    /// emits: per-plan diagnostics in plan order, then batch version
    /// conflicts, then waits-for cycles in canonical order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// How many plans this pass actually linted (as opposed to reusing a
    /// cached record). Equals the plan count for a fresh
    /// [`BatchAnalyzer::analyze`]; strictly smaller whenever
    /// [`BatchAnalyzer::reanalyze`] found reusable work.
    pub fn revalidated(&self) -> usize {
        self.revalidated
    }

    /// Number of plans in the batch.
    pub fn plan_count(&self) -> usize {
        self.plans.len()
    }

    /// True when no finding is an error (the analysis-gate condition).
    pub fn is_clean(&self) -> bool {
        crate::is_clean(&self.diags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_batch_with;
    use p4update_core::{prepare_update, Strategy};
    use p4update_net::{FlowId, FlowUpdate, Path};

    fn path(ids: &[u32]) -> Path {
        Path::new(ids.iter().map(|&i| p4update_net::NodeId(i)).collect())
    }

    fn swap_batch() -> Vec<PreparedUpdate> {
        let a = FlowUpdate::new(FlowId(1), Some(path(&[0, 1, 3])), path(&[0, 2, 3]), 1.0);
        let b = FlowUpdate::new(FlowId(2), Some(path(&[0, 2, 3])), path(&[0, 1, 3]), 1.0);
        vec![
            prepare_update(&a, Version(2), Strategy::Auto),
            prepare_update(&b, Version(2), Strategy::Auto),
        ]
    }

    #[test]
    fn engine_matches_sequential_on_a_cycle_batch() {
        let plans = swap_batch();
        let ctx = AnalysisContext::default();
        let reference = analyze_batch_with(&plans, &ctx);
        for workers in [1, 2, 4] {
            let got = BatchAnalyzer::new(workers).analyze(&plans, &ctx);
            assert_eq!(got.diagnostics(), &reference[..], "workers={workers}");
            assert_eq!(got.revalidated(), plans.len());
        }
    }

    #[test]
    fn empty_and_single_plan_batches_work() {
        let engine = BatchAnalyzer::new(4);
        let ctx = AnalysisContext::default();
        let empty = engine.analyze(&[], &ctx);
        assert!(empty.diagnostics().is_empty());
        assert_eq!(empty.plan_count(), 0);
        let one = swap_batch().into_iter().take(1).collect::<Vec<_>>();
        let got = engine.analyze(&one, &ctx);
        assert_eq!(got.diagnostics(), &analyze_batch_with(&one, &ctx)[..]);
    }

    #[test]
    fn parallel_map_preserves_order() {
        for workers in [1, 2, 3, 8] {
            assert_eq!(
                parallel_map(17, workers, |i| i * 3),
                (0..17).map(|i| i * 3).collect::<Vec<_>>()
            );
        }
        assert!(parallel_map(0, 4, |i| i).is_empty());
    }
}
