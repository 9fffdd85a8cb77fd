//! `BatchAnalyzer`: the link-indexed, incremental batch linter.
//!
//! The reference entry point ([`crate::analyze_batch_with`]) lints one
//! plan after another and builds the waits-for graph by an O(n²) pairwise
//! scan. This engine produces the *byte-identical* diagnostic list (proved
//! by the differential suites in `tests/analysis_engine_equivalence.rs`)
//! while keeping its cost proportional to what can interact and to what
//! changed:
//!
//! - **Link-indexed**: the waits-for graph is built from a *link index* —
//!   only plan pairs that actually share a directed link are examined —
//!   and cycle detection runs per link-disjoint component.
//! - **Incremental**: every per-plan lint and every component's cycle set
//!   is cached in the [`BatchAnalysis`], so [`BatchAnalyzer::reanalyze`]
//!   re-lints only the plans a [`PlanDelta`] touched and re-searches only
//!   the components whose membership changed.
//!
//! Why splitting by link is sound: a waits-for edge `A → B` requires a
//! directed link on `A`'s new path that lies on `B`'s old path, so every
//! edge stays inside one link-connected component, and a three-coloring
//! DFS restricted to a component (vertices in ascending order) reports
//! exactly the cycles the global DFS would — which is what makes a cached
//! component's cycles valid for as long as its members are unchanged. See
//! `DESIGN.md` §13.

use crate::conflicts::{
    check_batch_versions, contended, cycle_diagnostics, find_cycles, PlanEdges,
};
use crate::delta::PlanDelta;
use crate::{analyze_with, AnalysisContext, Diagnostic};
use p4update_core::PreparedUpdate;
use p4update_net::{NodeId, Version};
use std::collections::{BTreeMap, BTreeSet};

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

impl PlanRecord {
    fn lint(plan: &PreparedUpdate, ctx: &AnalysisContext<'_>) -> Self {
        PlanRecord {
            diags: analyze_with(plan, ctx),
            installed: ctx.installed.get(&plan.flow).copied(),
        }
    }
}

/// The link-indexed, incremental batch linter. Stateless: results (and
/// the caches a delta reuses) live in the [`BatchAnalysis`] it returns.
#[derive(Debug, Clone, Copy)]
pub struct BatchAnalyzer;

impl BatchAnalyzer {
    /// The engine. It runs on the calling thread (`DESIGN.md` §13, "Why
    /// there is no pool"); `_workers` is accepted and ignored because the
    /// benchmark package pins this signature.
    pub fn new(_workers: usize) -> Self {
        BatchAnalyzer
    }

    /// Analyze a batch from scratch. The returned
    /// [`BatchAnalysis::diagnostics`] list is byte-identical to
    /// [`crate::analyze_batch_with`] on the same inputs.
    pub fn analyze(&self, plans: &[PreparedUpdate], ctx: &AnalysisContext<'_>) -> BatchAnalysis {
        let records = plans.iter().map(|p| PlanRecord::lint(p, ctx)).collect();
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
        let mut revalidated = 0;
        let mut records = Vec::with_capacity(plans.len());
        for (plan, o) in plans.iter().zip(&origin) {
            // The cached record stands when the plan was carried over and
            // its lint saw the installed version `ctx` holds now.
            let cached = o
                .map(|p| &prev.per_plan[p])
                .filter(|r| r.installed == ctx.installed.get(&plan.flow).copied());
            records.push(match cached {
                Some(r) => r.clone(),
                None => {
                    revalidated += 1;
                    PlanRecord::lint(plan, ctx)
                }
            });
        }
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
    /// version check, per-component waits-for analysis, and final
    /// diagnostic assembly in the reference emission order.
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

    /// The link-indexed waits-for analysis. Returns each non-trivial
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
        let edges: Vec<PlanEdges> = plans.iter().map(PlanEdges::of).collect();
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
        // Ordered per-vertex sets: a pair that contends on several links
        // is one edge, and neighbours come out ascending — exactly the
        // adjacency of the pairwise reference construction, which scans
        // `b` upward and admits `a → b` iff *some* shared link contends.
        let mut adj_sets: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        let mut dsu = Dsu::new(n);
        for (&link, (sources, targets)) in &by_link {
            for &a in sources {
                for &b in targets {
                    if a != b
                        && edges[a].flow != edges[b].flow
                        && contended(ctx.topo, link, &edges[a], &edges[b])
                    {
                        adj_sets[a].insert(b);
                        dsu.union(a, b);
                    }
                }
            }
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
        // Cycle detection per component; reuse a previous component's
        // cycles when the member sets correspond exactly through the
        // delta's origin map.
        groups
            .into_values()
            .filter(|members| members.len() >= 2)
            .map(|members| {
                let cycles = cache
                    .as_ref()
                    .and_then(|ca| ca.lookup(&members))
                    .unwrap_or_else(|| local_cycles(&adj, &members));
                (members, cycles)
            })
            .collect()
    }
}

/// The cycles of one component, vertices renamed to positions in the
/// ascending `members` list (the form [`BatchAnalysis`] caches).
fn local_cycles(adj: &[Vec<usize>], members: &[usize]) -> Vec<Vec<usize>> {
    find_cycles(adj, members.iter().copied())
        .into_iter()
        .map(|cycle| {
            cycle
                .iter()
                .map(|g| members.binary_search(g).expect("cycle vertex in component"))
                .collect()
        })
        .collect()
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
    use p4update_des::propcheck::{cases, forall};
    use p4update_des::SimRng;
    use p4update_net::{FlowId, FlowUpdate, Path};
    use std::cell::Cell;

    #[test]
    fn empty_and_single_plan_batches_work() {
        let engine = BatchAnalyzer::new(1);
        let ctx = AnalysisContext::default();
        let empty = engine.analyze(&[], &ctx);
        assert!(empty.diagnostics().is_empty());
        assert_eq!(empty.plan_count(), 0);
        let one = [gen_swap(&mut SimRng::new(1), 0)];
        let got = engine.analyze(&one, &ctx);
        assert_eq!(got.diagnostics(), &analyze_batch_with(&one, &ctx)[..]);
    }

    /// `flow` swapping between two of the `MIDS` parallel two-hop routes
    /// of one of `REGIONS` node-disjoint regions. With no topology every
    /// shared link contends, so `a` waits for `b` exactly when `a` moves
    /// onto the route `b` leaves — few mid nodes make cycles common, and
    /// the regions keep several components apart.
    fn gen_swap(rng: &mut SimRng, flow: usize) -> PreparedUpdate {
        const REGIONS: usize = 2;
        const MIDS: usize = 3;
        let base = 10 * rng.uniform_usize(REGIONS) as u32;
        let old = rng.uniform_usize(MIDS);
        let new = (old + 1 + rng.uniform_usize(MIDS - 1)) % MIDS;
        let route =
            |mid: usize| Path::new([base, base + 1 + mid as u32, base + 9].map(NodeId).to_vec());
        let u = FlowUpdate::new(FlowId(flow as u32), Some(route(old)), route(new), 1.0);
        prepare_update(&u, Version(2), Strategy::Auto)
    }

    /// `reanalyze` over batches *with* waits-for components: whatever the
    /// delta removes, revises or appends, the result equals a fresh
    /// `analyze` of the post-delta batch and the pairwise reference, and
    /// over the run the component cache is hit — including through an
    /// origin map shifted by a removal ahead of the reused component.
    #[test]
    fn reanalyze_matches_analyze_on_batches_with_components() {
        let (reused, shifted, with_cycles) = (Cell::new(0u32), Cell::new(0u32), Cell::new(0u32));
        let bump = |c: &Cell<u32>| c.set(c.get() + 1);
        let name = "reanalyze_matches_analyze_on_batches_with_components";
        forall(name, cases(256), |rng| {
            let n = 2 + rng.uniform_usize(7);
            let plans: Vec<PreparedUpdate> = (0..n).map(|i| gen_swap(rng, i)).collect();
            let ctx = AnalysisContext::default();
            let engine = BatchAnalyzer::new(1);
            let full = engine.analyze(&plans, &ctx);
            assert_eq!(full.diagnostics(), &analyze_batch_with(&plans, &ctx)[..]);

            // The delta, and beside it the batch it must produce and each
            // new position's previous one when carried over unchanged.
            let mut delta = PlanDelta::default();
            let (mut next, mut origin) = (Vec::new(), Vec::new());
            for (i, plan) in plans.iter().enumerate() {
                match rng.uniform_usize(8) {
                    0 => delta.removed.push(i),
                    1 => {
                        let revision = gen_swap(rng, i);
                        delta.revised.push((i, revision.clone()));
                        next.push(revision);
                        origin.push(None);
                    }
                    _ => {
                        next.push(plan.clone());
                        origin.push(Some(i));
                    }
                }
            }
            for j in 0..rng.uniform_usize(3) {
                let plan = gen_swap(rng, n + j);
                delta.added.push(plan.clone());
                next.push(plan);
                origin.push(None);
            }

            let got = engine.reanalyze(&full, &delta, &ctx);
            let fresh = engine.analyze(&next, &ctx);
            assert_eq!(got.plans(), &next[..]);
            assert_eq!(got.diagnostics(), fresh.diagnostics());
            assert_eq!(got.diagnostics(), &analyze_batch_with(&next, &ctx)[..]);
            assert_eq!(got.components, fresh.components);

            let cache = ComponentCache {
                origin: &origin,
                prev: &full.components,
            };
            for members in got.components.keys() {
                if cache.lookup(members).is_some() {
                    bump(&reused);
                    if members.iter().any(|&i| origin[i] != Some(i)) {
                        bump(&shifted);
                    }
                }
            }
            let cyclic = |d: &Diagnostic| d.code == crate::Code::WaitsForCycle;
            if got.diagnostics().iter().any(cyclic) {
                bump(&with_cycles);
            }
        });
        assert!(reused.get() > 0, "no case reused a cached component");
        assert!(shifted.get() > 0, "no reuse went through shifted indices");
        assert!(with_cycles.get() > 0, "no case reported a cycle");
    }
}
