//! `BatchAnalyzer`: the batch linter, link-indexed and incremental.
//!
//! It lints every plan, then checks the batch as a whole: version
//! monotonicity per flow and waits-for cycles. Its test oracle
//! (`conflicts::oracle`) builds the waits-for graph by an O(n²) pairwise
//! scan, and the differentials below hold the engine to it byte for byte;
//! `tests/analysis_engine_equivalence.rs` checks the controller's batches
//! with a pairwise scan of its own. The engine's cost follows what can
//! interact and what changed:
//!
//! - **Link-indexed**: a waits-for edge `A → B` needs a directed link on
//!   `A`'s new path that lies on `B`'s old path, so only plan pairs that
//!   share a directed link are examined; the cycle search over the result
//!   is the oracle's.
//! - **Incremental**: every per-plan lint is cached in the
//!   [`BatchAnalysis`], so [`BatchAnalyzer::reanalyze`] re-lints only the
//!   plans a [`PlanDelta`] touched. The waits-for graph is rebuilt on
//!   every pass: no batch the repository lints has a waits-for edge, so a
//!   cache of it has nothing to save (`DESIGN.md` §12).

use crate::conflicts::{
    check_batch_versions, contended, cycle_diagnostics, find_cycles, PlanEdges,
};
use crate::delta::PlanDelta;
use crate::{analyze_with, AnalysisContext, Diagnostic};
use p4update_core::PreparedUpdate;
use p4update_net::{NodeId, Version};
use std::collections::BTreeSet;

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
/// the records a delta reuses) live in the [`BatchAnalysis`] it returns.
#[derive(Debug, Clone, Copy)]
pub struct BatchAnalyzer;

impl BatchAnalyzer {
    /// The engine. It runs on the calling thread (`DESIGN.md` §12, "Why
    /// there is no pool"); `_workers` is accepted and ignored because the
    /// benchmark package pins this signature.
    pub fn new(_workers: usize) -> Self {
        BatchAnalyzer
    }

    /// Analyze a batch from scratch.
    pub fn analyze(&self, plans: &[PreparedUpdate], ctx: &AnalysisContext<'_>) -> BatchAnalysis {
        let records = plans.iter().map(|p| PlanRecord::lint(p, ctx)).collect();
        self.assemble(plans.to_vec(), records, plans.len(), ctx)
    }

    /// Re-analyze `prev`'s batch after `delta`, reusing every per-plan
    /// lint whose inputs did not change: a record stands when the plan was
    /// carried over and its lint saw the installed version of its flow that
    /// `ctx` holds now. The result is byte-identical to a full
    /// [`Self::analyze`] of the post-delta batch (asserted by the
    /// differential suites). `ctx` must target the same topology as the
    /// previous analysis — the cache does not fingerprint the topology.
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
        self.assemble(plans, records, revalidated, ctx)
    }

    /// Shared back half of [`Self::analyze`] / [`Self::reanalyze`]: the batch
    /// checks, and the diagnostic list in its emission order.
    fn assemble(
        &self,
        plans: Vec<PreparedUpdate>,
        per_plan: Vec<PlanRecord>,
        revalidated: usize,
        ctx: &AnalysisContext<'_>,
    ) -> BatchAnalysis {
        let mut diags: Vec<Diagnostic> = Vec::new();
        for r in &per_plan {
            diags.extend(r.diags.iter().cloned());
        }
        check_batch_versions(&plans, &mut diags);
        let cycles = find_cycles(&self.waits_for(&plans, ctx));
        cycle_diagnostics(&plans, &cycles, &mut diags);
        BatchAnalysis {
            plans,
            per_plan,
            diags,
            revalidated,
        }
    }

    /// The waits-for adjacency, built from the link index.
    fn waits_for(&self, plans: &[PreparedUpdate], ctx: &AnalysisContext<'_>) -> Vec<Vec<usize>> {
        let edges: Vec<PlanEdges> = plans.iter().map(PlanEdges::of).collect();
        // Link index: one `(link, leaving, plan)` entry per directed link a
        // plan moves onto (its new path: an edge source) or off (old but
        // not new: an edge target), sorted, so that every link's entries
        // are one run — its sources, then its targets, each in plan order.
        // Only these pairs can contend, so the construction never touches
        // the n² pair space.
        let bound = edges
            .iter()
            .map(|e| e.new_edges.len() + e.old_edges.len())
            .sum();
        let mut index: Vec<((NodeId, NodeId), bool, u32)> = Vec::with_capacity(bound);
        for (i, e) in edges.iter().enumerate() {
            let i = i as u32;
            index.extend(e.new_edges.iter().map(|&l| (l, false, i)));
            let vacated = e.old_edges.iter().filter(|l| e.vacates(l));
            index.extend(vacated.map(|&l| (l, true, i)));
        }
        index.sort_unstable();
        // Ordered per-vertex sets: a pair that contends on several links
        // is one edge, and neighbours come out ascending — exactly the
        // adjacency of the pairwise oracle, which scans `b` upward and
        // admits `a → b` iff *some* shared link contends.
        let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); plans.len()];
        for run in index.chunk_by(|x, y| x.0 == y.0) {
            let link = run[0].0;
            let (sources, targets) = run.split_at(run.partition_point(|&(_, leaving, _)| !leaving));
            for &(_, _, a) in sources {
                for &(_, _, b) in targets {
                    let (a, b) = (a as usize, b as usize);
                    if a != b
                        && edges[a].flow != edges[b].flow
                        && contended(ctx.topo, link, &edges[a], &edges[b])
                    {
                        adj[a].insert(b);
                    }
                }
            }
        }
        adj.into_iter().map(|s| s.into_iter().collect()).collect()
    }
}

/// The result of one engine pass: the analyzed plans, the diagnostic list,
/// and the per-plan records the next [`BatchAnalyzer::reanalyze`] call
/// draws on.
#[derive(Debug, Clone)]
pub struct BatchAnalysis {
    plans: Vec<PreparedUpdate>,
    per_plan: Vec<PlanRecord>,
    diags: Vec<Diagnostic>,
    revalidated: usize,
}

impl BatchAnalysis {
    /// The plans this analysis covers, in batch order.
    pub fn plans(&self) -> &[PreparedUpdate] {
        &self.plans
    }

    /// Every finding: per-plan diagnostics in plan order, then batch
    /// version conflicts, then waits-for cycles in canonical order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// How many plans this pass linted rather than reusing a cached record:
    /// the plan count for a fresh [`BatchAnalyzer::analyze`], fewer whenever
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
    use crate::conflicts::oracle::lint_batch;
    use p4update_core::{prepare_update, Strategy};
    use p4update_des::propcheck::{cases, forall};
    use p4update_des::SimRng;
    use p4update_net::{FlowId, FlowUpdate, Path};
    use std::cell::Cell;

    /// `flow` moving from the `old`-th to the `new`-th parallel two-hop
    /// route of `region` (regions are node-disjoint). With no topology
    /// every shared link contends, so `a` waits for `b` exactly when `a`
    /// moves onto the route `b` leaves.
    fn swap(flow: usize, region: u32, old: u32, new: u32) -> PreparedUpdate {
        swap_at(flow, region, old, new, 2)
    }

    /// [`swap`] at `version`.
    fn swap_at(flow: usize, region: u32, old: u32, new: u32, version: u32) -> PreparedUpdate {
        let base = 10 * region;
        let route = |mid: u32| Path::new([base, base + 1 + mid, base + 9].map(NodeId).to_vec());
        let u = FlowUpdate::new(FlowId(flow as u32), Some(route(old)), route(new), 1.0);
        prepare_update(&u, Version(version), Strategy::Auto)
    }

    /// A random [`swap`] among three routes of one of two regions: few
    /// routes make cycles common, two regions keep disjoint groups apart.
    /// One plan in four past the first repeats an earlier plan's flow at
    /// version 1, 2 or 3, so a batch may hold a flow's versions in any
    /// order (P4U011) — `flow` is the plan's position.
    fn gen_swap(rng: &mut SimRng, flow: usize) -> PreparedUpdate {
        let (region, old) = (rng.uniform_usize(2) as u32, rng.uniform_usize(3) as u32);
        let new = (old + 1 + rng.uniform_usize(2) as u32) % 3;
        let (flow, version) = if flow > 0 && rng.uniform_usize(4) == 0 {
            (rng.uniform_usize(flow), 1 + rng.uniform_usize(3) as u32)
        } else {
            (flow, 2)
        };
        swap_at(flow, region, old, new, version)
    }

    /// The flows of every reported cycle, in emission order.
    fn cycles(diags: &[Diagnostic]) -> Vec<&str> {
        let mut flows = Vec::new();
        for d in diags
            .iter()
            .filter(|d| d.code == crate::Code::WaitsForCycle)
        {
            flows.push(d.message.split([':', ';']).nth(1).expect("flows").trim());
        }
        flows
    }

    /// Two link-disjoint cycles (f1 <-> f2 in region 0, f3 -> f4 -> f5 in
    /// region 1), a plan that waits on the first without closing a cycle
    /// (f6) and one alone in its region (f0). The delta removes f0 — ahead
    /// of both cycles, so every index shifts — and revises f4 so region 1
    /// holds a different cycle.
    #[test]
    fn reanalyze_follows_two_disjoint_cycles_through_a_shifting_delta() {
        let plans = vec![
            swap(0, 2, 0, 1),
            swap(1, 0, 0, 1),
            swap(2, 0, 1, 0),
            swap(3, 1, 0, 1),
            swap(4, 1, 1, 2),
            swap(5, 1, 2, 0),
            swap(6, 0, 2, 0),
        ];
        let ctx = AnalysisContext::default();
        let engine = BatchAnalyzer;
        let full = engine.analyze(&plans, &ctx);
        assert_eq!(full.diagnostics(), &lint_batch(&plans, &ctx)[..]);
        assert_eq!(cycles(full.diagnostics()), ["f1 -> f2", "f3 -> f4 -> f5"]);

        let delta = PlanDelta {
            removed: vec![0],
            revised: vec![(4, swap(4, 1, 1, 0))],
            added: Vec::new(),
        };
        let mut next = plans[1..].to_vec();
        next[3] = swap(4, 1, 1, 0);
        let got = engine.reanalyze(&full, &delta, &ctx);
        assert_eq!(got.plans(), &next[..]);
        assert_eq!(got.revalidated(), 1);
        assert_eq!(got.diagnostics(), engine.analyze(&next, &ctx).diagnostics());
        assert_eq!(got.diagnostics(), &lint_batch(&next, &ctx)[..]);
        assert_eq!(cycles(got.diagnostics()), ["f1 -> f2", "f3 -> f4"]);
    }

    /// `reanalyze` over batches *with* waits-for cycles and repeated flows
    /// (and empty and single-plan ones): whatever the delta removes,
    /// revises or appends, the result equals a fresh `analyze` of the
    /// post-delta batch and the pairwise oracle.
    #[test]
    fn reanalyze_matches_analyze_on_batches_with_cycles() {
        let (with_cycles, with_conflicts) = (Cell::new(0u32), Cell::new(0u32));
        let name = "reanalyze_matches_analyze_on_batches_with_cycles";
        forall(name, cases(256), |rng| {
            let n = rng.uniform_usize(9);
            let plans: Vec<PreparedUpdate> = (0..n).map(|i| gen_swap(rng, i)).collect();
            let ctx = AnalysisContext::default();
            let engine = BatchAnalyzer;
            let full = engine.analyze(&plans, &ctx);
            assert_eq!(full.diagnostics(), &lint_batch(&plans, &ctx)[..]);
            assert_eq!((full.plan_count(), full.revalidated()), (n, n));

            // The delta, and beside it the batch it must produce.
            let mut delta = PlanDelta::default();
            let mut next = Vec::new();
            for (i, plan) in plans.iter().enumerate() {
                match rng.uniform_usize(8) {
                    0 => delta.removed.push(i),
                    1 => {
                        let revision = gen_swap(rng, i);
                        delta.revised.push((i, revision.clone()));
                        next.push(revision);
                    }
                    _ => next.push(plan.clone()),
                }
            }
            for j in 0..rng.uniform_usize(3) {
                let plan = gen_swap(rng, n + j);
                delta.added.push(plan.clone());
                next.push(plan);
            }

            let got = engine.reanalyze(&full, &delta, &ctx);
            assert_eq!(got.plans(), &next[..]);
            assert_eq!(got.diagnostics(), engine.analyze(&next, &ctx).diagnostics());
            assert_eq!(got.diagnostics(), &lint_batch(&next, &ctx)[..]);
            if !cycles(got.diagnostics()).is_empty() {
                with_cycles.set(with_cycles.get() + 1);
            }
            let is_conflict = |d: &&Diagnostic| d.code == crate::Code::BatchVersionConflict;
            if got.diagnostics().iter().filter(is_conflict).count() > 1 {
                with_conflicts.set(with_conflicts.get() + 1);
            }
        });
        assert!(with_cycles.get() > 0, "no case reported a cycle");
        assert!(
            with_conflicts.get() > 0,
            "no case reported two version conflicts"
        );
    }
}
