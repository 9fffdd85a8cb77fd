//! # p4update-analysis
//!
//! Static plan verifier: lints the output of `prepare_update` /
//! `prepare_batch` against the proof-labeling invariants of the P4Update
//! paper *before* a plan ships to any switch — no execution, no simulator.
//!
//! The data-plane verifiers (Algorithms 1 and 2) catch inconsistent updates
//! at runtime, hop by hop. This crate is the complementary tool: given a
//! [`PreparedUpdate`] (and optionally the [`Topology`] it targets), it
//! re-derives what the labels and messages a plan ships *must* look like
//! and reports every divergence as a [`Diagnostic`] with a stable
//! `P4Unnn` code, rustc-style:
//!
//! ```text
//! error[P4U001]: f0: at v3: distance label 5 breaks the chain (hop distance to egress is 4)
//! warning[P4U008]: f2: single-layer deployment of a plan with 1 backward segment(s); ...
//! ```
//!
//! ## What is checked
//!
//! | Codes | Invariant |
//! |---|---|
//! | `P4U001`, `P4U002`, `P4U010`, `P4U013` | label soundness: distances strictly decrease toward the egress, next-hop/upstream pointers mirror the new path, one UIM per path node (egress first), usable flow sizes |
//! | `P4U004` | versions strictly exceed installed versions |
//! | `P4U003` | every path edge is a topology link |
//! | `P4U008` | §7.5 mechanism-choice advisory (warning) |
//! | `P4U009` | every UIM round-trips the wire codec |
//! | `P4U011`, `P4U012` | batch-level: version monotonicity per flow, waits-for cycles between concurrent updates (warning) |
//!
//! The linter checks what a plan ships: its UIMs, their labels and its
//! version. `P4U005`-`P4U007` are retired: they checked a segmentation the
//! plan once carried, which no switch ever receives (a dual-layer switch
//! inherits its segment ID from its own old distance, Alg. 2).
//!
//! Errors mean the plan violates an invariant the paper's correctness
//! argument needs; warnings mean the plan is legal but leans on runtime
//! machinery. A plan with an error must not ship; the benchmark counts a
//! batch with one as incorrect, and the test suite lints every batch the
//! controller prepares for the paper's scenarios and the benchmark's
//! workloads.
//!
//! ## Entry points
//!
//! - [`analyze`] — one plan against an optional topology.
//! - [`analyze_with`] — one plan with full context (installed versions).
//! - [`BatchAnalyzer`] — the batch linter: per-plan checks plus the
//!   cross-update checks over a link index, and delta-driven revalidation
//!   ([`PlanDelta`]). Its test oracle is a pairwise O(n²) scan.
//!
//! Plans are linted where they are made, in memory: the analyzer takes
//! what `prepare_update` returned, as the paper's controller does before
//! it ships the labels.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod conflicts;
pub mod delta;
mod diagnostic;
pub mod engine;
mod labels;
mod wire_check;

pub use delta::PlanDelta;
pub use diagnostic::{Code, Diagnostic, Severity};
pub use engine::{BatchAnalysis, BatchAnalyzer};

use p4update_core::PreparedUpdate;
use p4update_net::{FlowId, Topology, Version};
use std::collections::BTreeMap;

/// Everything the analyzer may know about the network a plan targets.
///
/// All fields are optional knowledge: with less context the analyzer checks
/// less (it never guesses), with more it checks more.
#[derive(Debug, Default)]
pub struct AnalysisContext<'a> {
    /// The topology the plan routes over; enables the `P4U003` routability
    /// check and exact capacity reasoning in the waits-for graph.
    pub topo: Option<&'a Topology>,
    /// Currently installed configuration versions, per flow; enables the
    /// `P4U004` installed-version comparison.
    pub installed: BTreeMap<FlowId, Version>,
}

impl<'a> AnalysisContext<'a> {
    /// Context carrying only a topology.
    pub fn with_topo(topo: &'a Topology) -> Self {
        AnalysisContext {
            topo: Some(topo),
            installed: BTreeMap::new(),
        }
    }

    /// Context carrying a topology plus installed versions in bulk, so
    /// batch callers don't insert flow-by-flow.
    pub fn with_installed(
        topo: Option<&'a Topology>,
        installed: impl IntoIterator<Item = (FlowId, Version)>,
    ) -> Self {
        AnalysisContext {
            topo,
            installed: installed.into_iter().collect(),
        }
    }

    /// Record the installed version of a flow. A by-value builder, so
    /// construction chains: `AnalysisContext::with_topo(&t).install(f, v)`.
    #[must_use = "install is a by-value builder; use the returned context"]
    pub fn install(mut self, flow: FlowId, version: Version) -> Self {
        self.installed.insert(flow, version);
        self
    }
}

/// Analyze one prepared plan. `topo` enables routability checking; pass
/// `None` when the plan is synthetic (pure label linting).
pub fn analyze(plan: &PreparedUpdate, topo: Option<&Topology>) -> Vec<Diagnostic> {
    let ctx = AnalysisContext {
        topo,
        installed: BTreeMap::new(),
    };
    analyze_with(plan, &ctx)
}

/// Analyze one prepared plan with full context.
pub fn analyze_with(plan: &PreparedUpdate, ctx: &AnalysisContext<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    labels::check_labels(plan, &mut out);
    labels::check_version(plan, ctx.installed.get(&plan.flow).copied(), &mut out);
    if let Some(topo) = ctx.topo {
        labels::check_topology(plan, topo, &mut out);
    }
    labels::check_mechanism(plan, &mut out);
    wire_check::check_wire(plan, &mut out);
    out
}

/// True when no finding is an error (warnings allowed) — the condition a
/// plan must meet before it ships.
pub fn is_clean(diagnostics: &[Diagnostic]) -> bool {
    !diagnostics.iter().any(Diagnostic::is_error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4update_core::{prepare_update, Strategy};
    use p4update_net::{FlowUpdate, NodeId, Path};

    fn path(ids: &[u32]) -> Path {
        Path::new(ids.iter().map(|&i| NodeId(i)).collect())
    }

    /// The batch linter's findings with no installed versions.
    fn lint_batch(plans: &[PreparedUpdate], topo: Option<&Topology>) -> Vec<Diagnostic> {
        let ctx = AnalysisContext {
            topo,
            installed: BTreeMap::new(),
        };
        BatchAnalyzer.analyze(plans, &ctx).diagnostics().to_vec()
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
    fn well_prepared_plan_is_clean() {
        let plan = prepare_update(&fig1_update(), Version(2), Strategy::Auto);
        let diags = analyze(&plan, None);
        assert!(diags.is_empty(), "unexpected findings: {diags:?}");
    }

    #[test]
    fn fresh_deployment_is_clean() {
        let u = FlowUpdate::new(FlowId(3), None, path(&[0, 2, 5]), 2.0);
        let plan = prepare_update(&u, Version(1), Strategy::Auto);
        assert!(analyze(&plan, None).is_empty());
    }

    #[test]
    fn corrupt_distance_is_p4u001() {
        let mut plan = prepare_update(&fig1_update(), Version(2), Strategy::Auto);
        plan.uims[3].1.new_distance += 1;
        let diags = analyze(&plan, None);
        assert!(diags.iter().any(|d| d.code == Code::LabelChainBroken));
        assert!(!is_clean(&diags));
    }

    #[test]
    fn forced_sl_on_fig1_is_advisory_only() {
        let plan = prepare_update(&fig1_update(), Version(2), Strategy::ForceSingle);
        let diags = analyze(&plan, None);
        assert!(diags.iter().all(|d| d.code == Code::MechanismAdvisory));
        assert!(!diags.is_empty());
        // Warnings do not make a plan unclean.
        assert!(is_clean(&diags));
    }

    #[test]
    fn stale_version_is_p4u004_with_context() {
        let plan = prepare_update(&fig1_update(), Version(2), Strategy::Auto);
        let ctx = AnalysisContext::default().install(FlowId(0), Version(2));
        let diags = analyze_with(&plan, &ctx);
        assert!(diags.iter().any(|d| d.code == Code::VersionNotNewer));
        // Without context the same plan is clean.
        assert!(analyze(&plan, None).is_empty());
    }

    #[test]
    fn batch_duplicate_flow_must_increase_version() {
        let u = fig1_update();
        let plans = vec![
            prepare_update(&u, Version(3), Strategy::Auto),
            prepare_update(&u, Version(2), Strategy::Auto),
        ];
        let diags = lint_batch(&plans, None);
        assert!(diags.iter().any(|d| d.code == Code::BatchVersionConflict));

        let ordered = vec![
            prepare_update(&u, Version(2), Strategy::Auto),
            prepare_update(&u, Version(3), Strategy::Auto),
        ];
        assert!(is_clean(&lint_batch(&ordered, None)));
    }

    #[test]
    fn swapped_paths_form_a_waits_for_cycle() {
        // Two flows exchanging routes with no topology knowledge: each new
        // path uses a directed link on the other's old path.
        let a = FlowUpdate::new(FlowId(1), Some(path(&[0, 1, 3])), path(&[0, 2, 3]), 1.0);
        let b = FlowUpdate::new(FlowId(2), Some(path(&[0, 2, 3])), path(&[0, 1, 3]), 1.0);
        let plans = vec![
            prepare_update(&a, Version(2), Strategy::Auto),
            prepare_update(&b, Version(2), Strategy::Auto),
        ];
        let diags = lint_batch(&plans, None);
        assert!(diags.iter().any(|d| d.code == Code::WaitsForCycle));
        // A deadlock risk is a warning, not an error.
        assert!(is_clean(&diags));
    }

    #[test]
    fn capacity_headroom_dissolves_the_cycle() {
        use p4update_des::SimDuration;
        use p4update_net::TopologyBuilder;
        let mut tb = TopologyBuilder::new("diamond");
        let ids: Vec<NodeId> = (0..4).map(|i| tb.add_node(format!("v{i}"))).collect();
        for (x, y) in [(0, 1), (1, 3), (0, 2), (2, 3)] {
            tb.add_link(ids[x], ids[y], SimDuration::from_millis(1), 10.0);
        }
        let topo = tb.build();
        let a = FlowUpdate::new(FlowId(1), Some(path(&[0, 1, 3])), path(&[0, 2, 3]), 1.0);
        let b = FlowUpdate::new(FlowId(2), Some(path(&[0, 2, 3])), path(&[0, 1, 3]), 1.0);
        let plans = vec![
            prepare_update(&a, Version(2), Strategy::Auto),
            prepare_update(&b, Version(2), Strategy::Auto),
        ];
        // Capacity 10 holds both unit flows: no contention, no cycle.
        let diags = lint_batch(&plans, Some(&topo));
        assert!(
            !diags.iter().any(|d| d.code == Code::WaitsForCycle),
            "{diags:?}"
        );
    }

    #[test]
    fn off_topology_edge_is_p4u003() {
        use p4update_des::SimDuration;
        use p4update_net::TopologyBuilder;
        let mut tb = TopologyBuilder::new("line");
        let v0 = tb.add_node("v0");
        let v1 = tb.add_node("v1");
        let v2 = tb.add_node("v2");
        tb.add_link(v0, v1, SimDuration::from_millis(1), 1.0);
        tb.add_link(v1, v2, SimDuration::from_millis(1), 1.0);
        let topo = tb.build();
        // New path jumps v0 -> v2 directly: not a link.
        let u = FlowUpdate::new(FlowId(0), None, path(&[0, 2]), 1.0);
        let plan = prepare_update(&u, Version(1), Strategy::Auto);
        let diags = analyze(&plan, Some(&topo));
        assert!(diags.iter().any(|d| d.code == Code::UnroutableEdge));
    }
}
