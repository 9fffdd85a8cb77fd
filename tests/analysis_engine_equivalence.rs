//! Differential tests for the link-indexed, incremental [`BatchAnalyzer`],
//! and the lint every plan the controller makes must pass:
//!
//! 1. **Engine equivalence** — for every scenario in the explore
//!    registry, across several seeds, and for the generated fat-tree
//!    batches the benchmark lints, the engine emits a diagnostic list
//!    *byte-identical* to the pairwise `analyze_batch_with` reference
//!    (same findings, same order, same rendered text).
//! 2. **Plans are linted where they are made** — each batch is prepared
//!    by the controller's own version rule (`batch_versions`, with
//!    earlier batches in flight) and must lint with no error: the
//!    registry scenarios, the Fig. 1 migration under every strategy,
//!    Fig. 4's second update, `single_flow` and `multi_flow` on the WANs,
//!    and the fat-tree batches. Warnings are allowed.
//! 3. **Incremental economy** — after a single-plan [`PlanDelta`], the
//!    `reanalyze` path revalidates strictly fewer plans than a full
//!    re-lint would, while still producing byte-identical diagnostics.
//!
//! These batches have no waits-for edges; `reanalyze` over batches that
//! do is covered by the propcheck differential in
//! `crates/analysis/src/engine.rs`.

use p4update::analysis::{analyze_batch_with, is_clean, AnalysisContext, BatchAnalyzer, PlanDelta};
use p4update::core::{prepare_update, P4UpdateController, PreparedUpdate, Strategy};
use p4update::dataplane::ControllerLogic;
use p4update::des::{SimRng, SimTime};
use p4update::explore::scenarios;
use p4update::net::{topologies, FlowId, FlowUpdate, NodeId, Path, Topology, Version};
use p4update::traffic::{bench_workload, multi_flow, single_flow};
use std::collections::BTreeMap;

const STRATEGIES: [Strategy; 3] = [Strategy::Auto, Strategy::ForceSingle, Strategy::ForceDual];

/// One prepared batch and the installed versions of its flows when it was
/// prepared.
type Prepared = (Vec<PreparedUpdate>, BTreeMap<FlowId, Version>);

/// Prepare `batches` in order as the controller does: a
/// `P4UpdateController` on `strategy` knows each flow of `installed` at
/// version 1, versions each batch with `batch_versions`, and moves past it
/// with `start_update`, so a later batch is prepared while the earlier
/// ones are in flight.
fn controller_plans(
    installed: impl IntoIterator<Item = FlowId>,
    batches: &[Vec<FlowUpdate>],
    strategy: Strategy,
) -> Vec<Prepared> {
    let mut controller = P4UpdateController::new(strategy);
    for flow in installed {
        controller.register_flow(flow, Version(1));
    }
    batches
        .iter()
        .map(|batch| {
            let plans = batch
                .iter()
                .zip(controller.batch_versions(batch))
                .map(|(u, v)| prepare_update(u, v, strategy))
                .collect();
            let installed = batch
                .iter()
                .filter_map(|u| controller.current_version(u.flow).map(|v| (u.flow, v)))
                .collect();
            controller.start_update(SimTime::ZERO, batch, &mut Vec::new());
            (plans, installed)
        })
        .collect()
}

/// [`controller_plans`] for one batch whose old paths are installed.
fn controller_batch(batch: &[FlowUpdate], strategy: Strategy) -> Prepared {
    let installed = batch
        .iter()
        .filter(|u| u.old_path.is_some())
        .map(|u| u.flow);
    let mut prepared = controller_plans(installed, &[batch.to_vec()], strategy);
    prepared.pop().expect("one batch in, one out")
}

/// Assert the engine matches the pairwise reference byte-for-byte, and
/// that no finding is an error.
fn assert_lints_clean(topo: &Topology, (plans, installed): &Prepared, what: &str) {
    let ctx = AnalysisContext::with_installed(Some(topo), installed.clone());
    let reference = analyze_batch_with(plans, &ctx);
    let analysis = BatchAnalyzer::new(1).analyze(plans, &ctx);
    assert_eq!(
        analysis.diagnostics(),
        reference.as_slice(),
        "{what}: the engine diverged from the reference analyzer"
    );
    let render = |ds: &[p4update::analysis::Diagnostic]| -> Vec<String> {
        ds.iter().map(ToString::to_string).collect()
    };
    assert_eq!(
        render(analysis.diagnostics()),
        render(&reference),
        "{what}: the engine's rendering is not byte-identical"
    );
    assert!(
        is_clean(&reference),
        "{what}: a prepared plan lints with errors: {reference:?}"
    );
}

/// Every registry scenario × several seeds × every strategy: each batch
/// the scenario schedules, prepared by the controller, lints error-free
/// and the engine is equivalent to the reference analyzer on it.
#[test]
fn engine_matches_sequential_on_every_registry_scenario() {
    let mut batches_seen = 0usize;
    for name in scenarios::names() {
        for seed in [1u64, 7, 23] {
            let built = scenarios::build(name, seed)
                .unwrap_or_else(|| panic!("registry name {name:?} must build"));
            let world = built.sim.into_world();
            for strategy in STRATEGIES {
                let installed = world.flows.keys().copied();
                let prepared = controller_plans(installed, world.batches(), strategy);
                for batch in &prepared {
                    let what = format!("{name} seed {seed} {strategy:?}");
                    assert_lints_clean(world.topology(), batch, &what);
                    batches_seen += 1;
                }
            }
        }
    }
    assert!(
        batches_seen >= scenarios::names().len(),
        "registry walk must exercise at least one batch per scenario"
    );
}

/// The paper's single-flow batches, prepared by the controller, lint
/// error-free: the Fig. 1 migration under every strategy, Fig. 4's second
/// update prepared while the first is in flight, and `single_flow` on b4
/// and internet2.
#[test]
fn controller_plans_of_the_paper_scenarios_lint_error_free() {
    let fig1 = topologies::fig1();
    let old = Path::new(topologies::fig1_old_path());
    let new = Path::new(topologies::fig1_new_path());
    let migration = FlowUpdate::new(FlowId(0), Some(old), new, 1.0);
    for strategy in STRATEGIES {
        let prepared = controller_batch(std::slice::from_ref(&migration), strategy);
        assert_lints_clean(&fig1, &prepared, &format!("fig1 {strategy:?}"));
    }

    // Fig. 4: U2 (V1 -> V2) is in flight when U3 (V2 -> V3) is prepared,
    // so U3 takes version 3 against installed version 1.
    let fig4 = topologies::fig4_net();
    let p = |ids: &[u32]| Path::new(ids.iter().copied().map(NodeId).collect());
    let (v1, v2, v3) = (p(&[0, 1, 3, 5]), p(&[0, 2, 4, 3, 1, 5]), p(&[0, 5]));
    let u2 = FlowUpdate::new(FlowId(0), Some(v1), v2.clone(), 1.0);
    let u3 = FlowUpdate::new(FlowId(0), Some(v2), v3, 1.0);
    let prepared = controller_plans([FlowId(0)], &[vec![u2], vec![u3]], Strategy::Auto);
    assert_eq!(prepared[1].0[0].version, Version(3));
    assert_eq!(prepared[1].1[&FlowId(0)], Version(1));
    for (i, batch) in prepared.iter().enumerate() {
        assert_lints_clean(&fig4, batch, &format!("fig4 batch {i}"));
    }

    for (name, topo) in [
        ("b4", topologies::b4()),
        ("internet2", topologies::internet2()),
    ] {
        let update = single_flow(&topo);
        for strategy in STRATEGIES {
            let prepared = controller_batch(std::slice::from_ref(&update), strategy);
            assert_lints_clean(
                &topo,
                &prepared,
                &format!("single_flow {name} {strategy:?}"),
            );
        }
    }
}

/// `wan-sweep`'s batches — `multi_flow` at load 0.55 on its five
/// topologies, seeds 1-8 — prepared by the controller under every
/// strategy, lint error-free.
#[test]
fn controller_plans_of_wan_multi_flow_batches_lint_error_free() {
    for (name, topo) in [
        ("b4", topologies::b4()),
        ("internet2", topologies::internet2()),
        ("att_mpls", topologies::att_mpls()),
        ("chinanet", topologies::chinanet()),
        ("fat_tree_k4", topologies::fat_tree(4)),
    ] {
        for seed in 1..=8u64 {
            let batch = multi_flow(&topo, &mut SimRng::new(seed), 0.55).updates;
            for strategy in STRATEGIES {
                let prepared = controller_batch(&batch, strategy);
                let what = format!("multi_flow {name} seed {seed} {strategy:?}");
                assert_lints_clean(&topo, &prepared, &what);
            }
        }
    }
}

/// The generated fat-tree batches — ft64, and ft512, `lint-churn`'s size —
/// prepared by the controller: the engine is equivalent to the reference
/// on each, and each lints error-free.
#[test]
fn engine_matches_sequential_on_generated_fat_tree_batches() {
    for (name, topo) in [
        ("ft64", topologies::synthetic_fat_tree_64()),
        ("ft512", topologies::synthetic_fat_tree_512()),
    ] {
        let prepared = controller_batch(&bench_workload(&topo, 1).updates, Strategy::Auto);
        assert_lints_clean(&topo, &prepared, name);
    }
}

/// Incremental re-analysis after a single-plan delta revalidates strictly
/// fewer plans than the batch holds, and the result is byte-identical to
/// a from-scratch analysis of the revised batch.
#[test]
fn incremental_reanalysis_revalidates_strictly_fewer_plans() {
    let topo = topologies::synthetic_fat_tree_64();
    let (plans, installed) = controller_batch(&bench_workload(&topo, 1).updates, Strategy::Auto);
    let ctx = AnalysisContext::with_installed(Some(&topo), installed);
    let engine = BatchAnalyzer::new(1);
    let full = engine.analyze(&plans, &ctx);
    assert_eq!(full.revalidated(), plans.len(), "cold run lints everything");

    // Revise exactly one plan: bump its version (and its UIMs' versions,
    // as the controller would when re-preparing).
    let mut revised = plans.clone();
    let bumped = revised[0].version.next();
    revised[0].version = bumped;
    for (_, uim) in &mut revised[0].uims {
        uim.version = bumped;
    }
    let delta = PlanDelta::diff(&plans, &revised);
    assert_eq!(delta.touched(), 1, "exactly one plan changed");

    let incremental = engine.reanalyze(&full, &delta, &ctx);
    assert!(
        incremental.revalidated() < plans.len(),
        "single-plan delta must revalidate strictly fewer plans than a \
         full re-lint ({} of {})",
        incremental.revalidated(),
        plans.len()
    );
    assert!(incremental.revalidated() >= 1, "the revised plan re-lints");
    assert_eq!(
        incremental.diagnostics(),
        analyze_batch_with(&revised, &ctx).as_slice(),
        "incremental result must match a from-scratch analysis"
    );
}

/// An empty delta revalidates nothing and reproduces the previous result.
#[test]
fn empty_delta_revalidates_nothing() {
    let topo = topologies::synthetic_fat_tree_64();
    let (plans, installed) = controller_batch(&bench_workload(&topo, 1).updates, Strategy::Auto);
    let ctx = AnalysisContext::with_installed(Some(&topo), installed);
    let engine = BatchAnalyzer::new(1);
    let full = engine.analyze(&plans, &ctx);
    let noop = engine.reanalyze(&full, &PlanDelta::default(), &ctx);
    assert_eq!(noop.revalidated(), 0);
    assert_eq!(noop.diagnostics(), full.diagnostics());
}
