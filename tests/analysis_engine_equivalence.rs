//! Differential tests for the link-indexed, incremental [`BatchAnalyzer`]:
//!
//! 1. **Engine equivalence** — for every scenario in the explore
//!    registry, across several seeds, and for the generated fat-tree
//!    batches the benchmark lints, the engine emits a diagnostic list
//!    *byte-identical* to the pairwise `analyze_batch_with` reference
//!    (same findings, same order, same rendered text).
//! 2. **Incremental economy** — after a single-plan [`PlanDelta`], the
//!    `reanalyze` path revalidates strictly fewer plans than a full
//!    re-lint would, while still producing byte-identical diagnostics.
//!
//! These batches have no waits-for edges; `reanalyze` over batches that
//! do is covered by the propcheck differential in
//! `crates/analysis/src/engine.rs`.

use p4update::analysis::{analyze_batch_with, is_clean, AnalysisContext, BatchAnalyzer, PlanDelta};
use p4update::core::{prepare_update, PreparedUpdate, Strategy};
use p4update::explore::scenarios;
use p4update::net::{topologies, FlowId, Version};
use p4update::traffic::bench_workload;
use std::collections::BTreeMap;

/// Prepare a batch the way the controller would: migrations of a known
/// flow bump its installed version, a migration of an unseen flow moves
/// installed version 1 to 2, fresh deployments start at 1. Returns the
/// prepared batch plus the installed-version context in force when it was
/// prepared.
fn prepare_batch(
    batch: &[p4update::net::FlowUpdate],
    installed: &mut BTreeMap<FlowId, Version>,
) -> (Vec<PreparedUpdate>, BTreeMap<FlowId, Version>) {
    let mut snapshot = installed.clone();
    let plans = batch
        .iter()
        .map(|u| {
            let version = match installed.get(&u.flow) {
                Some(v) => v.next(),
                None if u.old_path.is_some() => {
                    installed.insert(u.flow, Version(1));
                    snapshot.insert(u.flow, Version(1));
                    Version(2)
                }
                None => Version(1),
            };
            installed.insert(u.flow, version);
            prepare_update(u, version, Strategy::Auto)
        })
        .collect();
    (plans, snapshot)
}

/// Assert the engine matches the pairwise reference byte-for-byte.
fn assert_equivalent(plans: &[PreparedUpdate], ctx: &AnalysisContext<'_>, what: &str) {
    let reference = analyze_batch_with(plans, ctx);
    let analysis = BatchAnalyzer::new(1).analyze(plans, ctx);
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
}

/// Every registry scenario × several seeds: the engine is equivalent to
/// the reference analyzer on each batch the scenario schedules.
#[test]
fn engine_matches_sequential_on_every_registry_scenario() {
    let mut batches_seen = 0usize;
    for name in scenarios::names() {
        for seed in [1u64, 7, 23] {
            let built = scenarios::build(name, seed)
                .unwrap_or_else(|| panic!("registry name {name:?} must build"));
            let world = built.sim.into_world();
            let topo = world.topology().clone();
            let mut installed = BTreeMap::new();
            for batch in world.batches() {
                let (plans, snapshot) = prepare_batch(batch, &mut installed);
                let ctx = AnalysisContext::with_installed(Some(&topo), snapshot);
                assert_equivalent(&plans, &ctx, &format!("{name} seed {seed}"));
                batches_seen += 1;
            }
        }
    }
    assert!(
        batches_seen >= scenarios::names().len(),
        "registry walk must exercise at least one batch per scenario"
    );
}

/// The generated fat-tree batches — ft64, and ft512, `lint-churn`'s size —
/// prepared as the benchmark prepares them: the engine is equivalent to
/// the reference on each, and each lints error-free.
#[test]
fn engine_matches_sequential_on_generated_fat_tree_batches() {
    for (name, topo) in [
        ("ft64", topologies::synthetic_fat_tree_64()),
        ("ft512", topologies::synthetic_fat_tree_512()),
    ] {
        let (plans, installed) =
            prepare_batch(&bench_workload(&topo, 1).updates, &mut BTreeMap::new());
        let ctx = AnalysisContext::with_installed(Some(&topo), installed);
        assert_equivalent(&plans, &ctx, name);
        assert!(
            is_clean(&analyze_batch_with(&plans, &ctx)),
            "{name}: a generated batch must lint error-free"
        );
    }
}

/// Incremental re-analysis after a single-plan delta revalidates strictly
/// fewer plans than the batch holds, and the result is byte-identical to
/// a from-scratch analysis of the revised batch.
#[test]
fn incremental_reanalysis_revalidates_strictly_fewer_plans() {
    let topo = topologies::synthetic_fat_tree_64();
    let (plans, installed) = prepare_batch(&bench_workload(&topo, 1).updates, &mut BTreeMap::new());
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
    let (plans, installed) = prepare_batch(&bench_workload(&topo, 1).updates, &mut BTreeMap::new());
    let ctx = AnalysisContext::with_installed(Some(&topo), installed);
    let engine = BatchAnalyzer::new(1);
    let full = engine.analyze(&plans, &ctx);
    let noop = engine.reanalyze(&full, &PlanDelta::default(), &ctx);
    assert_eq!(noop.revalidated(), 0);
    assert_eq!(noop.diagnostics(), full.diagnostics());
}
