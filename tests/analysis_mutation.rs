//! Randomized mutation suite and analyzer/checker cross-validation.
//!
//! Two complementary properties tie the static analyzer to the runtime:
//!
//! 1. **Sensitivity** — take a well-prepared random plan, flip exactly one
//!    field the proof-labeling scheme depends on, and the analyzer must
//!    report at least one *error*. The unmutated plan must report zero.
//! 2. **Soundness of "clean"** — an analyzer-clean plan, deployed in the
//!    checked discrete-event simulation, must finish with zero
//!    consistency-checker `Violation`s. The analyzer's promise is exactly
//!    that the runtime verifiers never fire.

use p4update::analysis::{
    analyze, is_clean, AnalysisContext, BatchAnalyzer, Code, Diagnostic, PlanDelta, Severity,
};
use p4update::core::{prepare_update, segment_update, PreparedUpdate, Strategy};
use p4update::des::propcheck::{cases, forall};
use p4update::des::{SimRng, SimTime};
use p4update::net::{k_shortest_paths, topologies, FlowId, FlowUpdate, NodeId, Path, Version};
use p4update::sim::{batch_simulation, NetworkSim, SimConfig, System, TimingConfig};
use std::cell::Cell;

/// A random migration: old and new path share endpoints, and the old
/// interior is a random subset of the new interior, in new-path order or,
/// in a quarter of the cases, shuffled (the generator of
/// `tests/properties.rs`). Shuffled shared nodes make backward segments,
/// so SL and DL plans with forward and backward segments appear.
fn gen_update(rng: &mut SimRng) -> FlowUpdate {
    let len = 3 + rng.uniform_usize(7);
    let mut pool: Vec<u32> = (0..32).collect();
    rng.shuffle(&mut pool);
    pool.truncate(len);
    let ingress = pool[0];
    let egress = *pool.last().expect("len >= 3");
    let mut old = vec![ingress];
    for &n in &pool[1..len - 1] {
        if rng.chance(0.5) {
            old.push(n);
        }
    }
    if rng.chance(0.25) {
        rng.shuffle(&mut old[1..]);
    }
    old.push(egress);
    let to_path = |v: &[u32]| Path::new(v.iter().map(|&i| NodeId(i)).collect());
    FlowUpdate::new(
        FlowId(0),
        Some(to_path(&old)),
        to_path(&pool),
        1.0 + rng.uniform_f64(),
    )
}

/// Apply one of the analyzer-visible single-field corruptions. Returns a
/// short name for failure reporting.
fn mutate(plan: &mut PreparedUpdate, rng: &mut SimRng) -> &'static str {
    let n_uims = plan.uims.len();
    let variant = rng.uniform_usize(8);
    if variant == 6 {
        plan.uims.swap_remove(rng.uniform_usize(n_uims));
        return "dropped UIM";
    }
    let (target, uim) = &mut plan.uims[rng.uniform_usize(n_uims)];
    match variant {
        0 => {
            uim.new_distance = uim
                .new_distance
                .wrapping_add(1 + rng.uniform_usize(5) as u32);
            "distance label"
        }
        1 => {
            uim.next_hop = Some(NodeId(1000));
            "next hop"
        }
        2 => {
            uim.upstream = Some(NodeId(1000));
            "upstream"
        }
        3 => {
            uim.version = Version(plan.version.0 + 1);
            "UIM version"
        }
        4 => {
            uim.flow = FlowId(4096);
            "UIM flow"
        }
        5 => {
            uim.flow_size = -1.0;
            "flow size"
        }
        _ => {
            *target = NodeId(1000);
            "UIM target"
        }
    }
}

/// Every single-field mutation is flagged with at least one error; the
/// pristine plan is error-free. Some cases have a backward segment, and
/// some are forced single-layer where the plan needs both layers, which
/// draws P4U008's advisory.
#[test]
fn every_mutation_is_flagged() {
    let (backward, advised) = (Cell::new(0u32), Cell::new(0u32));
    forall("every_mutation_is_flagged", cases(128), |rng| {
        let update = gen_update(rng);
        backward.set(backward.get() + u32::from(!segment_update(&update).forward_only()));
        let version = Version(1 + rng.uniform_usize(9) as u32);
        let strategy =
            [Strategy::Auto, Strategy::ForceDual, Strategy::ForceSingle][rng.uniform_usize(3)];
        let plan = prepare_update(&update, version, strategy);
        let diags = analyze(&plan, None);
        assert!(
            is_clean(&diags),
            "pristine plan must be analyzer-clean: {update:?}"
        );
        advised.set(
            advised.get() + u32::from(diags.iter().any(|d| d.code == Code::MechanismAdvisory)),
        );

        let mut mutant = plan.clone();
        let what = mutate(&mut mutant, rng);
        let diags = analyze(&mutant, None);
        assert!(
            diags.iter().any(|d| d.severity == Severity::Error),
            "mutation '{what}' went undetected on {update:?}"
        );
    });
    assert!(backward.get() > 0, "no case had a backward segment");
    assert!(advised.get() > 0, "no case drew P4U008's advisory");
}

/// The analyzer is a pure function of the plan: same plan, same findings.
#[test]
fn analysis_is_deterministic() {
    forall("analysis_is_deterministic", cases(128), |rng| {
        let mut plan = prepare_update(&gen_update(rng), Version(2), Strategy::Auto);
        if rng.chance(0.5) {
            mutate(&mut plan, rng);
        }
        assert_eq!(analyze(&plan, None), analyze(&plan, None));
    });
}

/// Lint a batch on the engine's two paths — a fresh `analyze`, and a
/// `reanalyze` that appends every plan but the first to an analysis of the
/// first alone — assert the two diagnostic lists are identical and return
/// one of them. (The engine's propcheck in `crates/analysis/src/engine.rs`
/// holds both to the pairwise oracle on batches like these.)
fn analyze_both_paths(plans: &[PreparedUpdate], ctx: &AnalysisContext<'_>) -> Vec<Diagnostic> {
    let fresh = BatchAnalyzer.analyze(plans, ctx);
    let (first, rest) = plans.split_at(1);
    let delta = PlanDelta {
        added: rest.to_vec(),
        ..PlanDelta::default()
    };
    let incremental = BatchAnalyzer.reanalyze(&BatchAnalyzer.analyze(first, ctx), &delta, ctx);
    assert_eq!(
        incremental.diagnostics(),
        fresh.diagnostics(),
        "reanalyze diverged from analyze"
    );
    fresh.diagnostics().to_vec()
}

/// Batch-level mutation: duplicating a flow's plan at a non-increasing
/// version must trip P4U011 (batch version conflict) as an error — on a
/// fresh and on an incremental analysis. The well-ordered batch (strictly
/// increasing versions) must stay clean.
#[test]
fn batch_version_regression_is_flagged_on_both_paths() {
    forall("batch_version_regression_is_flagged", cases(128), |rng| {
        let update = gen_update(rng);
        let base = 1 + rng.uniform_usize(9) as u32;
        let ordered = vec![
            prepare_update(&update, Version(base), Strategy::Auto),
            prepare_update(&update, Version(base + 1), Strategy::Auto),
        ];
        let ctx = AnalysisContext::default();
        let diags = analyze_both_paths(&ordered, &ctx);
        assert!(
            is_clean(&diags),
            "strictly increasing duplicate versions must be clean: {diags:?}"
        );

        // Mutation: replay the same flow at a version that does not
        // strictly increase (equal or regressed).
        let regressed = vec![
            prepare_update(&update, Version(base + 1), Strategy::Auto),
            prepare_update(
                &update,
                Version(base + rng.uniform_usize(2) as u32),
                Strategy::Auto,
            ),
        ];
        let diags = analyze_both_paths(&regressed, &ctx);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::BatchVersionConflict && d.severity == Severity::Error),
            "version regression across the batch went undetected: {diags:?}"
        );
    });
}

/// Batch-level mutation: two flows exchanging routes form a waits-for
/// cycle — each needs capacity the other frees — and must trip P4U012 on
/// a fresh and on an incremental analysis.
#[test]
fn forced_waits_for_cycle_is_flagged_on_both_paths() {
    forall("forced_waits_for_cycle_is_flagged", cases(128), |rng| {
        // Random detour node so the swapped link pair varies per case.
        let via = 3 + rng.uniform_usize(29) as u32;
        let p = |ids: &[u32]| Path::new(ids.iter().map(|&i| NodeId(i)).collect());
        let size = 1.0 + rng.uniform_f64();
        let swap = vec![
            prepare_update(
                &FlowUpdate::new(FlowId(1), Some(p(&[0, 1, 2])), p(&[0, via, 2]), size),
                Version(2),
                Strategy::Auto,
            ),
            prepare_update(
                &FlowUpdate::new(FlowId(2), Some(p(&[0, via, 2])), p(&[0, 1, 2]), size),
                Version(2),
                Strategy::Auto,
            ),
        ];
        // Without a topology the analyzer assumes contention, so the swap
        // is a cycle regardless of flow size.
        let ctx = AnalysisContext::default();
        let diags = analyze_both_paths(&swap, &ctx);
        assert!(
            diags.iter().any(|d| d.code == Code::WaitsForCycle),
            "route-swap waits-for cycle went undetected: {diags:?}"
        );

        // Breaking the cycle (second flow parks on a disjoint detour)
        // must clear the P4U012 finding on both paths.
        let acyclic = vec![
            swap[0].clone(),
            prepare_update(
                &FlowUpdate::new(FlowId(2), Some(p(&[0, via, 2])), p(&[0, via + 1, 2]), size),
                Version(2),
                Strategy::Auto,
            ),
        ];
        let diags = analyze_both_paths(&acyclic, &ctx);
        assert!(
            diags.iter().all(|d| d.code != Code::WaitsForCycle),
            "broken swap still reported a cycle: {diags:?}"
        );
    });
}

/// A random routable migration on the paper's Fig. 1 topology: pick two
/// distinct path choices between random endpoints from Yen's algorithm.
fn gen_fig1_migration(rng: &mut SimRng, flow: FlowId) -> Option<FlowUpdate> {
    let topo = topologies::fig1();
    let n = topo.node_count();
    let src = NodeId(rng.uniform_usize(n) as u32);
    let dst = NodeId(rng.uniform_usize(n) as u32);
    if src == dst {
        return None;
    }
    let choices = k_shortest_paths(&topo, src, dst, 4);
    if choices.len() < 2 {
        return None;
    }
    let old = rng.uniform_usize(choices.len());
    let mut new = rng.uniform_usize(choices.len());
    while new == old {
        new = rng.uniform_usize(choices.len());
    }
    Some(FlowUpdate::new(
        flow,
        Some(choices[old].clone()),
        choices[new].clone(),
        1.0 + rng.uniform_f64(),
    ))
}

/// Cross-validation: an analyzer-clean plan, run end-to-end in the
/// simulation (consistency checker after every event), produces zero runtime
/// `Violation`s.
#[test]
fn analyzer_clean_plans_run_violation_free() {
    // Full sim runs are ~3 orders slower than pure analysis; keep the
    // default count proportionate.
    let n = cases(24).max(1);
    forall("analyzer_clean_plans_run_violation_free", n, |rng| {
        let Some(update) = gen_fig1_migration(rng, FlowId(0)) else {
            return; // vacuous draw (same endpoints / single route)
        };

        // Static pass first: the plan the controller will prepare is clean.
        let topo = topologies::fig1();
        let plan = prepare_update(&update, Version(2), Strategy::Auto);
        let ctx = AnalysisContext::with_topo(&topo);
        let analysis = BatchAnalyzer.analyze(std::slice::from_ref(&plan), &ctx);
        let diags = analysis.diagnostics();
        assert!(is_clean(diags), "expected clean plan, got {diags:?}");

        // Then the dynamic pass: deploy it under the checker.
        let config = SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), 1);
        let world = NetworkSim::new(topo, System::P4Update(Strategy::Auto), config, None);
        assert!(update.old_path.is_some(), "a migration has an old path");
        let mut sim = batch_simulation(world, vec![update.clone()], SimTime::ZERO);
        assert!(sim.run().drained(), "simulation must drain");

        let world = sim.into_world();
        assert!(
            world
                .metrics()
                .completion_of(update.flow, Version(2))
                .is_some(),
            "update must complete: {update:?}"
        );
        assert!(
            world.violations.is_empty(),
            "analyzer-clean plan caused runtime violations: {:?} for {update:?}",
            world.violations
        );
    });
}
