//! Randomized mutation suite and analyzer/checker cross-validation.
//!
//! Two complementary properties tie the static analyzer to the runtime:
//!
//! 1. **Sensitivity** — take a well-prepared random plan, flip exactly one
//!    field the proof-labeling scheme depends on, and the analyzer must
//!    report at least one *error*. The unmutated plan must report zero.
//! 2. **Soundness of "clean"** — an analyzer-clean plan, deployed in the
//!    paranoid discrete-event simulation, must finish with zero
//!    consistency-checker `Violation`s. The analyzer's promise is exactly
//!    that the runtime verifiers never fire.

use p4update::analysis::{
    analyze, analyze_batch, analyze_batch_with, is_clean, AnalysisContext, BatchAnalyzer, Code,
    Severity,
};
use p4update::core::{prepare_update, PreparedUpdate, Strategy};
use p4update::des::propcheck::{cases, forall};
use p4update::des::{SimRng, SimTime};
use p4update::net::{k_shortest_paths, topologies, FlowId, FlowUpdate, NodeId, Path, Version};
use p4update::sim::{simulation, Event, NetworkSim, SimConfig, System, TimingConfig};

/// A random migration: old and new path share endpoints, old interior is a
/// random subset of the new interior (same generator family as
/// `tests/properties.rs`, so both SL and DL plans with forward and backward
/// segments appear).
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
    let n_segs = plan.segmentation.segments.len();
    loop {
        match rng.uniform_usize(10) {
            0 => {
                let i = rng.uniform_usize(n_uims);
                plan.uims[i].1.new_distance = plan.uims[i]
                    .1
                    .new_distance
                    .wrapping_add(1 + rng.uniform_usize(5) as u32);
                return "distance label";
            }
            1 => {
                let i = rng.uniform_usize(n_uims);
                plan.uims[i].1.next_hop = Some(NodeId(1000));
                return "next hop";
            }
            2 => {
                let i = rng.uniform_usize(n_uims);
                plan.uims[i].1.upstream = Some(NodeId(1000));
                return "upstream";
            }
            3 => {
                let i = rng.uniform_usize(n_uims);
                plan.uims[i].1.version = Version(plan.version.0 + 1);
                return "UIM version";
            }
            4 => {
                let i = rng.uniform_usize(n_uims);
                plan.uims[i].1.flow = FlowId(4096);
                return "UIM flow";
            }
            5 => {
                let i = rng.uniform_usize(n_uims);
                plan.uims[i].1.flow_size = -1.0;
                return "flow size";
            }
            6 => {
                plan.uims.swap_remove(rng.uniform_usize(n_uims));
                return "dropped UIM";
            }
            7 => {
                let i = rng.uniform_usize(n_uims);
                plan.uims[i].0 = NodeId(1000);
                return "UIM target";
            }
            8 if n_segs > 0 => {
                let i = rng.uniform_usize(n_segs);
                let s = &mut plan.segmentation.segments[i];
                s.ingress_old_distance = s
                    .ingress_old_distance
                    .wrapping_add(1 + rng.uniform_usize(5) as u32);
                return "segment old distance";
            }
            9 if n_segs > 0 => {
                plan.segmentation.segments[rng.uniform_usize(n_segs)]
                    .interior
                    .push(NodeId(1000));
                return "segment interior";
            }
            _ => {} // retry: variant inapplicable to this plan
        }
    }
}

/// Every single-field mutation is flagged with at least one error; the
/// pristine plan is error-free.
#[test]
fn every_mutation_is_flagged() {
    forall("every_mutation_is_flagged", cases(128), |rng| {
        let update = gen_update(rng);
        let version = Version(1 + rng.uniform_usize(9) as u32);
        let strategy = if rng.chance(0.5) {
            Strategy::Auto
        } else {
            Strategy::ForceDual
        };
        let plan = prepare_update(&update, version, strategy);
        assert!(
            is_clean(&analyze(&plan, None)),
            "pristine plan must be analyzer-clean: {update:?}"
        );

        let mut mutant = plan.clone();
        let what = mutate(&mut mutant, rng);
        let diags = analyze(&mutant, None);
        assert!(
            diags.iter().any(|d| d.severity == Severity::Error),
            "mutation '{what}' went undetected on {update:?}"
        );
    });
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

/// Run a batch through the pairwise reference analyzer and through the
/// link-indexed [`BatchAnalyzer`]; assert the two diagnostic lists are
/// identical and return one of them.
fn analyze_both_paths(
    plans: &[PreparedUpdate],
    ctx: &AnalysisContext<'_>,
) -> Vec<p4update::analysis::Diagnostic> {
    let reference = analyze_batch_with(plans, ctx);
    let engine = BatchAnalyzer::new(1).analyze(plans, ctx);
    assert_eq!(
        engine.diagnostics(),
        reference.as_slice(),
        "the engine diverged from the reference analyzer"
    );
    reference
}

/// Batch-level mutation: duplicating a flow's plan at a non-increasing
/// version must trip P4U011 (batch version conflict) as an error — on the
/// reference path and on the engine. The well-ordered batch (strictly
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
/// both the reference path and the engine.
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

/// Cross-validation: an analyzer-clean plan, run end-to-end in the paranoid
/// simulation (consistency checker on every packet), produces zero runtime
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
        let diags = analyze_batch(std::slice::from_ref(&plan), Some(&topo));
        assert!(is_clean(&diags), "expected clean plan, got {diags:?}");

        // Then the dynamic pass: deploy it under the paranoid checker.
        let config = SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), 1).paranoid();
        let mut world = NetworkSim::new(topo, System::P4Update(Strategy::Auto), config, None);
        let old = update.old_path.clone().expect("migration has an old path");
        world.install_initial_path(update.flow, &old, update.size);
        let batch = world.add_batch(vec![update.clone()]);

        let mut sim = simulation(world);
        sim.schedule_at(SimTime::ZERO, Event::Trigger { batch });
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
