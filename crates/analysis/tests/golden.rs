//! Golden-diagnostic tests: for each invariant the analyzer checks, a
//! known-bad plan (a well-prepared plan with one field corrupted) must
//! produce exactly the expected stable code — and the uncorrupted plan
//! must be clean. This pins both the analyzer's sensitivity and its codes.

use p4update_analysis::{
    analyze, is_clean, AnalysisContext, BatchAnalyzer, Code, Diagnostic, Severity,
};
use p4update_core::{prepare_update, PreparedUpdate, Strategy};
use p4update_net::{FlowId, FlowUpdate, NodeId, Path, Version};

fn path(ids: &[u32]) -> Path {
    Path::new(ids.iter().map(|&i| NodeId(i)).collect())
}

/// The paper's Fig. 1 migration: 3 segments, one backward — the richest
/// small plan (exercises the DL machinery).
fn fig1_update() -> FlowUpdate {
    FlowUpdate::new(
        FlowId(0),
        Some(path(&[0, 4, 2, 7])),
        path(&[0, 1, 2, 3, 4, 5, 6, 7]),
        1.0,
    )
}

/// The batch linter's findings with no topology and no installed versions.
fn lint_batch(plans: &[PreparedUpdate]) -> Vec<Diagnostic> {
    let analysis = BatchAnalyzer.analyze(plans, &AnalysisContext::default());
    analysis.diagnostics().to_vec()
}

fn fig1_plan() -> PreparedUpdate {
    prepare_update(&fig1_update(), Version(2), Strategy::Auto)
}

/// Codes (deduplicated, sorted) of all error-severity findings.
fn error_codes(plan: &PreparedUpdate) -> Vec<Code> {
    let mut codes: Vec<Code> = analyze(plan, None)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.code)
        .collect();
    codes.sort();
    codes.dedup();
    codes
}

#[test]
fn baseline_plan_is_clean() {
    assert!(analyze(&fig1_plan(), None).is_empty());
}

#[test]
fn corrupt_distance_label() {
    let mut plan = fig1_plan();
    plan.uims[4].1.new_distance = 9;
    assert_eq!(error_codes(&plan), vec![Code::LabelChainBroken]);
}

#[test]
fn corrupt_next_hop() {
    let mut plan = fig1_plan();
    plan.uims[2].1.next_hop = Some(NodeId(0));
    assert_eq!(error_codes(&plan), vec![Code::UimChainMismatch]);
}

#[test]
fn corrupt_upstream() {
    let mut plan = fig1_plan();
    plan.uims[2].1.upstream = None;
    assert_eq!(error_codes(&plan), vec![Code::UimChainMismatch]);
}

#[test]
fn stale_uim_version() {
    let mut plan = fig1_plan();
    plan.uims[1].1.version = Version(1);
    assert_eq!(error_codes(&plan), vec![Code::VersionNotNewer]);
}

#[test]
fn reserved_version_zero() {
    let plan = prepare_update(&fig1_update(), Version(0), Strategy::Auto);
    assert_eq!(error_codes(&plan), vec![Code::VersionNotNewer]);
}

#[test]
fn version_must_exceed_installed() {
    let plan = prepare_update(&fig1_update(), Version(3), Strategy::Auto);
    let ctx = AnalysisContext::default().install(FlowId(0), Version(3));
    let diags = p4update_analysis::analyze_with(&plan, &ctx);
    assert!(diags.iter().any(|d| d.code == Code::VersionNotNewer));
}

#[test]
fn missing_uim() {
    let mut plan = fig1_plan();
    plan.uims.pop(); // drop the ingress indication
    assert_eq!(error_codes(&plan), vec![Code::UimSetMismatch]);
}

#[test]
fn duplicated_uim_target() {
    let mut plan = fig1_plan();
    let dup = plan.uims[3];
    plan.uims[4] = dup;
    assert!(error_codes(&plan).contains(&Code::UimSetMismatch));
}

#[test]
fn swapped_uim_order() {
    let mut plan = fig1_plan();
    plan.uims.swap(0, 1); // egress no longer first
    assert_eq!(error_codes(&plan), vec![Code::UimSetMismatch]);
}

#[test]
fn uim_for_foreign_node() {
    let mut plan = fig1_plan();
    plan.uims[3].0 = NodeId(42);
    let codes = error_codes(&plan);
    assert!(codes.contains(&Code::UimSetMismatch), "{codes:?}");
}

#[test]
fn wrong_flow_in_uim() {
    let mut plan = fig1_plan();
    plan.uims[5].1.flow = FlowId(99);
    assert_eq!(error_codes(&plan), vec![Code::UimSetMismatch]);
}

#[test]
fn wrong_kind_in_uim() {
    let mut plan = fig1_plan();
    plan.uims[5].1.kind = p4update_messages::UpdateKind::Single;
    assert_eq!(error_codes(&plan), vec![Code::UimSetMismatch]);
}

#[test]
fn unusable_flow_size() {
    let mut plan = fig1_plan();
    plan.uims[0].1.flow_size = f64::NAN;
    // NaN also breaks wire round-trip equality, so two codes fire.
    let codes = error_codes(&plan);
    assert!(codes.contains(&Code::BadFlowSize), "{codes:?}");

    let mut plan = fig1_plan();
    plan.uims[0].1.flow_size = 2.0; // disagrees with the update's bound
    assert_eq!(error_codes(&plan), vec![Code::BadFlowSize]);
}

// ---- advisory and batch-level codes.

#[test]
fn forced_single_layer_is_an_advisory() {
    let plan = prepare_update(&fig1_update(), Version(2), Strategy::ForceSingle);
    let diags = analyze(&plan, None);
    // Two advisories: backward segment present, and 8 > 5 nodes.
    assert_eq!(diags.len(), 2);
    assert!(diags.iter().all(|d| d.code == Code::MechanismAdvisory));
    assert!(is_clean(&diags));
}

/// A flow's entries must rise strictly in batch order; each is judged
/// against the highest earlier version of its flow, not the last, so after
/// V3 and V2 a second V3 is as dead on arrival as the V2.
#[test]
fn batch_with_non_increasing_versions() {
    let conflicts = |versions: &[u32]| -> Vec<String> {
        let u = fig1_update();
        let plans: Vec<_> = versions
            .iter()
            .map(|&v| prepare_update(&u, Version(v), Strategy::Auto))
            .collect();
        let diags = lint_batch(&plans).into_iter();
        let conflicts = diags.filter(|d| d.code == Code::BatchVersionConflict);
        conflicts.map(|d| d.to_string()).collect()
    };
    let rendered = |pair: &str| {
        format!("error[P4U011]: f0: batch contains f0 twice with non-increasing versions ({pair})")
    };
    assert_eq!(conflicts(&[2, 2]), [rendered("V2 then V2")]);
    assert_eq!(
        conflicts(&[3, 2, 3]),
        [rendered("V3 then V2"), rendered("V3 then V3")]
    );
    assert!(conflicts(&[1, 2, 3]).is_empty());
}

#[test]
fn waits_for_cycle_between_swapping_flows() {
    let a = FlowUpdate::new(FlowId(1), Some(path(&[0, 1, 3])), path(&[0, 2, 3]), 1.0);
    let b = FlowUpdate::new(FlowId(2), Some(path(&[0, 2, 3])), path(&[0, 1, 3]), 1.0);
    let plans = vec![
        prepare_update(&a, Version(2), Strategy::Auto),
        prepare_update(&b, Version(2), Strategy::Auto),
    ];
    let diags = lint_batch(&plans);
    let cycles: Vec<_> = diags
        .iter()
        .filter(|d| d.code == Code::WaitsForCycle)
        .collect();
    assert_eq!(cycles.len(), 1, "{diags:?}");
    assert_eq!(cycles[0].severity, Severity::Warning);
}

#[test]
fn independent_updates_have_no_cycle() {
    let a = FlowUpdate::new(FlowId(1), Some(path(&[0, 1, 3])), path(&[0, 2, 3]), 1.0);
    let b = FlowUpdate::new(FlowId(2), Some(path(&[4, 5, 7])), path(&[4, 6, 7]), 1.0);
    let plans = vec![
        prepare_update(&a, Version(2), Strategy::Auto),
        prepare_update(&b, Version(2), Strategy::Auto),
    ];
    assert!(lint_batch(&plans).is_empty());
}

#[test]
fn diagnostics_render_with_stable_codes() {
    let mut plan = fig1_plan();
    plan.uims[4].1.new_distance = 9;
    let diags = analyze(&plan, None);
    assert_eq!(diags.len(), 1);
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("error[P4U001]: f0: at v3:"),
        "{rendered}"
    );
}
