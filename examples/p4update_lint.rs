//! `p4update-lint`: run the static plan verifier over a batch of update
//! plans and print rustc-style diagnostics.
//!
//! ```text
//! cargo run --example p4update_lint                      # lint built-in sample plans
//! cargo run --example p4update_lint -- --mutate          # also lint corrupted plans
//! ```
//!
//! The sample set covers the analyzer's surface: the paper's Fig. 1
//! migration (clean), a forced single-layer deployment (advisory), a
//! route-swap batch (waits-for cycle), and — with `--mutate` — plans with a
//! corrupted distance label, a stale version, and an off-topology edge, each
//! of which must produce an error diagnostic.

use p4update::analysis::{AnalysisContext, BatchAnalyzer, Severity};
use p4update::core::{prepare_update, PreparedUpdate, Strategy};
use p4update::net::{topologies, FlowId, FlowUpdate, NodeId, Path, Version};

fn fig1_migration() -> FlowUpdate {
    FlowUpdate::new(
        FlowId(0),
        Some(Path::new(topologies::fig1_old_path())),
        Path::new(topologies::fig1_new_path()),
        1.0,
    )
}

fn route_swap() -> (FlowUpdate, FlowUpdate) {
    // Each flow needs more than half a link's capacity, so the two swaps
    // genuinely contend and form a waits-for cycle (P4U012).
    let size = 0.6 * topologies::DEFAULT_CAPACITY;
    let p = |ids: &[u32]| Path::new(ids.iter().map(|&i| NodeId(i)).collect());
    (
        FlowUpdate::new(FlowId(1), Some(p(&[0, 1, 2])), p(&[0, 4, 2]), size),
        FlowUpdate::new(FlowId(2), Some(p(&[0, 4, 2])), p(&[0, 1, 2]), size),
    )
}

fn main() {
    let mutate = std::env::args().skip(1).any(|a| a == "--mutate");
    let topo = topologies::fig1();

    let (swap_a, swap_b) = route_swap();
    let mut plans: Vec<PreparedUpdate> = vec![
        prepare_update(&fig1_migration(), Version(2), Strategy::Auto),
        prepare_update(&fig1_migration(), Version(3), Strategy::ForceSingle),
        prepare_update(&swap_a, Version(2), Strategy::Auto),
        prepare_update(&swap_b, Version(2), Strategy::Auto),
    ];

    if mutate {
        // A forged distance label (P4U001).
        let mut bad_label = prepare_update(&fig1_migration(), Version(4), Strategy::Auto);
        bad_label.uims[2].1.new_distance += 3;
        plans.push(bad_label);
        // A stale version (P4U004, caught via the installed-version context).
        plans.push(prepare_update(
            &fig1_migration(),
            Version(1),
            Strategy::Auto,
        ));
        // An off-topology edge (P4U003): v0 -> v7 is not a Fig. 1 link.
        let hop = FlowUpdate::new(FlowId(9), None, Path::new(vec![NodeId(0), NodeId(7)]), 1.0);
        plans.push(prepare_update(&hop, Version(1), Strategy::Auto));
    }

    let ctx = AnalysisContext::with_topo(&topo).install(FlowId(0), Version(1));
    let analysis = BatchAnalyzer.analyze(&plans, &ctx);
    let diagnostics = analysis.diagnostics();
    for d in diagnostics {
        println!("{d}");
    }
    let errors = diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diagnostics.len() - errors;
    println!(
        "p4update-lint: {} plan(s), {errors} error(s), {warnings} warning(s)",
        plans.len()
    );
    std::process::exit(if errors > 0 { 1 } else { 0 });
}
