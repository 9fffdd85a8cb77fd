//! `p4update-lint`: run the static plan verifier over a batch of update
//! plans and print rustc-style diagnostics.
//!
//! ```text
//! cargo run --example p4update_lint                      # lint built-in sample plans
//! cargo run --example p4update_lint -- --mutate          # also lint corrupted plans
//! cargo run --example p4update_lint -- --export-dataset DIR [--scale ft64]
//!                                # write a generated fat-tree batch as an
//!                                # on-disk dataset, then lint it in memory
//! cargo run --example p4update_lint -- --dataset DIR
//!                                # standalone linting at scale: load the
//!                                # dataset from disk and lint it with the
//!                                # link-indexed BatchAnalyzer
//! ```
//!
//! `--export-dataset` prints the *in-memory pairwise reference* analysis
//! of the batch it wrote; `--dataset` prints the on-disk engine analysis.
//! The two outputs are byte-identical for the same batch —
//! `scripts/check.sh` diffs them.
//!
//! The sample set covers the analyzer's surface: the paper's Fig. 1
//! migration (clean), a forced single-layer deployment (advisory), a
//! route-swap batch (waits-for cycle), and — with `--mutate` — plans with a
//! corrupted distance label, a stale version, and an off-topology edge, each
//! of which must produce an error diagnostic.

use p4update::analysis::{
    analyze_batch_with, bench_plans, export_dataset, load_dataset, AnalysisContext, Diagnostic,
    Severity,
};
use p4update::core::{prepare_update, PreparedUpdate, Strategy};
use p4update::net::{topologies, FlowId, FlowUpdate, NodeId, Path, Topology, Version};
use p4update::traffic::bench_workload;

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

/// Print diagnostics plus the summary line and exit non-zero on errors.
/// Shared by every mode so outputs stay comparable byte-for-byte.
fn report(plans: usize, diagnostics: &[Diagnostic]) -> ! {
    for d in diagnostics {
        println!("{d}");
    }
    let errors = diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diagnostics.len() - errors;
    println!("p4update-lint: {plans} plan(s), {errors} error(s), {warnings} warning(s)");
    std::process::exit(if errors > 0 { 1 } else { 0 });
}

fn fat_tree(scale: &str) -> Topology {
    match scale {
        "ft64" => topologies::synthetic_fat_tree_64(),
        "ft512" => topologies::synthetic_fat_tree_512(),
        "ft4096" => topologies::synthetic_fat_tree_4096(),
        other => {
            eprintln!("p4update-lint: unknown scale {other:?} (ft64, ft512, ft4096)");
            std::process::exit(2);
        }
    }
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .map(|i| match args.get(i + 1) {
            Some(v) => v.clone(),
            None => {
                eprintln!("p4update-lint: {flag} needs a value");
                std::process::exit(2);
            }
        })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if let Some(dir) = arg_value(&args, "--export-dataset") {
        // Generate a fat-tree batch (the perf workload recipe), write it
        // as a dataset, and lint it in memory with the pairwise reference.
        let scale = arg_value(&args, "--scale").unwrap_or_else(|| "ft64".into());
        let topo = fat_tree(&scale);
        let (plans, installed) = bench_plans(&bench_workload(&topo, 1).updates);
        export_dataset(dir.as_ref(), Some(&topo), &plans, &installed)
            .unwrap_or_else(|e| panic!("export to {dir}: {e}"));
        let ctx = AnalysisContext::with_installed(Some(&topo), installed);
        let diagnostics = analyze_batch_with(&plans, &ctx);
        report(plans.len(), &diagnostics);
    }

    if let Some(dir) = arg_value(&args, "--dataset") {
        // Standalone linting at scale: everything comes from disk.
        let ds = load_dataset(dir.as_ref()).unwrap_or_else(|e| {
            eprintln!("p4update-lint: {e}");
            std::process::exit(2);
        });
        let analysis = ds.lint();
        report(analysis.plan_count(), analysis.diagnostics());
    }

    let mutate = args.iter().any(|a| a == "--mutate");
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
    let diagnostics = analyze_batch_with(&plans, &ctx);
    report(plans.len(), &diagnostics);
}
