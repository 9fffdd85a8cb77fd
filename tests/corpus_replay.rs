//! Replay the committed trace corpus (`tests/corpus/*.trace`).
//!
//! Every file is a minimized counterexample (or a pinned clean base
//! schedule) produced by the schedule explorer. Replaying is the
//! regression contract: the simulator must reproduce the recorded
//! schedule *byte-exactly* — same event count, same violation list —
//! or the determinism the explorer depends on has broken.
//!
//! Regenerate the corpus with:
//!
//! ```sh
//! cargo run --release --example explore -- --corpus tests/corpus
//! ```

use p4update::core::Violation;
use p4update::explore::scenarios::{base_name, SCENARIOS};
use p4update::explore::{verify_replay, Trace};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
}

fn corpus_traces() -> Vec<(PathBuf, Trace)> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "trace"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "tests/corpus holds no .trace files");
    entries
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("readable trace file");
            let trace = Trace::parse(&text)
                .unwrap_or_else(|e| panic!("{}: parse error: {e}", path.display()));
            (path, trace)
        })
        .collect()
}

/// Every committed trace replays to exactly its pinned outcome, and its
/// text form round-trips byte-identically through the parser.
#[test]
fn every_corpus_trace_replays_byte_exactly() {
    for (path, trace) in corpus_traces() {
        assert!(
            trace.expect_events.is_some(),
            "{}: corpus traces must be pinned",
            path.display()
        );
        let report = verify_replay(&trace)
            .unwrap_or_else(|e| panic!("{}: replay diverged: {e}", path.display()));
        assert_eq!(report.violations, trace.expect_violations);

        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            trace.to_text(),
            text,
            "{}: file is not in canonical form (regenerate with the explorer)",
            path.display()
        );
    }
}

/// The corpus contains the Fig. 2 counterexample: a minimized schedule
/// under which ez-Segway forms the paper's `v3 → v1 → v2` forwarding
/// loop. No trace against a P4Update scenario records any violation.
#[test]
fn corpus_covers_the_fig2_loop_and_clears_p4update() {
    let traces = corpus_traces();
    let fig2_loop = traces.iter().find(|(_, t)| {
        t.scenario == "fig2-ez"
            && t.expect_violations
                .iter()
                .any(|v| matches!(v, Violation::Loop { .. }))
    });
    let (_, trace) = fig2_loop.expect("corpus must include the Fig. 2 ez-Segway loop trace");
    assert!(
        trace.forced_count() <= 3,
        "the Fig. 2 counterexample should be minimal, found {} forced decisions",
        trace.forced_count()
    );

    for (path, t) in &traces {
        let info = SCENARIOS
            .iter()
            .find(|s| s.name == base_name(&t.scenario))
            .unwrap_or_else(|| panic!("{}: unknown scenario {}", path.display(), t.scenario));
        if !info.vulnerable {
            assert!(
                t.expect_violations.is_empty(),
                "{}: a P4Update scenario recorded a violation",
                path.display()
            );
        }
    }
}
