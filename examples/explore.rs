//! The schedule explorer: adversarial interleaving search with
//! replayable trace dumps.
//!
//! For every registered scenario (or the ones named on the command line,
//! or the byzantine smoke matrix under `--byzantine`) this binary:
//!
//! 1. replays the base schedule and pins it (it must be violation-free),
//! 2. runs every schedule within d = 0, 1, 2, … deviations from the
//!    default until one violates or the `--runs` budget is spent, and
//! 3. prints a hit, which has the fewest deviations of any violating
//!    schedule, in the replayable text format.
//!
//! The exit code encodes the paper's claim: scenarios marked vulnerable
//! (ez-Segway on the Fig. 2 race) must yield a counterexample within the
//! budget, and P4Update scenarios must not. Either direction failing
//! exits nonzero, which is how `scripts/check.sh` uses this binary as a
//! smoke test.
//!
//! ```sh
//! cargo run --release --example explore
//! cargo run --release --example explore -- fig2-ez --corpus target/corpus
//! ```

use p4update::explore::scenarios::{base_name, SCENARIOS};
use p4update::explore::search::{exhaustive, Exhaustive};
use p4update::explore::{pin, Trace};

struct Args {
    scenarios: Vec<String>,
    seed: u64,
    runs: u32,
    corpus: Option<std::path::PathBuf>,
    byzantine: bool,
}

/// The byzantine smoke matrix: scenario-with-modifier names and whether
/// the search budget is expected to break them. The split
/// is the paper's §7 claim under lying switches: one forged-ack liar
/// collapses ez-Segway's loop freedom, while P4Update locally rejects or
/// ignores every catalog vector.
const BYZ_SMOKE: &[(&str, bool)] = &[
    ("fig2-ez+byz-ack-k1", true),
    ("fig2-ez+byz-ack-k2", true),
    ("fig2-p4+byz-ack-k1", false),
    ("fig2-p4+byz-dep-k1", false),
    ("fig2-p4+byz-equiv-k1", false),
    ("fig2-p4+byz-stale-k1", false),
];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scenarios: Vec::new(),
        seed: 1,
        runs: 256,
        corpus: None,
        byzantine: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
            }
            "--corpus" => args.corpus = Some(value("--corpus")?.into()),
            "--byzantine" => args.byzantine = true,
            "--help" | "-h" => {
                println!(
                    "usage: explore [SCENARIO ...] [--seed N] [--runs N] [--corpus DIR]\n\n\
                     scenarios:"
                );
                println!(
                    "  --byzantine    run the byzantine smoke matrix (lying \
                     switches; +byz-<vec>-k<N> scenario modifiers)"
                );
                for info in SCENARIOS {
                    println!(
                        "  {:<12} {}",
                        info.name,
                        info.about.split(':').next().unwrap_or("")
                    );
                }
                std::process::exit(0);
            }
            name if !name.starts_with('-') => args.scenarios.push(name.to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.scenarios.is_empty() {
        args.scenarios = if args.byzantine {
            BYZ_SMOKE.iter().map(|&(n, _)| n.to_string()).collect()
        } else {
            SCENARIOS.iter().map(|s| s.name.to_string()).collect()
        };
    }
    Ok(args)
}

fn write_trace(dir: &std::path::Path, stem: &str, trace: &Trace) -> Result<(), String> {
    let path = dir.join(format!("{stem}.trace"));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace.to_text()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("  wrote {}", path.display());
    Ok(())
}

/// The value of `result`, or exit 2 with its error: a usage or I/O error,
/// not a finding.
fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

fn main() {
    let args = or_exit(parse_args());

    let mut failures = Vec::new();
    for name in &args.scenarios {
        let Some(info) = SCENARIOS.iter().find(|s| s.name == base_name(name)) else {
            eprintln!("error: unknown scenario {name:?} (try --help)");
            std::process::exit(2);
        };
        // Modified scenarios inherit the base expectation unless the smoke
        // matrix pins one (e.g. P4Update survives the forged-ack liar that
        // breaks ez-Segway).
        let expect_break = BYZ_SMOKE
            .iter()
            .find(|&&(n, _)| n == name)
            .map_or(info.vulnerable, |&(_, b)| b);
        println!("== {name} (seed {}) ==", args.seed);
        println!("  {}", info.about);

        // Base schedule: must be clean, and pinning it yields a corpus
        // regression trace (replaying the default schedule byte-exactly).
        let mut base = Trace::new(name.clone(), args.seed);
        let base_report = or_exit(pin(&mut base));
        println!(
            "  base schedule: {} events, {} choice points, {} violations",
            base_report.events,
            base_report.choices.len(),
            base_report.violations.len()
        );
        if !base_report.violations.is_empty() {
            failures.push(format!("{name}: base schedule already violates"));
            continue;
        }
        match or_exit(exhaustive(name, args.seed, args.runs)) {
            Exhaustive::Hit(hit) => {
                let target = &hit.report.violations[0];
                println!(
                    "  exhaustive search: violation at d = {} after {} runs",
                    hit.trace.forced_count(),
                    hit.runs_used
                );
                for line in hit.trace.to_text().lines() {
                    println!("  | {line}");
                }
                if let Some(dir) = &args.corpus {
                    let kind = target.to_string();
                    let kind = kind.split_whitespace().next().unwrap_or("violation");
                    or_exit(write_trace(dir, &format!("{name}-{kind}"), &hit.trace));
                }
                if !expect_break {
                    failures.push(format!(
                        "{name}: found a violation but the scenario is marked safe: {target}"
                    ));
                }
            }
            Exhaustive::Clean { bound, runs } => {
                let done = bound.map_or("no bound".into(), |d| format!("d <= {d}"));
                println!("  exhaustive search: clean at {done} after {runs} runs");
                if let Some(dir) = &args.corpus {
                    or_exit(write_trace(dir, &format!("{name}-base"), &base));
                }
                if expect_break {
                    failures.push(format!(
                        "{name}: marked vulnerable but the search budget found nothing"
                    ));
                }
            }
        }
        println!();
    }

    if failures.is_empty() {
        println!("explorer: every scenario matched its expectation");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
