//! The schedule explorer: adversarial interleaving search with
//! counterexample shrinking and replayable trace dumps.
//!
//! For every registered scenario (or the ones named on the command line)
//! this binary:
//!
//! 1. replays the base schedule and pins it (it must be violation-free),
//! 2. runs a budgeted search — deterministic bounded-systematic
//!    enumeration first, then random walks — for a schedule the paranoid
//!    checker rejects,
//! 3. shrinks any counterexample with ddmin to a minimal set of forced
//!    decisions, and
//! 4. prints the minimized trace in the replayable text format.
//!
//! The exit code encodes the paper's claim: scenarios marked vulnerable
//! (ez-Segway on the Fig. 2 race) must yield a counterexample within the
//! budget, and P4Update scenarios must not. Either direction failing
//! exits nonzero, which is how `scripts/check.sh` uses this binary as a
//! smoke test.
//!
//! ```sh
//! cargo run --release --example explore
//! cargo run --release --example explore -- fig2-ez --corpus tests/corpus
//! ```

use p4update::explore::scenarios::{base_name, SCENARIOS};
use p4update::explore::search::{random_walk, systematic, SearchOutcome, WalkOptions};
use p4update::explore::shrink::shrink;
use p4update::explore::{pin, Trace};

struct Args {
    scenarios: Vec<String>,
    seed: u64,
    sys_runs: u32,
    walk_runs: u32,
    corpus: Option<std::path::PathBuf>,
    byzantine: bool,
}

/// The byzantine smoke matrix: scenario-with-modifier names and whether
/// the byzantine-only search budget is expected to break them. The split
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
        sys_runs: 256,
        walk_runs: WalkOptions::default().runs,
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
                args.sys_runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
            }
            "--walks" => {
                args.walk_runs = value("--walks")?
                    .parse()
                    .map_err(|e| format!("--walks: {e}"))?;
            }
            "--corpus" => args.corpus = Some(value("--corpus")?.into()),
            "--byzantine" => args.byzantine = true,
            "--help" | "-h" => {
                println!(
                    "usage: explore [SCENARIO ...] [--seed N] [--runs N] [--walks N] [--corpus DIR]\n\n\
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

fn write_trace(dir: &std::path::Path, stem: &str, trace: &Trace) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{stem}.trace"));
    std::fs::write(&path, trace.to_text())?;
    println!("  wrote {}", path.display());
    Ok(())
}

/// Search one scenario; returns the counterexample, if any.
fn search(name: &str, args: &Args) -> Result<Option<SearchOutcome>, String> {
    if args.byzantine {
        // Byzantine-only walks: no faults, so any hit is attributable to
        // the lies rather than message loss.
        let walk = WalkOptions {
            runs: args.walk_runs,
            fault_p: 0.0,
            byz_p: 0.5,
        };
        return match random_walk(name, args.seed, walk)? {
            Some(hit) => {
                println!(
                    "  byzantine walk: violation after {} runs ({} forced decisions)",
                    hit.runs_used,
                    hit.trace.forced_count()
                );
                Ok(Some(hit))
            }
            None => {
                println!("  byzantine walk: clean after {} runs", args.walk_runs);
                Ok(None)
            }
        };
    }
    if let Some(hit) = systematic(name, args.seed, args.sys_runs)? {
        println!(
            "  systematic search: violation after {} runs ({} forced decisions)",
            hit.runs_used,
            hit.trace.forced_count()
        );
        return Ok(Some(hit));
    }
    println!("  systematic search: clean after {} runs", args.sys_runs);
    let walk = WalkOptions {
        runs: args.walk_runs,
        ..WalkOptions::default()
    };
    if let Some(hit) = random_walk(name, args.seed, walk)? {
        println!(
            "  random walk: violation after {} runs ({} forced decisions)",
            hit.runs_used,
            hit.trace.forced_count()
        );
        return Ok(Some(hit));
    }
    println!("  random walk: clean after {} runs", args.walk_runs);
    Ok(None)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

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
        let base_report = match pin(&mut base) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
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
        let hit = match search(name, &args) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        match hit {
            Some(outcome) => {
                let target = outcome.report.violations[0].clone();
                let shrunk = match shrink(&outcome.trace, &target) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(2);
                    }
                };
                println!(
                    "  shrink: {} -> {} forced decisions in {} runs",
                    outcome.trace.forced_count(),
                    shrunk.trace.forced_count(),
                    shrunk.runs_used
                );
                println!("  minimized trace:");
                for line in shrunk.trace.to_text().lines() {
                    println!("  | {line}");
                }
                if let Some(dir) = &args.corpus {
                    let kind = target.to_string();
                    let kind = kind.split_whitespace().next().unwrap_or("violation");
                    if let Err(e) = write_trace(dir, &format!("{name}-{kind}"), &shrunk.trace) {
                        eprintln!("error writing corpus trace: {e}");
                        std::process::exit(2);
                    }
                }
                if !expect_break {
                    failures.push(format!(
                        "{name}: found a violation but the scenario is marked safe: {target}"
                    ));
                }
            }
            None => {
                if let Some(dir) = &args.corpus {
                    if let Err(e) = write_trace(dir, &format!("{name}-base"), &base) {
                        eprintln!("error writing corpus trace: {e}");
                        std::process::exit(2);
                    }
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
