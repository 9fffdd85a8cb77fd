//! One benchmark for the whole pipeline. See `README.md` beside this
//! package for the workloads, the metric glossary and the run contract.
//!
//! ```text
//! p4update-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! ```
//!
//! Closed batch, one process, one thread. A run is timed repeats of the
//! whole pipeline until `--seconds` have passed; every timing reported is
//! built from the repeats' quietest measurements (see [`quiet_machine`]).
//! The gate runs before anything is printed as a result: on a failure the
//! process says why on stderr and exits 1 without metrics.

mod json;
mod micro;
mod stats;
mod trace;
mod workloads;

use json::Value;
use stats::{highest_supported_percentile, median, percentile_of_sorted, sorted, Quartiles};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Span;
use workloads::{Chunk, Harness, Phase, Repeat, Shape, Stats, SystemStats, Workload, ALL_SYSTEMS};

/// The contract this program is checked against, read back so the names
/// it declares and the names this program prints cannot drift apart.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut argv = argv.skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required (one of {})",
            workloads::WORKLOAD_NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// A fixed integer loop, timed: the same work every time, so a change in
/// its speed is the machine's, not the program's. ~10 ms.
fn spin_ns_per_iter() -> f64 {
    const ITERS: u64 = 8_000_000;
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..ITERS {
        x = black_box(x ^ (x << 13) ^ (x >> 7) ^ i);
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e9 / ITERS as f64
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Host times of one repeat (its simulated statistics are compared with
/// the first repeat's and dropped, so memory does not grow with R).
struct Timing {
    chunks: Vec<Chunk>,
    total: Duration,
}

/// Seconds of the chunks charged to `phase`.
fn phase_s(chunks: &[Chunk], phase: Phase) -> f64 {
    chunks
        .iter()
        .filter(|c| c.0 == phase)
        .map(|c| c.1.as_secs_f64())
        .sum()
}

/// Everything a run measured.
struct Measured {
    /// Untraced timed repeats, in order.
    untraced: Vec<Timing>,
    /// Traced repeats (only under `--trace 1`), alternating with untraced ones.
    traced: Vec<Timing>,
    /// Spans of the last traced repeat, for the trace file.
    spans: Vec<Span>,
    /// Per span, the smallest self time any traced repeat measured.
    quietest_self_ns: Vec<u64>,
    /// The statistics every repeat agreed on.
    stats: Stats,
    /// The noise witness, before the first and after every repeat.
    spins: Vec<f64>,
}

/// The measurement loop: repeats until `seconds` have passed and the
/// workload's minimum is met. No repeat is discarded as a warm-up: a cold
/// first repeat can only lose the per-chunk minimum [`quiet_machine`]
/// takes. Under `trace`, every untraced repeat is followed by a traced
/// one, so the two sets the overhead is computed from see the same machine
/// drift.
fn measure(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Measured, String> {
    let began = Instant::now();
    let mut reference: Option<Stats> = None;
    // Checks a repeat against the first one and keeps only its timings.
    let mut timing_of = |r: Repeat| match &reference {
        Some(first) if *first != r.stats => {
            Err("simulated statistics differ between two repeats of the same seed")
        }
        _ => {
            reference.get_or_insert(r.stats);
            Ok(Timing {
                chunks: r.chunks,
                total: r.total,
            })
        }
    };
    let mut spins = vec![spin_ns_per_iter()];
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut quietest_self_ns = Vec::new();
    let min_pairs = if trace {
        w.min_repeats.div_ceil(2)
    } else {
        w.min_repeats
    };
    while untraced.len() < min_pairs || began.elapsed().as_secs_f64() < seconds {
        untraced.push(timing_of(workloads::repeat(w, seed, Harness::untraced())?)?);
        spins.push(spin_ns_per_iter());
        if trace {
            let mut r = workloads::repeat(w, seed, Harness::traced())?;
            let latest = r.spans.take().expect("a traced repeat keeps its spans");
            if spans.is_empty() {
                quietest_self_ns = trace::self_times_ns(&latest);
            } else {
                trace::keep_quietest(&mut quietest_self_ns, &spans, &latest)?;
            }
            spans = latest;
            traced.push(timing_of(r)?);
            spins.push(spin_ns_per_iter());
        }
    }
    Ok(Measured {
        untraced,
        traced,
        spans,
        quietest_self_ns,
        stats: reference.expect("at least one repeat ran"),
        spins,
    })
}

/// What the repeats say the pipeline takes on a quiet machine.
///
/// Other tenants of the host only ever slow a stretch of work down, by
/// 10-40 % for milliseconds to seconds at a time on the boxes this runs on,
/// so a median over whole repeats moves by +-15 % from run to run. Repeats
/// do identical work chunk by chunk, so each chunk is taken from the
/// repeat that ran it quietest, and the chunks are added up; the time
/// between chunks (harness bookkeeping) is taken from its quietest repeat
/// too. With R repeats the estimate only needs each millisecond-sized
/// chunk to run undisturbed once in R tries.
struct Quiet {
    setup_s: f64,
    run_s: f64,
    total_s: f64,
}

fn quiet_machine(timings: &[Timing]) -> Result<Quiet, String> {
    let first = timings.first().ok_or("no timed repeat")?;
    let between = |t: &Timing| t.total.saturating_sub(t.chunks.iter().map(|c| c.1).sum());
    let mut best: Vec<Chunk> = first.chunks.clone();
    let mut gap = between(first);
    for t in &timings[1..] {
        if t.chunks.len() != best.len() || t.chunks.iter().zip(&best).any(|(a, b)| a.0 != b.0) {
            return Err("two repeats timed different chunks".into());
        }
        for (b, c) in best.iter_mut().zip(&t.chunks) {
            b.1 = b.1.min(c.1);
        }
        gap = gap.min(between(t));
    }
    let (setup_s, run_s) = (phase_s(&best, Phase::Setup), phase_s(&best, Phase::Run));
    Ok(Quiet {
        setup_s,
        run_s,
        total_s: setup_s + run_s + gap.as_secs_f64(),
    })
}

/// A reported number.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Extra text for the human-readable line (quartiles, counts).
    note: String,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        note: String::new(),
    }
}

impl Metric {
    fn noted(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// An end-to-end timing: the quiet-machine estimate is the value, the
/// plain median over whole repeats with its quartiles and R is the note.
fn timing(name: &str, quiet_s: f64, per_repeat_s: &[f64]) -> Metric {
    let q = Quartiles::of(per_repeat_s);
    metric(name, quiet_s, "s").noted(format!(
        "whole repeats: median {:.6} q1 {:.6} q3 {:.6} spread {:.1}% R={}",
        q.median,
        q.q1,
        q.q3,
        q.spread() * 100.0,
        q.n
    ))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Flow updates handed to any system, plus lint requests.
fn attempted(stats: &Stats) -> u64 {
    stats.systems.iter().map(|s| s.attempted).sum::<u64>() + stats.lint_requests
}

/// Operations the program left without a decided, correct outcome: a flow
/// update neither completed nor accounted as stranded, or a lint request
/// that was not clean. The gate refuses a run where this is not zero.
fn failed(stats: &Stats) -> u64 {
    stats
        .systems
        .iter()
        .map(|s| {
            s.attempted
                .saturating_sub(s.fct_ms.len() as u64 + s.stranded)
        })
        .sum::<u64>()
        + stats.lint_unclean
}

/// Completion times of the P4Update systems, pooled and sorted.
fn p4update_fct(w: &Workload, stats: &Stats) -> Vec<f64> {
    let pooled: Vec<f64> = w
        .systems()
        .iter()
        .zip(&stats.systems)
        .filter(|(spec, _)| spec.label.starts_with("p4update"))
        .flat_map(|(_, s)| s.fct_ms.iter().copied())
        .collect();
    sorted(&pooled)
}

/// Simulated results a user of the system would look at first. They are
/// exact for a seed, so they are reported (per layer, unbounded), not
/// bounded: see README, "Where this differs from the issue".
fn simulated_metrics(w: &Workload, stats: &Stats) -> Vec<Metric> {
    let fct = p4update_fct(w, stats);
    let pct = |p| {
        if fct.is_empty() {
            0.0
        } else {
            percentile_of_sorted(&fct, p)
        }
    };
    let stranded: u64 = stats.systems.iter().map(|s| s.stranded).sum();
    let tail = match highest_supported_percentile(fct.len()) {
        Some(p) => format!("highest supported tail: p{p} = {:.3} ms", pct(p)),
        None => "too few samples for any tail percentile".into(),
    };
    let (failures, of) = (stranded + stats.lint_unclean, attempted(stats));
    vec![
        metric("fct_p50_ms", pct(50.0), "ms"),
        metric("fct_p99_ms", pct(99.0), "ms"),
        metric("fct_samples", fct.len() as f64, "count").noted(tail),
        metric("failed_share", ratio(failures as f64, of as f64), "ratio").noted(format!(
            "{stranded} stranded + {} unclean of {of} attempted",
            stats.lint_unclean
        )),
    ]
}

/// `setup_s`, `run_s` and `total_s` of the untraced repeats, in that order.
fn phase_timings(m: &Measured) -> Result<[Metric; 3], String> {
    let quiet = quiet_machine(&m.untraced)?;
    let col = |f: &dyn Fn(&Timing) -> f64| m.untraced.iter().map(f).collect::<Vec<_>>();
    Ok([
        timing(
            "setup_s",
            quiet.setup_s,
            &col(&|t| phase_s(&t.chunks, Phase::Setup)),
        ),
        timing(
            "run_s",
            quiet.run_s,
            &col(&|t| phase_s(&t.chunks, Phase::Run)),
        ),
        timing("total_s", quiet.total_s, &col(&|t| t.total.as_secs_f64())),
    ])
}

fn per_layer(w: &Workload, m: &Measured, micro: &[micro::Sample]) -> Result<Vec<Metric>, String> {
    let stats = &m.stats;
    // Span times get the same quiet-machine treatment as the end-to-end
    // ones: each span from the traced repeat that ran it quietest.
    let spent = trace::breakdown(&m.spans, &m.quietest_self_ns);
    let span_s = |name: &str| spent.by_name.get(name).copied().unwrap_or(0.0);
    let all = |f: fn(&SystemStats) -> u64| stats.systems.iter().map(f).sum::<u64>() as f64;
    let events = all(|s| s.events);
    let run_until_s = span_s("sim.run_until");
    let multi_flow_s = span_s("traffic.multi_flow");
    let prepare_s = span_s("core.prepare_batch");
    let analyze_s = span_s("analysis.analyze");
    let reanalyze_s = span_s("analysis.reanalyze");

    let [_, run, total] = phase_timings(m)?;
    let mut out = simulated_metrics(w, stats);
    out.extend([run, total]);
    out.extend([
        metric("net.topology_build_s", span_s("net.topology_build"), "s"),
        metric("net.centroid_s", span_s("net.centroid"), "s"),
        metric("traffic.multi_flow_s", multi_flow_s, "s"),
        metric("traffic.flows", stats.flows as f64, "count"),
        metric(
            "traffic.us_per_flow",
            ratio(multi_flow_s * 1e6, stats.flows as f64),
            "us",
        ),
        metric("core.prepare_batch_s", prepare_s, "s"),
        metric(
            "core.prepare_us_per_plan",
            ratio(prepare_s * 1e6, stats.plans_prepared as f64),
            "us",
        ),
        metric("sim.world_build_s", span_s("sim.world_build"), "s"),
        metric("sim.install_paths_s", span_s("sim.install_paths"), "s"),
        metric("sim.add_batch_s", span_s("sim.add_batch"), "s"),
        metric("sim.run_until_s", run_until_s, "s"),
        metric("sim.extract_s", span_s("sim.extract"), "s"),
        metric("sim.teardown_s", span_s("sim.teardown"), "s"),
        metric("sim.events", events, "count"),
        metric("sim.ns_per_event", ratio(run_until_s * 1e9, events), "ns"),
        metric("sim.loop_events_per_s", ratio(events, run_until_s), "1/s"),
    ]);
    // One row per system any workload runs; zero where this one does not.
    let stats_of = |label: &str| {
        let at = w.systems().iter().position(|s| s.label == label)?;
        Some(&stats.systems[at])
    };
    for spec in ALL_SYSTEMS {
        let sys_events = stats_of(spec.label).map_or(0.0, |s| s.events as f64);
        let sys_run_s = spent
            .by_parent
            .get(&(spec.span, "sim.run_until"))
            .copied()
            .unwrap_or(0.0);
        let label = spec.label;
        out.extend([
            metric(format!("sim.run_until_s.{label}"), sys_run_s, "s"),
            metric(format!("sim.events.{label}"), sys_events, "count"),
            metric(
                format!("sim.ns_per_event.{label}"),
                ratio(sys_run_s * 1e9, sys_events),
                "ns",
            ),
        ]);
    }
    let completions = all(|s| s.completions);
    let unm = all(|s| s.unm_deliveries);
    let p50 = |s: Option<&SystemStats>| {
        s.filter(|s| !s.fct_ms.is_empty())
            .map_or(0.0, |s| percentile_of_sorted(&sorted(&s.fct_ms), 50.0))
    };
    let analyze_us_per_pass = ratio(analyze_s * 1e6, stats.full_passes as f64);
    let reanalyze_us_per_delta = ratio(reanalyze_s * 1e6, stats.deltas as f64);
    let untraced_total = quiet_machine(&m.untraced)?.total_s;
    let traced_total = quiet_machine(&m.traced)?.total_s;
    out.extend([
        metric("sim.completions", completions, "count"),
        metric("sim.stranded_flows", all(|s| s.stranded), "count"),
        metric("sim.alarms", all(|s| s.alarms), "count"),
        metric("sim.control_drops", all(|s| s.control_drops), "count"),
        metric("sim.unm_deliveries", unm, "count"),
        metric("sim.unm_per_completion", ratio(unm, completions), "ratio"),
        metric(
            "des.peak_queue_depth",
            stats
                .systems
                .iter()
                .map(|s| s.peak_queue_depth)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        metric(
            "baselines.ez-segway.fct_p50_ms",
            p50(stats_of("ez-segway")),
            "ms",
        ),
        metric(
            "baselines.central.fct_p50_ms",
            p50(stats_of("central")),
            "ms",
        ),
        metric(
            "baselines.ez-segway.stranded_flows",
            stats_of("ez-segway").map_or(0.0, |s| s.stranded as f64),
            "count",
        ),
        metric("analysis.analyze_s", analyze_s, "s"),
        metric("analysis.teardown_s", span_s("analysis.teardown"), "s"),
        metric(
            "analysis.analyze_us_per_plan",
            ratio(analyze_s * 1e6, stats.full_pass_plans as f64),
            "us",
        ),
        metric(
            "analysis.reanalyze_us_per_delta",
            reanalyze_us_per_delta,
            "us",
        ),
        metric(
            "analysis.relinted_per_delta",
            ratio(stats.relinted as f64, stats.deltas as f64),
            "ratio",
        ),
        metric(
            "analysis.reanalyze_vs_analyze",
            ratio(reanalyze_us_per_delta, analyze_us_per_pass),
            "ratio",
        ),
        metric("bench.self_s", spent.harness_self_s, "s"),
        metric(
            "bench.trace_overhead_share",
            traced_total / untraced_total - 1.0,
            "ratio",
        ),
        metric("host.spin_ns_per_iter", median(&m.spins), "ns"),
    ]);
    out.extend(
        micro
            .iter()
            .map(|&(name, value, unit)| metric(name, value, unit)),
    );
    Ok(out)
}

/// `name -> unit` of one section of `BENCHMARK.json`.
fn declared(doc: &Value, section: &str) -> Result<BTreeMap<String, String>, String> {
    let items = doc
        .get(section)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {section} array"))?;
    items
        .iter()
        .map(|item| {
            let field = |key| {
                item.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("BENCHMARK.json: a {section} entry lacks {key}"))
            };
            // Workloads carry no unit.
            Ok((field("name")?, field("unit").unwrap_or_default()))
        })
        .collect()
}

/// Every declared name is printed, every printed name is declared, with
/// the declared unit.
fn check_names(section: &str, metrics: &[Metric], doc: &Value) -> Result<(), String> {
    let want = declared(doc, section)?;
    for m in metrics {
        match want.get(&m.name) {
            None => {
                return Err(format!(
                    "{} is printed but not in BENCHMARK.json {section}",
                    m.name
                ))
            }
            Some(unit) if unit != m.unit => {
                return Err(format!(
                    "{}: unit {} here, {unit} in BENCHMARK.json",
                    m.name, m.unit
                ))
            }
            Some(_) => {}
        }
    }
    let printed: BTreeSet<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    if printed.len() != metrics.len() {
        return Err(format!("a {section} metric is printed twice"));
    }
    if let Some(missing) = want.keys().find(|k| !printed.contains(k.as_str())) {
        return Err(format!(
            "{missing} is in BENCHMARK.json {section} but not printed"
        ));
    }
    Ok(())
}

/// The checks on what the workload produced (the repeat-to-repeat and
/// lint-equality checks have already run inside the loop).
fn gate(w: &Workload, stats: &Stats, smoke: bool) -> Result<(), String> {
    let fault_free = matches!(&w.shape, Shape::Grid { lossy: false, .. });
    for (spec, s) in w.systems().iter().zip(&stats.systems) {
        if fault_free && s.alarms != 0 {
            return Err(format!(
                "{} raised {} alarms in fault-free runs",
                spec.label, s.alarms
            ));
        }
        if s.budget_exhausted != 0 {
            return Err(format!("{} hit the engine's livelock guard", spec.label));
        }
    }
    if stats.lint_unclean != 0 {
        return Err(format!(
            "{} of {} lint requests were not clean",
            stats.lint_unclean, stats.lint_requests
        ));
    }
    if failed(stats) != 0 {
        return Err(format!(
            "{} flow updates neither completed nor were accounted as stranded",
            failed(stats)
        ));
    }
    if attempted(stats) == 0 {
        return Err("the workload attempted nothing".into());
    }
    let samples = p4update_fct(w, stats).len();
    if !smoke && samples > 0 && highest_supported_percentile(samples).is_none_or(|p| p < 99.0) {
        return Err(format!("{samples} completion times cannot support a p99"));
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let doc = json::parse(BENCHMARK_JSON)?;
    let names = declared(&doc, "workloads")?;
    if !names
        .keys()
        .map(String::as_str)
        .eq(sorted_names().iter().copied())
    {
        return Err("BENCHMARK.json and the program disagree on the workload names".into());
    }
    let w = workloads::workload(&args.workload, args.smoke)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;

    println!(
        "p4update-benchmark workload={} seed={} seconds={} trace={} smoke={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke
    );
    println!(
        "machine: nproc={} threads=1 profile={} rustc=\"{}\"",
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        env!("BENCH_RUSTC_VERSION"),
    );

    let first_seed = w.first_seed(args.seed);
    let measured = measure(&w, first_seed, args.seconds, args.trace)?;
    gate(&w, &measured.stats, args.smoke)?;
    println!(
        "repeats: {} untraced + {} traced of seeds {}..={} (pool of {}) on {}",
        measured.untraced.len(),
        measured.traced.len(),
        first_seed,
        first_seed + w.seeds - 1,
        w.seed_pool,
        w.topology_names().join(", ")
    );

    let (section, metrics) = if args.trace {
        let min_seconds = micro::MIN_SECONDS * if args.smoke { 0.1 } else { 1.0 };
        let micro = micro::measure(min_seconds, &w.largest_topology())?;
        ("per_layer", per_layer(&w, &measured, &micro)?)
    } else {
        // `run_s` and `total_s` are bounded by nothing (README, "Where this
        // differs from the issue") but every run still shows them.
        let [setup, run, total] = phase_timings(&measured)?;
        println!("also measured (per_layer under --trace 1):");
        for m in [run, total]
            .iter()
            .chain(&simulated_metrics(&w, &measured.stats))
        {
            print_metric(m);
        }
        let rss = metric("peak_rss_mb", peak_rss_mb()?, "MiB");
        ("end_to_end", vec![setup, rss])
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a finite number", bad.name));
    }
    check_names(section, &metrics, &doc)?;

    if args.trace {
        let dir = args.out.clone().unwrap_or_else(|| {
            if std::path::Path::new("benchmark").is_dir() {
                PathBuf::from("benchmark/out")
            } else {
                PathBuf::from("out")
            }
        });
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.json", w.name));
        let mut text = trace::to_json(w.name, first_seed, &measured.spans).to_json();
        text.push('\n');
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "trace: {} spans -> {}",
            measured.spans.len(),
            path.display()
        );
    }

    println!("{section}:");
    for m in &metrics {
        print_metric(m);
    }
    let result = Value::obj([
        ("correct", Value::Bool(true)),
        ("attempted", Value::Num(attempted(&measured.stats) as f64)),
        ("failed", Value::Num(failed(&measured.stats) as f64)),
        (
            "metrics",
            Value::obj(metrics.iter().map(|m| {
                (
                    m.name.clone(),
                    Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
                )
            })),
        ),
    ]);
    println!("{}", result.to_json());
    Ok(())
}

fn sorted_names() -> Vec<&'static str> {
    let mut names = workloads::WORKLOAD_NAMES.to_vec();
    names.sort_unstable();
    names
}

fn print_metric(m: &Metric) {
    if m.note.is_empty() {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    } else {
        println!(
            "  {:<36} {:>16.6} {:<6} ({})",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("p4update-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("p4update-benchmark: gate failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(
            std::iter::once("bench".to_string()).chain(list.iter().map(|s| (*s).to_string())),
        )
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "dc-scale",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("dc-scale", 7, 20.0, true)
        );
        assert!(!a.smoke);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload", "x", "--seed", "one"]).is_err());
        assert!(args(&["--workload", "x", "--frobnicate", "1"]).is_err());
    }

    #[test]
    fn benchmark_json_names_the_programs_workloads() {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let names = declared(&doc, "workloads").expect("workloads");
        assert!(names
            .keys()
            .map(String::as_str)
            .eq(sorted_names().iter().copied()));
        for name in workloads::WORKLOAD_NAMES {
            assert!(workloads::workload(name, true).is_some());
            assert!(workloads::workload(name, false).is_some());
        }
        assert!(workloads::workload("nope", false).is_none());
    }

    #[test]
    fn seeds_fold_into_the_vetted_pool() {
        let w = workloads::workload("wan-sweep", false).expect("known");
        assert_eq!(w.first_seed(1), 1);
        assert_eq!(w.first_seed(2), 2);
        assert_eq!(w.first_seed(w.seed_pool), w.seed_pool);
        assert_eq!(w.first_seed(w.seed_pool + 1), 1);
        assert_eq!(w.first_seed(123_456), 123_456 - 41 * 3000);
        assert_eq!(w.first_seed(0), u64::MAX % w.seed_pool + 1);
        for name in workloads::WORKLOAD_NAMES {
            let w = workloads::workload(name, false).expect("known");
            for s in [0, 1, 7, w.seed_pool, u64::MAX] {
                assert!((1..=w.seed_pool).contains(&w.first_seed(s)));
            }
        }
    }

    #[test]
    fn name_check_catches_drift_in_either_direction() {
        let doc = json::parse(
            r#"{"end_to_end": [{"name": "a", "unit": "s"}, {"name": "b", "unit": "MiB"}]}"#,
        )
        .expect("valid");
        let ok = [metric("a", 1.0, "s"), metric("b", 2.0, "MiB")];
        assert_eq!(check_names("end_to_end", &ok, &doc), Ok(()));
        assert!(check_names("end_to_end", &ok[..1], &doc).is_err());
        let extra = [
            metric("a", 1.0, "s"),
            metric("b", 2.0, "MiB"),
            metric("c", 3.0, "s"),
        ];
        assert!(check_names("end_to_end", &extra, &doc).is_err());
        let wrong_unit = [metric("a", 1.0, "ms"), metric("b", 2.0, "MiB")];
        assert!(check_names("end_to_end", &wrong_unit, &doc).is_err());
    }

    #[test]
    fn failed_counts_only_undecided_operations() {
        let mut stats = Stats {
            systems: vec![SystemStats {
                attempted: 10,
                fct_ms: vec![1.0; 8],
                stranded: 2,
                ..SystemStats::default()
            }],
            lint_requests: 5,
            ..Stats::default()
        };
        assert_eq!((attempted(&stats), failed(&stats)), (15, 0));
        stats.systems[0].stranded = 1;
        stats.lint_unclean = 1;
        assert_eq!(failed(&stats), 2);
    }
}
