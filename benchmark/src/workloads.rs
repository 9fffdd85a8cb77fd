//! The four workloads and the one pipeline they all drive: build the
//! topology, generate the batch, prepare and lint it as the controller
//! would, assemble the simulated network, run it to the horizon, extract
//! the statistics. Every call into a library crate goes through
//! [`Harness::lib`], which is where the traced run takes its spans.
//!
//! The benchmark uses each library's defaults and calls only the items
//! listed in `README.md` ("Pinned API surface"); a changed default is meant
//! to show up as a moved metric, not as an edit here.

use crate::trace::{Span, Tracer};
use p4update_analysis::{AnalysisContext, BatchAnalysis, BatchAnalyzer, PlanDelta};
use p4update_core::{prepare_batch, PreparedUpdate, Strategy};
use p4update_des::{RunOutcome, SimDuration, SimRng, SimTime};
use p4update_net::{topologies, FlowId, FlowUpdate, Topology, Version};
use p4update_sim::{
    simulation, Event, FaultConfig, NetworkSim, SimConfig, StreamingMetrics, System, TimingConfig,
};
use p4update_traffic::{multi_flow, Workload as Batch};
use std::time::{Duration, Instant};

/// Simulated seconds every run may take.
const HORIZON_S: u64 = 600;
/// Gravity-model load, as a share of total link capacity (§9.1's
/// near-capacity multi-flow setting; the value the repository's figures use).
const LOAD_FACTOR: f64 = 0.55;
/// `wan-lossy`: 5 % loss on both control channels plus 5 ms of reordering
/// jitter, recovered by the §11 controller timer.
const LOSSY_FAULTS: FaultConfig = FaultConfig {
    drop_ctrl_to_switch: 0.05,
    drop_switch_to_switch: 0.05,
    jitter_ms: 5.0,
    hold_ctrl_to: None,
};
const LOSSY_RETRY_MS: f64 = 300.0;

/// A system under test, with the names its results are reported under.
#[derive(Debug, Clone, Copy)]
pub struct SystemSpec {
    /// Label in metric names (`sim.events.<label>`).
    pub label: &'static str,
    /// Name of the harness span around one run of this system.
    pub span: &'static str,
    /// The simulator's selector.
    pub system: System,
}

/// P4Update, single-layer mechanism forced.
pub const P4_SL: SystemSpec = SystemSpec {
    label: "p4update-sl",
    span: "bench.system.p4update-sl",
    system: System::P4Update(Strategy::ForceSingle),
};
/// P4Update, dual-layer mechanism forced.
pub const P4_DL: SystemSpec = SystemSpec {
    label: "p4update-dl",
    span: "bench.system.p4update-dl",
    system: System::P4Update(Strategy::ForceDual),
};
/// ez-Segway with its centralized congestion priorities.
pub const EZ: SystemSpec = SystemSpec {
    label: "ez-segway",
    span: "bench.system.ez-segway",
    system: System::EzSegway { congestion: true },
};
/// The capacity-aware centralized baseline.
pub const CENTRAL: SystemSpec = SystemSpec {
    label: "central",
    span: "bench.system.central",
    system: System::Central { congestion: true },
};
/// Every system any workload runs, in reporting order.
pub const ALL_SYSTEMS: [SystemSpec; 4] = [P4_SL, P4_DL, EZ, CENTRAL];

/// A named topology constructor.
#[derive(Debug, Clone, Copy)]
pub struct TopoSpec {
    /// Name in the report.
    pub name: &'static str,
    /// Constructor (a `p4update_net::topologies` function).
    pub build: fn() -> Topology,
    /// Data-centre timing (`TimingConfig::fat_tree`) instead of the WAN
    /// model with the controller at the centroid.
    pub dc: bool,
}

fn fat_tree_k4() -> Topology {
    topologies::fat_tree(4)
}

const WAN_TOPOLOGIES: [TopoSpec; 5] = [
    TopoSpec {
        name: "b4",
        build: topologies::b4,
        dc: false,
    },
    TopoSpec {
        name: "internet2",
        build: topologies::internet2,
        dc: false,
    },
    TopoSpec {
        name: "att_mpls",
        build: topologies::att_mpls,
        dc: false,
    },
    TopoSpec {
        name: "chinanet",
        build: topologies::chinanet,
        dc: false,
    },
    TopoSpec {
        name: "fat_tree_k4",
        build: fat_tree_k4,
        dc: true,
    },
];
const FT4096: TopoSpec = TopoSpec {
    name: "ft4096",
    build: topologies::synthetic_fat_tree_4096,
    dc: true,
};
const FT512: TopoSpec = TopoSpec {
    name: "ft512",
    build: topologies::synthetic_fat_tree_512,
    dc: true,
};
/// Stand-in for ft4096 and ft512 under `--smoke`.
const FT64: TopoSpec = TopoSpec {
    name: "ft64",
    build: topologies::synthetic_fat_tree_64,
    dc: true,
};

/// What one repeat of a workload does.
#[derive(Debug, Clone)]
pub enum Shape {
    /// Every topology x every seed is a cell; each cell's batch runs
    /// through every system.
    Grid {
        /// Topologies, in cell order.
        topologies: Vec<TopoSpec>,
        /// Systems each cell runs.
        systems: Vec<SystemSpec>,
        /// Inject [`LOSSY_FAULTS`] and enable the retry timer.
        lossy: bool,
    },
    /// Per seed: prepare the batch, lint it in full `full_passes` times,
    /// then revise one plan at a time `revisions` times, re-linting
    /// incrementally after each.
    Lint {
        /// The one topology.
        topology: TopoSpec,
        /// Full `analyze` passes per seed.
        full_passes: usize,
        /// Single-plan revisions per seed.
        revisions: usize,
    },
}

/// A named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The pipeline shape.
    pub shape: Shape,
    /// Seeds per repeat: `B .. B+seeds-1`, `B` from [`Self::first_seed`].
    pub seeds: u64,
    /// Size of the pool `--seed` is folded into. Every seed a run can
    /// reach (`1 ..= seed_pool + seeds - 1`) was run once when the
    /// benchmark was defined: no panic, no alarm, every lint clean. The
    /// pool exists because the library does fail outside it — P4Update's
    /// congestion gate recurses without bound on about one WAN batch in
    /// ten thousand (README, "Seed pool") — and a benchmark input must
    /// not be one of those.
    pub seed_pool: u64,
    /// Fewest repeats, however short `--seconds` is. At least 2, so the
    /// repeat-to-repeat identity of the simulated statistics is checked.
    pub min_repeats: usize,
}

/// Names of the workloads, in `BENCHMARK.json` order.
pub const WORKLOAD_NAMES: [&str; 4] = ["wan-sweep", "wan-lossy", "dc-scale", "lint-churn"];

/// Look a workload up by name. `smoke` keeps every code path and shrinks
/// the inputs: two seeds, ft64 in place of ft4096 and ft512.
pub fn workload(name: &str, smoke: bool) -> Option<Workload> {
    let wan = |name, systems: &[SystemSpec], lossy, seeds| Workload {
        name,
        shape: Shape::Grid {
            topologies: WAN_TOPOLOGIES.to_vec(),
            systems: systems.to_vec(),
            lossy,
        },
        seeds: if smoke { 2 } else { seeds },
        seed_pool: 3000,
        min_repeats: 3,
    };
    Some(match name {
        "wan-sweep" => wan("wan-sweep", &ALL_SYSTEMS, false, 200),
        // The baselines have no loss recovery: a dropped message leaves
        // them polling until the horizon, which measures nothing.
        "wan-lossy" => wan("wan-lossy", &[P4_SL, P4_DL], true, 150),
        "dc-scale" => Workload {
            name: "dc-scale",
            shape: Shape::Grid {
                topologies: vec![if smoke { FT64 } else { FT4096 }],
                systems: vec![P4_DL],
                lossy: false,
            },
            seeds: if smoke { 2 } else { 1 },
            // An ft4096 run takes ~8 s, so only 32 seeds were vetted.
            seed_pool: 32,
            min_repeats: 2,
        },
        "lint-churn" => Workload {
            name: "lint-churn",
            shape: Shape::Lint {
                topology: if smoke { FT64 } else { FT512 },
                full_passes: 20,
                revisions: 150,
            },
            seeds: if smoke { 2 } else { 8 },
            seed_pool: 3000,
            min_repeats: 3,
        },
        _ => return None,
    })
}

impl Workload {
    /// First workload seed for `--seed S`: `S` itself up to the pool size,
    /// wrapping round beyond it (`S = 0` lands on the pool's last seed).
    pub fn first_seed(&self, cli_seed: u64) -> u64 {
        cli_seed.wrapping_sub(1) % self.seed_pool + 1
    }

    /// The systems each cell runs, in reporting order; none on `lint-churn`.
    pub fn systems(&self) -> &[SystemSpec] {
        match &self.shape {
            Shape::Grid { systems, .. } => systems,
            Shape::Lint { .. } => &[],
        }
    }

    fn topologies(&self) -> &[TopoSpec] {
        match &self.shape {
            Shape::Grid { topologies, .. } => topologies,
            Shape::Lint { topology, .. } => std::slice::from_ref(topology),
        }
    }

    /// Names of the topologies, in cell order.
    pub fn topology_names(&self) -> Vec<&'static str> {
        self.topologies().iter().map(|t| t.name).collect()
    }

    /// The topology with the most switches (first on ties): what the `net`
    /// micro-measurements run over.
    pub fn largest_topology(&self) -> Topology {
        let mut built = self.topologies().iter().map(|t| (t.build)());
        let first = built.next().expect("every workload has a topology");
        built.fold(first, |best, t| {
            if t.node_count() > best.node_count() {
                t
            } else {
                best
            }
        })
    }
}

/// Simulated statistics of one system over a repeat. Everything here is a
/// pure function of the workload and `--seed`, so two repeats must produce
/// equal values — the gate compares them with `==`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemStats {
    /// Events the engine delivered.
    pub events: u64,
    /// Largest pending-event high-water mark of any run.
    pub peak_queue_depth: u64,
    /// Flow updates handed to the system.
    pub attempted: u64,
    /// Completion time since the trigger, in simulated ms, of every flow
    /// update that completed inside the horizon, in cell and flow order.
    pub fct_ms: Vec<f64>,
    /// Flow updates the simulator accounts as stranded at the horizon.
    pub stranded: u64,
    /// Alarms the simulated controller received.
    pub alarms: u64,
    /// Control messages the fault injector dropped.
    pub control_drops: u64,
    /// UNM deliveries at switches.
    pub unm_deliveries: u64,
    /// Completion events the controller recorded.
    pub completions: u64,
    /// Runs that hit the engine's livelock guard instead of the horizon.
    pub budget_exhausted: u64,
}

/// Simulated and counted results of one repeat (see [`SystemStats`] for why
/// it is `PartialEq`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Per system, in the workload's system order.
    pub systems: Vec<SystemStats>,
    /// Flow updates `multi_flow` generated.
    pub flows: u64,
    /// Plans `prepare_batch` produced.
    pub plans_prepared: u64,
    /// Lint requests (`analyze` and `reanalyze` calls).
    pub lint_requests: u64,
    /// Lint requests that found an error-severity diagnostic, or a
    /// `reanalyze` that re-linted anything but the one revised plan.
    pub lint_unclean: u64,
    /// Full `analyze` passes.
    pub full_passes: u64,
    /// Plans covered by the full passes.
    pub full_pass_plans: u64,
    /// Single-plan revisions re-linted with `reanalyze`.
    pub deltas: u64,
    /// Plans those `reanalyze` calls actually re-linted.
    pub relinted: u64,
}

/// Which end-to-end bucket a stretch of the repeat is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Producing the inputs.
    Setup,
    /// The system under test working on them.
    Run,
}

/// One timed stretch of a repeat: a cell's input production, one system's
/// run over a cell, one lint request. A repeat is a fixed sequence of
/// chunks, so chunk `k` of one repeat is the same work as chunk `k` of
/// any other — which is what lets the report take each chunk's quietest
/// measurement (see `main.rs`, `quiet_machine`).
pub type Chunk = (Phase, Duration);

/// Timers of one repeat, plus the tracer when this is a traced one.
#[derive(Debug, Default)]
pub struct Harness {
    tracer: Option<Tracer>,
    chunks: Vec<Chunk>,
}

impl Harness {
    /// Phase timers only.
    pub fn untraced() -> Self {
        Harness::default()
    }

    /// Phase timers plus a span around every library call.
    pub fn traced() -> Self {
        Harness {
            tracer: Some(Tracer::new()),
            ..Harness::default()
        }
    }

    /// Call into a library crate; a span named `<layer>.<call>` when traced.
    fn lib<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &mut self.tracer {
            None => f(),
            Some(t) => {
                let span = t.open(name);
                let out = f();
                t.close(span);
                out
            }
        }
    }

    /// A harness scope (`bench.*`): groups the library calls inside it.
    fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let span = self.tracer.as_mut().map(|t| t.open(name));
        let out = f(self);
        if let (Some(t), Some(span)) = (&mut self.tracer, span) {
            t.close(span);
        }
        out
    }

    /// Time everything `f` does as one chunk charged to `phase`.
    fn phase<T>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> T) -> T {
        let start = Instant::now();
        let out = f(self);
        self.chunks.push((phase, start.elapsed()));
        out
    }

    /// The harness scope of (topology, seed) cell number `id`, from 1.
    fn cell<T>(&mut self, id: u32, f: impl FnOnce(&mut Self) -> T) -> T {
        if let Some(t) = &mut self.tracer {
            t.set_cell(id);
        }
        self.scope("bench.cell", f)
    }
}

/// Host-time results of one repeat.
#[derive(Debug)]
pub struct Repeat {
    /// The timed chunks, in order: `Setup` ones produce inputs, `Run`
    /// ones are the system under test working on them.
    pub chunks: Vec<Chunk>,
    /// The whole repeat, first library call to last statistic extracted.
    pub total: Duration,
    /// What the simulations and lints produced.
    pub stats: Stats,
    /// The spans, when this was a traced repeat.
    pub spans: Option<Vec<Span>>,
}

/// Run one repeat of `w` over the seeds from `seed` (a
/// [`Workload::first_seed`]) on. Lint outputs are cross-checked
/// against a fresh full analysis after the clock stops; a mismatch is an
/// error.
pub fn repeat(w: &Workload, seed: u64, mut h: Harness) -> Result<Repeat, String> {
    let start = Instant::now();
    let mut stats = Stats::default();
    let mut finals = Vec::new();
    h.scope("bench.repeat", |h| match &w.shape {
        Shape::Grid {
            topologies,
            systems,
            lossy,
        } => {
            stats.systems = vec![SystemStats::default(); systems.len()];
            let mut cell = 0;
            for spec in topologies {
                for s in seed..seed + w.seeds {
                    cell += 1;
                    h.cell(cell, |h| grid_cell(h, spec, systems, *lossy, s, &mut stats));
                }
            }
        }
        Shape::Lint {
            topology,
            full_passes,
            revisions,
        } => {
            for (i, s) in (seed..seed + w.seeds).enumerate() {
                finals.push(h.cell(i as u32 + 1, |h| {
                    lint_cell(h, topology, *full_passes, *revisions, s, &mut stats)
                }));
            }
        }
    });
    let total = start.elapsed();
    for (topo, installed, last) in &finals {
        let ctx = AnalysisContext::with_installed(Some(topo), installed.iter().copied());
        let fresh = BatchAnalyzer::new(1).analyze(last.plans(), &ctx);
        if fresh.diagnostics() != last.diagnostics() {
            return Err("incremental reanalyze disagrees with a fresh analyze".into());
        }
    }
    Ok(Repeat {
        chunks: h.chunks,
        total,
        stats,
        spans: h.tracer.map(Tracer::into_spans),
    })
}

/// Topology and batch of one cell: the inputs every system shares.
fn cell_inputs(
    h: &mut Harness,
    spec: &TopoSpec,
    seed: u64,
    stats: &mut Stats,
) -> (Topology, Batch) {
    let topo = h.lib("net.topology_build", spec.build);
    let batch = h.lib("traffic.multi_flow", || {
        multi_flow(&topo, &mut SimRng::new(seed), LOAD_FACTOR)
    });
    stats.flows += batch.updates.len() as u64;
    (topo, batch)
}

/// Installed configuration versions by flow, as the analyzer's context
/// takes them.
type Installed = Vec<(FlowId, Version)>;

/// The batch as the controller versions it: a migration moves installed
/// version 1 to version 2, a fresh deployment starts at version 1.
fn versioned(batch: &Batch) -> (Vec<(FlowUpdate, Version)>, Installed) {
    let mut installed = Vec::new();
    let updates = batch
        .updates
        .iter()
        .map(|u| {
            let version = if u.old_path.is_some() {
                installed.push((u.flow, Version(1)));
                Version(2)
            } else {
                Version(1)
            };
            (u.clone(), version)
        })
        .collect();
    (updates, installed)
}

fn grid_cell(
    h: &mut Harness,
    spec: &TopoSpec,
    systems: &[SystemSpec],
    lossy: bool,
    seed: u64,
    stats: &mut Stats,
) {
    let (topo, batch, timing) = h.phase(Phase::Setup, |h| {
        let (topo, batch) = cell_inputs(h, spec, seed, stats);
        let timing = if spec.dc {
            TimingConfig::fat_tree()
        } else {
            TimingConfig::wan_multi_flow(h.lib("net.centroid", || topo.centroid()))
        };
        (topo, batch, timing)
    });
    let mut config = SimConfig::new(timing, seed);
    if lossy {
        config = config
            .with_faults(LOSSY_FAULTS)
            .with_retry_ms(LOSSY_RETRY_MS);
    }
    for (i, sys) in systems.iter().enumerate() {
        h.phase(Phase::Run, |h| {
            h.scope(sys.span, |h| {
                if let System::P4Update(strategy) = sys.system {
                    prepare_and_lint(h, &topo, &batch, strategy, stats);
                }
                simulate(h, &topo, &batch, sys.system, config, &mut stats.systems[i]);
            });
        });
    }
}

/// What the controller does before a P4Update batch ships: prepare every
/// plan, then lint the batch (the simulator's own gate is a debug-build
/// default, so the release benchmark asks for the lint explicitly).
fn prepare_and_lint(
    h: &mut Harness,
    topo: &Topology,
    batch: &Batch,
    strategy: Strategy,
    stats: &mut Stats,
) {
    let (updates, installed) = versioned(batch);
    let plans = h.lib("core.prepare_batch", || prepare_batch(&updates, strategy));
    stats.plans_prepared += plans.len() as u64;
    let ctx = AnalysisContext::with_installed(Some(topo), installed);
    let analysis = h.lib("analysis.analyze", || {
        BatchAnalyzer::new(1).analyze(&plans, &ctx)
    });
    record_full_pass(&analysis, stats);
}

fn record_full_pass(analysis: &BatchAnalysis, stats: &mut Stats) {
    stats.lint_requests += 1;
    stats.full_passes += 1;
    stats.full_pass_plans += analysis.plan_count() as u64;
    if !analysis.is_clean() {
        stats.lint_unclean += 1;
    }
}

/// One system's run over one cell: assemble the network, install the old
/// paths, queue the batch, run to the horizon, read the statistics out.
fn simulate(
    h: &mut Harness,
    topo: &Topology,
    batch: &Batch,
    system: System,
    config: SimConfig,
    out: &mut SystemStats,
) {
    let mut world = h.lib("sim.world_build", || {
        NetworkSim::new(
            topo.clone(),
            system,
            config,
            Some(batch.free_capacity.clone()),
        )
        .with_metrics_sink(Box::new(StreamingMetrics::new()))
    });
    h.lib("sim.install_paths", || {
        for u in &batch.updates {
            if let Some(old) = &u.old_path {
                world.install_initial_path(u.flow, old, u.size);
            }
        }
    });
    let mut sim = h.lib("sim.add_batch", || {
        let index = world.add_batch(batch.updates.clone());
        let mut sim = simulation(world);
        sim.schedule_at(SimTime::ZERO, Event::Trigger { batch: index });
        sim
    });
    let outcome = h.lib("sim.run_until", || {
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(HORIZON_S))
    });
    let (events, peak, stranded, counts, world) = h.lib("sim.extract", || {
        let (events, peak) = (sim.events_delivered(), sim.peak_queue_depth());
        let mut world = sim.into_world();
        let stranded = world.record_stranded_flows().len();
        (events, peak, stranded, world.sink().counts(), world)
    });
    // Completion time of a flow update: its last completion event (the
    // trigger fires at t = 0, so the timestamp is the time since trigger).
    let mut last_ms: Vec<Option<f64>> = vec![None; batch.updates.len()];
    for &(t, flow, _) in world.sink().completions() {
        let slot = &mut last_ms[flow.index()];
        *slot = Some(slot.map_or(t.as_millis_f64(), |prev| prev.max(t.as_millis_f64())));
    }
    // Freeing the world is the simulator's work too (dense tables, one
    // register file per switch), so it gets a span rather than counting
    // as harness time.
    h.lib("sim.teardown", move || drop(world));
    out.events += events;
    out.peak_queue_depth = out.peak_queue_depth.max(peak as u64);
    out.attempted += batch.updates.len() as u64;
    out.fct_ms.extend(last_ms.into_iter().flatten());
    out.stranded += stranded as u64;
    out.alarms += counts.alarms;
    out.control_drops += counts.control_drops;
    out.unm_deliveries += counts.unm_deliveries;
    out.completions += counts.completions;
    if matches!(outcome, RunOutcome::EventBudgetExhausted { .. }) {
        out.budget_exhausted += 1;
    }
}

/// `plan` re-issued `bumps` versions later, on the plan and on every UIM,
/// the way a controller re-sending the same route would.
fn revised(plan: &PreparedUpdate, bumps: u32) -> PreparedUpdate {
    let mut next = plan.clone();
    next.version = Version(plan.version.0 + bumps);
    for (_, uim) in &mut next.uims {
        uim.version = next.version;
    }
    next
}

/// The final analysis of a lint cell with what is needed to re-derive it.
type LintFinal = (Topology, Installed, BatchAnalysis);

fn lint_cell(
    h: &mut Harness,
    spec: &TopoSpec,
    full_passes: usize,
    revisions: usize,
    seed: u64,
    stats: &mut Stats,
) -> LintFinal {
    let (topo, installed, plans, deltas) = h.phase(Phase::Setup, |h| {
        let (topo, batch) = cell_inputs(h, spec, seed, stats);
        let (updates, installed) = versioned(&batch);
        let plans = h.lib("core.prepare_batch", || {
            prepare_batch(&updates, Strategy::Auto)
        });
        stats.plans_prepared += plans.len() as u64;
        // Revision k touches plan (37k) mod n: a stride coprime to the
        // fat-tree sizes, so the edits wander over the whole batch.
        let mut bumps = vec![0u32; plans.len()];
        let deltas: Vec<PlanDelta> = (0..revisions)
            .map(|k| {
                let at = (37 * k) % plans.len();
                bumps[at] += 1;
                PlanDelta {
                    revised: vec![(at, revised(&plans[at], bumps[at]))],
                    ..PlanDelta::default()
                }
            })
            .collect();
        (topo, installed, plans, deltas)
    });
    let ctx = AnalysisContext::with_installed(Some(&topo), installed.iter().copied());
    let engine = BatchAnalyzer::new(1);
    // One chunk per lint request. A caller that re-lints in a loop also
    // frees the analysis it replaces; that is the analysis layer's work,
    // so it is inside the chunk and gets a span.
    let mut last = h.phase(Phase::Run, |h| {
        h.lib("analysis.analyze", || engine.analyze(&plans, &ctx))
    });
    record_full_pass(&last, stats);
    for _ in 1..full_passes {
        h.phase(Phase::Run, |h| {
            let next = h.lib("analysis.analyze", || engine.analyze(&plans, &ctx));
            record_full_pass(&next, stats);
            let old = std::mem::replace(&mut last, next);
            h.lib("analysis.teardown", move || drop(old));
        });
    }
    for delta in &deltas {
        h.phase(Phase::Run, |h| {
            let next = h.lib("analysis.reanalyze", || {
                engine.reanalyze(&last, delta, &ctx)
            });
            stats.lint_requests += 1;
            stats.deltas += 1;
            stats.relinted += next.revalidated() as u64;
            if !next.is_clean() || next.revalidated() != 1 {
                stats.lint_unclean += 1;
            }
            let old = std::mem::replace(&mut last, next);
            h.lib("analysis.teardown", move || drop(old));
        });
    }
    (topo, installed, last)
}
