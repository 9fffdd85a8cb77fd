//! Heap footprint of one simulated world: the regression oracle that the
//! benchmark's `peak_rss_mb` cannot be.
//!
//! `peak_rss_mb` is a high-water mark of the whole process, page-granular
//! and allocator-dependent; this is a deterministic count. One
//! `synthetic_fat_tree_512` `p4update-dl` batch is built the way the
//! benchmark builds `dc-scale`'s (`multi_flow` at 0.55, seed 1, old paths
//! installed, one batch, 600 simulated seconds) and the test bounds the
//! peak of *requested live bytes* above what was live before the world
//! existed: switch state, the logics' per-switch tables, the event queue,
//! the effect buffers and the controller's stores. Beside the bound, three
//! exact counts: a built topology is live at its pinned size (no builder
//! slack), a clone of it requests nothing (the world holds a handle, not a
//! copy), and the world at rest after the run weighs what was recorded.
//! `--nocapture` prints live bytes after each phase.
//!
//! This test crate hosts a counting `#[global_allocator]`, which is why it
//! contains an `unsafe` block and exactly one `#[test]` (a second test
//! would share the counters). It counts only the thread that measures:
//! libtest's main thread allocates some bookkeeping after it spawns the
//! test thread, and whether that lands before or after the baseline is
//! read is up to the scheduler, so counting every thread made the exact
//! counts flaky.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use p4update::core::Strategy;
use p4update::des::{SimDuration, SimRng, SimTime};
use p4update::net::topologies;
use p4update::sim::{simulation, Event, NetworkSim, SimConfig, System, TimingConfig};
use p4update::traffic::multi_flow;

/// Tracks requested bytes: live now, and the most ever live.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the measuring thread only; every other thread goes uncounted.
    /// `const`-initialized with no destructor, so reading it from inside
    /// the allocator never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// False on a thread that does not count, and on one whose thread-local
/// is not (or no longer) available.
fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

fn grew(by: usize) {
    if counting() {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(by: usize) {
    if counting() {
        LIVE.fetch_sub(by, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counters touch no memory the
// allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { SystemAlloc.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: as above.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            shrank(layout.size() - new_size);
        }
        // SAFETY: as above.
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Peak live bytes above the baseline, world build to end of run.
/// Recorded with the measured section unchanged, the same in both profiles:
/// 3,755,000 at a8a8bee (96-byte `Message`, per-switch `BTreeMap`s for
/// `capacity` and `pending`), 2,617,968 at bad153b (40-byte `Message`, the
/// two vectors), 1,999,704 with the topology a shared handle, `Uib::index`
/// and `ufm_sent` sorted vectors and the trigger pass's effect buffer given
/// back. The bound sits halfway between the last two. The peak has since
/// fallen to 1,915,256 (reports draw their latency at the switch, the
/// per-switch overhead counters are gone) and the bound stayed. Then
/// 1,692,760 with `pending` and the `Parked` lists freed when they empty;
/// the bound sits halfway between 1,915,256 and that. (The trigger pass
/// shipping one P4Update flow at a time does not move this peak: at ft512
/// the run, not the trigger, sets it.)
const PEAK_BOUND: usize = 1_804_008;

/// What the world holds above the baseline once the run is over and the
/// queue is empty, to the byte: 2,519,872 at bad153b, 1,901,496 at dfbc3c2,
/// then 68,064 fewer with reports drawing their latency at the switch and
/// 16,384 fewer without the per-switch overhead counters (32 bytes on each
/// of 512 switches), then 1,593,384: 223,664 fewer with `pending` and the
/// `Parked` lists freed when they empty. The peak's bound has room for any
/// one of the things this count is for — a per-switch map back in place of
/// a sorted vector is +37,280 (`Uib::index`) or +36,864 (`ufm_sent`), a
/// whole-batch trigger pass keeping its buffer +196,416 — so each fails
/// here. Re-record it, on purpose, when the world's state changes.
const REST_BYTES: usize = 1_593_384;

/// What a built `synthetic_fat_tree_512` keeps live, to the byte: the
/// handle's `Rc` box, `nodes`, `links` and the adjacency lists at their
/// exact sizes, and the names (365,054 with the builder's growth slack).
const FT512_TOPOLOGY_BYTES: usize = 348_782;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Restart the high-water mark at what is live now, and return that.
fn mark() -> usize {
    let now = live();
    PEAK.store(now, Ordering::Relaxed);
    now
}

#[test]
fn ft512_world_stays_under_its_recorded_peak() {
    COUNTING.with(|c| c.set(true));
    // Live bytes after each phase, printed at the end: a captured `println!`
    // allocates, and pushing within this capacity does not.
    let mut phases: Vec<(&str, usize)> = Vec::with_capacity(8);
    let start = live();

    let topo = topologies::synthetic_fat_tree_512();
    phases.push(("topology", live() - start));
    assert_eq!(live() - start, FT512_TOPOLOGY_BYTES);

    // A clone is a handle: any request at all would lift the mark.
    let before_clone = mark();
    let handle = topo.clone();
    assert_eq!(PEAK.load(Ordering::Relaxed), before_clone);
    drop(handle);

    let batch = multi_flow(&topo, &mut SimRng::new(1), 0.55);
    phases.push(("multi_flow", live() - start));
    let flows = batch.updates.len();
    let config = SimConfig::new(TimingConfig::fat_tree(), 1);

    let before = mark();
    let mut world = NetworkSim::new(
        topo.clone(),
        System::P4Update(Strategy::ForceDual),
        config,
        Some(batch.free_capacity.clone()),
    );
    phases.push(("world build", live() - start));
    for u in &batch.updates {
        if let Some(old) = &u.old_path {
            world.install_initial_path(u.flow, old, u.size);
        }
    }
    phases.push(("installs", live() - start));
    let index = world.add_batch(batch.updates.clone());
    phases.push(("add_batch", live() - start));
    let mut sim = simulation(world);
    sim.schedule_at(SimTime::ZERO, Event::Trigger { batch: index });
    let _ = sim.run_until(SimTime::ZERO + SimDuration::from_secs(600));
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let rest = live() - before;
    phases.push(("run peak", before + peak - start));
    phases.push(("after run", live() - start));
    for (name, bytes) in phases {
        println!("{name:>12}: {bytes:>9} bytes live");
    }
    println!("ft512 world: peak live heap {peak} bytes over {flows} flows");
    assert_eq!(rest, REST_BYTES);

    // The run did its work: a world that completes nothing is small too.
    let mut world = sim.into_world();
    assert!(world.record_stranded_flows().is_empty());
    assert_eq!(world.metrics().counts().completions, flows as u64);
    assert!(
        peak <= PEAK_BOUND,
        "peak live heap of the ft512 world is {peak} bytes, bound {PEAK_BOUND}"
    );
}
