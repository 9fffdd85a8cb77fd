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
//! the effect buffers and the controller's stores.
//!
//! This test crate hosts a counting `#[global_allocator]`, which is why it
//! contains an `unsafe` block and exactly one `#[test]` (a second test
//! would share the counters).

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
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

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
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
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        // SAFETY: as above.
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Peak live bytes above the baseline, world build to end of run.
/// Recorded with this file unchanged, the same in both profiles:
/// 3,755,000 at a8a8bee (96-byte `Message`, per-switch `BTreeMap`s for
/// `capacity` and `pending`), 2,617,968 with the 40-byte `Message` and the
/// two vectors. The bound sits halfway.
const PEAK_BOUND: usize = 3_186_484;

#[test]
fn ft512_world_stays_under_its_recorded_peak() {
    let topo = topologies::synthetic_fat_tree_512();
    let batch = multi_flow(&topo, &mut SimRng::new(1), 0.55);
    let flows = batch.updates.len();
    let config = SimConfig::new(TimingConfig::fat_tree(), 1).with_analysis_gate(false);

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let mut world = NetworkSim::new(
        topo.clone(),
        System::P4Update(Strategy::ForceDual),
        config,
        Some(batch.free_capacity.clone()),
    );
    for u in &batch.updates {
        if let Some(old) = &u.old_path {
            world.install_initial_path(u.flow, old, u.size);
        }
    }
    let index = world.add_batch(batch.updates.clone());
    let mut sim = simulation(world);
    sim.schedule_at(SimTime::ZERO, Event::Trigger { batch: index });
    let _ = sim.run_until(SimTime::ZERO + SimDuration::from_secs(600));
    let peak = PEAK.load(Ordering::Relaxed) - before;

    // The run did its work: a world that completes nothing is small too.
    let mut world = sim.into_world();
    assert!(world.record_stranded_flows().is_empty());
    assert_eq!(world.metrics().counts().completions, flows as u64);
    assert!(
        peak <= PEAK_BOUND,
        "peak live heap of the ft512 world is {peak} bytes, bound {PEAK_BOUND}"
    );
    println!("ft512 world: peak live heap {peak} bytes over {flows} flows");
}
