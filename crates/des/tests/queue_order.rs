//! Engine-level check of the delivery order: events leave the queue in
//! strictly increasing `(time, schedule order)`. A reactive world
//! schedules seeded pseudo-random follow-ups (bursts of same-instant ties,
//! near-future chatter, far-future timers — the mixture a network sim
//! produces) and tags each with the index of its `schedule` call, so the
//! transcript checks itself: no reference run is needed to see a
//! misordering. Stopping at horizons must not change that transcript.

use p4update_des::{Scheduler, SimDuration, SimRng, SimTime, Simulation, World};

/// A world whose handler schedules a deterministic pseudo-random mixture
/// of follow-up events, recording everything it sees. An event's payload
/// is its schedule index: how many events were scheduled before it.
struct Churn {
    rng: SimRng,
    seen: Vec<(u64, u64)>,
    scheduled: u64,
    budget: u32,
}

impl Churn {
    fn new(seed: u64, budget: u32) -> Self {
        Churn {
            rng: SimRng::new(seed),
            seen: Vec::new(),
            scheduled: 0,
            budget,
        }
    }

    fn next_index(&mut self) -> u64 {
        self.scheduled += 1;
        self.scheduled - 1
    }
}

impl World for Churn {
    type Event = u64;

    fn handle(&mut self, now: SimTime, event: u64, sched: &mut Scheduler<u64>) {
        self.seen.push((now.as_nanos(), event));
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        // 0–3 follow-ups at the scales a network sim mixes: exact ties,
        // nanosecond offsets, microsecond jumps, second-scale timers.
        for _ in 0..self.rng.uniform_usize(4) {
            let delay = match self.rng.uniform_usize(8) {
                0 | 1 => SimDuration::ZERO,
                2 | 3 => SimDuration::from_nanos(self.rng.uniform_usize(50_000) as u64),
                4 | 5 => SimDuration::from_micros(self.rng.uniform_usize(5_000) as u64),
                6 => SimDuration::from_millis(self.rng.uniform_usize(500) as u64),
                _ => SimDuration::from_secs(1 + self.rng.uniform_usize(30) as u64),
            };
            let index = self.next_index();
            sched.schedule_in(delay, index);
        }
    }
}

/// A seeded simulation: `seeds` initial events spread over five instants.
fn seeded(seed: u64, budget: u32, seeds: u64) -> Simulation<Churn> {
    let mut sim = Simulation::new(Churn::new(seed, budget)).with_event_budget(50_000);
    for i in 0..seeds {
        let index = sim.world_mut().next_index();
        sim.schedule_at(SimTime::from_nanos((i % 5) * 1_000_000), index);
    }
    sim
}

fn assert_strictly_increasing(seen: &[(u64, u64)], what: &str) {
    for w in seen.windows(2) {
        assert!(
            w[0] < w[1],
            "{what}: {:?} delivered before {:?}",
            w[0],
            w[1]
        );
    }
}

/// Every event scheduled is delivered, in `(time, schedule index)` order.
#[test]
fn transcripts_are_strictly_increasing_in_time_then_schedule_order() {
    for seed in 0..25 {
        let mut sim = seeded(seed, 4_000, 32);
        assert!(sim.run().drained(), "seed {seed}");
        let world = sim.into_world();
        assert_eq!(world.seen.len() as u64, world.scheduled, "seed {seed}");
        assert_strictly_increasing(&world.seen, &format!("seed {seed}"));
    }
}

/// Advancing in horizon chunks (at each boundary the head stays queued)
/// delivers the same transcript as one uninterrupted run.
#[test]
fn chunked_run_until_equals_one_run() {
    let mut whole = seeded(99, 2_000, 16);
    assert!(whole.run().drained());

    let mut chunked = seeded(99, 2_000, 16);
    for secs in [1u64, 2, 3, 5, 8, 13, 21, 400] {
        chunked.run_until(SimTime::ZERO + SimDuration::from_secs(secs));
    }
    assert!(chunked.run().drained());

    let whole = whole.into_world().seen;
    assert_strictly_increasing(&whole, "one run");
    assert_eq!(chunked.into_world().seen, whole);
}
