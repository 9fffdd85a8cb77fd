//! The discrete-event engine.
//!
//! The engine is a priority queue of timestamped events plus a world that
//! consumes them. Determinism is the design constraint everything else bends
//! to: two events at the same instant are delivered in the order they were
//! scheduled (FIFO tie-break on a monotonically increasing sequence number),
//! so a run is a pure function of (world, seed).
//!
//! The FIFO tie-break is one *policy* behind the [`Chooser`] seam: the
//! default [`FifoChooser`] reproduces it exactly, while an exploring
//! chooser (see `p4update-explore`) may pick any of the tied events and
//! thereby steer the run through a different interleaving.

use crate::choice::{ChoiceKind, Chooser, FifoChooser};
use crate::queue::RadixHeap;
use crate::time::{SimDuration, SimTime};

/// A world that reacts to events of type `E`.
///
/// The handler receives a [`Scheduler`] through which it may schedule further
/// events; it must not assume anything about wall-clock time.
pub trait World {
    /// The event payload type this world consumes.
    type Event;

    /// Handle one event at simulated time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// The event queue handed to [`World::handle`]; schedules future events.
///
/// Events wait in a [`RadixHeap`] keyed by their time in nanoseconds, with
/// `seq`, the order they were scheduled in, beside them, and leave it in
/// strict `(time, seq)` order: the heap pops equal keys first in, first
/// out. The heap holds as many slots as events were ever pending at once.
pub struct Scheduler<E> {
    queue: RadixHeap<(u64, E)>,
    next_seq: u64,
    now: SimTime,
    chooser: Box<dyn Chooser>,
    /// Cached [`Chooser::is_trivial`] so the hot pop path and every
    /// world-level choice point branch on a plain bool instead of making
    /// a virtual call.
    trivial: bool,
    peak_pending: usize,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler at t = 0 with the default FIFO tie-break policy.
    pub fn new() -> Self {
        Scheduler {
            queue: RadixHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            chooser: Box::new(FifoChooser),
            trivial: true,
            peak_pending: 0,
        }
    }

    /// Replace the choice-point policy (tie-breaks and world-level
    /// decisions). The default is [`FifoChooser`].
    pub fn set_chooser(&mut self, chooser: Box<dyn Chooser>) {
        self.trivial = chooser.is_trivial();
        self.chooser = chooser;
    }

    /// Resolve a world-level choice point (e.g., a per-message fault
    /// decision) through the installed chooser. `arity` must be at least 1;
    /// the result is always in `[0, arity)`, and `0` means "default". A
    /// trivial chooser is not consulted: a world can emit a choice point
    /// per message and pay a branch for it under the default policy.
    pub fn choose(&mut self, kind: ChoiceKind, arity: usize) -> usize {
        assert!(arity >= 1, "choice point with no alternatives");
        if arity == 1 || self.trivial {
            return 0;
        }
        let pick = self.chooser.choose(kind, arity);
        assert!(
            pick < arity,
            "chooser picked {pick} at a {kind:?} choice point of arity {arity}"
        );
        pick
    }

    /// Current simulated time (the timestamp of the event being handled).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedule `event` at an absolute time. Events scheduled in the past are
    /// clamped to `now`: delivering them "immediately" keeps causality (a
    /// handler can never observe time moving backwards).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(at.as_nanos(), (seq, event));
        self.peak_pending = self.peak_pending.max(self.queue.len());
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// High-water mark of the pending-event queue over the whole run — the
    /// "peak queue depth" the benchmark reports.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Remove and return the next event to deliver, if its time is at or
    /// before `horizon`.
    ///
    /// With the trivial (FIFO) chooser this is a plain queue pop. With an
    /// exploring chooser, all events tied at the earliest timestamp are
    /// gathered in FIFO order and presented as a [`ChoiceKind::TieBreak`]
    /// choice point; the unchosen ones go back on the queue (their original
    /// sequence numbers keep the relative FIFO order stable).
    fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, u64, E)> {
        let (at, first) = self.queue.pop_until(horizon.as_nanos())?;
        let time = SimTime::from_nanos(at);
        if self.trivial {
            return Some((time, first.0, first.1));
        }
        // Every event at `at` was pushed in increasing `seq` order (a
        // schedule takes the next `seq`; the re-push below goes back in
        // order into a bucket the gathering emptied), so `tied` is in FIFO
        // order and index 0 is the historical pick.
        let mut tied = vec![first];
        while let Some((_, next)) = self.queue.pop_until(at) {
            let prev = tied.last().expect("non-empty").0;
            assert!(prev < next.0, "seq {} popped behind seq {prev}", next.0);
            tied.push(next);
        }
        let pick = if tied.len() == 1 {
            0
        } else {
            let pick = self.chooser.choose(ChoiceKind::TieBreak, tied.len());
            assert!(
                pick < tied.len(),
                "chooser picked {pick} at a tie of arity {}",
                tied.len()
            );
            pick
        };
        let (seq, event) = tied.remove(pick);
        for entry in tied {
            self.queue.push(at, entry);
        }
        Some((time, seq, event))
    }
}

/// Outcome of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    QueueDrained {
        /// Time of the last delivered event.
        finished_at: SimTime,
        /// Total number of events delivered.
        events: u64,
    },
    /// The configured horizon was reached with events still pending.
    HorizonReached {
        /// The horizon that stopped the run.
        horizon: SimTime,
        /// Total number of events delivered before stopping.
        events: u64,
    },
    /// The event budget was exhausted (livelock guard).
    EventBudgetExhausted {
        /// The time at which the budget ran out.
        stopped_at: SimTime,
        /// The budget that was exhausted.
        budget: u64,
    },
}

impl RunOutcome {
    /// True when the queue drained (the normal way a scenario ends).
    pub fn drained(&self) -> bool {
        matches!(self, RunOutcome::QueueDrained { .. })
    }
}

/// The simulation driver: owns the world and the scheduler.
pub struct Simulation<W: World> {
    world: W,
    sched: Scheduler<W::Event>,
    events_delivered: u64,
    /// Hard cap on delivered events; protects tests against livelock from a
    /// buggy world that reschedules forever. Generous by default.
    event_budget: u64,
}

impl<W: World> Simulation<W> {
    /// Wrap a world, starting at t = 0 with an empty queue.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            sched: Scheduler::new(),
            events_delivered: 0,
            event_budget: u64::MAX,
        }
    }

    /// Replace the livelock guard (delivered-event cap).
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Replace the choice-point policy (see [`Scheduler::set_chooser`]).
    pub fn with_chooser(mut self, chooser: Box<dyn Chooser>) -> Self {
        self.sched.set_chooser(chooser);
        self
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (for pre-run configuration).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consume the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Total events delivered so far.
    pub fn events_delivered(&self) -> u64 {
        self.events_delivered
    }

    /// High-water mark of pending events (see [`Scheduler::peak_pending`]).
    pub fn peak_queue_depth(&self) -> usize {
        self.sched.peak_pending()
    }

    /// Seed the queue before running.
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) {
        self.sched.schedule_at(at, event);
    }

    /// Run until the queue drains.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::from_nanos(u64::MAX))
    }

    /// Run until the queue drains or simulated time would exceed `horizon`.
    /// Events at exactly `horizon` are still delivered.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        loop {
            if self.events_delivered >= self.event_budget {
                return RunOutcome::EventBudgetExhausted {
                    stopped_at: self.sched.now(),
                    budget: self.event_budget,
                };
            }
            // What leaves the queue is delivered: an event beyond the
            // horizon stays where it is.
            if self.step_until(horizon).is_none() {
                return if self.sched.pending() == 0 {
                    RunOutcome::QueueDrained {
                        finished_at: self.sched.now(),
                        events: self.events_delivered,
                    }
                } else {
                    RunOutcome::HorizonReached {
                        horizon,
                        events: self.events_delivered,
                    }
                };
            }
        }
    }

    /// Deliver exactly one event, if any is pending. Returns its timestamp.
    /// Useful for lock-step tests that interleave assertions with events.
    pub fn step(&mut self) -> Option<SimTime> {
        self.step_until(SimTime::from_nanos(u64::MAX))
    }

    /// Deliver the next event if its time is at or before `horizon`.
    fn step_until(&mut self, horizon: SimTime) -> Option<SimTime> {
        let (at, _seq, event) = self.sched.pop_until(horizon)?;
        self.sched.now = at;
        self.events_delivered += 1;
        self.world.handle(at, event, &mut self.sched);
        Some(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the order events arrive in.
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, event: u32, _sched: &mut Scheduler<u32>) {
            self.seen.push((now, event));
        }
    }

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(n)
    }

    #[test]
    fn events_deliver_in_time_order() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.schedule_at(ms(30), 3);
        sim.schedule_at(ms(10), 1);
        sim.schedule_at(ms(20), 2);
        assert!(sim.run().drained());
        let order: Vec<u32> = sim.world().seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        for i in 0..100 {
            sim.schedule_at(ms(5), i);
        }
        sim.run();
        let order: Vec<u32> = sim.world().seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn horizon_stops_and_resumes() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.schedule_at(ms(10), 1);
        sim.schedule_at(ms(20), 2);
        let out = sim.run_until(ms(15));
        assert_eq!(
            out,
            RunOutcome::HorizonReached {
                horizon: ms(15),
                events: 1
            }
        );
        assert_eq!(sim.world().seen.len(), 1);
        assert!(sim.run().drained());
        assert_eq!(sim.world().seen.len(), 2);
    }

    /// Stopping at a horizon leaves the head queued and the queue where it
    /// was; an event scheduled afterwards for an earlier time is still
    /// delivered first, whether the head is near (20 ms) or far (10 s).
    #[test]
    fn a_later_schedule_below_a_looked_at_head_is_delivered_first() {
        for head in [ms(20), ms(10_000)] {
            let mut sim = Simulation::new(Recorder { seen: vec![] });
            sim.schedule_at(ms(1), 1);
            sim.schedule_at(head, 3);
            assert!(!sim.run_until(ms(5)).drained());
            sim.schedule_at(ms(7), 2);
            assert!(sim.run().drained());
            assert_eq!(sim.world().seen, vec![(ms(1), 1), (ms(7), 2), (head, 3)]);
        }
    }

    #[test]
    fn events_at_horizon_are_delivered() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.schedule_at(ms(15), 1);
        sim.run_until(ms(15));
        assert_eq!(sim.world().seen.len(), 1);
    }

    /// A world that chains: each event schedules the next until a countdown
    /// hits zero.
    struct Chain {
        fired: u32,
    }
    impl World for Chain {
        type Event = u32;
        fn handle(&mut self, _now: SimTime, event: u32, sched: &mut Scheduler<u32>) {
            self.fired += 1;
            if event > 0 {
                sched.schedule_in(SimDuration::from_millis(1), event - 1);
            }
        }
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut sim = Simulation::new(Chain { fired: 0 });
        sim.schedule_at(ms(0), 9);
        let out = sim.run();
        assert!(out.drained());
        assert_eq!(sim.world().fired, 10);
        assert_eq!(sim.now(), ms(9));
    }

    #[test]
    fn event_budget_stops_livelock() {
        struct Forever;
        impl World for Forever {
            type Event = ();
            fn handle(&mut self, _now: SimTime, _e: (), sched: &mut Scheduler<()>) {
                sched.schedule_in(SimDuration::ZERO, ());
            }
        }
        let mut sim = Simulation::new(Forever).with_event_budget(1000);
        sim.schedule_at(SimTime::ZERO, ());
        let out = sim.run();
        assert_eq!(
            out,
            RunOutcome::EventBudgetExhausted {
                stopped_at: SimTime::ZERO,
                budget: 1000
            }
        );
    }

    #[test]
    fn past_events_clamp_to_now() {
        struct PastScheduler {
            second_delivery: Option<SimTime>,
        }
        impl World for PastScheduler {
            type Event = u8;
            fn handle(&mut self, now: SimTime, e: u8, sched: &mut Scheduler<u8>) {
                if e == 0 {
                    // Try to schedule into the past.
                    sched.schedule_at(SimTime::ZERO, 1);
                } else {
                    self.second_delivery = Some(now);
                }
            }
        }
        let mut sim = Simulation::new(PastScheduler {
            second_delivery: None,
        });
        sim.schedule_at(ms(10), 0);
        sim.run();
        assert_eq!(sim.world().second_delivery, Some(ms(10)));
    }

    /// Picks alternative 0 like FIFO, but through the non-trivial seam
    /// path (tie sets are gathered and presented).
    struct ExplicitFifo;
    impl Chooser for ExplicitFifo {
        fn choose(&mut self, _kind: ChoiceKind, _arity: usize) -> usize {
            0
        }
    }

    /// Always picks the newest tied event (reverses FIFO).
    struct Lifo;
    impl Chooser for Lifo {
        fn choose(&mut self, _kind: ChoiceKind, arity: usize) -> usize {
            arity - 1
        }
    }

    /// Regression pin for the choice-point seam: the default policy is
    /// FIFO, and routing the same run through an explicit always-0 chooser
    /// (the non-trivial seam path) delivers the identical order.
    #[test]
    fn default_policy_is_fifo_and_choosing_zero_matches_it() {
        let run = |chooser: Option<Box<dyn Chooser>>| -> Vec<u32> {
            let mut sim = Simulation::new(Recorder { seen: vec![] });
            if let Some(c) = chooser {
                sim = sim.with_chooser(c);
            }
            for i in 0..50 {
                sim.schedule_at(ms(5), i);
                sim.schedule_at(ms(9), 100 + i);
            }
            assert!(sim.run().drained());
            sim.world().seen.iter().map(|&(_, e)| e).collect()
        };
        let default_order = run(None);
        let explicit_fifo = run(Some(Box::new(ExplicitFifo)));
        assert_eq!(default_order, explicit_fifo);
        let expected: Vec<u32> = (0..50).chain(100..150).collect();
        assert_eq!(default_order, expected);
    }

    /// The seam is live: a non-FIFO chooser really changes tie delivery
    /// order (and only tie delivery order — time order is untouched).
    #[test]
    fn lifo_chooser_reverses_ties_but_not_time_order() {
        let mut sim = Simulation::new(Recorder { seen: vec![] }).with_chooser(Box::new(Lifo));
        for i in 0..10 {
            sim.schedule_at(ms(5), i);
        }
        sim.schedule_at(ms(1), 99);
        assert!(sim.run().drained());
        let order: Vec<u32> = sim.world().seen.iter().map(|&(_, e)| e).collect();
        let mut expected: Vec<u32> = vec![99];
        expected.extend((0..10).rev());
        assert_eq!(order, expected);
    }

    /// World-level choice points resolve through the same chooser, with
    /// arity-1 decisions short-circuited to the default.
    #[test]
    fn scheduler_choose_consults_the_chooser() {
        let mut sched: Scheduler<u32> = Scheduler::new();
        assert_eq!(sched.choose(ChoiceKind::Fault, 4), 0);
        sched.set_chooser(Box::new(Lifo));
        assert_eq!(sched.choose(ChoiceKind::Fault, 4), 3);
        assert_eq!(sched.choose(ChoiceKind::Fault, 1), 0);
    }

    /// A trivial chooser is never consulted at a world-level choice point
    /// (nor at a tie), so a world may ask at every message.
    #[test]
    fn a_trivial_chooser_is_never_consulted() {
        struct Untouchable;
        impl Chooser for Untouchable {
            fn choose(&mut self, kind: ChoiceKind, _arity: usize) -> usize {
                panic!("trivial chooser consulted at a {kind:?} choice point");
            }
            fn is_trivial(&self) -> bool {
                true
            }
        }
        let mut sim =
            Simulation::new(Recorder { seen: vec![] }).with_chooser(Box::new(Untouchable));
        assert_eq!(sim.sched.choose(ChoiceKind::Fault, 4), 0);
        assert_eq!(sim.sched.choose(ChoiceKind::Byzantine, 2), 0);
        sim.schedule_at(ms(5), 1);
        sim.schedule_at(ms(5), 2);
        assert!(sim.run().drained());
    }

    /// Peak queue depth is a high-water mark: it survives the drain and
    /// counts the seed events plus everything scheduled mid-run.
    #[test]
    fn peak_queue_depth_tracks_high_water_mark() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        assert_eq!(sim.peak_queue_depth(), 0);
        for i in 0..7 {
            sim.schedule_at(ms(i), i as u32);
        }
        assert_eq!(sim.peak_queue_depth(), 7);
        assert!(sim.run().drained());
        // Drained, but the peak is remembered.
        assert_eq!(sim.peak_queue_depth(), 7);
    }

    /// Replacing the chooser updates the cached trivial flag in both
    /// directions: FIFO -> exploring -> FIFO keeps delivery semantics.
    #[test]
    fn chooser_swap_updates_fast_path() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim = sim.with_chooser(Box::new(Lifo));
        sim = sim.with_chooser(Box::new(FifoChooser));
        for i in 0..10 {
            sim.schedule_at(ms(5), i);
        }
        assert!(sim.run().drained());
        let order: Vec<u32> = sim.world().seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn step_delivers_one_event() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.schedule_at(ms(1), 1);
        sim.schedule_at(ms(2), 2);
        assert_eq!(sim.step(), Some(ms(1)));
        assert_eq!(sim.world().seen.len(), 1);
        assert_eq!(sim.step(), Some(ms(2)));
        assert_eq!(sim.step(), None);
    }
}
