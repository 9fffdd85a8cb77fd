//! The event queue.
//!
//! The engine extracts pending events in strict `(time, seq)` order, and
//! [`CalendarQueue`] is what keeps that order: a calendar queue / timing
//! wheel. The near future is a window of power-of-two-width buckets
//! indexed by `time >> log2(width)` — O(1) amortized schedule and pop —
//! and anything beyond the window overflows into a far-future binary heap
//! that is drained into the wheel when the window rotates forward.
//!
//! Every pop returns the unique minimum `(time, seq)` key among pending
//! events, so the delivery sequence is a pure function of the push/pop
//! history. The unit tests below check that differentially against a
//! plain binary heap of the same keys.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event with its scheduling key. Ordered *inverted* so Rust's max-heap
/// `BinaryHeap` pops the earliest (then lowest-sequence) entry first.
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Number of buckets in the wheel window (power of two).
const NUM_BUCKETS: usize = 1024;
/// log2 of the initial bucket width in nanoseconds: 2^16 ns ≈ 65.5 µs, a
/// few events per bucket under the millisecond-scale timing configs.
const INITIAL_LOG2_WIDTH: u32 = 16;
/// Bucket-width adaptation bounds: 2^8 ns = 256 ns up to 2^32 ns ≈ 4.3 s.
const MIN_LOG2_WIDTH: u32 = 8;
const MAX_LOG2_WIDTH: u32 = 32;
/// Window rotations delivering fewer near events than this double the
/// bucket width (window too fine); more than `NUM_BUCKETS * 8` halve it
/// (buckets too coarse).
const SPARSE_WINDOW: u64 = (NUM_BUCKETS as u64) / 4;
const DENSE_WINDOW: u64 = (NUM_BUCKETS as u64) * 8;

/// The scheduler's priority queue of events keyed by `(SimTime, seq)`,
/// extracted in strictly increasing key order: a near-future wheel plus a
/// far-future heap.
///
/// The scheduler clamps new events to `now` and pops only what it delivers
/// (or re-pushes at the instant it delivers, when gathering ties), so keys
/// never go below the last popped key and therefore never below the
/// window, which moves only in `pop`: `push` asserts that. Looking at the
/// head (`peek_key`) never moves the window but does move the cursor to
/// the head's bucket, which may lie past `now`; `push` moves the cursor
/// back when a later key lands before it.
///
/// The window covers `[win_start, win_start + NUM_BUCKETS << log2_width)`;
/// an event lands in bucket `(at - win_start) >> log2_width`. Buckets are
/// unsorted until the cursor reaches them, then sorted *descending* once so
/// pops are O(1) `Vec::pop` calls from the back; an event pushed into the
/// already-sorted current bucket is binary-inserted at its position. A
/// 1-bit-per-bucket occupancy bitmap makes skipping empty buckets a
/// `trailing_zeros` scan rather than a walk. When the wheel drains, the
/// window rotates to the far heap's minimum and every far event now inside
/// the window moves into its bucket; bucket width adapts (×2 / ÷2,
/// deterministically — it is a pure function of the push/pop history)
/// when a window turns out sparse or dense.
pub(crate) struct CalendarQueue<E> {
    /// `buckets[i]` holds events for `[win_start + i·W, win_start + (i+1)·W)`.
    buckets: Vec<Vec<Scheduled<E>>>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; NUM_BUCKETS / 64],
    /// Window origin (multiple of the bucket width).
    win_start: u64,
    log2_width: u32,
    /// Cursor: buckets below `cur` are empty; `buckets[cur]` is sorted
    /// descending iff `cur_sorted`.
    cur: usize,
    cur_sorted: bool,
    /// Events at or beyond the window end.
    far: BinaryHeap<Scheduled<E>>,
    /// Pending events in the wheel (excludes `far`).
    near_len: usize,
    /// Near events delivered since the last rotation, for width adaptation.
    delivered_this_window: u64,
}

impl<E> CalendarQueue<E> {
    /// An empty queue with the window at t = 0.
    pub(crate) fn new() -> Self {
        CalendarQueue {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; NUM_BUCKETS / 64],
            win_start: 0,
            log2_width: INITIAL_LOG2_WIDTH,
            cur: 0,
            cur_sorted: false,
            far: BinaryHeap::new(),
            near_len: 0,
            delivered_this_window: 0,
        }
    }

    /// Bucket index for `at`, or `None` when it falls beyond the window.
    fn bucket_of(&self, at: u64) -> Option<usize> {
        let idx = (at - self.win_start) >> self.log2_width;
        (idx < NUM_BUCKETS as u64).then_some(idx as usize)
    }

    fn mark(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1 << (idx % 64);
    }

    fn unmark(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1 << (idx % 64));
    }

    /// Smallest occupied bucket index ≥ `from`, via the bitmap.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        if from >= NUM_BUCKETS {
            return None;
        }
        let (mut word, bit) = (from / 64, from % 64);
        let mut bits = self.occupied[word] & (!0u64 << bit);
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word == NUM_BUCKETS / 64 {
                return None;
            }
            bits = self.occupied[word];
        }
    }

    /// Position the cursor on the next non-empty *near* bucket, sorted and
    /// ready to pop. Never rotates the window (callers that may mutate
    /// window position do so explicitly in `pop`; `peek_key` must not move
    /// it, or events popped for a tie-break could no longer be pushed
    /// back). Returns `false` when the wheel is empty.
    fn advance_near(&mut self) -> bool {
        if self.near_len == 0 {
            return false;
        }
        loop {
            if !self.buckets[self.cur].is_empty() {
                if !self.cur_sorted {
                    // Descending by (at, seq): the minimum ends at the
                    // back, so popping is `Vec::pop`.
                    self.buckets[self.cur]
                        .sort_unstable_by_key(|s| std::cmp::Reverse((s.at, s.seq)));
                    self.cur_sorted = true;
                }
                return true;
            }
            let idx = self
                .next_occupied(self.cur + 1)
                .expect("near_len > 0 ⇒ some bucket is occupied");
            self.cur = idx;
            self.cur_sorted = false;
        }
    }

    /// Move the window so it starts at the far heap's minimum and pull
    /// every far event now inside it into the wheel.
    fn rotate(&mut self) {
        // Adapt the bucket width from the density of the window just
        // finished — deterministic: depends only on the event history.
        if self.delivered_this_window < SPARSE_WINDOW && self.log2_width < MAX_LOG2_WIDTH {
            self.log2_width += 1;
        } else if self.delivered_this_window > DENSE_WINDOW && self.log2_width > MIN_LOG2_WIDTH {
            self.log2_width -= 1;
        }
        self.delivered_this_window = 0;

        let min_at = self
            .far
            .peek()
            .expect("rotate with far events")
            .at
            .as_nanos();
        // The (empty) wheel starts at the bucket boundary at or below the
        // minimum.
        self.win_start = min_at & !((1u64 << self.log2_width) - 1);
        self.cur_sorted = false;
        while let Some(head) = self.far.peek() {
            match self.bucket_of(head.at.as_nanos()) {
                Some(idx) => {
                    let s = self.far.pop().expect("peeked entry exists");
                    self.buckets[idx].push(s);
                    self.mark(idx);
                    self.near_len += 1;
                }
                None => break,
            }
        }
        self.cur = self.next_occupied(0).expect("rotation moved ≥ 1 event");
    }

    /// Insert an event with its total-order key, which must not lie before
    /// the window (see the type's documentation).
    pub(crate) fn push(&mut self, at: SimTime, seq: u64, event: E) {
        let ns = at.as_nanos();
        assert!(
            ns >= self.win_start,
            "key {ns} ns pushed before the window start {} ns",
            self.win_start
        );
        match self.bucket_of(ns) {
            Some(idx) => {
                let s = Scheduled { at, seq, event };
                if idx == self.cur && self.cur_sorted {
                    // Keep the ready bucket sorted: binary-insert into the
                    // descending run. New keys are usually near the back
                    // (they are ≥ the last pop), so the memmove is short.
                    let bucket = &mut self.buckets[idx];
                    let pos = bucket.partition_point(|s2| (s2.at, s2.seq) > (at, seq));
                    bucket.insert(pos, s);
                } else {
                    self.buckets[idx].push(s);
                    if idx < self.cur {
                        // Only after a look at the head (`peek_key`)
                        // took the cursor past `now`.
                        self.cur = idx;
                        self.cur_sorted = false;
                    }
                }
                self.mark(idx);
                self.near_len += 1;
            }
            None => self.far.push(Scheduled { at, seq, event }),
        }
    }

    /// Remove and return the minimum-key event.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        if !self.advance_near() {
            if self.far.is_empty() {
                return None;
            }
            self.rotate();
            let ready = self.advance_near();
            assert!(ready, "rotation populates the wheel");
        }
        let s = self.buckets[self.cur]
            .pop()
            .expect("advance found an event");
        if self.buckets[self.cur].is_empty() {
            self.unmark(self.cur);
        }
        self.near_len -= 1;
        self.delivered_this_window += 1;
        Some((s.at, s.seq, s.event))
    }

    /// The key the next `pop` would return. Takes `&mut self` because it
    /// sorts the current bucket on demand.
    pub(crate) fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        if self.advance_near() {
            let s = self.buckets[self.cur]
                .last()
                .expect("advance found an event");
            return Some((s.at, s.seq));
        }
        // Wheel empty: the far heap's minimum is the global minimum. Read
        // it without rotating so a peek never moves the window.
        self.far.peek().map(|s| (s.at, s.seq))
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.near_len + self.far.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::cmp::Reverse;

    /// The reference the calendar queue is compared against: a binary heap
    /// of the bare `(time, seq)` keys (every test event carries its `seq`
    /// as payload, so keys are all there is to compare).
    #[derive(Default)]
    struct HeapOracle {
        heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    }

    impl HeapOracle {
        fn push(&mut self, at: SimTime, seq: u64) {
            self.heap.push(Reverse((at, seq)));
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            self.heap.pop().map(|Reverse(key)| key)
        }

        fn peek_key(&self) -> Option<(SimTime, u64)> {
            self.heap.peek().map(|&Reverse(key)| key)
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    fn drain<E>(q: &mut CalendarQueue<E>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq, _)) = q.pop() {
            out.push((at.as_nanos(), seq));
        }
        out
    }

    #[test]
    fn calendar_pops_in_key_order() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        let keys: [u64; 7] = [5_000_000, 0, 0, 1 << 40, 77, 5_000_000, 123_456_789];
        for (seq, &ns) in keys.iter().enumerate() {
            q.push(SimTime::from_nanos(ns), seq as u64, 0);
        }
        let order = drain(&mut q);
        let mut expect: Vec<(u64, u64)> = keys
            .iter()
            .enumerate()
            .map(|(s, &ns)| (ns, s as u64))
            .collect();
        expect.sort_unstable();
        assert_eq!(order, expect);
    }

    /// Pop the head of both queues, assert they agree (key and payload),
    /// and return the key.
    fn pop_both(heap: &mut HeapOracle, cal: &mut CalendarQueue<u64>, seed: u64) -> (SimTime, u64) {
        assert_eq!(heap.peek_key(), cal.peek_key(), "seed {seed}");
        let key = heap.pop().expect("caller checked non-empty");
        assert_eq!(cal.pop(), Some((key.0, key.1, key.1)), "seed {seed}");
        key
    }

    #[test]
    fn calendar_matches_heap_on_random_interleaved_workload() {
        // Random mixture of the four things the engine does to its queue,
        // compared step for step: schedule (keys floored at the last pop,
        // as the scheduler guarantees), deliver the head, gather every
        // event tied at the head instant and re-push all but one under
        // their original keys (`Scheduler::pop` with a non-trivial
        // chooser; the re-push lands in the already sorted bucket), and
        // look at the head without popping it (`run_until` at its
        // horizon), after which a schedule may land below the cursor.
        for seed in 0..20 {
            let mut rng = SimRng::new(seed);
            let mut heap = HeapOracle::default();
            let mut cal: CalendarQueue<u64> = CalendarQueue::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let (mut gathered_ties, mut peeked) = (0, 0);
            for _ in 0..3_000 {
                let op = rng.uniform_usize(8);
                if op < 5 || heap.peek_key().is_none() {
                    // Delays spanning exact ties and sub-bucket to
                    // far-band scales.
                    let delay = match rng.uniform_usize(5) {
                        0 => 0,
                        1 => rng.uniform_usize(1_000) as u64,
                        2 => rng.uniform_usize(1 << 16) as u64,
                        3 => rng.uniform_usize(1 << 26) as u64,
                        _ => rng.uniform_usize(1 << 36) as u64,
                    };
                    let at = SimTime::from_nanos(now + delay);
                    heap.push(at, seq);
                    cal.push(at, seq, seq);
                    seq += 1;
                } else if op == 5 {
                    let (at, _) = pop_both(&mut heap, &mut cal, seed);
                    now = at.as_nanos();
                } else if op == 6 {
                    let first = pop_both(&mut heap, &mut cal, seed);
                    let mut tied = vec![first];
                    while heap.peek_key().is_some_and(|(t, _)| t == first.0) {
                        tied.push(pop_both(&mut heap, &mut cal, seed));
                    }
                    gathered_ties += usize::from(tied.len() > 1);
                    tied.remove(rng.uniform_usize(tied.len()));
                    for (at, s) in tied {
                        heap.push(at, s);
                        cal.push(at, s, s);
                    }
                    now = first.0.as_nanos();
                } else {
                    // The head stays where it is, so `now` does not move.
                    assert_eq!(heap.peek_key(), cal.peek_key(), "seed {seed}");
                    peeked += 1;
                }
                assert_eq!(heap.len(), cal.len(), "seed {seed}");
            }
            assert!(gathered_ties > 0 && peeked > 0, "seed {seed}");
            while heap.peek_key().is_some() {
                pop_both(&mut heap, &mut cal, seed);
            }
            assert_eq!(cal.pop(), None, "seed {seed}");
        }
    }

    /// Keys never go below the window: popping the 10 s head rotated the
    /// window there, and nothing the scheduler does can then push 1 s.
    #[test]
    #[should_panic(expected = "pushed before the window")]
    fn push_before_the_window_panics() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        q.push(SimTime::from_nanos(10_000_000_000), 0, 0);
        q.pop();
        q.push(SimTime::from_nanos(1_000_000_000), 1, 1);
    }

    #[test]
    fn calendar_handles_same_instant_bursts_fifo() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        let t = SimTime::from_nanos(42);
        for seq in 0..500 {
            q.push(t, seq, seq);
        }
        // Interleave pops with same-time pushes into the sorted bucket.
        let mut seen = Vec::new();
        for _ in 0..100 {
            seen.push(q.pop().unwrap().1);
        }
        for seq in 500..600 {
            q.push(t, seq, seq);
        }
        while let Some((_, seq, _)) = q.pop() {
            seen.push(seq);
        }
        assert_eq!(seen, (0..600).collect::<Vec<_>>());
    }

    #[test]
    fn calendar_rotates_through_sparse_far_future() {
        // Events far apart force repeated rotations (and width doubling).
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        let mut expect = Vec::new();
        for i in 0..50u64 {
            let ns = i * (1 << 34); // ~17 s apart: always in the far band
            q.push(SimTime::from_nanos(ns), i, i);
            expect.push((ns, i));
        }
        assert_eq!(drain(&mut q), expect);
    }
}
