//! The event queue.
//!
//! The engine extracts pending events in strict `(time, seq)` order, and
//! [`EventQueue`] is what keeps that order: a monotone radix heap. No key
//! goes below the last popped one (the scheduler clamps new events to
//! `now`), so a key is filed by the highest bit in which its time differs
//! from the last popped time, and an entry only ever moves to a lower
//! bucket: O(log T) amortized per event for times up to T, with nothing
//! to tune.
//!
//! Every pop returns the unique minimum `(time, seq)` key among pending
//! events, so the delivery sequence is a pure function of the push/pop
//! history. The unit tests below check that differentially against a
//! plain binary heap of the same keys.

use crate::time::SimTime;

/// Bucket 0 holds the times equal to the last popped one; bucket `i > 0`
/// those whose highest bit differing from it is bit `i - 1`.
const BUCKETS: usize = 65;

/// The end of a list.
const END: u32 = u32::MAX;

/// Where a slot waits: its time and the next slot in its list, or on the
/// free list.
#[derive(Clone, Copy)]
struct Link {
    at: u64,
    next: u32,
}

/// The scheduler's priority queue of events keyed by `(SimTime, seq)`,
/// extracted in strictly increasing key order.
///
/// Every entry lives in one slot, each bucket a list threaded through the
/// slots and every free slot on a free list, so the queue holds at most as
/// many slots as events were ever pending at once. Each list is in `seq`
/// order, which is why a bucket's first entry at a time is the one to
/// deliver first: a push appends, and every push but one carries the
/// newest `seq`; the one is tie gathering's re-push at the last popped
/// time, into bucket 0 after gathering emptied it, in ascending `seq`
/// (`push` asserts the order). A spill empties the lowest non-empty bucket
/// into empty lower ones in list order, so it keeps the order too.
///
/// A pop refused because the head lies beyond its limit (`run_until` at
/// its horizon) reads the lowest bucket's earliest time and spills
/// nothing, so the last popped time stays where it is and a caller may
/// still schedule between it and the head; a key below it panics.
pub(crate) struct EventQueue<E> {
    /// Each slot's link, apart from its payload: a spill reads links only,
    /// 16 bytes a slot.
    links: Vec<Link>,
    /// Each slot's `seq` and event, `None` while the slot is free.
    entries: Vec<(u64, Option<E>)>,
    /// First and last slot of each bucket's list, [`END`] when empty.
    heads: [u32; BUCKETS],
    tails: [u32; BUCKETS],
    /// The earliest and latest time in each non-empty bucket above 0.
    mins: [u64; BUCKETS],
    maxs: [u64; BUCKETS],
    /// Bit `i` set iff bucket `i` is not empty.
    occupied: u128,
    /// The slots not queued, threaded through `next`.
    free: u32,
    /// The last popped time.
    last: u64,
    len: usize,
}

impl<E> EventQueue<E> {
    /// An empty queue at t = 0.
    pub(crate) fn new() -> Self {
        EventQueue {
            links: Vec::new(),
            entries: Vec::new(),
            heads: [END; BUCKETS],
            tails: [END; BUCKETS],
            mins: [0; BUCKETS],
            maxs: [0; BUCKETS],
            occupied: 0,
            free: END,
            last: 0,
            len: 0,
        }
    }

    /// The bucket time `at` belongs in.
    fn bucket(&self, at: u64) -> usize {
        (u64::BITS - (at ^ self.last).leading_zeros()) as usize
    }

    /// Append slot `s`, holding time `at`, to bucket `i`.
    fn append(&mut self, i: usize, s: u32, at: u64) {
        self.links[s as usize].next = END;
        match self.tails[i] {
            END => (self.heads[i], self.mins[i], self.maxs[i]) = (s, at, at),
            tail => {
                self.links[tail as usize].next = s;
                self.mins[i] = self.mins[i].min(at);
                self.maxs[i] = self.maxs[i].max(at);
            }
        }
        self.tails[i] = s;
        self.occupied |= 1 << i;
    }

    /// Insert an event with its total-order key; `at` must not lie before
    /// the last popped time.
    pub(crate) fn push(&mut self, at: SimTime, seq: u64, event: E) {
        let at = at.as_nanos();
        assert!(
            at >= self.last,
            "key {at} ns pushed below the last popped key {} ns",
            self.last
        );
        let link = Link { at, next: END };
        let s = match self.free {
            END => {
                self.links.push(link);
                self.entries.push((seq, Some(event)));
                u32::try_from(self.links.len() - 1).expect("fewer than 2^32 pending events")
            }
            s => {
                self.free = self.links[s as usize].next;
                self.links[s as usize] = link;
                self.entries[s as usize] = (seq, Some(event));
                s
            }
        };
        let i = self.bucket(at);
        if let Some(&(prev, _)) = self.entries.get(self.tails[i] as usize) {
            assert!(prev < seq, "seq {seq} queued behind seq {prev}");
        }
        self.append(i, s, at);
        self.len += 1;
    }

    /// Empty bucket `i`, the lowest non-empty one and not bucket 0, into
    /// the buckets below it: its earliest time becomes the last popped
    /// time, so the entries at that time land in bucket 0.
    fn spill(&mut self, i: usize) {
        let (mut s, tail) = (self.heads[i], self.tails[i]);
        self.heads[i] = END;
        self.tails[i] = END;
        self.occupied &= !(1 << i);
        self.last = self.mins[i];
        if self.last == self.maxs[i] {
            // One instant: the list becomes bucket 0 whole.
            (self.heads[0], self.tails[0]) = (s, tail);
            self.occupied |= 1;
            return;
        }
        while s != END {
            let Link { at, next } = self.links[s as usize];
            self.append(self.bucket(at), s, at);
            s = next;
        }
    }

    /// Remove and return the minimum-key event if its time is at or
    /// before `limit`; otherwise change nothing, so a later push may still
    /// land between the last popped time and the head.
    pub(crate) fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, u64, E)> {
        let limit = limit.as_nanos();
        if self.occupied & 1 == 0 {
            if self.occupied == 0 {
                return None;
            }
            let i = self.occupied.trailing_zeros() as usize;
            if self.mins[i] > limit {
                return None;
            }
            self.spill(i);
        } else if self.last > limit {
            return None;
        }
        let s = self.heads[0];
        let link = &mut self.links[s as usize];
        self.heads[0] = std::mem::replace(&mut link.next, self.free);
        if self.heads[0] == END {
            self.tails[0] = END;
            self.occupied &= !1;
        }
        self.free = s;
        self.len -= 1;
        let (seq, event) = &mut self.entries[s as usize];
        let event = event.take().expect("a queued slot holds its event");
        Some((SimTime::from_nanos(self.last), *seq, event))
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propcheck::{cases, forall};
    use crate::rng::SimRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    impl<E> EventQueue<E> {
        fn pop(&mut self) -> Option<(SimTime, u64, E)> {
            self.pop_until(SimTime::from_nanos(u64::MAX))
        }
    }

    /// The reference the queue is compared against: a binary heap of the
    /// bare `(time, seq)` keys (every test event carries its `seq` as
    /// payload, so keys are all there is to compare).
    #[derive(Default)]
    struct HeapOracle {
        heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    }

    impl HeapOracle {
        fn push(&mut self, at: SimTime, seq: u64) {
            self.heap.push(Reverse((at, seq)));
        }

        fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, u64)> {
            let &Reverse(key) = self.heap.peek()?;
            (key.0 <= limit).then(|| self.heap.pop().map(|Reverse(key)| key))?
        }

        fn head(&self) -> Option<SimTime> {
            self.heap.peek().map(|&Reverse((at, _))| at)
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq, _)) = q.pop() {
            out.push((at.as_nanos(), seq));
        }
        out
    }

    #[test]
    fn queue_pops_in_key_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let keys: [u64; 8] = [
            5_000_000,
            0,
            0,
            1 << 40,
            77,
            5_000_000,
            123_456_789,
            1 << 63,
        ];
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

    /// Pop the head of both queues if its time is at or before `limit`,
    /// assert they agree (key and payload, or nothing), and return the key.
    fn pop_both(
        heap: &mut HeapOracle,
        q: &mut EventQueue<u64>,
        limit: SimTime,
    ) -> Option<(SimTime, u64)> {
        let key = heap.pop_until(limit);
        assert_eq!(q.pop_until(limit), key.map(|(at, seq)| (at, seq, seq)));
        key
    }

    /// A random mixture of the four things the engine does to its queue,
    /// compared step for step with the oracle: schedule (times at or above
    /// the last pop, as the scheduler guarantees, in bands from exact ties
    /// to a time that differs from it only in bit 63), deliver the head,
    /// gather every event tied at the head instant and re-push all but one
    /// under their original keys (`Scheduler::pop` with a non-trivial
    /// chooser), and stop at a horizon (`run_until`), which, when the head
    /// lies beyond it, is followed by a schedule between the last pop and
    /// that head. The queue never holds more slots than events were ever
    /// pending.
    #[test]
    fn queue_matches_heap_on_random_interleaved_workload() {
        let never = SimTime::from_nanos(u64::MAX);
        forall("queue_matches_heap", cases(20), |rng: &mut SimRng| {
            let mut heap = HeapOracle::default();
            let mut q: EventQueue<u64> = EventQueue::new();
            let (mut seq, mut now, mut peak) = (0u64, 0u64, 0usize);
            let (mut gathered_ties, mut stopped) = (0, 0);
            for _ in 0..3_000 {
                match (rng.uniform_usize(8), heap.head().map(SimTime::as_nanos)) {
                    (5, Some(_)) => {
                        now = pop_both(&mut heap, &mut q, never)
                            .expect("non-empty")
                            .0
                            .as_nanos();
                    }
                    (6, Some(_)) => {
                        let first = pop_both(&mut heap, &mut q, never).expect("non-empty");
                        let mut tied = vec![first];
                        while let Some(key) = pop_both(&mut heap, &mut q, first.0) {
                            tied.push(key);
                        }
                        gathered_ties += usize::from(tied.len() > 1);
                        tied.remove(rng.uniform_usize(tied.len()));
                        for (at, s) in tied {
                            heap.push(at, s);
                            q.push(at, s, s);
                        }
                        now = first.0.as_nanos();
                    }
                    (7, Some(head)) => {
                        let mut below_head = || {
                            SimTime::from_nanos(
                                now + rng.next_u64() % (head - now).saturating_add(1),
                            )
                        };
                        let (horizon, at) = (below_head(), below_head());
                        if let Some((at, _)) = pop_both(&mut heap, &mut q, horizon) {
                            now = at.as_nanos();
                        } else {
                            heap.push(at, seq);
                            q.push(at, seq, seq);
                            seq += 1;
                            stopped += 1;
                        }
                    }
                    _ => {
                        let at = match rng.uniform_usize(6) {
                            0 => now,
                            1 => now + rng.uniform_usize(4) as u64,
                            2 => now + rng.uniform_usize(1_000) as u64,
                            3 => now + rng.uniform_usize(1 << 26) as u64,
                            4 => now + rng.uniform_usize(1 << 36) as u64,
                            _ => now | 1 << 63,
                        };
                        let at = SimTime::from_nanos(at);
                        heap.push(at, seq);
                        q.push(at, seq, seq);
                        seq += 1;
                    }
                }
                assert_eq!(heap.len(), q.len());
                peak = peak.max(q.len());
                assert_eq!(q.links.len(), peak);
            }
            assert!(gathered_ties > 0 && stopped > 0);
            while pop_both(&mut heap, &mut q, never).is_some() {}
            assert_eq!(q.len(), 0);
        });
    }

    /// A bucket that holds entries a spill relinked from a higher bucket
    /// and, behind them, a later push at the same time delivers them in
    /// `seq` order, whether its own spill moves it whole (one instant) or
    /// relinks it (two).
    #[test]
    fn relinked_entries_and_a_later_push_at_one_time_leave_in_seq_order() {
        for extra in [None, Some(21)] {
            let mut q: EventQueue<u64> = EventQueue::new();
            let t = SimTime::from_nanos;
            q.push(t(16), 0, 0);
            q.push(t(20), 1, 1);
            q.push(t(2), 2, 2);
            assert_eq!(q.pop(), Some((t(2), 2, 2)));
            q.push(t(20), 3, 3);
            q.push(t(16), 4, 4);
            // Spills 16, 20, 20, 16: the 20s go to a bucket of their own.
            assert_eq!(q.pop(), Some((t(16), 0, 0)));
            assert_eq!(q.pop(), Some((t(16), 4, 4)));
            q.push(t(20), 5, 5);
            if let Some(at) = extra {
                q.push(t(at), 6, 6);
            }
            let rest: Vec<u64> = drain(&mut q).into_iter().map(|(_, s)| s).collect();
            assert_eq!(rest[..3], [1, 3, 5]);
        }
    }

    /// Times never go below the last pop: popping the 10 s head, nothing
    /// the scheduler does can then push 1 s.
    #[test]
    #[should_panic(expected = "pushed below the last popped key")]
    fn push_below_the_last_pop_panics() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.push(SimTime::from_nanos(10_000_000_000), 0, 0);
        q.pop();
        q.push(SimTime::from_nanos(1_000_000_000), 1, 1);
    }

    #[test]
    fn queue_handles_same_instant_bursts_fifo() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let t = SimTime::from_nanos(42);
        for seq in 0..500 {
            q.push(t, seq, seq);
        }
        // Interleave pops with pushes at the instant being delivered.
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
    fn queue_handles_a_sparse_far_future() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut expect = Vec::new();
        for i in 0..50u64 {
            let ns = i * (1 << 34); // ~17 s apart
            q.push(SimTime::from_nanos(ns), i, i);
            expect.push((ns, i));
        }
        assert_eq!(drain(&mut q), expect);
    }
}
