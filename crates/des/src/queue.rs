//! The one monotone priority queue: the engine's pending events and every
//! path search wait in a [`RadixHeap`].
//!
//! No key goes below the last popped one (the scheduler clamps new events
//! to `now`; a path search's costs never fall across a link), so a key is
//! filed by the highest bit in which it differs from the last popped key,
//! and an entry only ever moves to a lower bucket: O(log K) amortized per
//! entry for keys up to K, with nothing to tune.
//!
//! Every pop returns the minimum key among pending entries, the one pushed
//! first among equal keys, so the pop sequence is a pure function of the
//! push/pop history. The unit tests below check that differentially
//! against a plain binary heap of the same keys.

/// Bucket 0 holds the keys equal to the last popped one; bucket `i > 0`
/// those whose highest bit differing from it is bit `i - 1`.
const BUCKETS: usize = 65;

/// The end of a list.
const END: u32 = u32::MAX;

/// Where a slot waits: its key and the next slot in its list, or on the
/// free list.
#[derive(Clone, Copy)]
struct Link {
    key: u64,
    next: u32,
}

/// A monotone min-queue of `T` keyed by `u64`, popping equal keys first in,
/// first out.
///
/// Every entry lives in one slot, each bucket a list threaded through the
/// slots and every free slot on a free list, so the heap holds at most as
/// many slots as entries were queued at once since the last [`clear`]. A
/// push appends to its bucket's list, and a spill empties the lowest
/// non-empty bucket into empty lower ones in list order, so each list
/// keeps push order among equal keys and a bucket's first entry at a key
/// is the one pushed first.
///
/// A pop refused because the head lies beyond its limit reads the lowest
/// bucket's least key and spills nothing, so the last popped key stays
/// where it is and a caller may still push between it and the head; a key
/// below it panics.
///
/// [`clear`]: RadixHeap::clear
pub struct RadixHeap<T> {
    /// Each slot's link, apart from its payload: a spill reads links only,
    /// 16 bytes a slot.
    links: Vec<Link>,
    /// Each slot's payload, `None` while the slot is free.
    items: Vec<Option<T>>,
    /// First and last slot of each bucket's list, [`END`] when empty.
    heads: [u32; BUCKETS],
    tails: [u32; BUCKETS],
    /// The least and greatest key in each non-empty bucket above 0.
    mins: [u64; BUCKETS],
    maxs: [u64; BUCKETS],
    /// Bit `i` set iff bucket `i` is not empty.
    occupied: u128,
    /// The slots not queued, threaded through `next`.
    free: u32,
    /// The last popped key.
    last: u64,
    len: usize,
}

impl<T> Default for RadixHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RadixHeap<T> {
    /// An empty heap whose keys start from 0. Allocates nothing until the
    /// first push.
    pub fn new() -> Self {
        RadixHeap {
            links: Vec::new(),
            items: Vec::new(),
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

    /// Empty the heap and let its keys start again from 0, keeping the
    /// slots' memory.
    pub fn clear(&mut self) {
        self.links.clear();
        self.items.clear();
        while self.occupied != 0 {
            let i = self.occupied.trailing_zeros() as usize;
            (self.heads[i], self.tails[i]) = (END, END);
            self.occupied &= self.occupied - 1;
        }
        self.free = END;
        self.last = 0;
        self.len = 0;
    }

    /// The bucket `key` belongs in.
    fn bucket(&self, key: u64) -> usize {
        (u64::BITS - (key ^ self.last).leading_zeros()) as usize
    }

    /// Append slot `s`, holding `key`, to bucket `i`.
    fn append(&mut self, i: usize, s: u32, key: u64) {
        self.links[s as usize].next = END;
        match self.tails[i] {
            END => (self.heads[i], self.mins[i], self.maxs[i]) = (s, key, key),
            tail => {
                self.links[tail as usize].next = s;
                self.mins[i] = self.mins[i].min(key);
                self.maxs[i] = self.maxs[i].max(key);
            }
        }
        self.tails[i] = s;
        self.occupied |= 1 << i;
    }

    /// Queue `item` at `key`, which must not lie below the last popped key.
    pub fn push(&mut self, key: u64, item: T) {
        assert!(
            key >= self.last,
            "key {key} pushed below the last popped key {}",
            self.last
        );
        let link = Link { key, next: END };
        let s = match self.free {
            END => {
                self.links.push(link);
                self.items.push(Some(item));
                u32::try_from(self.links.len() - 1).expect("fewer than 2^32 queued entries")
            }
            s => {
                self.free = self.links[s as usize].next;
                self.links[s as usize] = link;
                self.items[s as usize] = Some(item);
                s
            }
        };
        self.append(self.bucket(key), s, key);
        self.len += 1;
    }

    /// Empty bucket `i`, the lowest non-empty one and not bucket 0, into
    /// the buckets below it: its least key becomes the last popped key, so
    /// the entries at that key land in bucket 0.
    fn spill(&mut self, i: usize) {
        let (mut s, tail) = (self.heads[i], self.tails[i]);
        self.heads[i] = END;
        self.tails[i] = END;
        self.occupied &= !(1 << i);
        self.last = self.mins[i];
        if self.last == self.maxs[i] {
            // One key: the list becomes bucket 0 whole.
            (self.heads[0], self.tails[0]) = (s, tail);
            self.occupied |= 1;
            return;
        }
        while s != END {
            let Link { key, next } = self.links[s as usize];
            self.append(self.bucket(key), s, key);
            s = next;
        }
    }

    /// Remove and return the minimum-key entry, the first pushed among
    /// equal keys, if its key is at or below `limit`; otherwise change
    /// nothing, so a later push may still land between the last popped key
    /// and the head.
    pub fn pop_until(&mut self, limit: u64) -> Option<(u64, T)> {
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
        let item = self.items[s as usize].take();
        Some((self.last, item.expect("a queued slot holds its item")))
    }

    /// Number of queued entries.
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

    impl<T> RadixHeap<T> {
        fn pop(&mut self) -> Option<(u64, T)> {
            self.pop_until(u64::MAX)
        }
    }

    /// The reference the heap is compared against: a binary heap of the
    /// bare `(key, seq)` pairs, `seq` numbering the pushes as the engine
    /// numbers its events (every test entry carries its `seq` as payload,
    /// so the pairs are all there is to compare).
    #[derive(Default)]
    struct HeapOracle {
        heap: BinaryHeap<Reverse<(u64, u64)>>,
    }

    impl HeapOracle {
        fn push(&mut self, key: u64, seq: u64) {
            self.heap.push(Reverse((key, seq)));
        }

        fn pop_until(&mut self, limit: u64) -> Option<(u64, u64)> {
            let &Reverse(entry) = self.heap.peek()?;
            (entry.0 <= limit).then(|| self.heap.pop().map(|Reverse(entry)| entry))?
        }

        fn head(&self) -> Option<u64> {
            self.heap.peek().map(|&Reverse((key, _))| key)
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    fn drain<T>(q: &mut RadixHeap<T>) -> Vec<(u64, T)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn queue_pops_in_key_order() {
        let mut q = RadixHeap::new();
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
        for (seq, &key) in keys.iter().enumerate() {
            q.push(key, seq);
        }
        let mut expect: Vec<(u64, usize)> = keys.iter().enumerate().map(|(s, &k)| (k, s)).collect();
        expect.sort_unstable();
        assert_eq!(drain(&mut q), expect);
    }

    /// Pop the head of both heaps if its key is at or below `limit`, assert
    /// they agree (key and payload, or nothing), and return the pair.
    fn pop_both(heap: &mut HeapOracle, q: &mut RadixHeap<u64>, limit: u64) -> Option<(u64, u64)> {
        let entry = heap.pop_until(limit);
        assert_eq!(q.pop_until(limit), entry);
        entry
    }

    /// Keys a path search pushes: the bits of zero, subnormals, the
    /// largest finite cost and infinity beside ordinary costs.
    const F64_EDGES: [f64; 8] = [
        0.0,
        f64::from_bits(1),
        f64::MIN_POSITIVE / 3.0,
        f64::MIN_POSITIVE,
        0.25,
        1e300,
        f64::MAX,
        f64::INFINITY,
    ];

    /// A random mixture of what the heap's two callers do to it, compared
    /// step for step with the oracle: push (keys at or above the last pop,
    /// in bands from exact ties to a key that differs from it only in bit
    /// 63, and the bits of a cost from `F64_EDGES` raised to the last pop,
    /// as a path search pushes them), pop the head, gather every entry
    /// tied at the head key and re-push all but one under their original
    /// `seq` (`Scheduler::pop` with a non-trivial chooser), stop at a limit
    /// (`run_until` at its horizon, or a path search at its bound), which,
    /// when the head lies beyond it, is followed by a push between the last
    /// pop and that head, and clear (a path search starting over). The heap
    /// never holds more slots than entries were queued at once since the
    /// last clear.
    #[test]
    fn queue_matches_heap_on_random_interleaved_workload() {
        forall("queue_matches_heap", cases(20), |rng: &mut SimRng| {
            let mut heap = HeapOracle::default();
            let mut q: RadixHeap<u64> = RadixHeap::new();
            let (mut seq, mut now, mut peak) = (0u64, 0u64, 0usize);
            let (mut gathered_ties, mut stopped, mut cleared) = (0, 0, 0);
            for _ in 0..3_000 {
                match (rng.uniform_usize(80), heap.head()) {
                    (0, _) => {
                        q.clear();
                        heap = HeapOracle::default();
                        (now, peak) = (0, 0);
                        cleared += 1;
                    }
                    (50..=59, Some(_)) => {
                        now = pop_both(&mut heap, &mut q, u64::MAX).expect("non-empty").0;
                    }
                    (60..=69, Some(_)) => {
                        let first = pop_both(&mut heap, &mut q, u64::MAX).expect("non-empty");
                        let mut tied = vec![first];
                        while let Some(entry) = pop_both(&mut heap, &mut q, first.0) {
                            tied.push(entry);
                        }
                        gathered_ties += usize::from(tied.len() > 1);
                        tied.remove(rng.uniform_usize(tied.len()));
                        for (key, s) in tied {
                            heap.push(key, s);
                            q.push(key, s);
                        }
                        now = first.0;
                    }
                    (70..=79, Some(head)) => {
                        let mut below_head =
                            || now + rng.next_u64() % (head - now).saturating_add(1);
                        let (limit, key) = (below_head(), below_head());
                        if let Some((key, _)) = pop_both(&mut heap, &mut q, limit) {
                            now = key;
                        } else {
                            heap.push(key, seq);
                            q.push(key, seq);
                            seq += 1;
                            stopped += 1;
                        }
                    }
                    _ => {
                        let key = match rng.uniform_usize(7) {
                            0 => now,
                            1 => now + rng.uniform_usize(4) as u64,
                            2 => now + rng.uniform_usize(1_000) as u64,
                            3 => now + rng.uniform_usize(1 << 26) as u64,
                            4 => now + rng.uniform_usize(1 << 36) as u64,
                            5 => F64_EDGES[rng.uniform_usize(F64_EDGES.len())]
                                .to_bits()
                                .max(now),
                            _ => now | 1 << 63,
                        };
                        heap.push(key, seq);
                        q.push(key, seq);
                        seq += 1;
                    }
                }
                assert_eq!(heap.len(), q.len());
                peak = peak.max(q.len());
                assert_eq!(q.links.len(), peak);
            }
            assert!(gathered_ties > 0 && stopped > 0 && cleared > 0);
            while pop_both(&mut heap, &mut q, u64::MAX).is_some() {}
            assert_eq!(q.len(), 0);
        });
    }

    /// A bucket that holds entries a spill relinked from a higher bucket
    /// and, behind them, a later push at the same key pops them in push
    /// order, whether its own spill moves it whole (one key) or relinks it
    /// (two).
    #[test]
    fn relinked_entries_and_a_later_push_at_one_time_leave_in_seq_order() {
        for extra in [None, Some(21)] {
            let mut q = RadixHeap::new();
            q.push(16, 0);
            q.push(20, 1);
            q.push(2, 2);
            assert_eq!(q.pop(), Some((2, 2)));
            q.push(20, 3);
            q.push(16, 4);
            // Spills 16, 20, 20, 16: the 20s go to a bucket of their own.
            assert_eq!(q.pop(), Some((16, 0)));
            assert_eq!(q.pop(), Some((16, 4)));
            q.push(20, 5);
            if let Some(key) = extra {
                q.push(key, 6);
            }
            let rest: Vec<u64> = drain(&mut q).into_iter().map(|(_, s)| s).collect();
            assert_eq!(rest[..3], [1, 3, 5]);
        }
    }

    /// Keys never go below the last pop: popping the 10 s head, nothing
    /// the scheduler does can then push 1 s.
    #[test]
    #[should_panic(expected = "pushed below the last popped key")]
    fn push_below_the_last_pop_panics() {
        let mut q = RadixHeap::new();
        q.push(10_000_000_000, 0);
        q.pop();
        q.push(1_000_000_000, 1);
    }

    #[test]
    fn queue_handles_same_instant_bursts_fifo() {
        let mut q = RadixHeap::new();
        for seq in 0..500 {
            q.push(42, seq);
        }
        // Interleave pops with pushes at the key being popped.
        let mut seen = Vec::new();
        for _ in 0..100 {
            seen.push(q.pop().unwrap().1);
        }
        for seq in 500..600 {
            q.push(42, seq);
        }
        seen.extend(drain(&mut q).into_iter().map(|(_, seq)| seq));
        assert_eq!(seen, (0..600).collect::<Vec<_>>());
    }

    #[test]
    fn queue_handles_a_sparse_far_future() {
        let mut q = RadixHeap::new();
        let expect: Vec<(u64, u64)> = (0..50).map(|i| (i * (1 << 34), i)).collect();
        for &(key, i) in &expect {
            q.push(key, i);
        }
        assert_eq!(drain(&mut q), expect);
    }
}
