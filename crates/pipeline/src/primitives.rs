//! Packet-level pipeline primitive: resubmission.
//!
//! The P4Update prototype uses packet *resubmission* to wait in the data
//! plane: "as the P4 data plane does not natively support a timer for
//! waiting, P4Update uses packet resubmission to check repeatedly if UIM has
//! arrived while processing UNM" (Appendix B). This module models the
//! mechanism and counts its use.

/// Resubmission queue: packets parked in the pipeline awaiting a condition.
///
/// Real resubmission spins the packet through the pipeline; the simulation
/// parks the payload keyed by what it waits for and drains it when the
/// condition arrives, counting iterations the real switch would have spent.
#[derive(Debug, Clone)]
pub struct ResubmitQueue<K, P> {
    waiting: Vec<(K, P)>,
    resubmissions: u64,
    /// Cap on parked packets, after which new arrivals are dropped —
    /// models the finite buffer of the software switch.
    capacity: usize,
}

impl<K: PartialEq + Clone, P> ResubmitQueue<K, P> {
    /// Queue with the given buffer capacity.
    pub fn new(capacity: usize) -> Self {
        ResubmitQueue {
            waiting: Vec::new(),
            resubmissions: 0,
            capacity,
        }
    }

    /// Park a payload waiting on `key`. Returns `false` (payload dropped)
    /// when the buffer is full.
    pub fn park(&mut self, key: K, payload: P) -> bool {
        if self.waiting.len() >= self.capacity {
            return false;
        }
        self.resubmissions += 1;
        self.waiting.push((key, payload));
        true
    }

    /// Drain every payload waiting on `key`, in arrival order.
    pub fn release(&mut self, key: &K) -> Vec<P> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.waiting.len() {
            if &self.waiting[i].0 == key {
                out.push(self.waiting.remove(i).1);
            } else {
                i += 1;
            }
        }
        out
    }

    /// Number of parked payloads.
    pub fn parked(&self) -> usize {
        self.waiting.len()
    }

    /// Total park operations (overhead metric: each would have been at
    /// least one resubmission pass on BMv2).
    pub fn resubmissions(&self) -> u64 {
        self.resubmissions
    }

    /// Inspect parked keys (diagnostics).
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.waiting.iter().map(|(k, _)| k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_and_release_in_order() {
        let mut q: ResubmitQueue<u32, &str> = ResubmitQueue::new(10);
        assert!(q.park(5, "a"));
        assert!(q.park(6, "b"));
        assert!(q.park(5, "c"));
        assert_eq!(q.parked(), 3);
        assert_eq!(q.release(&5), vec!["a", "c"]);
        assert_eq!(q.parked(), 1);
        assert_eq!(q.release(&5), Vec::<&str>::new());
        assert_eq!(q.release(&6), vec!["b"]);
        assert_eq!(q.resubmissions(), 3);
    }

    #[test]
    fn full_buffer_drops() {
        let mut q: ResubmitQueue<u32, u8> = ResubmitQueue::new(2);
        assert!(q.park(1, 1));
        assert!(q.park(1, 2));
        assert!(!q.park(1, 3));
        assert_eq!(q.parked(), 2);
        assert_eq!(q.release(&1), vec![1, 2]);
    }

    #[test]
    fn keys_iterates_waiting() {
        let mut q: ResubmitQueue<u32, u8> = ResubmitQueue::new(4);
        q.park(1, 0);
        q.park(2, 0);
        let keys: Vec<u32> = q.keys().copied().collect();
        assert_eq!(keys, vec![1, 2]);
    }
}
