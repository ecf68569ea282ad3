//! A bucketed ladder queue for the engine's ready list.
//!
//! The engine re-schedules a rank whenever one of its requests may have
//! completed. The original ready list was a plain FIFO `VecDeque`;
//! because the engine is *conservative* (an action's completion time is
//! computed only from already-determined times), any processing order
//! yields the same result, so the scheduler is free to pick an order
//! that keeps ranks close to each other in virtual time — which keeps
//! the matcher queues shallow and the books cache-resident.
//!
//! The ladder keys each entry by the rank's virtual time at push and
//! spreads entries over a ring of fixed-width buckets. Entries in the
//! past of the ring land in the current bucket; entries beyond the
//! ring's horizon spill into an overflow list that is re-bucketed when
//! the ring drains. Within a bucket, entries pop in push order — a
//! deterministic FIFO tie-break, so the schedule is a pure function of
//! the push sequence and never depends on hashing or pointer identity.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Number of ring buckets. Power of two so the ring index is a mask.
const BUCKETS: usize = 64;

/// One overflow entry: ordered by `(time, push sequence)`, so equal
/// times pop in push order and the whole overflow order is a pure
/// function of the push sequence.
#[derive(Debug)]
struct Spill<T> {
    t: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Spill<T> {
    fn eq(&self, other: &Spill<T>) -> bool {
        (self.t, self.seq) == (other.t, other.seq)
    }
}

impl<T> Eq for Spill<T> {}

impl<T> PartialOrd for Spill<T> {
    fn partial_cmp(&self, other: &Spill<T>) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Spill<T> {
    fn cmp(&self, other: &Spill<T>) -> std::cmp::Ordering {
        (self.t, self.seq).cmp(&(other.t, other.seq))
    }
}

/// A time-bucketed ready queue with deterministic FIFO tie-break.
///
/// `T` is the scheduled item (the engine schedules rank ids).
#[derive(Debug)]
pub struct LadderQueue<T> {
    /// Ring of buckets; `buckets[cur]` covers `[epoch, epoch + width)`.
    buckets: Vec<VecDeque<T>>,
    /// Virtual-time width of one bucket, in nanoseconds.
    width: u64,
    /// Start of the current bucket's time span.
    epoch: u64,
    /// Ring index of the current bucket.
    cur: usize,
    /// Entries scheduled beyond the ring's horizon, as a min-heap on
    /// `(time, push seq)`: a re-spread extracts exactly the entries
    /// inside the new horizon instead of cycling the whole list, which
    /// keeps far-out spills from turning the drain quadratic.
    overflow: BinaryHeap<Reverse<Spill<T>>>,
    /// Push counter, the overflow tie-break.
    seq: u64,
    /// Total entries (ring + overflow).
    len: usize,
    /// Times the overflow was re-bucketed into a fresh ring.
    respreads: u64,
}

impl<T> LadderQueue<T> {
    /// An empty ladder with the given bucket width (ns). A width of 0 is
    /// clamped to 1 so the ring always advances.
    pub fn new(width: u64) -> LadderQueue<T> {
        LadderQueue {
            buckets: (0..BUCKETS).map(|_| VecDeque::new()).collect(),
            width: width.max(1),
            epoch: 0,
            cur: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
            len: 0,
            respreads: 0,
        }
    }

    /// Number of queued entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Entries in the bucket the next pop will drain first.
    pub(crate) fn current_bucket_len(&self) -> usize {
        self.buckets[self.cur].len()
    }

    /// Times the overflow list was re-spread into the ring.
    pub(crate) fn respreads(&self) -> u64 {
        self.respreads
    }

    /// Queue `item` keyed by virtual time `t` (ns). Entries at or before
    /// the current bucket keep FIFO order inside it; entries beyond the
    /// ring spill to the overflow list.
    pub fn push(&mut self, t: u64, item: T) {
        self.len += 1;
        let horizon = self.epoch + self.width * BUCKETS as u64;
        if t >= horizon {
            self.seq += 1;
            self.overflow.push(Reverse(Spill { t, seq: self.seq, item }));
            return;
        }
        let slot = if t <= self.epoch { 0 } else { (t - self.epoch) / self.width };
        self.buckets[(self.cur + slot as usize) % BUCKETS].push_back(item);
    }

    /// Remove the next entry: the oldest entry of the earliest non-empty
    /// bucket. Returns `None` when the ladder is empty.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        loop {
            for _ in 0..BUCKETS {
                if let Some(item) = self.buckets[self.cur].pop_front() {
                    self.len -= 1;
                    return Some(item);
                }
                self.cur = (self.cur + 1) % BUCKETS;
                self.epoch += self.width;
            }
            // Ring drained: jump the epoch to the earliest overflow entry
            // and pull exactly the entries inside the new horizon into
            // the ring, in (time, push seq) order.
            debug_assert!(!self.overflow.is_empty(), "len > 0 with empty ring and overflow");
            self.respreads += 1;
            self.epoch = self.overflow.peek().expect("overflow backs the remaining len").0.t;
            self.cur = 0;
            let horizon = self.epoch + self.width * BUCKETS as u64;
            while self.overflow.peek().is_some_and(|s| s.0.t < horizon) {
                let Reverse(s) = self.overflow.pop().expect("peeked entry");
                self.buckets[((s.t - self.epoch) / self.width) as usize].push_back(s.item);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_across_buckets() {
        let mut q = LadderQueue::new(10);
        q.push(95, "d");
        q.push(5, "a");
        q.push(42, "c");
        q.push(17, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, ["a", "b", "c", "d"]);
    }

    #[test]
    fn ties_in_one_bucket_break_fifo() {
        let mut q = LadderQueue::new(100);
        // All five land in the same bucket: pop order must be push order,
        // regardless of the times within the bucket.
        q.push(70, 0);
        q.push(10, 1);
        q.push(40, 2);
        q.push(10, 3);
        q.push(99, 4);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn past_entries_join_the_current_bucket_fifo() {
        let mut q = LadderQueue::new(10);
        // Drain past the first bucket so the epoch advances.
        q.push(5, "x");
        assert_eq!(q.pop(), Some("x"));
        q.push(25, "late-a");
        assert_eq!(q.pop(), Some("late-a"));
        // The epoch is now ≥ 20; a push at t=3 is in the past and must
        // queue FIFO in the current bucket, not be lost or reordered.
        q.push(3, "past");
        q.push(3, "past2");
        assert_eq!(q.pop(), Some("past"));
        assert_eq!(q.pop(), Some("past2"));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn far_future_spills_and_respreads() {
        let mut q = LadderQueue::new(1);
        q.push(0, "now");
        // Far beyond the 64-bucket horizon: goes to overflow.
        q.push(1_000_000, "later-b");
        q.push(1_000_000, "later-c");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some("now"));
        // Ring is empty; popping re-spreads the overflow (FIFO preserved).
        assert_eq!(q.pop(), Some("later-b"));
        assert_eq!(q.pop(), Some("later-c"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.respreads(), 1);
    }

    #[test]
    fn interleaved_push_pop_never_loses_entries() {
        let mut q = LadderQueue::new(7);
        let mut popped = 0u64;
        for round in 0..100u64 {
            q.push(round * 13, round);
            q.push(round * 13 + 5000, round + 1000);
            if round % 3 == 0 && q.pop().is_some() {
                popped += 1;
            }
        }
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, 200);
        assert_eq!(q.len(), 0);
        assert_eq!(q.current_bucket_len(), 0);
    }

    #[test]
    fn zero_width_is_clamped() {
        let mut q = LadderQueue::new(0);
        q.push(3, 1);
        q.push(1, 2);
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(1));
    }
}
