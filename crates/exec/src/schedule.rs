//! OpenMP worksharing-loop schedules.
//!
//! Static schedules partition iterations at compile time; dynamic and
//! guided schedules are simulated: free threads grab the next chunk, so
//! the partition depends on per-chunk durations and thread start times.
//! The simulation is deterministic — ties break by thread id, matching
//! the deterministic traces the paper needs.

use nrlt_prog::Schedule;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A contiguous iteration range `[begin, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IterRange {
    /// First iteration.
    pub(crate) begin: u64,
    /// One past the last iteration.
    pub(crate) end: u64,
}

impl IterRange {
    /// Number of iterations in the range.
    pub(crate) fn len(&self) -> u64 {
        self.end - self.begin
    }
}

/// The outcome of scheduling one loop: per-thread chunk lists.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LoopPartition {
    /// `chunks[t]` are the ranges thread `t` executes, in order.
    pub(crate) chunks: Vec<Vec<IterRange>>,
}

impl LoopPartition {
    /// Total iterations assigned to thread `t`.
    #[cfg(test)]
    pub(crate) fn thread_iters(&self, t: usize) -> u64 {
        self.chunks[t].iter().map(IterRange::len).sum()
    }

    /// Total chunks across the whole team — the loop's dispatch traffic,
    /// sampled by the resource observatory as `omp.loop_chunks`.
    pub(crate) fn total_chunks(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Check that the partition covers `[0, iters)` exactly once.
    #[cfg(test)]
    pub(crate) fn validate(&self, iters: u64) -> Result<(), String> {
        let mut all: Vec<IterRange> =
            self.chunks.iter().flatten().copied().filter(|r| r.len() > 0).collect();
        all.sort_by_key(|r| r.begin);
        let mut cursor = 0;
        for r in &all {
            if r.begin != cursor {
                return Err(format!(
                    "gap or overlap at iteration {cursor} (next range starts {})",
                    r.begin
                ));
            }
            cursor = r.end;
        }
        if cursor != iters {
            return Err(format!("partition covers {cursor} of {iters} iterations"));
        }
        Ok(())
    }
}

/// Partition a static schedule (no runtime feedback needed): row `t`
/// is [`static_share`] of thread `t`. The engine walks one thread's
/// share at a time; the tests use the whole partition as their oracle.
///
/// Panics if called with a dynamic/guided schedule — use
/// [`simulate_dynamic`] for those.
#[cfg(test)]
pub(crate) fn static_partition(iters: u64, nthreads: u32, schedule: Schedule) -> LoopPartition {
    let chunks = (0..nthreads.max(1))
        .map(|thread| static_share(iters, nthreads, schedule, thread).collect())
        .collect();
    LoopPartition { chunks }
}

/// The ranges thread `thread` executes under a static schedule, in
/// order, computed without building the team's partition.
///
/// `StaticChunk(c)` deals chunks of `c` iterations round-robin, so
/// thread `t` runs chunks `t, t + T, t + 2T, …`. `Static` is the same
/// rule with `c = ceil(n / T)`, which leaves each thread at most one
/// contiguous block.
///
/// Panics if called with a dynamic/guided schedule — use
/// [`simulate_dynamic`] for those.
pub(crate) fn static_share(
    iters: u64,
    nthreads: u32,
    schedule: Schedule,
    thread: u32,
) -> impl Iterator<Item = IterRange> {
    let t = nthreads.max(1) as u64;
    let chunk = match schedule {
        Schedule::Static => iters.div_ceil(t).max(1),
        Schedule::StaticChunk(c) => c.max(1),
        Schedule::Dynamic(_) | Schedule::Guided => {
            panic!("dynamic/guided schedules need runtime simulation")
        }
    };
    let stride = t.saturating_mul(chunk);
    let first = Some(u64::from(thread).saturating_mul(chunk)).filter(|&b| b < iters);
    std::iter::successors(first, move |&b| b.checked_add(stride).filter(|&b| b < iters))
        .map(move |begin| IterRange { begin, end: begin.saturating_add(chunk).min(iters) })
}

#[derive(Debug, PartialEq)]
struct ReadyThread {
    time: f64,
    thread: u32,
}

impl Eq for ReadyThread {}

impl Ord for ReadyThread {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by (time, thread id): earlier threads grab chunks first,
        // ties broken deterministically by id.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.thread.cmp(&self.thread))
    }
}

impl PartialOrd for ReadyThread {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Result of simulating a dynamic/guided loop.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DynamicResult {
    /// The realised partition.
    pub(crate) partition: LoopPartition,
    /// Per-thread finish time (seconds), including dispatch overheads.
    pub(crate) finish: Vec<f64>,
}

/// Simulate a `dynamic` or `guided` schedule.
///
/// * `ready` — per-thread time (seconds) at which the thread reaches the
///   loop.
/// * `range_cost` — duration (seconds) for that thread to execute a
///   chunk; receives `(begin, end)`.
/// * `dispatch` — overhead per chunk acquisition (runtime lock/atomic).
pub(crate) fn simulate_dynamic(
    iters: u64,
    schedule: Schedule,
    ready: &[f64],
    mut range_cost: impl FnMut(u32, u64, u64) -> f64,
    dispatch: f64,
) -> DynamicResult {
    let nthreads = ready.len() as u32;
    let mut heap: BinaryHeap<ReadyThread> =
        ready.iter().enumerate().map(|(t, &time)| ReadyThread { time, thread: t as u32 }).collect();
    let mut chunks: Vec<Vec<IterRange>> = vec![Vec::new(); nthreads as usize];
    let mut finish = ready.to_vec();
    let mut next = 0u64;
    while next < iters {
        let ReadyThread { time, thread } = heap.pop().expect("heap cannot be empty");
        let chunk = match schedule {
            Schedule::Dynamic(c) => c.max(1),
            Schedule::Guided => {
                let remaining = iters - next;
                (remaining / (2 * nthreads as u64)).max(1)
            }
            _ => panic!("simulate_dynamic called with a static schedule"),
        };
        let begin = next;
        let end = (next + chunk).min(iters);
        next = end;
        chunks[thread as usize].push(IterRange { begin, end });
        let done = time + dispatch + range_cost(thread, begin, end);
        finish[thread as usize] = done;
        heap.push(ReadyThread { time: done, thread });
    }
    DynamicResult { partition: LoopPartition { chunks }, finish }
}

#[cfg(test)]
mod props;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_partition_covers_exactly() {
        for (iters, t) in [(100u64, 16u32), (7, 3), (1, 8), (0, 4), (1000, 1)] {
            let p = static_partition(iters, t, Schedule::Static);
            p.validate(iters).unwrap();
        }
    }

    #[test]
    fn occupancy_helpers_summarise_the_partition() {
        let p = static_partition(100, 4, Schedule::Static);
        assert_eq!(p.total_chunks(), 4);
        let chunked = static_partition(100, 4, Schedule::StaticChunk(10));
        assert_eq!(chunked.total_chunks(), 10);
        assert_eq!(LoopPartition { chunks: Vec::new() }.total_chunks(), 0);
    }

    #[test]
    fn static_is_contiguous_and_balanced() {
        let p = static_partition(100, 4, Schedule::Static);
        for t in 0..4 {
            assert_eq!(p.thread_iters(t), 25);
            assert_eq!(p.chunks[t].len(), 1);
        }
    }

    #[test]
    fn static_chunk_round_robins() {
        let p = static_partition(10, 2, Schedule::StaticChunk(2));
        p.validate(10).unwrap();
        assert_eq!(
            p.chunks[0],
            vec![
                IterRange { begin: 0, end: 2 },
                IterRange { begin: 4, end: 6 },
                IterRange { begin: 8, end: 10 },
            ]
        );
        assert_eq!(p.chunks[1].len(), 2);
    }

    #[test]
    fn dynamic_balances_uneven_costs() {
        // Iterations 0..50 are 10x the cost of 50..100; dynamic spreads
        // the expensive half over both threads.
        let ready = [0.0, 0.0];
        let res = simulate_dynamic(
            100,
            Schedule::Dynamic(5),
            &ready,
            |_, b, e| (b..e).map(|i| if i < 50 { 10.0 } else { 1.0 }).sum(),
            0.0,
        );
        res.partition.validate(100).unwrap();
        let spread = (res.finish[0] - res.finish[1]).abs();
        let total = res.finish[0].max(res.finish[1]);
        assert!(spread / total < 0.2, "dynamic schedule should balance: {res:?}");
    }

    #[test]
    fn static_would_imbalance_what_dynamic_balances() {
        // Same workload under static: thread 0 gets all expensive ones.
        let p = static_partition(100, 2, Schedule::Static);
        let cost = |ranges: &Vec<IterRange>| -> f64 {
            ranges
                .iter()
                .flat_map(|r| r.begin..r.end)
                .map(|i| if i < 50 { 10.0 } else { 1.0 })
                .sum()
        };
        let c0 = cost(&p.chunks[0]);
        let c1 = cost(&p.chunks[1]);
        assert!(c0 > 5.0 * c1);
    }

    #[test]
    fn guided_chunks_shrink() {
        let res =
            simulate_dynamic(1000, Schedule::Guided, &[0.0, 0.0], |_, b, e| (e - b) as f64, 0.0);
        res.partition.validate(1000).unwrap();
        let sizes: Vec<u64> = res.partition.chunks.iter().flatten().map(IterRange::len).collect();
        assert!(sizes.first().unwrap() > sizes.last().unwrap());
    }

    #[test]
    fn dispatch_overhead_counts_per_chunk() {
        let no = simulate_dynamic(100, Schedule::Dynamic(1), &[0.0], |_, b, e| (e - b) as f64, 0.0);
        let with =
            simulate_dynamic(100, Schedule::Dynamic(1), &[0.0], |_, b, e| (e - b) as f64, 0.5);
        assert!((with.finish[0] - no.finish[0] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn late_thread_gets_fewer_chunks() {
        let res = simulate_dynamic(
            100,
            Schedule::Dynamic(10),
            &[0.0, 45.0],
            |_, b, e| (e - b) as f64,
            0.0,
        );
        res.partition.validate(100).unwrap();
        assert!(res.partition.thread_iters(0) > res.partition.thread_iters(1));
    }

    #[test]
    #[should_panic(expected = "runtime simulation")]
    fn static_partition_rejects_dynamic() {
        static_partition(10, 2, Schedule::Dynamic(1));
    }

    #[test]
    fn deterministic_tie_breaking() {
        let a =
            simulate_dynamic(50, Schedule::Dynamic(3), &[0.0; 4], |_, b, e| (e - b) as f64, 0.1);
        let b =
            simulate_dynamic(50, Schedule::Dynamic(3), &[0.0; 4], |_, b, e| (e - b) as f64, 0.1);
        assert_eq!(a, b);
    }
}
