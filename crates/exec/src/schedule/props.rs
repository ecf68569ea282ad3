//! Property tests: every schedule must partition the iteration space
//! exactly, regardless of shape.

use super::{simulate_dynamic, static_partition, static_share, IterRange};
use crate::splitmix::Gen;
use nrlt_prog::Schedule;

#[test]
fn static_partitions_cover_exactly() {
    let mut g = Gen(1);
    for _case in 0..200 {
        let iters = g.below(100_000);
        let threads = g.range(1, 64) as u32;
        let p = static_partition(iters, threads, Schedule::Static);
        assert!(p.validate(iters).is_ok());
        // Static balance: no thread holds more than ceil(n/T) iterations.
        let cap = iters.div_ceil(threads as u64).max(1);
        for t in 0..threads as usize {
            assert!(p.thread_iters(t) <= cap);
        }
    }
}

#[test]
fn chunked_partitions_cover_exactly() {
    let mut g = Gen(2);
    for _case in 0..200 {
        let iters = g.below(50_000);
        let threads = g.range(1, 32) as u32;
        let chunk = g.range(1, 500);
        let p = static_partition(iters, threads, Schedule::StaticChunk(chunk));
        assert!(p.validate(iters).is_ok());
        // All chunks except possibly the last have the requested size.
        let mut all: Vec<_> = p.chunks.iter().flatten().collect();
        all.sort_by_key(|r| r.begin);
        for r in &all[..all.len().saturating_sub(1)] {
            assert_eq!(r.len(), chunk.min(iters));
        }
    }
}

/// The static partition as a runtime deals it: chunks of `chunk`
/// iterations handed to threads in turn.
fn dealt_rows(iters: u64, threads: u32, chunk: u64) -> Vec<Vec<IterRange>> {
    let mut rows = vec![Vec::new(); threads as usize];
    let (mut begin, mut turn) = (0, 0);
    while begin < iters {
        let end = (begin + chunk).min(iters);
        rows[turn % threads as usize].push(IterRange { begin, end });
        begin = end;
        turn += 1;
    }
    rows
}

#[test]
fn thread_shares_equal_partition_rows() {
    let mut g = Gen(5);
    for _case in 0..300 {
        let iters = g.below(20_000);
        let threads = g.range(1, 130) as u32;
        let chunk = g.range(1, 700);
        for (schedule, dealt) in [
            (Schedule::Static, iters.div_ceil(threads as u64).max(1)),
            (Schedule::StaticChunk(chunk), chunk),
        ] {
            let p = static_partition(iters, threads, schedule);
            assert_eq!(
                p.chunks,
                dealt_rows(iters, threads, dealt),
                "{schedule:?} {iters}/{threads}"
            );
            for t in 0..threads {
                let share: Vec<IterRange> = static_share(iters, threads, schedule, t).collect();
                assert_eq!(
                    share, p.chunks[t as usize],
                    "{schedule:?} {iters}/{threads} thread {t}"
                );
            }
        }
    }
}

#[test]
fn dynamic_partitions_cover_exactly() {
    let mut g = Gen(3);
    for _case in 0..150 {
        let iters = g.range(1, 20_000);
        let threads = g.range(1, 16) as usize;
        let chunk = g.range(1, 200);
        let ready: Vec<f64> = (0..threads).map(|_| g.f64() * 1e-3).collect();
        let res = simulate_dynamic(
            iters,
            Schedule::Dynamic(chunk),
            &ready,
            |_, b, e| (e - b) as f64 * 1e-6,
            1e-7,
        );
        assert!(res.partition.validate(iters).is_ok());
        // Finish times never precede ready times.
        for (f, r) in res.finish.iter().zip(&ready) {
            assert!(f >= r);
        }
    }
}

#[test]
fn guided_partitions_cover_exactly() {
    let mut g = Gen(4);
    for _case in 0..150 {
        let iters = g.range(1, 20_000);
        let threads = g.range(1, 16) as usize;
        let ready = vec![0.0; threads];
        let res =
            simulate_dynamic(iters, Schedule::Guided, &ready, |_, b, e| (e - b) as f64 * 1e-6, 0.0);
        assert!(res.partition.validate(iters).is_ok());
    }
}
