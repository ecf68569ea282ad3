//! Engine microbenchmarks: the hot-loop data structures in isolation.
//!
//! Times three kernels of the event engine — the ladder calendar
//! (push/pop with out-of-order arrivals), the wildcard matching book
//! (post/match churn over a small key set), and the batched noise-draw
//! path (`stream4` warm-up plus jitter draws) — and reports operations
//! per second for each. With `--bench-json <path>` the numbers merge
//! into the perf baseline under the `engine-micro` bin key, one entry
//! per kernel, so `bench-check` gates the structures independently of
//! the whole-pipeline figures.
//!
//! The workloads are seeded by a fixed LCG: every invocation times the
//! exact same operation sequence.

use nrlt_bench::bench_json::{self, BenchEntry};
use nrlt_bench::Flags;
use nrlt_core::exec::{LadderQueue, WildcardBook};
use nrlt_core::sim::{jitter_factor, RngFactory, StreamKind};
use std::time::Instant;

/// Deterministic 64-bit LCG (MMIX constants) for workload shapes.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0
    }
}

/// Ladder calendar: interleaved pushes (time-local, like completion
/// times landing a little ahead of now) and pops. Returns (ops, sink).
fn bench_ladder(n: usize) -> (u64, u64) {
    let mut q: LadderQueue<u32> = LadderQueue::new(1_000_000);
    let mut lcg = Lcg(7);
    let mut now = 0u64;
    let mut sink = 0u64;
    for i in 0..n {
        // Completion times land 0..16 ms ahead of the current horizon.
        now += lcg.next() % 500_000;
        q.push(now + lcg.next() % 16_000_000, i as u32);
        if i % 4 == 3 {
            for _ in 0..3 {
                sink = sink.wrapping_add(q.pop().expect("queue has entries") as u64);
            }
        }
    }
    while let Some(v) = q.pop() {
        sink = sink.wrapping_add(v as u64);
    }
    ((n as u64) * 2, sink) // n pushes + n pops in total
}

/// Wildcard book: post/match churn across a handful of (rank, tag)
/// keys, the shape an `MPI_ANY_SOURCE` workload would produce.
fn bench_wildcard(n: usize) -> (u64, u64) {
    let mut book: WildcardBook<u64> = WildcardBook::default();
    let mut lcg = Lcg(11);
    let mut sink = 0u64;
    for i in 0..n {
        let key = ((lcg.next() % 8) as u32, (lcg.next() % 4) as u32);
        if book.depth() > 64 || (i % 3 == 2 && book.depth() > 0) {
            if let Some(v) = book.pop(key) {
                sink = sink.wrapping_add(v);
            }
        } else {
            book.push(key, i as u64);
        }
    }
    sink = sink.wrapping_add(book.depth() as u64);
    (n as u64, sink)
}

/// Batched noise draws: warm four streams per `stream4` call and take
/// one jitter factor from each — the observer's hardware-counter path.
fn bench_noise_batch(n_batches: usize) -> (u64, u64) {
    let f = RngFactory::new(42);
    let mut acc = 0.0f64;
    for i in 0..n_batches as u64 {
        let k = StreamKind::HwCounter;
        let mut streams =
            f.stream4([(k, i, 4 * i), (k, i, 4 * i + 1), (k, i, 4 * i + 2), (k, i, 4 * i + 3)]);
        for s in streams.iter_mut() {
            acc += jitter_factor(s, 0.02);
        }
    }
    ((n_batches as u64) * 4, acc.to_bits())
}

fn main() {
    let flags = Flags::from_env();
    println!("\n=== engine microbenchmarks ===");
    /// One microbench kernel: run `n` units, return (ops, sink).
    type Kernel = fn(usize) -> (u64, u64);
    let kernels: [(&str, Kernel, usize); 3] = [
        ("ladder-calendar", bench_ladder, 4_000_000),
        ("wildcard-match", bench_wildcard, 4_000_000),
        ("noise-batch", bench_noise_batch, 1_000_000),
    ];
    let mut entries = Vec::new();
    for (name, kernel, n) in kernels {
        // One warm-up pass, then the timed pass.
        let _ = kernel(n / 10);
        let start = Instant::now();
        let (ops, sink) = kernel(n);
        let wall = start.elapsed().as_secs_f64();
        let mops = ops as f64 / wall / 1e6;
        println!("{name:<16} {ops:>9} ops  {wall:>7.3} s  {mops:>8.1} Mops/s  (sink {sink:x})");
        entries.push(BenchEntry {
            bin: "engine-micro".to_owned(),
            run: name.to_owned(),
            jobs: 1,
            host_parallelism: bench_json::host_parallelism(),
            wall_seconds: wall,
            events: ops,
            events_per_sec: ops as f64 / wall,
            overhead_vs_plain_pct: None,
            peak_rss_bytes: bench_json::peak_rss_bytes(),
        });
    }
    if let Some(path) = flags.bench_json {
        match bench_json::merge_and_write(&path, &entries) {
            Ok(()) => eprintln!("perf baseline written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write perf baseline: {e}"),
        }
    }
    if let Some(path) = flags.history {
        let record = nrlt_report::HistoryRecord {
            schema: nrlt_report::HISTORY_SCHEMA_VERSION,
            unix_time: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            git_rev: nrlt_telemetry::git_rev(),
            host_parallelism: bench_json::host_parallelism(),
            bin: "engine-micro".to_owned(),
            entries,
            top_stacks: Vec::new(),
            engineprof_eps: Vec::new(),
        };
        match nrlt_report::append_record(&path, &record) {
            Ok(()) => eprintln!("history record appended to {}", path.display()),
            Err(e) => eprintln!("warning: could not append history: {e}"),
        }
    }
}
