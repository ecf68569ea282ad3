//! Micro-benchmarks of the hot components: trace encode/decode, message
//! matching, trace analysis, the replay engine, the engine's hot-loop
//! data structures (ladder calendar, wildcard book, batched noise
//! draws), and the Jaccard score.
//!
//! A dependency-free harness (criterion is unavailable offline): each
//! benchmark runs a warm-up pass, then a fixed number of timed
//! iterations, reporting min / mean wall time per iteration. Run with
//! `cargo bench --bench components`.

use nrlt_core::analysis::analyze;
use nrlt_core::exec::{LadderQueue, WildcardBook};
use nrlt_core::measure_sys::{measure, MeasureConfig};
use nrlt_core::mpisim::{Channel, Matcher};
use nrlt_core::prelude::*;
use nrlt_core::sim::{jitter_factor, RngFactory, StreamKind};
use nrlt_core::trace::{decode, encode};
use std::time::Instant;

/// Time `f` over `iters` iterations after one warm-up call.
fn bench<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    std::hint::black_box(f());
    let mut times = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    println!(
        "{name:<28} min {:>9.3} ms   mean {:>9.3} ms   ({iters} iters)",
        min * 1e3,
        mean * 1e3
    );
}

/// A mid-size hybrid program for engine/analysis benches.
fn workload() -> (Program, ExecConfig) {
    let ranks = 8;
    let mut pb = ProgramBuilder::new(ranks);
    for r in 0..ranks {
        let left = (r + ranks - 1) % ranks;
        let right = (r + 1) % ranks;
        let mut rb = pb.rank(r);
        rb.scoped("main", |rb| {
            for _ in 0..50 {
                rb.parallel("step", |omp| {
                    omp.for_loop(
                        "sweep",
                        4096,
                        Schedule::Static,
                        IterCost::Uniform(Cost::scalar(500)),
                        1 << 20,
                    );
                });
                rb.irecv(left, 0, 8192);
                rb.isend(right, 0, 8192);
                rb.waitall();
                rb.allreduce(8);
            }
        });
    }
    (pb.finish(), ExecConfig::jureca(1, JobLayout::block(ranks, 4), 7))
}

/// Deterministic 64-bit LCG (MMIX constants) for workload shapes: every
/// run times the exact same operation sequence.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0
    }
}

/// Ladder calendar: interleaved pushes (time-local, like completion
/// times landing a little ahead of now) and pops.
fn ladder_churn(n: usize) -> u64 {
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
    sink
}

/// Wildcard book: post/match churn across a handful of (rank, tag)
/// keys, the shape an `MPI_ANY_SOURCE` workload would produce.
fn wildcard_churn(n: usize) -> u64 {
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
    sink.wrapping_add(book.depth() as u64)
}

/// Batched noise draws: warm four streams per `stream4` call and take
/// one jitter factor from each — the observer's hardware-counter path.
fn noise_batches(n_batches: usize) -> f64 {
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
    acc
}

fn main() {
    let (program, cfg) = workload();
    println!("== engine ==");
    bench("execute_reference", 10, || nrlt_core::exec::execute(&program, &cfg, &mut NullObserver));
    bench("execute_traced_tsc", 10, || {
        measure(&program, &cfg, &MeasureConfig::new(ClockMode::Tsc))
    });
    bench("execute_traced_lt_stmt", 10, || {
        measure(&program, &cfg, &MeasureConfig::new(ClockMode::LtStmt))
    });

    println!("== engine structures ==");
    bench("ladder_calendar_1m_pushes", 5, || ladder_churn(1_000_000));
    bench("wildcard_book_1m_ops", 5, || wildcard_churn(1_000_000));
    bench("noise_batch_250k_x4", 5, || noise_batches(250_000));

    println!("== trace_io ==");
    let (trace, _) = measure(&program, &cfg, &MeasureConfig::new(ClockMode::Tsc));
    println!("({} events)", trace.total_events());
    bench("encode", 20, || encode(&trace));
    let bytes = encode(&trace);
    bench("decode", 20, || decode(&bytes).unwrap());

    println!("== analysis ==");
    bench("analyze_full", 10, || analyze(&trace));
    bench("analyze_no_delay", 10, || {
        nrlt_core::analysis::analyze_view(
            &nrlt_core::trace::TraceView::Resident(&trace),
            &nrlt_core::analysis::AnalysisConfig { delay_costs: false, workers: 0 },
            None,
            None,
        )
    });

    println!("== matching ==");
    bench("post_10k_pairs", 20, || {
        let mut m = Matcher::<u64, u64>::new();
        for i in 0..10_000u64 {
            let ch = Channel { src: (i % 16) as u32, dst: ((i + 1) % 16) as u32, tag: 0 };
            m.post_send(ch, 1024, i);
            m.post_recv(ch, 1024, i);
        }
        m
    });

    println!("== profile ==");
    use std::collections::BTreeMap;
    let a: BTreeMap<u64, f64> = (0..10_000).map(|i| (i, (i % 97) as f64)).collect();
    let b: BTreeMap<u64, f64> = (0..10_000).map(|i| (i + 500, (i % 89) as f64)).collect();
    bench("jaccard_10k_cells", 50, || jaccard(&a, &b));
}
