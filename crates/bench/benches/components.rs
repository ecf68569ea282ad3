//! Micro-benchmarks of the hot components: trace encode/decode, message
//! matching, trace analysis, the replay engine, and the Jaccard score.
//!
//! A dependency-free harness (criterion is unavailable offline): each
//! benchmark runs a warm-up pass, then a fixed number of timed
//! iterations, reporting min / mean wall time per iteration. Run with
//! `cargo bench --bench components`.

use nrlt_core::analysis::analyze;
use nrlt_core::measure_sys::{measure, MeasureConfig};
use nrlt_core::mpisim::{Channel, Matcher};
use nrlt_core::prelude::*;
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
