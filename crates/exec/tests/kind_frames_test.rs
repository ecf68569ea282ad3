//! The engine profiler's wall time lives on the sampler: with a
//! `SampleProf` installed, an engine run driven by a `RunProf` publishes
//! one `engine.<kind>` frame per event kind, nested under the engine's
//! per-quantum `engine.rank` frame, and every sampled name is in the
//! frame registry. The same run without a `RunProf` keeps per-quantum
//! granularity: no kind frame at all. Sample counts are wall-clock data
//! and deliberately unasserted; only names and nesting are.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use nrlt_exec::engineprof::{EventKind, RunProf};
use nrlt_exec::{execute_prepared_instrumented, prepare_regions, ExecConfig, NullObserver};
use nrlt_prog::{Cost, IterCost, ProgramBuilder, Schedule};
use nrlt_sim::{JobLayout, NoiseConfig};
use nrlt_telemetry::sample::{frames, SampleProf};

/// Two hybrid ranks exercising every kind: kernels, loop chunks, a
/// point-to-point exchange, a collective, OpenMP barriers and noise.
fn program() -> nrlt_prog::Program {
    let mut pb = ProgramBuilder::new(2);
    for r in 0..2 {
        let mut rb = pb.rank(r);
        rb.scoped("main", |rb| {
            for _ in 0..50 {
                rb.kernel(Cost::scalar(100_000).with_mem_bytes(1 << 16), 1 << 20);
                rb.parallel("work", |omp| {
                    let cost = IterCost::Uniform(Cost::scalar(100));
                    omp.for_loop("chunks", 64, Schedule::Dynamic(4), cost, 1 << 20);
                    omp.barrier();
                });
                if r == 0 {
                    rb.send(1, 0, 1024);
                } else {
                    rb.recv(0, 0, 1024);
                }
                rb.allreduce(8);
            }
        });
    }
    pb.finish()
}

fn kind_frame(name: &str) -> bool {
    EventKind::ALL.iter().any(|k| frames::name(k.frame()) == name)
}

/// Run the engine under a 1 kHz sampler until a sampled stack satisfies
/// `caught` (or a deadline passes) and return every sampled stack.
fn sampled_stacks(
    profiled: bool,
    caught: impl Fn(&[&str]) -> bool,
) -> BTreeMap<Vec<&'static str>, u64> {
    let p = program();
    let regions = prepare_regions(&p);
    let cfg = ExecConfig::jureca(1, JobLayout::block(2, 2), 7).with_noise(NoiseConfig::realistic());
    let prof = SampleProf::with_rate(1000);
    let guard = prof.install();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let run = profiled.then(|| RunProf::new("r"));
        execute_prepared_instrumented(
            &p,
            &regions,
            &cfg,
            &mut NullObserver,
            None,
            None,
            run.as_ref(),
        );
        let stacks = prof.stack_counts();
        if stacks.keys().any(|s| caught(s)) || Instant::now() > deadline {
            drop(guard);
            return stacks;
        }
    }
}

#[test]
fn kind_frames_nest_under_engine_rank_only_while_a_run_prof_is_live() {
    // Installing a sampler is process-global: both halves run in one
    // test so they never overlap.
    let with = sampled_stacks(true, |s| s.iter().any(|f| kind_frame(f)));
    assert!(
        with.keys().any(|s| s.iter().any(|f| kind_frame(f))),
        "no engine kind frame sampled: {with:?}"
    );
    for stack in with.keys() {
        for name in stack {
            assert!(frames::NAMES.contains(name), "unregistered frame {name}");
        }
        // Kind frames sit directly under `engine.rank` and nest only in
        // one another (a kernel's noise draws).
        if let Some(first) = stack.iter().position(|f| kind_frame(f)) {
            assert_eq!(stack[..first].last(), Some(&"engine.rank"), "{stack:?}");
            assert!(stack[..first].contains(&"engine.run"), "{stack:?}");
            assert!(stack[first..].iter().all(|f| kind_frame(f)), "{stack:?}");
        }
    }

    let without = sampled_stacks(false, |s| s.contains(&"engine.rank"));
    assert!(
        without.keys().any(|s| s.contains(&"engine.rank")),
        "no engine quantum sampled: {without:?}"
    );
    for stack in without.keys() {
        assert!(!stack.iter().any(|f| kind_frame(f)), "kind frame without a RunProf: {stack:?}");
    }
}
