//! The engine self-profiler's two contracts:
//!
//! 1. **Determinism** — an `--engine-prof` bundle (`engineprof.json`:
//!    per-kind counts and virtual costs, gauge aggregates, high-water
//!    marks, allocation counts) is byte-identical across worker counts
//!    and repeats.
//! 2. **Zero overhead when off** — a `None`-profiler run performs no
//!    accounting work at all (the sink's attach counter proves no
//!    counter struct was ever constructed) and produces exactly the
//!    results of an uninstrumented run.

use nrlt::engineprof::{EngineProf, EventKind, ProfBundle};
use nrlt::miniapps::{MiniFeConfig, MiniFeCosts};
use nrlt::prelude::*;
use nrlt_core::run_experiment_instrumented;

/// A deliberately tiny MiniFE so the whole protocol runs in seconds.
fn tiny_instance() -> BenchmarkInstance {
    MiniFeConfig {
        nx: 60,
        ranks: 4,
        threads_per_rank: 4,
        imbalance_pct: 50,
        cg_iters: 8,
        costs: MiniFeCosts::default(),
    }
    .build()
}

fn options(jobs: usize) -> ExperimentOptions {
    ExperimentOptions {
        repetitions: 2,
        base_seed: 900,
        modes: vec![ClockMode::Tsc, ClockMode::LtStmt],
        jobs,
        ..Default::default()
    }
}

fn profile_json(jobs: usize) -> String {
    let prof = EngineProf::new();
    run_experiment_instrumented(&tiny_instance(), &options(jobs), None, None, Some(&prof));
    ProfBundle::from_prof(&prof).to_json()
}

#[test]
fn bundle_is_byte_identical_across_jobs_and_repeats() {
    let serial = profile_json(1);
    assert_eq!(serial, profile_json(2), "jobs=2 diverged from jobs=1");
    assert_eq!(serial, profile_json(4), "jobs=4 diverged from jobs=1");
    assert_eq!(serial, profile_json(1), "repeat diverged");
}

#[test]
fn profile_accounts_the_whole_event_stream() {
    let prof = EngineProf::new();
    let result =
        run_experiment_instrumented(&tiny_instance(), &options(1), None, None, Some(&prof));
    let runs = prof.runs();
    // 2 reference reps + 2 tsc reps + 1 lt_stmt rep (noise-free).
    assert_eq!(runs.len(), 5, "one attached profile per cell");
    assert!(runs.keys().any(|k| k.contains(":ref:")), "reference cells profile too");

    let events: u64 = runs.values().map(|d| d.events).sum();
    assert_eq!(events, result.events, "profiler and result disagree on event count");
    assert!(events > 0, "the pipeline dispatched no events?");

    for (name, data) in &runs {
        let kernel = &data.kinds[EventKind::KernelAdvance.index()];
        assert!(kernel.count > 0, "{name}: no kernels advanced");
        assert!(kernel.virtual_ns > 0, "{name}: kernels cost no virtual time");
        let barrier = &data.kinds[EventKind::Barrier.index()];
        assert!(barrier.count > 0, "{name}: MiniFE has OMP barriers");
        let coll = &data.kinds[EventKind::Collective.index()];
        assert!(coll.count > 0, "{name}: CG iterates over allreduces");
        let draws = &data.kinds[EventKind::NoiseDraw.index()];
        assert!(draws.count > 0, "{name}: realistic noise must draw");
        assert!(!data.gauges.is_empty(), "{name}: no queue gauges recorded");
        assert!(!data.hwms.is_empty(), "{name}: no high-water marks recorded");
    }
}

#[test]
fn disabled_profiler_does_no_work_and_changes_nothing() {
    let instance = tiny_instance();
    let plain = run_experiment(&instance, &options(1));

    let sink = EngineProf::new();
    // The sink exists but is never passed in: the engine must not touch
    // it — and must not construct any per-run accounting either.
    let off = run_experiment_instrumented(&instance, &options(1), None, None, None);
    assert_eq!(sink.call_count(), 0, "a None run must never reach a sink");
    assert!(sink.runs().is_empty());

    // And the instrumented path with a live profiler still produces the
    // exact same simulation results — profiling reads, never perturbs.
    let prof = EngineProf::new();
    let on = run_experiment_instrumented(&instance, &options(1), None, None, Some(&prof));

    for r in [&off, &on] {
        assert_eq!(plain.reference, r.reference, "reference runs diverged");
        assert_eq!(plain.phase_names, r.phase_names);
        for (a, b) in plain.modes.iter().zip(&r.modes) {
            assert_eq!(a.run_times, b.run_times, "{}: run times diverged", a.mode);
            assert_eq!(a.profiles, b.profiles, "{}: profiles diverged", a.mode);
        }
    }
    assert!(prof.call_count() > 0, "a Some run must attach its cells");
}
