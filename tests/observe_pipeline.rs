//! The resource observatory's pipeline contract, mirroring
//! `parallel_pipeline.rs`:
//!
//! * an `--observe` bundle is byte-identical across worker counts and
//!   repeats (runs are keyed by stable names, merged in sorted order),
//! * observing does not perturb the experiment — profiles, run times,
//!   and reference runs are exactly the results of an unobserved run,
//! * without a handle the pipeline does zero observability work.

use nrlt::miniapps::{MiniFeConfig, MiniFeCosts};
use nrlt::observe::export::ObserveBundle;
use nrlt::observe::Observe;
use nrlt::prelude::*;
use nrlt::run_experiment_instrumented;

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

fn observed_bundle(jobs: usize) -> (ExperimentResult, ObserveBundle) {
    let instance = tiny_instance();
    let obs = Observe::new();
    let result = run_experiment_instrumented(&instance, &options(jobs), None, Some(&obs), None);
    (result, ObserveBundle::from_observe(&obs))
}

#[test]
fn observe_bundle_is_identical_across_jobs_and_repeats() {
    let (_, serial) = observed_bundle(1);
    let (_, parallel) = observed_bundle(4);
    let (_, again) = observed_bundle(4);

    // Byte-identical exports, not just equal structures.
    assert_eq!(serial.to_jsonl(), parallel.to_jsonl(), "JSONL diverged across jobs");
    assert_eq!(parallel.to_jsonl(), again.to_jsonl(), "JSONL diverged across repeats");
    assert_eq!(serial.to_chrome(), parallel.to_chrome(), "Chrome trace diverged across jobs");

    // And the JSONL round-trips losslessly.
    let reparsed = ObserveBundle::from_jsonl(&serial.to_jsonl()).expect("bundle reparses");
    assert_eq!(reparsed, serial);
}

#[test]
fn observing_does_not_perturb_the_experiment() {
    let instance = tiny_instance();
    let plain = run_experiment(&instance, &options(2));
    let (observed, bundle) = observed_bundle(2);

    assert_eq!(plain.reference, observed.reference, "observing changed reference runs");
    assert_eq!(plain.phase_names, observed.phase_names);
    for (p, o) in plain.modes.iter().zip(&observed.modes) {
        assert_eq!(p.mode, o.mode);
        assert_eq!(p.run_times, o.run_times, "{}: observing changed run times", p.mode);
        assert_eq!(p.phase_times, o.phase_times, "{}: observing changed phase times", p.mode);
        assert_eq!(p.profiles, o.profiles, "{}: observing changed profiles", p.mode);
    }

    // The bundle actually recorded the machine: one run per cell, with
    // counter samples and noise draws inside.
    let expected_runs = 2 + 2 + 1; // ref reps + tsc reps + lt_stmt (noise-free: 1 rep)
    assert_eq!(bundle.runs.len(), expected_runs);
    let tsc = &bundle.runs[&format!("{}:tsc:rep0", instance.name)];
    assert!(!tsc.series_aggs.is_empty(), "no counter timelines recorded");
    assert!(!tsc.noise_aggs.is_empty(), "no noise draws recorded");
    assert!(!tsc.waits.is_empty(), "no wait provenance recorded");
}

#[test]
fn no_handle_means_zero_observability_work() {
    let instance = tiny_instance();
    let obs = Observe::new();
    // Run the full pipeline WITHOUT passing the handle: the `None`
    // paths must leave the observatory untouched.
    let with_none = run_experiment_instrumented(&instance, &options(2), None, None, None);
    assert_eq!(obs.call_count(), 0, "a None run must perform zero observability work");
    assert!(ObserveBundle::from_observe(&obs).runs.is_empty());

    // And the None path is exactly the plain path.
    let plain = run_experiment(&instance, &options(2));
    assert_eq!(plain.reference, with_none.reference);
    for (p, o) in plain.modes.iter().zip(&with_none.modes) {
        assert_eq!(p.profiles, o.profiles);
        assert_eq!(p.run_times, o.run_times);
    }
}
