//! Acceptance contracts of the sampling profiler as wired through the
//! pipeline:
//!
//! 1. Opt-in: without [`SampleProf::install`], a full pipeline run
//!    publishes **zero** frames — no slot is ever registered, no push
//!    ever happens. The profiler off is provably free.
//! 2. Structure: every frame name the sampler ever observes during a
//!    real pipeline run is drawn from the static frame registry
//!    ([`frames::NAMES`]), and the folded export round-trips through
//!    the collapsed-stack parser. Sample *counts* are wall-clock data
//!    and deliberately unasserted.

use nrlt_core::miniapps::{MiniFeConfig, MiniFeCosts};
use nrlt_core::prelude::*;
use nrlt_telemetry::sample::{frames, SampleProf};

/// A deliberately tiny MiniFE so the whole protocol runs in seconds.
fn tiny_instance() -> BenchmarkInstance {
    MiniFeConfig {
        nx: 40,
        ranks: 2,
        threads_per_rank: 2,
        imbalance_pct: 50,
        cg_iters: 4,
        costs: MiniFeCosts::default(),
    }
    .build()
}

fn options() -> ExperimentOptions {
    ExperimentOptions {
        repetitions: 2,
        base_seed: 4242,
        modes: vec![ClockMode::Tsc, ClockMode::Lt1],
        jobs: 2,
        ..Default::default()
    }
}

#[test]
fn disabled_profiler_sees_no_publications_from_a_pipeline_run() {
    let prof = SampleProf::new();
    // No install: pipeline threads must not find (or create) any slot,
    // even where the full entry point opens its phase guards.
    let result =
        nrlt_core::run_experiment_instrumented(&tiny_instance(), &options(), None, None, None);
    assert!(result.events > 0, "pipeline did run");
    assert_eq!(prof.publishes(), 0, "uninstalled profiler saw frame publications");
    assert_eq!(prof.active_slots(), 0, "uninstalled profiler has registered slots");
    assert_eq!(prof.samples(), 0);
    assert!(prof.stack_counts().is_empty());
}

#[test]
fn sampled_frames_come_from_the_registry_and_folded_roundtrips() {
    let prof = SampleProf::with_rate(1000);
    let _guard = prof.install();
    // Re-run until the sampler has caught at least one stack (sampling
    // is wall-clock; one tiny run may complete between ticks).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while prof.samples() == 0 && std::time::Instant::now() < deadline {
        nrlt_core::run_experiment(&tiny_instance(), &options());
    }
    assert!(prof.publishes() > 0, "installed profiler saw no frame publications");
    assert!(prof.samples() > 0, "sampler caught no stacks within the deadline");

    // Structure: every sampled frame name is a registry name, and
    // stacks are non-empty and within the depth bound.
    let counts = prof.stack_counts();
    assert!(!counts.is_empty());
    for stack in counts.keys() {
        assert!(!stack.is_empty());
        for name in stack {
            assert!(frames::NAMES.contains(name), "sampled frame `{name}` not in the registry");
        }
    }

    // The folded export parses back to exactly the same stacks.
    let folded = nrlt_report::folded_from_counts(&counts);
    let parsed = nrlt_report::parse_folded(&folded);
    let expected: Vec<(Vec<String>, u64)> = counts
        .iter()
        .map(|(stack, &n)| (stack.iter().map(|s| s.to_string()).collect(), n))
        .collect();
    assert_eq!(parsed, expected, "folded export did not round-trip");
}
