//! Out-of-core golden determinism: a run whose trace spills event
//! segments to disk must produce results **byte-identical** to the
//! fully resident path — same profiles, same severity report, same
//! event counts. The spill layer may only change *where* events live
//! between measurement and analysis, never a single analysed number.
//!
//! The spilled runs use a deliberately absurd 1-byte budget, which
//! clamps to the minimum chunk size and forces maximum segment churn —
//! the worst case for any ordering or rounding bug in the segment
//! round-trip or the streaming analysis.

use nrlt::miniapps::{MiniFeConfig, MiniFeCosts};
use nrlt::prelude::*;
use nrlt_report::severity_text;

/// A small MiniFE: big enough to cross chunk boundaries many times
/// under the forced-spill budget, small enough to run in seconds.
fn instance() -> BenchmarkInstance {
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

fn options(jobs: usize, trace_budget: Option<u64>) -> ExperimentOptions {
    ExperimentOptions {
        repetitions: 2,
        base_seed: 4242,
        modes: vec![ClockMode::Tsc, ClockMode::Lt1],
        jobs,
        trace_budget,
        ..Default::default()
    }
}

#[test]
fn spilled_run_is_byte_identical_to_resident() {
    let instance = instance();
    let resident = nrlt::run_experiment(&instance, &options(1, None));
    let spilled = nrlt::run_experiment(&instance, &options(1, Some(1)));

    assert_eq!(resident.events, spilled.events, "event counts diverged under spill");
    assert_eq!(resident.reference, spilled.reference, "reference runs diverged under spill");
    for (rm, sm) in resident.modes.iter().zip(&spilled.modes) {
        assert_eq!(rm.mode, sm.mode);
        assert_eq!(rm.profiles, sm.profiles, "{}: per-rep profiles diverged under spill", rm.mode);
        assert_eq!(rm.mean, sm.mean, "{}: mean profile diverged under spill", rm.mode);
        assert_eq!(rm.run_times, sm.run_times, "{}: run times diverged under spill", rm.mode);
        assert_eq!(rm.phase_times, sm.phase_times, "{}: phase times diverged under spill", rm.mode);
    }

    // The rendered report — what a user actually diffs — is identical.
    let text = severity_text(&resident, 10);
    assert_eq!(text, severity_text(&spilled, 10), "severity report diverged under spill");
    assert!(text.contains("hotspot"), "{text}");
}

#[test]
fn spilled_run_is_deterministic_across_jobs() {
    let instance = instance();
    let serial = nrlt::run_experiment(&instance, &options(1, Some(1)));
    let fanned = nrlt::run_experiment(&instance, &options(4, Some(1)));
    assert_eq!(
        severity_text(&serial, 10),
        severity_text(&fanned, 10),
        "spilled severity report diverged across --jobs"
    );
}

/// The cross-location order every merge consumer sees: the merged
/// `(location, event)` sequence of a MiniFE-2 `lt_stmt` trace is the
/// same resident and spilled at `--trace-budget 1`.
#[test]
fn merged_event_order_is_identical_when_spilled() {
    use nrlt::measure_sys::{measure_prepared_spilled, prepare_measure};
    use nrlt::trace::{Event, MergedEvents, TraceData};
    use nrlt::{exec_config_for, measure_config_for};

    let instance = minife_2();
    let cfg = exec_config_for(&instance, &NoiseConfig::realistic(), 4242);
    let mcfg = measure_config_for(&instance, ClockMode::LtStmt);
    let prep = prepare_measure(&instance.program, &cfg);
    let merged = |budget| {
        let (trace, _) = measure_prepared_spilled(
            &instance.program,
            &prep,
            &cfg,
            &mcfg,
            budget,
            None,
            None,
            None,
        );
        assert_eq!(matches!(trace, TraceData::Spilled(_)), budget.is_some());
        let view = trace.view();
        let mut merge = MergedEvents::new(view.all_events());
        let events: Vec<(u32, Event)> = merge.by_ref().collect();
        assert_eq!(events.len(), view.total_events());
        (events, merge.max_heap_occupancy())
    };
    let (resident, resident_heads) = merged(None);
    let (spilled, spilled_heads) = merged(Some(1));
    assert!(!resident.is_empty());
    assert_eq!(resident_heads, spilled_heads);
    assert!(resident == spilled, "merged (location, event) order diverged under spill");
}
