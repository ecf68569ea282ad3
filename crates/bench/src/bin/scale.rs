//! Weak-scaling sweep through the sharded columnar trace store: each
//! mini-app grows to ~10,000 simulated ranks with per-rank work held
//! constant, measured under a resident trace budget (default 64 MiB)
//! small enough that the big sizes must spill columnar segments to disk
//! and stream them back through the out-of-core analysis path.
//!
//! Two claims are demonstrated per series:
//!
//! 1. **Byte identity** — at the smallest size, the fully resident and
//!    the force-spilled runs render byte-identical analysis output
//!    (asserted, not eyeballed).
//! 2. **Bounded memory** — the 10k-rank runs complete under a budget
//!    far below their resident event volume; `--rss-limit` turns the
//!    bound into a CI assertion and every row prints the run's peak
//!    RSS.
//!
//! Accepts the standard harness flags; `--trace-budget` overrides the
//! default budget, `--only <app>` restricts to one mini-app family
//! (`MiniFE`, `LULESH`, `TeaLeaf`).

use nrlt_bench::{header, parse_bytes, Harness};
use nrlt_core::analysis::analyze_view;
use nrlt_core::engineprof::RunProf;
use nrlt_core::measure_sys::{measure_prepared_spilled, prepare_measure, BYTES_PER_EVENT};
use nrlt_core::prelude::*;
use nrlt_core::telemetry::sample::{self, frames};
use nrlt_core::trace::{MergedEvents, TraceView};
use nrlt_core::{exec_config_for, measure_config_for};
use nrlt_miniapps::{
    LuleshConfig, LuleshCosts, MiniFeConfig, MiniFeCosts, TeaLeafConfig, TeaLeafCosts,
};
use std::time::Instant;

/// Default resident trace budget when `--trace-budget` is absent. Small
/// enough that the 10k-rank sizes spill, large enough that chunks stay
/// well above the 64-event floor.
const DEFAULT_BUDGET: &str = "64m";

/// Cores per simulated JURECA-DC node (2 sockets × 4 NUMA × 16 cores).
const CORES_PER_NODE: u32 = 128;

fn nodes_for(ranks: u32, threads_per_rank: u32) -> u32 {
    (ranks * threads_per_rank).div_ceil(CORES_PER_NODE)
}

/// MiniFE at `ranks` with the per-rank grid share held constant
/// (~1728 elements/rank) and a short CG solve.
fn minife_weak(ranks: u32) -> BenchmarkInstance {
    let nx = ((1728 * ranks as u64) as f64).cbrt().round() as u64;
    let mut b = MiniFeConfig {
        nx,
        ranks,
        threads_per_rank: 1,
        imbalance_pct: 0,
        cg_iters: 5,
        costs: MiniFeCosts::default(),
    }
    .build();
    b.name = format!("MiniFE-weak-{ranks}");
    b.nodes = nodes_for(ranks, 1);
    b
}

/// LULESH at a cube rank count with a fixed per-rank subdomain.
fn lulesh_weak(ranks: u32) -> BenchmarkInstance {
    let mut b = LuleshConfig {
        ranks,
        threads_per_rank: 1,
        edge: 6,
        steps: 4,
        imbalance: 0.25,
        spread_placement: false,
        nodes: nodes_for(ranks, 1),
        costs: LuleshCosts::default(),
    }
    .build();
    b.name = format!("LULESH-weak-{ranks}");
    b
}

/// TeaLeaf at `ranks` strips with ~4096 cells per rank.
fn tealeaf_weak(ranks: u32) -> BenchmarkInstance {
    let n = ((4096 * ranks as u64) as f64).sqrt().round() as u64;
    let mut b = TeaLeafConfig {
        n,
        ranks,
        threads_per_rank: 1,
        steps: 2,
        cg_per_step: 4,
        costs: TeaLeafCosts::default(),
    }
    .build();
    b.name = format!("TeaLeaf-weak-{ranks}");
    b.nodes = nodes_for(ranks, 1);
    b
}

/// Measure + analyze one instance under `budget`, returning the
/// rendered analysis output (for the byte-identity check) and the
/// trace's recorded event count.
fn measure_and_render(
    instance: &BenchmarkInstance,
    budget: Option<u64>,
    h: &Harness,
    prof_run: Option<&RunProf>,
) -> (String, u64, u64) {
    let cfg = exec_config_for(instance, &NoiseConfig::realistic(), 1000);
    let mcfg = measure_config_for(instance, ClockMode::Tsc);
    let prep = prepare_measure(&instance.program, &cfg);
    let (trace, result) = measure_prepared_spilled(
        &instance.program,
        &prep,
        &cfg,
        &mcfg,
        budget,
        h.telemetry(),
        None,
        prof_run,
    );
    let view = trace.view();
    let profile = analyze_view(&view, &AnalysisConfig::default(), h.telemetry(), None);
    let merged = merged_event_count(&view, prof_run);
    assert_eq!(merged, view.total_events() as u64, "k-way merge must visit every recorded event");
    let rendered = nrlt_core::profile::metric_table(&profile, 0.0);
    (rendered, view.total_events() as u64, result.events)
}

/// Stream every location through the k-way merge — the cross-location
/// access pattern out-of-core passes use — and report heap KPIs.
fn merged_event_count(view: &TraceView<'_>, prof_run: Option<&RunProf>) -> u64 {
    let _frame = sample::frame(frames::ANALYZE_MERGE);
    let mut merged = MergedEvents::new(view.all_events());
    let mut n = 0u64;
    let mut prev = 0u64;
    for (_loc, ev) in merged.by_ref() {
        debug_assert!(ev.time >= prev, "merge must be time-ordered");
        prev = ev.time;
        n += 1;
    }
    if let Some(p) = prof_run {
        p.gauge("merge.heap_occupancy", "analyze_merge", merged.max_heap_occupancy() as i64);
        p.hwm("merge.events", n);
    }
    n
}

fn main() {
    let mut h = Harness::from_env("scale");
    let budget = h.trace_budget().or_else(|| parse_bytes(DEFAULT_BUDGET));
    header("scale: weak scaling through the sharded trace store");
    println!("trace budget {}M, clock tsc, 1 repetition per size", budget.unwrap_or(0) >> 20);

    type Make = fn(u32) -> BenchmarkInstance;
    let apps: [(&str, Make, [u32; 3]); 3] = [
        ("MiniFE", minife_weak, [64, 1000, 10_000]),
        ("LULESH", lulesh_weak, [64, 1728, 9_261]),
        ("TeaLeaf", tealeaf_weak, [64, 1000, 10_000]),
    ];

    println!(
        "\n{:<20} {:>7} {:>12} {:>11} {:>9} {:>12} {:>9}",
        "run", "ranks", "trace evts", "resident", "wall s", "events/s", "rss MiB"
    );
    for (app, make, sizes) in apps {
        if !h.wants(app) {
            continue;
        }
        // Byte-identity at the smallest size: fully resident vs forced
        // spill (1-byte budget → minimum chunk size, maximum spilling).
        let small = make(sizes[0]);
        let (resident, _, _) = measure_and_render(&small, None, &h, None);
        let (spilled, _, _) = measure_and_render(&small, Some(1), &h, None);
        assert_eq!(
            resident, spilled,
            "{app}: spilled analysis output must be byte-identical to resident"
        );
        println!("{app}: resident and force-spilled analysis output byte-identical");

        for ranks in sizes {
            let instance = make(ranks);
            let prof_run = h.engineprof().map(|_| RunProf::new(instance.name.clone()));
            // Reset the kernel HWM so each row's `rss MiB` is the peak
            // of *this* run, not an inheritance from a larger earlier
            // one; the harness folds the old mark into the sweep-wide
            // max that `--rss-limit` checks. Best-effort: where the
            // reset is unavailable the HWM falls back to process-monotone.
            h.reset_peak_rss();
            let start = Instant::now();
            let (_, trace_events, engine_events) =
                measure_and_render(&instance, budget, &h, prof_run.as_ref());
            let wall = start.elapsed().as_secs_f64();
            if let (Some(p), Some(run)) = (h.engineprof(), prof_run) {
                let (name, data) = run.finish();
                p.attach(name, data);
            }
            let resident_bytes = trace_events * BYTES_PER_EVENT;
            let spills = match budget {
                Some(b) if resident_bytes > b => "spilled",
                _ => "resident",
            };
            println!(
                "{:<20} {:>7} {:>12} {:>10}M {:>9.3} {:>12.0} {:>9} ({spills})",
                instance.name,
                ranks,
                trace_events,
                resident_bytes >> 20,
                wall,
                if wall > 0.0 { engine_events as f64 / wall } else { 0.0 },
                nrlt_report::bench::peak_rss_bytes() >> 20,
            );
        }
    }
    h.finish();
}
