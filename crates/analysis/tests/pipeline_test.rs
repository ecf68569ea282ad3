//! Full-pipeline tests: program → engine+measurement → trace → analysis
//! → profile, asserting that known performance problems surface in the
//! right metrics under both physical and logical clocks.

use nrlt_analysis::{analyze, analyze_view, AnalysisConfig};
use nrlt_exec::ExecConfig;
use nrlt_measure::{measure, ClockMode, MeasureConfig};
use nrlt_profile::{Metric, Profile};
use nrlt_prog::{Cost, IterCost, Program, ProgramBuilder, Schedule};
use nrlt_sim::{JobLayout, NoiseConfig};
use nrlt_trace::TraceView;

fn run(p: &Program, cfg: &ExecConfig, mode: ClockMode) -> Profile {
    let (trace, _) = measure(p, cfg, &MeasureConfig::new(mode));
    trace.check_consistency().expect("trace must be consistent");
    analyze(&trace)
}

/// Rank 3 computes 4x more before an allreduce: a clean load imbalance.
fn imbalanced_allreduce() -> Program {
    let mut pb = ProgramBuilder::new(4);
    for r in 0..4 {
        let mut rb = pb.rank(r);
        rb.scoped("main", |rb| {
            for _ in 0..10 {
                rb.scoped("light", |rb| rb.kernel(Cost::scalar(2_000_000), 0));
                if rb.rank_id() == 3 {
                    rb.scoped("heavy", |rb| rb.kernel(Cost::scalar(8_000_000), 0));
                }
                rb.allreduce(8);
            }
        });
    }
    pb.finish()
}

#[test]
fn wait_nxn_detected_under_all_clocks() {
    let p = imbalanced_allreduce();
    let cfg = ExecConfig::jureca(1, JobLayout::block(4, 1), 1);
    for mode in ClockMode::ALL {
        let prof = run(&p, &cfg, mode);
        let wait_pct = prof.pct_t(Metric::WaitNxN);
        assert!(
            wait_pct > 10.0,
            "{mode}: the imbalance must appear as wait_nxn, got {wait_pct:.1}%_T"
        );
        // Ranks 0-2 wait; rank 3 does not.
        let w3 = prof.metric_at_location(Metric::WaitNxN, 3);
        let w0 = prof.metric_at_location(Metric::WaitNxN, 0);
        assert!(w0 > w3 * 3.0, "{mode}: rank 0 must wait far more than rank 3");
    }
}

#[test]
fn delay_costs_point_to_the_heavy_function() {
    let p = imbalanced_allreduce();
    let cfg = ExecConfig::jureca(1, JobLayout::block(4, 1), 1);
    for mode in [ClockMode::Tsc, ClockMode::LtStmt] {
        let prof = run(&p, &cfg, mode);
        let heavy = prof.find_path("main/heavy").expect("heavy path exists");
        let delay = prof.map_c(Metric::DelayN2n);
        let heavy_share = delay.get(&heavy).copied().unwrap_or(0.0);
        assert!(
            heavy_share > 50.0,
            "{mode}: delay cost must point at `heavy` ({heavy_share:.1}%_M of {delay:?})"
        );
        // And it is attributed to rank 3 (the delayer).
        assert!(prof.get(Metric::DelayN2n, heavy, 3) > 0.0);
        assert_eq!(prof.get(Metric::DelayN2n, heavy, 0), 0.0);
    }
}

#[test]
fn late_sender_detected_and_attributed() {
    let mut pb = ProgramBuilder::new(2);
    {
        let mut rb = pb.rank(0);
        rb.scoped("main", |rb| {
            rb.scoped("slow_setup", |rb| rb.kernel(Cost::scalar(20_000_000), 0));
            rb.send(1, 0, 1024);
        });
    }
    {
        let mut rb = pb.rank(1);
        rb.scoped("main", |rb| {
            rb.recv(0, 0, 1024);
        });
    }
    let p = pb.finish();
    let cfg = ExecConfig::jureca(1, JobLayout::block(2, 1), 1);
    for mode in [ClockMode::Tsc, ClockMode::LtBb, ClockMode::LtHwctr] {
        let prof = run(&p, &cfg, mode);
        let ls = prof.metric_incl_total(Metric::LateSender);
        assert!(ls > 0.0, "{mode}: late sender must be found");
        // Severity sits on the receiver.
        assert!(prof.metric_at_location(Metric::LateSender, 1) > 0.0);
        assert_eq!(prof.metric_at_location(Metric::LateSender, 0), 0.0);
        // Delay cost points at the sender's slow setup.
        let setup = prof.find_path("main/slow_setup").unwrap();
        assert!(
            prof.get(Metric::DelayP2p, setup, 0) > 0.0,
            "{mode}: delay must blame slow_setup on rank 0"
        );
    }
}

#[test]
fn omp_barrier_wait_from_thread_imbalance() {
    let mut pb = ProgramBuilder::new(1);
    {
        let mut rb = pb.rank(0);
        rb.scoped("main", |rb| {
            rb.parallel("work", |omp| {
                omp.for_loop(
                    "ramp",
                    400,
                    Schedule::Static,
                    IterCost::Ramp { base: Cost::scalar(200_000), last_factor: 5.0 },
                    0,
                );
            });
        });
    }
    let p = pb.finish();
    let cfg = ExecConfig::jureca(1, JobLayout::block(1, 4), 1);
    for mode in [ClockMode::Tsc, ClockMode::LtLoop, ClockMode::LtStmt] {
        let prof = run(&p, &cfg, mode);
        let wait = prof.metric_incl_total(Metric::OmpBarrierWait);
        match mode {
            // Iterations are perfectly balanced across threads in count,
            // so lt_loop sees no barrier wait — the paper's LULESH
            // observation.
            ClockMode::LtLoop => {
                assert!(wait <= 4.0, "lt_loop counts iterations, which are balanced: {wait}")
            }
            _ => {
                assert!(wait > 0.0, "{mode}: ramp must cause barrier waiting");
                // Thread 0 (cheap half) waits more than thread 3.
                let w0 = prof.metric_at_location(Metric::OmpBarrierWait, 0);
                let w3 = prof.metric_at_location(Metric::OmpBarrierWait, 3);
                assert!(w0 > w3, "{mode}: thread 0 waits more ({w0} vs {w3})");
            }
        }
    }
}

#[test]
fn idle_threads_from_serial_region() {
    let mut pb = ProgramBuilder::new(1);
    {
        let mut rb = pb.rank(0);
        rb.scoped("main", |rb| {
            rb.scoped("serial_setup", |rb| rb.kernel(Cost::scalar(50_000_000), 0));
            rb.parallel("work", |omp| {
                omp.for_loop(
                    "loop",
                    1024,
                    Schedule::Static,
                    IterCost::Uniform(Cost::scalar(40_000)),
                    0,
                );
            });
        });
    }
    let p = pb.finish();
    let cfg = ExecConfig::jureca(1, JobLayout::block(1, 8), 1);
    let prof = run(&p, &cfg, ClockMode::Tsc);
    let idle_pct = prof.pct_t(Metric::IdleThreads);
    assert!(idle_pct > 20.0, "serial setup must idle 7 workers: {idle_pct:.1}%_T");
    // The idle time is attributed to the serial call path.
    let setup = prof.find_path("main/serial_setup").unwrap();
    let idle_share = prof.map_c(Metric::IdleThreads).get(&setup).copied().unwrap_or(0.0);
    assert!(idle_share > 50.0, "idle must blame serial_setup: {idle_share:.1}%_M");
    // Master has no idle severity; workers do.
    assert_eq!(prof.metric_at_location(Metric::IdleThreads, 0), 0.0);
    assert!(prof.metric_at_location(Metric::IdleThreads, 1) > 0.0);
}

#[test]
fn lt1_overweights_call_dense_code() {
    // Two equal-duration phases: one makes many cheap calls, the other
    // is a single flat kernel. Physical time splits ~50/50; lt_1 blames
    // the call-dense phase almost entirely — the paper's MiniFE-1
    // observation about matrix assembly.
    let mut pb = ProgramBuilder::new(1);
    {
        let mut rb = pb.rank(0);
        rb.scoped("main", |rb| {
            rb.scoped("call_dense", |rb| {
                rb.kernel_burst("tiny_fn", 20_000, Cost::scalar(40_000_000), 0);
            });
            rb.scoped("flat", |rb| rb.kernel(Cost::scalar(40_000_000), 0));
        });
    }
    let p = pb.finish();
    let cfg = ExecConfig::jureca(1, JobLayout::block(1, 1), 1).with_noise(NoiseConfig::silent());
    let tsc = run(&p, &cfg, ClockMode::Tsc);
    let lt1 = run(&p, &cfg, ClockMode::Lt1);
    let share = |prof: &Profile, path: &str| {
        let id = prof.find_path(path).unwrap();
        let map = prof.map_c(Metric::Comp);
        // Include the burst callee below the phase.
        let mut v = map.get(&id).copied().unwrap_or(0.0);
        for (c, x) in &map {
            if prof.path_string(*c).starts_with(&format!("{path}/")) {
                v += x;
            }
        }
        v
    };
    let tsc_dense = share(&tsc, "main/call_dense");
    let lt1_dense = share(&lt1, "main/call_dense");
    assert!((tsc_dense - 50.0).abs() < 15.0, "tsc sees roughly equal halves: {tsc_dense:.1}");
    assert!(lt1_dense > 90.0, "lt_1 must overweight the call-dense phase: {lt1_dense:.1}");
}

#[test]
fn analysis_is_deterministic() {
    let p = imbalanced_allreduce();
    let cfg = ExecConfig::jureca(1, JobLayout::block(4, 1), 1);
    let (trace, _) = measure(&p, &cfg, &MeasureConfig::new(ClockMode::Tsc));
    let view = TraceView::Resident(&trace);
    let a = analyze_view(&view, &AnalysisConfig { delay_costs: true, workers: 3 }, None, None);
    let b = analyze_view(&view, &AnalysisConfig { delay_costs: true, workers: 7 }, None, None);
    // Same cells regardless of worker count.
    let ma = a.map_mc();
    let mb = b.map_mc();
    assert_eq!(ma.len(), mb.len());
    for (k, va) in &ma {
        let vb = mb[k];
        assert!((va - vb).abs() < 1e-9, "{k:?}: {va} vs {vb}");
    }
}

#[test]
fn severity_is_conserved() {
    // Total time must equal the sum of all exclusive time severities,
    // and every metric total must be non-negative.
    let p = imbalanced_allreduce();
    let cfg = ExecConfig::jureca(1, JobLayout::block(4, 1), 1);
    let prof = run(&p, &cfg, ClockMode::Tsc);
    let total = prof.total_time();
    let parts: f64 = Metric::Time.subtree().into_iter().map(|m| prof.metric_excl_total(m)).sum();
    assert!((total - parts).abs() < 1e-6);
    for m in Metric::ALL {
        assert!(prof.metric_excl_total(m) >= 0.0);
    }
}
