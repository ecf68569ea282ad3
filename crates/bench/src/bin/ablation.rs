//! Ablation studies over the design choices DESIGN.md calls out:
//!
//! 1. the fitted OpenMP-runtime effort constants (the paper's X = 100
//!    basic blocks / Y = 4300 statements) vs. no runtime model at all,
//! 2. spin-wait instruction accounting in the virtual hardware counter
//!    (the mechanism that lets `lt_hwctr` see extrinsic waits — and
//!    re-imports noise),
//! 3. measurement-induced thread desynchronisation (the negative
//!    overheads),
//! 4. the trace-buffer cache footprint (TeaLeaf's 40 % tsc overhead),
//! 5. piggyback synchronisation messages (the paper's implementation
//!    choice over MPI datatype piggybacking).

use nrlt_bench::{header, Harness};
use nrlt_core::measure_sys::MeasureConfig;
use nrlt_core::prelude::*;
use nrlt_core::{exec_config_for, measure_config_for};

fn options() -> ExperimentOptions {
    ExperimentOptions { repetitions: 3, ..Default::default() }
}

fn reference_time(instance: &BenchmarkInstance) -> f64 {
    let opts = options();
    (0..3)
        .map(|rep| {
            let cfg = exec_config_for(instance, &opts.noise, opts.base_seed + 100 + rep);
            reference_run_instrumented(&instance.program, &cfg, None, None).total.as_secs_f64()
        })
        .sum::<f64>()
        / 3.0
}

fn main() {
    let mut h = Harness::from_env("ablation");
    // ---- 1. X/Y constants ------------------------------------------------
    header("Ablation 1: OpenMP-runtime effort constants (LULESH-1, lt_stmt)");
    let lulesh = lulesh_1();
    let fitted = h.run_mode(&lulesh, measure_config_for(&lulesh, ClockMode::LtStmt), &options());
    let mut no_model = measure_config_for(&lulesh, ClockMode::LtStmt);
    no_model.effort.omp_call_basic_blocks = 0;
    no_model.effort.omp_call_statements = 0;
    let ablated = h.run_mode(&lulesh, no_model, &options());
    println!(
        "with Y=4300 (fitted):  omp {:>5.2}%_T (management {:.2}, overhead {:.2})",
        fitted.mean.pct_t(Metric::Omp),
        fitted.mean.pct_t(Metric::OmpManagement),
        fitted.mean.pct_t(Metric::OmpBarrierOverhead),
    );
    println!(
        "with Y=0 (no model):   omp {:>5.2}%_T (management {:.2}, overhead {:.2})",
        ablated.mean.pct_t(Metric::Omp),
        ablated.mean.pct_t(Metric::OmpManagement),
        ablated.mean.pct_t(Metric::OmpBarrierOverhead),
    );
    println!("→ without the fitted constants the statement clock cannot see the");
    println!("  OpenMP runtime at all (the paper's motivation for X and Y).");

    // ---- 2. spin accounting ----------------------------------------------
    header("Ablation 2: spin-wait instructions in lt_hwctr (LULESH-2)");
    let lulesh2 = lulesh_2();
    let with_spin =
        h.run_mode(&lulesh2, measure_config_for(&lulesh2, ClockMode::LtHwctr), &options());
    let mut no_spin = measure_config_for(&lulesh2, ClockMode::LtHwctr);
    no_spin.effort.spin_ipc_fraction = 0.0;
    no_spin.effort.spin_rate_sigma = 0.0;
    let without_spin = h.run_mode(&lulesh2, no_spin, &options());
    println!(
        "with spin accounting:    latesender {:>5.2}%_T, run-to-run J {:.3}",
        with_spin.mean.pct_t(Metric::LateSender),
        with_spin.min_run_to_run_jaccard(),
    );
    println!(
        "without spin accounting: latesender {:>5.2}%_T, run-to-run J {:.3}",
        without_spin.mean.pct_t(Metric::LateSender),
        without_spin.min_run_to_run_jaccard(),
    );
    println!("→ spinning is both why lt_hwctr sees the extrinsic NUMA waits and");
    println!("  why it loses exact repeatability.");

    // ---- 3. desynchronisation --------------------------------------------
    header("Ablation 3: measurement-induced desynchronisation (MiniFE-2, tsc)");
    let minife = minife_2();
    let reference = reference_time(&minife);
    let with_desync = h.run_mode(&minife, measure_config_for(&minife, ClockMode::Tsc), &options());
    let mut no_desync = measure_config_for(&minife, ClockMode::Tsc);
    no_desync.overhead.desync = 0.0;
    let without_desync = h.run_mode(&minife, no_desync, &options());
    let ovh = |m: &nrlt_core::ModeResult| {
        100.0 * (m.mean_run_time().as_secs_f64() - reference) / reference
    };
    println!("with desynchronisation:    total overhead {:>5.2}%", ovh(&with_desync));
    println!("without desynchronisation: total overhead {:>5.2}%", ovh(&without_desync));
    println!("→ the Afzal-style desync relief is what pulls the low-effort");
    println!("  overheads negative.");

    // ---- 4. cache footprint ------------------------------------------------
    header("Ablation 4: trace-buffer cache footprint (TeaLeaf-2, tsc)");
    let tealeaf = tealeaf_2();
    let reference = reference_time(&tealeaf);
    let with_buffers =
        h.run_mode(&tealeaf, measure_config_for(&tealeaf, ClockMode::Tsc), &options());
    let mut no_buffers = measure_config_for(&tealeaf, ClockMode::Tsc);
    no_buffers.overhead.buffer_footprint = 0;
    let without_buffers = h.run_mode(&tealeaf, no_buffers, &options());
    println!("with 2 MiB/location buffers: overhead {:>5.1}%", {
        100.0 * (with_buffers.mean_run_time().as_secs_f64() - reference) / reference
    });
    println!("with zero-footprint buffers: overhead {:>5.1}%", {
        100.0 * (without_buffers.mean_run_time().as_secs_f64() - reference) / reference
    });
    println!("→ TeaLeaf's 40 % tsc penalty is pure cache pollution, not events.");

    // ---- 5. piggyback messages ---------------------------------------------
    header("Ablation 5: piggyback synchronisation messages (MiniFE-2, lt_1)");
    let with_piggy = h.run_mode(&minife, measure_config_for(&minife, ClockMode::Lt1), &options());
    let mut free_piggy: MeasureConfig = measure_config_for(&minife, ClockMode::Lt1);
    free_piggy.overhead.piggyback_message = 0.0;
    let without_piggy = h.run_mode(&minife, free_piggy, &options());
    let reference = reference_time(&minife);
    println!("extra sync messages costed: overhead {:>6.2}%", {
        100.0 * (with_piggy.mean_run_time().as_secs_f64() - reference) / reference
    });
    println!("free (datatype piggyback):  overhead {:>6.2}%", {
        100.0 * (without_piggy.mean_run_time().as_secs_f64() - reference) / reference
    });
    println!("→ the extra-message implementation the paper chose for simplicity");
    println!("  costs almost nothing at these message rates.");
    h.finish();
}
