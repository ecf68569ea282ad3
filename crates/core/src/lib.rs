//! # nrlt-core — noise-resilient logical timers
//!
//! The umbrella crate of the reproduction of *"Are Noise-Resilient
//! Logical Timers Useful for Performance Analysis?"* (SC 2024): a
//! Score-P-like measurement system with a Lamport logical clock and five
//! effort models, a Scalasca-like wait-state analyzer, a Cube-like
//! profile model with generalized Jaccard scoring, a simulated
//! MPI+OpenMP execution substrate with noise injection, and the paper's
//! three mini-app skeletons.
//!
//! ## Quick start
//!
//! ```
//! use nrlt_core::prelude::*;
//!
//! // A tiny imbalanced program: rank 1 computes twice as much.
//! let mut pb = ProgramBuilder::new(2);
//! for r in 0..2 {
//!     let mut rb = pb.rank(r);
//!     rb.scoped("main", |rb| {
//!         rb.kernel(Cost::scalar(if r == 1 { 4_000_000 } else { 2_000_000 }), 0);
//!         rb.allreduce(8);
//!     });
//! }
//! let program = pb.finish();
//!
//! // Measure it with the statement-counting logical clock.
//! let cfg = ExecConfig::jureca(1, JobLayout::block(2, 1), 42);
//! let (trace, _) = measure(&program, &cfg, &MeasureConfig::new(ClockMode::LtStmt));
//! let profile = analyze(&trace);
//!
//! // The imbalance shows up as waiting at the N×N collective.
//! assert!(profile.pct_t(Metric::WaitNxN) > 5.0);
//! ```

#![warn(missing_docs)]

pub mod experiment;
pub mod parallel;

pub use experiment::{
    exec_config_for, measure_config_for, run_experiment, run_experiment_instrumented, run_mode,
    run_mode_with_instrumented, ExperimentOptions, ExperimentResult, ModeResult,
};
pub use parallel::{effective_jobs, parallel_map_ordered};

// Re-export the component crates under stable names.
pub use nrlt_analysis as analysis;
pub use nrlt_exec as exec;
pub use nrlt_exec::engineprof;
pub use nrlt_measure as measure_sys;
pub use nrlt_miniapps as miniapps;
pub use nrlt_observe as observe;
pub use nrlt_profile as profile;
pub use nrlt_prog as prog;
pub use nrlt_sim as sim;
pub use nrlt_telemetry as telemetry;
pub use nrlt_trace as trace;

/// The most commonly used items in one import.
pub mod prelude {
    pub use nrlt_analysis::{analyze, analyze_view, AnalysisConfig};
    pub use nrlt_exec::{execute, overhead_percent, ExecConfig, NullObserver};
    pub use nrlt_measure::{
        measure, reference_run_instrumented, ClockMode, FilterRules, MeasureConfig,
    };
    pub use nrlt_miniapps::{
        all_configurations, lulesh_1, lulesh_2, minife_1, minife_2, tealeaf_1, tealeaf_2,
        tealeaf_3, tealeaf_4, BenchmarkInstance,
    };
    pub use nrlt_profile::{
        callpath_table, jaccard, metric_table, min_pairwise_jaccard, CallPathId, Metric, Profile,
    };
    pub use nrlt_prog::{Cost, IterCost, Program, ProgramBuilder, Schedule};
    pub use nrlt_sim::{JobLayout, Machine, NoiseConfig, VirtualDuration, VirtualTime};
    pub use nrlt_telemetry::Telemetry;
    pub use nrlt_trace::{ClockKind, Trace};

    pub use crate::experiment::{
        run_experiment, run_experiment_instrumented, run_mode, ExperimentOptions, ExperimentResult,
        ModeResult,
    };
}
