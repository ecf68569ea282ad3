//! # nrlt-measure — the Score-P analog
//!
//! The measurement system of the reproduction: the physical `tsc` timer
//! and the Lamport logical clock with the paper's five effort models
//! (`lt_1`, `lt_loop`, `lt_bb`, `lt_stmt`, `lt_hwctr`), piggyback
//! synchronisation across messages and collectives, Score-P-style filter
//! rules, and the perturbation model describing what measuring costs the
//! measured program (per-event recording, counting code, perf reads,
//! buffer cache pollution, thread desynchronisation).
//!
//! [`measure`] runs a program once under a given clock and returns the
//! trace plus the application timings; [`measure_prepared_spilled`] is
//! the same run over a per-sweep [`MeasurePrep`] with every probe
//! optional; [`reference_run_instrumented`] runs it uninstrumented for
//! overhead baselines.

#![warn(missing_docs)]

pub mod filter;
pub mod modes;
pub mod observer;
pub mod params;
pub mod profiling;

pub use filter::FilterRules;
pub use modes::ClockMode;
pub use observer::{MeasureConfig, SharedDefs, SpillSummary, TracingObserver, BYTES_PER_EVENT};
pub use params::{EffortParams, HwCounterSource, OverheadParams};
pub use profiling::{profile_run, OnlineProfile, ProfilingObserver};

use nrlt_exec::engineprof::RunProf;
use nrlt_exec::{execute_prepared_instrumented, ExecConfig, ExecResult, NullObserver};
use nrlt_observe::RunObserve;
use nrlt_prog::Program;
use nrlt_telemetry::sample::frames;
use nrlt_telemetry::{Phase, Telemetry};
use nrlt_trace::{Trace, TraceData};

/// Run `program` instrumented under `measure_config`, returning the
/// recorded trace and the application-level timings of the *instrumented*
/// run (instrumentation perturbs them — that is the point).
pub fn measure(
    program: &Program,
    exec_config: &ExecConfig,
    measure_config: &MeasureConfig,
) -> (Trace, ExecResult) {
    let prep = prepare_measure(program, exec_config);
    let (TraceData::Resident(trace), result) = measure_prepared_spilled(
        program,
        &prep,
        exec_config,
        measure_config,
        None,
        None,
        None,
        None,
    ) else {
        unreachable!("without a trace budget the trace stays resident")
    };
    (trace, result)
}

/// Per-sweep measurement preparation: the engine's region table plus the
/// `Arc`-shared trace definition tables and stream sizing.
///
/// Building this once per benchmark configuration and reusing it across
/// every (mode, repetition) cell means a 30-run sweep interns regions and
/// allocates the definition tables once instead of thirty times.
#[derive(Debug)]
pub struct MeasurePrep {
    /// Prepared region table (program regions + runtime regions).
    pub regions: nrlt_prog::RegionTable,
    /// Shared trace definition tables and stream capacity estimate.
    pub shared: SharedDefs,
}

/// Build the per-sweep preparation for `program` under `exec_config`.
/// Only the machine/layout half of the config matters — repetitions that
/// differ in seed share one preparation.
pub fn prepare_measure(program: &Program, exec_config: &ExecConfig) -> MeasurePrep {
    let regions = nrlt_exec::prepare_regions(program);
    let shared = SharedDefs::new(program, &regions, exec_config);
    MeasurePrep { regions, shared }
}

/// [`measure`] over a pre-built [`MeasurePrep`] — the repeated half of a
/// sweep, with all run-invariant setup hoisted out — with every probe
/// optional.
///
/// * `trace_budget` caps resident event storage at that many bytes:
///   per-location streams spill event chunks to a temp segment file
///   and the returned [`TraceData`] is `Spilled`. `None` keeps the trace
///   `Resident`. Either way the recorded event sequence — and hence
///   every analysis result — is byte-identical.
/// * `tel` wraps the run in a `measure.run:{mode}` span and reports
///   events recorded vs filtered, buffer flushes, and the overhead
///   charged back, alongside the engine's own counters.
/// * `obs` records the simulated machine underneath the measurement
///   (`nrlt-observe`) without perturbing the trace.
/// * `prof` accounts what the replay engine itself spends producing this
///   run (`nrlt_exec::engineprof`), plus the spill gauges when a budget is set.
///
/// Each `None` probe performs zero work.
#[allow(clippy::too_many_arguments)]
pub fn measure_prepared_spilled(
    program: &Program,
    prep: &MeasurePrep,
    exec_config: &ExecConfig,
    measure_config: &MeasureConfig,
    trace_budget: Option<u64>,
    tel: Option<&Telemetry>,
    obs: Option<&RunObserve>,
    prof: Option<&RunProf>,
) -> (TraceData, ExecResult) {
    let _phase = Phase::new(
        tel,
        "measure",
        format!("measure.run:{}", measure_config.mode.name()),
        frames::MEASURE_RUN,
    );
    let mut observer = TracingObserver::with_shared(
        measure_config.clone(),
        &prep.regions,
        &prep.shared,
        exec_config,
        tel,
    );
    if let Some(budget) = trace_budget {
        observer.enable_spill(budget);
    }
    let result = execute_prepared_instrumented(
        program,
        &prep.regions,
        exec_config,
        &mut observer,
        tel,
        obs,
        prof,
    );
    let (trace, summary) = observer.into_trace_data();
    if let (Some(p), Some(_)) = (prof, trace_budget) {
        p.gauge("spill.segments_written", "trace_spill", summary.chunks as i64);
        p.gauge("spill.stalls", "trace_spill", summary.stalls as i64);
        p.hwm("spill.bytes_written", summary.bytes);
        p.hwm("spill.chunk_events", summary.chunk_events as u64);
    }
    (trace, result)
}

/// Run `program` uninstrumented (the reference measurement the paper
/// repeats five times to establish baselines). The optional resource
/// observatory and engine self-profiler see the uninstrumented machine
/// exactly as they see a measured one; `None` does zero work.
pub fn reference_run_instrumented(
    program: &Program,
    exec_config: &ExecConfig,
    obs: Option<&RunObserve>,
    prof: Option<&RunProf>,
) -> ExecResult {
    let regions = nrlt_exec::prepare_regions(program);
    execute_prepared_instrumented(
        program,
        &regions,
        exec_config,
        &mut NullObserver,
        None,
        obs,
        prof,
    )
}
