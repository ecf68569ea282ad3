//! The experiment driver: the paper's measurement protocol as code.
//!
//! For one benchmark configuration (Section IV-B):
//!
//! 1. run the application five times without instrumentation (reference
//!    timings),
//! 2. run an instrumented measurement + trace analysis with the physical
//!    clock and each logical clock — repeating the noise-sensitive
//!    modes (`tsc`, `lt_hwctr`) five times,
//! 3. average the per-repetition call-path profiles,
//! 4. compare: overheads against the reference, Jaccard scores against
//!    `tsc`, minimum run-to-run Jaccard within each mode.

use crate::engineprof::{EngineProf, RunProf};
use crate::parallel::{effective_jobs, parallel_map_ordered};
use nrlt_analysis::{analyze_view, AnalysisConfig};
use nrlt_exec::{overhead_percent, ExecConfig, ExecResult};
use nrlt_measure::{
    measure_prepared_spilled, prepare_measure, reference_run_instrumented, ClockMode, FilterRules,
    MeasureConfig, MeasurePrep,
};
use nrlt_miniapps::BenchmarkInstance;
use nrlt_observe::{Observe, RunObserve};
use nrlt_profile::{jaccard, min_pairwise_jaccard, Profile};
use nrlt_prog::PhaseId;
use nrlt_sim::{NoiseConfig, VirtualDuration};
use nrlt_telemetry::sample::{self, frames};
use nrlt_telemetry::{Phase, Telemetry};
use std::collections::BTreeMap;

/// Options of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Noise configuration of the simulated machine.
    pub noise: NoiseConfig,
    /// Repetitions for noise-sensitive measurements (the paper uses 5).
    pub repetitions: u32,
    /// Base seed; repetition `i` runs with `base_seed + i`.
    pub base_seed: u64,
    /// Clock modes to measure (defaults to all six).
    pub modes: Vec<ClockMode>,
    /// Worker threads for (mode, repetition) cells: `0` = available
    /// parallelism, `1` = serial. Every cell is seeded independently and
    /// results merge in (mode, repetition) order, so the output is
    /// byte-identical for every value.
    pub jobs: usize,
    /// Resident trace budget in bytes: `None` keeps every recorded event
    /// in memory (the historical path); `Some(bytes)` spills event
    /// chunks to a per-cell temp segment once the per-location streams
    /// exceed the budget, and analysis streams the segments back. The
    /// recorded event sequence is identical either way, so all results
    /// are byte-identical for every value.
    pub trace_budget: Option<u64>,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            noise: NoiseConfig::realistic(),
            repetitions: 5,
            base_seed: 1000,
            modes: ClockMode::ALL.to_vec(),
            jobs: 0,
            trace_budget: None,
        }
    }
}

/// Results of all repetitions of one clock mode.
#[derive(Debug, Clone)]
pub struct ModeResult {
    /// The mode.
    pub mode: ClockMode,
    /// Per-repetition analysis profiles.
    pub profiles: Vec<Profile>,
    /// Cell-wise mean of the repetitions (the paper's evaluation basis).
    pub mean: Profile,
    /// Instrumented total run time per repetition.
    pub run_times: Vec<VirtualDuration>,
    /// Instrumented per-phase timings (max over ranks) per repetition.
    pub phase_times: Vec<BTreeMap<String, VirtualDuration>>,
    /// Engine events dispatched across all repetitions of this mode —
    /// the throughput numerator for events/sec KPIs.
    pub events: u64,
}

impl ModeResult {
    /// Mean instrumented run time.
    pub fn mean_run_time(&self) -> VirtualDuration {
        mean_duration(&self.run_times)
    }

    /// Mean instrumented duration of a named phase.
    pub fn mean_phase(&self, phase: &str) -> VirtualDuration {
        let values: Vec<VirtualDuration> =
            self.phase_times.iter().filter_map(|m| m.get(phase)).copied().collect();
        mean_duration(&values)
    }

    /// Minimum pairwise Jaccard J_(M,C) across this mode's repetitions
    /// (1.0 for a single repetition — logical modes are exactly
    /// repeatable).
    pub fn min_run_to_run_jaccard(&self) -> f64 {
        let maps: Vec<_> = self.profiles.iter().map(Profile::map_mc).collect();
        min_pairwise_jaccard(&maps)
    }
}

/// All measurements of one benchmark configuration.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Configuration name (e.g. `MiniFE-2`).
    pub name: String,
    /// Uninstrumented reference runs.
    pub reference: Vec<ExecResult>,
    /// Reference phase name table.
    pub phase_names: Vec<String>,
    /// Per-mode results, in [`ExperimentOptions::modes`] order.
    pub modes: Vec<ModeResult>,
    /// Engine events dispatched across every cell of the experiment
    /// (reference and measured) — the throughput numerator for
    /// events/sec KPIs.
    pub events: u64,
}

impl ExperimentResult {
    /// The result for one mode.
    pub fn mode(&self, mode: ClockMode) -> &ModeResult {
        self.modes
            .iter()
            .find(|m| m.mode == mode)
            .unwrap_or_else(|| panic!("mode {mode} was not measured"))
    }

    /// Mean reference total run time.
    pub fn reference_time(&self) -> VirtualDuration {
        mean_duration(&self.reference.iter().map(|r| r.total).collect::<Vec<_>>())
    }

    /// Mean reference duration of a named phase (max over ranks per run).
    pub fn reference_phase(&self, phase: &str) -> VirtualDuration {
        let id = match self.phase_names.iter().position(|p| p == phase) {
            Some(i) => PhaseId(i as u32),
            None => return VirtualDuration::ZERO,
        };
        let values: Vec<VirtualDuration> = self.reference.iter().map(|r| r.phase_max(id)).collect();
        mean_duration(&values)
    }

    /// Total-run-time overhead of a mode vs the reference, percent.
    pub fn overhead_total(&self, mode: ClockMode) -> f64 {
        overhead_percent(self.reference_time(), self.mode(mode).mean_run_time())
    }

    /// Phase overhead of a mode vs the reference, percent.
    pub fn overhead_phase(&self, mode: ClockMode, phase: &str) -> f64 {
        overhead_percent(self.reference_phase(phase), self.mode(mode).mean_phase(phase))
    }

    /// J_(M,C) of a mode's mean profile against the `tsc` mean profile.
    pub fn jaccard_vs_tsc(&self, mode: ClockMode) -> f64 {
        let tsc = self.mode(ClockMode::Tsc).mean.map_mc();
        let other = self.mode(mode).mean.map_mc();
        jaccard(&tsc, &other)
    }
}

fn mean_duration(values: &[VirtualDuration]) -> VirtualDuration {
    if values.is_empty() {
        return VirtualDuration::ZERO;
    }
    let sum: u64 = values.iter().map(|d| d.nanos()).sum();
    VirtualDuration::from_nanos(sum / values.len() as u64)
}

/// The [`ExecConfig`] for one repetition of an instance.
pub fn exec_config_for(instance: &BenchmarkInstance, noise: &NoiseConfig, seed: u64) -> ExecConfig {
    ExecConfig::jureca(instance.nodes, instance.layout.clone(), seed).with_noise(noise.clone())
}

/// Measurement configuration for an instance under `mode`, applying the
/// instance's filter rules.
pub fn measure_config_for(instance: &BenchmarkInstance, mode: ClockMode) -> MeasureConfig {
    MeasureConfig::new(mode)
        .with_filter(FilterRules::from_rules(instance.filter_rules.iter().cloned()))
}

/// Run one clock mode (with the appropriate number of repetitions).
pub fn run_mode(
    instance: &BenchmarkInstance,
    mode: ClockMode,
    options: &ExperimentOptions,
) -> ModeResult {
    run_mode_with_instrumented(
        instance,
        measure_config_for(instance, mode),
        options,
        None,
        None,
        None,
    )
}

/// One measured (mode, repetition) cell: what the merge step needs.
struct CellResult {
    profile: Profile,
    run_time: VirtualDuration,
    phases: BTreeMap<String, VirtualDuration>,
    events: u64,
}

/// The per-cell analysis configuration under a fan-out of `fan` workers.
/// When cells themselves run concurrently, the delay phase inside each
/// cell runs single-threaded — nesting thread pools on a machine already
/// saturated by cells only adds contention. Its chunked merge is
/// order-preserving either way, so this is a scheduling choice, not a
/// result change.
fn cell_analysis_config(fan: usize) -> AnalysisConfig {
    AnalysisConfig { delay_costs: true, workers: if fan > 1 { 1 } else { 0 } }
}

/// Measure + analyze one repetition of one mode, under a `mode:{name}`
/// phase. Fully self-contained: the seed derives from `base_seed + rep`,
/// the trace and analysis are cell-local, and the shared preparation is
/// read-only. The cell's observatory and engine-profile runs are named
/// `{instance}:{mode}:rep{rep}` and attached on completion — the keyed
/// merge makes the bundles independent of worker count and completion
/// order.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    instance: &BenchmarkInstance,
    prep: &MeasurePrep,
    mcfg: &MeasureConfig,
    options: &ExperimentOptions,
    acfg: &AnalysisConfig,
    rep: u32,
    tel: Option<&Telemetry>,
    obs: Option<&Observe>,
    prof: Option<&EngineProf>,
) -> CellResult {
    let mode = mcfg.mode.name();
    let _phase = Phase::new(tel, "experiment", format!("mode:{mode}"), frames::MODE_CELL);
    let name = format!("{}:{mode}:rep{rep}", instance.name);
    let run = obs.map(|_| RunObserve::new(name.clone()));
    let prof_run = prof.map(|_| RunProf::new(name));
    let cfg = exec_config_for(instance, &options.noise, options.base_seed + rep as u64);
    let (trace, result) = measure_prepared_spilled(
        &instance.program,
        prep,
        &cfg,
        mcfg,
        options.trace_budget,
        tel,
        run.as_ref(),
        prof_run.as_ref(),
    );
    let profile = analyze_view(&trace.view(), acfg, tel, run.as_ref());
    let mut phases = BTreeMap::new();
    for (i, name) in instance.program.phases.iter().enumerate() {
        phases.insert(name.clone(), result.phase_max(PhaseId(i as u32)));
    }
    if let Some(t) = tel {
        t.incr("experiment.repetitions");
    }
    attach(obs, run, prof, prof_run);
    CellResult { profile, run_time: result.total, phases, events: result.events }
}

/// Hand a finished cell's observations and engine profile to the
/// experiment-wide sinks.
fn attach(
    obs: Option<&Observe>,
    run: Option<RunObserve>,
    prof: Option<&EngineProf>,
    prof_run: Option<RunProf>,
) {
    if let (Some(o), Some(run)) = (obs, run) {
        o.attach(run);
    }
    if let (Some(p), Some(run)) = (prof, prof_run) {
        let (name, data) = run.finish();
        p.attach(name, data);
    }
}

fn mode_repetitions(mode: ClockMode, options: &ExperimentOptions) -> u32 {
    if mode.is_noise_free() {
        1
    } else {
        options.repetitions.max(1)
    }
}

/// Like [`run_mode`], with an explicit measurement configuration — the
/// entry point for ablation studies that tweak overhead or effort
/// parameters away from their calibrated defaults — and every probe
/// optional (each `None` does zero work):
///
/// * `tel` — self-telemetry: every repetition runs under a `mode:{name}`
///   span (on its worker's telemetry track when repetitions fan out),
///   with measurement + analysis reporting their own spans and counters
///   underneath;
/// * `obs` — the resource observatory ([`nrlt_observe`]): every cell
///   records counter timelines, noise draws, and wait-state provenance
///   for the simulated machine under the run name
///   `{instance}:{mode}:rep{rep}`;
/// * `prof` — the engine self-profiler ([`crate::engineprof`]): every cell
///   accounts the replay engine's own per-event-kind costs, queue
///   occupancy, and hot-loop allocations under the same run name.
///
/// The keyed merges make both bundles independent of worker count.
pub fn run_mode_with_instrumented(
    instance: &BenchmarkInstance,
    mcfg: MeasureConfig,
    options: &ExperimentOptions,
    tel: Option<&Telemetry>,
    obs: Option<&Observe>,
    prof: Option<&EngineProf>,
) -> ModeResult {
    let mode = mcfg.mode;
    let reps = mode_repetitions(mode, options);
    let prep = prepare_measure(
        &instance.program,
        &exec_config_for(instance, &options.noise, options.base_seed),
    );
    let fan = effective_jobs(options.jobs).min(reps as usize);
    let acfg = cell_analysis_config(fan);
    let cells = parallel_map_ordered((0..reps).collect(), options.jobs, |_, rep| {
        run_cell(instance, &prep, &mcfg, options, &acfg, rep, tel, obs, prof)
    });
    merge_mode(mode, cells)
}

/// Fold cell results — already in repetition order — into a [`ModeResult`].
fn merge_mode(mode: ClockMode, cells: Vec<CellResult>) -> ModeResult {
    let _frame = sample::frame(frames::EXPERIMENT_MERGE);
    let mut profiles = Vec::with_capacity(cells.len());
    let mut run_times = Vec::with_capacity(cells.len());
    let mut phase_times = Vec::with_capacity(cells.len());
    let mut events = 0u64;
    for cell in cells {
        profiles.push(cell.profile);
        run_times.push(cell.run_time);
        phase_times.push(cell.phases);
        events += cell.events;
    }
    let mean = Profile::mean(&profiles);
    ModeResult { mode, profiles, mean, run_times, phase_times, events }
}

/// Run the full protocol for one configuration.
pub fn run_experiment(
    instance: &BenchmarkInstance,
    options: &ExperimentOptions,
) -> ExperimentResult {
    run_experiment_instrumented(instance, options, None, None, None)
}

/// One unit of the experiment fan-out: an uninstrumented reference
/// repetition or an instrumented (mode, repetition) measurement.
enum Cell {
    Reference { rep: u32 },
    Mode { mode_idx: usize, rep: u32 },
}

enum CellOutput {
    Reference(ExecResult),
    Mode { mode_idx: usize, result: CellResult },
}

/// [`run_experiment`] with every probe optional (each `None` does zero
/// work):
///
/// * `tel` — self-telemetry: every reference run is wrapped in an
///   `experiment.reference` span and every (mode, repetition) cell in a
///   `mode:{name}` span, with the engine, measurement, and analysis
///   layers reporting underneath;
/// * `obs` — the resource observatory ([`nrlt_observe`]): every cell —
///   reference and measured — records counter timelines, noise
///   attribution, and wait-state provenance for the simulated machine;
/// * `prof` — the engine self-profiler ([`crate::engineprof`]): every cell
///   accounts the replay engine's per-event-kind costs, queue occupancy,
///   and hot-loop allocations.
///
/// Probe runs are keyed `{instance}:{mode}:rep{rep}` (references as
/// `{instance}:ref:rep{rep}`), so the merged bundles are byte-identical
/// for any worker count.
///
/// All cells — reference repetitions and (mode, repetition)
/// measurements — fan out together over [`ExperimentOptions::jobs`]
/// workers. Each cell derives its RNG stream from the base seed alone
/// and shares only read-only preparation, and the merge walks the cell
/// list in its deterministic construction order, so the result is
/// byte-identical to the serial path for any worker count.
pub fn run_experiment_instrumented(
    instance: &BenchmarkInstance,
    options: &ExperimentOptions,
    tel: Option<&Telemetry>,
    obs: Option<&Observe>,
    prof: Option<&EngineProf>,
) -> ExperimentResult {
    // Read-only, run-invariant setup, hoisted so a 30-cell sweep interns
    // regions and builds the Arc-shared definition tables exactly once.
    let prep = prepare_measure(
        &instance.program,
        &exec_config_for(instance, &options.noise, options.base_seed),
    );
    let mode_cfgs: Vec<MeasureConfig> =
        options.modes.iter().map(|&mode| measure_config_for(instance, mode)).collect();

    // The cell list fixes the merge order: reference repetitions first,
    // then modes in `options.modes` order, repetitions ascending.
    let ref_reps = options.repetitions.max(1);
    let mut cells: Vec<Cell> = (0..ref_reps).map(|rep| Cell::Reference { rep }).collect();
    for (mode_idx, &mode) in options.modes.iter().enumerate() {
        for rep in 0..mode_repetitions(mode, options) {
            cells.push(Cell::Mode { mode_idx, rep });
        }
    }

    let fan = effective_jobs(options.jobs).min(cells.len());
    let acfg = cell_analysis_config(fan);
    let outputs = parallel_map_ordered(cells, options.jobs, |_, cell| match cell {
        Cell::Reference { rep } => {
            let _phase =
                Phase::new(tel, "experiment", "experiment.reference", frames::EXPERIMENT_REFERENCE);
            let name = format!("{}:ref:rep{rep}", instance.name);
            let run = obs.map(|_| RunObserve::new(name.clone()));
            let prof_run = prof.map(|_| RunProf::new(name));
            let cfg =
                exec_config_for(instance, &options.noise, options.base_seed + 100 + rep as u64);
            let result = reference_run_instrumented(
                &instance.program,
                &cfg,
                run.as_ref(),
                prof_run.as_ref(),
            );
            attach(obs, run, prof, prof_run);
            CellOutput::Reference(result)
        }
        Cell::Mode { mode_idx, rep } => {
            let mcfg = &mode_cfgs[mode_idx];
            let result = run_cell(instance, &prep, mcfg, options, &acfg, rep, tel, obs, prof);
            CellOutput::Mode { mode_idx, result }
        }
    });

    // Deterministic merge: outputs arrive in cell-list order regardless
    // of which worker ran what.
    let mut reference = Vec::with_capacity(ref_reps as usize);
    let mut per_mode: Vec<Vec<CellResult>> = options.modes.iter().map(|_| Vec::new()).collect();
    for output in outputs {
        match output {
            CellOutput::Reference(r) => reference.push(r),
            CellOutput::Mode { mode_idx, result } => per_mode[mode_idx].push(result),
        }
    }
    let modes: Vec<ModeResult> =
        options.modes.iter().zip(per_mode).map(|(&mode, cells)| merge_mode(mode, cells)).collect();
    let events = reference.iter().map(|r| r.events).sum::<u64>()
        + modes.iter().map(|m| m.events).sum::<u64>();
    ExperimentResult {
        name: instance.name.clone(),
        reference,
        phase_names: instance.program.phases.clone(),
        modes,
        events,
    }
}
