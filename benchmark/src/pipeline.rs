//! Every call the benchmark makes into the pipeline.
//!
//! The rest of the crate sees only what this module returns, so a change
//! to the pipeline's public API touches this file alone. Two paths run
//! the paper's protocol:
//!
//! * [`run_protocol`] is the timed path: the user entry points
//!   `run_experiment` / `run_experiment_instrumented`.
//! * [`replay_protocol`] is the traced path: the same cells, seeds and
//!   merge order, driven through the layers' own public functions with a
//!   benchmark-owned span around each call. Its [`ExperimentResult`] is
//!   rendered and compared with the timed path's, so the per-layer times
//!   describe the same work.
//!
//! The benchmark's span [`Telemetry`] is never handed to the pipeline;
//! the `tel` passed below is the observed workload's probe.

use nrlt_core::analysis::{analyze_view, AnalysisConfig};
use nrlt_core::engineprof::{EngineProf, ProfBundle, RunProf};
use nrlt_core::exec::ExecResult;
use nrlt_core::measure_sys::{
    measure_prepared_spilled, prepare_measure, reference_run_instrumented, ClockMode, MeasureConfig,
};
use nrlt_core::miniapps::{self, MiniFeConfig, MiniFeCosts, TeaLeafConfig, TeaLeafCosts};
use nrlt_core::observe::export::ObserveBundle;
use nrlt_core::observe::{Observe, RunObserve};
use nrlt_core::profile::{jaccard, metric_table, Profile};
use nrlt_core::prog::PhaseId;
use nrlt_core::sim::NoiseConfig;
use nrlt_core::telemetry::sample::{self, frames, InstallGuard, SampleProf};
use nrlt_core::telemetry::{write_exports, Manifest, Span};
use nrlt_core::trace::MergedEvents;
use nrlt_core::{
    effective_jobs, exec_config_for, measure_config_for, parallel_map_ordered, run_experiment,
    run_experiment_instrumented, ExperimentOptions, ModeResult,
};
use std::collections::BTreeMap;
use std::path::Path;

pub use nrlt_core::measure_sys::BYTES_PER_EVENT;
pub use nrlt_core::miniapps::BenchmarkInstance;
pub use nrlt_core::telemetry::{SpanRecord, Telemetry};
pub use nrlt_core::ExperimentResult;
pub use nrlt_report::bench::{host_parallelism, peak_rss_bytes, reset_peak_rss};
pub use nrlt_report::inspect::self_times;

/// Layer spans the traced run records, one per boundary it times.
pub mod span {
    /// One whole pass (the root; its self time is the unaccounted part).
    pub const PASS: &str = "pass";
    /// The plain twin of an observed pass.
    pub const TWIN: &str = "twin";
    /// Building the instances (`nrlt-miniapps` + `nrlt-prog`).
    pub const BUILD: &str = "miniapps.build";
    /// Region tables and shared trace definitions (`prepare_measure`).
    pub const PREPARE: &str = "measure.prepare";
    /// The cell fan-out (`parallel_map_ordered`).
    pub const FANOUT: &str = "core.fanout";
    /// One reference or measured cell.
    pub const CELL: &str = "core.cell";
    /// One uninstrumented reference run.
    pub const REFERENCE: &str = "exec.reference";
    /// One measured run: engine, observer and trace recording.
    pub const MEASURE: &str = "measure.run";
    /// One trace analysis (`analyze_view`).
    pub const ANALYSIS: &str = "analysis.run";
    /// The k-way merge over every recorded event.
    pub const TRACE_MERGE: &str = "trace.merge";
    /// Profile means and Jaccard similarity.
    pub const PROFILE: &str = "profile.merge";
    /// Severity report and metric tables.
    pub const RENDER: &str = "report.render";
    /// Writing the probe bundles.
    pub const EXPORT: &str = "probes.export";
}

/// Counters the traced run adds to its span [`Telemetry`].
pub mod count {
    /// Engine events of the reference runs.
    pub const REFERENCE_EVENTS: &str = "exec.reference_events";
    /// Engine events of the measured runs.
    pub const MEASURE_EVENTS: &str = "measure.events";
    /// Events recorded into traces.
    pub const TRACE_EVENTS: &str = "trace.events";
}

/// The clock modes whose output does not depend on the noise seed.
pub const NOISE_FREE: [ClockMode; 4] =
    [ClockMode::Lt1, ClockMode::LtLoop, ClockMode::LtBb, ClockMode::LtStmt];

/// Hotspot rows of the severity report, as the figure binaries render it.
const REPORT_TOP_N: usize = 10;

/// Cores per simulated JURECA-DC node.
const CORES_PER_NODE: u32 = 128;

/// Open `name` on `spans` when tracing; `None` costs nothing.
fn open<'a>(spans: Option<&'a Telemetry>, name: &str) -> Option<Span<'a>> {
    spans.map(|t| t.span(name))
}

/// Build every named instance, under [`span::BUILD`] when tracing.
pub fn build_all(names: &[&str], spans: Option<&Telemetry>) -> Vec<BenchmarkInstance> {
    let _s = open(spans, span::BUILD);
    names.iter().map(|name| build(name)).collect()
}

/// Build a named instance: a paper configuration (`MiniFE-1`,
/// `LULESH-2`, `TeaLeaf-1`, …) or a weak-scaling size
/// (`MiniFE-weak-<ranks>`, `TeaLeaf-weak-<ranks>`).
fn build(name: &str) -> BenchmarkInstance {
    match name {
        "MiniFE-1" => miniapps::minife_1(),
        "MiniFE-2" => miniapps::minife_2(),
        "LULESH-1" => miniapps::lulesh_1(),
        "LULESH-2" => miniapps::lulesh_2(),
        "TeaLeaf-1" => miniapps::tealeaf_1(),
        _ => {
            let weak = |prefix: &str| name.strip_prefix(prefix).and_then(|r| r.parse().ok());
            if let Some(ranks) = weak("MiniFE-weak-") {
                minife_weak(ranks)
            } else if let Some(ranks) = weak("TeaLeaf-weak-") {
                tealeaf_weak(ranks)
            } else {
                panic!("unknown instance {name}")
            }
        }
    }
}

/// MiniFE at `ranks` with ~1728 elements per rank and a short CG solve,
/// exactly as the `scale` binary builds it.
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
    b.nodes = ranks.div_ceil(CORES_PER_NODE);
    b
}

/// TeaLeaf at `ranks` strips with ~4096 cells per rank, exactly as the
/// `scale` binary builds it.
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
    b.nodes = ranks.div_ceil(CORES_PER_NODE);
    b
}

/// The paper's protocol (`repetitions` of the noisy modes, all six
/// modes) at `seed`, one cell at a time, traces resident.
pub fn protocol_options(seed: u64, repetitions: u32) -> ExperimentOptions {
    ExperimentOptions {
        repetitions,
        base_seed: seed,
        jobs: 1,
        trace_budget: None,
        ..ExperimentOptions::default()
    }
}

/// Every opt-in probe on: pipeline telemetry, the resource observatory,
/// the engine self-profiler and the sampling profiler (installed for as
/// long as the value lives).
pub struct Probes {
    tel: Telemetry,
    obs: Observe,
    prof: EngineProf,
    sampler: SampleProf,
    installed: InstallGuard,
}

impl Probes {
    /// Construct and install all four probes.
    pub fn new() -> Probes {
        let sampler = SampleProf::with_rate(sample::DEFAULT_RATE_HZ);
        let installed = sampler.install();
        Probes {
            tel: Telemetry::new(),
            obs: Observe::new(),
            prof: EngineProf::new(),
            sampler,
            installed,
        }
    }

    /// Stop sampling and write the four bundles under `dir`:
    /// `telemetry/`, `observe/`, `engineprof/` and `prof/samples.folded`.
    pub fn export(self, dir: &Path, spans: Option<&Telemetry>) -> std::io::Result<()> {
        let _s = open(spans, span::EXPORT);
        drop(self.installed);
        write_exports(&dir.join("telemetry"), &self.tel, &manifest(0.0))?;
        ObserveBundle::from_observe(&self.obs).write(&dir.join("observe"))?;
        ProfBundle::from_prof(&self.prof).write(&dir.join("engineprof"))?;
        std::fs::create_dir_all(dir.join("prof"))?;
        let folded = nrlt_report::folded_from_counts(&self.sampler.stack_counts());
        std::fs::write(dir.join("prof").join("samples.folded"), folded)
    }
}

/// The observe bundle's JSON-lines file inside an [`Probes::export`] dir.
pub fn exported_observe_jsonl(dir: &Path) -> std::path::PathBuf {
    dir.join("observe").join("observe.jsonl")
}

/// Timed path: the protocol through the user entry point.
pub fn run_protocol(
    instance: &BenchmarkInstance,
    options: &ExperimentOptions,
    probes: Option<&Probes>,
) -> ExperimentResult {
    match probes {
        None => run_experiment(instance, options),
        Some(p) => run_experiment_instrumented(
            instance,
            options,
            Some(&p.tel),
            Some(&p.obs),
            Some(&p.prof),
        ),
    }
}

/// One unit of the replayed fan-out, in `run_experiment`'s cell order.
enum Cell {
    Reference { rep: u32 },
    Mode { mode_idx: usize, rep: u32 },
}

enum CellOutput {
    Reference(ExecResult),
    Mode { mode_idx: usize, profile: Profile, result: ExecResult, phases: PhaseTimes },
}

type PhaseTimes = BTreeMap<String, nrlt_core::sim::VirtualDuration>;

/// Traced path: [`run_protocol`] replayed through the layers' public
/// functions — same cells, seeds, analysis configuration, probe calls and
/// merge order as `run_experiment_instrumented` — with a span from
/// [`span`] around each layer call and event counts from [`count`].
pub fn replay_protocol(
    instance: &BenchmarkInstance,
    options: &ExperimentOptions,
    probes: Option<&Probes>,
    spans: &Telemetry,
) -> ExperimentResult {
    let tel = probes.map(|p| &p.tel);
    let obs = probes.map(|p| &p.obs);
    let prof = probes.map(|p| &p.prof);
    let prep = {
        let _s = spans.span(span::PREPARE);
        prepare_measure(
            &instance.program,
            &exec_config_for(instance, &options.noise, options.base_seed),
        )
    };
    let mode_cfgs: Vec<MeasureConfig> =
        options.modes.iter().map(|&mode| measure_config_for(instance, mode)).collect();
    let reps_of =
        |mode: ClockMode| if mode.is_noise_free() { 1 } else { options.repetitions.max(1) };
    let ref_reps = options.repetitions.max(1);
    let mut cells: Vec<Cell> = (0..ref_reps).map(|rep| Cell::Reference { rep }).collect();
    for (mode_idx, &mode) in options.modes.iter().enumerate() {
        cells.extend((0..reps_of(mode)).map(|rep| Cell::Mode { mode_idx, rep }));
    }
    let fan = effective_jobs(options.jobs).min(cells.len());
    let acfg = AnalysisConfig { delay_costs: true, workers: if fan > 1 { 1 } else { 0 } };

    let outputs = {
        let _s = spans.span(span::FANOUT);
        parallel_map_ordered(cells, options.jobs, |_, cell| {
            let _c = spans.span(span::CELL);
            match cell {
                Cell::Reference { rep } => {
                    let _span = tel.map(|t| t.span_cat("experiment.reference", "experiment"));
                    let _frame = sample::frame(frames::EXPERIMENT_REFERENCE);
                    let name = format!("{}:ref:rep{rep}", instance.name);
                    let run = obs.map(|_| RunObserve::new(name.clone()));
                    let prof_run = prof.map(|_| RunProf::new(name));
                    let cfg = exec_config_for(
                        instance,
                        &options.noise,
                        options.base_seed + 100 + rep as u64,
                    );
                    let result = {
                        let _s = spans.span(span::REFERENCE);
                        reference_run_instrumented(
                            &instance.program,
                            &cfg,
                            run.as_ref(),
                            prof_run.as_ref(),
                        )
                    };
                    spans.add(count::REFERENCE_EVENTS, result.events);
                    attach(obs, run, prof, prof_run);
                    CellOutput::Reference(result)
                }
                Cell::Mode { mode_idx, rep } => {
                    let mcfg = &mode_cfgs[mode_idx];
                    let mode = mcfg.mode.name();
                    let _span = tel.map(|t| t.span_cat(format!("mode:{mode}"), "experiment"));
                    let _frame = sample::frame(frames::MODE_CELL);
                    let name = format!("{}:{mode}:rep{rep}", instance.name);
                    let run = obs.map(|_| RunObserve::new(name.clone()));
                    let prof_run = prof.map(|_| RunProf::new(name));
                    let cfg =
                        exec_config_for(instance, &options.noise, options.base_seed + rep as u64);
                    let (trace, result) = {
                        let _s = spans.span(span::MEASURE);
                        measure_prepared_spilled(
                            &instance.program,
                            &prep,
                            &cfg,
                            mcfg,
                            options.trace_budget,
                            tel,
                            run.as_ref(),
                            prof_run.as_ref(),
                        )
                    };
                    spans.add(count::MEASURE_EVENTS, result.events);
                    spans.add(count::TRACE_EVENTS, trace.total_events() as u64);
                    let profile = {
                        let _s = spans.span(span::ANALYSIS);
                        analyze_view(&trace.view(), &acfg, tel, run.as_ref())
                    };
                    let phases = instance
                        .program
                        .phases
                        .iter()
                        .enumerate()
                        .map(|(i, name)| (name.clone(), result.phase_max(PhaseId(i as u32))))
                        .collect();
                    if let Some(t) = tel {
                        t.incr("experiment.repetitions");
                    }
                    attach(obs, run, prof, prof_run);
                    CellOutput::Mode { mode_idx, profile, result, phases }
                }
            }
        })
    };

    let _s = spans.span(span::PROFILE);
    let mut reference = Vec::with_capacity(ref_reps as usize);
    let mut per_mode: Vec<Vec<(Profile, ExecResult, PhaseTimes)>> =
        options.modes.iter().map(|_| Vec::new()).collect();
    for output in outputs {
        match output {
            CellOutput::Reference(r) => reference.push(r),
            CellOutput::Mode { mode_idx, profile, result, phases } => {
                per_mode[mode_idx].push((profile, result, phases))
            }
        }
    }
    let modes: Vec<ModeResult> = options
        .modes
        .iter()
        .zip(per_mode)
        .map(|(&mode, cells)| {
            let _frame = sample::frame(frames::EXPERIMENT_MERGE);
            let mut events = 0;
            let mut profiles = Vec::with_capacity(cells.len());
            let mut run_times = Vec::with_capacity(cells.len());
            let mut phase_times = Vec::with_capacity(cells.len());
            for (profile, result, phases) in cells {
                events += result.events;
                profiles.push(profile);
                run_times.push(result.total);
                phase_times.push(phases);
            }
            let mean = Profile::mean(&profiles);
            ModeResult { mode, profiles, mean, run_times, phase_times, events }
        })
        .collect();
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

/// Hand a finished cell's observations and engine profile to the probes.
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

/// What one protocol instance renders: the severity report (compared
/// with its golden at seed 1000), the Fig. 3 similarity rows, and the
/// metric table of each noise-free mode (compared at every seed).
pub struct Rendered {
    /// `severity_text(result, 10)`.
    pub severity: String,
    /// Jaccard similarity to `tsc` and minimum run-to-run Jaccard, per mode.
    pub similarity: String,
    /// `metric_table(mean, 0.0)` of each mode in [`NOISE_FREE`].
    pub tables: Vec<(&'static str, String)>,
}

impl Rendered {
    /// Everything rendered, concatenated: the traced run's output must
    /// equal the timed run's byte for byte.
    pub fn text(&self) -> String {
        let mut out = self.severity.clone();
        out.push_str(&self.similarity);
        for (_, table) in &self.tables {
            out.push_str(table);
        }
        out
    }
}

/// Render a protocol result. With `spans`, the Jaccard scores run under
/// [`span::PROFILE`] and the report under [`span::RENDER`].
pub fn render(result: &ExperimentResult, spans: Option<&Telemetry>) -> Rendered {
    let similarity = {
        let _s = open(spans, span::PROFILE);
        let tsc = result.mode(ClockMode::Tsc).mean.map_mc();
        let mut out = String::new();
        for m in &result.modes {
            out.push_str(&format!(
                "{:<10} j_vs_tsc {:.6} min_run_to_run {:.6}\n",
                m.mode.name(),
                jaccard(&tsc, &m.mean.map_mc()),
                m.min_run_to_run_jaccard()
            ));
        }
        out
    };
    let _s = open(spans, span::RENDER);
    Rendered {
        severity: nrlt_report::severity_text(result, REPORT_TOP_N),
        similarity,
        tables: NOISE_FREE
            .iter()
            .map(|&m| (m.name(), metric_table(&result.mode(m).mean, 0.0)))
            .collect(),
    }
}

/// Output of one out-of-core unit.
pub struct SpillOutput {
    /// `metric_table` of the `tsc` analysis.
    pub table: String,
    /// Engine events of the measured run.
    pub engine_events: u64,
    /// Events recorded into the trace.
    pub trace_events: u64,
    /// Events the k-way merge visited.
    pub merged_events: u64,
}

/// The `scale` binary's unit on one instance at `seed`: a `tsc`
/// measurement under `budget` (spilling columnar segments beyond it),
/// analysis of the streamed trace, a full k-way merge over every
/// recorded event, and the metric table. With `spans`, each layer call
/// runs under its span.
pub fn spill_unit(
    instance: &BenchmarkInstance,
    seed: u64,
    budget: Option<u64>,
    spans: Option<&Telemetry>,
) -> SpillOutput {
    let noise = NoiseConfig::realistic();
    let cfg = exec_config_for(instance, &noise, seed);
    let mcfg = measure_config_for(instance, ClockMode::Tsc);
    let prep = {
        let _s = open(spans, span::PREPARE);
        prepare_measure(&instance.program, &cfg)
    };
    let (trace, result) = {
        let _s = open(spans, span::MEASURE);
        measure_prepared_spilled(&instance.program, &prep, &cfg, &mcfg, budget, None, None, None)
    };
    let view = trace.view();
    let profile = {
        let _s = open(spans, span::ANALYSIS);
        analyze_view(&view, &AnalysisConfig::default(), None, None)
    };
    let merged_events = {
        let _s = open(spans, span::TRACE_MERGE);
        MergedEvents::new(view.all_events()).count() as u64
    };
    let table = {
        let _s = open(spans, span::RENDER);
        metric_table(&profile, 0.0)
    };
    let trace_events = view.total_events() as u64;
    if let Some(t) = spans {
        t.add(count::MEASURE_EVENTS, result.events);
        t.add(count::TRACE_EVENTS, trace_events);
    }
    SpillOutput { table, engine_events: result.events, trace_events, merged_events }
}

/// A bundle manifest for this benchmark. `Manifest::new` runs `git` for
/// the revision, a subprocess that searches up the directory tree; the
/// benchmark keeps it out of its passes.
fn manifest(wall_seconds: f64) -> Manifest {
    Manifest {
        bin: "nrlt-benchmark".into(),
        argv: std::env::args().collect(),
        git_rev: "unknown".into(),
        started_unix: 0,
        wall_seconds,
        runs: Vec::new(),
    }
}

/// Write the benchmark's own span telemetry as a standard bundle.
pub fn export_spans(dir: &Path, spans: &Telemetry) -> std::io::Result<()> {
    write_exports(dir, spans, &manifest(spans.elapsed_ns() as f64 / 1e9))
}
