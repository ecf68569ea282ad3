//! # nrlt-bench — experiment harness
//!
//! One binary per table/figure of the paper, each printing the rows or
//! series the paper reports (see DESIGN.md's experiment index), plus
//! criterion benchmarks over the hot components.
//!
//! Absolute numbers come from a simulated machine; per the reproduction
//! protocol the *shapes* (who wins, rough factors, crossovers) are the
//! comparison targets, recorded in EXPERIMENTS.md.

use nrlt_core::engineprof::{EngineProf, ProfBundle};
use nrlt_core::prelude::*;
use nrlt_core::ExperimentResult;
use nrlt_observe::export::ObserveBundle;
use nrlt_observe::Observe;
use nrlt_telemetry::sample::{self, frames, SampleProf};
use nrlt_telemetry::{write_exports, Manifest, RunInfo, Telemetry};
use std::path::PathBuf;
use std::time::Instant;

/// The standard options used for all paper experiments.
pub fn paper_options() -> ExperimentOptions {
    ExperimentOptions::default()
}

/// Hotspot-table depth of the `--report` severity sections.
const REPORT_TOP_N: usize = 10;

/// Per-binary telemetry harness.
///
/// Every figure/table binary accepts `--telemetry <dir>` (also
/// `--telemetry=<dir>`; every flag below takes both forms, and a
/// missing or malformed value exits with an error — see [`Flags`]).
/// Without the flag the harness is inert: no [`Telemetry`] handle
/// exists, the pipeline runs on its `None` paths, and output is
/// byte-identical to before the flag existed. With the flag,
/// [`Harness::finish`] writes `manifest.json`, `metrics.jsonl` and
/// `pipeline.trace.json` into the directory.
///
/// Further flags:
///
/// * `--jobs N` (also `--jobs=N`) overrides
///   [`ExperimentOptions::jobs`] for every experiment the harness
///   drives; `0` (the default) means available parallelism. Output is
///   byte-identical for every value — the flag only changes wall time.
/// * `--report <dir>` writes the severity report of every experiment
///   the harness drove (`report.txt` + `report.json`, deterministic —
///   derived from the analysis profiles only). It records no telemetry
///   of its own.
/// * `--only <name>` restricts harness-driven experiments to the named
///   configuration; binaries consult [`Harness::wants`].
/// * `--observe <dir>` (also `--observe=<dir>`) records the resource
///   observatory of every harness-driven experiment — counter
///   timelines, noise attribution, wait-state provenance — and writes
///   `observe.jsonl` + `observe.trace.json` into the directory on
///   [`Harness::finish`]. Without the flag the pipeline runs on its
///   `None` paths and does zero observability work; printed output is
///   byte-identical either way.
/// * `--engine-prof <dir>` (also `--engine-prof=<dir>`) turns on the
///   engine self-profiler for every harness-driven experiment —
///   per-event-kind counts, queue-occupancy timelines, hot-loop
///   allocation counts — and writes the deterministic `engineprof.json`
///   into the directory on [`Harness::finish`]. With `--sample-prof`
///   also on, the sampler sees one `engine.<kind>` frame per event
///   kind; naming the same directory for both puts `samples.folded`
///   next to `engineprof.json`, where `nrlt-report engine` joins them.
///   Without the flag the engine runs on its `None` paths and performs
///   zero profiling work; printed output is byte-identical either way.
/// * `--sample-prof <dir>` (also `--sample-prof=<dir>`) installs the
///   cooperative wall-clock sampling profiler for the whole invocation:
///   pipeline threads publish their current logical frame into
///   per-thread slots and a background thread samples them at
///   [`sample::DEFAULT_RATE_HZ`] (97 Hz). On [`Harness::finish`] the
///   folded stacks land in `<dir>/samples.folded` plus a
///   `sampleprof.wall.json` sidecar (rate, ticks, samples, publishes,
///   torn reads, top stacks — wall-clock data, inherently run-to-run).
///   Without the flag no profiler exists and no thread ever publishes a
///   slot.
/// * `--trace-budget <bytes>` (also `--trace-budget=<bytes>`, with
///   optional `k`/`m`/`g` suffixes, e.g. `--trace-budget 64m`) caps
///   resident event storage for every harness-driven experiment:
///   per-location streams spill event chunks to temp segment files
///   beyond the budget and analysis streams them back. Output is
///   byte-identical with and without the flag — spilling changes peak
///   RSS and wall time, never results. Without the flag traces stay
///   fully resident (the historical path).
/// * `--rss-limit <bytes>` (same suffixes) is an assertion, not a
///   tuning knob: [`Harness::finish`] fails the process when the
///   invocation's peak RSS (`VmHWM`) exceeded the limit. CI uses it to
///   prove the out-of-core path keeps memory bounded.
pub struct Harness {
    bin: String,
    tel: Option<Telemetry>,
    manifest: Manifest,
    dir: Option<PathBuf>,
    report_dir: Option<PathBuf>,
    observe_dir: Option<PathBuf>,
    obs: Option<Observe>,
    engineprof_dir: Option<PathBuf>,
    prof: Option<EngineProf>,
    sample_dir: Option<PathBuf>,
    sprof: Option<SampleProf>,
    sprof_guard: Option<sample::InstallGuard>,
    harness_frame: Option<sample::FrameGuard>,
    only: Option<String>,
    jobs: Option<usize>,
    trace_budget: Option<u64>,
    rss_limit: Option<u64>,
    // The largest `VmHWM` seen before each [`Harness::reset_peak_rss`].
    // The kernel counter is resettable, so the `--rss-limit` assertion
    // checks this harness-side max — a sweep that resets between runs
    // cannot hide an earlier overshoot.
    rss_hwm: u64,
    report_text: String,
    report_json: Vec<String>,
    started: Instant,
}

/// The harness's command-line flags (documented on [`Harness`]). Each
/// takes a value, as `--name value` or `--name=value`; arguments that
/// are not harness flags are left to the binary.
#[derive(Debug, Default, PartialEq)]
pub struct Flags {
    /// `--telemetry <dir>`.
    pub telemetry: Option<PathBuf>,
    /// `--report <dir>`.
    pub report: Option<PathBuf>,
    /// `--observe <dir>`.
    pub observe: Option<PathBuf>,
    /// `--engine-prof <dir>`.
    pub engine_prof: Option<PathBuf>,
    /// `--sample-prof <dir>`.
    pub sample_prof: Option<PathBuf>,
    /// `--only <name>`.
    pub only: Option<String>,
    /// `--jobs <n>`.
    pub jobs: Option<usize>,
    /// `--trace-budget <bytes>` (see [`parse_bytes`]).
    pub trace_budget: Option<u64>,
    /// `--rss-limit <bytes>` (see [`parse_bytes`]).
    pub rss_limit: Option<u64>,
}

impl Flags {
    /// The flags of this process; prints the error and exits with
    /// status 2 when one is malformed.
    pub(crate) fn from_env() -> Flags {
        Flags::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// Parse `args` (without the program name). A harness flag with a
    /// missing, empty or unparsable value is an error.
    pub(crate) fn parse(args: impl IntoIterator<Item = String>) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(flag) = arg.strip_prefix("--") else { continue };
            let (name, inline) = match flag.split_once('=') {
                Some((name, value)) => (name, Some(value.to_owned())),
                None => (flag, None),
            };
            let set: fn(&mut Flags, &str) -> Option<()> = match name {
                "telemetry" => |f, v| path(v).map(|p| f.telemetry = Some(p)),
                "report" => |f, v| path(v).map(|p| f.report = Some(p)),
                "observe" => |f, v| path(v).map(|p| f.observe = Some(p)),
                "engine-prof" => |f, v| path(v).map(|p| f.engine_prof = Some(p)),
                "sample-prof" => |f, v| path(v).map(|p| f.sample_prof = Some(p)),
                "only" => |f, v| (!v.is_empty()).then(|| f.only = Some(v.to_owned())),
                "jobs" => |f, v| v.parse().ok().map(|n| f.jobs = Some(n)),
                "trace-budget" => |f, v| parse_bytes(v).map(|b| f.trace_budget = Some(b)),
                "rss-limit" => |f, v| parse_bytes(v).map(|b| f.rss_limit = Some(b)),
                _ => continue,
            };
            let value = inline.or_else(|| args.next()).unwrap_or_default();
            if set(&mut flags, &value).is_none() {
                return Err(format!("--{name}: invalid value {value:?}"));
            }
        }
        Ok(flags)
    }
}

impl Harness {
    /// Build a harness for binary `bin` from the command-line flags
    /// (see [`Flags`]); exits with status 2 on a malformed flag.
    pub fn from_env(bin: &str) -> Harness {
        Harness::new(bin, Flags::from_env())
    }

    /// Build a harness for binary `bin` from already-parsed `flags`.
    fn new(bin: &str, flags: Flags) -> Harness {
        // The sampler is strictly opt-in: without `--sample-prof` no
        // profiler exists, nothing is installed, and `sample::frame`
        // calls throughout the pipeline stay no-op branches.
        let sprof =
            flags.sample_prof.is_some().then(|| SampleProf::with_rate(sample::DEFAULT_RATE_HZ));
        let sprof_guard = sprof.as_ref().map(SampleProf::install);
        let harness_frame = sprof_guard.is_some().then(|| sample::frame(frames::HARNESS));
        Harness {
            bin: bin.to_owned(),
            tel: flags.telemetry.is_some().then(Telemetry::new),
            manifest: Manifest::new(bin),
            dir: flags.telemetry,
            report_dir: flags.report,
            obs: flags.observe.is_some().then(Observe::new),
            observe_dir: flags.observe,
            prof: flags.engine_prof.is_some().then(EngineProf::new),
            engineprof_dir: flags.engine_prof,
            sample_dir: flags.sample_prof,
            sprof,
            sprof_guard,
            harness_frame,
            only: flags.only,
            jobs: flags.jobs,
            trace_budget: flags.trace_budget,
            rss_limit: flags.rss_limit,
            rss_hwm: 0,
            report_text: String::new(),
            report_json: Vec::new(),
            started: Instant::now(),
        }
    }

    /// True when `--only` is absent or names this configuration.
    pub fn wants(&self, name: &str) -> bool {
        self.only.as_deref().is_none_or(|o| o == name)
    }

    /// The experiment options with the `--jobs` and `--trace-budget`
    /// overrides applied.
    pub(crate) fn apply_jobs(&self, options: &ExperimentOptions) -> ExperimentOptions {
        let mut options = options.clone();
        if let Some(jobs) = self.jobs {
            options.jobs = jobs;
        }
        if self.trace_budget.is_some() {
            options.trace_budget = self.trace_budget;
        }
        options
    }

    /// The `--trace-budget` value, for binaries that drive measurement
    /// directly instead of through [`Harness::run_experiment`].
    pub fn trace_budget(&self) -> Option<u64> {
        self.trace_budget
    }

    /// Reset the kernel's peak-RSS high-water mark so the next run's
    /// peak is its own (see [`nrlt_report::bench::reset_peak_rss`]),
    /// first folding the current mark into the harness-side max that
    /// `--rss-limit` checks. Returns whether the kernel reset took.
    pub fn reset_peak_rss(&mut self) -> bool {
        self.rss_hwm = self.peak_rss_bytes();
        nrlt_report::bench::reset_peak_rss()
    }

    /// Peak RSS of the invocation so far: the larger of the live `VmHWM`
    /// and every mark folded in by [`Harness::reset_peak_rss`].
    fn peak_rss_bytes(&self) -> u64 {
        self.rss_hwm.max(nrlt_report::bench::peak_rss_bytes())
    }

    /// The telemetry sink to thread into the pipeline (`None` without
    /// `--telemetry`).
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.tel.as_ref()
    }

    /// The engine self-profiler (`None` without `--engine-prof`), for
    /// binaries that drive measurement directly and attach their own
    /// [`nrlt_core::engineprof::RunProf`] runs.
    pub fn engineprof(&self) -> Option<&EngineProf> {
        self.prof.as_ref()
    }

    fn push_run(
        &mut self,
        name: String,
        instance: &BenchmarkInstance,
        options: &ExperimentOptions,
    ) {
        self.manifest.runs.push(RunInfo {
            name,
            config: format!(
                "{} nodes × {} ranks × {} threads",
                instance.nodes, instance.layout.ranks, instance.layout.threads_per_rank
            ),
            seed: options.base_seed,
            repetitions: options.repetitions,
        });
    }

    /// Run one named configuration under the standard protocol
    /// ([`paper_options`]) through the harness.
    pub fn run_named(&mut self, instance: &BenchmarkInstance) -> ExperimentResult {
        self.run_experiment(instance, &paper_options())
    }

    /// [`nrlt_core::run_experiment`] through the harness.
    pub fn run_experiment(
        &mut self,
        instance: &BenchmarkInstance,
        options: &ExperimentOptions,
    ) -> ExperimentResult {
        let options = self.apply_jobs(options);
        self.push_run(instance.name.clone(), instance, &options);
        let result = nrlt_core::run_experiment_instrumented(
            instance,
            &options,
            self.tel.as_ref(),
            self.obs.as_ref(),
            self.prof.as_ref(),
        );
        if self.report_dir.is_some() {
            self.report_text.push_str(&nrlt_report::severity_text(&result, REPORT_TOP_N));
            self.report_text.push('\n');
            self.report_json.push(nrlt_report::severity_json(&result, REPORT_TOP_N));
        }
        result
    }

    /// [`nrlt_core::run_mode_with_instrumented`] through the harness:
    /// one clock mode under an explicit measurement configuration
    /// ([`nrlt_core::measure_config_for`] gives the calibrated one).
    pub fn run_mode(
        &mut self,
        instance: &BenchmarkInstance,
        mcfg: MeasureConfig,
        options: &ExperimentOptions,
    ) -> ModeResult {
        let options = self.apply_jobs(options);
        let name = format!("{}:{}", instance.name, mcfg.mode.name());
        self.push_run(name, instance, &options);
        let result = nrlt_core::run_mode_with_instrumented(
            instance,
            mcfg,
            &options,
            self.tel.as_ref(),
            self.obs.as_ref(),
            self.prof.as_ref(),
        );
        self.record_mode_report(&result);
        result
    }

    fn record_mode_report(&mut self, result: &ModeResult) {
        if self.report_dir.is_some() {
            self.report_text.push_str(&nrlt_report::mode_text(result, REPORT_TOP_N));
            self.report_text.push('\n');
        }
    }

    /// Record a manifest row for a run the harness did not drive itself
    /// (binaries that call `measure`/`execute` directly).
    pub fn note_run(&mut self, name: &str, config: &str, seed: u64, repetitions: u32) {
        self.manifest.runs.push(RunInfo {
            name: name.to_owned(),
            config: config.to_owned(),
            seed,
            repetitions,
        });
    }

    /// Write the report artifacts, the engine profile, the observe
    /// bundle, the sampling profile, and the telemetry bundle, as
    /// requested by `--report`, `--engine-prof`, `--observe`,
    /// `--sample-prof`, and `--telemetry`.
    /// Returns the telemetry directory written to, if any.
    pub fn finish(mut self) -> Option<PathBuf> {
        // `--rss-limit` is a CI assertion: the out-of-core path must
        // keep peak memory bounded, and a silent overshoot would defeat
        // the point of spilling. Checked first against the larger of
        // the live HWM and the harness-side running max, so a bin that
        // resets the HWM between runs (the scale sweep does, for
        // per-size attribution) cannot hide an earlier overshoot.
        if let Some(limit) = self.rss_limit {
            let peak = self.peak_rss_bytes();
            if peak > limit {
                eprintln!(
                    "error: peak RSS {} bytes ({}M) exceeded --rss-limit {} bytes ({}M)",
                    peak,
                    peak >> 20,
                    limit,
                    limit >> 20
                );
                std::process::exit(1);
            }
            eprintln!("peak RSS {}M within --rss-limit {}M", peak >> 20, limit >> 20);
        }
        if let (Some(pdir), Some(prof)) = (self.engineprof_dir.take(), self.prof.take()) {
            match ProfBundle::from_prof(&prof).write(&pdir) {
                Ok(()) => eprintln!("engine profile written to {}", pdir.display()),
                Err(e) => {
                    eprintln!("warning: could not write engine profile to {}: {e}", pdir.display())
                }
            }
        }
        if let (Some(odir), Some(obs)) = (self.observe_dir.take(), self.obs.take()) {
            match ObserveBundle::from_observe(&obs).write(&odir) {
                Ok(()) => eprintln!("observe bundle written to {}", odir.display()),
                Err(e) => {
                    eprintln!("warning: could not write observe bundle to {}: {e}", odir.display())
                }
            }
        }
        // Stop sampling before the (unprofiled) artifact writes so the
        // histogram covers exactly the harness-driven work, then write
        // the folded stacks + wall-clock sidecar.
        if let (Some(sdir), Some(sprof)) = (self.sample_dir.take(), self.sprof.take()) {
            drop(self.harness_frame.take());
            drop(self.sprof_guard.take());
            match write_sample_bundle(&sdir, &sprof) {
                Ok(()) => eprintln!("sampling profile written to {}", sdir.display()),
                Err(e) => {
                    eprintln!(
                        "warning: could not write sampling profile to {}: {e}",
                        sdir.display()
                    )
                }
            }
        }
        if let Some(rdir) = self.report_dir.take() {
            match self.write_report(&rdir) {
                Ok(()) => eprintln!("report artifacts written to {}", rdir.display()),
                Err(e) => {
                    eprintln!("warning: could not write report to {}: {e}", rdir.display())
                }
            }
        }
        let dir = self.dir.take()?;
        let tel = self.tel.take()?;
        self.manifest.wall_seconds = self.started.elapsed().as_secs_f64();
        if let Err(e) = write_exports(&dir, &tel, &self.manifest) {
            eprintln!("warning: could not write telemetry to {}: {e}", dir.display());
            return None;
        }
        eprintln!("telemetry bundle written to {}", dir.display());
        Some(dir)
    }

    /// `report.txt` and `report.json` carry the severity sections (pure
    /// analysis output — byte-identical across worker counts and
    /// repeats).
    fn write_report(&self, dir: &PathBuf) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("report.txt"), &self.report_text)?;
        let runs: Vec<&str> = self.report_json.iter().map(|s| s.trim_end()).collect();
        let json = format!(
            "{{\n\"bin\": {},\n\"runs\": [\n{}\n]\n}}\n",
            nrlt_telemetry::json::string(&self.bin),
            runs.join(",\n")
        );
        std::fs::write(dir.join("report.json"), json)
    }
}

/// Write the sampling profiler's artifacts: `samples.folded` (the
/// collapsed-stack histogram, one `a;b;c count` line per distinct
/// sampled stack, flamegraph-tool ready) and `sampleprof.wall.json`
/// (sampler bookkeeping + top stacks). Both are wall-clock data — they
/// live beside, never inside, the deterministic artifacts.
fn write_sample_bundle(dir: &PathBuf, prof: &SampleProf) -> std::io::Result<()> {
    use std::fmt::Write as _;
    std::fs::create_dir_all(dir)?;
    let folded = nrlt_report::folded_from_counts(&prof.stack_counts());
    std::fs::write(dir.join("samples.folded"), folded)?;
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n\"rate_hz\": {},\n\"ticks\": {},\n\"samples\": {},\n\"publishes\": {},\n\"torn\": {},\n\"top_stacks\": [",
        prof.rate_hz(),
        prof.ticks(),
        prof.samples(),
        prof.publishes(),
        prof.torn(),
    );
    let top = prof.top_stacks(10);
    for (i, (stack, n)) in top.iter().enumerate() {
        let comma = if i + 1 < top.len() { "," } else { "" };
        let _ = write!(json, "\n[{}, {n}]{comma}", nrlt_telemetry::json::string(stack));
    }
    json.push_str("\n]\n}\n");
    std::fs::write(dir.join("sampleprof.wall.json"), json)
}

/// A flag value naming a file or directory: any non-empty string.
fn path(v: &str) -> Option<PathBuf> {
    (!v.is_empty()).then(|| PathBuf::from(v))
}

/// Parse a byte count with an optional `k`/`m`/`g` suffix (case
/// insensitive): `"65536"`, `"64k"`, `"64m"`, `"2g"`. `None` for
/// anything else.
pub fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, shift) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 10),
        b'm' | b'M' => (&s[..s.len() - 1], 20),
        b'g' | b'G' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    digits.parse::<u64>().ok()?.checked_shl(shift)
}

/// Format a percentage with one decimal and sign.
pub fn pct(v: f64) -> String {
    format!("{v:>7.1}")
}

/// Format a Jaccard score.
pub fn score(v: f64) -> String {
    format!("{v:>5.2}")
}

/// Print a standard figure header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// The modes in the paper's table order.
pub fn modes() -> [ClockMode; 6] {
    ClockMode::ALL
}

/// Print a "stacked bar" table: for each clock mode, the contribution of
/// selected call paths to `metric` in %_M — the textual form of the
/// paper's Figs. 5, 6 and 9.
pub fn callpath_bars(result: &ExperimentResult, metric: Metric, min_pct: f64) {
    use std::collections::BTreeMap;
    // Collect the union of significant call paths across modes, keyed by
    // rendered path string (call-path ids are comparable, strings are
    // stable for display).
    let mut rows: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let n_modes = result.modes.len();
    for (i, m) in result.modes.iter().enumerate() {
        for (path, v) in m.mean.map_c(metric) {
            if v >= min_pct {
                rows.entry(m.mean.path_string(path)).or_insert_with(|| vec![0.0; n_modes])[i] = v;
            } else {
                rows.entry("(other)".into()).or_insert_with(|| vec![0.0; n_modes])[i] += v;
            }
        }
    }
    print!("{:<72}", format!("call paths for `{}` in %_M", metric.name()));
    for m in &result.modes {
        print!(" {:>8}", m.mode.name());
    }
    println!();
    let mut entries: Vec<_> = rows.into_iter().collect();
    entries.sort_by(|a, b| b.1[0].partial_cmp(&a.1[0]).unwrap());
    for (path, values) in entries {
        let label = if path.len() > 70 { format!("…{}", &path[path.len() - 69..]) } else { path };
        print!("{label:<72}");
        for v in values {
            print!(" {v:>8.1}");
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, String> {
        Flags::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn flags_take_both_forms_and_leave_other_arguments_alone() {
        let flags = parse(&["LULESH-1", "--jobs", "2", "--detail", "--rss-limit=4g"]).unwrap();
        assert_eq!(flags.jobs, Some(2));
        assert_eq!(flags.rss_limit, Some(4 << 30));
        assert_eq!(flags.telemetry, None);
        assert_eq!(parse(&["--only=MiniFE-1"]).unwrap().only.as_deref(), Some("MiniFE-1"));
        // The sampler always runs at its default rate: `--sample-rate` is
        // not a harness flag, so it is left to the binary like any other.
        assert_eq!(parse(&["--sample-rate", "fast"]).unwrap(), Flags::default());
    }

    #[test]
    fn malformed_flag_values_are_rejected() {
        for bad in [
            &["--rss-limit", "4x"][..],
            &["--jobs", "two"],
            &["--jobs=-1"],
            &["--trace-budget="],
            &["--telemetry"],
        ] {
            let err = parse(bad).expect_err(&format!("{bad:?} must be rejected"));
            assert!(err.starts_with(bad[0].split('=').next().unwrap()), "{err}");
        }
    }

    #[test]
    fn report_alone_records_no_telemetry_and_writes_only_the_report() {
        let dir = std::env::temp_dir().join(format!("nrlt-bench-report-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let h = Harness::new("test", Flags { report: Some(dir.clone()), ..Flags::default() });
        assert!(h.telemetry().is_none());
        assert_eq!(h.finish(), None);
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(files, ["report.json", "report.txt"]);
    }

    #[test]
    fn resetting_the_peak_through_the_harness_keeps_an_earlier_overshoot() {
        const SIZE: usize = 64 << 20;
        let mut h = Harness::new("test", Flags::default());
        let touched = vec![0xA5u8; SIZE];
        std::hint::black_box(&touched);
        drop(touched);
        if !h.reset_peak_rss() || nrlt_report::bench::peak_rss_bytes() == 0 {
            return; // no resettable HWM on this host: the live mark covers it
        }
        let peak = h.peak_rss_bytes();
        assert!(peak >= SIZE as u64, "tracked peak {peak} lost the 64 MiB overshoot");
    }
}
