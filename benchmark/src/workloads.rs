//! The five workloads and one run of each: warm-up, timed passes and
//! output checks (timed run), or the same passes under layer spans
//! (traced run).

use crate::golden::{Goldens, GOLDEN_SEED};
use crate::layers::{self, PassSpans};
use crate::metrics::{CPU_S, END_TO_END, EVENTS_PER_S, PEAK_RSS_MIB, SETUP_S, WALL_S};
use crate::pipeline::{self, span, Probes, Telemetry};
use crate::record::{Metric, RunRecord};
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What a workload runs in one pass.
#[derive(Debug)]
pub enum Kind {
    /// The paper's protocol on each instance, traces resident; with
    /// `observed`, every probe is on and the bundles are written.
    Protocol { instances: &'static [&'static str], observed: bool },
    /// The `scale` binary's out-of-core unit on each instance; the
    /// warm-up checks resident against force-spilled output on `small`.
    Spill { instances: &'static [&'static str], small: &'static [&'static str] },
}

/// One workload of the benchmark.
#[derive(Debug)]
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Why the benchmark has it (one line, mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// What one pass runs.
    pub kind: Kind,
}

/// The workloads, in `BENCHMARK.json` order. Every one runs its cells one
/// at a time: on a host of two shared cores, two concurrent cells measure
/// the other tenants more than the program (their run-to-run spread
/// reached the 25% bound), so there is no fan-out workload.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "protocol-hybrid",
        why: "The paper protocol on MiniFE-2 and LULESH-2, one cell at a time: measure, analysis \
              and engine all do real work. The baseline for any layer change.",
        kind: Kind::Protocol { instances: &["MiniFE-2", "LULESH-2"], observed: false },
    },
    Workload {
        name: "omp-only",
        why: "TeaLeaf-1, one rank of 128 threads: OpenMP barriers, schedules and idle threads \
              dominate while MPI matching does nothing.",
        kind: Kind::Protocol { instances: &["TeaLeaf-1"], observed: false },
    },
    Workload {
        name: "spill-10k",
        why: "Two 10,000-rank weak-scaling instances under a 64 MiB trace budget: the only \
              out-of-core workload, moved by trace-store and replay changes.",
        kind: Kind::Spill {
            instances: &["MiniFE-weak-10000", "TeaLeaf-weak-10000"],
            small: &["MiniFE-weak-64", "TeaLeaf-weak-64"],
        },
    },
    Workload {
        name: "observed",
        why: "MiniFE-1 with pipeline telemetry, observatory, engine profiler and 97 Hz sampler \
              on: the only workload that runs the observability layers.",
        kind: Kind::Protocol { instances: &["MiniFE-1"], observed: true },
    },
];

/// Resident trace budget of the out-of-core workload (the `scale`
/// binary's default).
const SPILL_BUDGET: u64 = 64 << 20;

/// Repetitions of the noise-sensitive modes (the paper uses 5).
const REPETITIONS: u32 = 5;

/// Fewest timed passes of a run, whatever `--seconds` says.
const MIN_PASSES: usize = 2;

/// Timed set-up rounds a timed run makes after each pass: set-up takes
/// milliseconds, so its median needs more samples than the passes give.
const SETUP_ROUNDS: usize = 3;

/// Fewest traced passes of a traced run.
const MIN_TRACED_PASSES: usize = 2;

impl Workload {
    /// The instances one pass runs.
    fn instances(&self) -> &'static [&'static str] {
        match self.kind {
            Kind::Protocol { instances, .. } | Kind::Spill { instances, .. } => instances,
        }
    }
}

/// The workload named `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Settings of one run.
pub struct RunSettings {
    /// Input seed.
    pub seed: u64,
    /// Measuring time; passes continue until it is spent.
    pub seconds: f64,
    /// Per-layer run instead of the end-to-end run.
    pub traced: bool,
    /// Golden files (written instead of compared under `--bless`).
    pub goldens: Goldens,
    /// Directory for the observed workload's bundles.
    pub scratch: PathBuf,
    /// Directory the traced run exports its spans to.
    pub traced_dir: PathBuf,
}

/// Output checks of a run.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Count one check; a failure keeps its message.
    fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.failures.push(e);
        }
    }

    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.check(if ok { Ok(()) } else { Err(what()) });
    }
}

/// What one pass produced.
struct Pass {
    /// The pass's own build, on whatever heap the last pass left; only
    /// the traced run's overhead uses it, `setup_s` comes from the warm
    /// rounds.
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    events: u64,
    /// Peak resident set from the end of set-up to the end of the work
    /// (the instances count).
    peak_rss_mib: f64,
    /// Everything rendered, for the determinism and traced-vs-timed
    /// checks.
    text: String,
}

/// User + system CPU seconds of this process so far, from
/// `/proc/self/stat` (clock ticks of 1/100 s; 0 where unavailable).
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3, so
    // utime (14) and stime (15) are the 12th and 13th.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<u64>().ok()).sum();
    ticks as f64 / 100.0
}

/// The timed work of one pass, kept alive until the timer stops.
enum Work {
    Protocol {
        results: Vec<pipeline::ExperimentResult>,
        rendered: Vec<pipeline::Rendered>,
        exported: Option<std::io::Result<()>>,
    },
    Spill(Vec<pipeline::SpillOutput>),
}

/// One pass of `w`: build the instances (set-up), then the timed work,
/// then its checks. With `spans`, every layer call runs under its span.
fn run_pass(
    w: &Workload,
    observed: bool,
    settings: &RunSettings,
    spans: Option<&Telemetry>,
    checks: &mut Checks,
) -> Pass {
    let seed = settings.seed;
    let t0 = Instant::now();
    let instances = pipeline::build_all(w.instances(), spans);
    let probes = observed.then(Probes::new);
    let setup_s = t0.elapsed().as_secs_f64();
    // Each timed pass reports its own peak: the kernel's high-water mark
    // is reset here (to the current RSS, instances included), so earlier
    // passes and the warm-up do not count. The reset trims the heap, so
    // it follows set-up rather than slowing it.
    if spans.is_none() {
        pipeline::reset_peak_rss();
    }

    let cpu0 = cpu_seconds();
    let t1 = Instant::now();
    let work = match w.kind {
        Kind::Protocol { .. } => {
            let options = pipeline::protocol_options(seed, REPETITIONS);
            let results: Vec<_> = instances
                .iter()
                .map(|instance| match spans {
                    None => pipeline::run_protocol(instance, &options, probes.as_ref()),
                    Some(t) => pipeline::replay_protocol(instance, &options, probes.as_ref(), t),
                })
                .collect();
            let rendered = results.iter().map(|r| pipeline::render(r, spans)).collect();
            let exported = probes.map(|p| p.export(&settings.scratch, spans));
            Work::Protocol { results, rendered, exported }
        }
        Kind::Spill { .. } => Work::Spill(
            instances
                .iter()
                .map(|instance| pipeline::spill_unit(instance, seed, Some(SPILL_BUDGET), spans))
                .collect(),
        ),
    };
    let wall_s = t1.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let peak_rss_mib = pipeline::peak_rss_bytes() as f64 / f64::from(1u32 << 20);

    let mut text = String::new();
    let mut events = 0;
    match work {
        Work::Protocol { results, rendered, exported } => {
            for ((instance, result), r) in instances.iter().zip(&results).zip(&rendered) {
                events += result.events;
                for (mode, table) in &r.tables {
                    let rel = format!("{}/{mode}.table", instance.name);
                    checks.check(settings.goldens.check(&rel, table.as_bytes()));
                }
                if seed == GOLDEN_SEED {
                    let rel = format!("{}/severity.txt", instance.name);
                    checks.check(settings.goldens.check(&rel, r.severity.as_bytes()));
                }
                text.push_str(&r.text());
            }
            if let Some(exported) = exported {
                checks.check(exported.map_err(|e| format!("probe export failed: {e}")));
                if seed == GOLDEN_SEED {
                    let jsonl = std::fs::read(pipeline::exported_observe_jsonl(&settings.scratch));
                    let rel = format!("{}/observe.jsonl", instances[0].name);
                    checks.check(settings.goldens.check(&rel, &jsonl.unwrap_or_default()));
                }
                let _ = std::fs::remove_dir_all(&settings.scratch);
            }
        }
        Work::Spill(outputs) => {
            for (instance, out) in instances.iter().zip(&outputs) {
                events += out.engine_events;
                checks.expect(out.merged_events == out.trace_events, || {
                    format!(
                        "{}: merge visited {} of {} events",
                        instance.name, out.merged_events, out.trace_events
                    )
                });
                text.push_str(&out.table);
            }
        }
    }
    Pass { setup_s, wall_s, cpu_s, events, peak_rss_mib, text }
}

/// The untimed warm-up: the workload's cheapest unit. For the protocol
/// workloads, one repetition of the first instance without probes; for
/// the out-of-core workload, the resident-vs-force-spilled identity
/// check on the small instances.
fn warm_up(w: &Workload, settings: &RunSettings, checks: &mut Checks) {
    match w.kind {
        Kind::Protocol { instances, .. } => {
            let instance = &pipeline::build_all(&instances[..1], None)[0];
            let options = pipeline::protocol_options(settings.seed, 1);
            pipeline::run_protocol(instance, &options, None);
        }
        Kind::Spill { small, .. } => {
            for instance in pipeline::build_all(small, None) {
                let resident = pipeline::spill_unit(&instance, settings.seed, None, None);
                let spilled = pipeline::spill_unit(&instance, settings.seed, Some(1), None);
                checks.expect(resident.table == spilled.table, || {
                    format!("{}: force-spilled output differs from resident", instance.name)
                });
            }
        }
    }
}

/// Build the workload's instances (and probes) once and drop them:
/// one set-up sample, in seconds.
fn set_up(w: &Workload, observed: bool) -> f64 {
    let t0 = Instant::now();
    let instances = pipeline::build_all(w.instances(), None);
    let probes = observed.then(Probes::new);
    let setup_s = t0.elapsed().as_secs_f64();
    drop((instances, probes));
    setup_s
}

/// True while a run must keep measuring: until `min` passes are done,
/// and after that while one more pass as long as the `last` one would
/// still end inside the window, so a run does not overshoot `seconds` by
/// most of a pass.
fn more(done: usize, min: usize, started: Instant, last: Duration, seconds: f64) -> bool {
    done < min || started.elapsed() + last <= Duration::from_secs_f64(seconds)
}

/// Run `w` once in this process and record what it measured.
pub fn run(w: &Workload, settings: &RunSettings) -> RunRecord {
    let mut record = RunRecord {
        workload: w.name.to_owned(),
        seed: settings.seed,
        traced: settings.traced,
        nproc: pipeline::host_parallelism(),
        started_unix_ms: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64),
        ..RunRecord::default()
    };
    eprintln!("{}: {}", w.name, w.why);
    let observed = matches!(w.kind, Kind::Protocol { observed: true, .. });
    let mut checks = Checks::default();
    warm_up(w, settings, &mut checks);

    // The first timed pass fixes the expected output and event count;
    // every later pass, timed or traced, must repeat them exactly.
    let started = Instant::now();
    let first = run_pass(w, observed, settings, None, &mut checks);
    let (expected_text, expected_events) = (first.text.clone(), first.events);
    let repeat = |pass: &Pass, checks: &mut Checks, what: &str| {
        checks.expect(pass.events == expected_events, || {
            format!("{what}: {} events, first pass had {expected_events}", pass.events)
        });
        checks.expect(pass.text == expected_text, || format!("{what}: output differs"));
    };

    if settings.traced {
        let spans = Telemetry::new();
        let mut passes = Vec::new();
        let mut last = started.elapsed();
        while more(passes.len(), MIN_TRACED_PASSES, started, last, settings.seconds) {
            let cycle = Instant::now();
            let (pass, main) = PassSpans::record(&spans, span::PASS, || {
                run_pass(w, observed, settings, Some(&spans), &mut checks)
            });
            repeat(&pass, &mut checks, "traced pass");
            let twin = observed.then(|| {
                PassSpans::record(&spans, span::TWIN, || {
                    run_pass(w, false, settings, Some(&spans), &mut checks)
                })
                .1
            });
            passes.push((main, twin));
            last = cycle.elapsed();
        }
        let dir = settings.traced_dir.join(w.name);
        checks.check(
            pipeline::export_spans(&dir, &spans)
                .map_err(|e| format!("cannot export spans to {}: {e}", dir.display())),
        );
        let timed_total = first.setup_s + first.wall_s;
        let samples = layers::pass_samples(&spans.spans(), &passes, timed_total);
        record.metrics = layers::summarize(&samples);
        record.passes = samples;
    } else {
        let mut passes = vec![first];
        let mut cycle = started;
        loop {
            // Set-up rounds after every pass, spread over the run so that
            // one slow stretch of the host does not own them all. An
            // untimed build goes first and takes back the pages the
            // allocator returned to the kernel, so every timed round finds
            // a warm heap: on a shared 2-vCPU virtual machine, page faults
            // were up to half of a cold build and their cost followed the
            // other tenants' load, so the median jumped between runs with
            // the share of rounds that happened to fault.
            set_up(w, observed);
            record.setup_samples.extend((0..SETUP_ROUNDS).map(|_| set_up(w, observed)));
            if !more(passes.len(), MIN_PASSES, started, cycle.elapsed(), settings.seconds) {
                break;
            }
            cycle = Instant::now();
            let pass = run_pass(w, observed, settings, None, &mut checks);
            repeat(&pass, &mut checks, "timed pass");
            passes.push(pass);
        }
        record.passes = passes
            .iter()
            .map(|p| {
                BTreeMap::from([
                    (WALL_S.to_owned(), p.wall_s),
                    (CPU_S.to_owned(), p.cpu_s),
                    (PEAK_RSS_MIB.to_owned(), p.peak_rss_mib),
                    (EVENTS_PER_S.to_owned(), p.events as f64 / p.wall_s),
                    ("events".to_owned(), p.events as f64),
                ])
            })
            .collect();
        record.metrics = end_to_end_metrics(&record.passes, &record.setup_samples);
    }
    record.attempted = checks.attempted;
    record.failed = checks.failed;
    record.failures = checks.failures;
    record
}

/// The end-to-end metrics from per-pass samples and every set-up time.
fn end_to_end_metrics(passes: &[BTreeMap<String, f64>], setup: &[f64]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|m| {
            let values: Vec<f64> = match m.name {
                SETUP_S => setup.to_vec(),
                _ => passes.iter().map(|p| p[m.name]).collect(),
            };
            Metric {
                name: m.name.to_owned(),
                unit: m.unit.to_owned(),
                summary: Summary::of(&values).expect("a run has at least one pass"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_run_reports_exactly_the_end_to_end_metrics() {
        let pass = BTreeMap::from([
            (WALL_S.to_owned(), 2.0),
            (CPU_S.to_owned(), 2.5),
            (PEAK_RSS_MIB.to_owned(), 512.0),
            (EVENTS_PER_S.to_owned(), 5e6),
            ("events".to_owned(), 1e7),
        ]);
        let metrics = end_to_end_metrics(&[pass.clone(), pass], &[0.02, 0.03]);
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
        assert!(metrics.iter().all(|m| m.summary.median > 0.0));
    }

    #[test]
    fn cpu_time_is_readable() {
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {}
        assert!(cpu_seconds() > 0.0);
    }

    #[test]
    fn a_run_stops_before_a_pass_that_would_overrun_its_window() {
        let started = Instant::now();
        let pass = Duration::from_secs(4);
        // Two passes are always run, however long.
        assert!(more(1, 2, started, Duration::from_secs(60), 10.0));
        // Past the minimum, another 4 s pass fits a 10 s window only
        // while it would end inside it.
        assert!(more(2, 2, started, pass, 10.0));
        assert!(!more(2, 2, started, pass, 3.0));
    }

    #[test]
    fn workload_names_resolve() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(find("nope").is_none());
    }
}
