//! # nrlt-benchmark — the repository benchmark
//!
//! ```text
//! nrlt-benchmark run [--workload W|all] [--seed N] [--seconds S]
//!                    [--trace 0|1 | --traced] [--out DIR] [--bless]
//! nrlt-benchmark compare A/ B/ [--claim METRIC@WORKLOAD]
//! ```
//!
//! `run` measures each workload in a child process of its own, one at a
//! time, prints every metric as `<workload> <metric> <value> <unit>`,
//! writes the run with its per-pass samples to `--out` as JSON, and ends
//! with one JSON result line per workload. It exits non-zero when an
//! output check fails. See `README.md` for the workloads and metrics.

mod compare;
mod golden;
mod layers;
mod metrics;
mod pipeline;
mod record;
mod stats;
mod workloads;

use record::RunRecord;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{RunSettings, WORKLOADS};

/// Seconds one run measures when `--seconds` is absent (`run_seconds`
/// in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 25.0;

/// Seed when `--seed` is absent: the paper protocol's base seed.
const DEFAULT_SEED: u64 = golden::GOLDEN_SEED;

/// Hidden subcommand the parent runs each workload under.
const CHILD: &str = "__workload";

const USAGE: &str = "usage:
  nrlt-benchmark run [--workload W|all] [--seed N] [--seconds S] [--trace 0|1 | --traced]
                     [--out DIR] [--bless]
  nrlt-benchmark compare A/ B/ [--claim METRIC@WORKLOAD]";

/// Where runs, traced span bundles and scratch files go by default.
fn target_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target")
}

/// Options of `run` (and of the child it starts per workload).
struct RunArgs {
    workloads: Vec<&'static workloads::Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
    bless: bool,
    tmp: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workloads: WORKLOADS.iter().collect(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: target_dir().join("runs"),
        bless: false,
        tmp: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if w != "all" {
                    r.workloads = vec![workloads::find(w).ok_or(format!("unknown workload {w}"))?];
                }
            }
            "--seed" => r.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                r.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(r.seconds.is_finite() && r.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                r.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--traced" => r.traced = true,
            "--out" => r.out = PathBuf::from(value()?),
            "--bless" => r.bless = true,
            "--tmp" => r.tmp = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if r.bless && (r.seed != golden::GOLDEN_SEED || r.traced) {
        return Err(format!("--bless needs a timed run at --seed {}", golden::GOLDEN_SEED));
    }
    Ok(r)
}

/// The child: run one workload in this process and print its record.
fn child(args: RunArgs) -> ExitCode {
    let tmp = args.tmp.unwrap_or_else(std::env::temp_dir);
    let settings = RunSettings {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        goldens: golden::Goldens::committed(args.bless),
        scratch: tmp.join("bundles"),
        traced_dir: target_dir().join("traced"),
    };
    let record = workloads::run(args.workloads[0], &settings);
    println!("{}", record.to_json());
    ExitCode::SUCCESS
}

/// Run one workload in a child process and return its record.
fn spawn(w: &workloads::Workload, args: &RunArgs) -> Result<RunRecord, String> {
    let tmp = target_dir().join("tmp").join(format!("{}-{}", w.name, std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg(CHILD)
        .args(["--workload", w.name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .arg("--tmp")
        .arg(&tmp)
        // Spilled trace segments go to the temp dir: keep them here.
        .env("TMPDIR", &tmp)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.bless {
        cmd.arg("--bless");
    }
    let output = cmd.output().map_err(|e| format!("cannot start {}: {e}", w.name));
    let _ = std::fs::remove_dir_all(&tmp);
    let output = output?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", w.name, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or_default();
    RunRecord::from_json(line).map_err(|e| format!("{}: unreadable result: {e}", w.name))
}

fn run(args: RunArgs) -> ExitCode {
    let mut ok = true;
    for w in &args.workloads {
        let record = match spawn(w, &args) {
            Ok(record) => record,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let file = args.out.join(format!(
            "{}-seed{}-{}-{}.json",
            w.name,
            args.seed,
            if args.traced { "traced" } else { "timed" },
            record.started_unix_ms
        ));
        let written = std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(&file, record.to_json() + "\n"));
        if let Err(e) = written {
            eprintln!("error: cannot write {}: {e}", file.display());
            return ExitCode::FAILURE;
        }
        for m in &record.metrics {
            let s = &m.summary;
            println!(
                "{} {} {} {} n={} min={} max={}",
                w.name, m.name, s.median, m.unit, s.n, s.min, s.max
            );
        }
        for f in &record.failures {
            eprintln!("{} check failed: {f}", w.name);
        }
        ok &= record.correct();
        println!("{}", record.result_line());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let (dirs, rest) = args.split_at(args.len().min(2));
    let [a, b] = dirs else {
        return Err("compare needs two directories".into());
    };
    let target = match rest {
        [] => None,
        [flag, t] if flag == "--claim" => Some(compare::ClaimTarget::parse(t)?),
        _ => return Err(format!("unexpected arguments {rest:?}")),
    };
    let (report, flagged) = compare::compare(Path::new(a), Path::new(b), target.as_ref())?;
    print!("{report}");
    Ok(if flagged { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).map(run),
        Some(CHILD) => parse_run(&args[1..]).map(child),
        Some("compare") => compare(&args[1..]),
        _ => Err(USAGE.to_owned()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
