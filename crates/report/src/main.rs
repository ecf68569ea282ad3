//! `nrlt-report` — post-hoc explorer over run artifacts.
//!
//! Subcommands over a telemetry bundle directory (as written by any
//! bench bin's `--telemetry <dir>` / `--report <dir>` flags):
//!
//! ```text
//! nrlt-report inspect <bundle-dir>            span/counter/histogram stats
//! nrlt-report flamegraph <bundle-dir>         collapsed stacks on stdout
//! nrlt-report critical-path <bundle-dir>      dominant span chain per track
//! nrlt-report diff <bundle-a> <bundle-b>      what changed between two runs
//! ```
//!
//! The resource-observatory explorer over `--observe` bundles:
//!
//! ```text
//! nrlt-report observe <bundle-dir> [--run NAME] [--top K] [--wait metric#i]
//! ```
//!
//! The engine-introspection view over `--engine-prof` bundles:
//!
//! ```text
//! nrlt-report engine <bundle-dir> [--run NAME] [--top K] [--diff <bundle-dir>]
//! ```
//!
//! Exit status: 0 ok, 2 usage, I/O or artifact error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use nrlt_report::{diff_text, folded, hot_paths_text, inspect_text, Bundle};

const USAGE: &str = "\
usage: nrlt-report <command> [args]

commands:
  inspect <bundle-dir>         span statistics, counters, histograms
  flamegraph <bundle-dir>      collapsed-stack flamegraph to stdout
  critical-path <bundle-dir>   dominant span chain per track
  diff <bundle-a> <bundle-b>   compare two bundles
  observe <bundle-dir> [--run <name>] [--top <k>] [--wait <metric#i>]
                               resource observatory: contended resources per
                               phase, noise share per wait cell, provenance of
                               a named (default: the dominant) wait state
  engine <bundle-dir> [--run <name>] [--top <k>] [--diff <bundle-dir>]
                               engine introspection: per-event-kind cost KPIs,
                               events/sec, queue pressure, hot-loop allocations;
                               --diff compares the deterministic accounting of
                               two bundles

a bundle-dir is a directory containing metrics.jsonl, as written by the
bench bins' --telemetry/--report flags; for `observe` it is a directory
containing observe.jsonl, as written by the bins' --observe flag; for
`engine` it is a directory containing engineprof.json, as written by the
bins' --engine-prof flag.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("nrlt-report: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().map(String::as_str).ok_or("missing command")?;
    let text = match cmd {
        "inspect" => inspect_text(&load_bundle(args.get(1))?),
        "flamegraph" => folded(&load_bundle(args.get(1))?.spans),
        "critical-path" => hot_paths_text(&load_bundle(args.get(1))?.spans),
        "diff" => diff_text(&load_bundle(args.get(1))?, &load_bundle(args.get(2))?),
        "observe" => {
            let q = Query::parse(cmd, &["run", "top", "wait"], &args[1..])?;
            nrlt_report::observe_query(&q.dir, q.run.as_deref(), q.top, q.wait.as_deref())?
        }
        "engine" => {
            let q = Query::parse(cmd, &["run", "top", "diff"], &args[1..])?;
            match q.diff {
                Some(other) => nrlt_report::engine_diff(
                    &nrlt_report::load_engine_bundle(&q.dir)?,
                    &nrlt_report::load_engine_bundle(&other)?,
                ),
                None => nrlt_report::engine_query(&q.dir, q.run.as_deref(), q.top)?,
            }
        }
        "--help" | "-h" | "help" => format!("{USAGE}\n"),
        other => return Err(format!("unknown command {other:?}")),
    };
    print!("{text}");
    Ok(())
}

fn load_bundle(arg: Option<&String>) -> Result<Bundle, String> {
    let dir = arg.ok_or("missing bundle directory argument")?;
    Bundle::load(Path::new(dir))
}

/// The arguments of `observe` and `engine`: a bundle directory plus
/// `--run`, `--top`, `--wait` and `--diff`, each as `--flag value` or
/// `--flag=value`. A subcommand accepts only the flags it names.
struct Query {
    dir: PathBuf,
    run: Option<String>,
    top: usize,
    wait: Option<String>,
    diff: Option<PathBuf>,
}

impl Query {
    fn parse(cmd: &str, flags: &[&str], args: &[String]) -> Result<Query, String> {
        let mut dir: Option<PathBuf> = None;
        let mut q = Query { dir: PathBuf::new(), run: None, top: 5, wait: None, diff: None };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                if dir.replace(PathBuf::from(arg)).is_some() {
                    return Err(format!("unexpected {cmd} argument {arg:?}"));
                }
                continue;
            }
            let flag = arg.strip_prefix("--").unwrap_or(arg);
            let (name, inline) = match flag.split_once('=') {
                Some((name, value)) => (name, Some(value.to_owned())),
                None => (flag, None),
            };
            if !flags.contains(&name) {
                return Err(format!("unknown {cmd} argument {arg:?}"));
            }
            let value = match inline.or_else(|| it.next().cloned()) {
                Some(v) => v,
                None => return Err(format!("{arg} requires a value")),
            };
            match name {
                "run" => q.run = Some(value),
                "top" => {
                    let top = value.parse::<usize>().ok().filter(|v| *v >= 1);
                    q.top = top.ok_or_else(|| {
                        format!("--top must be a positive integer, got {value:?}")
                    })?;
                }
                "wait" => q.wait = Some(value),
                _ => q.diff = Some(PathBuf::from(value)),
            }
        }
        q.dir = dir.ok_or_else(|| format!("{cmd} requires a bundle directory argument"))?;
        Ok(q)
    }
}
