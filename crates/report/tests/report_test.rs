//! Acceptance contracts of the report layer:
//!
//! 1. The severity report of a noise-free run is byte-identical across
//!    worker counts and across repeated pipeline invocations.
//! 2. Per-name span self times, as the inspector aggregates them, add
//!    up to the root spans' inclusive times of a real pipeline run.
//! 3. The `nrlt-report` query subcommands reject a zero `--top`, a flag
//!    without its value, and an unknown flag with exit status 2, and
//!    the retired span views are unknown commands.

use nrlt_core::miniapps::{MiniFeConfig, MiniFeCosts};
use nrlt_core::prelude::*;
use nrlt_report::inspect::span_stats;
use nrlt_report::{severity_json, severity_text};

/// A deliberately tiny MiniFE so the whole protocol runs in seconds.
fn tiny_instance() -> BenchmarkInstance {
    MiniFeConfig {
        nx: 40,
        ranks: 2,
        threads_per_rank: 2,
        imbalance_pct: 50,
        cg_iters: 4,
        costs: MiniFeCosts::default(),
    }
    .build()
}

fn options(jobs: usize) -> ExperimentOptions {
    ExperimentOptions {
        repetitions: 2,
        base_seed: 4242,
        modes: vec![ClockMode::Tsc, ClockMode::Lt1],
        jobs,
        ..Default::default()
    }
}

#[test]
fn severity_report_is_byte_identical_across_jobs_and_repeats() {
    let instance = tiny_instance();
    let serial = nrlt_core::run_experiment(&instance, &options(1));
    let parallel = nrlt_core::run_experiment(&instance, &options(4));
    let repeat = nrlt_core::run_experiment(&instance, &options(1));

    let text = severity_text(&serial, 10);
    assert_eq!(text, severity_text(&parallel, 10), "severity text diverged across --jobs");
    assert_eq!(text, severity_text(&repeat, 10), "severity text diverged across repeats");

    let json = severity_json(&serial, 10);
    assert_eq!(json, severity_json(&parallel, 10), "severity JSON diverged across --jobs");
    assert_eq!(json, severity_json(&repeat, 10), "severity JSON diverged across repeats");

    // Sanity: the report actually carries content, not just headers.
    assert!(text.contains("tsc") && text.contains("lt_1"), "{text}");
    assert!(text.contains("hotspot"), "{text}");
    nrlt_core::telemetry::json::parse(&json).expect("severity JSON parses");
}

#[test]
fn span_self_times_conserve_root_span_inclusive_time() {
    let instance = tiny_instance();
    let tel = Telemetry::new();
    nrlt_core::run_experiment_instrumented(&instance, &options(2), Some(&tel), None, None);
    let spans = tel.spans();
    assert!(!spans.is_empty(), "pipeline emitted no spans");
    let self_ns: u64 = span_stats(&spans).iter().map(|s| s.self_ns).sum();
    let roots: u64 = spans.iter().filter(|s| s.depth == 0).map(|s| s.dur_ns).sum();
    assert_eq!(self_ns, roots, "span self times do not conserve root time");
}

/// Run `nrlt-report <cmd> <bundle> <args>` over a bundle directory
/// that does not exist: argument errors must surface before any load.
fn query_cli(cmd: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nrlt-report"))
        .arg(cmd)
        .arg("no-such-bundle")
        .args(args)
        .output()
        .expect("nrlt-report runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn query_cli_rejects_a_zero_top_with_status_2() {
    for cmd in ["observe", "engine"] {
        for args in [&["--top", "0"][..], &["--top=0"]] {
            let (code, stderr) = query_cli(cmd, args);
            assert_eq!(code, Some(2), "{cmd} {args:?}: {stderr}");
            assert!(stderr.contains("--top must be a positive integer"), "{stderr}");
        }
    }
}

#[test]
fn query_cli_rejects_a_missing_value_with_status_2() {
    for (cmd, flag) in [("observe", "--run"), ("observe", "--wait"), ("engine", "--diff")] {
        let (code, stderr) = query_cli(cmd, &[flag]);
        assert_eq!(code, Some(2), "{cmd} {flag}: {stderr}");
        assert!(stderr.contains(&format!("{flag} requires a value")), "{stderr}");
    }
}

#[test]
fn query_cli_rejects_an_unknown_flag_with_status_2() {
    for (cmd, flag) in [("observe", "--diff"), ("engine", "--wait"), ("engine", "--bogus")] {
        let (code, stderr) = query_cli(cmd, &[flag, "x"]);
        assert_eq!(code, Some(2), "{cmd} {flag}: {stderr}");
        assert!(stderr.contains(&format!("unknown {cmd} argument \"{flag}\"")), "{stderr}");
    }
}

#[test]
fn retired_span_views_are_unknown_commands() {
    for cmd in ["flamegraph", "critical-path", "diff"] {
        let (code, stderr) = query_cli(cmd, &[]);
        assert_eq!(code, Some(2), "{cmd}: {stderr}");
        assert!(stderr.contains(&format!("unknown command \"{cmd}\"")), "{stderr}");
    }
}
