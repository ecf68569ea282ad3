//! Acceptance contracts of the report layer:
//!
//! 1. The severity report of a noise-free run is byte-identical across
//!    worker counts and across repeated pipeline invocations.
//! 2. The flamegraph's folded-stack totals equal the sum of root-span
//!    inclusive times of the telemetry it collapsed.
//! 3. The `nrlt-report bench-check` binary exits nonzero on a
//!    synthetically injected 2× slowdown and zero within threshold.

use nrlt_core::miniapps::{MiniFeConfig, MiniFeCosts};
use nrlt_core::prelude::*;
use nrlt_report::{bench, folded, folded_totals, severity_json, severity_text};

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
fn flamegraph_totals_equal_root_span_inclusive_time() {
    let instance = tiny_instance();
    let tel = Telemetry::new();
    nrlt_core::run_experiment_instrumented(&instance, &options(2), Some(&tel), None, None);
    let spans = tel.spans();
    assert!(!spans.is_empty(), "pipeline emitted no spans");
    let doc = folded(&spans);
    let roots: u64 = spans.iter().filter(|s| s.depth == 0).map(|s| s.dur_ns).sum();
    assert_eq!(folded_totals(&doc), roots, "folded self-times do not conserve root time");
}

fn entry(run: &str, jobs: usize, wall: f64) -> bench::BenchEntry {
    bench::BenchEntry {
        bin: "fig3".into(),
        run: run.into(),
        jobs,
        host_parallelism: bench::host_parallelism(),
        wall_seconds: wall,
        events: 0,
        events_per_sec: 0.0,
        overhead_vs_plain_pct: None,
        peak_rss_bytes: 0,
    }
}

#[test]
fn bench_check_binary_gates_a_2x_slowdown() {
    let dir = std::env::temp_dir().join("nrlt-report-gate-test");
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("baseline.json");
    let slow = dir.join("slow.json");
    let fine = dir.join("fine.json");
    for p in [&baseline, &slow, &fine] {
        let _ = std::fs::remove_file(p);
    }
    bench::merge_and_write(&baseline, &[entry("MiniFE-1", 1, 1.0)]).unwrap();
    bench::merge_and_write(&slow, &[entry("MiniFE-1", 1, 2.0)]).unwrap();
    bench::merge_and_write(&fine, &[entry("MiniFE-1", 1, 1.1)]).unwrap();

    let gate = |current: &std::path::Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_nrlt-report"))
            .args(["bench-check", "--baseline"])
            .arg(&baseline)
            .arg("--current")
            .arg(current)
            .args(["--max-regress", "1.5"])
            .output()
            .expect("nrlt-report runs")
    };

    let regressed = gate(&slow);
    assert_eq!(regressed.status.code(), Some(1), "2x slowdown must exit 1");
    let stdout = String::from_utf8_lossy(&regressed.stdout);
    assert!(stdout.contains("REGRESSED"), "{stdout}");

    let ok = gate(&fine);
    assert_eq!(ok.status.code(), Some(0), "within-threshold run must exit 0");

    let usage = std::process::Command::new(env!("CARGO_BIN_EXE_nrlt-report"))
        .arg("bench-check")
        .output()
        .expect("nrlt-report runs");
    assert_eq!(usage.status.code(), Some(2), "missing flags are a usage error");
}

#[test]
fn bench_check_binary_gates_against_the_history_ledger() {
    use nrlt_report::{append_record, HistoryRecord, HISTORY_SCHEMA_VERSION};
    let dir = std::env::temp_dir().join("nrlt-report-history-gate-test");
    std::fs::create_dir_all(&dir).unwrap();
    let ledger = dir.join("history.jsonl");
    let slow = dir.join("slow.json");
    let fine = dir.join("fine.json");
    for p in [&ledger, &slow, &fine] {
        let _ = std::fs::remove_file(p);
    }
    // Two healthy runs establish the EWMA baseline at 1.0s.
    for (t, rev) in [(1_000, "aaaaaaa"), (2_000, "bbbbbbb")] {
        append_record(
            &ledger,
            &HistoryRecord {
                schema: HISTORY_SCHEMA_VERSION,
                unix_time: t,
                git_rev: rev.into(),
                host_parallelism: bench::host_parallelism(),
                bin: "fig3".into(),
                entries: vec![entry("MiniFE-1", 1, 1.0)],
                top_stacks: vec![("harness;experiment.mode_cell".into(), 7)],
                engineprof_eps: vec![("MiniFE-1".into(), 1e6)],
            },
        )
        .unwrap();
    }
    bench::merge_and_write(&slow, &[entry("MiniFE-1", 1, 2.0)]).unwrap();
    bench::merge_and_write(&fine, &[entry("MiniFE-1", 1, 1.1)]).unwrap();

    let gate = |current: &std::path::Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_nrlt-report"))
            .args(["bench-check", "--history"])
            .arg(&ledger)
            .arg("--current")
            .arg(current)
            .args(["--max-regress", "1.5"])
            .output()
            .expect("nrlt-report runs")
    };

    let regressed = gate(&slow);
    assert_eq!(regressed.status.code(), Some(1), "2x slowdown vs EWMA must exit 1");
    assert!(String::from_utf8_lossy(&regressed.stdout).contains("REGRESSED"));
    let ok = gate(&fine);
    assert_eq!(ok.status.code(), Some(0), "within-threshold run must exit 0: {ok:?}");

    // `trend` renders the same ledger byte-identically, run after run.
    let trend = |ledger: &std::path::Path| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_nrlt-report"))
            .arg("trend")
            .arg(ledger)
            .output()
            .expect("nrlt-report runs");
        assert_eq!(out.status.code(), Some(0), "trend must succeed: {out:?}");
        out.stdout
    };
    let first = trend(&ledger);
    assert_eq!(first, trend(&ledger), "trend output is not deterministic");
    let text = String::from_utf8_lossy(&first);
    assert!(text.contains("MiniFE-1"), "{text}");

    // --history and --baseline are mutually exclusive usage errors.
    let both = std::process::Command::new(env!("CARGO_BIN_EXE_nrlt-report"))
        .args(["bench-check", "--history"])
        .arg(&ledger)
        .args(["--baseline"])
        .arg(&fine)
        .args(["--current"])
        .arg(&fine)
        .output()
        .expect("nrlt-report runs");
    assert_eq!(both.status.code(), Some(2), "--history with --baseline is a usage error");
}
