//! # nrlt-report — the read side of the observability stack
//!
//! The pipeline *writes* two kinds of artifacts: analysis results
//! (wait-state severities, delay costs, critical-path imbalance from
//! `nrlt-analysis` / `nrlt-profile`) and self-telemetry bundles
//! (`--telemetry <dir>` from `nrlt-telemetry`). This crate *reads* them —
//! the `cube_stat` / `scalasca -examine` analog the write side was
//! missing:
//!
//! * [`severity`] — a CUBE-style severity explorer over
//!   [`ExperimentResult`](nrlt_core::ExperimentResult): metric tree ×
//!   call path × location, with per-mode (`tsc` vs `lt_*`) side-by-side
//!   columns, top-N hotspot ranking, and a machine-readable JSON twin.
//! * [`bundle`] — loads a telemetry bundle's `metrics.jsonl` back into
//!   counters, histograms, and span records.
//! * [`inspect`] — per-span-name statistics (count, total, self time,
//!   self-time percentiles via [`nrlt_telemetry::Histogram`]).
//! * [`flame`] — collapsed-stack flamegraph export and per-track hot-path
//!   (critical-chain) extraction over pipeline spans.
//! * [`diff`] — span and counter deltas between two bundles.
//! * [`bench`] — the `BENCH_pipeline.json` perf-baseline format (moved
//!   here from `nrlt-bench` so both the writer and the gate share one
//!   parser) and the `bench-check` regression gate.
//! * [`observe`] — the resource-observatory explorer over `--observe`
//!   bundles (`nrlt-observe`): top contended resources per phase,
//!   noise share per wait-metric cell, wait-state provenance chains.
//! * [`engine`] — the engine-introspection view over `--engine-prof`
//!   bundles (`nrlt-engineprof`): per-event-kind cost KPIs, queue
//!   pressure, hot-loop allocations, and a bundle diff.
//! * [`archive`] — loads archived `report.json` severity documents and
//!   carves run-/top-N subsets out of them.
//! * [`query`] — the load-then-render query layer behind this crate's
//!   CLI, with fault-classified [`QueryError`]s (not-found vs bad-request vs corrupt-artifact).
//!
//! The `nrlt-report` binary exposes all of it on the command line; the
//! bench harness's `--report <dir>` flag writes `report.txt`,
//! `report.json`, and `flamegraph.folded` through the same code.
//!
//! Everything is deterministic by construction: reports over noise-free
//! runs are byte-identical across worker counts and repeats, which is
//! what lets CI diff them.

#![warn(missing_docs)]

pub mod archive;
pub mod bench;
pub mod bundle;
pub mod diff;
pub mod engine;
pub mod flame;
pub mod history;
pub mod inspect;
pub mod observe;
pub mod query;
pub mod severity;

pub use archive::{load_report_doc, run_names, severity_subset};
pub use bench::{bench_check, BenchEntry, GateReport, GateRow};
pub use bundle::Bundle;
pub use diff::diff_text;
pub use engine::{engine_diff, engine_text, load_engine_bundle, EngineBundle, EngineRun};
pub use flame::{
    escape_frame, folded, folded_from_counts, folded_totals, hot_paths_text, parse_folded,
    unescape_frame,
};
pub use history::{
    append_record, ewma_baseline, history_gate, read_history, trend_text, HistoryRecord,
    HISTORY_SCHEMA_VERSION,
};
pub use inspect::{inspect_text, span_stats, SpanStats};
pub use observe::{observe_text, wait_names};
pub use query::{engine_query, observe_query, severity_query, trend_query, QueryError};
pub use severity::{mode_text, severity_json, severity_text};
