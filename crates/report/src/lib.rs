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
//!   self-time percentiles via [`nrlt_telemetry::Histogram`]), the
//!   read side's only span view: span names split wall time per clock
//!   mode (`mode:tsc` vs `mode:lt_1`), which the sampler's static frames
//!   cannot. Where wall time goes otherwise is the sampler's question
//!   (`samples.folded`).
//! * [`flame`] — the collapsed-stack codec of the sampler's
//!   `samples.folded`.
//! * [`bench`](mod@bench) — host parallelism and peak-RSS (`VmHWM`)
//!   probes shared by the bench harness and the repository benchmark.
//! * [`observe`] — the resource-observatory explorer over `--observe`
//!   bundles (`nrlt-observe`): top contended resources per phase,
//!   noise share per wait-metric cell, wait-state provenance chains.
//! * [`engine`] — the engine-introspection view over `--engine-prof`
//!   bundles (`nrlt_exec::engineprof`): per-event-kind counts ranked by
//!   the sampler's `engine.<kind>` frames, queue pressure, hot-loop
//!   allocations, and a bundle diff.
//! * [`query`] — the load-then-render query layer behind this crate's
//!   CLI.
//!
//! The `nrlt-report` binary exposes all of it on the command line; the
//! bench harness's `--report <dir>` flag writes `report.txt` and
//! `report.json` through the same code.
//!
//! Everything is deterministic by construction: reports over noise-free
//! runs are byte-identical across worker counts and repeats, which is
//! what lets CI diff them.

#![warn(missing_docs)]

pub mod bench;
pub mod bundle;
pub mod engine;
pub mod flame;
pub mod inspect;
pub mod observe;
pub mod query;
pub mod severity;

pub use bundle::Bundle;
pub use engine::{engine_diff, load_engine_bundle, EngineBundle, EngineRun};
pub use flame::{folded_from_counts, parse_folded};
pub use inspect::inspect_text;
pub use query::{engine_query, observe_query};
pub use severity::{mode_text, severity_json, severity_text};
