//! # nrlt-analysis — the Scalasca analog
//!
//! Automatic wait-state analysis of event traces: per-location replay,
//! deterministic message matching, the late-sender / late-receiver /
//! wait-at-N×N / barrier-wait patterns, idle-thread accounting, and
//! single-step delay-cost (root cause) attribution — all clock-agnostic,
//! so the same analysis runs on physical and logical traces, which is
//! the experimental setup of the paper.

#![warn(missing_docs)]

mod analyze;
mod causality;
mod combined;
mod critical;
mod delay;
mod idle;
mod patterns;
mod replay;

pub use analyze::{analyze, analyze_view, AnalysisConfig};
pub use causality::{assign_lamport_postprocess, verify_clock_condition};
pub use combined::{combine, CombinedCell, CombinedReport};
pub use critical::{critical_path, CriticalPath};
