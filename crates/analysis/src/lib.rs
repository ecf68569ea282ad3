//! # nrlt-analysis — the Scalasca analog
//!
//! Automatic wait-state analysis of event traces: per-location replay,
//! deterministic message matching, the late-sender / late-receiver /
//! wait-at-N×N / barrier-wait patterns, idle-thread accounting, and
//! single-step delay-cost (root cause) attribution — all clock-agnostic,
//! so the same analysis runs on physical and logical traces, which is
//! the experimental setup of the paper.

#![warn(missing_docs)]

pub mod analyze;
pub mod causality;
pub mod combined;
pub mod critical;
pub mod delay;
pub mod idle;
pub mod patterns;
pub mod replay;

pub use analyze::{analyze, analyze_view, AnalysisConfig};
pub use causality::{assign_lamport_postprocess, verify_clock_condition, Edge, EventId};
pub use combined::{combine, CombinedCell, CombinedReport, WAIT_METRICS};
pub use critical::{critical_path, CriticalPath};
pub use delay::SpanIndex;
pub use idle::IdleChunk;
pub use patterns::{BarrierInstance, CollectiveInstance, MatchedMessage};
pub use replay::{replay, LocalReplay, MpiInstance, SegClass, Segment};
