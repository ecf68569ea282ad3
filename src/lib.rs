//! # nrlt — noise-resilient logical timers
//!
//! Workspace umbrella crate: re-exports the full public API of the
//! reproduction of *"Are Noise-Resilient Logical Timers Useful for
//! Performance Analysis?"* (SC 2024) and hosts the repository-level
//! examples and integration tests. See the [`nrlt_core`] documentation
//! and the README for the tour.

#![warn(missing_docs)]

pub use nrlt_core::*;

// Direct access to the component crates under their short names.
pub use nrlt_core::{analysis, exec, measure_sys, miniapps, observe, profile, prog, sim, trace};

/// The read-side observability layer: severity explorer, telemetry
/// inspector, and the bench regression gate.
pub use nrlt_report as report;

/// Everything most programs need, in one import.
pub use nrlt_core::prelude;
