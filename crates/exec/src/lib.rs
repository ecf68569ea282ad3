//! # nrlt-exec — discrete-event replay engine
//!
//! Executes program IR over virtual time on a simulated machine,
//! combining the MPI and OpenMP semantic models with the duration model
//! and noise injection. The measurement system hooks in through the
//! [`Observer`] trait, both *observing* the execution (events, work,
//! runtime time, spinning) and *perturbing* it (per-event overhead,
//! counting overhead, cache footprint, desynchronisation) — the two-way
//! coupling that lets this reproduction exhibit the paper's overhead
//! effects, including negative overheads and cache-pollution skew.

#![warn(missing_docs)]

pub mod config;
pub mod duration;
pub mod engine;
pub mod engineprof;
pub mod ladder;
pub mod observer;
pub mod regions;
pub mod result;

// The simulated MPI library: deterministic FIFO message matching (no
// wildcards in the paper's benchmarks), eager and rendezvous
// point-to-point protocols, and algorithmic collective cost models.
mod collective;
mod matching;
mod protocol;

// The simulated OpenMP runtime: worksharing-loop schedules and the
// runtime's overhead model. Thread teams themselves are orchestrated by
// the engine.
mod overhead;
mod schedule;

#[cfg(test)]
mod splitmix;

pub use config::ExecConfig;
pub use duration::{DurationModel, ExecPhase, KernelProbe};
pub use engine::{execute, execute_prepared_instrumented, WildcardBook, ANY_SOURCE};
pub use ladder::LadderQueue;
pub use matching::{Channel, Matcher};
pub use observer::{EventInfo, NullObserver, Observer, RuntimeKind, WorkItem};
pub use regions::{
    implicit_barrier_of, parallel_regions, prepare_regions, DerivedRegions, ParallelRegions,
};
pub use result::{overhead_percent, ExecResult};
