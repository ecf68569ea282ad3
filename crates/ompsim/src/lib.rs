//! # nrlt-ompsim — OpenMP runtime semantics and cost models
//!
//! The OpenMP substrate: deterministic worksharing-loop schedules
//! (static, static-chunked, simulated dynamic and guided) and the
//! runtime's overhead model (fork/join, loop dispatch, barriers,
//! critical sections). Thread teams themselves are orchestrated by the
//! replay engine in `nrlt-exec`; this crate supplies the partitioning
//! and timing rules.
//!
//! The paper's `lt_loop` effort model counts exactly the loop iterations
//! these schedules hand out, and its OpenMP-runtime effort constants
//! (X = 100 basic blocks, Y = 4300 statements per runtime call) attach to
//! the constructs modelled here.

#![warn(missing_docs)]

pub mod overhead;
pub mod schedule;

pub use overhead::OmpOverheadModel;
pub use schedule::{simulate_dynamic, static_partition, DynamicResult, IterRange, LoopPartition};
