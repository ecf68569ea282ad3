//! # nrlt-sim — simulation substrate
//!
//! The bottom layer of the noise-resilient logical timers reproduction:
//! virtual time, deterministic random streams, a cluster topology model,
//! rank/thread placement, noise injection, and the memory-hierarchy cost
//! model. Everything above (the MPI and OpenMP simulators, the replay
//! engine, the measurement system) is built on these primitives.
//!
//! Design rules:
//!
//! * **Determinism** — given an experiment seed, every simulated quantity
//!   is reproducible bit-for-bit, regardless of processing order. This is
//!   what lets the reproduction make the paper's central point: logical
//!   measurements are *identical* across repetitions while physical ones
//!   vary with the injected noise.
//! * **Analytic costs** — kernels are described by cost vectors, not
//!   executed numerics; durations come from a roofline-style model over
//!   the topology. The paper's conclusions depend on relative effort and
//!   contention shapes, which this model captures, not on simulated
//!   physics output.

#![warn(missing_docs)]

pub mod chacha;
pub mod memory;
pub mod noise;
pub mod placement;
pub mod rng;
pub mod time;
pub mod topology;

pub use chacha::ChaCha8;
pub use memory::{cache_bandwidth_share, dram_fraction, memory_time, shared_bandwidth};
pub use noise::{KernelNoise, NoiseConfig, NoiseModel};
pub use placement::{JobLayout, Location, PinPolicy, Placement};
pub use rng::{jitter_factor, RngFactory, StreamKind};
pub use time::{VirtualDuration, VirtualTime};
pub use topology::{CoreId, Machine, NodeId, NodeSpec, NumaId, SocketId};
