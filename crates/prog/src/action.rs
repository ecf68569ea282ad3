//! The action IR: what one MPI rank does, in order.
//!
//! A mini-app skeleton compiles to one `Vec<Action>` per rank. Control
//! flow is already unrolled (iteration counts in the paper's benchmarks do
//! not depend on received data), so the replay engine only needs to walk
//! the list and resolve timing and synchronisation.

use crate::cost::{Cost, IterCost};
use crate::region::RegionId;

/// Interned phase handle for application-level stopwatches (the mini-apps'
/// own timing output, used to compute reference times and overheads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhaseId(pub u32);

/// A block of computation executed by one thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Static cost of the whole block.
    pub cost: Cost,
    /// Bytes of application data this kernel streams over (cache model).
    pub working_set: u64,
    /// If set, the work happens inside `calls` invocations of `callee`:
    /// compiler instrumentation would record an enter/leave pair per call.
    /// The measurement layer summarises these as a call burst instead of
    /// materialising millions of events — the logical-clock and overhead
    /// accounting still see every call.
    pub burst: Option<CallBurst>,
}

/// Fine-grained function-call structure inside a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallBurst {
    /// The function being called repeatedly.
    pub callee: RegionId,
    /// Number of calls.
    pub calls: u64,
}

impl Kernel {
    /// A plain kernel with no interior calls.
    pub fn new(cost: Cost, working_set: u64) -> Kernel {
        Kernel { cost, working_set, burst: None }
    }
}

/// OpenMP loop schedule (subset the mini-apps use).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// `schedule(static)` — near-equal contiguous chunks.
    Static,
    /// `schedule(static, chunk)` — round-robin chunks of fixed size.
    StaticChunk(u64),
    /// `schedule(dynamic, chunk)` — threads grab chunks as they finish.
    Dynamic(u64),
    /// `schedule(guided)` — exponentially shrinking chunks.
    Guided,
}

/// A worksharing `for` loop inside a parallel region.
#[derive(Debug, Clone, PartialEq)]
pub struct OmpFor {
    /// The loop's Opari2-style region, e.g. `!$omp for @waxpby`.
    pub region: RegionId,
    /// Total iterations.
    pub iters: u64,
    /// Schedule clause.
    pub schedule: Schedule,
    /// Per-iteration cost.
    pub iter_cost: IterCost,
    /// Working set streamed by the whole loop.
    pub working_set: u64,
    /// `nowait` clause: skip the implicit barrier at loop end.
    pub nowait: bool,
}

/// One construct inside a parallel region, executed by the whole team.
#[derive(Debug, Clone, PartialEq)]
pub enum OmpAction {
    /// Worksharing loop (+ implicit barrier unless `nowait`).
    For(OmpFor),
    /// Explicit `#pragma omp barrier`.
    Barrier(RegionId),
    /// `single` construct: the first-arriving thread runs the kernel,
    /// everyone synchronises at its implicit barrier unless `nowait`.
    Single {
        /// Region of the construct.
        region: RegionId,
        /// Work done by the executing thread.
        kernel: Kernel,
        /// `nowait` clause.
        nowait: bool,
    },
    /// `master` construct: thread 0 runs the kernel, no barrier.
    Master {
        /// Region of the construct.
        region: RegionId,
        /// Work done by the master thread.
        kernel: Kernel,
    },
    /// `critical` section entered once by every thread, serialised.
    Critical {
        /// Region of the construct.
        region: RegionId,
        /// Work done inside the critical section, per thread.
        cost: Cost,
    },
    /// SPMD block: every thread executes the same kernel.
    Replicated(Kernel),
}

/// A `#pragma omp parallel` region.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelRegion {
    /// Region of the parallel construct itself.
    pub region: RegionId,
    /// Constructs executed by the team, in order.
    pub body: Vec<OmpAction>,
}

/// An MPI operation issued by the rank's master thread.
///
/// Non-blocking operations push a request onto the rank's pending list;
/// `Waitall` completes every pending request, mirroring the
/// post-all-then-waitall pattern the mini-apps use.
#[derive(Debug, Clone, PartialEq)]
pub enum MpiOp {
    /// Blocking standard-mode send.
    Send {
        /// Destination rank.
        dest: u32,
        /// Message tag.
        tag: u32,
        /// Payload size.
        bytes: u64,
    },
    /// Blocking receive from a specific source (deterministic matching).
    Recv {
        /// Source rank.
        src: u32,
        /// Message tag.
        tag: u32,
        /// Payload size.
        bytes: u64,
    },
    /// Blocking wildcard receive (`MPI_ANY_SOURCE`): matches whichever
    /// eligible message was sent first. Matching becomes
    /// *timing-dependent*, so logical traces lose their repetition
    /// invariance — the limitation Section II of the paper describes.
    RecvAny {
        /// Message tag.
        tag: u32,
        /// Payload size.
        bytes: u64,
    },
    /// Non-blocking send.
    Isend {
        /// Destination rank.
        dest: u32,
        /// Message tag.
        tag: u32,
        /// Payload size.
        bytes: u64,
    },
    /// Non-blocking receive.
    Irecv {
        /// Source rank.
        src: u32,
        /// Message tag.
        tag: u32,
        /// Payload size.
        bytes: u64,
    },
    /// Non-blocking `MPI_Iallreduce`; completes in `Waitall`.
    Iallreduce {
        /// Bytes per rank.
        bytes: u64,
    },
    /// Non-blocking `MPI_Ibarrier`; completes in `Waitall`.
    Ibarrier,
    /// Complete all pending non-blocking operations.
    Waitall,
    /// `MPI_Barrier` on the world communicator.
    Barrier,
    /// `MPI_Allreduce`: `bytes` contributed per rank.
    Allreduce {
        /// Bytes per rank.
        bytes: u64,
    },
    /// `MPI_Alltoall`(v): `bytes` exchanged with each peer.
    Alltoall {
        /// Bytes per peer.
        bytes: u64,
    },
    /// `MPI_Allgather`: `bytes` contributed per rank.
    Allgather {
        /// Bytes per rank.
        bytes: u64,
    },
    /// `MPI_Bcast` from `root`.
    Bcast {
        /// Root rank.
        root: u32,
        /// Payload size.
        bytes: u64,
    },
    /// `MPI_Reduce` to `root`.
    Reduce {
        /// Root rank.
        root: u32,
        /// Bytes per rank.
        bytes: u64,
    },
}

impl MpiOp {
    /// Canonical API name, used as the region name in traces.
    pub fn api_name(&self) -> &'static str {
        match self {
            MpiOp::Send { .. } => "MPI_Send",
            MpiOp::Recv { .. } => "MPI_Recv",
            MpiOp::RecvAny { .. } => "MPI_Recv",
            MpiOp::Isend { .. } => "MPI_Isend",
            MpiOp::Irecv { .. } => "MPI_Irecv",
            MpiOp::Iallreduce { .. } => "MPI_Iallreduce",
            MpiOp::Ibarrier => "MPI_Ibarrier",
            MpiOp::Waitall => "MPI_Waitall",
            MpiOp::Barrier => "MPI_Barrier",
            MpiOp::Allreduce { .. } => "MPI_Allreduce",
            MpiOp::Alltoall { .. } => "MPI_Alltoall",
            MpiOp::Allgather { .. } => "MPI_Allgather",
            MpiOp::Bcast { .. } => "MPI_Bcast",
            MpiOp::Reduce { .. } => "MPI_Reduce",
        }
    }
}

/// One step of a rank's program.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Enter a user region (function).
    Enter(RegionId),
    /// Leave the matching user region (carried for validation).
    Leave(RegionId),
    /// Serial computation on the master thread.
    Kernel(Kernel),
    /// OpenMP parallel region.
    Parallel(ParallelRegion),
    /// MPI call.
    Mpi(MpiOp),
    /// Start an application stopwatch.
    PhaseStart(PhaseId),
    /// Stop an application stopwatch.
    PhaseEnd(PhaseId),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn api_names() {
        assert_eq!(MpiOp::Waitall.api_name(), "MPI_Waitall");
        assert_eq!(MpiOp::Allreduce { bytes: 8 }.api_name(), "MPI_Allreduce");
    }

    #[test]
    fn kernel_constructors() {
        let k = Kernel::new(Cost::scalar(10), 64);
        assert!(k.burst.is_none());
    }
}
