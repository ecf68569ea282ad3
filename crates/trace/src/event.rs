//! Event records.
//!
//! Every location (rank × thread) owns an ordered stream of timestamped
//! events. Timestamps are plain `u64` — virtual nanoseconds under the
//! physical clock, counter values under a logical clock. The analyzer is
//! deliberately clock-agnostic: it computes severities as timestamp
//! differences whatever the unit, exactly as Scalasca does when fed
//! logical traces in the paper.

use crate::defs::RegionRef;

/// Which collective operation a [`EventKind::CollectiveEnd`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CollectiveOp {
    /// `MPI_Barrier`.
    Barrier = 0,
    /// `MPI_Allreduce`.
    Allreduce = 1,
    /// `MPI_Alltoall`.
    Alltoall = 2,
    /// `MPI_Allgather`.
    Allgather = 3,
    /// `MPI_Bcast`.
    Bcast = 4,
    /// `MPI_Reduce`.
    Reduce = 5,
}

impl CollectiveOp {
    /// Decode from the wire byte.
    pub fn from_u8(v: u8) -> Option<CollectiveOp> {
        Some(match v {
            0 => CollectiveOp::Barrier,
            1 => CollectiveOp::Allreduce,
            2 => CollectiveOp::Alltoall,
            3 => CollectiveOp::Allgather,
            4 => CollectiveOp::Bcast,
            5 => CollectiveOp::Reduce,
            _ => return None,
        })
    }

    /// True for the N×N collectives (wait time classified as `wait_nxn`).
    pub fn is_nxn(self) -> bool {
        matches!(self, CollectiveOp::Allreduce | CollectiveOp::Alltoall | CollectiveOp::Allgather)
    }
}

/// Sentinel for "no root" in collective records.
pub const NO_ROOT: u32 = u32::MAX;

/// The payload of one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Enter a region.
    Enter {
        /// Region entered.
        region: RegionRef,
    },
    /// Leave a region.
    Leave {
        /// Region left.
        region: RegionRef,
    },
    /// Summary of `count` enter/leave pairs of `region` spanning
    /// `[start, event time]` — the trace-compression representation of a
    /// burst of fine-grained function calls (see `nrlt_prog::CallBurst`).
    CallBurst {
        /// Callee region.
        region: RegionRef,
        /// Number of calls summarised.
        count: u64,
        /// Timestamp of the first call's enter.
        start: u64,
    },
    /// A message send was initiated (inside `MPI_Send`/`MPI_Isend`).
    /// The event time is the send start used by late-sender analysis.
    SendPost {
        /// Destination rank.
        peer: u32,
        /// Message tag.
        tag: u32,
        /// Payload bytes.
        bytes: u64,
    },
    /// A receive was posted (inside `MPI_Recv`/`MPI_Irecv`). The event
    /// time is the post time used by late-receiver analysis.
    RecvPost {
        /// Source rank.
        peer: u32,
        /// Message tag.
        tag: u32,
        /// Payload bytes.
        bytes: u64,
    },
    /// A posted receive completed (inside `MPI_Recv`/`MPI_Wait(all)`).
    /// Completions pair with posts FIFO per `(peer, tag)`.
    RecvComplete {
        /// Source rank.
        peer: u32,
        /// Message tag.
        tag: u32,
        /// Payload bytes.
        bytes: u64,
    },
    /// A collective completed on this location. The k-th collective
    /// record of every rank (in stream order) belongs to the same
    /// collective instance, as MPI mandates a single collective order
    /// per communicator.
    CollectiveEnd {
        /// Operation kind.
        op: CollectiveOp,
        /// Bytes contributed per rank.
        bytes: u64,
        /// Root rank, or [`NO_ROOT`].
        root: u32,
    },
}

/// One timestamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Timestamp in the trace's clock.
    pub time: u64,
    /// Payload.
    pub kind: EventKind,
}

impl Event {
    /// Convenience constructor.
    pub fn new(time: u64, kind: EventKind) -> Event {
        Event { time, kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collective_op_roundtrip() {
        for v in 0..=5u8 {
            assert_eq!(CollectiveOp::from_u8(v).unwrap() as u8, v);
        }
        assert_eq!(CollectiveOp::from_u8(6), None);
    }

    #[test]
    fn nxn_ops() {
        assert!(CollectiveOp::Allreduce.is_nxn());
        assert!(CollectiveOp::Alltoall.is_nxn());
        assert!(CollectiveOp::Allgather.is_nxn());
        assert!(!CollectiveOp::Barrier.is_nxn());
        assert!(!CollectiveOp::Bcast.is_nxn());
    }
}
