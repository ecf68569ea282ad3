//! Idle-thread accounting.
//!
//! Outside parallel regions, a rank's worker threads sit idle while the
//! master executes serial code and MPI calls. Scalasca charges this time
//! to the *idle threads* metric at the call paths of the master's serial
//! activity — which is how single-threaded phases (MiniFE's
//! `generate_matrix_structure`) and MPI wait time ("the wait time is
//! responsible for 15× as much idle time") surface as idle-thread
//! contributions in the paper.

use crate::replay::LocalReplay;
use nrlt_profile::CallPathId;

/// One idle contribution: the master spent `ticks` at `path` outside a
/// parallel region, so each of the rank's workers was idle for `ticks`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdleChunk {
    /// Master call path responsible.
    pub path: CallPathId,
    /// Duration in trace ticks.
    pub ticks: u64,
}

/// Compute the idle chunks of one rank from its master's replay: all
/// exclusive master activity outside parallel regions (computation,
/// management, and whole MPI calls including their wait states).
pub(crate) fn master_serial_chunks(master: &LocalReplay) -> Vec<IdleChunk> {
    let mut out = Vec::new();
    for s in &master.segments {
        if !s.in_parallel && s.dur() > 0 {
            out.push(IdleChunk { path: s.path, ticks: s.dur() });
        }
    }
    for m in &master.mpi_instances {
        if m.dur() > 0 {
            out.push(IdleChunk { path: m.path, ticks: m.dur() });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{MpiInstance, SegClass, Segment};

    #[test]
    fn serial_chunks_exclude_parallel_segments() {
        let master = LocalReplay {
            segments: vec![
                Segment {
                    path: CallPathId(0),
                    class: SegClass::Comp,
                    start: 0,
                    end: 10,
                    in_parallel: false,
                },
                Segment {
                    path: CallPathId(1),
                    class: SegClass::Comp,
                    start: 10,
                    end: 40,
                    in_parallel: true,
                },
                Segment {
                    path: CallPathId(2),
                    class: SegClass::Management,
                    start: 40,
                    end: 45,
                    in_parallel: false,
                },
            ],
            mpi_instances: vec![MpiInstance {
                path: CallPathId(3),
                enter: 45,
                leave: 75,
                collective: None,
            }],
            ..Default::default()
        };
        let chunks = master_serial_chunks(&master);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks.iter().map(|c| c.ticks).sum::<u64>(), 10 + 5 + 30);
        assert!(chunks.iter().all(|c| c.path != CallPathId(1)));
    }

    #[test]
    fn empty_master_yields_nothing() {
        let chunks = master_serial_chunks(&LocalReplay::default());
        assert!(chunks.is_empty());
    }
}
