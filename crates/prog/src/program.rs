//! A complete multi-rank program and its static validation.

use crate::action::{Action, MpiOp, PhaseId};
use crate::region::{RegionKind, RegionTable};

/// A whole SPMD program: a region table shared by all ranks, a phase
/// (stopwatch) table, and one action list per rank.
#[derive(Debug, Clone)]
pub struct Program {
    /// Interned regions.
    pub regions: RegionTable,
    /// Stopwatch names, indexed by [`PhaseId`].
    pub phases: Vec<String>,
    /// Per-rank action lists.
    pub ranks: Vec<Vec<Action>>,
}

/// A structural problem found by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// Enter/Leave were not properly nested on a rank.
    UnbalancedRegions {
        /// Offending rank.
        rank: u32,
        /// Human-readable detail.
        detail: String,
    },
    /// A `Waitall` without pending non-blocking operations.
    SpuriousWaitall {
        /// Offending rank.
        rank: u32,
    },
    /// Non-blocking operations left pending at program end.
    DanglingRequests {
        /// Offending rank.
        rank: u32,
        /// Number of requests never completed.
        pending: usize,
    },
    /// A message endpoint referenced a rank outside the job.
    BadPeer {
        /// Offending rank.
        rank: u32,
        /// The referenced peer.
        peer: u32,
    },
    /// Point-to-point traffic does not pair up: per (src → dst, tag), the
    /// send and receive counts differ, which would deadlock the replay.
    UnmatchedTraffic {
        /// Sender rank.
        src: u32,
        /// Receiver rank.
        dst: u32,
        /// Message tag.
        tag: u32,
        /// Sends recorded.
        sends: usize,
        /// Receives recorded.
        recvs: usize,
    },
    /// A phase stopwatch was started twice or stopped while not running.
    PhaseMisuse {
        /// Offending rank.
        rank: u32,
        /// Phase index.
        phase: PhaseId,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::UnbalancedRegions { rank, detail } => {
                write!(f, "rank {rank}: unbalanced regions: {detail}")
            }
            ValidationError::SpuriousWaitall { rank } => {
                write!(f, "rank {rank}: MPI_Waitall without pending requests")
            }
            ValidationError::DanglingRequests { rank, pending } => {
                write!(f, "rank {rank}: {pending} non-blocking requests never completed")
            }
            ValidationError::BadPeer { rank, peer } => {
                write!(f, "rank {rank}: message endpoint {peer} outside job")
            }
            ValidationError::UnmatchedTraffic { src, dst, tag, sends, recvs } => {
                write!(f, "traffic {src}->{dst} tag {tag}: {sends} sends vs {recvs} receives")
            }
            ValidationError::PhaseMisuse { rank, phase } => {
                write!(f, "rank {rank}: phase {} started twice or stopped while idle", phase.0)
            }
        }
    }
}

impl std::error::Error for ValidationError {}

impl Program {
    /// Number of ranks.
    pub fn n_ranks(&self) -> u32 {
        self.ranks.len() as u32
    }

    /// Rough upper estimate of how many events one location's trace
    /// stream records when this program runs fully instrumented. Used to
    /// pre-size per-location event buffers (capacity only — over- or
    /// under-shooting is harmless).
    pub fn events_per_location_estimate(&self) -> usize {
        self.ranks.iter().map(|actions| Self::rank_event_estimate(actions)).max().unwrap_or(0)
    }

    fn rank_event_estimate(actions: &[Action]) -> usize {
        let mut n = 0usize;
        for a in actions {
            n += match a {
                // Serial events land on the master stream; team events
                // land on every team stream. Counting both into one
                // per-location bound over-reserves for workers and is
                // about right for masters — the streams that grow.
                Action::Enter(_) | Action::Leave(_) => 1,
                Action::Kernel(k) => usize::from(k.burst.is_some()),
                Action::PhaseStart(_) | Action::PhaseEnd(_) => 0,
                Action::Mpi(_) => 4,
                Action::Parallel(pr) => {
                    // Fork/join management + region enter/leave + end
                    // barrier, then per body construct.
                    let mut p = 8;
                    for b in pr.body.iter() {
                        p += match b {
                            crate::action::OmpAction::For(_) => 4,
                            crate::action::OmpAction::Barrier(_) => 2,
                            crate::action::OmpAction::Single { .. } => 4,
                            crate::action::OmpAction::Master { .. } => 2,
                            crate::action::OmpAction::Critical { .. } => 2,
                            crate::action::OmpAction::Replicated(k) => {
                                usize::from(k.burst.is_some())
                            }
                        };
                    }
                    p
                }
            };
        }
        n
    }

    /// Check structural invariants that would otherwise surface as
    /// hangs or panics deep inside the replay engine.
    pub fn validate(&self) -> Result<(), Vec<ValidationError>> {
        let mut errors = Vec::new();
        let n = self.n_ranks();
        let mut traffic: std::collections::HashMap<(u32, u32, u32), (usize, usize)> =
            std::collections::HashMap::new();
        // Wildcard receives per (dst, tag).
        let mut wildcards: std::collections::HashMap<(u32, u32), usize> =
            std::collections::HashMap::new();

        for (rank, actions) in self.ranks.iter().enumerate() {
            let rank = rank as u32;
            let mut stack: Vec<crate::region::RegionId> = Vec::new();
            let mut pending = 0usize;
            let mut running_phases = std::collections::HashSet::new();
            for action in actions {
                match action {
                    Action::Enter(r) => {
                        if self.regions.kind(*r) != RegionKind::User {
                            errors.push(ValidationError::UnbalancedRegions {
                                rank,
                                detail: format!(
                                    "explicit Enter of non-user region {:?}",
                                    self.regions.name(*r)
                                ),
                            });
                        }
                        stack.push(*r);
                    }
                    Action::Leave(r) => match stack.pop() {
                        Some(top) if top == *r => {}
                        Some(top) => errors.push(ValidationError::UnbalancedRegions {
                            rank,
                            detail: format!(
                                "Leave({}) does not match open region {}",
                                self.regions.name(*r),
                                self.regions.name(top)
                            ),
                        }),
                        None => errors.push(ValidationError::UnbalancedRegions {
                            rank,
                            detail: format!("Leave({}) with empty stack", self.regions.name(*r)),
                        }),
                    },
                    Action::Mpi(op) => {
                        match op {
                            MpiOp::Send { dest, tag, .. } | MpiOp::Isend { dest, tag, .. } => {
                                if *dest >= n {
                                    errors.push(ValidationError::BadPeer { rank, peer: *dest });
                                } else {
                                    traffic.entry((rank, *dest, *tag)).or_default().0 += 1;
                                }
                            }
                            MpiOp::Recv { src, tag, .. } | MpiOp::Irecv { src, tag, .. } => {
                                if *src >= n {
                                    errors.push(ValidationError::BadPeer { rank, peer: *src });
                                } else {
                                    traffic.entry((*src, rank, *tag)).or_default().1 += 1;
                                }
                            }
                            MpiOp::RecvAny { tag, .. } => {
                                *wildcards.entry((rank, *tag)).or_default() += 1;
                            }
                            MpiOp::Bcast { root, .. } | MpiOp::Reduce { root, .. }
                                if *root >= n =>
                            {
                                errors.push(ValidationError::BadPeer { rank, peer: *root });
                            }
                            _ => {}
                        }
                        match op {
                            MpiOp::Isend { .. }
                            | MpiOp::Irecv { .. }
                            | MpiOp::Iallreduce { .. }
                            | MpiOp::Ibarrier => pending += 1,
                            MpiOp::Waitall => {
                                if pending == 0 {
                                    errors.push(ValidationError::SpuriousWaitall { rank });
                                }
                                pending = 0;
                            }
                            _ => {}
                        }
                    }
                    Action::PhaseStart(p) => {
                        if !running_phases.insert(*p) {
                            errors.push(ValidationError::PhaseMisuse { rank, phase: *p });
                        }
                    }
                    Action::PhaseEnd(p) => {
                        if !running_phases.remove(p) {
                            errors.push(ValidationError::PhaseMisuse { rank, phase: *p });
                        }
                    }
                    Action::Kernel(_) | Action::Parallel(_) => {}
                }
            }
            if !stack.is_empty() {
                errors.push(ValidationError::UnbalancedRegions {
                    rank,
                    detail: format!("{} regions left open at program end", stack.len()),
                });
            }
            if pending > 0 {
                errors.push(ValidationError::DanglingRequests { rank, pending });
            }
        }

        // Per (dst, tag): surplus sends beyond specific receives must be
        // covered exactly by wildcard receives.
        let mut surplus: std::collections::HashMap<(u32, u32), i64> =
            std::collections::HashMap::new();
        for ((src, dst, tag), (sends, recvs)) in traffic {
            if sends < recvs {
                errors.push(ValidationError::UnmatchedTraffic { src, dst, tag, sends, recvs });
            } else if sends != recvs {
                *surplus.entry((dst, tag)).or_default() += (sends - recvs) as i64;
            }
        }
        let keys: std::collections::HashSet<(u32, u32)> =
            surplus.keys().chain(wildcards.keys()).copied().collect();
        for key in keys {
            let extra = surplus.get(&key).copied().unwrap_or(0);
            let wild = wildcards.get(&key).copied().unwrap_or(0) as i64;
            if extra != wild {
                errors.push(ValidationError::UnmatchedTraffic {
                    src: u32::MAX,
                    dst: key.0,
                    tag: key.1,
                    sends: extra as usize,
                    recvs: wild as usize,
                });
            }
        }

        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::cost::Cost;

    #[test]
    fn valid_pingpong_passes() {
        let mut pb = ProgramBuilder::new(2);
        {
            let mut rb = pb.rank(0);
            rb.enter("main");
            rb.send(1, 0, 1024);
            rb.recv(1, 1, 1024);
            rb.leave();
        }
        {
            let mut rb = pb.rank(1);
            rb.enter("main");
            rb.recv(0, 0, 1024);
            rb.send(0, 1, 1024);
            rb.leave();
        }
        let p = pb.finish();
        assert!(p.validate().is_ok());
        assert_eq!(p.n_ranks(), 2);
        assert_eq!(p.ranks.iter().map(Vec::len).sum::<usize>(), 8);
    }

    #[test]
    fn unmatched_send_detected() {
        let mut pb = ProgramBuilder::new(2);
        pb.rank(0).send(1, 0, 8);
        let p = pb.finish();
        let errs = p.validate().unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, ValidationError::UnmatchedTraffic { .. })));
    }

    #[test]
    fn unbalanced_regions_detected() {
        let mut pb = ProgramBuilder::new(1);
        pb.rank(0).enter("main");
        let p = pb.finish();
        let errs = p.validate().unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, ValidationError::UnbalancedRegions { .. })));
    }

    #[test]
    fn spurious_waitall_detected() {
        let mut pb = ProgramBuilder::new(1);
        pb.rank(0).waitall();
        let p = pb.finish();
        let errs = p.validate().unwrap_err();
        assert_eq!(errs, vec![ValidationError::SpuriousWaitall { rank: 0 }]);
    }

    #[test]
    fn dangling_requests_detected() {
        let mut pb = ProgramBuilder::new(2);
        pb.rank(0).isend(1, 0, 8);
        pb.rank(1).irecv(0, 0, 8);
        let p = pb.finish();
        let errs = p.validate().unwrap_err();
        assert_eq!(
            errs.iter().filter(|e| matches!(e, ValidationError::DanglingRequests { .. })).count(),
            2
        );
    }

    #[test]
    fn bad_peer_detected() {
        let mut pb = ProgramBuilder::new(1);
        pb.rank(0).send(5, 0, 8);
        let p = pb.finish();
        let errs = p.validate().unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, ValidationError::BadPeer { peer: 5, .. })));
    }

    #[test]
    fn phase_misuse_detected() {
        let mut pb = ProgramBuilder::new(1);
        {
            let mut rb = pb.rank(0);
            let p = rb.phase("init");
            rb.phase_start(p);
            rb.phase_start(p);
        }
        let p = pb.finish();
        let errs = p.validate().unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, ValidationError::PhaseMisuse { .. })));
    }

    #[test]
    fn kernel_and_parallel_do_not_affect_validation() {
        let mut pb = ProgramBuilder::new(1);
        {
            let mut rb = pb.rank(0);
            rb.enter("main");
            rb.kernel(Cost::scalar(100), 0);
            rb.parallel("pr", |omp| {
                omp.replicated(Cost::scalar(10), 0);
            });
            rb.leave();
        }
        assert!(pb.finish().validate().is_ok());
    }
}
