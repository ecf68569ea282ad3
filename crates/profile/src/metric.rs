//! The metric tree (Fig. 1 of the paper).
//!
//! Severities are stored *exclusively* per metric: a metric's inclusive
//! value is the sum over its subtree, Cube-style. `time` therefore has
//! exclusive severity zero — every measured nanosecond (or counter tick)
//! is classified into one of its leaves.

/// All metrics of the analysis. Order defines storage layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Metric {
    /// Total time (root; exclusive severity always zero).
    Time = 0,
    /// Useful computation in user code and OpenMP loop bodies.
    Comp = 1,
    /// MPI calls (exclusive: library time outside any wait pattern).
    Mpi = 2,
    /// Point-to-point communication (exclusive: non-wait p2p time).
    MpiP2p = 3,
    /// Receiver waiting for a late message.
    LateSender = 4,
    /// Sender waiting for a late receiver (rendezvous).
    LateReceiver = 5,
    /// Collective communication (exclusive: data movement).
    MpiCollective = 6,
    /// Waiting in MPI N×N collectives.
    WaitNxN = 7,
    /// OpenMP runtime (exclusive: misc runtime time).
    Omp = 8,
    /// Starting and ending parallel regions.
    OmpManagement = 9,
    /// Thread synchronisation (exclusive: zero, parent of the two below).
    OmpSync = 10,
    /// Waiting in OpenMP barriers (imbalanced arrival).
    OmpBarrierWait = 11,
    /// Barrier algorithm overhead after the last arrival.
    OmpBarrierOverhead = 12,
    /// Idle worker threads outside parallel regions.
    IdleThreads = 13,
    /// Delay costs: root causes of N×N collective wait time.
    DelayN2n = 14,
    /// Delay costs: root causes of late-sender wait time.
    DelayP2p = 15,
    /// Delay costs: root causes of OpenMP barrier wait time.
    DelayBarrier = 16,
    /// Number of visits (event count) — diagnostic.
    Visits = 17,
}

/// Number of metrics (storage dimension).
pub const N_METRICS: usize = 18;

impl Metric {
    /// All metrics in storage order.
    pub const ALL: [Metric; N_METRICS] = [
        Metric::Time,
        Metric::Comp,
        Metric::Mpi,
        Metric::MpiP2p,
        Metric::LateSender,
        Metric::LateReceiver,
        Metric::MpiCollective,
        Metric::WaitNxN,
        Metric::Omp,
        Metric::OmpManagement,
        Metric::OmpSync,
        Metric::OmpBarrierWait,
        Metric::OmpBarrierOverhead,
        Metric::IdleThreads,
        Metric::DelayN2n,
        Metric::DelayP2p,
        Metric::DelayBarrier,
        Metric::Visits,
    ];

    /// Parent in the metric tree (None for roots).
    pub(crate) fn parent(self) -> Option<Metric> {
        Some(match self {
            Metric::Time
            | Metric::DelayN2n
            | Metric::DelayP2p
            | Metric::DelayBarrier
            | Metric::Visits => return None,
            Metric::Comp | Metric::Mpi | Metric::Omp | Metric::IdleThreads => Metric::Time,
            Metric::MpiP2p | Metric::MpiCollective => Metric::Mpi,
            Metric::LateSender | Metric::LateReceiver => Metric::MpiP2p,
            Metric::WaitNxN => Metric::MpiCollective,
            Metric::OmpManagement | Metric::OmpSync => Metric::Omp,
            Metric::OmpBarrierWait | Metric::OmpBarrierOverhead => Metric::OmpSync,
        })
    }

    /// Children in the metric tree.
    pub fn children(self) -> &'static [Metric] {
        match self {
            Metric::Time => &[Metric::Comp, Metric::Mpi, Metric::Omp, Metric::IdleThreads],
            Metric::Mpi => &[Metric::MpiP2p, Metric::MpiCollective],
            Metric::MpiP2p => &[Metric::LateSender, Metric::LateReceiver],
            Metric::MpiCollective => &[Metric::WaitNxN],
            Metric::Omp => &[Metric::OmpManagement, Metric::OmpSync],
            Metric::OmpSync => &[Metric::OmpBarrierWait, Metric::OmpBarrierOverhead],
            _ => &[],
        }
    }

    /// This metric and every descendant.
    pub fn subtree(self) -> Vec<Metric> {
        let mut out = vec![self];
        let mut i = 0;
        while i < out.len() {
            out.extend_from_slice(out[i].children());
            i += 1;
        }
        out
    }

    /// True if `self` lies in the `time` hierarchy (counted toward the
    /// total the %_T normalisation divides by).
    pub(crate) fn is_time_metric(self) -> bool {
        let mut m = self;
        loop {
            if m == Metric::Time {
                return true;
            }
            match m.parent() {
                Some(p) => m = p,
                None => return false,
            }
        }
    }

    /// Display name (matching the paper's Fig. 1 where applicable).
    pub fn name(self) -> &'static str {
        match self {
            Metric::Time => "time",
            Metric::Comp => "comp",
            Metric::Mpi => "mpi",
            Metric::MpiP2p => "p2p",
            Metric::LateSender => "latesender",
            Metric::LateReceiver => "latereceiver",
            Metric::MpiCollective => "collective",
            Metric::WaitNxN => "wait_nxn",
            Metric::Omp => "omp",
            Metric::OmpManagement => "management",
            Metric::OmpSync => "synchronization",
            Metric::OmpBarrierWait => "barrier_wait",
            Metric::OmpBarrierOverhead => "barrier_overhead",
            Metric::IdleThreads => "idle_threads",
            Metric::DelayN2n => "delay_mpi_collective_n2n",
            Metric::DelayP2p => "delay_mpi_latesender",
            Metric::DelayBarrier => "delay_omp_barrier",
            Metric::Visits => "visits",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_every_metric_once() {
        assert_eq!(Metric::ALL.len(), N_METRICS);
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(*m as usize, i);
        }
    }

    #[test]
    fn parent_child_consistency() {
        for m in Metric::ALL {
            for &c in m.children() {
                assert_eq!(c.parent(), Some(m), "{c:?} must point back to {m:?}");
            }
            if let Some(p) = m.parent() {
                assert!(p.children().contains(&m), "{p:?} must list {m:?}");
            }
        }
    }

    #[test]
    fn time_subtree_covers_the_hierarchy() {
        let sub = Metric::Time.subtree();
        assert!(sub.contains(&Metric::LateSender));
        assert!(sub.contains(&Metric::OmpBarrierOverhead));
        assert!(sub.contains(&Metric::IdleThreads));
        assert!(!sub.contains(&Metric::DelayN2n));
        assert!(!sub.contains(&Metric::Visits));
        assert_eq!(sub.len(), 14);
    }

    #[test]
    fn time_metric_predicate() {
        assert!(Metric::WaitNxN.is_time_metric());
        assert!(Metric::Time.is_time_metric());
        assert!(!Metric::DelayN2n.is_time_metric());
        assert!(!Metric::Visits.is_time_metric());
    }
}
