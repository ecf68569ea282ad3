//! OpenMP runtime overhead model.
//!
//! Iwainsky et al. ("How many threads will be too many?") showed that
//! OpenMP construct overheads grow with team size and differ between
//! implementations; the paper leans on that observation when it assigns
//! the LLVM-clock constants for runtime calls. This model provides the
//! physical-time costs of the simulated runtime: forking a team,
//! dispatching worksharing loops, and synchronising at barriers.

/// Cost parameters of the simulated OpenMP runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct OmpOverheadModel {
    /// Fixed cost of entering a parallel region, seconds.
    pub fork_base: f64,
    /// Additional fork cost per team thread, seconds.
    pub fork_per_thread: f64,
    /// Cost of joining (implicit barrier + teardown) at region end,
    /// seconds, in addition to the barrier itself.
    pub join_base: f64,
    /// Per-thread cost of starting a static worksharing loop, seconds.
    pub dispatch_static: f64,
    /// Per-chunk acquisition cost under dynamic/guided schedules, seconds.
    pub dispatch_dynamic: f64,
    /// Base cost of a barrier, seconds.
    pub barrier_base: f64,
    /// Barrier cost factor per log2(team size), seconds.
    pub barrier_log: f64,
    /// Wake-up delay of worker thread `t` after a fork: `t × this`,
    /// seconds. Workers do not start simultaneously.
    pub wake_stagger: f64,
    /// Cost of one critical-section lock acquire/release pair, seconds.
    pub critical_lock: f64,
}

impl Default for OmpOverheadModel {
    fn default() -> Self {
        // Calibrated to typical LLVM/GNU OpenMP runtimes on a 2.25 GHz
        // EPYC: ~1-2 us fork for small teams, tens of us for 128 threads.
        OmpOverheadModel {
            fork_base: 1.6e-6,
            fork_per_thread: 0.2e-6,
            join_base: 0.8e-6,
            dispatch_static: 0.15e-6,
            dispatch_dynamic: 0.3e-6,
            barrier_base: 1.0e-6,
            barrier_log: 0.9e-6,
            wake_stagger: 0.06e-6,
            critical_lock: 0.5e-6,
        }
    }
}

impl OmpOverheadModel {
    /// Cost for the master to fork a team of `n` threads, seconds.
    pub fn fork_cost(&self, n: u32) -> f64 {
        self.fork_base + self.fork_per_thread * n as f64
    }

    /// Delay before worker `thread` starts executing after the fork.
    pub fn wake_delay(&self, thread: u32) -> f64 {
        self.wake_stagger * thread as f64
    }

    /// Cost for the master to join/tear down a team, seconds.
    pub fn join_cost(&self) -> f64 {
        self.join_base
    }

    /// Time between the last thread arriving at a barrier and the team
    /// being released, seconds.
    pub fn barrier_cost(&self, n: u32) -> f64 {
        let stages = (n.max(2) as f64).log2().ceil();
        self.barrier_base + self.barrier_log * stages
    }

    /// Per-thread overhead of starting a worksharing loop with `chunks`
    /// chunk acquisitions (1 for static).
    pub fn loop_dispatch_cost(&self, dynamic: bool, chunks: usize) -> f64 {
        if dynamic {
            self.dispatch_dynamic * chunks as f64
        } else {
            self.dispatch_static
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_grows_with_team() {
        let m = OmpOverheadModel::default();
        assert!(m.fork_cost(128) > m.fork_cost(4) * 3.0);
    }

    #[test]
    fn barrier_grows_logarithmically() {
        let m = OmpOverheadModel::default();
        let b4 = m.barrier_cost(4);
        let b128 = m.barrier_cost(128);
        assert!(b128 > b4);
        assert!(b128 < b4 * 4.0, "barrier growth must be logarithmic");
    }

    #[test]
    fn dynamic_dispatch_scales_with_chunks() {
        let m = OmpOverheadModel::default();
        assert!(m.loop_dispatch_cost(true, 100) > m.loop_dispatch_cost(true, 1) * 50.0);
        assert_eq!(m.loop_dispatch_cost(false, 100), m.loop_dispatch_cost(false, 1));
    }

    #[test]
    fn wake_delay_staggers_threads() {
        let m = OmpOverheadModel::default();
        assert_eq!(m.wake_delay(0), 0.0);
        assert!(m.wake_delay(5) > m.wake_delay(2));
    }
}
