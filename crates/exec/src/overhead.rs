//! OpenMP runtime overhead model.
//!
//! Iwainsky et al. ("How many threads will be too many?") showed that
//! OpenMP construct overheads grow with team size and differ between
//! implementations; the paper leans on that observation when it assigns
//! the LLVM-clock constants for runtime calls. This model provides the
//! physical-time costs of the simulated runtime: forking a team,
//! dispatching worksharing loops, and synchronising at barriers.
//!
//! Calibrated to typical LLVM/GNU OpenMP runtimes on a 2.25 GHz EPYC:
//! ~1-2 us fork for small teams, tens of us for 128 threads.

/// Fixed cost of entering a parallel region, seconds.
const FORK_BASE: f64 = 1.6e-6;

/// Additional fork cost per team thread, seconds.
const FORK_PER_THREAD: f64 = 0.2e-6;

/// Cost of joining (implicit barrier + teardown) at region end, seconds,
/// in addition to the barrier itself.
pub(crate) const JOIN_COST: f64 = 0.8e-6;

/// Per-thread cost of starting a static worksharing loop, seconds.
const DISPATCH_STATIC: f64 = 0.15e-6;

/// Per-chunk acquisition cost under dynamic/guided schedules, seconds.
pub(crate) const DISPATCH_DYNAMIC: f64 = 0.3e-6;

/// Base cost of a barrier, seconds.
const BARRIER_BASE: f64 = 1.0e-6;

/// Barrier cost factor per log2(team size), seconds.
const BARRIER_LOG: f64 = 0.9e-6;

/// Wake-up delay of worker thread `t` after a fork: `t × this`, seconds.
/// Workers do not start simultaneously.
pub(crate) const WAKE_STAGGER: f64 = 0.06e-6;

/// Cost of one critical-section lock acquire/release pair, seconds.
pub(crate) const CRITICAL_LOCK: f64 = 0.5e-6;

/// Cost for the master to fork a team of `n` threads, seconds.
pub(crate) fn fork_cost(n: u32) -> f64 {
    FORK_BASE + FORK_PER_THREAD * n as f64
}

/// Delay before worker `thread` starts executing after the fork.
pub(crate) fn wake_delay(thread: u32) -> f64 {
    WAKE_STAGGER * thread as f64
}

/// Time between the last thread arriving at a barrier and the team
/// being released, seconds.
pub(crate) fn barrier_cost(n: u32) -> f64 {
    let stages = (n.max(2) as f64).log2().ceil();
    BARRIER_BASE + BARRIER_LOG * stages
}

/// Per-thread overhead of starting a worksharing loop with `chunks`
/// chunk acquisitions (1 for static).
pub(crate) fn loop_dispatch_cost(dynamic: bool, chunks: usize) -> f64 {
    if dynamic {
        DISPATCH_DYNAMIC * chunks as f64
    } else {
        DISPATCH_STATIC
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_grows_with_team() {
        assert!(fork_cost(128) > fork_cost(4) * 3.0);
    }

    #[test]
    fn barrier_grows_logarithmically() {
        let b4 = barrier_cost(4);
        let b128 = barrier_cost(128);
        assert!(b128 > b4);
        assert!(b128 < b4 * 4.0, "barrier growth must be logarithmic");
    }

    #[test]
    fn dynamic_dispatch_scales_with_chunks() {
        assert!(loop_dispatch_cost(true, 100) > loop_dispatch_cost(true, 1) * 50.0);
        assert_eq!(loop_dispatch_cost(false, 100), loop_dispatch_cost(false, 1));
    }

    #[test]
    fn wake_delay_staggers_threads() {
        assert_eq!(wake_delay(0), 0.0);
        assert!(wake_delay(5) > wake_delay(2));
    }
}
