//! Coverage tests for engine paths the main suites don't hit:
//! rooted collectives, MPI_Barrier, chunked/guided schedules,
//! single-nowait, replicated burst kernels, and multi-node runs.

use nrlt_exec::{execute, EventInfo, ExecConfig, NullObserver, Observer, RuntimeKind, WorkItem};
use nrlt_prog::{Cost, IterCost, ProgramBuilder, Schedule};
use nrlt_sim::{JobLayout, Location, NoiseConfig, VirtualDuration, VirtualTime};

fn cfg(ranks: u32, tpr: u32, nodes: u32) -> ExecConfig {
    ExecConfig::jureca(nodes, JobLayout::block(ranks, tpr), 9).with_noise(NoiseConfig::silent())
}

#[derive(Default)]
struct EventLog(Vec<(Location, String)>);
impl Observer for EventLog {
    fn on_work(&mut self, _: Location, _: &WorkItem) -> VirtualDuration {
        VirtualDuration::ZERO
    }
    fn on_runtime(&mut self, _: Location, _: RuntimeKind, _: VirtualDuration) {}
    fn on_spin(&mut self, _: Location, _: VirtualDuration) {}
    fn on_event(&mut self, l: Location, _: VirtualTime, i: &EventInfo) -> VirtualDuration {
        self.0.push((l, format!("{i:?}")));
        VirtualDuration::ZERO
    }
    fn piggyback(&mut self, _: Location) -> u64 {
        0
    }
    fn sync_logical(&mut self, _: Location, _: u64) {}
    fn cache_footprint_per_location(&self) -> u64 {
        0
    }
    fn desync(&self) -> f64 {
        0.0
    }
}

#[test]
fn bcast_and_reduce_complete() {
    let mut pb = ProgramBuilder::new(4);
    for r in 0..4 {
        let mut rb = pb.rank(r);
        rb.scoped("main", |rb| {
            rb.bcast(0, 4096);
            rb.kernel(Cost::scalar(1_000_000 * (r as u64 + 1)), 0);
            rb.reduce(2, 512);
            rb.mpi_barrier();
        });
    }
    let p = pb.finish();
    p.validate().unwrap();
    let mut log = EventLog::default();
    let res = execute(&p, &cfg(4, 1, 1), &mut log);
    assert!(res.total > VirtualDuration::ZERO);
    // Three collective completions per rank.
    for r in 0..4 {
        let n = log.0.iter().filter(|(l, e)| l.rank == r && e.contains("CollectiveEnd")).count();
        assert_eq!(n, 3, "rank {r}");
    }
}

#[test]
fn chunked_and_guided_schedules_run() {
    for schedule in [Schedule::StaticChunk(7), Schedule::Guided, Schedule::Dynamic(16)] {
        let mut pb = ProgramBuilder::new(1);
        {
            let mut rb = pb.rank(0);
            rb.scoped("main", |rb| {
                rb.parallel("p", |omp| {
                    omp.for_loop("l", 1000, schedule, IterCost::Uniform(Cost::scalar(10_000)), 0);
                });
            });
        }
        let p = pb.finish();
        let mut log = EventLog::default();
        let res = execute(&p, &cfg(1, 4, 1), &mut log);
        assert!(res.total > VirtualDuration::ZERO, "{schedule:?}");
        // All four threads entered the loop region.
        for t in 0..4 {
            assert!(
                log.0.iter().any(|(l, e)| l.thread == t && e.contains("Enter")),
                "{schedule:?}: thread {t} missing"
            );
        }
    }
}

#[test]
fn multi_node_collectives_cost_more_than_single_node() {
    let build = |ranks: u32| {
        let mut pb = ProgramBuilder::new(ranks);
        for r in 0..ranks {
            let mut rb = pb.rank(r);
            rb.scoped("main", |rb| {
                for _ in 0..100 {
                    rb.allreduce(1 << 16);
                }
            });
        }
        pb.finish()
    };
    // 32 ranks on one node (shared memory) vs 32 ranks over two nodes.
    let p = build(32);
    let single = execute(&p, &cfg(32, 4, 1), &mut NullObserver).total;
    let multi = execute(
        &p,
        &ExecConfig::jureca(2, JobLayout::block(32, 8), 9).with_noise(NoiseConfig::silent()),
        &mut NullObserver,
    )
    .total;
    assert!(multi > single, "inter-node collectives must cost more: {multi} vs {single}");
}

#[test]
fn replicated_burst_emits_per_thread_events() {
    let mut pb = ProgramBuilder::new(1);
    {
        let mut rb = pb.rank(0);
        rb.parallel("p", |omp| {
            omp.replicated(Cost::scalar(100_000), 0);
            omp.barrier();
        });
    }
    let p = pb.finish();
    let mut log = EventLog::default();
    execute(&p, &cfg(1, 4, 1), &mut log);
    // Explicit barrier events for every thread.
    let barrier_enters = log.0.iter().filter(|(_, e)| e.contains("Enter")).count();
    assert!(barrier_enters >= 4 * 3, "parallel + barriers per thread: {barrier_enters}");
}

#[test]
fn single_nowait_does_not_synchronise() {
    // Not exposed via the builder (which always adds the barrier), so
    // construct the action directly.
    use nrlt_prog::{Action, Kernel, OmpAction, ParallelRegion, RegionKind};
    let mut pb = ProgramBuilder::new(1);
    let p = {
        let mut rb = pb.rank(0);
        rb.enter("main");
        rb.leave();
        let mut prog = pb.finish();
        let region = prog.regions.intern("!$omp parallel @nw", RegionKind::OmpParallel);
        let single = prog.regions.intern("!$omp single @init", RegionKind::OmpSingle);
        prog.ranks[0].insert(
            1,
            Action::Parallel(ParallelRegion {
                region,
                body: [OmpAction::Single {
                    region: single,
                    kernel: Kernel::new(Cost::scalar(10_000_000), 0),
                    nowait: true,
                }]
                .into(),
            }),
        );
        prog
    };
    let mut log = EventLog::default();
    let res = execute(&p, &cfg(1, 4, 1), &mut log);
    // Only the executing thread carries the single's work; without the
    // single barrier only the region-end barrier synchronises.
    assert!(res.total > VirtualDuration::from_millis(2));
}

#[test]
fn empty_loop_and_tiny_teams_are_fine() {
    let mut pb = ProgramBuilder::new(1);
    {
        let mut rb = pb.rank(0);
        rb.scoped("main", |rb| {
            rb.parallel("p", |omp| {
                omp.for_loop("empty", 0, Schedule::Static, IterCost::Uniform(Cost::ZERO), 0);
                omp.for_loop(
                    "fewer_iters_than_threads",
                    2,
                    Schedule::Static,
                    IterCost::Uniform(Cost::scalar(1000)),
                    0,
                );
            });
        });
    }
    let p = pb.finish();
    let res = execute(&p, &cfg(1, 8, 1), &mut NullObserver);
    assert!(res.total > VirtualDuration::ZERO);
}
