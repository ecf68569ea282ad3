//! Engine behaviour tests: synchronisation semantics, determinism,
//! observer callback protocol.

use nrlt_exec::engineprof::{EventKind, RunProf};
use nrlt_exec::{
    execute, execute_prepared_instrumented, overhead_percent, prepare_regions, EventInfo,
    ExecConfig, NullObserver, Observer, RuntimeKind, WorkItem,
};
use nrlt_prog::{Cost, IterCost, ProgramBuilder, RegionKind, Schedule};
use nrlt_sim::{JobLayout, Location, NoiseConfig, VirtualDuration, VirtualTime};

fn silent_config(ranks: u32, tpr: u32, nodes: u32) -> ExecConfig {
    ExecConfig::jureca(nodes, JobLayout::block(ranks, tpr), 42).with_noise(NoiseConfig::silent())
}

/// Observer that records every callback for assertions.
#[derive(Default)]
struct Recorder {
    events: Vec<(Location, u64, String)>,
    spins: Vec<(Location, VirtualDuration)>,
    syncs: Vec<(Location, u64)>,
    work: Vec<(Location, WorkItem)>,
    runtime_omp: VirtualDuration,
    runtime_mpi: VirtualDuration,
}

impl Observer for Recorder {
    fn on_work(&mut self, loc: Location, w: &WorkItem) -> VirtualDuration {
        self.work.push((loc, *w));
        VirtualDuration::ZERO
    }
    fn on_runtime(&mut self, _loc: Location, kind: RuntimeKind, d: VirtualDuration) {
        match kind {
            RuntimeKind::Mpi => self.runtime_mpi += d,
            RuntimeKind::Omp => self.runtime_omp += d,
        }
    }
    fn on_spin(&mut self, loc: Location, d: VirtualDuration) {
        self.spins.push((loc, d));
    }
    fn on_event(&mut self, loc: Location, now: VirtualTime, info: &EventInfo) -> VirtualDuration {
        self.events.push((loc, now.nanos(), format!("{info:?}")));
        VirtualDuration::ZERO
    }
    fn piggyback(&mut self, _loc: Location) -> u64 {
        7
    }
    fn sync_logical(&mut self, loc: Location, incoming: u64) {
        self.syncs.push((loc, incoming));
    }
    fn cache_footprint_per_location(&self) -> u64 {
        0
    }
    fn desync(&self) -> f64 {
        0.0
    }
}

fn pingpong() -> nrlt_prog::Program {
    let mut pb = ProgramBuilder::new(2);
    {
        let mut rb = pb.rank(0);
        rb.scoped("main", |rb| {
            rb.kernel(Cost::scalar(1_000_000), 0);
            rb.send(1, 0, 1024);
            rb.recv(1, 1, 1024);
        });
    }
    {
        let mut rb = pb.rank(1);
        rb.scoped("main", |rb| {
            rb.recv(0, 0, 1024);
            rb.send(0, 1, 1024);
        });
    }
    pb.finish()
}

#[test]
fn pingpong_completes_and_orders_times() {
    let p = pingpong();
    p.validate().unwrap();
    let cfg = silent_config(2, 1, 1);
    let mut obs = NullObserver;
    let res = execute(&p, &cfg, &mut obs);
    assert!(res.total > VirtualDuration::ZERO);
    // Rank 1 cannot finish before rank 0 sent (rank 0 computes first).
    assert!(res.rank_end[1] > VirtualTime::ZERO);
}

#[test]
fn late_sender_blocks_receiver_and_spins() {
    let p = pingpong();
    let cfg = silent_config(2, 1, 1);
    let mut rec = Recorder::default();
    execute(&p, &cfg, &mut rec);
    // Rank 1 posted its receive immediately while rank 0 was computing
    // ~222us of work: rank 1 must have spun for roughly that long.
    let spin1: u64 = rec.spins.iter().filter(|(l, _)| l.rank == 1).map(|(_, d)| d.nanos()).sum();
    assert!(spin1 > 100_000, "receiver must wait for the late sender, spun only {spin1}ns");
}

#[test]
fn receive_merges_piggyback_before_completion() {
    let p = pingpong();
    let cfg = silent_config(2, 1, 1);
    let mut rec = Recorder::default();
    execute(&p, &cfg, &mut rec);
    // Both receives must have synced with the sender's piggyback (7).
    let recv_syncs: Vec<_> = rec.syncs.iter().filter(|(_, v)| *v == 7).collect();
    assert!(recv_syncs.len() >= 2, "recv completions must merge piggybacks: {:?}", rec.syncs);
}

#[test]
fn collective_latecomer_makes_others_wait() {
    let mut pb = ProgramBuilder::new(4);
    for r in 0..4 {
        let mut rb = pb.rank(r);
        rb.scoped("main", |rb| {
            // Rank 3 computes 4x longer before the allreduce.
            let work = if rb.rank_id() == 3 { 8_000_000 } else { 2_000_000 };
            rb.kernel(Cost::scalar(work), 0);
            rb.allreduce(8);
        });
    }
    let p = pb.finish();
    p.validate().unwrap();
    let cfg = silent_config(4, 1, 1);
    let mut rec = Recorder::default();
    let res = execute(&p, &cfg, &mut rec);
    // Ranks 0..2 spun waiting in the collective; rank 3 spun ~0.
    let spin_of = |r: u32| -> u64 {
        rec.spins.iter().filter(|(l, _)| l.rank == r).map(|(_, d)| d.nanos()).sum()
    };
    assert!(spin_of(0) > 1_000_000, "early rank must wait: {}", spin_of(0));
    assert!(spin_of(3) < spin_of(0) / 10, "late rank barely waits");
    // All ranks end at roughly the same time (collective synchronises).
    let ends: Vec<u64> = res.rank_end.iter().map(|t| t.nanos()).collect();
    let spread = ends.iter().max().unwrap() - ends.iter().min().unwrap();
    assert!(spread < 100_000, "collective must synchronise ranks: {ends:?}");
}

#[test]
fn nonblocking_exchange_completes() {
    // Symmetric halo exchange with isend/irecv + waitall.
    let mut pb = ProgramBuilder::new(2);
    for r in 0..2 {
        let peer = 1 - r;
        let mut rb = pb.rank(r);
        rb.scoped("exchange", |rb| {
            rb.irecv(peer, 0, 8192);
            rb.isend(peer, 0, 8192);
            rb.kernel(Cost::scalar(500_000), 0);
            rb.waitall();
        });
    }
    let p = pb.finish();
    p.validate().unwrap();
    let mut rec = Recorder::default();
    execute(&p, &silent_config(2, 1, 1), &mut rec);
    // Each rank must see exactly one RecvComplete.
    let completes = rec.events.iter().filter(|(_, _, e)| e.contains("RecvComplete")).count();
    assert_eq!(completes, 2);
}

#[test]
fn parallel_loop_imbalance_shows_in_barrier_spins() {
    let mut pb = ProgramBuilder::new(1);
    {
        let mut rb = pb.rank(0);
        rb.scoped("main", |rb| {
            rb.parallel("work", |omp| {
                // Static ramp: later iterations (thread 3) cost 4x more.
                omp.for_loop(
                    "ramp",
                    400,
                    Schedule::Static,
                    IterCost::Ramp { base: Cost::scalar(100_000), last_factor: 4.0 },
                    0,
                );
            });
        });
    }
    let p = pb.finish();
    let cfg = silent_config(1, 4, 1);
    let mut rec = Recorder::default();
    execute(&p, &cfg, &mut rec);
    // Thread 0 (cheap iterations) spins at the implicit barrier far more
    // than thread 3 (expensive iterations).
    let spin_of = |t: u32| -> u64 {
        rec.spins.iter().filter(|(l, _)| l.thread == t).map(|(_, d)| d.nanos()).sum()
    };
    assert!(
        spin_of(0) > spin_of(3) * 2,
        "thread 0 must wait longer: {} vs {}",
        spin_of(0),
        spin_of(3)
    );
    // Every thread got its share of iterations.
    let iters: u64 = rec.work.iter().map(|(_, w)| w.loop_iters).sum();
    assert_eq!(iters, 400);
}

#[test]
fn dynamic_schedule_balances_the_same_loop() {
    let build = |schedule| {
        let mut pb = ProgramBuilder::new(1);
        {
            let mut rb = pb.rank(0);
            rb.scoped("main", |rb| {
                rb.parallel("work", |omp| {
                    omp.for_loop(
                        "ramp",
                        400,
                        schedule,
                        IterCost::Ramp { base: Cost::scalar(100_000), last_factor: 4.0 },
                        0,
                    );
                });
            });
        }
        pb.finish()
    };
    let cfg = silent_config(1, 4, 1);
    let spin_total = |p: &nrlt_prog::Program| {
        let mut rec = Recorder::default();
        execute(p, &cfg, &mut rec);
        rec.spins.iter().map(|(_, d)| d.nanos()).sum::<u64>()
    };
    let static_spin = spin_total(&build(Schedule::Static));
    let dynamic_spin = spin_total(&build(Schedule::Dynamic(8)));
    assert!(
        dynamic_spin < static_spin / 2,
        "dynamic must reduce barrier waiting: {dynamic_spin} vs {static_spin}"
    );
}

#[test]
fn worker_events_are_emitted_per_thread() {
    let mut pb = ProgramBuilder::new(1);
    {
        let mut rb = pb.rank(0);
        rb.parallel("pr", |omp| {
            omp.for_loop("l", 64, Schedule::Static, IterCost::Uniform(Cost::scalar(1000)), 0);
        });
    }
    let p = pb.finish();
    let mut rec = Recorder::default();
    execute(&p, &silent_config(1, 4, 1), &mut rec);
    for t in 0..4 {
        let thread_events: Vec<_> = rec.events.iter().filter(|(l, _, _)| l.thread == t).collect();
        assert!(
            thread_events.len() >= 6,
            "thread {t} must enter/leave parallel, loop, barrier: {thread_events:?}"
        );
        // Timestamps non-decreasing per location.
        let times: Vec<u64> = thread_events.iter().map(|(_, t, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "thread {t}: {times:?}");
    }
}

#[test]
fn single_runs_on_first_arriving_thread_only() {
    let mut pb = ProgramBuilder::new(1);
    {
        let mut rb = pb.rank(0);
        rb.parallel("pr", |omp| {
            omp.single("init", Cost::scalar(100_000), 0);
        });
    }
    let p = pb.finish();
    let mut rec = Recorder::default();
    execute(&p, &silent_config(1, 4, 1), &mut rec);
    let singles =
        rec.events.iter().filter(|(_, _, e)| e.contains("Enter") && e.contains("single")).count();
    // Only region names are in the table; count enters of the single
    // region via work instead: exactly one thread did the kernel.
    assert_eq!(rec.work.len(), 1);
    let _ = singles;
}

#[test]
fn critical_serialises_threads() {
    let mut pb = ProgramBuilder::new(1);
    {
        let mut rb = pb.rank(0);
        rb.parallel("pr", |omp| {
            omp.critical("update", Cost::scalar(1_000_000));
        });
    }
    let p = pb.finish();
    let mut rec = Recorder::default();
    let res = execute(&p, &silent_config(1, 4, 1), &mut rec);
    // 4 threads × ~222us serialised ≈ 889us minimum.
    assert!(res.total.nanos() > 800_000, "critical sections must serialise: {}", res.total);
    // Later threads spun on the lock.
    assert!(!rec.spins.is_empty());
}

#[test]
fn phases_are_timed() {
    let mut pb = ProgramBuilder::new(1);
    let (init, solve) = {
        let mut rb = pb.rank(0);
        let init = rb.phase("init");
        let solve = rb.phase("solve");
        rb.phase_start(init);
        rb.kernel(Cost::scalar(2_000_000), 0);
        rb.phase_end(init);
        rb.phase_start(solve);
        rb.kernel(Cost::scalar(6_000_000), 0);
        rb.phase_end(solve);
        (init, solve)
    };
    let p = pb.finish();
    let res = execute(&p, &silent_config(1, 1, 1), &mut NullObserver);
    let ti = res.phase_max(init);
    let ts = res.phase_max(solve);
    assert!(ts > ti.scale(2.5) && ts < ti.scale(3.5), "solve ~3x init: {ti} vs {ts}");
}

#[test]
fn shared_bodies_execute_like_unshared_copies() {
    use nrlt_prog::Action;
    use std::sync::Arc;
    // Imbalanced MiniFE: heavy and light ranks share two distinct bodies
    // per parallel region.
    let shared = nrlt_miniapps::MiniFeConfig {
        nx: 12,
        ranks: 4,
        threads_per_rank: 2,
        imbalance_pct: 50,
        cg_iters: 3,
        costs: nrlt_miniapps::MiniFeCosts::default(),
    }
    .build()
    .program;
    let mut unshared = shared.clone();
    let mut bodies = std::collections::HashSet::new();
    for action in unshared.ranks.iter_mut().flatten() {
        if let Action::Parallel(pr) = action {
            bodies.insert(Arc::as_ptr(&pr.body) as *const ());
            pr.body = pr.body.to_vec().into();
        }
    }
    let n_parallel =
        shared.ranks.iter().flatten().filter(|a| matches!(a, Action::Parallel(_))).count();
    assert!(bodies.len() < n_parallel, "{} bodies for {n_parallel} regions", bodies.len());
    let cfg = ExecConfig::jureca(1, JobLayout::block(4, 2), 7);
    let run = |p: &nrlt_prog::Program| {
        let mut rec = Recorder::default();
        let res = execute(p, &cfg, &mut rec);
        (res.total, res.events, rec.events, rec.spins, rec.syncs, rec.work)
    };
    assert_eq!(run(&shared), run(&unshared));
}

#[test]
fn same_seed_is_bit_reproducible() {
    let p = pingpong();
    let cfg = ExecConfig::jureca(1, JobLayout::block(2, 1), 5);
    let r1 = execute(&p, &cfg, &mut NullObserver);
    let r2 = execute(&p, &cfg, &mut NullObserver);
    assert_eq!(r1, r2);
}

#[test]
fn different_seeds_vary_with_noise() {
    let mut pb = ProgramBuilder::new(2);
    for r in 0..2 {
        let mut rb = pb.rank(r);
        rb.scoped("main", |rb| {
            for _ in 0..20 {
                rb.kernel(Cost::scalar(10_000_000).with_mem_bytes(1 << 22), 1 << 22);
                rb.allreduce(8);
            }
        });
    }
    let p = pb.finish();
    let base = ExecConfig::jureca(1, JobLayout::block(2, 1), 1);
    let r1 = execute(&p, &base, &mut NullObserver);
    let r2 = execute(&p, &base.clone().with_seed(2), &mut NullObserver);
    assert_ne!(r1.total, r2.total, "noise must differ across seeds");
    // Silent runs are seed-independent.
    let s1 = execute(&p, &base.clone().with_noise(NoiseConfig::silent()), &mut NullObserver);
    let s2 = execute(
        &p,
        &base.clone().with_seed(2).with_noise(NoiseConfig::silent()),
        &mut NullObserver,
    );
    assert_eq!(s1.total, s2.total);
}

#[test]
fn event_overhead_slows_the_run() {
    struct Expensive;
    impl Observer for Expensive {
        fn on_work(&mut self, _: Location, _: &WorkItem) -> VirtualDuration {
            VirtualDuration::ZERO
        }
        fn on_runtime(&mut self, _: Location, _: RuntimeKind, _: VirtualDuration) {}
        fn on_spin(&mut self, _: Location, _: VirtualDuration) {}
        fn on_event(&mut self, _: Location, _: VirtualTime, _: &EventInfo) -> VirtualDuration {
            VirtualDuration::from_micros(10)
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
    let p = pingpong();
    let cfg = silent_config(2, 1, 1);
    let fast = execute(&p, &cfg, &mut NullObserver);
    let slow = execute(&p, &cfg, &mut Expensive);
    let ovh = overhead_percent(fast.total, slow.total);
    assert!(ovh > 5.0, "per-event cost must show as overhead: {ovh:.2}%");
}

#[test]
fn prepared_regions_path_works() {
    let p = pingpong();
    let regions = prepare_regions(&p);
    assert!(regions.find("MPI_Send").is_some());
    let cfg = silent_config(2, 1, 1);
    let res =
        execute_prepared_instrumented(&p, &regions, &cfg, &mut NullObserver, None, None, None);
    assert!(res.total > VirtualDuration::ZERO);
}

#[test]
#[should_panic(expected = "deadlock")]
fn deadlock_is_detected() {
    // Both ranks recv first: classic deadlock.
    let mut pb = ProgramBuilder::new(2);
    pb.rank(0).recv(1, 0, 8);
    pb.rank(0).send(1, 1, 8);
    pb.rank(1).recv(0, 1, 8);
    pb.rank(1).send(0, 0, 8);
    let p = pb.finish();
    execute(&p, &silent_config(2, 1, 1), &mut NullObserver);
}

#[test]
fn rendezvous_send_blocks_until_recv() {
    let big = 4 << 20; // rendezvous
    let mut pb = ProgramBuilder::new(2);
    {
        let mut rb = pb.rank(0);
        rb.send(1, 0, big);
    }
    {
        let mut rb = pb.rank(1);
        rb.kernel(Cost::scalar(50_000_000), 0); // ~11ms before posting recv
        rb.recv(0, 0, big);
    }
    let p = pb.finish();
    let mut rec = Recorder::default();
    execute(&p, &silent_config(2, 1, 1), &mut rec);
    let sender_spin: u64 =
        rec.spins.iter().filter(|(l, _)| l.rank == 0).map(|(_, d)| d.nanos()).sum();
    assert!(sender_spin > 5_000_000, "late receiver must block sender: {sender_spin}ns");
}

/// The engine profile of one run of `p` under `cfg`, plus the work items
/// the observer saw and the result.
fn profiled(
    p: &nrlt_prog::Program,
    cfg: &ExecConfig,
) -> (nrlt_exec::engineprof::ProfData, Recorder, nrlt_exec::ExecResult) {
    let run = RunProf::new("r");
    let mut rec = Recorder::default();
    let res = execute_prepared_instrumented(
        p,
        &prepare_regions(p),
        cfg,
        &mut rec,
        None,
        None,
        Some(&run),
    );
    (run.finish().1, rec, res)
}

#[test]
fn dynamic_loop_profile_counts_chunks_draws_and_pending_iters() {
    let mut pb = ProgramBuilder::new(1);
    pb.rank(0).scoped("main", |rb| {
        rb.parallel("work", |omp| {
            omp.for_loop("chunks", 50, Schedule::Dynamic(3), IterCost::Uniform(Cost::scalar(1)), 0);
        });
    });
    let p = pb.finish();
    let cfg = ExecConfig::jureca(1, JobLayout::block(1, 4), 42);
    let (d, rec, res) = profiled(&p, &cfg);

    // Profiling must not perturb the schedule or the timings.
    let mut plain = Recorder::default();
    assert_eq!(execute(&p, &cfg, &mut plain), res);
    assert_eq!(plain.work, rec.work);

    // One `LoopChunk` per dispatched chunk, 17 = ceil(50 / 3), each
    // billed the f64 seconds the schedule simulation consumed.
    let chunks = &d.kinds[EventKind::LoopChunk.index()];
    assert_eq!(chunks.count, 17);
    assert_eq!(rec.work.len(), 17);
    let virtual_ns: u64 =
        rec.work.iter().map(|(_, w)| (w.duration.as_secs_f64() * 1e9) as u64).sum();
    assert_eq!(chunks.virtual_ns, virtual_ns);
    // The remaining-iterations gauge is sampled before every grab.
    let g = &d.gauges["omp.pending_iters"][""];
    assert_eq!((g.count, g.max), (17, 50));
    // Compute-only chunks draw cpu jitter and an OS detour, warmed in
    // one batch each; no memory channel, no network.
    assert_eq!(d.kinds[EventKind::NoiseDraw.index()].count, 2 * 17);
    assert_eq!(d.allocs["noise.warm_batch"], 17);
}

#[test]
fn profile_samples_matcher_queues_and_draws_network_noise_per_match() {
    let (d, _, _) = profiled(&pingpong(), &silent_config(2, 1, 1));
    // One sample per posted send or receive; rank 0 posts its send and
    // its receive before rank 1 runs, so each queue peaks at one.
    for series in ["matcher.queued_sends", "matcher.queued_recvs", "mpi.wildcard_queue"] {
        let g = &d.gauges[series][""];
        assert_eq!(g.count, 4, "{series}");
        assert_eq!(g.max, (series != "mpi.wildcard_queue") as i64, "{series}");
    }
    assert_eq!(d.kinds[EventKind::Pt2ptMatch.index()].count, 2);
    // A silent machine still counts one network draw per match.
    assert_eq!(d.kinds[EventKind::NoiseDraw.index()].count, 2);
}

#[test]
fn barrier_profile_bills_the_team_time_spent_inside_barriers() {
    // Only the master runs the `master` kernel, so the explicit barrier
    // after it holds the other three threads for the kernel's length.
    let mut pb = ProgramBuilder::new(1);
    pb.rank(0).scoped("main", |rb| {
        rb.parallel("work", |omp| {
            omp.master("io", Cost::scalar(1_000_000), 0);
            omp.barrier();
        });
    });
    let p = pb.finish();
    let (d, rec, _) = profiled(&p, &silent_config(1, 4, 1));

    // Sum over threads of (barrier Leave - barrier Enter), read back from
    // the recorded events of the explicit and the region-end barrier.
    let regions = prepare_regions(&p);
    let barriers = regions
        .iter()
        .filter(|(_, r)| matches!(r.kind, RegionKind::OmpBarrier | RegionKind::OmpImplicitBarrier));
    let (mut enters, mut leaves) = (Vec::new(), Vec::new());
    for (region, _) in barriers {
        enters.push(format!("{:?}", EventInfo::Enter { region }));
        leaves.push(format!("{:?}", EventInfo::Leave { region }));
    }
    let mut inside: i64 = 0;
    for (_, now, e) in &rec.events {
        if enters.contains(e) {
            inside -= *now as i64;
        } else if leaves.contains(e) {
            inside += *now as i64;
        }
    }
    let barrier = d.kinds[EventKind::Barrier.index()];
    assert_eq!(barrier.count, 2, "the explicit barrier and the region-end barrier");
    assert!(inside > 3 * 100_000, "three threads wait out the master kernel: {inside}ns");
    assert_eq!(barrier.virtual_ns, inside as u64);
}
