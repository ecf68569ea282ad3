//! End-to-end measurement tests: full program → trace, under every
//! clock mode.

use nrlt_exec::ExecConfig;
use nrlt_measure::{measure, reference_run_instrumented, ClockMode, FilterRules, MeasureConfig};
use nrlt_prog::{Cost, IterCost, Program, ProgramBuilder, Schedule};
use nrlt_sim::JobLayout;
use nrlt_trace::{ClockKind, EventKind, Trace};

/// A small hybrid program: parallel loop + halo exchange + allreduce.
fn hybrid(ranks: u32) -> Program {
    let mut pb = ProgramBuilder::new(ranks);
    for r in 0..ranks {
        let left = (r + ranks - 1) % ranks;
        let right = (r + 1) % ranks;
        let mut rb = pb.rank(r);
        rb.scoped("main", |rb| {
            for _step in 0..3 {
                rb.scoped("compute", |rb| {
                    rb.parallel("step", |omp| {
                        omp.for_loop(
                            "stencil",
                            1024,
                            Schedule::Static,
                            IterCost::Uniform(Cost::scalar(5_000)),
                            1 << 16,
                        );
                    });
                    rb.kernel_burst("pack", 64, Cost::scalar(64_000), 0);
                });
                rb.scoped("exchange", |rb| {
                    rb.irecv(left, 0, 4096);
                    rb.irecv(right, 1, 4096);
                    rb.isend(right, 0, 4096);
                    rb.isend(left, 1, 4096);
                    rb.waitall();
                });
                rb.allreduce(8);
            }
        });
    }
    let p = pb.finish();
    p.validate().unwrap();
    p
}

fn run(mode: ClockMode, seed: u64) -> Trace {
    let p = hybrid(4);
    let cfg = ExecConfig::jureca(1, JobLayout::block(4, 4), seed);
    let (trace, _) = measure(&p, &cfg, &MeasureConfig::new(mode));
    trace
}

#[test]
fn traces_are_consistent_under_every_mode() {
    for mode in ClockMode::ALL {
        let trace = run(mode, 1);
        trace.check_consistency().unwrap_or_else(|e| panic!("{mode}: {e}"));
        assert!(trace.total_events() > 100, "{mode}: too few events");
        match (mode, &trace.defs.clock) {
            (ClockMode::Tsc, ClockKind::Physical) => {}
            (m, ClockKind::Logical { model }) if m.is_logical() => {
                assert_eq!(model, m.name());
            }
            (m, c) => panic!("{m}: wrong clock kind {c:?}"),
        }
    }
}

#[test]
fn worker_locations_have_events() {
    let trace = run(ClockMode::Tsc, 1);
    // 4 ranks × 4 threads: every worker participated in the loops.
    for (i, stream) in trace.streams.iter().enumerate() {
        assert!(!stream.is_empty(), "location {i} recorded nothing");
    }
}

#[test]
fn logical_modes_are_repetition_invariant() {
    for mode in [ClockMode::Lt1, ClockMode::LtLoop, ClockMode::LtBb, ClockMode::LtStmt] {
        let a = run(mode, 1);
        let b = run(mode, 2);
        assert_eq!(a.streams, b.streams, "{mode}: logical trace must not depend on the noise seed");
    }
}

#[test]
fn tsc_and_hwctr_vary_with_noise() {
    for mode in [ClockMode::Tsc, ClockMode::LtHwctr] {
        let a = run(mode, 1);
        let b = run(mode, 2);
        assert_ne!(a.streams, b.streams, "{mode}: must be noise-sensitive");
    }
}

#[test]
fn clock_condition_holds_on_matched_messages() {
    // For every matched (send, recv-complete) pair, the receive
    // timestamp must exceed the send timestamp under a logical clock.
    for mode in ClockMode::LOGICAL {
        let trace = run(mode, 1);
        let tpr = trace.defs.threads_per_rank;
        // Collect sends FIFO per (src, dst, tag) and completions likewise.
        use std::collections::HashMap;
        let mut sends: HashMap<(u32, u32, u32), Vec<u64>> = HashMap::new();
        for (i, stream) in trace.streams.iter().enumerate() {
            let rank = i as u32 / tpr;
            for ev in stream {
                if let EventKind::SendPost { peer, tag, .. } = ev.kind {
                    sends.entry((rank, peer, tag)).or_default().push(ev.time);
                }
            }
        }
        let mut cursors: HashMap<(u32, u32, u32), usize> = HashMap::new();
        for (i, stream) in trace.streams.iter().enumerate() {
            let rank = i as u32 / tpr;
            for ev in stream {
                if let EventKind::RecvComplete { peer, tag, .. } = ev.kind {
                    let key = (peer, rank, tag);
                    let k = cursors.entry(key).or_insert(0);
                    let send_ts = sends[&key][*k];
                    *k += 1;
                    assert!(
                        ev.time > send_ts,
                        "{mode}: recv at {} not after send at {}",
                        ev.time,
                        send_ts
                    );
                }
            }
        }
    }
}

#[test]
fn filtering_removes_burst_events() {
    let p = hybrid(4);
    let cfg = ExecConfig::jureca(1, JobLayout::block(4, 4), 1);
    let unfiltered = measure(&p, &cfg, &MeasureConfig::new(ClockMode::Tsc)).0;
    let filtered = measure(
        &p,
        &cfg,
        &MeasureConfig::new(ClockMode::Tsc).with_filter(FilterRules::from_rules(["pack"])),
    )
    .0;
    let bursts = |t: &Trace| {
        t.streams.iter().flatten().filter(|e| matches!(e.kind, EventKind::CallBurst { .. })).count()
    };
    assert!(bursts(&unfiltered) > 0);
    assert_eq!(bursts(&filtered), 0);
}

#[test]
fn instrumented_run_differs_from_reference() {
    let p = hybrid(4);
    let cfg = ExecConfig::jureca(1, JobLayout::block(4, 4), 1);
    let reference = reference_run_instrumented(&p, &cfg, None, None);
    let (_, instrumented) = measure(&p, &cfg, &MeasureConfig::new(ClockMode::LtHwctr));
    assert_ne!(reference.total, instrumented.total);
}

#[test]
fn lt1_timestamps_are_dense_small_integers() {
    let trace = run(ClockMode::Lt1, 1);
    // Under lt_1 the largest timestamp is bounded by a small multiple of
    // the event count (every event increments by exactly 1, merges can
    // only jump forward to another location's counter).
    let max_ts = trace.end_time();
    let events = trace.total_events() as u64;
    assert!(
        max_ts < events * 4,
        "lt_1 counters must stay within event-count scale: {max_ts} vs {events} events"
    );
}
