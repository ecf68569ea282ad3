//! Self-telemetry threading: proof that telemetry is strictly opt-in
//! (a `None` run performs zero instrumentation work) and that the
//! counters the engine reports reflect what actually happened.

use nrlt_exec::{
    execute, execute_prepared_instrumented, prepare_regions, ExecConfig, ExecResult, NullObserver,
};
use nrlt_prog::{Cost, ProgramBuilder};
use nrlt_sim::{JobLayout, NoiseConfig};
use nrlt_telemetry::Telemetry;

fn silent_config(ranks: u32, tpr: u32) -> ExecConfig {
    ExecConfig::jureca(1, JobLayout::block(ranks, tpr), 42).with_noise(NoiseConfig::silent())
}

/// The engine with only the telemetry probe (possibly `None`) set.
fn run_with_telemetry(
    p: &nrlt_prog::Program,
    cfg: &ExecConfig,
    tel: Option<&Telemetry>,
) -> ExecResult {
    execute_prepared_instrumented(p, &prepare_regions(p), cfg, &mut NullObserver, tel, None, None)
}

fn pingpong() -> nrlt_prog::Program {
    let mut pb = ProgramBuilder::new(2);
    {
        let mut rb = pb.rank(0);
        rb.scoped("main", |rb| {
            rb.kernel(Cost::scalar(1_000_000), 0);
            rb.send(1, 0, 1024);
            rb.recv(1, 1, 1024);
            rb.mpi_barrier();
        });
    }
    {
        let mut rb = pb.rank(1);
        rb.scoped("main", |rb| {
            rb.recv(0, 0, 1024);
            rb.send(0, 1, 1024);
            rb.mpi_barrier();
        });
    }
    pb.finish()
}

#[test]
fn none_telemetry_performs_no_instrumentation_work() {
    // The probe: a Telemetry handle that exists but is passed as `None`.
    // If the engine did any recording "just in case", call_count would
    // move. It must stay exactly zero.
    let tel = Telemetry::new();
    let p = pingpong();
    let cfg = silent_config(2, 1);
    let r = run_with_telemetry(&p, &cfg, None);
    assert!(r.total.nanos() > 0);
    assert_eq!(tel.call_count(), 0, "a None-telemetry run must record nothing");
    assert!(tel.counters().is_empty());
    assert!(tel.spans().is_empty());
}

#[test]
fn telemetry_does_not_perturb_results() {
    let p = pingpong();
    let cfg = silent_config(2, 1);
    let plain = execute(&p, &cfg, &mut NullObserver);
    let tel = Telemetry::new();
    let observed = run_with_telemetry(&p, &cfg, Some(&tel));
    assert_eq!(plain.total, observed.total);
    assert_eq!(plain.rank_end, observed.rank_end);
}

fn counter(c: &[(String, u64)], name: &str) -> u64 {
    c.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("missing counter {name}")).1
}

#[test]
fn engine_counters_reflect_the_run() {
    let p = pingpong();
    let cfg = silent_config(2, 1);
    let tel = Telemetry::new();
    run_with_telemetry(&p, &cfg, Some(&tel));
    assert!(tel.call_count() > 0);
    let c = tel.counters();
    assert!(counter(&c, "engine.events") > 0, "events must be counted");
    assert_eq!(counter(&c, "engine.messages_matched"), 2, "two matches");
    assert_eq!(counter(&c, "engine.collectives_resolved"), 1, "one barrier");
    assert!(counter(&c, "engine.virtual_time_ns") > 0);
    // The execute span closes when the engine returns.
    let spans = tel.spans();
    let s = spans.iter().find(|s| s.name == "engine.execute").expect("engine.execute span");
    assert!(s.closed);
    // Ready-queue depth histogram saw at least one observation.
    let h = tel.histograms();
    let depth =
        h.iter().find(|(n, _)| n == "engine.ready_queue_depth").expect("ready-queue histogram");
    assert!(!depth.1.is_empty());
}
