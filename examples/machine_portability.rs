//! Machine portability of logical measurements.
//!
//! Effort-model increments depend only on the program (iterations, basic
//! blocks, statements), not on the machine executing it — so an
//! `lt_stmt` trace taken on an EPYC cluster is *bit-identical* to one
//! taken on a Skylake cluster, while the physical pictures differ
//! wherever the machines' balance differs (cache capacity, NUMA layout,
//! bandwidth). This is the flip side of the paper's "cannot capture
//! external aspects": the external aspects are exactly what varies
//! between machines.
//!
//! Run with: `cargo run --release --example machine_portability`

use nrlt::prelude::*;
use nrlt::sim::NodeSpec;

fn stencil_job(ranks: u32) -> Program {
    let mut pb = ProgramBuilder::new(ranks);
    for r in 0..ranks {
        let mut rb = pb.rank(r);
        rb.scoped("main", |rb| {
            for _ in 0..20 {
                rb.scoped("sweep", |rb| {
                    rb.parallel("sweep", |omp| {
                        omp.for_loop(
                            "stencil",
                            200_000,
                            Schedule::Static,
                            // Memory-hungry: 33 MB Skylake sockets will
                            // hurt where 256 MB EPYC sockets do not.
                            IterCost::Uniform(Cost::scalar(120).with_mem_bytes(320)),
                            48 << 20,
                        );
                    });
                });
                rb.scoped("reduce", |rb| rb.allreduce(8));
            }
        });
    }
    pb.finish()
}

fn main() {
    let ranks = 4;
    let threads = 8;
    let program = stencil_job(ranks);
    let machines = [("Jureca-DC (EPYC)", NodeSpec::jureca_dc()), ("Skylake", NodeSpec::skylake())];
    let mut logical_traces = Vec::new();
    println!("{:<20} {:>12} {:>9} {:>9} | logical trace", "machine", "tsc total", "comp%", "nxn%");
    for (name, spec) in machines {
        let cfg = ExecConfig {
            machine: Machine::new(spec, 1),
            layout: JobLayout::block(ranks, threads),
            noise: NoiseConfig::silent(),
            seed: 7,
        };
        let (pt, pres) = measure(&program, &cfg, &MeasureConfig::new(ClockMode::Tsc));
        let phys = analyze(&pt);
        let (lt, _) = measure(&program, &cfg, &MeasureConfig::new(ClockMode::LtStmt));
        println!(
            "{:<20} {:>12} {:>9.1} {:>9.1} | {} events, end tick {}",
            name,
            pres.total,
            phys.pct_t(Metric::Comp),
            phys.pct_t(Metric::WaitNxN),
            lt.total_events(),
            lt.end_time(),
        );
        logical_traces.push(lt);
    }
    assert_eq!(
        logical_traces[0].streams, logical_traces[1].streams,
        "lt_stmt traces must be identical across machines"
    );
    println!("\nThe lt_stmt traces from the two machines are bit-identical;");
    println!("the physical runs differ (cache fit, NUMA width, clock speed).");
}
