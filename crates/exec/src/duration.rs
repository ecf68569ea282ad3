//! Kernel duration model: roofline over the placed topology.
//!
//! A kernel's physical duration is the maximum of its CPU term
//! (instructions at the core's sustained IPC) and its memory term (bytes
//! at the effective bandwidth of the thread's NUMA domain and socket L3),
//! plus whatever the OS steals in detours. Contention and cache fit come
//! from the *static* placement: in the paper's SPMD benchmarks all
//! threads of a domain execute the same phase concurrently, so occupancy
//! is an accurate stand-in for instantaneous activity.

use crate::engineprof::{EventKind, RunProf};
use nrlt_prog::Cost;
use nrlt_sim::{
    cache_bandwidth_share, dram_fraction, memory_time, shared_bandwidth, Location, NoiseModel,
    Placement, VirtualDuration,
};

/// Memory-time multiplier for ranks whose thread team spans sockets
/// (remote/interleaved accesses, cf. the paper's TeaLeaf-1 configuration
/// "distributes threads across sockets").
pub const REMOTE_ACCESS_PENALTY: f64 = 1.45;

/// Engine-profiler allocation site counting interleaved ChaCha warm-ups
/// (one count = one four-lane first-block batch).
const NOISE_BATCH_SITE: &str = "noise.warm_batch";

/// Synchronised kernel duration below which measurement-induced
/// desynchronisation has no effect: loop barriers re-synchronise the
/// team before any drift accumulates.
pub const DESYNC_ONSET_SECS: f64 = 0.1;

/// Additional duration over which the desynchronisation ramps to full
/// effect once past the onset.
pub const DESYNC_RAMP_SECS: f64 = 0.15;

/// Execution context of a kernel, deciding who it contends with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPhase {
    /// Inside a parallel region: every placed thread is active.
    TeamParallel,
    /// Serial section: only rank master threads are active.
    Serial,
}

/// What the duration model saw while pricing one kernel — filled only
/// when `DurationModel::kernel_duration_instrumented` is handed a
/// probe, so the unprobed path does no extra work. Contention fields are
/// zero for pure-CPU kernels, which never touch the memory system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelProbe {
    /// NUMA domain of the executing location.
    pub numa: u32,
    /// Socket of the executing location.
    pub socket: u32,
    /// Threads contending for the domain's memory bandwidth.
    pub active_in_domain: u32,
    /// Threads sharing the socket L3.
    pub active_on_socket: u32,
    /// DRAM-resident fraction of the kernel's traffic, permille.
    pub dram_permille: u32,
    /// CPU-jitter time injected, signed nanoseconds.
    pub cpu_noise_ns: i64,
    /// Memory-jitter (bias × jitter) time injected, signed nanoseconds.
    pub mem_noise_ns: i64,
    /// OS-detour time injected, nanoseconds.
    pub detour_ns: u64,
}

/// Computes kernel durations for one run configuration.
#[derive(Debug)]
pub struct DurationModel<'a> {
    placement: &'a Placement,
    noise: &'a NoiseModel,
    /// Measurement cache footprint per location, bytes.
    pub footprint_per_location: u64,
    /// Measurement-induced desynchronisation in `[0, 1]`.
    pub desync: f64,
}

impl<'a> DurationModel<'a> {
    /// Bind a model to a placement and a noise repetition.
    pub(crate) fn new(placement: &'a Placement, noise: &'a NoiseModel) -> Self {
        DurationModel { placement, noise, footprint_per_location: 0, desync: 0.0 }
    }

    /// [`kernel_duration_instrumented`](Self::kernel_duration_instrumented)
    /// with neither probe.
    #[cfg(test)]
    fn kernel_duration(
        &self,
        loc: Location,
        cost: &Cost,
        working_set: u64,
        phase: ExecPhase,
        instance: u64,
    ) -> VirtualDuration {
        self.kernel_duration_instrumented(loc, cost, working_set, phase, instance, None, None)
    }

    /// Duration of `cost` on `loc` during `phase`.
    ///
    /// * `working_set` — bytes of this rank's data the kernel streams.
    /// * `instance` — per-location kernel sequence number (noise stream key).
    ///
    /// The fully instrumented duration call: optional probe (resource
    /// observatory) plus optional engine profiler. `prof` counts one
    /// `NoiseDraw` per noise channel that actually draws — the warm-up
    /// batch and the cpu, mem and bias draws share one frame, the OS
    /// detour (whose stolen time is the draw's virtual time) gets its
    /// own — and one `noise.warm_batch` allocation per interleaved
    /// warm-up. Both `None` paths do zero extra work; the duration
    /// itself is identical in every combination.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn kernel_duration_instrumented(
        &self,
        loc: Location,
        cost: &Cost,
        working_set: u64,
        phase: ExecPhase,
        instance: u64,
        mut probe: Option<&mut KernelProbe>,
        prof: Option<&RunProf>,
    ) -> VirtualDuration {
        let machine = self.placement.machine();
        let spec = &machine.spec;
        let core = self.placement.core_of(loc);
        let numa = self.placement.numa_of(loc);
        let socket = self.placement.socket_of(loc);

        // CPU term. All noise channels of this kernel are pre-drawn in
        // one interleaved ChaCha batch; stream keys and positions match
        // the per-channel draws, so the factors are bit-identical.
        if let Some(p) = prof {
            p.enter(EventKind::NoiseDraw);
        }
        let mut kn = self.noise.kernel_noise(core.0 as u64, instance, cost.mem_bytes != 0);
        if let Some(p) = prof {
            p.leave_n(EventKind::NoiseDraw, kn.draws as u64, 0);
            if kn.warmed {
                p.alloc(NOISE_BATCH_SITE, 1);
            }
        }
        let cpu_base = spec.cpu_time(cost.instructions);
        let cpu = cpu_base * kn.cpu_factor;

        // Memory term.
        let mem = if cost.mem_bytes == 0 {
            0.0
        } else {
            let threads_on_socket = self.placement.socket_occupancy(socket).max(1);
            let threads_per_rank = self.placement.layout().threads_per_rank;
            let (active_in_domain, active_on_socket) = match phase {
                ExecPhase::TeamParallel => {
                    (self.placement.numa_occupancy(numa).max(1), threads_on_socket)
                }
                ExecPhase::Serial => {
                    // Only masters run; at most one per rank.
                    let ranks_in_domain =
                        (self.placement.numa_occupancy(numa) / threads_per_rank.max(1)).max(1);
                    let ranks_on_socket = (threads_on_socket / threads_per_rank.max(1)).max(1);
                    (ranks_in_domain, ranks_on_socket)
                }
            };
            // Socket-resident application data: every rank on the socket
            // holds a comparable working set (SPMD), and a rank whose
            // team spans sockets splits its data across them.
            let socket_ws = (working_set as f64 * threads_on_socket as f64
                / threads_per_rank.max(1) as f64) as u64;
            let footprint = self.footprint_per_location.saturating_mul(threads_on_socket as u64);
            let dram_frac = dram_fraction(socket_ws, footprint, spec.l3_per_socket);
            // Desynchronisation accumulates over a kernel's lifetime
            // (Afzal et al.): threads drift apart in long uninterrupted
            // memory phases, while frequent barriers (short kernels) keep
            // them in lock-step. Estimate the kernel's synchronised
            // duration first, then ramp the measurement-induced desync
            // with it.
            let synced_bw = shared_bandwidth(spec.numa_bandwidth, active_in_domain, 1.0);
            let synced_time = cost.mem_bytes as f64 * dram_frac / synced_bw;
            let desync_eff = self.desync
                * ((synced_time - DESYNC_ONSET_SECS) / DESYNC_RAMP_SECS).clamp(0.0, 1.0);
            let overlap = (1.0 - desync_eff).clamp(0.0, 1.0);
            let dram_bw = shared_bandwidth(spec.numa_bandwidth, active_in_domain, overlap);
            let cache_bw = cache_bandwidth_share(spec, active_on_socket);
            // A rank whose team spans sockets pays for remote accesses:
            // its shared data is interleaved across both sockets' memory.
            let tpr = threads_per_rank.max(1);
            let first = Location { rank: loc.rank, thread: 0 };
            let last = Location { rank: loc.rank, thread: tpr - 1 };
            let remote = if self.placement.socket_of(first) != self.placement.socket_of(last) {
                REMOTE_ACCESS_PENALTY
            } else {
                1.0
            };
            let mem_clean = memory_time(cost.mem_bytes, dram_frac, dram_bw, cache_bw) * remote;
            let mem = mem_clean * kn.mem_bias * kn.mem_factor;
            if let Some(p) = probe.as_deref_mut() {
                p.active_in_domain = active_in_domain;
                p.active_on_socket = active_on_socket;
                p.dram_permille = (dram_frac * 1000.0).round() as u32;
                p.mem_noise_ns = ((mem - mem_clean) * 1e9).round() as i64;
            }
            mem
        };

        // Roofline: CPU and memory overlap; the slower resource dominates.
        let base = cpu.max(mem);
        if let Some(p) = prof {
            p.enter(EventKind::NoiseDraw);
        }
        let detour = self.noise.detour_time_warmed(&mut kn, base);
        if let Some(p) = prof {
            let stolen_ns = detour.map_or(0, |t| (t * 1e9) as u64);
            p.leave_n(EventKind::NoiseDraw, detour.is_some() as u64, stolen_ns);
        }
        let detour = detour.unwrap_or(0.0);
        if let Some(p) = probe {
            p.numa = numa.0;
            p.socket = socket.0;
            p.cpu_noise_ns = ((cpu - cpu_base) * 1e9).round() as i64;
            p.detour_ns = (detour.max(0.0) * 1e9).round() as u64;
        }
        VirtualDuration::from_secs_f64(base + detour)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrlt_sim::{JobLayout, Machine, NoiseConfig, RngFactory};

    fn setup(ranks: u32, tpr: u32, noise: NoiseConfig) -> (Placement, NoiseModel) {
        let placement = Placement::new(Machine::jureca_dc(1), JobLayout::block(ranks, tpr));
        let model = NoiseModel::new(noise, RngFactory::new(1));
        (placement, model)
    }

    #[test]
    fn cpu_bound_kernel_scales_with_instructions() {
        let (p, n) = setup(1, 1, NoiseConfig::silent());
        let m = DurationModel::new(&p, &n);
        let loc = Location::master(0);
        let d1 = m.kernel_duration(loc, &Cost::scalar(1_000_000), 0, ExecPhase::Serial, 0);
        let d2 = m.kernel_duration(loc, &Cost::scalar(2_000_000), 0, ExecPhase::Serial, 0);
        assert!((d2.nanos() as f64 / d1.nanos() as f64 - 2.0).abs() < 0.01);
    }

    #[test]
    fn memory_bound_kernel_suffers_contention() {
        let (p, n) = setup(8, 16, NoiseConfig::silent());
        let m = DurationModel::new(&p, &n);
        let cost = Cost::ZERO.with_mem_bytes(1 << 26);
        let big_ws = 1 << 32; // far beyond L3: pure DRAM
        let loc = Location::master(0);
        let serial = m.kernel_duration(loc, &cost, big_ws, ExecPhase::Serial, 0);
        let parallel = m.kernel_duration(loc, &cost, big_ws, ExecPhase::TeamParallel, 0);
        assert!(
            parallel > serial * 3,
            "16 threads per domain must contend: {parallel} vs {serial}"
        );
    }

    #[test]
    fn cache_resident_working_set_is_fast() {
        let (p, n) = setup(2, 64, NoiseConfig::silent());
        let m = DurationModel::new(&p, &n);
        let cost = Cost::ZERO.with_mem_bytes(1 << 24);
        let loc = Location::master(0);
        let fits = m.kernel_duration(loc, &cost, 200 << 20, ExecPhase::TeamParallel, 0);
        let spills = m.kernel_duration(loc, &cost, 2 << 30, ExecPhase::TeamParallel, 0);
        assert!(spills > fits * 2, "cache-resident data must be faster: {fits} vs {spills}");
    }

    #[test]
    fn measurement_footprint_slows_memory_kernels() {
        let (p, n) = setup(2, 64, NoiseConfig::silent());
        let mut m = DurationModel::new(&p, &n);
        let cost = Cost::ZERO.with_mem_bytes(1 << 24);
        let loc = Location::master(0);
        // Working set chosen to just fit in the 256 MB socket L3.
        let ws = 220 << 20;
        let clean = m.kernel_duration(loc, &cost, ws, ExecPhase::TeamParallel, 0);
        m.footprint_per_location = 2 << 20; // 2 MB x 64 threads = 128 MB pollution
        let polluted = m.kernel_duration(loc, &cost, ws, ExecPhase::TeamParallel, 0);
        assert!(
            polluted > clean.scale(1.2),
            "footprint must evict the working set: {clean} vs {polluted}"
        );
    }

    #[test]
    fn desync_relieves_contention_on_long_kernels() {
        let (p, n) = setup(8, 16, NoiseConfig::silent());
        let mut m = DurationModel::new(&p, &n);
        let loc = Location::master(0);
        let ws = 64u64 << 30;
        // Long kernel (past the desync onset): relief applies.
        let long = Cost::ZERO.with_mem_bytes(1 << 30);
        let synced = m.kernel_duration(loc, &long, ws, ExecPhase::TeamParallel, 0);
        m.desync = 1.0;
        let desynced = m.kernel_duration(loc, &long, ws, ExecPhase::TeamParallel, 0);
        assert!(desynced < synced);
        // Short kernel (before the onset): barriers keep threads in
        // lock-step, no relief.
        let short = Cost::ZERO.with_mem_bytes(1 << 24);
        m.desync = 0.0;
        let s1 = m.kernel_duration(loc, &short, ws, ExecPhase::TeamParallel, 0);
        m.desync = 1.0;
        let s2 = m.kernel_duration(loc, &short, ws, ExecPhase::TeamParallel, 0);
        assert_eq!(s1, s2);
    }

    #[test]
    fn noise_perturbs_durations_across_instances() {
        let (p, n) = setup(1, 1, NoiseConfig::realistic());
        let m = DurationModel::new(&p, &n);
        let loc = Location::master(0);
        let cost = Cost::scalar(10_000_000);
        let d0 = m.kernel_duration(loc, &cost, 0, ExecPhase::Serial, 0);
        let mut saw_different = false;
        for i in 1..20 {
            if m.kernel_duration(loc, &cost, 0, ExecPhase::Serial, i) != d0 {
                saw_different = true;
            }
        }
        assert!(saw_different, "noise must vary across kernel instances");
    }

    #[test]
    fn instrumented_path_counts_draws_without_changing_durations() {
        let (p, n) = setup(1, 1, NoiseConfig::realistic());
        let m = DurationModel::new(&p, &n);
        let loc = Location::master(0);
        let cost = Cost::scalar(10_000_000).with_mem_bytes(1 << 20);
        let plain = m.kernel_duration(loc, &cost, 1 << 20, ExecPhase::Serial, 3);
        let run = RunProf::new("r");
        let profiled = m.kernel_duration_instrumented(
            loc,
            &cost,
            1 << 20,
            ExecPhase::Serial,
            3,
            None,
            Some(&run),
        );
        assert_eq!(plain, profiled, "profiling must not change the priced duration");
        let (_, d) = run.finish();
        // cpu jitter + mem jitter + detour = 3 draws; the per-core mem
        // bias was memoised by the unprofiled call above.
        assert_eq!(d.kinds[EventKind::NoiseDraw.index()].count, 3);

        // On a model whose bias cache is still cold, the filling bias
        // draw is counted too.
        let n2 = NoiseModel::new(NoiseConfig::realistic(), RngFactory::new(1));
        let m2 = DurationModel::new(&p, &n2);
        let run = RunProf::new("r2");
        let again = m2.kernel_duration_instrumented(
            loc,
            &cost,
            1 << 20,
            ExecPhase::Serial,
            3,
            None,
            Some(&run),
        );
        assert_eq!(again, plain);
        let (_, d) = run.finish();
        assert_eq!(d.kinds[EventKind::NoiseDraw.index()].count, 4);
    }

    #[test]
    fn silent_noise_is_deterministic() {
        let (p, n) = setup(1, 1, NoiseConfig::silent());
        let m = DurationModel::new(&p, &n);
        let loc = Location::master(0);
        let cost = Cost::scalar(10_000_000).with_mem_bytes(1 << 20);
        let d0 = m.kernel_duration(loc, &cost, 1 << 20, ExecPhase::Serial, 0);
        let d1 = m.kernel_duration(loc, &cost, 1 << 20, ExecPhase::Serial, 99);
        assert_eq!(d0, d1);
    }
}
