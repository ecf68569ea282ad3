//! Noise models.
//!
//! Following the classification of Ates et al. (HPAS), the simulator
//! injects noise at three points:
//!
//! * **CPU/OS noise** — operating-system detours that steal a core for a
//!   short while (Petrini et al.'s classic missing-performance effect).
//!   Modelled as Poisson-arriving interruptions of exponential-ish length
//!   during any computation interval.
//! * **Memory noise** — run-to-run variability of effective bandwidth and
//!   cache behaviour, modelled as multiplicative jitter on the memory part
//!   of a kernel's execution time.
//! * **Network noise** — variability of message latency and achievable
//!   bandwidth in the shared interconnect (cf. Beni et al.), modelled as
//!   multiplicative jitter per message or collective.
//!
//! All draws come from [`RngFactory`] streams keyed by core or message
//! identity, so the noise a location experiences does not depend on the
//! order the engine processes events in. Setting [`NoiseConfig::silent`]
//! reproduces an idealised noise-free machine — useful in tests to verify
//! that logical and physical measurements coincide structurally.

use crate::chacha::ChaCha8;
use crate::rng::{jitter_factor, RngFactory, StreamKind};
use std::cell::RefCell;

/// Largest core id the per-core bias cache will grow to cover; draws for
/// cores beyond it stay uncached (they are equally deterministic, just
/// re-derived).
const BIAS_CACHE_MAX_CORES: u64 = 1 << 16;

/// Tunable noise intensities. All default values are calibrated so that
/// uninstrumented run-to-run variation stays in the low single-digit
/// percent range, matching what the paper reports for its benchmarks
/// (e.g. "below 1 % run-to-run variation" for LULESH).
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseConfig {
    /// Log-scale sigma of multiplicative jitter on the CPU part of kernels.
    pub cpu_sigma: f64,
    /// Log-scale sigma of multiplicative jitter on the memory part.
    pub mem_sigma: f64,
    /// Mean rate of OS detours per core, in events per second.
    pub detour_rate: f64,
    /// Mean duration of one OS detour, in seconds.
    pub detour_mean: f64,
    /// Log-scale sigma of multiplicative jitter on message transfer times.
    pub net_sigma: f64,
    /// Log-scale sigma of a *persistent* per-core memory-speed bias,
    /// drawn once per repetition: page-placement and NUMA-distance luck
    /// makes some threads systematically slower at memory than others —
    /// the "timing variations of memory accesses" behind the paper's
    /// barrier waits in balanced loops (LULESH, Section V-C3).
    pub mem_bias_sigma: f64,
}

impl NoiseConfig {
    /// A quiet but realistic production machine.
    pub fn realistic() -> Self {
        NoiseConfig {
            cpu_sigma: 0.004,
            mem_sigma: 0.08,
            detour_rate: 25.0,
            detour_mean: 12.0e-6,
            net_sigma: 0.10,
            mem_bias_sigma: 0.05,
        }
    }

    /// A perfectly noise-free machine.
    pub fn silent() -> Self {
        NoiseConfig {
            cpu_sigma: 0.0,
            mem_sigma: 0.0,
            detour_rate: 0.0,
            detour_mean: 0.0,
            net_sigma: 0.0,
            mem_bias_sigma: 0.0,
        }
    }

    /// Scale every intensity by `factor` (for noise-sweep studies).
    pub fn scaled(&self, factor: f64) -> Self {
        NoiseConfig {
            cpu_sigma: self.cpu_sigma * factor,
            mem_sigma: self.mem_sigma * factor,
            detour_rate: self.detour_rate * factor,
            detour_mean: self.detour_mean,
            net_sigma: self.net_sigma * factor,
            mem_bias_sigma: self.mem_bias_sigma * factor,
        }
    }

    /// True if every channel is switched off.
    pub fn is_silent(&self) -> bool {
        self.cpu_sigma == 0.0
            && self.mem_sigma == 0.0
            && (self.detour_rate == 0.0 || self.detour_mean == 0.0)
            && self.net_sigma == 0.0
            && self.mem_bias_sigma == 0.0
    }
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig::realistic()
    }
}

/// Stateless sampler bound to one experiment repetition.
///
/// ("Stateless" refers to the draws: every factor is a pure function of
/// the stream key. The per-core memory-bias cache below only memoises
/// those pure values — it never changes what a draw returns.)
#[derive(Debug, Clone)]
pub struct NoiseModel {
    config: NoiseConfig,
    rng: RngFactory,
    /// Memoised [`mem_bias`](Self::mem_bias) per core (`NaN` = not yet
    /// drawn). The bias stream key is `(MemBias, core, 0)` — constant for
    /// the whole repetition — so the first draw fixes the value.
    bias_cache: RefCell<Vec<f64>>,
}

impl NoiseModel {
    /// Bind `config` to the RNG streams of one repetition.
    pub fn new(config: NoiseConfig, rng: RngFactory) -> Self {
        NoiseModel { config, rng, bias_cache: RefCell::new(Vec::new()) }
    }

    /// Multiplicative factor on the CPU part of the `instance`-th kernel
    /// on `core`.
    pub(crate) fn cpu_factor(&self, core: u64, instance: u64) -> f64 {
        if self.config.cpu_sigma == 0.0 {
            return 1.0;
        }
        let mut rng = self.rng.stream(StreamKind::KernelJitter, core, instance);
        jitter_factor(&mut rng, self.config.cpu_sigma)
    }

    /// Multiplicative factor on the memory part of the `instance`-th
    /// kernel on `core`.
    pub(crate) fn mem_factor(&self, core: u64, instance: u64) -> f64 {
        if self.config.mem_sigma == 0.0 {
            return 1.0;
        }
        let mut rng =
            self.rng.stream(StreamKind::KernelJitter, core, instance.wrapping_add(1 << 32));
        jitter_factor(&mut rng, self.config.mem_sigma)
    }

    /// The scalar reference for
    /// [`detour_time_warmed`](Self::detour_time_warmed): the same draw
    /// from a freshly derived stream.
    #[cfg(test)]
    fn detour_time(&self, core: u64, instance: u64, span_secs: f64) -> f64 {
        if !self.detour_on() || span_secs <= 0.0 {
            return 0.0;
        }
        self.detours(&mut self.rng.stream(StreamKind::OsDetour, core, instance), span_secs)
    }

    /// Persistent memory-speed factor of `core` for this repetition.
    ///
    /// The stream key `(MemBias, core, 0)` carries no instance, so the
    /// value is constant per core — it is drawn once and memoised.
    pub(crate) fn mem_bias(&self, core: u64) -> f64 {
        if self.config.mem_bias_sigma == 0.0 {
            return 1.0;
        }
        if let Some(&f) = self.bias_cache.borrow().get(core as usize) {
            if !f.is_nan() {
                return f;
            }
        }
        let mut rng = self.rng.stream(StreamKind::MemBias, core, 0);
        let f = jitter_factor(&mut rng, self.config.mem_bias_sigma);
        if core < BIAS_CACHE_MAX_CORES {
            let mut cache = self.bias_cache.borrow_mut();
            if cache.len() <= core as usize {
                cache.resize(core as usize + 1, f64::NAN);
            }
            cache[core as usize] = f;
        }
        f
    }

    /// True if [`mem_bias`](Self::mem_bias) for `core` is already
    /// memoised (no ChaCha work left to do).
    fn bias_cached(&self, core: u64) -> bool {
        self.bias_cache.borrow().get(core as usize).is_some_and(|f| !f.is_nan())
    }

    /// Multiplicative factor on the transfer time of one message or
    /// collective, keyed by `(entity, seq)`: the engine keys a message by
    /// its channel and per-channel FIFO sequence number, a collective by
    /// `(u64::MAX, instance index)`.
    pub fn net_factor(&self, entity: u64, seq: u64) -> f64 {
        if self.config.net_sigma == 0.0 {
            return 1.0;
        }
        let mut rng = self.rng.stream(StreamKind::Network, entity, seq);
        jitter_factor(&mut rng, self.config.net_sigma)
    }

    /// True if the OS-detour channel can steal time at all.
    fn detour_on(&self) -> bool {
        self.config.detour_rate != 0.0 && self.config.detour_mean != 0.0
    }

    /// Pre-draw every noise channel of one kernel in a single interleaved
    /// ChaCha batch.
    ///
    /// The batch derives the cpu-jitter, mem-jitter, and OS-detour stream
    /// keys exactly as the per-channel calls would and computes their
    /// first keystream blocks together ([`RngFactory::stream4`]), so each
    /// channel sees an identical stream position and the returned factors
    /// are bit-for-bit the values of `cpu_factor` / `mem_factor`; the
    /// detour stream is handed back warmed for
    /// [`detour_time_warmed`](Self::detour_time_warmed). When fewer than
    /// two channels are live the batch would waste block computations,
    /// so the call falls through to the scalar paths.
    ///
    /// The result reports what was drawn ([`KernelNoise::draws`],
    /// [`KernelNoise::warmed`]) so a caller can account for it.
    pub fn kernel_noise(&self, core: u64, instance: u64, want_mem: bool) -> KernelNoise {
        let cpu_on = self.config.cpu_sigma != 0.0;
        let mem_on = want_mem && self.config.mem_sigma != 0.0;
        let bias_draw = want_mem && self.config.mem_bias_sigma != 0.0 && !self.bias_cached(core);
        let mem_bias = if want_mem { self.mem_bias(core) } else { 1.0 };
        let mut kn = KernelNoise {
            cpu_factor: 1.0,
            mem_bias,
            mem_factor: 1.0,
            draws: cpu_on as u32 + mem_on as u32 + bias_draw as u32,
            warmed: false,
            core,
            instance,
            detour: None,
        };
        if (cpu_on as u32) + (mem_on as u32) + (self.detour_on() as u32) < 2 {
            kn.cpu_factor = self.cpu_factor(core, instance);
            if want_mem {
                kn.mem_factor = self.mem_factor(core, instance);
            }
            return kn;
        }
        // Lane 3 pads the SIMD batch (its block is discarded); streams
        // are keyed independently, so computing an unused block changes
        // nothing downstream.
        let [mut cpu_rng, mut mem_rng, det_rng, _] = self.rng.stream4([
            (StreamKind::KernelJitter, core, instance),
            (StreamKind::KernelJitter, core, instance.wrapping_add(1 << 32)),
            (StreamKind::OsDetour, core, instance),
            (StreamKind::OsDetour, core, instance),
        ]);
        if cpu_on {
            kn.cpu_factor = jitter_factor(&mut cpu_rng, self.config.cpu_sigma);
        }
        if mem_on {
            kn.mem_factor = jitter_factor(&mut mem_rng, self.config.mem_sigma);
        }
        kn.warmed = true;
        kn.detour = self.detour_on().then_some(det_rng);
        kn
    }

    /// Extra time stolen by OS detours from a computation of length
    /// `span_secs` on the kernel's core, in seconds, drawn from the
    /// stream warmed by [`kernel_noise`](Self::kernel_noise) (the scalar
    /// stream is derived when the batch skipped the detour lane). `None`
    /// when the channel draws nothing: detours off, or an empty span.
    ///
    /// The number of detours is drawn from a Poisson distribution with
    /// mean `detour_rate × span`, each detour contributing an exponential
    /// duration with the configured mean.
    pub fn detour_time_warmed(&self, kn: &mut KernelNoise, span_secs: f64) -> Option<f64> {
        if !self.detour_on() || span_secs <= 0.0 {
            return None;
        }
        let mut rng = kn
            .detour
            .take()
            .unwrap_or_else(|| self.rng.stream(StreamKind::OsDetour, kn.core, kn.instance));
        Some(self.detours(&mut rng, span_secs))
    }

    /// The OS-detour draw of
    /// [`detour_time_warmed`](Self::detour_time_warmed), read from `rng`.
    fn detours(&self, rng: &mut ChaCha8, span_secs: f64) -> f64 {
        let n = poisson(rng, self.config.detour_rate * span_secs);
        let mut total = 0.0;
        for _ in 0..n {
            // Exponential via inverse transform.
            let u: f64 = rng.range_f64(f64::EPSILON, 1.0);
            total += -self.config.detour_mean * u.ln();
        }
        total
    }
}

/// One kernel's pre-drawn noise, produced by
/// [`NoiseModel::kernel_noise`]: the multiplicative factors plus a warmed
/// OS-detour stream consumed later by
/// [`NoiseModel::detour_time_warmed`] (the detour's span is only known
/// once the cpu/mem roofline is priced).
#[derive(Debug)]
pub struct KernelNoise {
    /// Multiplicative factor on the kernel's CPU term.
    pub cpu_factor: f64,
    /// Persistent per-core memory-speed bias.
    pub mem_bias: f64,
    /// Multiplicative factor on the kernel's memory term.
    pub mem_factor: f64,
    /// Channels that derived a value: cpu and mem jitter when live, the
    /// memory bias only on its cache-filling draw (memoised hits do no
    /// ChaCha work).
    pub draws: u32,
    /// True when the interleaved four-lane warm-up ran.
    pub warmed: bool,
    core: u64,
    instance: u64,
    detour: Option<ChaCha8>,
}

/// Poisson sampler (Knuth's method for small means, normal approximation
/// for large means — detour counts per kernel are almost always small).
fn poisson(rng: &mut crate::chacha::ChaCha8, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean > 64.0 {
        // Normal approximation with continuity correction.
        let u1: f64 = rng.range_f64(f64::EPSILON, 1.0);
        let u2: f64 = rng.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        return (mean + z * mean.sqrt()).round().max(0.0) as u64;
    }
    let threshold = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.next_f64();
        if p <= threshold {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(cfg: NoiseConfig) -> NoiseModel {
        NoiseModel::new(cfg, RngFactory::new(7))
    }

    #[test]
    fn silent_is_identity() {
        let m = model(NoiseConfig::silent());
        assert_eq!(m.cpu_factor(0, 0), 1.0);
        assert_eq!(m.mem_factor(0, 0), 1.0);
        assert_eq!(m.detour_time(0, 0, 1.0), 0.0);
        assert_eq!(m.net_factor(0, 0), 1.0);
        assert!(NoiseConfig::silent().is_silent());
        assert!(!NoiseConfig::realistic().is_silent());
    }

    #[test]
    fn factors_are_deterministic_per_key() {
        let m = model(NoiseConfig::realistic());
        assert_eq!(m.cpu_factor(3, 9), m.cpu_factor(3, 9));
        assert_eq!(m.net_factor(11, 2), m.net_factor(11, 2));
        assert_ne!(m.net_factor(11, 2), m.net_factor(11, 3));
        assert_ne!(m.cpu_factor(3, 9), m.cpu_factor(3, 10));
    }

    #[test]
    fn detour_time_grows_with_span() {
        let m =
            model(NoiseConfig { detour_rate: 1000.0, detour_mean: 1e-5, ..NoiseConfig::silent() });
        let short: f64 = (0..200).map(|i| m.detour_time(0, i, 0.001)).sum();
        let long: f64 = (0..200).map(|i| m.detour_time(0, i + 1000, 0.01)).sum();
        assert!(long > short * 3.0, "long spans must collect more detours ({long} vs {short})");
    }

    #[test]
    fn detour_time_nonnegative_and_zero_for_zero_span() {
        let m = model(NoiseConfig::realistic());
        assert_eq!(m.detour_time(0, 0, 0.0), 0.0);
        for i in 0..100 {
            assert!(m.detour_time(1, i, 0.005) >= 0.0);
        }
    }

    #[test]
    fn scaled_zero_is_silent() {
        assert!(NoiseConfig::realistic().scaled(0.0).is_silent());
    }

    #[test]
    fn net_factor_is_the_keyed_network_stream() {
        // The factor the engine applies to a message or collective: one
        // jitter draw from the `(Network, entity, seq)` stream.
        let cfg = NoiseConfig::realistic();
        let m = model(cfg.clone());
        for (entity, seq) in [(0, 0), ((1 << 40) | (2 << 20) | 7, 5), (u64::MAX, 3)] {
            let mut rng = RngFactory::new(7).stream(StreamKind::Network, entity, seq);
            assert_eq!(m.net_factor(entity, seq), jitter_factor(&mut rng, cfg.net_sigma));
        }
    }

    #[test]
    fn kernel_noise_reports_only_real_draws() {
        let m = model(NoiseConfig::realistic());
        let mut kn = m.kernel_noise(3, 9, true);
        assert_eq!((kn.cpu_factor, kn.mem_factor), (m.cpu_factor(3, 9), m.mem_factor(3, 9)));
        assert_eq!(kn.mem_bias, m.mem_bias(3));
        assert_eq!((kn.draws, kn.warmed), (3, true), "cpu + filling bias + mem");
        // An empty span leaves the detour channel undrawn.
        assert_eq!(m.detour_time_warmed(&mut kn, 0.0), None);
        // Short-circuited channels draw nothing.
        let silent = model(NoiseConfig::silent());
        let mut kn = silent.kernel_noise(0, 0, true);
        assert_eq!((kn.cpu_factor, kn.mem_bias, kn.mem_factor), (1.0, 1.0, 1.0));
        assert_eq!((kn.draws, kn.warmed), (0, false));
        assert_eq!(silent.detour_time_warmed(&mut kn, 0.001), None);
    }

    #[test]
    fn mem_bias_memoisation_is_transparent() {
        let m = model(NoiseConfig::realistic());
        let fresh = model(NoiseConfig::realistic());
        let first = m.mem_bias(3);
        assert_eq!(first, m.mem_bias(3), "memoised hit must return the drawn value");
        assert_eq!(first, fresh.mem_bias(3), "cache must not change the drawn value");
        // Beyond the cache bound the draw is simply re-derived.
        let far = BIAS_CACHE_MAX_CORES + 7;
        assert_eq!(m.mem_bias(far), fresh.mem_bias(far));
    }

    #[test]
    fn kernel_noise_batch_matches_scalar_draws() {
        let m = model(NoiseConfig::realistic());
        let scalar = model(NoiseConfig::realistic());
        for instance in 0..50u64 {
            let mut kn = m.kernel_noise(1, instance, true);
            assert_eq!(kn.cpu_factor, scalar.cpu_factor(1, instance));
            assert_eq!(kn.mem_bias, scalar.mem_bias(1));
            assert_eq!(kn.mem_factor, scalar.mem_factor(1, instance));
            let span = 0.001 * (instance + 1) as f64;
            assert_eq!(
                m.detour_time_warmed(&mut kn, span),
                Some(scalar.detour_time(1, instance, span)),
                "warmed detour stream must continue the scalar keystream (instance {instance})"
            );
        }
    }

    #[test]
    fn kernel_noise_without_mem_skips_mem_channels() {
        let m = model(NoiseConfig::realistic());
        let kn = m.kernel_noise(0, 4, false);
        assert_eq!(kn.mem_bias, 1.0);
        assert_eq!(kn.mem_factor, 1.0);
        assert_eq!(kn.cpu_factor, m.cpu_factor(0, 4));
    }

    #[test]
    fn kernel_noise_scalar_fallback_matches() {
        // Only the detour channel live: below the batch threshold.
        let cfg = NoiseConfig { detour_rate: 100.0, detour_mean: 1e-5, ..NoiseConfig::silent() };
        let m = model(cfg.clone());
        let scalar = model(cfg);
        let mut kn = m.kernel_noise(0, 9, true);
        assert_eq!(kn.cpu_factor, 1.0);
        assert_eq!(kn.mem_factor, 1.0);
        assert_eq!((kn.draws, kn.warmed), (0, false));
        assert_eq!(m.detour_time_warmed(&mut kn, 0.002), Some(scalar.detour_time(0, 9, 0.002)));
    }

    #[test]
    fn kernel_noise_counts_draws_and_batches() {
        let m = model(NoiseConfig::realistic());
        let mut draws = Vec::new();
        let mut detours = 0;
        let mut warm_ups = 0;
        // Same core each time, so only the first call fills the bias
        // cache; the third has a zero span, so its detour does not draw.
        for (instance, span) in [(0, 0.001), (1, 0.001), (2, 0.0)] {
            let mut kn = m.kernel_noise(0, instance, true);
            draws.push(kn.draws);
            warm_ups += kn.warmed as u32;
            detours += m.detour_time_warmed(&mut kn, span).is_some() as u32;
        }
        // (cpu+bias+mem) + (cpu+mem) + (cpu+mem), plus two detours.
        assert_eq!(draws, [3, 2, 2]);
        assert_eq!(detours, 2);
        assert_eq!(warm_ups, 3);
    }

    #[test]
    fn poisson_mean_roughly_matches() {
        let f = RngFactory::new(3);
        let mut rng = f.stream(StreamKind::OsDetour, 0, 0);
        let n = 5000;
        let total: u64 = (0..n).map(|_| poisson(&mut rng, 4.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 4.0).abs() < 0.2, "poisson mean {mean} too far from 4");
        // Large-mean branch.
        let total: u64 = (0..n).map(|_| poisson(&mut rng, 100.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 100.0).abs() < 1.5, "poisson mean {mean} too far from 100");
    }
}
