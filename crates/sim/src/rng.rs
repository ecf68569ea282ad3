//! Deterministic random-number streams.
//!
//! Every stochastic quantity in the simulation (noise detours, jitter,
//! network variability) is drawn from a stream derived from a global
//! experiment seed plus a structured key identifying *what* the randomness
//! is for. This makes results independent of the order in which the
//! discrete-event engine happens to process locations: two runs with the
//! same seed produce bit-identical timings, and a "repetition" of an
//! experiment is simply a different seed.

use crate::chacha::ChaCha8;

/// Identifies the purpose of a random stream, so that independent
/// consumers never share a stream by accident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum StreamKind {
    /// Multiplicative jitter on kernel execution time (memory/cpu noise).
    KernelJitter = 1,
    /// Operating-system detours stealing CPU from a core.
    OsDetour = 2,
    /// Network latency/bandwidth variability per message.
    Network = 3,
    /// Jitter on per-event measurement overhead.
    MeasureOverhead = 4,
    /// Hardware-counter read nondeterminism.
    HwCounter = 5,
    /// Collective-internal skew (per-rank exit stagger).
    CollectiveSkew = 6,
    /// Dynamic loop-schedule tie breaking.
    Schedule = 7,
    /// Persistent per-core memory-speed bias (page placement luck).
    MemBias = 8,
}

/// Factory for deterministic, structurally keyed RNG streams.
///
/// Streams are the in-repo [`ChaCha8`]: fast, high-quality, and stable
/// across platforms and versions by construction — the generator lives
/// in this repository, so no dependency upgrade can ever change the
/// streams an experiment seed produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngFactory {
    seed: u64,
}

impl RngFactory {
    /// Create a factory for one experiment repetition.
    pub fn new(seed: u64) -> Self {
        RngFactory { seed }
    }

    /// Derive the stream for `(kind, entity, instance)`.
    ///
    /// `entity` typically identifies a location (rank/thread) or a core;
    /// `instance` distinguishes successive uses by the same entity when a
    /// fresh stream per use is wanted (e.g. one stream per message).
    pub fn stream(&self, kind: StreamKind, entity: u64, instance: u64) -> ChaCha8 {
        ChaCha8::from_seed(self.stream_key(kind, entity, instance))
    }

    /// The 256-bit ChaCha key that [`stream`](Self::stream) would seed
    /// for `(kind, entity, instance)`.
    fn stream_key(&self, kind: StreamKind, entity: u64, instance: u64) -> [u8; 32] {
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&self.seed.to_le_bytes());
        key[8..16].copy_from_slice(&(kind as u64).to_le_bytes());
        key[16..24].copy_from_slice(&entity.to_le_bytes());
        key[24..32].copy_from_slice(&instance.to_le_bytes());
        // Mix the key through splitmix-style finalizers so that nearby
        // seeds/entities do not produce correlated ChaCha key schedules.
        for chunk in key.chunks_exact_mut(8) {
            let mut x = u64::from_le_bytes(chunk.try_into().unwrap());
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            chunk.copy_from_slice(&x.to_le_bytes());
        }
        key
    }

    /// Derive four streams at once, computing their first keystream
    /// blocks in a single interleaved ChaCha pass. Each returned stream
    /// is positioned identically to `self.stream(kind, entity, instance)`
    /// — same key, same keystream from the first word on — so batching
    /// never changes what a consumer draws.
    pub fn stream4(&self, specs: [(StreamKind, u64, u64); 4]) -> [ChaCha8; 4] {
        crate::chacha::warm4(specs.map(|(k, e, i)| self.stream_key(k, e, i)))
    }
}

/// Sample a multiplicative jitter factor `>= lo` with mean ~1.
///
/// The distribution is a shifted log-normal-like construction built from a
/// plain uniform draw: cheap, bounded below, right-skewed — a reasonable
/// match for run-time noise which occasionally slows things down a lot but
/// never speeds them up beyond the noiseless baseline by much.
pub fn jitter_factor(rng: &mut ChaCha8, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return 1.0;
    }
    // Sum of three uniforms approximates a normal (Irwin-Hall), then
    // exponentiate for right skew.
    let u: f64 = (rng.next_f64() + rng.next_f64() + rng.next_f64()) / 1.5 - 1.0; // ~[-1,1], mean 0
    (sigma * u).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let f = RngFactory::new(42);
        let a: u64 = f.stream(StreamKind::KernelJitter, 7, 0).next_u64();
        let b: u64 = f.stream(StreamKind::KernelJitter, 7, 0).next_u64();
        assert_eq!(a, b);
    }

    #[test]
    fn streams_differ_by_kind_entity_instance_seed() {
        let f = RngFactory::new(42);
        let base: u64 = f.stream(StreamKind::KernelJitter, 7, 0).next_u64();
        let by_kind: u64 = f.stream(StreamKind::OsDetour, 7, 0).next_u64();
        let by_entity: u64 = f.stream(StreamKind::KernelJitter, 8, 0).next_u64();
        let by_instance: u64 = f.stream(StreamKind::KernelJitter, 7, 1).next_u64();
        let by_seed: u64 = RngFactory::new(43).stream(StreamKind::KernelJitter, 7, 0).next_u64();
        assert_ne!(base, by_kind);
        assert_ne!(base, by_entity);
        assert_ne!(base, by_instance);
        assert_ne!(base, by_seed);
    }

    #[test]
    fn jitter_factor_is_one_without_sigma() {
        let f = RngFactory::new(1);
        let mut rng = f.stream(StreamKind::KernelJitter, 0, 0);
        assert_eq!(jitter_factor(&mut rng, 0.0), 1.0);
    }

    #[test]
    fn jitter_factor_is_positive_and_centered() {
        let f = RngFactory::new(1);
        let mut rng = f.stream(StreamKind::KernelJitter, 0, 0);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = jitter_factor(&mut rng, 0.05);
            assert!(x > 0.0);
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean jitter {mean} too far from 1");
    }
}
