//! Run configuration for the replay engine.

use nrlt_sim::{JobLayout, Machine, NoiseConfig};

/// Everything the engine needs besides the program and the observer.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// The allocated machine.
    pub machine: Machine,
    /// Ranks × threads and pinning.
    pub layout: JobLayout,
    /// Noise intensities (switch off for idealised runs).
    pub noise: NoiseConfig,
    /// Experiment repetition seed; drives every random stream.
    pub seed: u64,
}

impl ExecConfig {
    /// A configuration on `nodes` Jureca-DC nodes with realistic noise.
    pub fn jureca(nodes: u32, layout: JobLayout, seed: u64) -> Self {
        ExecConfig {
            machine: Machine::jureca_dc(nodes),
            layout,
            noise: NoiseConfig::realistic(),
            seed,
        }
    }

    /// Same configuration with different noise.
    pub fn with_noise(mut self, noise: NoiseConfig) -> Self {
        self.noise = noise;
        self
    }

    /// Same configuration with a different seed (one repetition).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jureca_constructor_wires_layout() {
        let c = ExecConfig::jureca(2, JobLayout::block(64, 4), 7);
        assert_eq!(c.machine.nodes, 2);
        assert_eq!(c.layout.ranks, 64);
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn with_modifiers() {
        let c = ExecConfig::jureca(1, JobLayout::block(2, 1), 0)
            .with_noise(NoiseConfig::silent())
            .with_seed(3);
        assert!(c.noise.is_silent());
        assert_eq!(c.seed, 3);
    }
}
