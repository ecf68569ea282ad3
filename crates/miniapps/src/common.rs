//! Common benchmark-instance plumbing.

use nrlt_prog::Program;
use nrlt_sim::JobLayout;

/// A named, fully specified benchmark run: the program plus the job shape
/// it is meant to execute under (Section IV of the paper).
#[derive(Debug, Clone)]
pub struct BenchmarkInstance {
    /// Name as used in the paper (e.g. `MiniFE-2`, `TeaLeaf-4`).
    pub name: String,
    /// The rank programs.
    pub program: Program,
    /// Nodes the job allocates.
    pub nodes: u32,
    /// Ranks × threads and pinning.
    pub layout: JobLayout,
    /// Region-name filter rules the paper's rule of thumb would apply
    /// (keep tsc overhead ≈ 5 % where possible).
    pub filter_rules: Vec<String>,
}

impl BenchmarkInstance {
    /// Validate the program, panicking with the full error list on
    /// failure (a mini-app skeleton bug, not a user error).
    pub(crate) fn validated(self) -> Self {
        if let Err(errors) = self.program.validate() {
            let msgs: Vec<String> = errors.iter().map(ToString::to_string).collect();
            panic!("{} failed validation:\n  {}", self.name, msgs.join("\n  "));
        }
        self
    }
}

/// Deterministic per-rank imbalance factor in `[1, 1+strength]`, spread
/// quasi-uniformly over ranks (golden-ratio hashing). Used for LULESH's
/// artificial imbalance.
pub(crate) fn rank_imbalance_factor(rank: u32, strength: f64) -> f64 {
    let g = (rank as f64 * 0.618_033_988_749_895).fract();
    1.0 + strength * g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_factor_bounds_and_spread() {
        let vals: Vec<f64> = (0..64).map(|r| rank_imbalance_factor(r, 0.5)).collect();
        for &v in &vals {
            assert!((1.0..=1.5).contains(&v));
        }
        let min = vals.iter().cloned().fold(f64::MAX, f64::min);
        let max = vals.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max - min > 0.4, "factors must spread: {min}..{max}");
        // Deterministic.
        assert_eq!(rank_imbalance_factor(7, 0.5), rank_imbalance_factor(7, 0.5));
    }

    #[test]
    fn zero_strength_is_balanced() {
        for r in 0..16 {
            assert_eq!(rank_imbalance_factor(r, 0.0), 1.0);
        }
    }
}
