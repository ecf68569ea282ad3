//! Static cost vectors attached to compute kernels.
//!
//! A `Cost` carries exactly the quantities the paper's effort models read:
//! retired CPU instructions (`lt_hwctr`), LLVM IR basic blocks (`lt_bb`),
//! LLVM IR statements (`lt_stmt`), plus the floating-point work and memory
//! traffic the physical-time model needs. In the paper these counts come
//! from an LLVM instrumentation pass; here they are attached to the
//! program IR directly — the same information by a different route.

use std::ops::{Add, AddAssign, Mul};

/// Per-invocation (or per-iteration) static cost of a piece of code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Cost {
    /// Retired machine instructions.
    pub instructions: u64,
    /// Executed LLVM IR basic blocks.
    pub basic_blocks: u64,
    /// Executed LLVM IR statements (instructions in IR terms).
    pub statements: u64,
    /// Floating-point operations (for the roofline CPU term).
    pub flops: u64,
    /// Bytes moved to/from the memory hierarchy.
    pub mem_bytes: u64,
}

impl Cost {
    /// The zero cost.
    pub const ZERO: Cost =
        Cost { instructions: 0, basic_blocks: 0, statements: 0, flops: 0, mem_bytes: 0 };

    /// A cost with every counter derived from an instruction count using
    /// typical ratios for compiled scalar C++ code: one IR statement per
    /// ~1.3 machine instructions, one basic block per ~6 statements.
    pub fn scalar(instructions: u64) -> Cost {
        Cost {
            instructions,
            basic_blocks: instructions / 8,
            statements: (instructions as f64 / 1.3) as u64,
            flops: 0,
            mem_bytes: 0,
        }
    }

    /// Override the basic-block count (branchy code has more blocks per
    /// instruction than streaming loops).
    pub fn with_basic_blocks(mut self, bb: u64) -> Cost {
        self.basic_blocks = bb;
        self
    }

    /// Override the memory traffic.
    pub fn with_mem_bytes(mut self, bytes: u64) -> Cost {
        self.mem_bytes = bytes;
        self
    }

    /// Scale every component by a non-negative factor, rounding.
    pub(crate) fn scale(&self, factor: f64) -> Cost {
        debug_assert!(factor >= 0.0);
        let s = |v: u64| (v as f64 * factor).round() as u64;
        Cost {
            instructions: s(self.instructions),
            basic_blocks: s(self.basic_blocks),
            statements: s(self.statements),
            flops: s(self.flops),
            mem_bytes: s(self.mem_bytes),
        }
    }

    /// Saturating element-wise sum — used when aggregating work between
    /// measurement events, where overflow would silently corrupt logical
    /// timestamps.
    pub fn saturating_add(&self, rhs: &Cost) -> Cost {
        Cost {
            instructions: self.instructions.saturating_add(rhs.instructions),
            basic_blocks: self.basic_blocks.saturating_add(rhs.basic_blocks),
            statements: self.statements.saturating_add(rhs.statements),
            flops: self.flops.saturating_add(rhs.flops),
            mem_bytes: self.mem_bytes.saturating_add(rhs.mem_bytes),
        }
    }
}

impl Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost {
            instructions: self.instructions + rhs.instructions,
            basic_blocks: self.basic_blocks + rhs.basic_blocks,
            statements: self.statements + rhs.statements,
            flops: self.flops + rhs.flops,
            mem_bytes: self.mem_bytes + rhs.mem_bytes,
        }
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        *self = *self + rhs;
    }
}

impl Mul<u64> for Cost {
    type Output = Cost;
    fn mul(self, n: u64) -> Cost {
        Cost {
            instructions: self.instructions * n,
            basic_blocks: self.basic_blocks * n,
            statements: self.statements * n,
            flops: self.flops * n,
            mem_bytes: self.mem_bytes * n,
        }
    }
}

/// Per-iteration cost of a worksharing loop, possibly iteration-dependent.
///
/// Iteration dependence is what makes `lt_loop` mis-estimate effort: a loop
/// whose iterations are cheap still counts one increment per iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum IterCost {
    /// Every iteration costs the same.
    Uniform(Cost),
    /// Cost ramps linearly from `base` at iteration 0 to
    /// `base × last_factor` at the final iteration. `last_factor ≥ 0`.
    Ramp {
        /// Cost of the first iteration.
        base: Cost,
        /// Multiplier reached at the last iteration.
        last_factor: f64,
    },
}

impl IterCost {
    /// Total cost of the iteration range `[begin, end)` out of `total`
    /// iterations.
    pub fn range_cost(&self, begin: u64, end: u64, total: u64) -> Cost {
        debug_assert!(begin <= end && end <= total);
        let n = end - begin;
        if n == 0 {
            return Cost::ZERO;
        }
        match self {
            IterCost::Uniform(c) => *c * n,
            IterCost::Ramp { base, last_factor } => {
                // factor(i) = 1 + (last_factor - 1) * i / (total - 1)
                if total <= 1 {
                    return *base * n;
                }
                let slope = (last_factor - 1.0) / (total - 1) as f64;
                // Sum of factors over [begin, end): n + slope * sum(i)
                let sum_i = (begin + end - 1) as f64 * n as f64 / 2.0;
                let factor_sum = n as f64 + slope * sum_i;
                base.scale(factor_sum.max(0.0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_derives_counts() {
        let c = Cost::scalar(800);
        assert_eq!(c.instructions, 800);
        assert_eq!(c.basic_blocks, 100);
        assert!(c.statements > 500 && c.statements < 700);
    }

    #[test]
    fn add_and_mul() {
        let a = Cost::scalar(100);
        let b = a + a;
        assert_eq!(b.instructions, 200);
        assert_eq!((a * 3).instructions, 300);
        let mut c = a;
        c += a;
        assert_eq!(c, b);
    }

    #[test]
    fn scale_rounds() {
        let c = Cost { instructions: 10, basic_blocks: 3, statements: 5, flops: 0, mem_bytes: 7 }
            .scale(0.5);
        assert_eq!(c.instructions, 5);
        assert_eq!(c.basic_blocks, 2); // 1.5 rounds to 2
        assert_eq!(c.mem_bytes, 4); // 3.5 rounds to 4
    }

    #[test]
    fn saturating_add_never_overflows() {
        let a = Cost { instructions: u64::MAX, ..Cost::ZERO };
        let b = Cost::scalar(10);
        assert_eq!(a.saturating_add(&b).instructions, u64::MAX);
    }

    #[test]
    fn uniform_range_cost() {
        let ic = IterCost::Uniform(Cost::scalar(10));
        assert_eq!(ic.range_cost(0, 5, 100).instructions, 50);
        assert_eq!(ic.range_cost(3, 3, 100), Cost::ZERO);
        assert_eq!(ic.range_cost(0, 100, 100).instructions, 1000);
    }

    #[test]
    fn ramp_total_matches_closed_form() {
        // Ramp 1 → 3 over 100 iterations: mean factor 2.
        let base = Cost::scalar(1000);
        let ic = IterCost::Ramp { base, last_factor: 3.0 };
        let total = ic.range_cost(0, 100, 100);
        let expected = base.instructions as f64 * 100.0 * 2.0;
        assert!((total.instructions as f64 - expected).abs() / expected < 0.01);
    }

    #[test]
    fn ramp_ranges_sum_to_total() {
        let base = Cost::scalar(997);
        let ic = IterCost::Ramp { base, last_factor: 4.0 };
        let total = ic.range_cost(0, 1000, 1000).instructions;
        let split: u64 = [(0, 250), (250, 700), (700, 1000)]
            .iter()
            .map(|&(b, e)| ic.range_cost(b, e, 1000).instructions)
            .sum();
        // Rounding may differ by a few units per range.
        assert!((total as i64 - split as i64).abs() < 10);
    }

    #[test]
    fn ramp_end_heavier_than_start() {
        let ic = IterCost::Ramp { base: Cost::scalar(100), last_factor: 5.0 };
        let lo = ic.range_cost(0, 100, 1000).instructions;
        let hi = ic.range_cost(900, 1000, 1000).instructions;
        assert!(hi > lo * 3);
    }

    #[test]
    fn single_iteration_ramp_degenerates() {
        let ic = IterCost::Ramp { base: Cost::scalar(100), last_factor: 7.0 };
        assert_eq!(ic.range_cost(0, 1, 1).instructions, 100);
    }
}
