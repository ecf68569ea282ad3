//! Clock modes: the physical `tsc` baseline and the five logical
//! effort models of the paper (Section II-A).

use std::fmt;

/// Which timer drives the trace timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClockMode {
    /// Physical clock: the x86-64 time-stamp counter, here the virtual
    /// wall clock of the simulation.
    Tsc,
    /// `lt_1`: the original Lamport clock, increment 1 per event.
    Lt1,
    /// `lt_loop`: increment 1 per event plus 1 per OpenMP loop iteration.
    LtLoop,
    /// `lt_bb`: increment 1 plus LLVM basic blocks executed since the
    /// last event; OpenMP runtime calls count X = 100 blocks.
    LtBb,
    /// `lt_stmt`: like `lt_bb`, counting LLVM statements; OpenMP runtime
    /// calls count Y = 4300 statements.
    LtStmt,
    /// `lt_hwctr`: increment by the difference of the (virtual)
    /// `PERF_COUNT_HW_INSTRUCTIONS` counter since the last event.
    LtHwctr,
}

impl ClockMode {
    /// All modes in the paper's presentation order.
    pub const ALL: [ClockMode; 6] = [
        ClockMode::Tsc,
        ClockMode::Lt1,
        ClockMode::LtLoop,
        ClockMode::LtBb,
        ClockMode::LtStmt,
        ClockMode::LtHwctr,
    ];

    /// The logical modes only.
    pub const LOGICAL: [ClockMode; 5] =
        [ClockMode::Lt1, ClockMode::LtLoop, ClockMode::LtBb, ClockMode::LtStmt, ClockMode::LtHwctr];

    /// Display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            ClockMode::Tsc => "tsc",
            ClockMode::Lt1 => "lt_1",
            ClockMode::LtLoop => "lt_loop",
            ClockMode::LtBb => "lt_bb",
            ClockMode::LtStmt => "lt_stmt",
            ClockMode::LtHwctr => "lt_hwctr",
        }
    }

    /// True for the logical (Lamport) modes.
    pub fn is_logical(self) -> bool {
        self != ClockMode::Tsc
    }

    /// True for modes whose timestamps are repetition-invariant: every
    /// logical mode except `lt_hwctr`, whose counter re-imports timing
    /// noise through spin-waiting and read jitter.
    pub fn is_noise_free(self) -> bool {
        self.is_logical() && self != ClockMode::LtHwctr
    }
}

impl fmt::Display for ClockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(!ClockMode::Tsc.is_logical());
        assert!(ClockMode::Lt1.is_logical());
        assert!(ClockMode::Lt1.is_noise_free());
        assert!(ClockMode::LtStmt.is_noise_free());
        assert!(!ClockMode::LtHwctr.is_noise_free());
        assert!(!ClockMode::Tsc.is_noise_free());
    }

    #[test]
    fn logical_list_excludes_tsc() {
        assert!(!ClockMode::LOGICAL.contains(&ClockMode::Tsc));
        assert_eq!(ClockMode::LOGICAL.len(), 5);
    }
}
