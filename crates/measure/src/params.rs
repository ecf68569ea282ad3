//! Measurement cost and effort parameters.
//!
//! The overhead side models what instrumentation costs the *measured*
//! program: per-event recording, per-basic-block counting code injected
//! by the LLVM pass, per-iteration counting for `lt_loop`, hardware
//! counter read syscalls, trace-buffer cache pollution, piggyback
//! messages, and the desynchronisation instrumentation induces between
//! threads. The effort side holds the constants of the logical models
//! (the paper's X = 100 basic blocks / Y = 4300 statements per OpenMP
//! runtime call, fitted to LULESH) and the conversion rates of the
//! virtual instruction counter.

use crate::modes::ClockMode;

/// Physical costs charged by the measurement system.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadParams {
    /// Cost of recording one event (timer read + buffer write), seconds.
    pub record_event: f64,
    /// Cost of the runtime filter check for a discarded event, seconds.
    pub filter_check: f64,
    /// Counting instructions injected per executed basic block
    /// (lt_bb / lt_stmt: load-add-store on a thread-local counter). These
    /// feed the roofline CPU term: memory-bound kernels absorb them,
    /// CPU-bound branchy code pays in full.
    pub instr_per_basic_block: u64,
    /// Counting instructions injected per OpenMP loop iteration
    /// (lt_loop).
    pub instr_per_loop_iter: u64,
    /// Divisor applied to per-block counting inside worksharing loops:
    /// the instrumentation pass hoists and batches counter increments in
    /// regular loops, so hot numeric kernels pay a fraction of the
    /// per-block cost while branchy, call-dense code pays in full. This
    /// is what makes the paper's bb/stmt overhead ≈100 % in MiniFE's
    /// initialisation but ≈0.2 % in its solver.
    pub loop_hoist_divisor: u64,
    /// Extra cost per synchronisation-bearing event (SendPost,
    /// RecvComplete, CollectiveEnd) for the piggyback message the logical
    /// clocks exchange, seconds.
    pub piggyback_message: f64,
    /// Trace-buffer bytes per location, competing for L3.
    pub buffer_footprint: u64,
    /// Thread desynchronisation induced by instrumentation, `[0, 1]`.
    pub desync: f64,
}

impl OverheadParams {
    /// Calibrated defaults per clock mode.
    ///
    /// `tsc`/`lt_1`/`lt_loop` read a cheap timer or bump a counter;
    /// `lt_bb`/`lt_stmt` add compiled-in counting code on every basic
    /// block; `lt_hwctr` pays a perf-events read syscall per event.
    pub(crate) fn for_mode(mode: ClockMode) -> OverheadParams {
        let base = OverheadParams {
            record_event: 25e-9,
            filter_check: 1.5e-9,
            instr_per_basic_block: 0,
            instr_per_loop_iter: 0,
            loop_hoist_divisor: 8,
            piggyback_message: 0.0,
            buffer_footprint: 2 << 20,
            desync: 0.6,
        };
        match mode {
            ClockMode::Tsc => base,
            ClockMode::Lt1 => {
                OverheadParams { record_event: 28e-9, piggyback_message: 120e-9, ..base }
            }
            ClockMode::LtLoop => OverheadParams {
                record_event: 28e-9,
                instr_per_loop_iter: 1,
                piggyback_message: 120e-9,
                ..base
            },
            ClockMode::LtBb => OverheadParams {
                record_event: 32e-9,
                instr_per_basic_block: 4,
                piggyback_message: 120e-9,
                ..base
            },
            ClockMode::LtStmt => OverheadParams {
                record_event: 32e-9,
                instr_per_basic_block: 4, // stmt counts are kept per block
                piggyback_message: 120e-9,
                ..base
            },
            ClockMode::LtHwctr => OverheadParams {
                record_event: 1000e-9, // perf read syscall per event
                filter_check: 40e-9,   // perf infrastructure per call
                piggyback_message: 120e-9,
                buffer_footprint: 3 << 20,
                ..base
            },
        }
    }
}

/// Which virtual hardware counter drives `lt_hwctr`.
///
/// The paper uses `PERF_COUNT_HW_INSTRUCTIONS` and names "experiments
/// with different hardware counters and combinations" as future work;
/// these variants implement that exploration on the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HwCounterSource {
    /// Retired instructions (the paper's counter). Sees runtime and
    /// spin effort; noisy through spinning.
    Instructions,
    /// Bytes moved through the memory hierarchy (a cache/memory traffic
    /// counter). Blind to CPU-bound effort and to spinning, but a better
    /// effort proxy for bandwidth-bound code.
    MemoryTraffic,
    /// Linear combination: `instructions + weight × mem_bytes`. A crude
    /// stand-in for roofline-style counter combinations.
    Combined {
        /// Instructions-equivalent weight per byte moved.
        bytes_weight: f64,
    },
}

/// Constants of the logical effort models.
#[derive(Debug, Clone, PartialEq)]
pub struct EffortParams {
    /// Basic blocks charged per OpenMP runtime call (the paper's X).
    pub omp_call_basic_blocks: u64,
    /// Statements charged per OpenMP runtime call (the paper's Y).
    pub omp_call_statements: u64,
    /// Fraction of peak instruction rate retired while busy-waiting
    /// (spin loops are short and branchy).
    pub spin_ipc_fraction: f64,
    /// Fraction of peak instruction rate retired inside MPI/OpenMP
    /// runtime code.
    pub runtime_ipc_fraction: f64,
    /// Log-scale sigma of the hardware counter's read-to-read
    /// nondeterminism (Ritter et al. observe counters are noisy but less
    /// so than time).
    pub hwctr_sigma: f64,
    /// Counter behind `lt_hwctr`.
    pub hwctr_source: HwCounterSource,
    /// Log-scale sigma of a per-location, per-repetition spin-rate
    /// factor: how many instructions a busy-wait retires per second
    /// depends on contention and futex behaviour and varies between
    /// runs — the main reason the paper's `lt_hwctr` measurements are
    /// "much more susceptible to noise" in wait-heavy configurations
    /// (TeaLeaf-2, Section V-B).
    pub spin_rate_sigma: f64,
}

impl Default for EffortParams {
    fn default() -> Self {
        EffortParams {
            omp_call_basic_blocks: 100,
            omp_call_statements: 4300,
            spin_ipc_fraction: 0.6,
            runtime_ipc_fraction: 0.9,
            hwctr_sigma: 0.01,
            hwctr_source: HwCounterSource::Instructions,
            spin_rate_sigma: 0.6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_modes_have_per_block_cost() {
        assert_eq!(OverheadParams::for_mode(ClockMode::Tsc).instr_per_basic_block, 0);
        assert!(OverheadParams::for_mode(ClockMode::LtBb).instr_per_basic_block > 0);
        assert!(OverheadParams::for_mode(ClockMode::LtStmt).instr_per_basic_block > 0);
        assert_eq!(OverheadParams::for_mode(ClockMode::LtHwctr).instr_per_basic_block, 0);
        assert!(OverheadParams::for_mode(ClockMode::LtLoop).instr_per_loop_iter > 0);
    }

    #[test]
    fn hwctr_reads_are_expensive() {
        let hw = OverheadParams::for_mode(ClockMode::LtHwctr);
        let tsc = OverheadParams::for_mode(ClockMode::Tsc);
        assert!(hw.record_event > tsc.record_event * 5.0);
    }

    #[test]
    fn only_logical_modes_pay_piggyback() {
        assert_eq!(OverheadParams::for_mode(ClockMode::Tsc).piggyback_message, 0.0);
        for m in ClockMode::LOGICAL {
            assert!(OverheadParams::for_mode(m).piggyback_message > 0.0, "{m}");
        }
    }

    #[test]
    fn effort_defaults_match_paper_constants() {
        let e = EffortParams::default();
        assert_eq!(e.omp_call_basic_blocks, 100);
        assert_eq!(e.omp_call_statements, 4300);
    }
}
