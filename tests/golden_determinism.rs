//! Golden determinism: the full fig3 MiniFE-1 experiment — the same
//! configuration the CI throughput smoke drives — must produce
//! field-identical [`ExperimentResult`]s across worker counts and
//! across repeated invocations. This pins down the engine-speed
//! overhaul's core claim: arena books, the ladder calendar, row event
//! streams, and batched noise draws change wall time only, never a
//! result. Every comparison below is exact (`assert_eq!` on the full
//! field set), not approximate.

use nrlt::prelude::*;
use nrlt::ExperimentResult;

fn options(jobs: usize) -> ExperimentOptions {
    // fig3 runs the paper protocol (all six modes, five repetitions);
    // only the fan-out differs between the compared runs.
    ExperimentOptions { jobs, ..Default::default() }
}

/// Exact equality over every result field. `ExperimentResult` holds
/// floats (profiles) and durations; all of them must match bit-for-bit
/// because every cell derives from the seed alone.
fn assert_identical(a: &ExperimentResult, b: &ExperimentResult, what: &str) {
    assert_eq!(a.name, b.name, "{what}: name");
    assert_eq!(a.reference, b.reference, "{what}: reference runs");
    assert_eq!(a.phase_names, b.phase_names, "{what}: phase names");
    assert_eq!(a.events, b.events, "{what}: event counts");
    assert_eq!(a.modes.len(), b.modes.len(), "{what}: mode count");
    for (ma, mb) in a.modes.iter().zip(&b.modes) {
        assert_eq!(ma.mode, mb.mode, "{what}: mode order");
        assert_eq!(ma.profiles, mb.profiles, "{what}: {} per-rep profiles", ma.mode);
        assert_eq!(ma.mean, mb.mean, "{what}: {} mean profile", ma.mode);
        assert_eq!(ma.run_times, mb.run_times, "{what}: {} run times", ma.mode);
        assert_eq!(ma.phase_times, mb.phase_times, "{what}: {} phase times", ma.mode);
        assert_eq!(ma.events, mb.events, "{what}: {} event count", ma.mode);
    }
}

#[test]
fn minife1_is_identical_across_jobs_and_repeats() {
    let instance = minife_1();
    let serial = run_experiment(&instance, &options(1));
    let fanned = run_experiment(&instance, &options(2));
    assert_identical(&serial, &fanned, "--jobs 1 vs --jobs 2");
    let repeat = run_experiment(&instance, &options(1));
    assert_identical(&serial, &repeat, "first vs second invocation");
}
