#!/bin/sh
# Regenerate every archived experiment output. From the repo root:
#   sh results/regenerate.sh
# Each binary also writes a self-telemetry bundle (run manifest,
# metrics, Chrome trace) under results/telemetry/<bin>/.
#
# JOBS controls the experiment fan-out (0 = available parallelism,
# 1 = serial). Output is byte-identical for every value — the cells
# merge in deterministic order — so parallel regeneration is safe:
#   JOBS=8 sh results/regenerate.sh
set -e
JOBS="${JOBS:-0}"
cargo build --release -p nrlt-bench
for b in table1 table2 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 narrative ablation counters critical; do
    echo "running $b ..."
    ./target/release/$b --jobs "$JOBS" \
        --telemetry results/telemetry/$b \
        --report results/report/$b > results/$b.txt
done

# Regenerate the exemplar resource-observatory bundle: MiniFE-1 under
# fig3's protocol with the machine observatory attached. The bundle is
# byte-identical for every JOBS value (runs merge by name), so it is
# safe to regenerate in parallel too.
echo "regenerating results/observe/fig3 ..."
./target/release/fig3 --only MiniFE-1 --jobs "$JOBS" \
    --observe results/observe/fig3 > /dev/null

# Regenerate the exemplar engine-profile bundle: LULESH-1 under fig3's
# protocol with the engine self-profiler attached. Like the observe
# bundle, the deterministic half (engineprof.json) is byte-identical
# for every JOBS value; only the wall sidecar (engineprof.wall.json)
# reflects this host's clock.
echo "regenerating results/engineprof/fig3 ..."
./target/release/fig3 --only LULESH-1 --jobs "$JOBS" \
    --engine-prof results/engineprof/fig3 > /dev/null

# Regenerate the exemplar sampled profile: LULESH-1 under fig3's
# protocol with the wall-clock sampling profiler installed. The folded
# stacks (results/prof/fig3/samples.folded) and the sidecar are
# wall-clock data — run-to-run sample counts differ, the frame *names*
# always come from the static registry.
echo "regenerating results/prof/fig3 ..."
./target/release/fig3 --only LULESH-1 --jobs 1 --sample-prof results/prof/fig3 > /dev/null

# Weak-scaling sweep through the sharded columnar trace store: the
# three mini-apps grow to ~10,000 simulated ranks under the default
# 64 MiB trace budget, so the largest sizes spill columnar segments
# and stream them back through the out-of-core analysis path. Each
# row reports events/sec and that size's peak RSS; the bin first
# asserts that resident and force-spilled analysis output is
# byte-identical.
echo "running weak-scaling sweep (scale) ..."
./target/release/scale > results/scale.txt

echo "done; outputs in results/, telemetry in results/telemetry/,"
echo "report artifacts (report.txt, report.json, flamegraph.folded) in results/report/,"
echo "observe exemplar in results/observe/fig3/, engine profile in results/engineprof/fig3/,"
echo "sampled profile in results/prof/fig3/"
