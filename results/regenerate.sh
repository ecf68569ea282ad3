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

# Refresh the perf baseline from scratch. The harness stamps each
# entry with this host's `std::thread::available_parallelism` and the
# measured event throughput at write time; starting from an empty file
# (instead of merging into the old one) guarantees no stale row keeps
# the parallelism or zero throughput of a previous host. Every timed
# invocation also appends one record to the append-only perf ledger
# results/history.jsonl — that file is never reset, so `nrlt-report
# trend results/history.jsonl` shows the repo's trajectory across
# regenerations.
echo "timing fig3 for BENCH_pipeline.json ..."
rm -f BENCH_pipeline.json
for j in 1 2 4; do
    ./target/release/fig3 --jobs "$j" --bench-json BENCH_pipeline.json \
        --history results/history.jsonl > /dev/null
    ./target/release/fig3 --only MiniFE-1 --jobs "$j" --observe results/observe/fig3 \
        --bench-json BENCH_pipeline.json > /dev/null
done
./target/release/fig3 --only LULESH-1 --jobs 1 --engine-prof results/engineprof/fig3 \
    --bench-json BENCH_pipeline.json > /dev/null

# Regenerate the exemplar sampled profile: LULESH-1 under fig3's
# protocol with the wall-clock sampling profiler installed. The folded
# stacks (results/prof/fig3/samples.folded) and the sidecar are
# wall-clock data — run-to-run sample counts differ, the frame *names*
# always come from the static registry. The run's wall time lands in
# the baseline under the LULESH-1:sampleprof key, whose
# overhead_vs_plain_pct column is the sampling-overhead budget
# (target: <2% over the plain LULESH-1 run at the same jobs).
echo "regenerating results/prof/fig3 ..."
./target/release/fig3 --only LULESH-1 --jobs 1 --sample-prof results/prof/fig3 \
    --bench-json BENCH_pipeline.json --history results/history.jsonl > /dev/null

# Engine microbenchmarks: the hot-loop data structures in isolation
# (ladder calendar, wildcard book, batched noise draws), gated under
# the `engine-micro` bin key.
echo "timing engine microbenchmarks ..."
./target/release/engine --bench-json BENCH_pipeline.json --history results/history.jsonl

# Weak-scaling sweep through the sharded columnar trace store: the
# three mini-apps grow to ~10,000 simulated ranks under the default
# 64 MiB trace budget, so the largest sizes spill columnar segments
# and stream them back through the out-of-core analysis path. Each
# size lands in the baseline under the `scale` bin key with
# events/sec and peak-RSS KPIs; the bin first asserts that resident
# and force-spilled analysis output is byte-identical.
echo "timing weak-scaling sweep (scale) ..."
./target/release/scale --bench-json BENCH_pipeline.json \
    --history results/history.jsonl > results/scale.txt

echo "done; outputs in results/, telemetry in results/telemetry/,"
echo "report artifacts (report.txt, report.json, flamegraph.folded) in results/report/,"
echo "observe exemplar in results/observe/fig3/, engine profile in results/engineprof/fig3/,"
echo "sampled profile in results/prof/fig3/, perf ledger in results/history.jsonl,"
echo "perf baseline in BENCH_pipeline.json"
