#!/usr/bin/env bash
# Tier-1 verification plus the lint/bench gates added with the eval-engine
# PR. Everything runs offline (all dependencies are vendored in ./vendor).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> build (release)"
cargo build --release

echo "==> tests (workspace)"
cargo test --workspace -q

echo "==> mapbench tests (pinned API surface + five-workload smoke)"
# benchmark/ is a workspace of its own that drives the mapper through
# its public stage functions only; its 18 tests compile that pinned
# surface and run every workload once (--iters 1), checking that the
# harness-composed chain equals one MappingPipeline::run call — a PR
# that deletes or reshapes public API fails here, before the driver's
# benchmark run does
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "==> rustfmt"
cargo fmt --all -- --check

echo "==> clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> bench smoke (1 sample)"
# the eval bench asserts the 256-crossbar scenario stays on the batched
# (multi-word) path before timing anything — a fallback regression fails
# here, not as a silent slowdown
NEUROMAP_BENCH_FAST=1 cargo bench -p neuromap-bench --bench eval
# the noc bench also differentially gates the event engine against the
# cycle-driven oracle before timing anything
NEUROMAP_BENCH_FAST=1 cargo bench -p neuromap-bench --bench noc

echo "==> BENCH_eval.json key gate (large-arch + placement trajectory present)"
for key in \
  "swarm_eval/synth_16x16grid/scalar/CutPackets" \
  "swarm_eval/synth_16x16grid/batched/CutPackets" \
  "swarm_eval/synth_16x16grid/batched/CutSpikes" \
  "swarm_eval/synth_16x16grid/scalar/CutHops" \
  "swarm_eval/synth_16x16grid/batched/CutHops" \
  "placement/synth_16x16grid/optimize" \
  "placement/synth_4chip16x16/optimize" \
  "pipeline/hop_metrics/synth_16x16torus_trees" \
  "pso_step/synth_16x16grid/swarm40_iters4/CutPackets" \
  "pso_step/synth_16x16grid/swarm40_iters4/CutSpikes" \
  "multilevel/synth_32x32grid/flat/CutSpikes" \
  "multilevel/synth_32x32grid/vcycle/CutSpikes" \
  "hier/synth_4chip16x16/scalar/CutSpikes" \
  "hier/synth_4chip16x16/batched/CutSpikes" \
  "hier/synth_4chip16x16/batched/CutPackets" \
  "hier/synth_4chip16x16/batched/CutHops"; do
  grep -qF "\"id\": \"$key\"" BENCH_eval.json \
    || { echo "BENCH_eval.json lost key: $key"; exit 1; }
done

echo "==> paired-ratio gate (same-run baseline-vs-candidate entries present)"
# cross-PR reads compare these ratios, not absolute ns (the 1-core box
# throttles under sustained bench load — ROADMAP caveat from PR 3)
for ratio in \
  "swarm_eval/synth_16x16grid/CutPackets" \
  "swarm_eval/synth_16x16grid/CutHops" \
  "move/synth_2x400/CutSpikes" \
  "coopt/synth_8x8grid/CutHops" \
  "placement/synth_16x16grid/sweep" \
  "multilevel/synth_32x32grid/CutSpikes" \
  "hier/synth_4chip16x16/CutSpikes" \
  "hier/synth_4chip16x16/CutHops"; do
  grep -qF "\"id\": \"$ratio\", \"baseline\"" BENCH_eval.json \
    || { echo "BENCH_eval.json lost paired ratio: $ratio"; exit 1; }
done
for ratio in \
  "engine/sparse_paper64" \
  "engine/dense_burst16" \
  "engine/dense_torus64" \
  "engine/dense_vc4_burst16" \
  "engine/torus64_vc2_shallow" \
  "engine/torus64_vc4_depth4" \
  "trace/dense_burst16" \
  "trees/mesh64_multicast" \
  "hier_engine/multichip64"; do
  grep -qF "\"id\": \"$ratio\", \"baseline\"" BENCH_noc.json \
    || { echo "BENCH_noc.json lost paired ratio: $ratio"; exit 1; }
done

echo "==> dense-regime speedup floor (same-run ratio, throttle-immune)"
# the per-port wake scheduler must keep the event engine ahead of the
# cycle oracle even on saturated traffic; both sides are timed in the
# same bench run, so box throttling cancels out of the ratio
dense=$(sed -n 's/.*"noc_dense_speedup": \([0-9.]*\).*/\1/p' BENCH_noc.json | head -1)
awk -v d="$dense" 'BEGIN { exit !(d >= 1.5) }' \
  || { echo "noc_dense_speedup regressed below 1.5x (got ${dense:-missing})"; exit 1; }

echo "==> multilevel speedup floor (V-cycle vs flat PSO at 1024 crossbars)"
# the coarsen-partition-refine path must keep its wall-time edge over
# flat PSO on the 32x32-grid scenario; the bench itself asserts the
# quality side (V-cycle cut <= flat cut), so this ratio is a genuine
# equal-or-better-quality speedup, same-run and throttle-immune
ml=$(sed -n 's/.*"id": "multilevel\/synth_32x32grid\/CutSpikes".*"speedup": \([0-9.]*\).*/\1/p' BENCH_eval.json | head -1)
awk -v m="$ml" 'BEGIN { exit !(m >= 3.0) }' \
  || { echo "multilevel speedup regressed below 3.0x (got ${ml:-missing})"; exit 1; }

echo "==> hier word-tile speedup floor (1024-crossbar batched vs scalar)"
# past the 256-crossbar byte-tile envelope, the u16 word-tile kernel must
# keep a real batched edge over the scalar fallback on the 4-chip
# scenario; the bench asserts bit-identity with scalar before timing
hr=$(sed -n 's/.*"id": "hier\/synth_4chip16x16\/CutSpikes".*"speedup": \([0-9.]*\).*/\1/p' BENCH_eval.json | head -1)
awk -v h="$hr" 'BEGIN { exit !(h >= 2.0) }' \
  || { echo "hier word-tile speedup regressed below 2.0x (got ${hr:-missing})"; exit 1; }

echo "==> placement pricer speedup floor (adjacency vs dense swap_delta, one 256-crossbar sweep)"
# the optimizer prices swaps over the traffic that exists; the dense O(C)
# swap_delta is only its oracle. The bench asserts both accept the same
# swap sequence before timing, so the ratio compares identical work
sw=$(sed -n 's/.*"id": "placement\/synth_16x16grid\/sweep".*"speedup": \([0-9.]*\).*/\1/p' BENCH_eval.json | head -1)
awk -v s="$sw" 'BEGIN { exit !(s >= 2.0) }' \
  || { echo "placement sweep speedup regressed below 2.0x (got ${sw:-missing})"; exit 1; }

echo "==> ratio-direction gate (every paired ratio carries higher_is_better)"
# a bare "speedup" number is ambiguous: the coopt, trace and trees
# entries deliberately record overhead factors below 1. Every ratio line
# must carry the flag, and every true-flagged entry must actually sit at
# or above 1.0 — a 'speedup' that silently dropped below parity is a
# regression even if the entry itself is still present
awk '/"speedup": / {
  if (!/"higher_is_better": (true|false)/) {
    print "ratio missing higher_is_better in " FILENAME ": " $0; bad = 1
  } else if (/"higher_is_better": true/ && match($0, /"speedup": [0-9.]+/)) {
    s = substr($0, RSTART + 11, RLENGTH - 11) + 0
    if (s < 1.0) { print "true-flagged ratio below 1.0 in " FILENAME ": " $0; bad = 1 }
  }
} END { exit bad }' BENCH_eval.json BENCH_noc.json \
  || { echo "ratio-direction gate failed"; exit 1; }

echo "==> trace-overhead ceiling (tracing on must stay usable on dense traffic)"
# tracing is opt-in and zero-cost when off (the engine/* ratios above
# run untraced); when on, the same-run on/off ratio on the dense point
# must stay under a generous ceiling so per-event work never makes the
# trace layer unusable exactly where congestion analysis needs it
overhead=$(sed -n 's/.*"noc_trace_overhead": \([0-9.]*\).*/\1/p' BENCH_noc.json | head -1)
awk -v o="$overhead" 'BEGIN { exit !(o > 0 && o <= 3.0) }' \
  || { echo "noc_trace_overhead outside (0, 3.0] (got ${overhead:-missing})"; exit 1; }

echo "==> congestion-spotter smoke (dense_burst16 must show blocked lanes)"
cargo test --release -p neuromap-bench --test spotter_smoke -q

echo "==> golden Perfetto trace (small workload, byte-for-byte)"
cargo test --release --test noc_trace -q

echo "==> NoC differential proptests incl. VC corpus (high case count)"
# covers the vc_count {1,2,4} x depth 1-4 x mesh/torus grid, the golden
# pre-VC digests, and the deterministic torus deadlock regression
NEUROMAP_PROPTEST_CASES=256 cargo test --release --test noc_properties -q

echo "==> hierarchical-fabric proptests (1-chip byte identity + multi-chip VC safety)"
NEUROMAP_PROPTEST_CASES=256 cargo test --release --test hier_properties -q

echo "==> eval/decode equivalence + determinism proptests (high case count)"
NEUROMAP_PROPTEST_CASES=256 cargo test --release \
  --test eval_properties --test determinism --test partition_properties -q

echo "==> multilevel coarsen/project/refine proptests (high case count)"
# projection feasibility, the never-worse guard, thread byte-identity,
# and the clustered matches-or-beats-flat-PSO corpus
NEUROMAP_PROPTEST_CASES=256 cargo test --release --test multilevel_properties -q

echo "==> placement/identity-golden + joint-loop + traffic-model proptests (high case count)"
# includes the adjacency pricer against both dense oracles on sparse
# traffic, the frozen default-config placement outcomes, and the one
# traffic model against the partition objectives and per-flow references
NEUROMAP_PROPTEST_CASES=256 cargo test --release \
  --test placement_properties --test coopt_properties --test traffic_properties -q

echo "==> repro_placement smoke (staged vs joint vs joint+trees rows present)"
# quick scale; the joint+trees rows exercise Steiner multicast routing
# through the full pipeline on all three fabrics (mesh, torus, hier)
repro=$(cargo run --release -q -p neuromap-bench --bin repro_placement)
for label in "| identity " "| staged " "| joint " "| joint+trees " "| hier "; do
  grep -qF "$label" <<<"$repro" \
    || { echo "repro_placement lost row: $label"; exit 1; }
done

echo "verify: OK"
