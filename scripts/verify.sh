#!/usr/bin/env bash
# Tier-1 verification plus the lint, doc, bench and high-case-count
# proptest gates; CI runs this script and nothing else. Everything runs
# offline (all dependencies are vendored in ./vendor). The BENCH_*.json
# gates are not here: each bench checks its own ratios against the one
# table in crates/bench/src/ledger.rs and exits non-zero on a failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> modes no caller selects (must equal scripts/unselected_modes.allow)"
# a variant no non-test code builds or a config field no non-test code
# sets is deleted, made a constant, or listed in the allow file with its
# reason in ROADMAP.md; a diff line names the mode that is new or gone
diff <(grep -v '^#' scripts/unselected_modes.allow) <(scripts/unselected_modes.sh) \
  || { echo "unselected modes differ from scripts/unselected_modes.allow"; exit 1; }

echo "==> public functions only tests call (must equal scripts/test_only_pub.allow)"
# a `pub fn` no non-test code calls is deleted, made private, or listed
# in the allow file with its reason in ROADMAP.md; a diff line names the
# function that is new or gone
diff <(grep -v '^#' scripts/test_only_pub.allow) <(scripts/test_only_pub.sh) \
  || { echo "test-only public functions differ from scripts/test_only_pub.allow"; exit 1; }

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

echo "==> rustdoc (-D warnings, private items, first-party packages)"
# dangling intra-doc links fail here, in crate-private docs too (the
# swarm's shards, the NoC's net table and statistics fold carry their
# design notes there); the vendored proptest stub has an ambiguous link
# of its own, hence the package list instead of --workspace
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -q --document-private-items \
  -p neuromap -p neuromap-core -p neuromap-noc -p neuromap-hw \
  -p neuromap-snn -p neuromap-apps -p neuromap-bench

echo "==> bench smoke + BENCH_*.json gates (1 sample)"
# each bench first asserts what it is about to time (batched envelope at
# 256 crossbars, bit-identity with scalar, engine-vs-oracle digests, ...),
# then writes its BENCH_*.json (under target/: a 1-sample run never
# overwrites the tracked files, and their checksums before and after the
# two runs must match), then holds every same-run ratio to the
# gate table in crates/bench/src/ledger.rs: present, >= 1.0 where
# higher_is_better, and the six numeric bounds. A failed gate prints
# "<ratio id>: ... must be ..., got <value>" and the bench exits 1
tracked_before=$(sha256sum BENCH_eval.json BENCH_noc.json)
NEUROMAP_BENCH_FAST=1 cargo bench -p neuromap-bench --bench eval
NEUROMAP_BENCH_FAST=1 cargo bench -p neuromap-bench --bench noc
diff <(echo "$tracked_before") <(sha256sum BENCH_eval.json BENCH_noc.json) \
  || { echo "the bench smoke changed a tracked BENCH_*.json"; exit 1; }

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
