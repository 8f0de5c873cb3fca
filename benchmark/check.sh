#!/usr/bin/env bash
# The one script builders and reviewers run for this package: offline
# build, format, lints, unit tests and the five-workload smoke pass, then
# two full sets of runs of this commit and `mapbench compare` between
# them (the two-set agreement check of the README). Three runs a set, so
# that `compare` sees the box's run-to-run spread: about twenty minutes.
# The repository's own CI and scripts/verify.sh do not cover benchmark/.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> build (release, offline)"
cargo build --release --offline

echo "==> rustfmt"
cargo fmt -- --check

echo "==> clippy (-D warnings)"
cargo clippy --offline --all-targets -- -D warnings

echo "==> tests (unit tests + --iters 1 smoke over the five workloads)"
cargo test --offline

mapbench() { cargo run --release --offline --quiet -- "$@"; }
mkdir -p out

echo "==> set A: timed + traced pass of every workload"
mapbench all --trace 1 --runs 3 --save out/set-a.json

echo "==> set B: timed pass of every workload"
mapbench all --runs 3 --save out/set-b.json

echo "==> compare A -> B (same commit, same seed: digests must be identical)"
mapbench compare --require-identical out/set-a.json out/set-b.json

echo "==> check.sh: all gates passed"
