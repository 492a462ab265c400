#!/usr/bin/env bash
# Pre-merge gate: every PR must pass this locally before review.
#
#   scripts/check.sh          # fmt + clippy (deny warnings) + tests +
#                             # benchmark build + smokes + count gate
#
# The vendored stand-ins under vendor/ are excluded from the workspace, so
# fmt/clippy/test all target the reproduction code only.
#
# Benchmark counts are gated exactly by scripts/count_gate.sh (last step).
# To show a change leaves every repeatable experiment counter unchanged,
# run `reproduce all --scale quick --threads 2 --cycles 5 --metrics-json
# <file>` twice at the parent and once at the change, then
# `scripts/diff_counters.py parent1.json change.json parent2.json` (it
# exits 1 on any difference).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Every unit, integration and property test, including the span-overhead
# bound (crates/bench/tests/span_overhead.rs).
echo "==> cargo test --workspace"
cargo test --workspace --quiet

# benchmark/ is its own workspace that calls crate APIs directly
# (BwTree::scan_prefix_batch, FlushMode); building it here catches an API
# change that would break it. Its build output stays under target/.
echo "==> benchmark build"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml \
    --target-dir target/benchmark

# One release pass over every smoke: chaos (a crash at every named crash
# point under append faults, plus the never-firing-plan counter check),
# cache_scaling (+ threaded cache and khop runs at 2 threads), failover (5 kill/promote/zombie cycles), scrub
# (5 bit-rot/torn-write/crash cycles), disk_smoke (file backend
# kill+recover, on-disk bit-flip scrub), disk_chaos (errno storms,
# fsyncgate, ENOSPC), khop (batched vs per-vertex), overload (0.5x-2x
# saturation) and profile (attribution conservation). Experiments assert
# their own invariants and panic on a violation.
echo "==> reproduce smokes"
cargo run --release --quiet -p bg3-bench --bin reproduce -- \
    chaos cache_scaling failover scrub disk_smoke disk_chaos khop overload profile \
    --scale quick --threads 2 --cycles 5 --metrics-json target/metrics-smoke.json

# Every per-experiment snapshot and the merged total must carry the
# stable metric names.
echo "==> metrics drift gate"
cargo run --release --quiet -p bg3-bench --bin metrics_check -- target/metrics-smoke.json

# Every benchmark count (count, B, B/B, B/op, 1/op cells, write_amp,
# space_amp) equals scripts/counts_ref.json; timing cells are not read.
echo "==> count gate"
scripts/count_gate.sh

echo "==> all checks passed"
