#!/usr/bin/env bash
# Pre-merge gate: every PR must pass this locally before review.
#
#   scripts/check.sh          # fmt + clippy (deny warnings) + tests +
#                             # benchmark build + reproduce all +
#                             # experiment gate + count gate
#
# The vendored stand-ins under vendor/ are excluded from the workspace, so
# fmt/clippy/test all target the reproduction code only.
#
# Experiment counters and gauges are gated exactly against
# scripts/experiments_ref.json, benchmark counts by scripts/count_gate.sh
# (last step). A change that moves an experiment counter on purpose runs
# `scripts/diff_counters.py --update target/metrics-all.json` after this
# script's reproduce step, and lists every moved cell with its reason.
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

# One release pass over every experiment at quick scale. The chaos
# experiments assert their invariants inside `run` and panic on a
# violation, which fails this step: chaos (a crash at every named crash
# point under append faults), failover (5 kill/promote/zombie cycles on
# the default split-out forest),
# scrub (5 bit-rot/torn-write/crash cycles), disk_chaos (errno storms,
# fsyncgate and ENOSPC against a durable Bg3Db, oracle-audited across
# kill+recover; chaos, scrub and disk_chaos share one crash-and-recover
# scenario), overload (no acked write lost at 0.5x-2x saturation)
# and profile (attribution conservation). cache_scaling (+ threaded cache
# and khop runs at 2 threads) and khop (batched vs per-vertex) only report;
# their unit tests under `cargo test` check them.
echo "==> reproduce all"
cargo run --release --quiet -p bg3-bench --bin reproduce -- all \
    --scale quick --threads 2 --cycles 5 --metrics-json target/metrics-all.json

# Every per-experiment snapshot and the merged total must carry the
# stable metric names.
echo "==> metrics drift gate"
cargo run --release --quiet -p bg3-bench --bin metrics_check -- target/metrics-all.json

# Every counter and gauge of every experiment (except the real-thread
# `*_threads` runs and `total`) equals scripts/experiments_ref.json.
echo "==> experiment gate"
scripts/diff_counters.py scripts/experiments_ref.json target/metrics-all.json

# Every benchmark count (count, B, B/B, B/op, 1/op cells, write_amp,
# space_amp) equals scripts/counts_ref.json; timing cells are not read.
echo "==> count gate"
scripts/count_gate.sh

echo "==> all checks passed"
