#!/usr/bin/env bash
# Runs all four workloads, untraced and traced, and appends one row each to
# benchmark/BENCH_e2e.json (end-to-end metrics) and benchmark/BENCH_layers.json
# (per-layer metrics of the traced run): the performance trajectory.
#
# usage: benchmark/run.sh <label> [seed]
#   label  names the row, e.g. a commit subject or "seed commit"
#   seed   workload seed (default 1)
set -euo pipefail
cd "$(dirname "$0")/.."
label=${1:?usage: benchmark/run.sh <label> [seed]}
seed=${2:-1}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
out=benchmark/out
mkdir -p "$out"

for trace in 0 1; do
  for workload in $workloads; do
    echo "== $workload --trace $trace" >&2
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
      --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
      | tail -n 1 > "$out/$workload.$trace.json"
  done
done

python3 - "$label" "$seed" "$seconds" $workloads <<'EOF'
import json, sys
label, seed, seconds, *workloads = sys.argv[1:]
for trace, path in (("0", "benchmark/BENCH_e2e.json"), ("1", "benchmark/BENCH_layers.json")):
    row = {"label": label, "seed": int(seed), "run_seconds": int(seconds), "workloads": {}}
    for w in workloads:
        result = json.load(open(f"benchmark/out/{w}.{trace}.json"))
        assert result["correct"], f"{w}: {result['failed']} of {result['attempted']} failed"
        row["workloads"][w] = {
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
    try:
        doc = json.load(open(path))
    except FileNotFoundError:
        doc = {"rows": []}
    doc["rows"].append(row)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"appended row {label!r} to {path}")
EOF
