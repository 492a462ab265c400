#!/usr/bin/env bash
# Exact count gate: every benchmark count must equal scripts/counts_ref.json.
#
#   scripts/count_gate.sh            # compare; exits 1 on any difference
#   scripts/count_gate.sh --update   # rewrite scripts/counts_ref.json
#
# Runs the four benchmark workloads at `--seed 1 --seconds 2`, once traced
# (`--trace 1`) and once untraced (`--trace 0`). From each result it keeps
# every metric whose unit is count, B, B/B, B/op or 1/op, plus write_amp and
# space_amp; those repeat exactly from run to run, so they are compared
# exactly. Timing cells are never read. A change that moves a count must
# update the reference in the same commit and list every changed cell.
#
# The benchmark is built the way scripts/check.sh builds it, into
# target/benchmark; benchmark/ itself is never edited.
set -euo pipefail
cd "$(dirname "$0")/.."

update=0
case "${1:-}" in
  --update) update=1 ;;
  "") ;;
  *) echo "usage: scripts/count_gate.sh [--update]" >&2; exit 2 ;;
esac

cargo build --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml \
    --target-dir target/benchmark
bin=target/benchmark/release/bg3-benchmark
out=target/count-gate
mkdir -p "$out"

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for trace in 0 1; do
  for workload in $workloads; do
    "$bin" --workload "$workload" --seed 1 --seconds 2 --trace "$trace" 2>/dev/null \
      | tail -n 1 > "$out/$workload.$trace.json"
  done
done

python3 - "$update" "$out" $workloads <<'EOF'
import json, sys

update, out, *workloads = sys.argv[1:]
REF = "scripts/counts_ref.json"
COUNT_UNITS = {"count", "B", "B/B", "B/op", "1/op"}
ALWAYS = {"write_amp", "space_amp"}

now = {}
for workload in workloads:
    for trace in ("0", "1"):
        result = json.load(open(f"{out}/{workload}.{trace}.json"))
        if result["failed"]:
            sys.exit(f"{workload} --trace {trace}: {result['failed']} ops failed")
        for name, metric in result["metrics"].items():
            if metric["unit"] in COUNT_UNITS or name in ALWAYS:
                now[f"{workload}/trace{trace}/{name}"] = metric["value"]

if update == "1":
    with open(REF, "w") as f:
        json.dump(now, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"count gate: wrote {len(now)} cells to {REF}")
    sys.exit(0)

ref = json.load(open(REF))
differ = [k for k in sorted(ref.keys() | now.keys()) if ref.get(k) != now.get(k)]
for k in differ:
    print(f"{k} {ref.get(k)} → {now.get(k)}")
if differ:
    sys.exit(f"count gate: {len(differ)} of {len(ref)} cells differ from {REF}")
print(f"count gate: all {len(ref)} cells match {REF}")
EOF
