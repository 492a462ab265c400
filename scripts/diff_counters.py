#!/usr/bin/env python3
"""Diff the counters and gauges of two `reproduce --metrics-json` files.

    scripts/diff_counters.py A.json B.json [A2.json]
    scripts/diff_counters.py --update B.json

Prints every `experiment/counter` and `experiment/gauge:name` whose value
differs between A and B, with both values, and exits 1 on any difference
(0 when all agree).

With A2 (a second run of the same code as A), only metrics on which A and
A2 agree are compared: metrics that already vary between two runs of one
side are reported as skipped instead of as differences. This is the way to
check "every repeatable counter and gauge is unchanged" across a change: A
and A2 are two runs of the parent, B is a run of the change.

A may also be the experiment gate's reference, scripts/experiments_ref.json:
every compared metric of `reproduce all --scale quick --threads 2 --cycles 5
--metrics-json`, flattened. scripts/check.sh compares against it exactly.
`--update B.json` prints every cell of the reference that B moves, adds or
removes, ends with a count of each, then rewrites the reference from B; a
change that moves a counter on purpose does this in the same commit and
lists every moved cell with its reason.

Experiments whose name ends in `_threads` run real threads against the wall
clock, so their counts vary from run to run and can agree between A and A2
by chance; they are never compared, and neither is `total`, which sums every
experiment (each of its other parts is compared on its own). The summary
names the experiments skipped this way.
"""

import json
import os
import sys

GAUGE = "gauge:"
REF = os.path.join(os.path.dirname(os.path.abspath(__file__)), "experiments_ref.json")


def nondeterministic(experiment):
    return experiment.endswith("_threads") or experiment == "total"


def metrics(path, skipped):
    with open(path) as f:
        report = json.load(f)
    if not any(isinstance(v, dict) for v in report.values()):
        return report  # already flat: the gate's reference
    values = {}
    for experiment, snapshot in report.items():
        if nondeterministic(experiment):
            skipped.add(experiment)
            continue
        for c in snapshot.get("counters", []):
            values[f"{experiment}/{c['name']}"] = c["value"]
        for g in snapshot.get("gauges", []):
            values[f"{experiment}/{GAUGE}{g['name']}"] = g["value"]
    return values


def is_gauge(key):
    return key.split("/", 1)[1].startswith(GAUGE)


def main(argv):
    if len(argv) == 3 and argv[1] == "--update":
        now = metrics(argv[2], set())
        ref = metrics(REF, set()) if os.path.exists(REF) else {}
        counts = {"moved": 0, "added": 0, "removed": 0}
        for key in sorted(ref.keys() | now.keys()):
            if key not in now:
                counts["removed"] += 1
                print(f"{key}: removed (was {ref[key]})")
            elif key not in ref:
                counts["added"] += 1
                print(f"{key}: added ({now[key]})")
            elif ref[key] != now[key]:
                counts["moved"] += 1
                print(f"{key}: {ref[key]} -> {now[key]}")
        with open(REF, "w") as f:
            json.dump(now, f, indent=1, sort_keys=True)
            f.write("\n")
        summary = ", ".join(f"{n} {kind}" for kind, n in counts.items())
        print(f"experiment gate: {summary}; wrote {len(now)} cells to {REF}")
        return 0
    if len(argv) not in (3, 4):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    skipped_experiments = set()
    a, b = metrics(argv[1], skipped_experiments), metrics(argv[2], skipped_experiments)
    unstable = set()
    if len(argv) == 4:
        a2 = metrics(argv[3], skipped_experiments)
        unstable = {k for k in a if a2.get(k) != a[k]}
    compared = {"counters": 0, "gauges": 0}
    differ = {"counters": 0, "gauges": 0}
    skipped = {"counters": 0, "gauges": 0}
    for key in sorted(a.keys() | b.keys()):
        kind = "gauges" if is_gauge(key) else "counters"
        if key in unstable:
            skipped[kind] += 1
            continue
        compared[kind] += 1
        if a.get(key) != b.get(key):
            differ[kind] += 1
            print(f"{key}: {a.get(key)} -> {b.get(key)}")
    for kind in ("counters", "gauges"):
        summary = f"{differ[kind]} of {compared[kind]} {kind} differ"
        if skipped[kind]:
            summary += f" ({skipped[kind]} skipped: they differ between A and A2)"
        print(summary)
    if skipped_experiments:
        print(f"not compared (real threads, wall clock): {', '.join(sorted(skipped_experiments))}")
    return 1 if sum(differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
