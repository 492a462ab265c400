#!/usr/bin/env python3
"""Diff the counters and gauges of two `reproduce --metrics-json` files.

    scripts/diff_counters.py A.json B.json [A2.json]

Prints every `experiment/counter` and `experiment/gauge:name` whose value
differs between A and B, with both values, and exits 1 on any difference
(0 when all agree).

With A2 (a second run of the same code as A), only metrics on which A and
A2 agree are compared: metrics that already vary between two runs of one
side are reported as skipped instead of as differences. This is the way to
check "every repeatable counter and gauge is unchanged" across a change: A
and A2 are two runs of the parent, B is a run of the change.
"""

import json
import sys

GAUGE = "gauge:"


def metrics(path):
    with open(path) as f:
        report = json.load(f)
    values = {}
    for experiment, snapshot in report.items():
        for c in snapshot.get("counters", []):
            values[f"{experiment}/{c['name']}"] = c["value"]
        for g in snapshot.get("gauges", []):
            values[f"{experiment}/{GAUGE}{g['name']}"] = g["value"]
    return values


def is_gauge(key):
    return key.split("/", 1)[1].startswith(GAUGE)


def main(argv):
    if len(argv) not in (3, 4):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = metrics(argv[1]), metrics(argv[2])
    unstable = set()
    if len(argv) == 4:
        a2 = metrics(argv[3])
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
    return 1 if sum(differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
