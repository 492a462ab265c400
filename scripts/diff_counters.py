#!/usr/bin/env python3
"""Diff the counters of two `reproduce --metrics-json` files.

    scripts/diff_counters.py A.json B.json [A2.json]

Prints every `experiment/counter` whose value differs between A and B,
with both values, and exits 1 on any difference (0 when all agree).

With A2 (a second run of the same code as A), only counters on which A and
A2 agree are compared: counters that already vary between two runs of one
side are reported as skipped instead of as differences. This is the way to
check "every repeatable counter is unchanged" across a change: A and A2 are
two runs of the parent, B is a run of the change.
"""

import json
import sys


def counters(path):
    with open(path) as f:
        report = json.load(f)
    return {
        f"{experiment}/{c['name']}": c["value"]
        for experiment, snapshot in report.items()
        for c in snapshot.get("counters", [])
    }


def main(argv):
    if len(argv) not in (3, 4):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = counters(argv[1]), counters(argv[2])
    unstable = set()
    if len(argv) == 4:
        a2 = counters(argv[3])
        unstable = {k for k in a if a2.get(k) != a[k]}
    differ = 0
    for key in sorted(a.keys() | b.keys()):
        if key in unstable:
            continue
        if a.get(key) != b.get(key):
            differ += 1
            print(f"{key}: {a.get(key)} -> {b.get(key)}")
    compared = len(a.keys() | b.keys()) - len(unstable)
    summary = f"{differ} of {compared} counters differ"
    if unstable:
        summary += f" ({len(unstable)} skipped: they differ between A and A2)"
    print(summary)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
