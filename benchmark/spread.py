#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs each workload N times (default 10), each time with another --seed, and
prints for each metric the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. A spread above a third of the bound is
marked: the benchmark should be steadier than that.

usage: benchmark/spread.py [--runs N] [--first-seed S] [--bin PATH] [workload ...]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--bin", help="prebuilt binary to run instead of the command")
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    command = [args.bin] if args.bin else spec["command"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    steady = True
    for name in names:
        values = {}
        for i in range(args.runs):
            run = command + ["--workload", name, "--seed", str(args.first_seed + i),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(run, cwd=ROOT, check=True, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            mark = "" if spread <= m["bound"] / 3 else (
                " > bound/3" if spread <= m["bound"] else " > BOUND")
            steady &= spread <= m["bound"] or m["name"] == "setup_s"
            print(f"{name:12s} {m['name']:13s} median {med:12.4f} {m['unit']:4s} "
                  f"spread {spread * 100:6.2f}% bound {m['bound'] * 100:4.0f}%{mark}",
                  flush=True)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
