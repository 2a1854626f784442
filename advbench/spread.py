#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as NOTES.md reports it.

    python3 advbench/spread.py WORKLOAD [FIRST_SEED [COUNT [SECONDS]]]

Runs the benchmark COUNT times (default 10) on WORKLOAD with seeds
FIRST_SEED, FIRST_SEED+1, ... (default 1), one run at a time, and prints
each end-to-end metric's median and the distance between its first and
third quartiles as a share of the median, next to the metric's bound.
"""

import json
import statistics
import subprocess
import sys


def main():
    args = sys.argv[1:]
    if not args:
        sys.exit(__doc__)
    workload = args[0]
    first = int(args[1]) if len(args) > 1 else 1
    count = int(args[2]) if len(args) > 2 else 10
    spec = json.load(open("BENCHMARK.json"))
    seconds = int(args[3]) if len(args) > 3 else spec["run_seconds"]
    values = {}
    for seed in range(first, first + count):
        out = subprocess.run(
            ["python3", "advbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect run\n{out}")
        line = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)
    print(f"{'metric':16} {'median':>14} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"{m['name']:16} {med:14.6g} {spread:8.4f} {m['bound']:6}")


if __name__ == "__main__":
    main()
