#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage, from the root of the repository:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Runs the benchmark untraced once per seed (seeds first-seed, first-seed+1,
...) for each workload (default: all in BENCHMARK.json) and prints, per
metric, the median and the interquartile range as a share of the median
(quartiles as `statistics.quantiles(values, n=4)` gives them), next to the
metric's bound. Every run must be correct.
"""

import json
import os
import statistics
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench = json.load(open(os.path.join(root, "BENCHMARK.json")))
    args = sys.argv[1:]
    runs, first = 10, 1
    workloads = []
    while args:
        a = args.pop(0)
        if a == "--runs":
            runs = int(args.pop(0))
        elif a == "--first-seed":
            first = int(args.pop(0))
        else:
            workloads.append(a)
    workloads = workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(first, first + runs):
            cmd = [*bench["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last.startswith("{"):
                sys.exit(f"{w} seed {seed} failed ({out.returncode}):\n{out.stderr[-2000:]}")
            result = json.loads(last)
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: incorrect result")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + " ".join(f"{n}={v[-1]!r}" for n, v in values.items()), flush=True)
        print(f"== {w} ({runs} runs)")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:<14} median {med:12.4f}  spread {spread:7.4f}  bound {bounds[name]:.2f}"
                  f"  ({spread / bounds[name]:.2f} of bound)")
    print(f"largest spread, as a share of its bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
