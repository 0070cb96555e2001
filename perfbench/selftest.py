#!/usr/bin/env python3
"""Self-test of the benchmark harness.

Usage, from the root of the repository:

    python3 perfbench/selftest.py

Runs the harness's unit tests, then every workload (those of BENCHMARK.json
and the ungated analytics_mem) at a few thousand rows for one second,
untraced and traced. Each run must exit 0 with a correct result (the oracle
passed), and must print exactly the metrics BENCHMARK.json names for that
mode, each with its unit and a finite value; end-to-end values must be
positive.
"""

import json
import math
import os
import subprocess
import sys

ROWS = "3000"
# Workloads the harness runs that BENCHMARK.json does not gate.
UNGATED = ["analytics_mem"]


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench = json.load(open(os.path.join(root, "BENCHMARK.json")))
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.join(root, env.get("CARGO_TARGET_DIR") or ".bench_build")
    r = subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                        "--manifest-path", "perfbench/Cargo.toml"], cwd=root, env=env)
    if r.returncode != 0:
        sys.exit("harness unit tests failed")
    problems = []
    for w in [w["name"] for w in bench["workloads"]] + UNGATED:
        for trace, wanted in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            cmd = [*bench["command"], "--workload", w, "--seed", "7", "--seconds", "1",
                   "--trace", trace, "--rows", ROWS]
            out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            tag = f"{w} --trace {trace}"
            if out.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {out.returncode}: {out.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: oracle failed ({result['failed']} of {result['attempted']})")
            got = result["metrics"]
            names = [m["name"] for m in wanted]
            if sorted(got) != sorted(names):
                problems.append(f"{tag}: metrics {sorted(set(got) ^ set(names))} differ from BENCHMARK.json")
            for m in wanted:
                v = got.get(m["name"])
                if v is None:
                    continue
                if v["unit"] != m["unit"] or not math.isfinite(v["value"]):
                    problems.append(f"{tag}: {m['name']} = {v}")
                if trace == "0" and v["value"] <= 0:
                    problems.append(f"{tag}: {m['name']} is not positive: {v['value']}")
            print(f"ok {tag}: {len(got)} metrics, {result['attempted']} ops checked", flush=True)
    if problems:
        sys.exit("\n".join(problems))
    print("selftest passed")


if __name__ == "__main__":
    main()
