#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the harness (perfbench/Cargo.toml, a workspace of its own) and the
`bauplan` CLI in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the harness. Its stdout is passed through; the
last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. Scratch data lives in `.perfbench_work/` and the traced run's
spans are written to `.bench_out/`; both are removed or overwritten by the
next run. Any extra arguments (`--rows <n>`) are passed to the harness.
"""

import os
import subprocess
import sys

WORKLOADS = ("adhoc_local", "analytics_mem", "pipeline_commit")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def parse(argv):
    opts = {"--workload": None, "--seed": "42", "--seconds": "10", "--trace": "0"}
    extra = []
    it = iter(argv)
    for flag in it:
        value = next(it, None)
        if value is None:
            fail(f"{flag} needs a value")
        if flag in opts:
            opts[flag] = value
        else:
            extra += [flag, value]
    if opts["--workload"] not in WORKLOADS:
        fail(f"--workload must be one of {', '.join(WORKLOADS)}")
    if opts["--trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1")
    return opts, extra


def cargo(root, env, args):
    # Build output goes to stderr so the last stdout line stays the result.
    r = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", *args],
                       cwd=root, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed: cargo " + " ".join(args))


def main():
    opts, extra = parse(sys.argv[1:])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        fail("the repository's Cargo.toml is missing; run from a full checkout")
    env = dict(os.environ)
    target = os.path.join(root, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    cargo(root, env, ["--manifest-path", "perfbench/Cargo.toml"])
    cargo(root, env, ["--bin", "bauplan"])

    work = os.path.join(root, ".perfbench_work")
    out = os.path.join(root, ".bench_out")
    os.makedirs(out, exist_ok=True)
    workload, seed = opts["--workload"], opts["--seed"]
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", workload,
        "--seed", seed,
        "--seconds", opts["--seconds"],
        "--trace", opts["--trace"],
        "--work-dir", work,
        "--cli", os.path.join(target, "release", "bauplan"),
        "--trace-out", os.path.join(out, f"trace-{workload}-seed{seed}.jsonl"),
        *extra,
    ]
    r = subprocess.run(cmd, cwd=root, env=env)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
