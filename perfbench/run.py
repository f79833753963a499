#!/usr/bin/env python3
"""Build the benchmark from this checkout and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are sim_suite, kernel_tenants and serve_rw; `--workload all`
runs the three in turn, each in its own process. The benchmark is built
with `cargo build --offline --release` into $CARGO_TARGET_DIR (default
`.bench_build` in the working directory). The last line of standard
output is the run's JSON result; build output goes to standard error.
The exit code is non-zero when the build fails, a run fails an output
check, or a run exceeds its time limit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sim_suite", "kernel_tenants", "serve_rw")
# A run measures for --seconds and then finishes the pass it is in.
SLACK_S = 120


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--offline", "--release", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def run(binary, workload, args, out):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=args.seconds + SLACK_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"perfbench: {workload} exceeded {args.seconds + SLACK_S} s")
    return proc.returncode, stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(target)
    out = os.path.join(target, "perfbench-out")
    os.makedirs(out, exist_ok=True)

    if args.workload != "all":
        code, lines = run(binary, args.workload, args, out)
        print("\n".join(lines), flush=True)
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, lines = run(binary, workload, args, out)
        print("\n".join(lines[:-1]), flush=True)
        worst = worst or code
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
        combined["correct"] = combined["correct"] and result["correct"] and code == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
