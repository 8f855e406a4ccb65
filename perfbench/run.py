#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

    python3 perfbench/run.py --workload select|churn|task_mix|live|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) in Release.
The last line of stdout is the run's JSON result; the exit code is
non-zero when the build or a correctness check fails. `--workload all`
runs the four workloads in turn. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["select", "churn", "task_mix", "live"]


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    """Configures (once) and builds perfbench; build output goes to stderr."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                # A failed configure must not leave a cache that skips the
                # next attempt.
                shutil.rmtree(out, ignore_errors=True)
                return False
        jobs = str(min(os.cpu_count() or 1, 4))
        return subprocess.call(
            ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
            stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(out, "perfbench")
    flags = ["--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out-dir", out]
    if args.workload != "all":
        sys.stdout.flush()
        os.execv(binary, [binary, "--workload", args.workload] + flags)

    results = {}
    for workload in WORKLOADS:
        run = subprocess.run([binary, "--workload", workload] + flags,
                             stdout=subprocess.PIPE, text=True)
        sys.stdout.write(run.stdout)
        lines = run.stdout.strip().splitlines()
        try:
            results[workload] = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            results[workload] = None
        if run.returncode != 0 and results[workload] is not None:
            results[workload]["correct"] = False
    correct = all(r is not None and r["correct"] for r in results.values())
    print(json.dumps({"correct": correct, "workloads": results}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
