#!/usr/bin/env python3
"""Benchmark entry point: build the harness from source, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the mfbc library from src/)
in Release mode under .bench_build/perfbench at the checkout root, then runs
the harness for one workload. The harness prints its metrics, ends with a
JSON line {"correct", "attempted", "failed", "metrics"}, and exits nonzero
when a check fails; this script exits with its status. When the build fails,
it exits nonzero without printing a result. Traced runs (--trace 1) write a
Chrome trace and a per-layer JSON under .bench_build/traces.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    """Configure and build `target`; returns the executable's path. The
    build's output is shown only when it fails."""
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    for cmd in (configure,
                ["cmake", "--build", BUILD, "--target", target, "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise subprocess.CalledProcessError(proc.returncode, cmd)
    return os.path.join(BUILD, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    # subprocess.run kills and reaps the harness on any exception, so turn
    # SIGTERM into one instead of dying with the child still running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        exe = build("perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"error: building the benchmark failed: {e}", file=sys.stderr)
        return 1
    return subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", os.path.join(ROOT, ".bench_build", "traces")]).returncode


if __name__ == "__main__":
    sys.exit(main())
