#!/usr/bin/env python3
"""Build the lalr benchmark in Release and run one measurement.

    python3 perfbench/run.py --workload gen-cold|serve-warm|serve-edit \
        [--seed N] [--seconds S] [--trace 0|1] [--corrupt-oracle]

Run from the root of a checkout. The harness and the library are built
from source under $CARGO_TARGET_DIR (default .bench_build) on first use.
The last line of standard output is the harness's JSON result; the exit
code is the harness's (1 when any operation failed its oracle).
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("gen-cold", "serve-warm", "serve-edit")
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001


def run_seconds():
    """The window length BENCHMARK.json's bounds were measured with."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench-release")


def build():
    """Configures once, then builds (a no-op when nothing changed)."""
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "lalr_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(bdir, "lalr_perfbench")


def measure(binary, workload, seed, seconds, trace, corrupt=False):
    """Runs the harness once; returns (exit code, stdout text)."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("LALR_THREADS", "LALR_FAILPOINTS")}
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt-oracle")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, env=env, cwd=ROOT,
                           timeout=float(seconds) + 150)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: harness timed out")
    return p.returncode, p.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=run_seconds())
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="oracle self-test: the run must report failures")
    args = ap.parse_args()
    binary = build()
    code, out = measure(binary, args.workload, args.seed, args.seconds,
                        args.trace, args.corrupt_oracle)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
