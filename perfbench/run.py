#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is the Rust package in this directory. It is built in
release mode into ``$CARGO_TARGET_DIR`` (``.bench_build`` under the
repository root when unset), then run once; its output is passed through,
and its last line is the JSON result. A traced run also writes its spans
and reconciliation table to ``.bench_out/`` under the repository root.
Exits non-zero, without a result line, if the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        # Cargo's own output goes to stderr so stdout ends with the result.
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build: {e}")
    if built.returncode != 0:
        fail(f"build failed with code {built.returncode}")

    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out-dir", os.path.join(ROOT, ".bench_out"),
    ]
    try:
        ran = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run: {e}")
    lines = ran.stdout.rstrip("\n").split("\n")
    if ran.returncode != 0:
        sys.stderr.write(ran.stdout)
        fail(f"run failed with code {ran.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(ran.stdout)
        fail("the last line is not a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
