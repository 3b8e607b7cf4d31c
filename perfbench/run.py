#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (and the bcfl library it wraps) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only re-check the build.
Build output goes to stderr. The benchmark program's stdout is passed
through, so the last line is the result object
{"correct", "attempted", "failed", "metrics"}. Any build or run failure
exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_tradeoff", "paper_tradeoff_effnet")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(build_dir: str) -> str:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build_dir, "--target", "bcfl_perfbench",
              "-j", jobs]]
    # A configured tree re-runs cmake by itself when a build file changes.
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "bcfl_perfbench")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--root", ROOT]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(build_dir, f"trace_{args.workload}.json")]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print(f"perfbench: run failed ({run.returncode})", file=sys.stderr)
        return 4
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 5
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
