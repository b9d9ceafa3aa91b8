#!/usr/bin/env python3
"""Run one workload of the LAORAM benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload train-kaggle --seed 1 \
        --seconds 40 --trace 0

Builds perfbench/ (and with it the laoram library) with CMake into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset, then runs the workload. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics and
writes a Chrome trace next to the build. Build output goes to standard
error. Exits non-zero, without a result line, when the build or the
run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = (
    "train-kaggle",
    "serve-zipf-cache",
)

# Seeds recorded for later changes: tune on DEFAULT_SEED, confirm a
# claim on HELDOUT_SEED, which was not used while tuning.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(bdir):
    """Configure (once) and build the benchmark binary; returns its path."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "laoram_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(bdir, "laoram_perfbench")


def parse_result(stdout):
    """The last stdout line as a result object, or None if malformed."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--inject-fault", action="store_true",
                    help="perturb one expected output (self-test)")
    args = ap.parse_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, RuntimeError) as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale,
           "--trace-out", os.path.join(bdir, "trace-%s.json" % args.workload)]
    if args.inject_fault:
        cmd.append("--inject-fault")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % args.workload, file=sys.stderr)
        return 1
    result = parse_result(proc.stdout)
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stdout)
        print("perfbench: %s failed (exit %d)"
              % (args.workload, proc.returncode), file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
