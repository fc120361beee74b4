#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload edge_int8 --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (which compiles src/) into
$CARGO_TARGET_DIR, default .bench_build, then runs one workload with the
parameters and fixed rates in perfbench/workloads.json. The benchmark's
output passes through; its last stdout line is the JSON result. Exits
nonzero without a result when the program sources or the build are
missing or broken.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(sorted(workloads))}")
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "server.hpp")):
        fail(f"no program sources under {os.path.join(ROOT, 'src')}")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no {binary}")

    # Unix-socket paths are short relative paths (sun_path holds 108 bytes).
    sock_dir = os.path.relpath(build_dir, ROOT)
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--sock_dir={sock_dir}", f"--commit={commit()}"]
    if args.trace:
        cmd.append(f"--trace_out={sock_dir}/trace-{args.workload}.jsonl")
    cmd += [f"--{key}={value}" for key, value in
            workloads[args.workload].items() if key != "why"]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=3)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
