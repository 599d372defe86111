#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench; later calls rebuild incrementally. The benchmark binary
prints a header of '#' lines and, as its last line, the JSON result. Traces of
--trace 1 runs are written to .bench_build/perfbench/traces/.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("pagerank-dense", "sssp-ring", "sql-pagerank", "serve-rw")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir):
    """Configures on first use, then builds; the log stays in build_dir."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e), 1)
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (see %s)" % log_path, 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not args.selftest and (args.seed < 0 or args.seconds < 1):
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "api", "engine.h")):
        fail("no library sources at %s/src: run from a full checkout" % root)
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    build(root, build_dir)

    if args.selftest:
        cmd = [os.path.join(build_dir, "vx_perfbench_selftest")]
    else:
        cmd = [os.path.join(build_dir, "vx_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha(root)]
        if args.trace:
            trace_dir = os.path.join(build_dir, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    sys.exit(rc)


if __name__ == "__main__":
    main()
