#!/usr/bin/env python3
"""Build the perfbench driver from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The driver is a CMake project of its own (perfbench/CMakeLists.txt) that
compiles the library from src/.  It is built into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) under the checkout; the first run configures
and compiles, later runs only check that the build is up to date.  The last
line of standard output is the driver's JSON result; build logs go to stderr.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve_2gpu", "model_32gpu")

BUILD_TIMEOUT_S = 840  # first build only; an up-to-date check takes seconds
RUN_GRACE_S = 60       # driver set-up and wind-down on top of --seconds


def build(build_dir):
    # compiler temporaries stay inside the build directory too
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    def cmake(*args):
        subprocess.run(["cmake", *args], stdout=sys.stderr, env=env, check=True,
                       timeout=BUILD_TIMEOUT_S)

    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmake("-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release")
    cmake("--build", build_dir, "-j", str(min(4, os.cpu_count() or 1)))
    return os.path.join(build_dir, "perfbench_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the library sources (src/) are missing from this checkout")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        driver = build(os.path.join(ROOT, target, "perfbench"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        code = subprocess.run(cmd, timeout=args.seconds + RUN_GRACE_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: driver timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
