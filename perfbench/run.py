#!/usr/bin/env python3
"""Build the SAGA perfbench harness from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload stream_inc|stream_fs|serve \\
        --seed N --seconds S --trace 0|1

The harness and the library it measures are compiled in Release mode into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The first
run configures and builds; later runs rebuild only what changed. Build
output goes to stderr, so the last line of stdout is the harness's JSON
result. Exits non-zero, printing no result, when the library sources are
missing or the build or run fails.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run's own limit is 180 s; stop a hung harness before that.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then build incrementally, under a lock so runs
    started together never build into one tree at the same time."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(step))


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)
    binary = os.path.join(build_dir, "saga_perfbench")
    try:
        done = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
