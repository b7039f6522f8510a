#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune into .bench_build (dune's shared cache
off, so nothing is written outside the checkout), then runs it with the same
arguments.  Build output goes to standard error; the benchmark's own output,
whose last line is the JSON result, goes to standard output.  Exits non-zero
without a result when the checkout lacks the sources it needs, the build
fails, or the run fails or overruns.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850


def run_timeout(argv):
    """Seconds a run may take: --seconds of measured units (a traced run
    counts its traced twins in them), with set-up, the last unit's
    overshoot and the checks on top."""
    try:
        seconds = float(argv[argv.index("--seconds") + 1])
    except (ValueError, IndexError):
        seconds = 40.0
    return max(seconds, 0.0) + 120


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    for path in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            fail("run from the root of a source checkout (missing %s)" % path)
    build = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "--cache", "disabled", "./perfbench/main.exe",
    ]
    try:
        built = subprocess.run(build, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if built.returncode != 0:
        fail("build failed")
    try:
        ran = subprocess.run([EXE] + sys.argv[1:], timeout=run_timeout(sys.argv))
    except subprocess.TimeoutExpired:
        fail("run timed out")
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
