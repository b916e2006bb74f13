#!/usr/bin/env python3
"""Build and run the wscache end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload portal_hot --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the library sources under
src/ plus the benchmark program) as a Release build in
.bench_build/perfbench; later calls only let the build tool confirm it is
up to date.  Build output goes to stderr, so the last line on stdout is
the benchmark's JSON result.
"""
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def configured_here():
    """True when BUILD holds a configuration of this very source tree."""
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    home = line.split("=", 1)[1].strip()
                    return os.path.realpath(home) == os.path.realpath(HERE)
    except OSError:
        pass
    return False


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not configured_here():
        # A build directory copied along with a moved checkout points at
        # the old tree; start it afresh.
        shutil.rmtree(BUILD, ignore_errors=True)
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    if not build():
        return 1
    cmd = [BINARY] + argv + ["--t0-ns", str(time.monotonic_ns())]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
