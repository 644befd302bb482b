#!/usr/bin/env python3
"""Builds the Hi-WAY simulator benchmark from source and runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and compiles perfbench/ (which pulls in ../src)
into .bench_build/perfbench; later calls only re-check the build. The
benchmark binary's output is passed through unchanged; its last line is the
JSON result. Build output goes to stderr. --self-test builds and runs the
benchmark's own tests instead.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: simulator sources (src/) not found next "
                         "to perfbench/; run from a full checkout\n")
        return False
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    if not build():
        return 1
    if argv == ["--self-test"]:
        cmd = [os.path.join(BUILD, "perfbench_selftest")]
    else:
        cmd = [os.path.join(BUILD, "perfbench")] + argv
    sys.stdout.flush()
    # The benchmark bounds its own run time; the timeout only guards
    # against a hung process.
    try:
        return subprocess.run(cmd, timeout=170).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: benchmark timed out\n")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
