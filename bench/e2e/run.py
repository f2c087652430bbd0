#!/usr/bin/env python3
"""Builds bench_e2e from source and runs it.

Run from the repository root, for example:

    python3 bench/e2e/run.py --workload gauss2d_sweep --seed 1 \
        --seconds 10 --trace 0

Every argument goes to bench_e2e unchanged. The build goes to
.bench_build/e2e and the generated inputs to .bench_build/e2e_work. Build
output goes to stderr, so the last line on stdout is bench_e2e's JSON result.
"""
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")


def main():
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "bench", "e2e"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "bench_e2e", "-j4"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return 1
    env = dict(os.environ,
               LOFKIT_BENCH_JSON_DIR=os.path.join(ROOT, ".bench_build"))
    command = [os.path.join(BUILD, "bench_e2e"),
               "--workdir", os.path.join(ROOT, ".bench_build", "e2e_work"),
               *sys.argv[1:]]
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
