#!/usr/bin/env python3
"""Smoke, schema and determinism test of bench_e2e (LOFKIT_BENCH_SMOKE=1).

    python3 smoke_test.py --bench BUILD/bench_e2e \
        --benchmark-json BENCHMARK.json --workdir DIR

Checks, for every workload at smoke scale:
  - every metric BENCHMARK.json declares is printed and finite, and the
    last line holds exactly the declared metrics of its mode;
  - topn_match == 1 and failed_frac == 0;
  - the same seed gives the same dataset CRC32C and the same exact
    counters at threads 1 and 4, and another seed another CRC32C;
and that a corrupted reference file makes the measured run exit non-zero.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

EXACT = ["dataset.crc32c", "materialize.distance_evals",
         "materialize.node_visits", "materialize.m_bytes", "prune.survivors"]


def run(bench, workdir, *args, expect_ok=True):
    env = dict(os.environ, LOFKIT_BENCH_SMOKE="1",
               LOFKIT_BENCH_JSON_DIR=workdir)
    proc = subprocess.run([bench, "--workdir", workdir, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    if expect_ok and proc.returncode != 0:
        sys.exit(f"bench_e2e {' '.join(args)} exited {proc.returncode}:\n"
                 f"{proc.stdout}\n{proc.stderr}")
    return proc


def parse(stdout):
    """The `name value unit` lines and the final JSON line."""
    lines = stdout.strip().splitlines()
    metrics = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3 and not line.startswith("#"):
            metrics[fields[0]] = float(fields[1])
    return metrics, json.loads(lines[-1])


def check(condition, message):
    if not condition:
        sys.exit("FAIL: " + message)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bench", required=True)
    parser.add_argument("--benchmark-json", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    with open(args.benchmark_json) as f:
        declared = json.load(f)
    end_to_end = [m["name"] for m in declared["end_to_end"]]
    per_layer = [m["name"] for m in declared["per_layer"]]
    shutil.rmtree(args.workdir, ignore_errors=True)
    os.makedirs(args.workdir)

    for workload in (w["name"] for w in declared["workloads"]):
        common = ["--workload", workload, "--seconds", "0"]
        traced, traced_line = parse(run(
            args.bench, args.workdir, *common, "--seed", "7", "--trace", "1",
            "--threads", "4").stdout)
        serial, _ = parse(run(
            args.bench, args.workdir, *common, "--seed", "7", "--trace", "1",
            "--threads", "1").stdout)
        other, other_line = parse(run(
            args.bench, args.workdir, *common, "--seed", "8", "--trace",
            "0").stdout)

        for name in end_to_end + per_layer:
            check(name in traced and math.isfinite(traced[name]),
                  f"{workload}: metric {name} missing or not finite")
        check(list(traced_line["metrics"]) == per_layer,
              f"{workload}: --trace 1 line lists {traced_line['metrics']}")
        check(list(other_line["metrics"]) == end_to_end,
              f"{workload}: --trace 0 line lists {other_line['metrics']}")
        for result in (traced, serial, other):
            check(result["topn_match"] == 1.0 and result["failed_frac"] == 0.0,
                  f"{workload}: topn_match {result['topn_match']}, "
                  f"failed_frac {result['failed_frac']}")
        for line in (traced_line, other_line):
            check(line["correct"] is True and line["failed"] == 0,
                  f"{workload}: result line {line}")
        for name in EXACT:
            check(traced[name] == serial[name],
                  f"{workload}: {name} differs between threads 4 and 1: "
                  f"{traced[name]} vs {serial[name]}")
        check(other["dataset.crc32c"] != traced["dataset.crc32c"],
              f"{workload}: seeds 7 and 8 give the same dataset")

    # Every workload in one command, with the BenchReport sidecar.
    run(args.bench, args.workdir, "--seed", "1", "--seconds", "0")
    with open(os.path.join(args.workdir, "BENCH_e2e.json")) as f:
        rows = json.load(f)["rows"]
    check([r["case"] for r in rows] ==
          [w["name"] for w in declared["workloads"]],
          "BENCH_e2e.json rows do not match the workloads")

    # A corrupted reference must fail the measured runs.
    reference = os.path.join(args.workdir, "prune_top10",
                             "reference_top10.txt")
    with open(reference) as f:
        lines = f.read().splitlines()
    index, score = lines[0].split()
    lines[0] = f"{index} {float(score) * 1.5!r}"
    with open(reference, "w") as f:
        f.write("\n".join(lines) + "\n")
    proc = run(args.bench, args.workdir, "--measure", "--workload",
               "prune_top10", "--seconds", "0", expect_ok=False)
    check(proc.returncode != 0,
          "a corrupted reference file did not fail the measured runs")
    print("bench_e2e smoke, schema and determinism checks passed")


if __name__ == "__main__":
    main()
