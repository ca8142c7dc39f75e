#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The libraries under src/ and the driver in
perfbench/ are compiled into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); spans of traced runs and an empty cgroup root go
to .bench_out/. Build output goes to stderr. The last stdout line is the
result object {"correct", "attempted", "failed", "metrics"}; the line before
it holds the run's context (host steal share, nproc, pinned CPU, negative
nice permitted, sample counts, backlog flag).

The metric catalog (names and units) is BENCHMARK.json alone: the driver
binary prints name/value pairs, and this script checks them against the
end_to_end (--trace 0) or per_layer (--trace 1) list there. An end-to-end
metric the run did not report, or any name outside the list, fails the
run; a per-layer metric of a layer the workload does not exercise is 0.

Workloads (why each exists is in BENCHMARK.json and the driver sources):
  native-contended  real threads, two chains pinned to one shared CPU
  sim-scale         simulated 4-core machine, 100 SYN queries, 500 operators
  native-fastpath   real threads, zero-cost chain at 100k tuples/s; not in
                    BENCHMARK.json, because its figures follow the host's
                    speed (perfbench/README.md)
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("native-fastpath", "native-contended", "sim-scale")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "2"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(bench_dir, build_dir):
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    step = ["cmake", "--build", build_dir, "--target", "perfbench",
            "-j", BUILD_JOBS]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def load_catalog(root, trace):
    """Metric name -> unit for this mode, from BENCHMARK.json."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read the metric catalog in BENCHMARK.json: {e}")


def make_result(line, catalog, trace):
    try:
        raw = json.loads(line)
    except json.JSONDecodeError:
        fail(f"result line is not JSON: {line!r}")
    if not isinstance(raw, dict) or set(raw) != {
            "correct", "attempted", "failed", "values"}:
        fail(f"result line has the wrong keys: {line!r}")
    if not isinstance(raw["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(raw[key], int) or raw[key] < 0:
            fail(f"'{key}' is not a whole number")
    if raw["attempted"] < 1:
        fail("no operations were attempted")
    values = raw["values"]
    extra = sorted(set(values) - set(catalog))
    if extra:
        fail(f"metrics outside BENCHMARK.json: {', '.join(extra)}")
    missing = sorted(set(catalog) - set(values))
    if missing and not trace:
        fail(f"end-to-end metrics not reported: {', '.join(missing)}")
    if missing:
        print(f"perfbench: not exercised by this workload (0): "
              f"{', '.join(missing)}", file=sys.stderr)
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in catalog.items()}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")
    if args.seed < 0:
        fail("--seed must not be negative")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    trace = args.trace == "1"
    catalog = load_catalog(os.path.dirname(bench_dir), trace)
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(bench_dir, os.path.join(os.path.abspath(target_dir),
                                           "perfbench"))

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}")
    result = make_result(lines[-1], catalog, trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
