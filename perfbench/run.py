#!/usr/bin/env python3
"""Layered benchmark of the roundtrip-routing serving stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench_run from source (the library
under src/ plus this directory) into $CARGO_TARGET_DIR, default .bench_build,
runs one workload in one process, and prints the result as the last stdout
line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 the run records spans and the metrics are the per-layer ones,
including the per-layer self time folded from the spans (fold_trace.py).  A
per-layer metric that a workload's phases do not produce reads 0: that layer
is idle on that workload.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import fold_trace  # noqa: E402

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(f"{path} is missing")
    with open(path) as f:
        return json.load(f)


def build(build_dir):
    """Configures (once) and builds perfbench_run; returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no library sources under {ROOT}/src; run from a repository checkout")
    binary = os.path.join(build_dir, "perfbench_run")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--parallel", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {names}")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    binary = build(build_dir)

    work = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    result_path = os.path.join(work, "result.json")
    spans_path = os.path.join(work, "spans.tsv")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--result", result_path]
    if args.trace:
        cmd += ["--spans", spans_path]
    try:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        sys.stdout.write(proc.stdout)
        if not os.path.isfile(result_path):
            fail(f"{args.workload} wrote no result (exit code {proc.returncode})")
        with open(result_path) as f:
            result = json.load(f)
        folded = fold_trace.fold(spans_path) if args.trace else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    produced = result["layers"] if args.trace else result["e2e"]
    produced = {k: tuple(v) for k, v in produced.items()}
    produced.update(folded)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value, unit = produced.get(m["name"], (0.0, m["unit"]))
        if not args.trace and m["name"] not in produced:
            fail(f"{args.workload} did not produce end-to-end metric {m['name']}")
        if unit != m["unit"]:
            fail(f"{m['name']} measured in {unit}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    unlisted = sorted(set(produced) - {m["name"] for m in wanted})
    if unlisted:
        fail(f"metrics missing from BENCHMARK.json: {unlisted}")

    print(json.dumps({
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
