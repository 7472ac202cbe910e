#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds snapbench (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/ on first use, runs it, checks its output against
BENCHMARK.json and perfbench/catalog.json, and prints, as the last stdout
line, one JSON object: correct, attempted, failed and metrics. A run shorter
than BENCHMARK.json's run_seconds is stamped "smoke", otherwise "full"; the
stamp and result are also saved under .bench_out/. Build logs go to stderr.
Exits non-zero, without a result line, when the program cannot be built or
run or its output breaks the catalogue.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once and builds snapbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to perfbench/")
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "snapbench"],
        stdout=sys.stderr)
    if result.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "snapbench")


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "catalog.json")) as f:
        catalog = json.load(f)
    return bench, catalog


def check_catalog(bench, catalog):
    """Every name BENCHMARK.json lists is well formed and catalogued."""
    workloads = [w["name"] for w in bench["workloads"]]
    for w in workloads:
        if not NAME_RE.match(w) or w not in catalog["workloads"]:
            fail("workload %r is malformed or missing from catalog.json" % w)
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            entry = catalog["metrics"].get(m["name"])
            if not NAME_RE.match(m["name"]) or entry is None:
                fail("metric %r is malformed or not in catalog.json"
                     % m["name"])
            if entry["kind"] != kind or entry["unit"] != m["unit"]:
                fail("metric %r: kind/unit differ between BENCHMARK.json "
                     "and catalog.json" % m["name"])
            for w in entry["workloads"]:
                if w not in workloads:
                    fail("metric %r names unknown workload %r"
                         % (m["name"], w))


def check_result(result, bench, catalog, workload, trace):
    """snapbench's output names exactly the metrics the catalogue assigns
    to this workload and mode, with their units. Metrics the catalogue marks
    as not exercised by this workload are added with value 0."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    declared = bench["per_layer" if trace else "end_to_end"]
    printed = result["metrics"]
    for name, metric in printed.items():
        if not NAME_RE.match(name):
            fail("printed metric name %r is malformed" % name)
        if name not in {m["name"] for m in declared}:
            fail("printed metric %r is not listed in BENCHMARK.json" % name)
    metrics = {}
    for m in declared:
        name = m["name"]
        applies = workload in catalog["metrics"][name]["workloads"]
        if applies != (name in printed):
            fail("metric %r: %s on workload %s" % (
                name, "missing" if applies else "printed but not catalogued",
                workload))
        if not applies:
            metrics[name] = {"value": 0, "unit": m["unit"]}
            continue
        if printed[name]["unit"] != m["unit"]:
            fail("metric %r printed with unit %r, declared %r"
                 % (name, printed[name]["unit"], m["unit"]))
        metrics[name] = printed[name]
    result["metrics"] = metrics
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    bench, catalog = load_contract()
    check_catalog(bench, catalog)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload %r" % args.workload)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("snapbench exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    stamp = None
    for line in lines[:-1]:
        if line.startswith("stamp {"):
            stamp = json.loads(line[len("stamp "):])
            stamp["mode"] = ("full" if args.seconds >= bench["run_seconds"]
                             else "smoke")
            line = "stamp " + json.dumps(stamp)
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("snapbench exited %d without a result line" % proc.returncode)
    result = check_result(result, bench, catalog, args.workload,
                          bool(args.trace))
    with open(os.path.join(ROOT, ".bench_out", "%s_seed%d_trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"stamp": stamp, "result": result}, f, indent=1)
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
