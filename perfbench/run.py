#!/usr/bin/env python3
"""Builds reach_perfbench from this source tree and runs one workload.

    python3 perfbench/run.py --workload query_cit --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to .bench_build/ (CMake,
RelWithDebInfo); later runs only re-link what changed. All arguments are
passed to the binary; an untraced timed run is split over PARTS processes
(see below). BENCHMARK.json is the one list of metrics: from the binary's
measured metrics this prints, as its last stdout line,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with exactly the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) it declares, each in its declared unit. A build failure, a
failed run, or a declared metric that was not measured (or was measured in
another unit) exits non-zero without a result.
"""

import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "reach_perfbench")
# An untraced timed run is this many processes of equal length, one after
# another, and each metric is the median over them. Timings depend on the
# process as well as on the code: in six 12 s processes, the same query loop
# read 72 to 87 ns per query (each process's fastest fifth of passes).
# Three processes per run damp that. Each process sets up once, so setup_s
# is the median of three set-ups.
PARTS = 3


def build():
    """Configures and builds the benchmark; output goes to stderr."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "reach_perfbench", "-j", jobs])
    # Concurrent runs in one checkout share the build directory.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False).returncode != 0:
                return False
    return True


def flag(args, name, default):
    """The value after `name` in `args`, or `default`."""
    if name in args[:-1]:
        return args[args.index(name) + 1]
    return default


def declared_metrics(args):
    """The metrics BENCHMARK.json declares for this run's --trace mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer"] if flag(args, "--trace", "0") == "1" \
        else spec["end_to_end"]


def run_part(args):
    """Runs the binary once. Returns its measured line as a dict, or None
    (reason on stderr) when it fails; other stdout lines pass through."""
    work_dir = os.path.join(BUILD_DIR, "work")
    child = subprocess.Popen([BINARY, "--work-dir", work_dir] + args,
                             stdout=subprocess.PIPE, text=True)
    try:
        lines = child.stdout.read().splitlines()
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()
        # The binary removes its snapshot directory itself unless killed.
        shutil.rmtree(os.path.join(work_dir, f"run-{child.pid}"),
                      ignore_errors=True)
    for line in lines[:-1]:
        print(line)
    if child.returncode != 0 or not lines:
        sys.stderr.write(f"run.py: reach_perfbench exited "
                         f"{child.returncode}\n")
        return None
    return json.loads(lines[-1])


def merge(parts):
    """Tallies summed and every metric's median over the parts."""
    merged = {"attempted": sum(p["attempted"] for p in parts),
              "failed": sum(p["failed"] for p in parts),
              "failed_by_stage": {}, "metrics": {}}
    for stage in parts[0]["failed_by_stage"]:
        merged["failed_by_stage"][stage] = sum(
            p["failed_by_stage"][stage] for p in parts)
    for name, first in parts[0]["metrics"].items():
        got = [p["metrics"].get(name) for p in parts]
        if all(g is not None and g["unit"] == first["unit"] for g in got):
            merged["metrics"][name] = {
                "value": statistics.median(g["value"] for g in got),
                "unit": first["unit"]}
    return merged


def result_line(measured, declared):
    """The result for `declared` from the merged measured line, or None
    (reason on stderr) when a declared metric is missing or in another
    unit."""
    metrics = {}
    for m in declared:
        got = measured["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.stderr.write(f"run.py: metric {m['name']} in {m['unit']} "
                             f"was not measured (got {got})\n")
            return None
        metrics[m["name"]] = got
    return json.dumps({"correct": measured["failed"] == 0,
                       "attempted": measured["attempted"],
                       "failed": measured["failed"], "metrics": metrics})


def main():
    args = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: no library sources next to perfbench/\n")
        return 2
    declared = declared_metrics(args)
    if not build():
        sys.stderr.write("run.py: benchmark build failed\n")
        return 2
    # A SIGTERM unwinds through run_part's `finally`, which stops the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parts = 1
    if flag(args, "--trace", "0") == "0" and "--smoke" not in args:
        parts = PARTS
    try:
        seconds = float(flag(args, "--seconds", ""))
    except ValueError:
        seconds = None
    if seconds is not None and parts > 1:
        i = args.index("--seconds") + 1
        args = args[:i] + [repr(seconds / parts)] + args[i + 1:]
    measured = []
    for _ in range(parts):
        part = run_part(args)
        if part is None:
            return 1
        measured.append(part)
    merged = merge(measured)
    print(json.dumps({"failed_by_stage": merged["failed_by_stage"]}))
    result = result_line(merged, declared)
    if result is None:
        return 1
    print(result, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
