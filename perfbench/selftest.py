#!/usr/bin/env python3
"""Self-test of the benchmark: smoke runs and the answer checker.

    python3 perfbench/selftest.py

Run from the repository root; takes about a minute. For every workload in
BENCHMARK.json it checks that

  * a --smoke run with --trace 0 prints every end-to-end metric, and one
    with --trace 1 every per-layer metric, each with its declared unit,
    with no failed operation;
  * a --flip-expected run (one expected answer flipped per stage) reports
    correct=false, and a failure in every stage that ran: each stage's
    end-to-end loop, and with --trace 1 also each stage's layer probes, so
    no single answer check can be dead;
  * a bad argument exits non-zero without a result line.

Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
STAGES = ["build", "query", "serve"]


def run(*args):
    """Exit code, result line and the failed-per-stage counts of one run."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=ROOT, capture_output=True, text=True,
                          check=False, timeout=600)
    result, by_stage = None, {}
    for line in proc.stdout.strip().splitlines():
        try:
            parsed = json.loads(line)
        except json.JSONDecodeError:
            continue
        by_stage = parsed.get("failed_by_stage", by_stage)
        if "correct" in parsed:
            result = parsed
    return proc.returncode, result, by_stage


def main():
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, declared in (("0", SPEC["end_to_end"]),
                                ("1", SPEC["per_layer"])):
            code, result, _ = run("--workload", workload, "--seed", "3",
                                  "--seconds", "1", "--trace", trace,
                                  "--smoke")
            tag = f"{workload} --trace {trace} --smoke"
            expect(code == 0 and result is not None, f"{tag}: exits 0 with a "
                   "result line")
            if result is None:
                continue
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{tag}: result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0, f"{tag}: every answer right")
            metrics = result["metrics"]
            expect(set(metrics) == {m["name"] for m in declared},
                   f"{tag}: exactly the declared metrics")
            for m in declared:
                got = metrics.get(m["name"], {})
                expect(got.get("unit") == m["unit"]
                       and isinstance(got.get("value"), (int, float)),
                       f"{tag}: {m['name']} in {m['unit']}")

        for trace, stages in (("0", STAGES),
                              ("1", STAGES + [s + "_layers"
                                              for s in STAGES])):
            code, result, by_stage = run(
                "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke", "--flip-expected")
            tag = f"{workload} --trace {trace} --flip-expected"
            expect(code == 0 and result is not None
                   and not result["correct"] and result["failed"] > 0,
                   f"{tag}: the wrong answers are counted")
            for stage in stages:
                expect(by_stage.get(stage, 0) > 0,
                       f"{tag}: stage {stage} counts its wrong answer")

    code, result, _ = run("--workload", "no_such_workload", "--seed", "1",
                       "--seconds", "1", "--trace", "0")
    expect(code != 0 and result is None,
           "unknown workload exits non-zero without a result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
