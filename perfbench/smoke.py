#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about two minutes).

    python3 perfbench/smoke.py

Runs every workload with --tiny, untraced and traced, and checks that the
last line of output is the result object, that every metric BENCHMARK.json
names is emitted with its unit, that no sample failed (fail ratio 0), that
end-to-end metrics are positive, and that the traced run's per-layer self
times add up to its total and its tracing overhead is reported. Then checks
that the benchmark exits non-zero without a result in a directory holding
only BENCHMARK.json and perfbench/.
Exits 1 on the first failed check.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def run_bench(workload, trace, cwd=ROOT, script=RUN):
    proc = subprocess.run([sys.executable, script, "--workload", workload, "--seed", "7",
                           "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout, proc.stderr


def check_result(workload, trace):
    rc, out, err = run_bench(workload, trace)
    if rc != 0:
        fail(f"{workload} trace={trace} exited {rc}: {err[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed\n{out}")
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"{workload}: metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        value = metrics[name]["value"]
        if metrics[name]["unit"] != unit or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            fail(f"{workload}: {name} = {metrics[name]!r}, expected a number in {unit}")
        if not trace and value <= 0:
            fail(f"{workload}: end-to-end metric {name} = {value!r} is not positive")
    if not trace and metrics["pass_ratio"]["value"] != 1.0:
        fail(f"{workload}: fail ratio is not 0")
    if trace:
        total = metrics["trace.total_s"]["value"]
        parts = sum(v["value"] for k, v in metrics.items() if k.startswith("self."))
        if abs(parts - total) > 1e-6 * total:
            fail(f"{workload}: self times sum to {parts!r}, total is {total!r}")
        if not metrics["trace.overhead_est_s"]["value"] > 0:
            fail(f"{workload}: no tracing overhead reported")
    print(f"ok {workload} trace={trace} attempted={result['attempted']}")


def check_refuses_without_source():
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        rc, out, _ = run_bench("verify", 0, cwd=bare,
                               script=os.path.join(bare, "perfbench", "run.py"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if rc == 0 or '"correct"' in out:
        fail(f"benchmark ran without the package source (exit {rc})")
    print("ok refuses to run without src/admmcert")


if __name__ == "__main__":
    check_refuses_without_source()
    for name in (w["name"] for w in BENCH["workloads"]):
        for trace in (0, 1):
            check_result(name, trace)
    print("smoke test passed")
