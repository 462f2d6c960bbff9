#!/usr/bin/env python3
"""Self-test of the benchmark itself, not of closurelab.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics run.py and tracer.py
report; runs a tiny instance (round 0) of every workload through the gate;
feeds every experiment of that round a deliberately wrong golden value and
checks that it counts as a failure; runs the command once per trace mode;
and checks that the command fails, without a result, in a directory that
holds only BENCHMARK.json and the benchmark.  Exits non-zero on any miss.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np

import run
import tracer

run.pin_environment()
sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (needs the path above)

BENCH = run.ROOT / "BENCHMARK.json"
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def corrupt(value):
    """A copy of ``value`` with its first leaf changed."""
    if isinstance(value, dict):
        key = sorted(value)[0]
        return {**value, key: corrupt(value[key])}
    if isinstance(value, (list, tuple)):
        return type(value)([corrupt(value[0])] + list(value[1:])) if value else [0]
    if isinstance(value, np.ndarray):
        out = value.copy()
        out.flat[0] = not out.flat[0] if out.dtype == bool else out.flat[0] + 1
        return out
    if isinstance(value, bool) or value is None:
        return not value
    if isinstance(value, (int, float, Fraction)):
        return value + 1
    return str(value) + "-corrupted"


def check_benchmark_json() -> None:
    spec = json.loads(BENCH.read_text())
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json has exactly its six keys")
    expect({w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS),
           "BENCHMARK.json workloads are workloads of workloads.WORKLOADS")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END,
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [tuple(m) for m in tracer.PER_LAYER],
           "BENCHMARK.json per_layer matches tracer.PER_LAYER")


def check_gate(name: str) -> None:
    workload = workloads.make(name, 0)
    for exp in workload.round(0):
        result = exp.run()
        tally = run.Tally()
        tally.run_round([exp])
        expect(tally.failed == 0, f"{name} {exp.kind} {exp.key} passes the gate")
        wrong = copy.copy(exp)
        wrong.expected = corrupt(exp.expected)
        wrong.run = lambda result=result: result
        tally = run.Tally()
        with contextlib.redirect_stderr(io.StringIO()):  # the expected FAIL line
            tally.run_round([wrong])
        expect(tally.failed == 1, f"{name} {exp.kind} fails with a wrong golden value")
    workload.close()


def run_command(cwd, *extra) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sampled-estimators",
         "--seed", "0", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def check_command() -> None:
    for trace, names in (("0", [m for m, _ in run.END_TO_END]),
                         ("1", [m for m, _, _ in tracer.PER_LAYER])):
        proc = run_command(run.ROOT, "--trace", trace)
        last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else {}
        expect(proc.returncode == 0 and set(last) == {"correct", "attempted", "failed",
                                                      "metrics"}
               and last["correct"] and list(last["metrics"]) == names,
               f"--trace {trace} prints a correct result with every metric")
    run.TRACE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.TRACE_DIR) as bare:
        shutil.copy(BENCH, bare)
        shutil.copytree(run.ROOT / "perfbench", f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_command(bare, "--trace", "0")
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "fails without a result when src/ is absent")


def main() -> int:
    p = run.tail_percentile(100)
    expect((p, run.tail([float(i) for i in range(1, 101)], p)) == (90, 90.0),
           "tail of 1..100 is p90 with ten samples beyond")
    check_benchmark_json()
    for name in workloads.WORKLOADS:
        check_gate(name)
    check_command()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
