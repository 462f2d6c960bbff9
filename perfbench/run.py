#!/usr/bin/env python3
"""closurelab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
One caller runs experiments in a closed loop: the next experiment starts
only after the previous one returned and passed the correctness gate.

``--trace 0`` times the loop for ``--seconds`` and prints the end-to-end
metrics.  The loop stops at the first end of a pool cycle (see
``workloads``) after ``--seconds`` of loop time and the workload's
``min_rounds``, so every run of a workload times whole cycles of the same
instances.  ``--trace 1`` runs a fixed,
seed-determined number of rounds untraced and then traced, and prints the
per-layer metrics (so counts repeat exactly for a seed) with the tracing
overhead.  The last line of standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
# set-ups per run: this process, then fresh interpreters spread over the loop;
# setup_s is their median
SETUP_RUNS = 5

# BLAS/OpenMP pools pinned to one thread on a 2-core box; the library's
# default budget (2^24) applies, not an inherited override.
PINNED_ENV = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
CLEARED_ENV = ("CLOSURELAB_BUDGET_EXP",)

# every end-to-end metric a --trace 0 run reports: (name, unit)
END_TO_END = [
    ("experiment_p50_s", "s"),
    ("experiment_tail_s", "s"),
    ("experiments_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def pin_environment() -> None:
    for var in CLEARED_ENV:
        os.environ.pop(var, None)
    os.environ.update(PINNED_ENV)


def set_up(name: str, seed: int):
    """Import closurelab, build the workload's inputs, run the warm-up pass.

    Returns (seconds taken, workload, warm-up tally).
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import closurelab
    except ImportError as exc:
        raise SystemExit(f"error: cannot import closurelab from {SRC}: {exc}") from exc
    if Path(closurelab.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: closurelab imported from {closurelab.__file__}, not {SRC}")
    import workloads

    workload = workloads.make(name, seed)
    tally = Tally()
    tally.run_round(workload.warm_round())
    return time.perf_counter() - start, workload, tally


class Tally:
    """Latencies, attempts, failures and gate outcomes of a closed loop."""

    def __init__(self, root_span=None):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.outcomes: Counter = Counter()
        self._root_span = root_span

    def run_round(self, experiments) -> None:
        """Run and gate each experiment; an empty problem list means it passed."""
        for exp in experiments:
            self.attempted += 1
            try:
                start = time.perf_counter()
                if self._root_span is None:
                    result = exp.run()
                else:
                    result = self._root_span(f"experiment.{exp.kind}", exp.run)
                elapsed = time.perf_counter() - start
                problems = exp.check(result, exp.expected, self.outcomes)
            except Exception:  # the loop keeps running; the failure is counted
                self.failed += 1
                print(f"FAIL {exp.kind} {exp.key}: raised", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                continue
            self.latencies.append(elapsed)
            if problems:
                self.failed += 1
                print(f"FAIL {exp.kind} {exp.key}: {'; '.join(problems)}", file=sys.stderr)

    def experiments_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies) if self.latencies else 0.0


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of ``n`` samples beyond it."""
    return max(0, min(99, 100 * (n - 10) // n))


def tail(latencies: list[float], p: int) -> float:
    """The ``p``-th percentile of ``latencies``, nearest rank."""
    ordered = sorted(latencies)
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


def fresh_setup_s(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter running the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: set-up subprocess exited with {proc.returncode}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def measured_run(args, setup_s: float, workload, warm: Tally) -> dict:
    tally = Tally()
    setups = [setup_s]

    # loop time leaves out the fresh set-ups, which run between rounds at 1/8,
    # 3/8, 5/8 and 7/8 of it; the loop stops at the first cycle end after
    # --seconds and min_rounds, so every run times whole cycles of the same work
    marks = [args.seconds * (2 * k + 1) / (2 * (SETUP_RUNS - 1)) for k in range(SETUP_RUNS - 1)]
    loop_s = 0.0
    index = 1
    while True:
        start = time.perf_counter()
        tally.run_round(workload.round(index))
        loop_s += time.perf_counter() - start
        while marks and loop_s >= marks[0]:
            marks.pop(0)
            setups.append(fresh_setup_s(args.workload, args.seed))
        if (loop_s >= args.seconds and index >= workload.min_rounds
                and index % workload.cycle_rounds == 0):
            break
        index += 1
    setups += [fresh_setup_s(args.workload, args.seed) for _ in marks]
    if not tally.latencies:
        raise SystemExit("error: no experiment returned; nothing to measure")

    # min_rounds fixes the tail's percentile, so the cycles a run reaches do not move it
    p = tail_percentile(workload.min_rounds * len(workload.slots))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "experiment_p50_s": statistics.median(tally.latencies),
        "experiment_tail_s": tail(tally.latencies, p),
        "experiments_per_s": tally.experiments_per_s(),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    attempted = tally.attempted + warm.attempted
    failed = tally.failed + warm.failed
    print(f"workload {args.workload} seed {args.seed}: {index} rounds in "
          f"{index // workload.cycle_rounds} cycles of {workload.cycle_rounds}, "
          f"{len(tally.latencies)} timed experiments, one caller, closed loop")
    for name, unit in END_TO_END:
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(f"  experiment_tail_s is p{p} of {len(tally.latencies)} samples, "
          f"{len(tally.latencies) - math.ceil(p * len(tally.latencies) / 100)} beyond it")
    print(f"  setup_s is the median of {', '.join(f'{s:.4f}' for s in setups)} s")
    print(f"  failure_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted}, "
          f"warm-up included)")
    return {"attempted": attempted, "failed": failed, "values": values,
            "units": dict(END_TO_END)}


def traced_run(args, workload, warm: Tally) -> dict:
    import tracer
    import workloads

    rounds = range(1, 1 + workload.trace_rounds)
    untraced = Tally()
    for index in rounds:
        untraced.run_round(workload.round(index))
    workload.close()

    tr = tracer.Tracer()
    tr.install()
    try:
        traced_workload = tr.root("setup", lambda: workloads.make(args.workload, args.seed))
        traced = Tally(root_span=tr.root)
        for index in rounds:
            traced.run_round(traced_workload.round(index))
        traced_workload.close()
    finally:
        tr.uninstall()

    values = tr.metrics(traced.outcomes, len(traced.latencies),
                        untraced.experiments_per_s(), traced.experiments_per_s())
    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_path, "w") as fh:
        json.dump(tr.dump(), fh)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds untraced "
          f"then traced; spans in {trace_path.relative_to(ROOT)}")
    print(f"  tracing overhead: {values['trace.overhead_ratio']:.4f} of experiments_per_s "
          f"({values['trace.untraced_experiments_per_s']:.4g} untraced, "
          f"{values['trace.traced_experiments_per_s']:.4g} traced)")
    attempted = warm.attempted + untraced.attempted + traced.attempted
    failed = warm.failed + untraced.failed + traced.failed
    return {"attempted": attempted, "failed": failed, "values": values,
            "units": {name: unit for name, unit, _ in tracer.PER_LAYER}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("dense-spectra", "small-transforms", "forcing-pipeline",
                                 "sampled-estimators"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, warm up, print the set-up time and exit")
    args = parser.parse_args(argv)

    pin_environment()
    setup_s, workload, warm = set_up(args.workload, args.seed)
    if args.setup_only:  # warm-up failures are counted by the parent's own warm-up
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        report = traced_run(args, workload, warm)
    else:
        report = measured_run(args, setup_s, workload, warm)
    metrics = {name: {"value": report["values"][name], "unit": unit}
               for name, unit in report["units"].items()}
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
