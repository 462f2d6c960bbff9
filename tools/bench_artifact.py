"""Write a BENCH_<n>.json comparing a parent checkout with this one.

    python3 tools/bench_artifact.py --parent ../parent --out BENCH_11.json

Run from the root of this checkout; ``--parent`` is a checkout of the parent
commit (``git archive`` or ``git clone`` it).  The change side runs from a
fresh copy of this checkout in a temporary directory, without ``.git``,
caches, benchmark output or ``BENCH_*.json``, so like a fresh parent
checkout it starts without compiled bytecode or earlier results.  Both
sides run with the same interpreter.  The artifact has four parts:

* ``perfbench``: result lines of ``perfbench/run.py --trace 0`` at the
  benchmark's ``run_seconds``, in pairs that alternate which side runs first
  (pair k of a workload uses seed ``SEED + k``; ten pairs for every workload,
  so a claimed gain and the other workloads' no-regression rest on the same
  count), and per workload the median of each end-to-end metric on both sides;
* ``kernels``: medians over repeats, each side in a fresh interpreter, in
  ``KERNEL_ROUNDS`` rounds that alternate which side runs first (a slow
  phase of the host then shows on both sides, not as a change), of
  ``matrix_pipeline`` at (4,4) and (4,5) (delta 1/2, seed 2000),
  ``find_system`` at (4,4) delta 1/2 and ``find_structure_matrix`` at (4,4)
  delta 3/4 (seed 2000), ``wht`` at
  n = 4/8/16/17/18/20 (17 and 18 on either side of the butterfly's 2^16-point
  block), ``bogolyubov`` on dense 1/2 sets at n = 12/13/16/20/22,
  ``closedness_exact`` against ``spectral_closedness`` and ``mixed_energy``
  on the n = 20 layers 9..11 against the standard basis, the ``spectrum``
  CLI run of perfbench's ``spectrum-n16`` slot with stdout captured,
  the same run written with ``--format csv`` to a temporary file,
  ``GroupSet.from_elements`` on 2^15 and 2^19 distinct elements,
  ``layered_pair_eta_sampled`` at n = 64 (10^5 samples),
  ``compatibility_fraction`` of the n = 64 layer below cutoff 0.1 against the
  weight-8 slice (10^6 samples), ``inversion_sampler`` over 20 equal basis
  masses (10^5 draws in the estimator's seeded chunks), and
  ``degenerate_decide`` at k = 1 per call, the median over seeded random
  tensors of shape (3,3), (2,2,3), (3,3,2), (3,2,3) and (2,2,2,2) (with
  the count of degenerate ones), and, at seed 2000, the
  16-deep ``SumsetReach`` alone over the rank-one pairs at (4,4) delta 1/2
  and 3/4 and at (4,5) delta 1/2, and the greedy rank-1 clustering of the
  (4,4) delta 1/2 agreement set by ``forcing._greedy_centers`` with the
  rank <= 1 ball built inline from every rank-one u (x) v.
  ``rounds`` holds each round's output; ``summary`` holds per kernel each
  side's median over the rounds and the median of the per-round
  change/parent ratios; ``peak_rss_mb`` holds each side's peak RSS of one
  dense 1/2 ``bogolyubov`` at n = 20 and 22, each in a fresh interpreter;
* ``suite``: the tier-1 suite's wall time, criterion 7's call time, and
  criterion 3's library seconds from its ``ACCEPTANCE 3: PASS`` line;
* ``machine``: CPU, Python and numpy versions.

perfbench itself is only run, never changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

CHANGE = Path(__file__).resolve().parent.parent
PAIRS = {"forcing-pipeline": 10, "dense-spectra": 10, "sampled-estimators": 10}
SEED = 101
KERNEL_ROUNDS = 3

KERNEL_SNIPPET = """
import contextlib, io, json, math, os, statistics, tempfile, time
from fractions import Fraction
import numpy as np
from closurelab import cli, closure, forcing, hamming, spectral
from closurelab.forcing import (
    find_structure_matrix, find_system, matrix_pipeline, random_factor_tuples)
from closurelab.tensor import Tensor, TensorShape, degenerate_decide, rank1_flat


def median_s(call, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return {"median_s": statistics.median(times), "repeats": repeats}, result


out = {}
for dims, repeats in (((4, 4), 7), ((4, 5), 3)):
    pairs = random_factor_tuples(dims, (1 << sum(dims)) // 2, np.random.default_rng(2000))
    out[f"matrix_pipeline{dims}"], result = median_s(
        lambda: matrix_pipeline(pairs, TensorShape(dims), Fraction(1, 2)), repeats)
    out[f"matrix_pipeline{dims}"]["measured"] = result.measured
for name, find, delta in (("find_system", find_system, "1/2"),
                          ("find_structure_matrix", find_structure_matrix, "3/4")):
    pairs = random_factor_tuples((4, 4), math.ceil(Fraction(delta) * 256),
                                 np.random.default_rng(2000))
    out[f"{name}(4, 4)_delta{delta}"], _ = median_s(
        lambda: find(pairs, TensorShape((4, 4)), Fraction(delta)), 9)
for n, repeats in ((4, 2001), (8, 2001), (16, 31), (17, 21), (18, 15), (20, 7)):
    f = np.random.default_rng(2000).integers(0, 2, size=1 << n)
    out[f"wht_n{n}"], _ = median_s(lambda: spectral.wht(f, n), repeats)
for n, repeats in ((12, 7), (13, 5), (16, 5), (20, 3), (22, 3)):
    s = spectral.random_groupset(n, 1 << (n - 1), np.random.default_rng(2000))
    out[f"bogolyubov_dense_n{n}"], v = median_s(lambda: spectral.bogolyubov(s), repeats)
    out[f"bogolyubov_dense_n{n}"]["codim"] = v.codim
a, b = hamming.layer_groupset(20, 9, 11), hamming.standard_basis_multiset(20)
for name, call in (("closedness_exact_n20", lambda: closure.closedness_exact(a, b).eta),
                   ("spectral_closedness_n20", lambda: spectral.spectral_closedness(a, b)),
                   ("mixed_energy_n20", lambda: closure.mixed_energy(a, b))):
    out[name], value = median_s(call, 7)
    out[name]["value"] = str(value)


def spectrum_n16():
    raw = {"command": "spectrum", "seed": 100,
           "params": {"n": 16, "set": {"kind": "random", "size": 1 << 15}}}
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        cli.run(cli.Manifest.from_dict(raw))
    return len(buf.getvalue())


out["spectrum_n16_cli"], size = median_s(spectrum_n16, 9)
out["spectrum_n16_cli"]["stdout_chars"] = size


def spectrum_n16_csv(path):
    raw = {"command": "spectrum", "seed": 100, "output": {"path": path, "format": "csv"},
           "params": {"n": 16, "set": {"kind": "random", "size": 1 << 15}}}
    cli.run(cli.Manifest.from_dict(raw), quiet=True)
    return os.path.getsize(path)


with tempfile.TemporaryDirectory() as tmp:
    out["spectrum_n16_csv"], size = median_s(
        lambda: spectrum_n16_csv(os.path.join(tmp, "spectrum.csv")), 9)
out["spectrum_n16_csv"]["bytes"] = size
for e in (15, 19):
    elems = np.random.default_rng(2000).choice(1 << 20, size=1 << e, replace=False).tolist()
    out[f"from_elements_2^{e}"], _ = median_s(lambda: spectral.GroupSet.from_elements(20, elems), 9)
layer, sl = hamming.LayerSet(64, 30, 33), hamming.SliceSet(64, 2)
out["layered_pair_eta_sampled_n64"], report = median_s(
    lambda: hamming.layered_pair_eta_sampled(layer, sl, 100000, 1), 7)
out["layered_pair_eta_sampled_n64"]["estimate"] = report.estimate
layer = hamming.LayerSet.below_cutoff(64, 0.1)
out["compatibility_fraction_slice_n64"], report = median_s(
    lambda: hamming.compatibility_fraction(layer, hamming.SliceSet(64, 8), 10**6, 1), 5)
out["compatibility_fraction_slice_n64"]["estimate"] = report.estimate
basis = closure.inversion_sampler(list(range(20)), [1] * 20)
out["inversion_sampler_basis20"], draws = median_s(
    lambda: sum(int(basis(rng, count).sum()) for rng, count in closure.seeded_chunks(10**5, 1)), 31)
out["inversion_sampler_basis20"]["draw_sum"] = draws
for dims, calls in (((3, 3), 51), ((2, 2, 3), 21), ((3, 3, 2), 5), ((3, 2, 3), 5),
                    ((2, 2, 2, 2), 5)):
    shape, rng = TensorShape(dims), np.random.default_rng(2000)
    times, degenerate = [], 0
    for _ in range(calls):
        x = Tensor(shape, int(rng.integers(0, 1 << shape.total)))
        start = time.perf_counter()
        decision = degenerate_decide(x, 1)
        times.append(time.perf_counter() - start)
        degenerate += bool(decision.degenerate)
    out[f"degenerate_decide_k1{dims}"] = {"median_s": statistics.median(times),
                                          "calls": calls, "degenerate": degenerate}
for dims, delta, repeats in (((4, 4), "1/2", 9), ((4, 4), "3/4", 9), ((4, 5), "1/2", 5)):
    pairs = random_factor_tuples(dims, math.ceil(Fraction(delta) * (1 << sum(dims))),
                                 np.random.default_rng(2000))
    gens = [rank1_flat(dims, tup) for tup in pairs]
    name = f"sumset_reach{dims}_delta{delta}"
    out[name], reach = median_s(lambda: forcing.SumsetReach(gens, math.prod(dims), 16), repeats)
    out[name]["layer_sizes"] = np.bincount(reach.dist[reach.dist <= 16]).tolist()


pairs = random_factor_tuples((4, 4), 128, np.random.default_rng(2000))
points = np.array(matrix_pipeline(pairs, TensorShape((4, 4)), Fraction(1, 2)).agreement_set)
in_ball = np.zeros(1 << 16, dtype=bool)
in_ball[[rank1_flat((4, 4), (u, v)) for u in range(16) for v in range(16)]] = True
out["greedy_clustering(4, 4)"], centers = median_s(
    lambda: forcing._greedy_centers(points, in_ball), 9)
out["greedy_clustering(4, 4)"].update(points=int(points.size), centers=len(centers))
print(json.dumps(out))
"""


RSS_SNIPPET = """
import resource, sys
import numpy as np
from closurelab import spectral
n = int(sys.argv[1])
spectral.bogolyubov(spectral.random_groupset(n, 1 << (n - 1), np.random.default_rng(2000)))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def _run(cmd: list[str], root: Path, env_src: bool = False) -> str:
    """stdout of ``cmd`` run in ``root``, importing closurelab from root/src if asked."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if env_src:
        env["PYTHONPATH"] = str(root / "src")
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True,
                          env=env).stdout


def fresh_copy(root: Path, dest: Path) -> Path:
    """``root`` copied to ``dest`` without what building, testing and benchmarking leave."""
    shutil.copytree(root, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", "BENCH_*.json"))
    return dest


def perfbench_pair(workload: str, seed: int, seconds: float, sides: dict, first: str) -> dict:
    order = [first, "change" if first == "parent" else "parent"]
    pair = {"workload": workload, "seed": seed, "first": first}
    for side in order:
        out = _run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                    str(seed), "--seconds", str(seconds), "--trace", "0"], sides[side])
        line = json.loads(out.strip().splitlines()[-1])
        pair[side] = {"correct": line["correct"], "attempted": line["attempted"],
                      "failed": line["failed"],
                      **{k: m["value"] for k, m in line["metrics"].items()}}
    return pair


def kernel_rounds(sides: dict) -> dict:
    """KERNEL_SNIPPET on both sides per round; even rounds run the parent first."""
    rounds = []
    for k in range(KERNEL_ROUNDS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        rounds.append({"first": order[0], **{
            side: json.loads(_run([sys.executable, "-c", KERNEL_SNIPPET], sides[side], env_src=True))
            for side in order}})
        print(f"kernel round {k + 1}/{KERNEL_ROUNDS} done", file=sys.stderr)
    summary = {}
    for name in rounds[0]["parent"]:
        parent_s = [r["parent"][name]["median_s"] for r in rounds]
        change_s = [r["change"][name]["median_s"] for r in rounds]
        summary[name] = {
            "parent_median_s": statistics.median(parent_s),
            "change_median_s": statistics.median(change_s),
            "change_over_parent": statistics.median(c / p for c, p in zip(change_s, parent_s)),
        }
    peak_rss_mb = {
        f"bogolyubov_dense_n{n}": {
            side: float(_run([sys.executable, "-c", RSS_SNIPPET, str(n)], root, env_src=True))
            for side, root in sides.items()}
        for n in (20, 22)}
    return {"summary": summary, "rounds": rounds, "peak_rss_mb": peak_rss_mb}


def summarize(pairs: list[dict], metrics: list[str]) -> dict:
    out = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        rows = [p for p in pairs if p["workload"] == workload]
        out[workload] = {"pairs": len(rows)}
        for name in metrics:
            parent = statistics.median(p["parent"][name] for p in rows)
            change = statistics.median(p["change"][name] for p in rows)
            out[workload][name] = {"parent_median": parent, "change_median": change,
                                   "change_over_parent": change / parent if parent else None}
    return out


def suite(root: Path) -> dict:
    start = time.monotonic()
    out = _run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rP",
                "--durations=0", "--continue-on-collection-errors"], root, env_src=True)
    wall = time.monotonic() - start
    crit7 = re.search(r"([\d.]+)s call\s+\S+::test_criterion_7_\w+", out)
    crit3 = re.search(r"ACCEPTANCE 3: PASS in ([\d.]+)s", out)
    summary = out.strip().splitlines()[-1]
    return {"wall_s": round(wall, 2), "criterion_7_call_s": float(crit7.group(1)) if crit7 else None,
            "criterion_3_library_s": float(crit3.group(1)) if crit3 else None,
            "summary": summary}


def machine() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        names = re.findall(r"^model name\s*:\s*(.+)$", cpuinfo.read_text(), re.M)
        cpu = names[0] if names else cpu
        cores = len(names)
    else:
        cores = None
    return {"cpu": cpu, "cpus": cores, "system": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((CHANGE / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": args.parent.resolve(),
                 "change": fresh_copy(CHANGE, Path(tmp) / "change")}
        pairs = []
        for workload, count in PAIRS.items():
            for k in range(count):
                first = "parent" if k % 2 == 0 else "change"
                pairs.append(perfbench_pair(workload, SEED + k, bench["run_seconds"],
                                            sides, first))
                print(f"{workload} pair {k + 1}/{count} done", file=sys.stderr)
        kernels = kernel_rounds(sides)
        suites = {side: suite(root) for side, root in sides.items()}
    artifact = {
        "machine": machine(),
        "perfbench": {
            "run_seconds": bench["run_seconds"],
            "summary": summarize(pairs, [m["name"] for m in bench["end_to_end"]]),
            "pairs": pairs,
        },
        "kernels": kernels,
        "suite": suites,
    }
    args.out.write_text(json.dumps(artifact, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
