"""Check the payload contract against a parent checkout in one command.

    python3 tools/payload_diff.py --parent ../parent

Run from anywhere; ``--parent`` is a checkout of the parent commit (``git
archive`` or ``git clone`` it).  Each side runs the same fixed list of CLI
runs in one subprocess with ``PYTHONPATH=<side>/src``, and each run gives
its exit code and ``meta.payload_hash`` (None when it prints no payload),
or for a ``--format csv`` run the sha256 of its stdout.  The list:

* the README examples (their ``--out`` and ``--format`` dropped: the payload
  hash does not depend on the output options);
* 127 ``forcing-pipeline`` runs: shapes (3,3), (3,4) and (4,4) at delta
  1/2, 5/8 and 3/4, seeds 2000-2003 and rank thresholds 0-2; (4,5) at the
  same deltas and thresholds, seeds 2000-2001; and (10,2) at seed 1;
* ``lsystem`` and ``simple-set`` runs at d = 2 to 4;
* one budget refusal;
* ``spectrum`` at n = 1, 4, 13 and 16, of a random set and of two or three
  layers;
* the large transforms of the ``dense-spectra`` benchmark: ``closedness`` at
  n = 20 (layers 9-11, the standard basis) and at n = 16 (a random set and
  the (4,4) rank-one generators), and ``bogolyubov`` at n = 16 on 2^15
  elements;
* exact ``closedness`` at n = 1, 3 and 5 (bitmaps shorter than one 64-bit
  word) and, with random generators, at n = 6 and 7 (one and two words);
* ``spectrum --n 3`` and ``--n 16`` written with ``--format csv``;
* ``scenarios`` at seed 0, and two runs that set a key of another mode
  (``closedness --samples`` in exact mode, ``counterexample --ns --c`` in
  concentration mode);
* ``--manifest`` runs, from files written to a temporary directory, that set
  the keys no flag writes: ``pairs``, ``tuples``, ``radius_method``, the six
  ``scenarios`` sizes, and the set and generator keys ``elements``,
  ``support``, ``nonzero``, ``support_size``, ``max_mult`` and ``pairs``;
  and exact ``closedness`` at n = 12 against 64 random generators and
  against the (3,4) rank-one generators with the zero tensor (key 0).

Every run whose ``(exit code, payload_hash)`` differs between the sides is
printed, and the exit code is 1 if any differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

README_RUNS = [
    "closedness --n 7 --set-kind middle-layers --generators basis --mode exact",
    "closedness --n 7 --set-kind middle-layers --generators basis --mode sampled "
    "--samples 100000 --seed 7",
    "closedness --n 8 --set-size 9",
    "spectrum --n 8 --set-kind layers --lo 0 --hi 2",
    "bogolyubov --n 10 --set-size 512 --seed 3",
    "forcing-pipeline --shape 4 4 --delta 1/2 --seed 2000",
    "simple-set --shape 3 3 --k 1 --seed 5",
    "lsystem --shape 4 4 --delta 1/2 --seed 5",
    "counterexample --mode compatibility --ns 36 49 64 --samples 100000 --seed 42",
    "counterexample --mode concentration --n 100 --w 10 --threshold 98/100",
    "scenarios --seed 7",
]

PIPELINE_RUNS = [
    f"forcing-pipeline --shape {n1} {n2} --delta {delta} --rank-threshold {k} --seed {seed}"
    for (n1, n2), seeds in (((3, 3), 4), ((3, 4), 4), ((4, 4), 4), ((4, 5), 2))
    for delta in ("1/2", "5/8", "3/4")
    for seed in range(2000, 2000 + seeds)
    for k in (0, 1, 2)
] + ["forcing-pipeline --shape 10 2 --seed 1"]

SYSTEM_RUNS = [
    "lsystem --shape 4 4 --seed 2000",
    "lsystem --shape 2 3 3 --seed 2",
    "lsystem --shape 2 2 2 --seed 3",
    "lsystem --shape 3 3 2 --seed 1",
    "lsystem --shape 2 2 2 2 --seed 4",
    "simple-set --shape 2 2 3 --k 1 --seed 2000",
    "simple-set --shape 3 3 --k 2 --seed 7",
    "simple-set --shape 2 3 4 --k 1 --seed 3",
]

REFUSAL_RUNS = ["spectrum --n 30 --set-kind random"]

SEED_AND_MODE_RUNS = [
    "scenarios --seed 0",
    "closedness --n 6 --samples 5",
    "counterexample --mode concentration --n 20 --w 4 --ns 36 --c 0.3",
]

SPECTRUM_RUNS = [f"spectrum --n {n} --seed 5" for n in (1, 4, 13, 16)] + [
    f"spectrum --n {n} --set-kind layers --lo {lo} --hi {hi}"
    for n, lo, hi in ((1, 0, 1), (4, 1, 2), (13, 6, 7), (16, 7, 9))
]

DENSE_RUNS = [
    "closedness --n 20 --set-kind layers --lo 9 --hi 11 --generators basis",
    "closedness --n 16 --generators rank-one --dims 4 4",
    "bogolyubov --n 16 --set-size 32768",
]

WORD_RUNS = [f"closedness --n {n}" for n in (1, 3, 5)] + [
    f"closedness --n {n} --generators random" for n in (6, 7)]

CSV_RUNS = ["spectrum --n 3 --format csv", "spectrum --n 16 --format csv"]

RUNS = (README_RUNS + PIPELINE_RUNS + SYSTEM_RUNS + REFUSAL_RUNS + SPECTRUM_RUNS + DENSE_RUNS
        + WORD_RUNS + CSV_RUNS + SEED_AND_MODE_RUNS)

# name -> a manifest that sets keys no flag writes
MANIFESTS = {
    "forcing-pairs": {"command": "forcing-pipeline", "seed": 2000,
                      "params": {"shape": [3, 3], "delta": "5/8", "pairs": 48}},
    "lsystem-tuples": {"command": "lsystem", "seed": 5,
                       "params": {"shape": [3, 3], "tuples": 40}},
    "closedness-chernoff": {"command": "closedness", "seed": 7, "params": {
        "n": 7, "set": {"kind": "middle-layers"}, "mode": "sampled", "samples": 10000,
        "radius_method": "chernoff"}},
    "scenarios-sizes": {"command": "scenarios", "seed": 3, "params": {
        "two_layer_ns": [5, 7], "third_n": 9, "translate_n": 9, "translate_seed": 2,
        "window_n": 15, "window_m": 11}},
    "closedness-explicit": {"command": "closedness", "params": {
        "n": 6, "set": {"kind": "explicit", "elements": ["3", "5", "6", "2a"]},
        "generators": {"kind": "explicit", "pairs": [["3", 2], ["5", 1]]}}},
    "closedness-basis-support": {"command": "closedness", "params": {
        "n": 6, "set": {"kind": "layers", "lo": 1, "hi": 2},
        "generators": {"kind": "basis", "support": 7}}},
    "closedness-rank-one-nonzero": {"command": "closedness", "seed": 4, "params": {
        "n": 6, "generators": {"kind": "rank-one", "dims": [2, 3], "nonzero": True}}},
    "closedness-random-generators": {"command": "closedness", "seed": 1, "params": {
        "n": 6, "set": {"kind": "random", "size": 20},
        "generators": {"kind": "random", "support_size": 5, "max_mult": 2}}},
    "closedness-n12-random-generators": {"command": "closedness", "seed": 12, "params": {
        "n": 12, "generators": {"kind": "random", "support_size": 64}}},
    "closedness-n12-rank-one-with-zero": {"command": "closedness", "seed": 12, "params": {
        "n": 12, "generators": {"kind": "rank-one", "dims": [3, 4], "nonzero": False}}},
}

# reads the argument lists as JSON on stdin; writes the module path and one
# [exit code, payload_hash or the sha256 of a CSV stdout] per run as JSON on stdout
CHILD = """
import contextlib, hashlib, io, json, sys
from closurelab import cli
results = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        results.append([code, hashlib.sha256(text.encode()).hexdigest()])
    else:
        results.append([code, json.loads(text)["meta"]["payload_hash"] if text else None])
json.dump({"module": cli.__file__, "results": results}, sys.stdout)
"""


def _results(side: Path, argvs: list[list[str]]) -> list:
    """[exit code, payload_hash] of every run, with ``side``'s ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(side / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD], cwd=side, env=env, text=True,
                          input=json.dumps(argvs), capture_output=True)
    if proc.returncode:
        raise SystemExit(f"the runs at {side} exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout)
    if not Path(report["module"]).resolve().is_relative_to((side / "src").resolve()):
        raise SystemExit(f"the runs at {side} imported {report['module']}")
    return report["results"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    args = parser.parse_args(argv)
    if not (args.parent / "src" / "closurelab").is_dir():
        parser.error(f"{args.parent} holds no src/closurelab")
    with tempfile.TemporaryDirectory() as tmp:
        argvs = [run.split() for run in RUNS]
        for name, manifest in MANIFESTS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(manifest))
            argvs.append([manifest["command"], "--manifest", str(path)])
        parent, change = _results(args.parent.resolve(), argvs), _results(ROOT, argvs)
    differ = 0
    for run, old, new in zip(RUNS + [f"--manifest {name}" for name in MANIFESTS], parent, change):
        if old != new:
            differ += 1
            print(f"{run}: parent {tuple(old)}, change {tuple(new)}")
    print(f"{differ} of {len(argvs)} runs differ in (exit code, payload_hash or CSV sha256)")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
