"""Check the payload contract against a parent checkout in one command.

    python3 tools/payload_diff.py --parent ../parent

Run from anywhere; ``--parent`` is a checkout of the parent commit (``git
archive`` or ``git clone`` it).  Each side runs the same fixed list of CLI
runs in one subprocess with ``PYTHONPATH=<side>/src``, and each run gives
its exit code and ``meta.payload_hash`` (None when it prints no payload).
The list:

* the README examples (their ``--out`` and ``--format`` dropped: the payload
  hash does not depend on the output options);
* 127 ``forcing-pipeline`` runs: shapes (3,3), (3,4) and (4,4) at delta
  1/2, 5/8 and 3/4, seeds 2000-2003 and rank thresholds 0-2; (4,5) at the
  same deltas and thresholds, seeds 2000-2001; and (10,2) at seed 1;
* ``lsystem`` and ``simple-set`` runs at d = 2 to 4;
* one budget refusal.

Every run whose ``(exit code, payload_hash)`` differs between the sides is
printed, and the exit code is 1 if any differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
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

RUNS = README_RUNS + PIPELINE_RUNS + SYSTEM_RUNS + REFUSAL_RUNS

# reads the runs as JSON on stdin; writes the module path and one
# [exit code, payload_hash] per run as JSON on stdout
CHILD = """
import contextlib, io, json, sys
from closurelab import cli
results = []
for run in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(run.split())
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    results.append([code, json.loads(text)["meta"]["payload_hash"] if text else None])
json.dump({"module": cli.__file__, "results": results}, sys.stdout)
"""


def _results(side: Path) -> list:
    """[exit code, payload_hash] of every run, with ``side``'s ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(side / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD], cwd=side, env=env, text=True,
                          input=json.dumps(RUNS), capture_output=True)
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
    parent, change = _results(args.parent.resolve()), _results(ROOT)
    differ = 0
    for run, old, new in zip(RUNS, parent, change):
        if old != new:
            differ += 1
            print(f"{run}: parent {tuple(old)}, change {tuple(new)}")
    print(f"{differ} of {len(RUNS)} runs differ in (exit code, payload_hash)")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
