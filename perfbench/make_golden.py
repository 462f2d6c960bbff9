#!/usr/bin/env python3
"""Regenerate golden.json: the pinned output fields of every pooled instance.

    python3 perfbench/make_golden.py

Run it only when a change alters a pinned field on purpose, and say so in
that change.  Every instance is also put through the gate's independent
checks (witness re-check, radius coverage) before its value is written.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import run

run.pin_environment()
sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (needs the path above)


def main() -> int:
    golden: dict = {}
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, 0, golden={})
        for exp in workload.pool_experiments():
            result = exp.run()
            fields = exp.pin(result)
            problems = exp.check(result, fields, Counter())
            if problems or golden.setdefault(exp.key, fields) != fields:
                raise SystemExit(f"{exp.key}: {problems or 'differs between runs'}")
            print(exp.key, file=sys.stderr)
        workload.close()
    # closed forms the pinned values must agree with
    eta = Fraction(*golden["closedness-n20"]["eta"])
    assert eta == workloads.SampledEstimators(0, golden={}).exact_n20, eta
    with open(workloads.GOLDEN_PATH, "w") as fh:
        # one entry per line keeps diffs of a deliberate change readable
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(key)}: {json.dumps(golden[key], sort_keys=True)}"
            for key in sorted(golden)) + "\n}\n")
    print(f"wrote {len(golden)} golden entries to {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
