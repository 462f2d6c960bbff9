"""The benchmark's four workloads: seeded inputs, the calls it times, and the
correctness gate each output must pass.

A workload is a list of experiment slots.  Round ``i`` fills every slot
once, from a generator seeded with (workload seed, i), and runs them in a
shuffled order.  Any ``cycle_rounds`` consecutive rounds draw every pooled
instance exactly once, so every cycle is the same work and runs that stop
at a cycle's end do the same work whatever the seed; the seed sets the
order.  Slots whose inputs come from a fixed pool of instance seeds are
checked against ``golden.json``, which pins the fields the payload
contract freezes; other slots are checked against values the benchmark
computes itself.  Every call goes through the public API:
``closurelab.cli.run`` with stdout captured, or a public library function,
always looked up on its module so that traced runs see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from closurelab import cli, closure, forcing, gf2, hamming, spectral

from tracer import Patches

GOLDEN_PATH = Path(__file__).with_name("golden.json")


@dataclass
class Experiment:
    """One timed call and the check of its output.

    ``check(result, expected, outcomes)`` returns the list of problems;
    ``pin(result)``, when present, gives the fields pinned in golden.json.
    """

    kind: str
    key: str
    run: Callable[[], Any]
    check: Callable[[Any, Any, Counter], list[str]]
    expected: Any = None
    pin: Callable[[Any], dict] | None = None


def _diff(got: dict, expected: dict) -> list[str]:
    return [
        f"{field}: got {str(got.get(field))[:80]}, golden {str(value)[:80]}"
        for field, value in expected.items()
        if got.get(field) != value
    ]


def golden_check(pin, extra=None):
    """Compare the pinned fields with their golden values, then run ``extra``."""

    def check(result, expected, outcomes):
        if expected is None:
            return ["no golden value for this instance"]
        problems = _diff(pin(result), expected)
        if extra is not None and not problems:
            problems += extra(result, outcomes)
        return problems

    return check


def _fraction(value: Fraction) -> list[int]:
    return [value.numerator, value.denominator]


def _canonical_sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# CLI experiments
# ---------------------------------------------------------------------------


def run_manifest(raw: dict) -> tuple[int, str]:
    """One CLI experiment: exit code and captured standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(cli.Manifest.from_dict(raw))
    return code, buf.getvalue()


def cli_pin(fields: Callable[[dict], dict]):
    """Pinned fields of a CLI run: the exit code, plus ``fields(payload)`` on success."""

    def pin(result):
        code, text = result[0], result[1]
        if code != 0:
            return {"exit_code": code}
        return {"exit_code": code, **fields(json.loads(text)["payload"])}

    return pin


def cli_experiment(kind, key, raw, fields, golden, extra=None, run=run_manifest):
    pin = cli_pin(fields)
    return Experiment(kind, key, lambda: run(raw), golden_check(pin, extra),
                      golden.get(key), pin)


def library_experiment(kind, key, call, fields, golden, extra=None):
    return Experiment(kind, key, call, golden_check(fields, extra), golden.get(key), fields)


def _closedness_exact_fields(payload):
    report = payload["report"]
    return {
        "eta": [report["eta_num"], report["eta_den"]],
        "pair_count": report["pair_count"],
        "spectral_eta": [payload["spectral_eta_num"], payload["spectral_eta_den"]],
        "set_size": payload["set_size"],
        "generators_total": payload["generators_total"],
    }


def _closedness_sampled_fields(payload):
    report = payload["report"]
    return {"estimate": report["estimate"], "samples": report["samples"],
            "seed": report["seed"], "set_size": payload["set_size"]}


def covered(outcomes: Counter, estimate: float, radius: float, exact: Fraction) -> None:
    """Count whether a stated radius covers the exact value; never a failure."""
    outcomes["confidence.estimates"] += 1
    if abs(Fraction(estimate) - exact) <= Fraction(radius):
        outcomes["confidence.covered"] += 1


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Experiment slots, instance pools and the per-round input generator."""

    name = ""
    slots: tuple[str, ...] = ()
    pools: dict[str, range] = {}
    cycle_rounds = 1
    # a timed run lasts at least this many rounds, a whole number of cycles
    min_rounds = 1
    trace_rounds = 1

    def __init__(self, seed: int, golden: dict | None = None):
        self.seed = seed
        self.golden = load_golden() if golden is None else golden
        assert all(len(pool) == self.cycle_rounds * self.slots.count(kind)
                   for kind, pool in self.pools.items()), "pools must fill whole cycles"
        assert self.min_rounds % self.cycle_rounds == 0, "min_rounds must be whole cycles"
        self._perm = {
            kind: np.random.default_rng([seed, index]).permutation(len(pool))
            for index, (kind, pool) in enumerate(sorted(self.pools.items()))
        }
        self._patches = Patches()

    def instance(self, kind: str, round_index: int, occurrence: int) -> int:
        """Instance seed for a pooled slot, walking a seeded permutation of the pool."""
        pool = self.pools[kind]
        per_round = self.slots.count(kind)
        perm = self._perm[kind]
        return pool[int(perm[(round_index * per_round + occurrence) % len(perm)])]

    def round(self, index: int) -> list[Experiment]:
        rng = np.random.default_rng([self.seed, index, 1])
        seen: Counter = Counter()
        out = []
        for kind in self.slots:
            inst = self.instance(kind, index, seen[kind]) if kind in self.pools else None
            seen[kind] += 1
            out.append(self.build(kind, inst, rng, index))
        order = rng.permutation(len(out))
        return [out[i] for i in order]

    def warm_round(self) -> list[Experiment]:
        """The warm-up pass: every kind once, on inputs that no workload seed changes."""
        rng = np.random.default_rng(0)
        return [self.build(kind, self.pools[kind][0] if kind in self.pools else None, rng, 0)
                for kind in dict.fromkeys(self.slots)]

    def build(self, kind: str, inst: int | None, rng, index: int) -> Experiment:
        raise NotImplementedError

    def pool_experiments(self):
        """Every pooled instance once, for generating golden.json."""
        for kind, pool in sorted(self.pools.items()):
            for inst in pool:
                yield self.build(kind, inst, np.random.default_rng(inst), 0)

    def close(self) -> None:
        self._patches.undo()


class DenseSpectra(Workload):
    """Few large-n manifests: big transforms and the Python-int fallback."""

    name = "dense-spectra"
    slots = ("closedness-n20", "closedness-n16-rank-one", "spectrum-n16",
             "bogolyubov-n12", "scenarios", "mixed-energy-n18", "mixed-energy-n20")
    pools = {kind: range(100, 102) for kind in
             ("closedness-n16-rank-one", "spectrum-n16", "bogolyubov-n12", "scenarios")}
    cycle_rounds = 2
    min_rounds = 14
    trace_rounds = 3

    def __init__(self, seed, golden=None):
        super().__init__(seed, golden)
        self.mixed = {
            n: (hamming.layer_groupset(n, lo, lo + 2), hamming.standard_basis_multiset(n))
            for n, lo in ((18, 8), (20, 9))
        }

    def build(self, kind, inst, rng, index):
        g = self.golden
        if kind == "closedness-n20":
            raw = {"command": "closedness", "seed": index, "params": {
                "n": 20, "set": {"kind": "layers", "lo": 9, "hi": 11},
                "generators": {"kind": "basis"}, "mode": "exact"}}
            return cli_experiment(kind, kind, raw, _closedness_exact_fields, g)
        key = f"{kind}/{inst}"
        if kind == "closedness-n16-rank-one":
            raw = {"command": "closedness", "seed": inst, "params": {
                "n": 16, "set": {"kind": "random", "size": 1 << 15},
                "generators": {"kind": "rank-one", "dims": [4, 4]}, "mode": "exact"}}
            return cli_experiment(kind, key, raw, _closedness_exact_fields, g)
        if kind == "spectrum-n16":
            raw = {"command": "spectrum", "seed": inst, "params": {
                "n": 16, "set": {"kind": "random", "size": 1 << 15}}}
            return cli_experiment(kind, key, raw, lambda p: {
                "set_size": p["set_size"], "rows_sha256": _canonical_sha256(p["rows"])}, g)
        if kind == "bogolyubov-n12":
            raw = {"command": "bogolyubov", "seed": inst, "params": {
                "n": 12, "set": {"kind": "random", "size": 1 << 11}}}
            return cli_experiment(kind, key, raw, lambda p: {
                "codim": p["codim"], "rows": p["rows"], "verified": p["verified"],
                "density": [p["density_num"], p["density_den"]]}, g)
        if kind == "scenarios":
            raw = {"command": "scenarios", "seed": inst, "params": {}}
            return cli_experiment(kind, key, raw, lambda p: {
                "all_passed": p["all_passed"],
                "rows": [{k: row[k] for k in ("name", "params", "measured", "passed")}
                         for row in p["rows"]]}, g)
        if kind.startswith("mixed-energy-n"):
            a, b = self.mixed[int(kind.rsplit("n", 1)[1])]
            return library_experiment(kind, kind, lambda: closure.mixed_energy(a, b),
                                      lambda value: {"value": _fraction(value)}, g)
        raise KeyError(kind)

    def pool_experiments(self):
        yield from super().pool_experiments()
        for kind in ("closedness-n20", "mixed-energy-n18", "mixed-energy-n20"):
            yield self.build(kind, None, None, 0)


class SmallTransforms(Workload):
    """Many tiny identities at n <= 10, checked against the benchmark's own oracles."""

    name = "small-transforms"
    slots = ("subspace-dual",) * 6 + ("closedness-pair",) * 2 + ("triangle",) * 2
    min_rounds = 1000
    trace_rounds = 3000

    def __init__(self, seed, golden=None):
        super().__init__(seed, golden)
        self.subspaces = {n: list(gf2.all_subspaces(n)) for n in range(1, 8)}

    def build(self, kind, inst, rng, index):
        if kind == "subspace-dual":
            # n uniform first: drawing uniformly from all 32,501 subspaces would
            # give n = 7, dim 3-4 nine times in ten, one cost whose median jumps
            # between the box's fast and slow states instead of moving smoothly
            subs = self.subspaces[int(rng.integers(1, 8))]
            sub = subs[int(rng.integers(len(subs)))]
            return Experiment(kind, "", lambda: _subspace_dual(sub), _check_subspace_dual,
                              _dual_indicator(sub))
        if kind == "closedness-pair":
            n = int(rng.integers(6, 11))
            a = spectral.GroupSet.from_elements(
                n, rng.choice(1 << n, size=int(rng.integers(1, (1 << n) + 1)), replace=False))
            support = rng.choice(1 << n, size=int(rng.integers(1, 9)), replace=False)
            b = spectral.GroupMultiset.from_pairs(
                n, [(int(e), int(rng.integers(1, 4))) for e in support])
            return Experiment(kind, "", lambda: (closure.closedness_exact(a, b).eta,
                                                 spectral.spectral_closedness(a, b)),
                              _check_equal_to_expected, (_eta_oracle(a, b),) * 2)
        if kind == "triangle":
            n = 10
            a = spectral.GroupSet.from_elements(
                n, rng.choice(1 << n, size=int(rng.integers(1, 1 << n)), replace=False))
            b1, b2 = (int(v) for v in rng.integers(0, 1 << n, size=2))
            return Experiment(kind, "", lambda: closure.triangle_compose(a, b1, b2),
                              _check_equal_to_expected,
                              tuple(_deficit_oracle(a, b) for b in (b1, b2, b1 ^ b2)))
        raise KeyError(kind)


def _subspace_dual(sub):
    n = sub.ambient_dim
    spec = spectral.mu_hat(spectral.GroupMultiset.from_elements(n, sub.enumerate()))
    return spec, sub.complement()


def _dual_indicator(sub) -> np.ndarray:
    """r -> [r is orthogonal to every row of sub], by direct parity."""
    idx = np.arange(1 << sub.ambient_dim, dtype=np.int64)
    dual = np.ones(idx.size, dtype=bool)
    for row in sub.rows:
        dual &= (np.bitwise_count(idx & row) & 1) == 0
    return dual


def _check_subspace_dual(result, expected, outcomes):
    spec, dual = result
    dual_size = int(np.count_nonzero(expected))
    size = (1 << spec.n) // dual_size  # |W| |W-perp| = 2^n
    problems = []
    if spec.denominator != size:
        problems.append(f"mu_hat denominator {spec.denominator} != |W| = {size}")
    if not np.array_equal(spec.numerators, np.where(expected, size, 0)):
        problems.append("mu_hat numerators are not |W| times the dual indicator")
    if 1 << dual.dim != dual_size or not all(expected[r] for r in dual.rows):
        problems.append("complement() differs from the dual")
    return problems


def _eta_oracle(a, b) -> Fraction:
    """|{(x, e): x in A, x + e in A}| / (|A| |B|), counted with np.isin."""
    hits = sum(m * int(np.count_nonzero(np.isin(a.elements ^ e, a.elements)))
               for e, m in b.counts.items())
    return Fraction(hits, a.size * b.total)


def _deficit_oracle(a, b: int) -> Fraction:
    return 1 - Fraction(int(np.count_nonzero(np.isin(a.elements ^ b, a.elements))), a.size)


def _check_equal_to_expected(result, expected, outcomes):
    got = tuple(result)
    return [] if got == expected else [f"got {got}, expected {expected}"]


class ForcingPipeline(Workload):
    """The (4,4) matrix pipeline and its neighbours, through the CLI."""

    name = "forcing-pipeline"
    slots = ("pipeline-1/2",) * 3 + ("pipeline-3/4",) * 2 + ("lsystem", "simple-set")
    pools = {"pipeline-1/2": range(2000, 2006), "pipeline-3/4": range(2000, 2004),
             "lsystem": range(2000, 2002), "simple-set": range(2000, 2002)}
    cycle_rounds = 2
    min_rounds = 12
    trace_rounds = 3

    def __init__(self, seed, golden=None):
        super().__init__(seed, golden)
        # The CLI payload carries no witnesses; keep the last pipeline result so
        # the gate can re-check every 16-term witness against its input pairs.
        self.last_pipeline: list = []
        original = forcing.matrix_pipeline

        def capture(pairs, *args, **kwargs):
            result = original(pairs, *args, **kwargs)
            self.last_pipeline[:] = [(pairs, result)]
            return result

        self._patches.replace_function(original, capture)

    def _run_pipeline(self, raw):
        self.last_pipeline.clear()
        code, text = run_manifest(raw)
        return code, text, self.last_pipeline[:]

    def build(self, kind, inst, rng, index):
        g = self.golden
        key = f"{kind}/{inst}"
        if kind.startswith("pipeline-"):
            raw = {"command": "forcing-pipeline", "seed": inst, "params": {
                "shape": [4, 4], "delta": kind.split("-", 1)[1], "epsilon": "1/32"}}
            return cli_experiment(kind, key, raw, lambda p: {
                "verified": p["verified"], "counterexample": p["counterexample"],
                "num_centers": p["measured"]["num_centers"],
                "w1_rows": p["w1_rows"], "w2_rows": p["w2_rows"]},
                g, extra=_check_witnesses, run=self._run_pipeline)
        if kind == "lsystem":
            raw = {"command": "lsystem", "seed": inst,
                   "params": {"shape": [4, 4], "delta": "1/2"}}
            return cli_experiment(kind, key, raw, lambda p: {
                k: p[k] for k in ("verified", "root_codim", "max_codim", "declared_bound",
                                  "sumset_depth", "elements")}, g)
        if kind == "simple-set":
            raw = {"command": "simple-set", "seed": inst,
                   "params": {"shape": [2, 2, 3], "k": 1}}
            return cli_experiment(kind, key, raw, lambda p: {
                k: p[k] for k in ("size", "simplicity", "membership_check")}, g)
        raise KeyError(kind)


def rank_one_matrix(u: int, v: int, n2: int) -> int:
    """Row-major packed u (x) v: bit i*n2 + j is u_i v_j."""
    out = 0
    for i in range(u.bit_length()):
        if (u >> i) & 1:
            out |= v << (i * n2)
    return out


def _check_witnesses(result, outcomes):
    """Criterion 7's check: every witness is at most 16 input pairs summing to u (x) v."""
    code, text, captured = result
    if len(captured) != 1:
        return ["no pipeline result captured"]
    pairs, pipeline = captured[0]
    n2 = pipeline.shape.dims[1]
    allowed = {rank_one_matrix(u, v, n2) for u, v in pairs}
    witnesses = pipeline.structure.witnesses
    problems = [] if witnesses else ["no witnesses"]
    if json.loads(text)["payload"]["num_witnessed_pairs"] != len(witnesses):
        problems.append("num_witnessed_pairs differs from the witnesses returned")
    for (u, v), wit in witnesses.items():
        acc = 0
        for g in wit:
            acc ^= g
        if len(wit) > 16 or not set(wit) <= allowed or acc != rank_one_matrix(u, v, n2):
            problems.append(f"witness for ({u:#x}, {v:#x}) does not check")
            break
    return problems


class SampledEstimators(Workload):
    """Seeded Monte Carlo through the chunked samplers, at n = 12, 20, 36-64."""

    name = "sampled-estimators"
    # four closedness slots put the median inside their cluster of latencies
    # (15-30 ms), far from the next kind's (60 ms and up)
    slots = ("closedness-sampled",) * 4 + ("compatibility-cli", "concentration",
                                           "layered-n64", "compatibility-explicit")
    pools = {"closedness-sampled": range(1, 17),
             **{kind: range(1, 5) for kind in
                ("compatibility-cli", "layered-n64", "compatibility-explicit")}}
    cycle_rounds = 4  # even: the radius method alternates by round
    min_rounds = 48
    trace_rounds = 10

    LAYER_N20 = (20, 9, 11)
    LAYER_N64 = (64, 30, 33)
    EXPLICIT = (12, 5, 3, 4000)  # n, layer hi, slice weight, samples
    CUTOFF = 0.1

    def __init__(self, seed, golden=None):
        super().__init__(seed, golden)
        n, lo, hi = self.LAYER_N20
        self.exact_n20 = hamming.layered_pair_eta_exact(
            hamming.LayerSet(n, lo, hi), hamming.SliceSet(n, 1))
        self.exact_compat = {
            n: hamming.compatibility_fraction_exact(
                hamming.LayerSet.below_cutoff(n, self.CUTOFF), hamming.SliceSet(n, math.isqrt(n)))
            for n in (36, 49, 64)
        }
        n, lo, hi = self.LAYER_N64
        self.layer64 = hamming.LayerSet(n, lo, hi)
        self.slice64 = hamming.SliceSet(n, 2)
        self.exact_n64 = hamming.layered_pair_eta_exact(self.layer64, self.slice64)
        n, hi, w, _ = self.EXPLICIT
        self.layer12 = hamming.LayerSet(n, 0, hi)
        self.bprime = [x for x in range(1 << n) if x.bit_count() == w]
        self.exact_explicit = hamming.compatibility_fraction_exact(
            self.layer12, hamming.SliceSet(n, w))

    def build(self, kind, inst, rng, index):
        g = self.golden
        if kind == "closedness-sampled":
            # alternate the radius method by round; the estimate does not depend on it
            method = ("hoeffding", "chernoff")[index % 2]
            n, lo, hi = self.LAYER_N20
            raw = {"command": "closedness", "seed": inst, "params": {
                "n": n, "set": {"kind": "layers", "lo": lo, "hi": hi},
                "generators": {"kind": "basis"}, "mode": "sampled", "samples": 100000,
                "radius_method": method}}

            def extra(result, outcomes):
                report = json.loads(result[1])["payload"]["report"]
                covered(outcomes, report["estimate"], report["radius"], self.exact_n20)
                return []

            return cli_experiment(kind, f"{kind}/{inst}", raw, _closedness_sampled_fields,
                                  g, extra=extra)
        if kind == "compatibility-cli":
            raw = {"command": "counterexample", "seed": inst, "params": {
                "mode": "compatibility", "ns": [36, 49, 64], "c": self.CUTOFF,
                "samples": 1000000}}

            def extra(result, outcomes):
                for row in json.loads(result[1])["payload"]["rows"]:
                    radius = (row["ci_hi"] - row["ci_lo"]) / 2
                    covered(outcomes, row["estimate"], radius, self.exact_compat[row["n"]])
                return []

            return cli_experiment(kind, f"{kind}/{inst}", raw, lambda p: {
                "samples": p["samples"],
                "estimates": [[row["n"], row["estimate"]] for row in p["rows"]]},
                g, extra=extra)
        if kind == "concentration":
            raw = {"command": "counterexample", "seed": index, "params": {
                "mode": "concentration", "n": 100, "w": 10, "threshold": "98/100"}}
            return cli_experiment(kind, kind, raw, lambda p: {
                "count": p["count"], "rows": p["rows"]}, g)
        if kind == "layered-n64":
            def extra(report, outcomes):
                covered(outcomes, report.estimate, report.radius, self.exact_n64)
                return []

            return library_experiment(
                kind, f"{kind}/{inst}",
                lambda: hamming.layered_pair_eta_sampled(self.layer64, self.slice64, 100000, inst),
                lambda report: {"estimate": report.estimate, "samples": report.samples},
                g, extra=extra)
        if kind == "compatibility-explicit":
            samples = self.EXPLICIT[3]

            def extra(report, outcomes):
                covered(outcomes, report.estimate, report.radius, self.exact_explicit)
                return []

            return library_experiment(
                kind, f"{kind}/{inst}",
                lambda: hamming.compatibility_fraction(self.layer12, self.bprime, samples, inst),
                lambda report: {"estimate": report.estimate, "samples": report.samples},
                g, extra=extra)
        raise KeyError(kind)

    def pool_experiments(self):
        yield from super().pool_experiments()
        yield self.build("concentration", None, None, 0)
        # the chernoff radius runs on odd rounds; pin its estimates too
        for inst in self.pools["closedness-sampled"]:
            yield self.build("closedness-sampled", inst, None, 1)


WORKLOADS = {cls.name: cls for cls in (DenseSpectra, SmallTransforms, ForcingPipeline,
                                        SampledEstimators)}


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def make(name: str, seed: int, golden: dict | None = None) -> Workload:
    return WORKLOADS[name](seed, golden)
