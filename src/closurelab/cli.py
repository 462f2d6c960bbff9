"""Command-line harness: manifest-driven experiments with stable outputs.

Every run echoes its manifest into the hashed payload; version, manifest
hash, payload hash and wall-clock metadata live outside it, so payloads
are byte-identical across reruns of the same manifest and seed.

Exit codes: 0 success, 1 validation or I/O error, 2 verification failure,
3 budget refusal.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import __version__
from .budgets import (
    Budget,
    BudgetExceeded,
    ClosureLabError,
    DensityTooLow,
    DimensionMismatch,
    VerificationFailure,
    check_group_exponent,
    using,
)
from .closure import (
    closedness_exact,
    closedness_sampled,
    groupset_oracle,
    triangle_compose,
)
from .forcing import (
    find_system,
    matrix_pipeline,
    random_factor_tuples,
)
from .gf2 import random_subspace, to_hex_array
from .hamming import (
    LayerSet,
    SliceSet,
    compatibility_fraction,
    counterexample_scenarios,
    fourier_concentration,
    layer_groupset,
    slice_mu_hat,
    standard_basis_multiset,
)
from .spectral import (
    GroupMultiset,
    GroupSet,
    bogolyubov,
    indicator_spectrum,
    mu_hat,
    random_groupset,
    spectral_closedness,
    wht,
)
from .tensor import SimpleSet, Tensor, TensorShape, axis_subsets, rank_one_counter

_BUDGET_KEYS = {f.name for f in fields(Budget)}
_OUTPUT_KEYS = {"path", "format"}
_MANIFEST_KEYS = {"command", "params", "seed", "budgets", "output"}

# simple-set checks every tensor up to this many cells, in one array pass
# (membership_check is null above)
MEMBERSHIP_CHECK_CELLS = 16


class ManifestError(ClosureLabError):
    pass


@dataclass
class Manifest:
    command: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    budgets: dict = field(default_factory=dict)
    output: dict | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "Manifest":
        if not isinstance(raw, dict):
            raise ManifestError("a manifest must be a JSON object")
        unknown = set(raw) - _MANIFEST_KEYS
        if unknown:
            raise ManifestError(f"unknown manifest keys: {sorted(unknown)}")
        command = raw.get("command")
        if command not in COMMANDS:
            raise ManifestError(f"unknown command {command!r}")
        params = raw.get("params") or {}
        budgets = raw.get("budgets") or {}
        output = raw.get("output")
        for key, value in (("params", params), ("budgets", budgets),
                           ("output", {} if output is None else output)):
            if not isinstance(value, dict):
                raise ManifestError(f"{key} must be a mapping")
        if set(budgets) - _BUDGET_KEYS:
            raise ManifestError(
                f"unknown budget keys: {sorted(set(budgets) - _BUDGET_KEYS)}"
            )
        if output is not None and set(output) - _OUTPUT_KEYS:
            raise ManifestError(
                f"unknown output keys: {sorted(set(output) - _OUTPUT_KEYS)}"
            )
        try:
            seed = int(raw.get("seed", 0))
        except (TypeError, ValueError):
            raise ManifestError(f"seed must be an integer: {raw['seed']!r}") from None
        manifest = cls(command, params, seed, budgets, output)
        try:
            manifest.budget()
        except (TypeError, ValueError):
            raise ManifestError(f"budget values must be integers: {budgets}") from None
        return manifest

    def budget(self) -> Budget:
        return Budget(**{key: int(value) for key, value in self.budgets.items()})

    def to_dict(self) -> dict:
        out = {
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "budgets": self.budgets,
        }
        if self.output is not None:
            out["output"] = self.output
        return out


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


_SCALARS = frozenset((str, int, float, bool, type(None)))
# item separator of a C-encoded dump of a flat list; json escapes it inside
# strings, so in its output it marks separators only
_SEPARATORS = ("\x00", ":")


class _Table(dict):
    """Rows kept as columns: name -> list of JSON scalars, all lists of one
    length, in header order. :func:`_json_texts` and :func:`_csv_text` write
    it as the list of row dicts it stands for; true when it has rows."""

    def __bool__(self) -> bool:
        return any(self.values())


def _json_texts(obj, depth: int = 0) -> tuple[str, str]:
    """``obj`` as ``canonical_json(obj)`` and as ``json.dumps(obj,
    sort_keys=True, indent=1)`` nested ``depth`` levels deep.

    Byte-identical to those two dumps, but built from C-encoded pieces:
    ``json.dumps`` runs its pure-Python encoder whenever it indents. A
    :class:`_Table` is written as its list of row dicts: each column is one C
    dump split at a sentinel separator, and its items are interleaved with the
    constant key pieces, in sorted key order. A scalar is one C dump, the same
    in both texts. Dicts with str keys are walked in sorted key order, and a
    non-empty list of scalars is one C dump with sentinel separators.
    Everything else (empty containers, dicts with other keys) goes to
    ``json.dumps`` whole.
    """
    kind = type(obj)
    if kind in _SCALARS:
        text = json.dumps(obj)
        return text, text
    outer = "\n" + " " * depth
    inner = outer + " "
    if kind is _Table:
        if not obj:
            return "[]", "[]"
        names = sorted(obj)
        items = [json.dumps(obj[name], separators=_SEPARATORS)[1:-1].split("\x00")
                 for name in names]
        keys = [json.dumps(name) for name in names]
        return (
            _rows_text(items, [key + ":" for key in keys], "{", "}", "]"),
            _rows_text(items, [inner + " " + key + ": " for key in keys],
                       inner + "{", inner + "}", outer + "]"),
        )
    if kind is dict and obj and set(map(type, obj)) == {str}:
        return _object_texts(
            [(key, _json_texts(obj[key], depth + 1)) for key in sorted(obj)], depth
        )
    if (kind is list or kind is tuple) and obj:
        if set(map(type, obj)) <= _SCALARS:
            body = json.dumps(obj, separators=_SEPARATORS)[1:-1]
            return (
                "[" + body.replace("\x00", ",") + "]",
                "[" + inner + body.replace("\x00", "," + inner) + outer + "]",
            )
        parts = [_json_texts(item, depth + 1) for item in obj]
        return (
            "[" + ",".join(c for c, _ in parts) + "]",
            "[" + inner + ("," + inner).join(i for _, i in parts) + outer + "]",
        )
    return (
        canonical_json(obj),
        json.dumps(obj, sort_keys=True, indent=1).replace("\n", outer),
    )


def _object_texts(items: list[tuple[str, tuple[str, str]]], depth: int) -> tuple[str, str]:
    """Both texts of a non-empty dict from its (key, texts of value) items, in order."""
    inner = "\n" + " " * (depth + 1)
    canon, indented = ["{"], ["{"]
    for key, (value_canon, value_indented) in items:
        name = json.dumps(key)
        canon += (name, ":", value_canon, ",")
        indented += (inner, name, ": ", value_indented, ",")
    canon[-1] = "}"
    indented[-1] = inner[:-1] + "}"
    return "".join(canon), "".join(indented)


def _rows_text(items: list[list[str]], keys: list[str], open_row: str, close_row: str,
               end: str) -> str:
    """One JSON list of rows: row j holds item j of every column, each item
    after its key piece, every row between ``open_row`` and ``close_row``."""
    count, width = len(items[0]), 2 * len(items)
    parts = [""] * (count * width + 1)
    parts[::width] = [close_row + "," + open_row + keys[0]] * count + [close_row + end]
    parts[0] = "[" + open_row + keys[0]
    for j, column in enumerate(items):
        if j:
            parts[2 * j::width] = ["," + keys[j]] * count
        parts[2 * j + 1::width] = column
    return "".join(parts)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _parse_fraction(value, default: Fraction) -> Fraction:
    if value is None:
        return default
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, (int, float)):
        return Fraction(value).limit_denominator(10**6)
    raise ManifestError(f"cannot parse fraction from {value!r}")


def _delta(p: dict) -> Fraction:
    """The density ``delta`` of a forcing manifest, refused outside (0, 1]."""
    delta = _parse_fraction(p.get("delta"), Fraction(1, 2))
    if not 0 < delta <= 1:
        raise ManifestError(f"delta {delta} is outside (0, 1]")
    return delta


# ---------------------------------------------------------------------------
# set / multiset builders shared by several commands
# ---------------------------------------------------------------------------


# kind -> the keys it reads besides ``kind``; any other key is refused
_SET_KEYS = {"middle-layers": (), "layers": ("lo", "hi"), "random": ("size",),
             "explicit": ("elements",)}
_MULTISET_KEYS = {"basis": ("support",), "rank-one": ("dims", "nonzero"),
                  "random": ("support_size", "max_mult"), "explicit": ("pairs",)}


def _kind(spec, param: str, noun: str, keys: dict, default: str) -> str:
    """The kind of a set or generator spec whose other keys that kind reads."""
    if not isinstance(spec, dict):
        raise ManifestError(f"{param} must be a mapping: {spec!r}")
    kind = spec.get("kind", default)
    if not isinstance(kind, str) or kind not in keys:
        raise ManifestError(f"unknown {noun} kind {kind!r}")
    foreign = set(spec) - {"kind", *keys[kind]}
    if foreign:
        raise ManifestError(f"{noun} kind {kind!r} does not read {sorted(foreign)}")
    return kind


def build_groupset(n: int, spec: dict, rng) -> GroupSet:
    kind = _kind(spec, "set", "set", _SET_KEYS, "random")
    if kind == "middle-layers":
        if n % 2 == 0:
            raise ManifestError("middle-layers needs odd n")
        half = (n - 1) // 2
        return layer_groupset(n, half, half + 1)
    if kind == "layers":
        return layer_groupset(n, int(spec["lo"]), int(spec["hi"]))
    if kind == "random":
        size = int(spec.get("size", (1 << n) // 2))
        return random_groupset(n, size, rng)
    return GroupSet.from_elements(n, [int(v, 16) for v in spec["elements"]])


def build_multiset(n: int, spec: dict, rng) -> GroupMultiset:
    kind = _kind(spec, "generators", "multiset", _MULTISET_KEYS, "basis")
    if kind == "basis":
        support = spec.get("support")
        return standard_basis_multiset(n, None if support is None else int(support))
    if kind == "rank-one":
        if "dims" not in spec:
            raise ManifestError("rank-one generators need dims (--dims or generators.dims)")
        dims = tuple(int(d) for d in spec["dims"])
        if math.prod(dims) != n:
            raise ManifestError("rank-one dims do not multiply to n")
        counter = rank_one_counter(TensorShape(dims), bool(spec.get("nonzero", False)))
        return GroupMultiset.from_counter(n, counter)
    if kind == "random":
        size = int(spec.get("support_size", 8))
        max_mult = int(spec.get("max_mult", 3))
        elems = rng.choice(1 << n, size=size, replace=False)
        return GroupMultiset.from_pairs(
            n, [(int(e), int(rng.integers(1, max_mult + 1))) for e in elems]
        )
    return GroupMultiset.from_pairs(n, [(int(e, 16), int(m)) for e, m in spec["pairs"]])


# ---------------------------------------------------------------------------
# command handlers: manifest -> (payload dict, ok flag)
# ---------------------------------------------------------------------------


def cmd_closedness(manifest: Manifest):
    p = manifest.params
    n = int(p["n"])
    check_group_exponent(n)  # before the set spec, which may be malformed
    rng = np.random.default_rng(manifest.seed)
    a = build_groupset(n, p.get("set", {}), rng)
    b = build_multiset(n, p.get("generators", {}), rng)
    mode = p.get("mode", "exact")
    if mode == "exact":
        report = closedness_exact(a, b)
        spectral = spectral_closedness(a, b)
        payload = {
            "n": n,
            "set_size": a.size,
            "generators_total": b.total,
            "report": report.to_json(),
            "spectral_eta_num": spectral.numerator,
            "spectral_eta_den": spectral.denominator,
        }
        return payload, report.eta == spectral
    if mode == "sampled":
        samples = int(p.get("samples", 10**4))
        member, sampler = groupset_oracle(a)
        report = closedness_sampled(
            member, sampler, b, samples, manifest.seed,
            radius_method=p.get("radius_method", "hoeffding"),
        )
        return {"n": n, "set_size": a.size, "report": report.to_json()}, True
    raise ManifestError(f"unknown closedness mode {mode!r}")


def cmd_spectrum(manifest: Manifest):
    p = manifest.params
    n = int(p["n"])
    check_group_exponent(n)  # before the set spec, which may be malformed
    rng = np.random.default_rng(manifest.seed)
    a = build_groupset(n, p.get("set", {}), rng)
    spec = indicator_spectrum(a)
    rows = _Table(r=to_hex_array(np.arange(1 << n), n), coefficient=spec.coeffs.tolist())
    return {"n": n, "set_size": a.size, "rows": rows}, True


def cmd_bogolyubov(manifest: Manifest):
    p = manifest.params
    n = int(p["n"])
    check_group_exponent(n)  # before the set spec, which may be malformed
    rng = np.random.default_rng(manifest.seed)
    a = build_groupset(n, p.get("set", {"kind": "random"}), rng)
    space = bogolyubov(a)  # verified internally; failure raises
    payload = {
        "n": n,
        "set_size": a.size,
        "density_num": a.density.numerator,
        "density_den": a.density.denominator,
        "codim": space.codim,
        "rows": [{"basis_row": h} for h in space.to_rows_hex()],
        "verified": True,
    }
    return payload, True


def cmd_forcing_pipeline(manifest: Manifest):
    p = manifest.params
    dims = tuple(int(d) for d in p.get("shape", (4, 4)))
    shape = TensorShape(dims)
    delta = _delta(p)
    epsilon = _parse_fraction(p.get("epsilon"), Fraction(1, 32))
    rank_threshold = int(p.get("rank_threshold", 1))
    rng = np.random.default_rng(manifest.seed)
    count = int(p.get("pairs", math.ceil(delta * (1 << sum(dims)))))
    pairs = random_factor_tuples(dims, count, rng)
    result = matrix_pipeline(pairs, shape, delta, epsilon, rank_threshold)
    values, freqs = np.unique(result.profile.counts, return_counts=True)
    histogram = [
        {"agreement": int(v), "arrays": int(f)} for v, f in zip(values, freqs)
    ]
    payload = {
        "shape": list(dims),
        "delta": str(delta),
        "epsilon": str(epsilon),
        "rank_threshold": rank_threshold,
        "pairs": count,
        "verified": result.verified,
        "counterexample": result.counterexample,
        "measured": result.measured,
        "w1_rows": result.w1.to_rows_hex(),
        "w2_rows": result.w2.to_rows_hex(),
        "num_witnessed_pairs": len(result.structure.witnesses),
        "rows": histogram,
    }
    return payload, result.verified


def cmd_simple_set(manifest: Manifest):
    p = manifest.params
    dims = tuple(int(d) for d in p.get("shape", (3, 3)))
    shape = TensorShape(dims)
    k = int(p.get("k", 1))
    rng = np.random.default_rng(manifest.seed)
    spaces = {}
    for axes in axis_subsets(shape.d):
        amb = math.prod(dims[a] for a in axes)
        codim = int(rng.integers(0, min(k, amb) + 1))
        spaces[axes] = random_subspace(amb, amb - codim, rng)
    translate = Tensor(shape, int(rng.integers(0, 1 << shape.total)))
    simple = SimpleSet(shape, translate, spaces)
    size = simple.size()
    ok = None  # not run: too many cells to check every tensor
    if shape.total <= MEMBERSHIP_CHECK_CELLS:
        points = np.arange(1 << shape.total, dtype=np.uint64)
        ok = int(np.count_nonzero(simple.members(points))) == size
    payload = {
        "shape": list(dims),
        "k": k,
        "simplicity": simple.simplicity,
        "size": size,
        "membership_check": ok,
        "definition": simple.to_json(),
    }
    return payload, ok is not False


def cmd_lsystem(manifest: Manifest):
    p = manifest.params
    dims = tuple(int(d) for d in p.get("shape", (4, 4)))
    shape = TensorShape(dims)
    delta = _delta(p)
    rng = np.random.default_rng(manifest.seed)
    count = int(p.get("tuples", math.ceil(delta * (1 << sum(dims)))))
    tuples = random_factor_tuples(dims, count, rng)
    result = find_system(tuples, shape, delta)
    payload = {
        "shape": list(dims),
        "delta": str(delta),
        "tuples": count,
        "root_codim": result.system.root.codim,
        "max_codim": result.system.max_codim(),
        "declared_bound": result.system.bound,
        "sumset_depth": result.sumset_depth,
        "elements": sum(result.elements.values()),
        "verified": True,  # find_system raises on an element without a witness
    }
    return payload, True


def cmd_counterexample(manifest: Manifest):
    p = manifest.params
    mode = p.get("mode", "compatibility")
    if mode == "compatibility":
        ns = [int(v) for v in p.get("ns", (36, 49, 64))]
        c = float(p.get("c", 0.1))
        samples = int(p.get("samples", 10**5))
        rows = []
        for n in ns:
            w = round(math.sqrt(n))  # exact on the perfect-square test grid
            layer = LayerSet.below_cutoff(n, c)
            rep = compatibility_fraction(layer, SliceSet(n, w), samples, manifest.seed)
            rows.append(
                {
                    "n": n,
                    "constant": c,
                    "estimate": rep.estimate,
                    "ci_lo": rep.estimate - rep.radius,
                    "ci_hi": rep.estimate + rep.radius,
                }
            )
        return {"mode": mode, "samples": samples, "rows": rows}, True
    if mode == "concentration":
        n = int(p["n"])
        w = int(p["w"])
        threshold = _parse_fraction(p.get("threshold"), Fraction(98, 100))
        res = fourier_concentration(SliceSet(n, w), threshold)
        rows = []
        for uw in res.members:
            value = slice_mu_hat(n, w, uw)
            rows.append(
                {
                    "u_weight": uw,
                    "mu_hat_num": value.numerator,
                    "mu_hat_den": value.denominator,
                    "multiplicity": math.comb(n, uw),
                }
            )
        payload = {
            "mode": mode,
            "n": n,
            "w": w,
            "threshold": str(threshold),
            "count": res.count,
            "rows": rows,
        }
        return payload, True
    raise ManifestError(f"unknown counterexample mode {mode!r}")


def cmd_scenarios(manifest: Manifest):
    p = manifest.params
    rows = counterexample_scenarios(
        two_layer_ns=tuple(int(v) for v in p.get("two_layer_ns", (5, 7, 9, 11))),
        third_n=int(p.get("third_n", 15)),
        translate_n=int(p.get("translate_n", 12)),
        translate_seed=int(p.get("translate_seed", manifest.seed or 7)),
        window_n=int(p.get("window_n", 17)),
        window_m=int(p.get("window_m", 13)),
    )
    ok = all(row.passed is not False for row in rows)
    return {"rows": [row.to_json() for row in rows], "all_passed": ok}, ok


def _random_set(size: str) -> dict:
    """bogolyubov's ``--set-size``: a random set of that size."""
    return {"kind": "random", "size": int(size)}


_random_set.__name__ = "int"  # argparse names the type in "invalid int value"

# flag -> manifest parameter (``set.kind`` is key ``kind`` of ``params["set"]``)
# -> argparse keywords; the flags given for a mapping replace it as a whole
_N = ("--n", "n", {"type": int})
_SAMPLES = ("--samples", "samples", {"type": int})
_DELTA = ("--delta", "delta", {})
_SHAPE = ("--shape", "shape", {"type": int, "nargs": "+"})
_SET_FLAGS = (
    ("--set-kind", "set.kind", {"choices": ("middle-layers", "layers", "random")}),
    ("--lo", "set.lo", {"type": int}),
    ("--hi", "set.hi", {"type": int}),
    ("--set-size", "set.size", {"type": int}),
)

# command -> (handler, help, flags), in the order of ``closurelab --help``
COMMANDS = {
    "closedness": (cmd_closedness, "exact or sampled (B,eta)-closedness", (
        _N, *_SET_FLAGS,
        ("--generators", "generators.kind", {"choices": ("basis", "rank-one", "random")}),
        ("--dims", "generators.dims",
         {"type": int, "nargs": "+", "help": "rank-one factor dimensions"}),
        ("--mode", "mode", {"choices": ("exact", "sampled")}),
        _SAMPLES,
    )),
    "spectrum": (cmd_spectrum, "exact integer Walsh spectrum of a set", (_N, *_SET_FLAGS)),
    "bogolyubov": (cmd_bogolyubov, "extract a verified subspace of 2S-2S", (
        _N, ("--set-size", "set", {"type": _random_set}),
    )),
    "forcing-pipeline": (cmd_forcing_pipeline, "matrix-case pipeline experiment", (
        ("--shape", "shape", {"type": int, "nargs": 2}),
        _DELTA,
        ("--epsilon", "epsilon", {}),
        ("--rank-threshold", "rank_threshold", {"type": int}),
    )),
    "simple-set": (cmd_simple_set, "random k-simple set, size and checks", (
        _SHAPE, ("--k", "k", {"type": int}),
    )),
    "lsystem": (cmd_lsystem, "nested-subspace system from dense tuples", (_SHAPE, _DELTA)),
    "counterexample": (cmd_counterexample, "layer compatibility / concentration", (
        ("--mode", "mode", {"choices": ("compatibility", "concentration")}),
        ("--ns", "ns", {"type": int, "nargs": "+"}),
        ("--c", "c", {"type": float, "help":
                      "cutoff constant c of the layer set {|u| <= n/2 - c*n^(3/4)} "
                      "(default 0.1). The fraction falls to 0 as n grows only above "
                      "c* = Phi^-1(2/3)/2 ~ 0.2154; the default lies below c*, where "
                      "it tends to 1"}),
        _SAMPLES, _N,
        ("--w", "w", {"type": int}),
        ("--threshold", "threshold", {}),
    )),
    "scenarios": (cmd_scenarios, "worked-example closedness table", ()),
}


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def selftest(seed: int = 0) -> dict:
    """Exact-identity suite at n <= 10; every check must pass."""
    rng = np.random.default_rng(seed)
    checks = []

    def record(name, fn):
        try:
            ok, detail = fn()
        except ClosureLabError as exc:
            ok, detail = False, str(exc)
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def check_parseval_and_involution():
        for n in range(1, 9):
            f = rng.integers(-4, 5, size=1 << n).astype(np.int64)
            spec = wht(f.tolist())  # Parseval asserted inside
            back = wht(spec.coeffs.tolist())
            if not np.array_equal(back.coeffs, (1 << n) * f):
                return False, f"involution failed at n={n}"
        return True, "parseval + involution, n <= 8"

    def check_subspace_measure():
        for _ in range(20):
            n = int(rng.integers(1, 9))
            w = random_subspace(n, int(rng.integers(0, n + 1)), rng)
            spec = mu_hat(GroupMultiset.from_elements(n, w.enumerate()))
            dual = w.complement()
            for r in range(1 << n):
                expect = 1 if dual.contains(r) else 0
                if spec.value(r) != expect:
                    return False, f"mu_hat mismatch at n={n}, r={r}"
        return True, "mu_hat of 20 random subspaces"

    def check_spectral_equals_counting():
        for _ in range(20):
            n = int(rng.integers(2, 11))
            a = random_groupset(n, int(rng.integers(1, (1 << n) + 1)), rng)
            size = min(6, 1 << n)
            elems = rng.choice(1 << n, size=size, replace=False)
            b = GroupMultiset.from_pairs(
                n, [(int(e), int(rng.integers(1, 4))) for e in elems]
            )
            if closedness_exact(a, b).eta != spectral_closedness(a, b):
                return False, f"closedness mismatch at n={n}"
        return True, "spectral = combinatorial on 20 instances"

    def check_triangle():
        for _ in range(30):
            n = 10
            a = random_groupset(n, int(rng.integers(1, 1 << n)), rng)
            triangle_compose(
                a, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n))
            )  # raises on violation
        return True, "triangle deficits on 30 triples"

    record("parseval_involution", check_parseval_and_involution)
    record("subspace_measure", check_subspace_measure)
    record("spectral_equals_counting", check_spectral_equals_counting)
    record("triangle_deficits", check_triangle)
    return {
        "seed": seed,
        "checks": checks,
        "all_ok": all(c["ok"] for c in checks),
    }


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".closurelab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(rows: list[dict] | _Table) -> str:
    buf = io.StringIO()
    if type(rows) is _Table:
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(rows)
        writer.writerows(zip(*rows.values()))
    else:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\r\n")
        writer.writeheader()
        writer.writerows(rows)
    return buf.getvalue()


def emit(manifest: Manifest, payload: dict, elapsed: float) -> str:
    payload = dict(payload)
    echoed = manifest.to_dict()
    echoed.pop("output", None)  # destination is not an experiment input
    payload["manifest"] = echoed
    canon, indented = _json_texts(payload, 1)
    meta = {
        "tool": "closurelab",
        "version": __version__,
        "manifest_hash": _sha256(canonical_json(manifest.to_dict())),
        "payload_hash": _sha256(canon),
        "wall_clock_utc": datetime.now(timezone.utc).isoformat(),
        "elapsed_s": round(elapsed, 6),
    }
    out_format = (manifest.output or {}).get("format", "json")
    out_path = (manifest.output or {}).get("path")
    if out_format == "json":
        text = _object_texts(
            [("meta", _json_texts(meta, 1)), ("payload", (canon, indented))], 0
        )[1]
        if out_path:
            _atomic_write(out_path, text + "\n")
        return text
    if out_format == "csv":
        rows = payload.get("rows")
        if not rows:
            raise ManifestError("csv output needs a command that produces rows")
        text = _csv_text(rows)
        if out_path:
            _atomic_write(out_path, text)
            sidecar = {"meta": meta, "payload_sans_rows": {
                k: v for k, v in payload.items() if k != "rows"
            }}
            _atomic_write(out_path + ".meta.json", _json_texts(sidecar)[1] + "\n")
        return text
    raise ManifestError(f"unknown output format {out_format!r}")


def run(manifest: Manifest, quiet: bool = False) -> int:
    """Dispatch one experiment; returns the process exit code."""
    if manifest.command not in COMMANDS:
        print(f"error: unknown command {manifest.command!r}", file=sys.stderr)
        return 1
    handler = COMMANDS[manifest.command][0]
    start = time.monotonic()
    try:
        with using(manifest.budget()):
            payload, ok = handler(manifest)
    except BudgetExceeded as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 3
    except (VerificationFailure, DensityTooLow) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: missing parameter {exc.args[0]!r}", file=sys.stderr)
        return 1
    except (ManifestError, DimensionMismatch, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        text = emit(manifest, payload, time.monotonic() - start)
    except (OSError, ManifestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not quiet and not (manifest.output or {}).get("path"):
        print(text)
    elif not quiet:
        print(f"wrote {(manifest.output or {}).get('path')}", file=sys.stderr)
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _collect(args) -> Manifest:
    """The manifest of ``--manifest`` (or an empty one), overridden by each flag given."""
    base: dict = {"command": args.command}
    if args.manifest:
        with open(args.manifest) as fh:
            base = json.load(fh)
        if isinstance(base, dict):
            if base.get("command") not in (None, args.command):
                raise ManifestError(f"manifest command {base.get('command')!r} "
                                    f"does not match {args.command!r}")
            base["command"] = args.command
    manifest = Manifest.from_dict(base)
    given: dict = {}
    for flag, param, _ in COMMANDS[args.command][2]:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            key, _, inner = param.partition(".")
            if inner:
                given.setdefault(key, {})[inner] = value
            else:
                given[key] = value
    manifest.params.update(given)
    if args.seed is not None:
        manifest.seed = args.seed
    if args.out or args.format:
        out = dict(manifest.output or {})
        if args.out:
            out["path"] = args.out
        if args.format:
            out["format"] = args.format
        manifest.output = out
    return manifest


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="closurelab",
        description="Desk-scale closedness, spectra and forcing experiments "
        "over GF(2) tensor spaces.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        sub.add_argument("--manifest", help="JSON manifest path (flags override)")
        sub.add_argument("--seed", type=int, default=None)
        sub.add_argument("--out", help="output path")
        sub.add_argument("--format", choices=("json", "csv"), default=None)
        for flag, _, keywords in flags:
            sub.add_argument(flag, **keywords)
    sub = subs.add_parser("selftest", help="exact-identity self test")
    sub.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "selftest":
        report = selftest(args.seed)
        print(_json_texts(report)[1])
        return 0 if report["all_ok"] else 2
    try:
        manifest = _collect(args)
    except (ManifestError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(manifest)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
