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
import inspect
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
        params = raw.get("params") or {}
        budgets = raw.get("budgets") or {}
        output = raw.get("output")
        for key, value in (("params", params), ("budgets", budgets),
                           ("output", {} if output is None else output)):
            if not isinstance(value, dict):
                raise ManifestError(f"{key} must be a mapping")
        _handler(command, params)
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
    """Rows kept as columns: name -> 1-D int64 or fixed-width bytes (``S``)
    array, all of one length, in header order. :func:`_json_texts` and
    :func:`_csv_text` write it as the list of row dicts it stands for, an
    ``S`` item as the str of its bytes; true when it has rows."""

    def __bool__(self) -> bool:
        return len(self) > 0 and len(next(iter(self.values()))) > 0


# the bytes an S item may hold: printable ASCII, less the two that json.dumps escapes
_PLAIN = np.zeros(256, dtype=bool)
_PLAIN[0x20:0x7F] = True
_PLAIN[[ord('"'), ord("\\")]] = False
_CHUNK = 1 << 12  # rows per chunk of text: a chunk's matrix stays in a core's L2


def _cells(column: np.ndarray, csv_fields: int = 0) -> np.ndarray:
    """The text of every item of a :class:`_Table` column: a uint8 matrix,
    one row per item, whose NUL bytes are padding and no part of the text.

    An int64 is a sign byte, then its decimal digits, right-aligned.  An
    ``S`` item is its bytes (numpy pads it with trailing NULs) between two
    '"': always in JSON (``csv_fields`` 0), and in a CSV row of
    ``csv_fields`` fields only where the csv module quotes it: when it holds
    a comma, or it is empty and alone in its row.  An ``S`` byte outside
    :data:`_PLAIN`, an embedded NUL included, raises ValueError, so no item
    needs escaping and the text holds no NUL.
    """
    if column.dtype.kind == "S":
        body = column.view(np.uint8).reshape(column.size, -1)
        used = body != 0
        if not _PLAIN[body[used]].all() or (used[:, 1:] & ~used[:, :-1]).any():
            raise ValueError("S columns hold printable ASCII without quotes or backslashes")
        quote = np.full((column.size, 1), ord('"'), dtype=np.uint8)
        if csv_fields:
            quote[~(body == ord(",")).any(axis=1) & ((csv_fields > 1) | used[:, 0])] = 0
        return np.hstack((quote, body, quote))
    if column.dtype != np.int64:
        raise TypeError(f"a table column is int64 or S, not {column.dtype}")
    magnitude = np.abs(column).view(np.uint64)  # |-2^63| too, as uint64
    width = len(str(int(magnitude.max())))
    chars = np.empty((column.size, width + 1), dtype=np.uint8)
    chars[:, 0] = (column < 0) * ord("-")
    for j in range(width, 0, -1):
        quotient = magnitude // 10
        chars[:, j] = magnitude - quotient * 10 + ord("0")
        if j < width:  # a leading zero is padding
            chars[:, j] *= magnitude != 0
        magnitude = quotient
    return chars


def _rows_text(cells: list[np.ndarray], pieces: list[str], separator: str, head: str,
               tail: str) -> str:
    """``head``, the rows joined by ``separator``, then ``tail``.  Row i is
    pieces[0], row i of the first of the :func:`_cells` matrices,
    pieces[1], ..., row i of the last, pieces[-1].

    A chunk of rows is one uint8 matrix: the pieces are written into it
    once and each chunk's cells into their slots, and its text is its bytes
    without the NUL padding.  No Python object is made per row.
    """
    template, slots = b"", []
    for piece, cell in zip(pieces, cells):
        template += piece.encode()
        slots.append(slice(len(template), len(template) + cell.shape[1]))
        template += bytes(cell.shape[1])
    template += (pieces[-1] + separator).encode()
    count = cells[0].shape[0]
    chars = np.tile(np.frombuffer(template, dtype=np.uint8), (min(count, _CHUNK), 1))
    texts = [head]
    for lo in range(0, count, _CHUNK):
        rows = min(count - lo, _CHUNK)
        for slot, cell in zip(slots, cells):
            chars[:rows, slot] = cell[lo : lo + rows]
        texts.append(chars[:rows].tobytes().translate(None, b"\0").decode("ascii"))
    texts[-1] = texts[-1][: len(texts[-1]) - len(separator)]
    texts.append(tail)
    return "".join(texts)


def _json_texts(obj, depth: int = 0) -> tuple[str, str]:
    """``obj`` as ``canonical_json(obj)`` and as ``json.dumps(obj,
    sort_keys=True, indent=1)`` nested ``depth`` levels deep.

    Byte-identical to those two dumps, but built from C-encoded pieces:
    ``json.dumps`` runs its pure-Python encoder whenever it indents. A
    :class:`_Table` is written as its list of row dicts from its arrays: the
    byte matrices of its columns (:func:`_cells`) are interleaved with the
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
        cells = [_cells(obj[name]) for name in names]
        keys = [json.dumps(name) for name in names]
        return (
            _rows_text(cells, ["{" + keys[0] + ":", *("," + key + ":" for key in keys[1:]), "}"],
                       ",", "[", "]"),
            _rows_text(cells, [inner + "{" + inner + " " + keys[0] + ": ",
                               *("," + inner + " " + key + ": " for key in keys[1:]),
                               inner + "}"], ",", "[", outer + "]"),
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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _parse_fraction(value) -> Fraction:
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, (int, float)):
        return Fraction(value).limit_denominator(10**6)
    raise ManifestError(f"cannot parse fraction from {value!r}")


def _select(table: dict, keys: dict, selector, noun: str):
    """The function of ``table`` that ``keys[selector]`` names (the first when
    absent) and the other keys. Refuses an unknown name, a key that is not a
    keyword of the function and a keyword without a default that the keys
    lack: a function's keywords are the keys it reads."""
    keys = dict(keys)
    name = keys.pop(selector, next(iter(table)))
    if not isinstance(name, str) or name not in table:
        raise ManifestError(f"unknown {noun} {name!r}")
    params = inspect.signature(table[name]).parameters.values()
    names = {p.name for p in params if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)}
    foreign = set(keys) - names
    if foreign:
        raise ManifestError(f"{noun} {name!r} does not read {sorted(foreign)}")
    for p in params:
        if p.name in names and p.default is p.empty and p.name not in keys:
            raise ManifestError(f"missing parameter {p.name!r}")
    return table[name], keys


def _handler(command, params: dict):
    """The handler of ``command`` (of its mode, for a table of modes) and the
    keywords ``params`` gives it."""
    if command not in COMMANDS:
        raise ManifestError(f"unknown command {command!r}")
    handler = COMMANDS[command][0]
    if isinstance(handler, dict):
        return _select(handler, params, "mode", f"{command} mode")
    return _select({command: handler}, params, None, "command")


# ---------------------------------------------------------------------------
# set / multiset builders shared by several commands
# ---------------------------------------------------------------------------


def _middle_layers(n, rng, /) -> GroupSet:
    if n % 2 == 0:
        raise ManifestError("middle-layers needs odd n")
    return layer_groupset(n, (n - 1) // 2, (n + 1) // 2)


def _rank_one(n, rng, /, *, dims=None, nonzero=False) -> GroupMultiset:
    if dims is None:
        raise ManifestError("rank-one generators need dims (--dims or generators.dims)")
    dims = tuple(int(d) for d in dims)
    if math.prod(dims) != n:
        raise ManifestError("rank-one dims do not multiply to n")
    counter = rank_one_counter(TensorShape(dims), bool(nonzero))
    return GroupMultiset.from_pairs(n, counter.items())


def _random_multiset(n, rng, /, *, support_size=8, max_mult=3) -> GroupMultiset:
    elems = rng.choice(1 << n, size=int(support_size), replace=False)
    return GroupMultiset.from_pairs(
        n, [(int(e), int(rng.integers(1, int(max_mult) + 1))) for e in elems]
    )


# kind -> builder(n, rng, **keys), the default kind first: its keywords are
# the keys of the spec it reads besides ``kind``, and any other key is refused
_SET_KINDS = {
    "random": lambda n, rng, /, *, size=None: random_groupset(
        n, (1 << n) // 2 if size is None else int(size), rng),
    "middle-layers": _middle_layers,
    "layers": lambda n, rng, /, *, lo, hi: layer_groupset(n, int(lo), int(hi)),
    "explicit": lambda n, rng, /, *, elements: GroupSet.from_elements(
        n, [int(v, 16) for v in elements]),
}
_MULTISET_KINDS = {
    "basis": lambda n, rng, /, *, support=None: standard_basis_multiset(
        n, None if support is None else int(support)),
    "rank-one": _rank_one,
    "random": _random_multiset,
    "explicit": lambda n, rng, /, *, pairs: GroupMultiset.from_pairs(
        n, [(int(e, 16), int(m)) for e, m in pairs]),
}


def _build(n: int, spec, rng, param: str, noun: str, kinds: dict):
    """The set or multiset of ``spec`` (of the first kind when None), built by its kind."""
    spec = {} if spec is None else spec
    if not isinstance(spec, dict):
        raise ManifestError(f"{param} must be a mapping: {spec!r}")
    builder, keys = _select(kinds, spec, "kind", f"{noun} kind")
    return builder(n, rng, **keys)


def build_groupset(n: int, spec: dict | None, rng) -> GroupSet:
    return _build(n, spec, rng, "set", "set", _SET_KINDS)


def build_multiset(n: int, spec: dict | None, rng) -> GroupMultiset:
    return _build(n, spec, rng, "generators", "multiset", _MULTISET_KINDS)


def _seeded_set(seed: int, n, spec):
    """A command's group exponent, its set and the seeded rng that drew it."""
    n = int(n)
    check_group_exponent(n)  # before the set spec, which may be malformed
    rng = np.random.default_rng(seed)
    return n, build_groupset(n, spec, rng), rng


def _seeded_tuples(seed: int, shape, delta, count):
    """A forcing command's shape, its density ``delta`` (refused outside
    (0, 1]), its tuple count (default ceil(delta 2^(n_1 + ... + n_d))) and
    that many seeded random factor tuples."""
    shape = TensorShape(tuple(int(d) for d in shape))
    delta = _parse_fraction(delta)
    if not 0 < delta <= 1:
        raise ManifestError(f"delta {delta} is outside (0, 1]")
    count = math.ceil(delta * (1 << sum(shape.dims))) if count is None else int(count)
    return shape, delta, count, random_factor_tuples(shape.dims, count,
                                                     np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# command handlers: (seed, params as keywords) -> (payload dict, ok flag); a
# handler's keywords are the manifest parameters of its command, or of its
# mode for a command with a table of modes
# ---------------------------------------------------------------------------


def _closedness_exact(seed, /, *, n, set=None, generators=None):
    n, a, rng = _seeded_set(seed, n, set)
    b = build_multiset(n, generators, rng)
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


def _closedness_sampled(seed, /, *, n, set=None, generators=None, samples=10**4,
                        radius_method="hoeffding"):
    n, a, rng = _seeded_set(seed, n, set)
    b = build_multiset(n, generators, rng)
    member, sampler = groupset_oracle(a)
    report = closedness_sampled(
        member, sampler, b, int(samples), seed, radius_method=radius_method
    )
    return {"n": n, "set_size": a.size, "report": report.to_json()}, True


def cmd_spectrum(seed, /, *, n, set=None):
    n, a, _ = _seeded_set(seed, n, set)
    spec = indicator_spectrum(a)
    rows = _Table(r=to_hex_array(np.arange(1 << n), n), coefficient=spec.coeffs)
    return {"n": n, "set_size": a.size, "rows": rows}, True


def cmd_bogolyubov(seed, /, *, n, set=None):
    n, a, _ = _seeded_set(seed, n, set)
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


def cmd_forcing_pipeline(seed, /, *, shape=(4, 4), delta="1/2", epsilon="1/32",
                         rank_threshold=1, pairs=None):
    shape, delta, count, tuples = _seeded_tuples(seed, shape, delta, pairs)
    epsilon = _parse_fraction(epsilon)
    rank_threshold = int(rank_threshold)
    result = matrix_pipeline(tuples, shape, delta, epsilon, rank_threshold)
    values, freqs = np.unique(result.profile.counts, return_counts=True)
    histogram = [
        {"agreement": int(v), "arrays": int(f)} for v, f in zip(values, freqs)
    ]
    payload = {
        "shape": list(shape.dims),
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


def cmd_simple_set(seed, /, *, shape=(3, 3), k=1):
    dims = tuple(int(d) for d in shape)
    shape = TensorShape(dims)
    k = int(k)
    rng = np.random.default_rng(seed)
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


def cmd_lsystem(seed, /, *, shape=(4, 4), delta="1/2", tuples=None):
    shape, delta, count, factor_tuples = _seeded_tuples(seed, shape, delta, tuples)
    result = find_system(factor_tuples, shape, delta)
    payload = {
        "shape": list(shape.dims),
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


def _compatibility(seed, /, *, ns=(36, 49, 64), c=0.1, samples=10**5):
    c, samples = float(c), int(samples)
    rows = []
    for size in [int(v) for v in ns]:
        width = round(math.sqrt(size))  # exact on the perfect-square test grid
        layer = LayerSet.below_cutoff(size, c)
        rep = compatibility_fraction(layer, SliceSet(size, width), samples, seed)
        rows.append(
            {
                "n": size,
                "constant": c,
                "estimate": rep.estimate,
                "ci_lo": rep.estimate - rep.radius,
                "ci_hi": rep.estimate + rep.radius,
            }
        )
    return {"mode": "compatibility", "samples": samples, "rows": rows}, True


def _concentration(seed, /, *, n, w, threshold="98/100"):
    n, w = int(n), int(w)
    threshold = _parse_fraction(threshold)
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
        "mode": "concentration",
        "n": n,
        "w": w,
        "threshold": str(threshold),
        "count": res.count,
        "rows": rows,
    }
    return payload, True


def cmd_scenarios(seed, /, **sizes):
    sizes.setdefault("translate_seed", seed)
    rows = counterexample_scenarios(**sizes)
    ok = all(row.passed is not False for row in rows)
    return {"rows": [row.to_json() for row in rows], "all_passed": ok}, ok


# scenarios' sizes are the keywords of counterexample_scenarios, read through __wrapped__
cmd_scenarios.__wrapped__ = counterexample_scenarios

# mode -> handler, the default mode first
_CLOSEDNESS_MODES = {"exact": _closedness_exact, "sampled": _closedness_sampled}
_COUNTEREXAMPLE_MODES = {"compatibility": _compatibility, "concentration": _concentration}

# flag -> manifest parameter (``set.kind`` is key ``kind`` of ``params["set"]``)
# -> argparse keywords; the flags given for a mapping replace it as a whole
_N = ("--n", "n", {"type": int})
_SAMPLES = ("--samples", "samples", {"type": int})
_DELTA = ("--delta", "delta", {})
_SHAPE = ("--shape", "shape", {"type": int, "nargs": "+"})
_SET_SIZE = ("--set-size", "set.size", {"type": int})
_SET_FLAGS = (
    ("--set-kind", "set.kind", {"choices": ("middle-layers", "layers", "random")}),
    ("--lo", "set.lo", {"type": int}),
    ("--hi", "set.hi", {"type": int}),
    _SET_SIZE,
)

# command -> (handler or table of modes, help, flags), in the order of
# ``closurelab --help``
COMMANDS = {
    "closedness": (_CLOSEDNESS_MODES, "exact or sampled (B,eta)-closedness", (
        _N, *_SET_FLAGS,
        ("--generators", "generators.kind", {"choices": ("basis", "rank-one", "random")}),
        ("--dims", "generators.dims",
         {"type": int, "nargs": "+", "help": "rank-one factor dimensions"}),
        ("--mode", "mode", {"choices": tuple(_CLOSEDNESS_MODES)}),
        _SAMPLES,
    )),
    "spectrum": (cmd_spectrum, "exact integer Walsh spectrum of a set", (_N, *_SET_FLAGS)),
    "bogolyubov": (cmd_bogolyubov, "extract a verified subspace of 2S-2S", (_N, _SET_SIZE)),
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
    "counterexample": (_COUNTEREXAMPLE_MODES, "layer compatibility / concentration", (
        ("--mode", "mode", {"choices": tuple(_COUNTEREXAMPLE_MODES)}),
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
        csv.writer(buf, lineterminator="\r\n").writerow(rows)
        if rows:
            fields = len(rows)
            cells = [_cells(column, fields) for column in rows.values()]
            buf.write(_rows_text(cells, ["", *[","] * (fields - 1), "\r\n"], "", "", ""))
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
    start = time.monotonic()
    try:
        handler, params = _handler(manifest.command, manifest.params)
        with using(manifest.budget()):
            payload, ok = handler(manifest.seed, **params)
    except BudgetExceeded as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 3
    except (VerificationFailure, DensityTooLow) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
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
    """The manifest of ``--manifest`` (or an empty one), its ``params``
    overridden by each flag given before :meth:`Manifest.from_dict` checks them."""
    raw: dict = {"command": args.command}
    if args.manifest:
        with open(args.manifest) as fh:
            raw = json.load(fh)
    if isinstance(raw, dict):  # from_dict refuses anything else
        if raw.get("command") not in (None, args.command):
            raise ManifestError(f"manifest command {raw.get('command')!r} "
                                f"does not match {args.command!r}")
        raw["command"] = args.command
        given: dict = {}
        for flag, param, _ in COMMANDS[args.command][2]:
            value = getattr(args, flag[2:].replace("-", "_"))
            if value is not None:
                key, _, inner = param.partition(".")
                if inner:
                    given.setdefault(key, {})[inner] = value
                else:
                    given[key] = value
        params = raw.get("params") or {}
        if isinstance(params, dict):  # from_dict refuses anything else
            raw["params"] = {**params, **given}
    manifest = Manifest.from_dict(raw)
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
