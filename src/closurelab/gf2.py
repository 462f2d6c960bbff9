"""Bit-packed linear algebra over GF(2).

Vectors are plain Python ints: bit k of the int is coordinate k of the
vector, so equality is bitwise and arbitrary lengths come for free.  The
ambient length travels alongside as an explicit argument or as the
``ambient_dim`` of a :class:`Subspace`.

Serialization: a vector of length n becomes ceil(n/4) lowercase hex digits
with the most significant coordinate last (i.e. standard hex of the int,
zero-padded, then reversed).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from .budgets import BudgetExceeded, DimensionMismatch, check_enumeration


def to_hex(v: int, length: int) -> str:
    """Lowercase hex, most significant coordinate last."""
    if v < 0 or v >> length:
        raise ValueError(f"vector {v:#x} does not fit in {length} coordinates")
    digits = (length + 3) // 4
    return format(v, "x").zfill(digits)[::-1]


_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def to_hex_array(values: np.ndarray, length: int) -> np.ndarray:
    """:func:`to_hex` of every entry of a 1-d integer array, length <= 63, as
    one fixed-width bytes (``S``) array."""
    values = np.asarray(values, dtype=np.int64)
    if values.size and (values.min() < 0 or values.max() >> length):
        raise ValueError(f"vectors do not fit in {length} coordinates")
    digits = max((length + 3) // 4, 1)
    nibbles = (values[:, None] >> (4 * np.arange(digits))) & 15
    return _HEX_DIGITS[nibbles].view(f"S{digits}").ravel()


def from_hex(s: str, length: int) -> int:
    v = int(s[::-1] or "0", 16)
    if v >> length:
        raise ValueError(f"hex {s!r} does not fit in {length} coordinates")
    return v


def orthogonal_to_all(
    values, masks: Iterable[int], length: int, translate: int = 0
) -> np.ndarray:
    """Whether x + translate is orthogonal to every z in ``masks``, for each x in ``values``.

    One parity pass over the whole array per mask.  Vectors of ``length``
    coordinates are packed into uint64, so a length above 64 is refused.
    """
    if length > 64:
        raise BudgetExceeded(f"{length} coordinates exceed a 64-bit packed vector")
    xs = np.asarray(values, dtype=np.uint64) ^ np.uint64(translate)
    inside = np.ones(xs.shape, dtype=bool)
    for z in masks:
        inside &= np.bitwise_count(xs & np.uint64(z)) % 2 == 0
    return inside


def _pivot(v: int) -> int:
    """Index of the lowest set bit (leading coordinate)."""
    return (v & -v).bit_length() - 1


@dataclass(frozen=True)
class Subspace:
    """A subspace of F2^n held as a reduced row-echelon basis.

    Rows are sorted by pivot index and each pivot column is zero in every
    other row, so two equal subspaces have identical representations.
    Use :func:`rref` (or the classmethods) to construct one.
    """

    ambient_dim: int
    rows: tuple[int, ...]
    pivots: tuple[int, ...]

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, tuple(1 << i for i in range(n)), tuple(range(n)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def codim(self) -> int:
        return self.ambient_dim - len(self.rows)

    def reduce(self, v: int) -> int:
        """Remainder of v after elimination against the basis."""
        for row, p in zip(self.rows, self.pivots):
            if (v >> p) & 1:
                v ^= row
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def contains_array(self, values) -> np.ndarray:
        """:meth:`contains` of every packed vector in ``values``, as a bool array."""
        return orthogonal_to_all(values, self.complement().rows, self.ambient_dim)

    def complement(self) -> "Subspace":
        """Orthogonal complement {x : x.v = 0 for all v in self}."""
        n = self.ambient_dim
        pivot_set = set(self.pivots)
        kernel = []
        for j in range(n):
            if j in pivot_set:
                continue
            v = 1 << j
            for row, p in zip(self.rows, self.pivots):
                if (row >> j) & 1:
                    v |= 1 << p
            kernel.append(v)
        return rref(kernel, n)

    def intersect(self, *others: "Subspace") -> "Subspace":
        """Exact intersection with every space in ``others``, via (V^perp + W^perp + ...)^perp."""
        if any(other.ambient_dim != self.ambient_dim for other in others):
            raise DimensionMismatch("ambient dimensions differ")
        perps = [row for space in (self, *others) for row in space.complement().rows]
        return rref(perps, self.ambient_dim).complement()

    def enumerate(self, budget: int | None = None) -> Iterator[int]:
        """All elements in Gray-code order over basis coefficients, refused above
        ``budget`` (by default the active ``witness_budget``)."""
        count = 1 << self.dim
        check_enumeration(count, budget)
        x = 0
        yield x
        for i in range(1, count):
            x ^= self.rows[(i & -i).bit_length() - 1]
            yield x

    def drop_last_rows(self, keep: int) -> "Subspace":
        """Subspace spanned by the first ``keep`` RREF rows."""
        return Subspace(self.ambient_dim, self.rows[:keep], self.pivots[:keep])

    def to_rows_hex(self) -> list[str]:
        return [to_hex(r, self.ambient_dim) for r in self.rows]


def rref(vectors: Iterable[int], ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the given vectors.

    Once the rows span the whole space the remaining vectors are only
    checked to fit.
    """
    rows: list[int] = []
    pivots: list[int] = []
    for v in vectors:
        if v >> ambient_dim:
            raise DimensionMismatch(
                f"vector {v:#x} does not fit in {ambient_dim} coordinates"
            )
        if len(rows) == ambient_dim:
            continue
        for row, p in zip(rows, pivots):
            if (v >> p) & 1:
                v ^= row
        if v == 0:
            continue
        p = _pivot(v)
        rows = [r ^ v if (r >> p) & 1 else r for r in rows]
        idx = 0
        while idx < len(pivots) and pivots[idx] < p:
            idx += 1
        rows.insert(idx, v)
        pivots.insert(idx, p)
    return Subspace(ambient_dim, tuple(rows), tuple(pivots))


def count_small_support(space: Subspace, k: int) -> int:
    """Exact #{v in space : weight(v) <= k}.

    Never exceeds sum_{i<=k} C(dim, i); the test suite asserts that bound.
    """
    if not 0 <= k <= space.ambient_dim:
        raise ValueError(f"k={k} out of range for ambient {space.ambient_dim}")
    return sum(1 for v in space.enumerate() if v.bit_count() <= k)


def all_subspaces(n: int, max_dim: int | None = None) -> Iterator[Subspace]:
    """All subspaces of F2^n in RREF form, by pivot set then free entries."""
    top = n if max_dim is None else min(max_dim, n)
    for k in range(top + 1):
        for pivots in combinations(range(n), k):
            pivot_set = set(pivots)
            free_positions = [
                (i, c)
                for i, p in enumerate(pivots)
                for c in range(p + 1, n)
                if c not in pivot_set
            ]
            for bits in range(1 << len(free_positions)):
                rows = [1 << p for p in pivots]
                for t, (i, c) in enumerate(free_positions):
                    if (bits >> t) & 1:
                        rows[i] |= 1 << c
                yield Subspace(n, tuple(rows), tuple(pivots))


def random_vector(n: int, rng) -> int:
    """Uniform vector of length n, assembled from 32-bit draws."""
    v = 0
    for off in range(0, n, 32):
        v |= int(rng.integers(0, 1 << min(32, n - off))) << off
    return v


def random_subspace(n: int, dim: int, rng) -> Subspace:
    """Random subspace of exactly the requested dimension."""
    if dim > n:
        raise ValueError("dim exceeds ambient")
    while True:
        space = rref([random_vector(n, rng) for _ in range(dim + 2)], n)
        if space.dim >= dim:
            return space.drop_last_rows(dim)
