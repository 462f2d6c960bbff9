"""GF(2) tensor spaces F2^{n_1} (x) ... (x) F2^{n_d}.

A tensor is a bit-packed vector over the row-major flattening
flat(i_1,...,i_d) = sum_j i_j * prod_{j'>j} n_{j'} (last axis fastest),
the single convention shared by every module.  Axis subsets I use 0-based
indices; F2^I means the tensor product of the axes in I in increasing
order, flattened the same way.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Mapping

import numpy as np

from .budgets import (
    DimensionMismatch,
    VerificationFailure,
    check_enumeration,
    check_group_exponent,
)
from .gf2 import Subspace, all_subspaces, orthogonal_to_all, rref, to_hex
from .spectral import subspace_elements, sumset_support


@dataclass(frozen=True)
class TensorShape:
    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims or any(n < 1 for n in self.dims):
            raise ValueError(f"invalid dims {self.dims}")
        check_group_exponent(math.prod(self.dims))

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return math.prod(self.dims)

    def strides(self) -> tuple[int, ...]:
        out = []
        acc = 1
        for n in reversed(self.dims):
            out.append(acc)
            acc *= n
        return tuple(reversed(out))

    def flat(self, index: tuple[int, ...]) -> int:
        return sum(i * s for i, s in zip(index, self.strides()))

    def unflat(self, pos: int) -> tuple[int, ...]:
        out = []
        for s in self.strides():
            out.append(pos // s)
            pos %= s
        return tuple(out)


@dataclass(frozen=True)
class Tensor:
    shape: TensorShape
    data: int

    def __post_init__(self):
        if self.data >> self.shape.total:
            raise DimensionMismatch("data wider than shape.total")

    def to_array(self) -> np.ndarray:
        total = self.shape.total
        raw = self.data.to_bytes((total + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return bits[:total].reshape(self.shape.dims)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Tensor":
        arr = np.asarray(arr, dtype=np.uint8) & 1
        flat = arr.reshape(-1)
        packed = np.packbits(flat, bitorder="little").tobytes()
        return cls(TensorShape(tuple(arr.shape)), int.from_bytes(packed, "little"))

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape.dims),
            "data": to_hex(self.data, self.shape.total),
        }


def rank1(shape: TensorShape, factors: tuple[int, ...]) -> Tensor:
    """Tensor whose bit at flat(i_1..i_d) is prod_j u_j(i_j)."""
    if len(factors) != shape.d:
        raise DimensionMismatch("factor count differs from axis count")
    for u, n in zip(factors, shape.dims):
        if u >> n:
            raise DimensionMismatch(f"factor {u:#x} exceeds axis length {n}")
    data = rank1_flat(shape.dims, factors)
    return Tensor(shape, data)


def rank1_flat(dims: tuple[int, ...], factors: tuple[int, ...]) -> int:
    """Packed int of the rank-1 tensor, recursively over axes."""
    if len(dims) == 1:
        return factors[0]
    rest = rank1_flat(dims[1:], factors[1:])
    stride = math.prod(dims[1:])
    out = 0
    u = factors[0]
    while u:
        i = (u & -u).bit_length() - 1
        out |= rest << (i * stride)
        u &= u - 1
    return out


def axis_position_map(shape: TensorShape, axes: tuple[int, ...]) -> np.ndarray:
    """Array M[p_I, p_Ic] of flat positions, I = ``axes`` ascending."""
    axes = tuple(sorted(axes))
    comp = tuple(a for a in range(shape.d) if a not in axes)
    arr = np.arange(shape.total, dtype=np.int64).reshape(shape.dims)
    perm = axes + comp
    p_i = math.prod(shape.dims[a] for a in axes)
    return np.transpose(arr, perm).reshape(p_i, -1)


def axis_subsets(d: int) -> list[tuple[int, ...]]:
    """The nonempty subsets of the axes 0..d-1, ascending, in bitmask order."""
    return [tuple(a for a in range(d) if mask >> a & 1) for mask in range(1, 1 << d)]


def _blowup_gather(
    shape: TensorShape, spaces: Mapping[tuple[int, ...], Subspace]
) -> list[int]:
    """The packed tensors z (x) e_j, for each axis subset I of ``spaces``, each
    row z of its subspace of F2^I and each index j of F2^{I^c}."""
    gens = []
    for axes, space in spaces.items():
        posmap = axis_position_map(shape, tuple(axes))
        if space.ambient_dim != posmap.shape[0]:
            raise DimensionMismatch("subspace ambient does not match axis product")
        for row in space.rows:
            picked = posmap[[k for k in range(posmap.shape[0]) if (row >> k) & 1]]
            gens.extend(sum(1 << pos for pos in column) for column in picked.T.tolist())
    return gens


def sum_of_blowups(
    shape: TensorShape, spaces: Mapping[tuple[int, ...], Subspace]
) -> Subspace:
    """sum_I H_I (x) F2^{I^c} as a subspace of the flattened tensor space.

    ``spaces`` maps each axis subset I to H_I in F2^I; H_I (x) F2^{I^c}
    holds the tensors whose every I^c-indexed slice along the I axes lies
    in H_I.  The generators z (x) e_j of every blowup go into one rref.
    """
    return rref(_blowup_gather(shape, spaces), shape.total)


def _normalize_spaces(
    shape: TensorShape, spaces: Mapping[tuple[int, ...], Subspace]
) -> dict[tuple[int, ...], Subspace]:
    """Fill every nonempty axis subset, defaulting to the full space."""
    out = {axes: Subspace.full(math.prod(shape.dims[a] for a in axes))
           for axes in axis_subsets(shape.d)}
    for axes, space in spaces.items():
        key = tuple(sorted(axes))
        if key not in out:
            raise ValueError(f"invalid axis subset {axes}")
        p_i = math.prod(shape.dims[a] for a in key)
        if space.ambient_dim != p_i:
            raise DimensionMismatch(f"space for {key} has wrong ambient")
        out[key] = space
    return out


@dataclass(frozen=True)
class SimpleSet:
    """Translate of the intersection of H_I (x) F2^{I^c} over nonempty I.

    ``spaces`` may omit subsets; omitted ones default to the full space.
    The recorded simplicity witness is the maximum codimension.
    """

    shape: TensorShape
    translate: Tensor
    spaces: Mapping[tuple[int, ...], Subspace] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "spaces", _normalize_spaces(self.shape, self.spaces)
        )
        if self.translate.shape != self.shape:
            raise DimensionMismatch("translate shape differs")

    @property
    def simplicity(self) -> int:
        return max(s.codim for s in self.spaces.values())

    def member(self, x: Tensor) -> bool:
        if x.shape != self.shape:
            raise DimensionMismatch("tensor shape differs")
        return bool(self.members(np.array([x.data], dtype=np.uint64))[0])

    def members(self, data: np.ndarray) -> np.ndarray:
        """Membership of each packed tensor in ``data``, as a bool array.

        One parity mask per constraint: for each z in H_I^perp and each
        index j of F2^{I^c}, the slice at j along the I axes of x minus the
        translate must be orthogonal to z.  Built from the definition, not
        from subspace().
        """
        perps = {axes: space.complement() for axes, space in self.spaces.items()}
        return orthogonal_to_all(
            data, _blowup_gather(self.shape, perps), self.shape.total, self.translate.data
        )

    def subspace(self) -> Subspace:
        """The underlying subspace (ignoring the translate).

        Its complement is spanned by the blowups H_I^perp (x) F2^{I^c}.
        """
        perps = {axes: space.complement() for axes, space in self.spaces.items()}
        return sum_of_blowups(self.shape, perps).complement()

    def size(self) -> int:
        return 1 << self.subspace().dim

    def to_json(self) -> dict:
        return {
            "translate": self.translate.to_json(),
            "spaces": [
                {"axes": list(axes), "rows": space.to_rows_hex()}
                for axes, space in sorted(self.spaces.items())
            ],
        }


SYSTEM_ENUMERATION_LIMIT = 2**22  # most elements an l-system walk enumerates per subspace


class LSystem:
    """Nested subspace family producing a multiset of rank-1 tensors.

    ``spaces[prefix]`` is the subspace of axis len(prefix) below the factor
    prefix (u_1,..,u_j); the root, a subspace of the first axis, is
    ``spaces[()]``.  ``bound`` is the declared codimension bound l.
    """

    def __init__(
        self, shape: TensorShape, spaces: Mapping[tuple[int, ...], Subspace], bound: int = 0
    ):
        for prefix, space in spaces.items():
            if len(prefix) >= shape.d:
                raise DimensionMismatch(f"prefix {prefix} is not shorter than the {shape.d} axes")
            if space.ambient_dim != shape.dims[len(prefix)]:
                raise DimensionMismatch(f"space at prefix {prefix} differs from its axis")
        self.shape = shape
        self.spaces = dict(spaces)
        self.bound = bound

    @property
    def root(self) -> Subspace:
        return self.spaces[()]

    def factor_tuples(self) -> Iterator[tuple[int, ...]]:
        def walk(prefix: tuple[int, ...]):
            if len(prefix) == self.shape.d:
                yield prefix
                return
            for u in self.spaces[prefix].enumerate(SYSTEM_ENUMERATION_LIMIT):
                yield from walk(prefix + (u,))

        yield from walk(())

    def element_counter(self) -> Counter:
        return Counter(rank1_flat(self.shape.dims, tup) for tup in self.factor_tuples())

    def max_codim(self) -> int:
        return max(space.codim for space in self.spaces.values())


def lsystem_intersect(*systems: LSystem) -> LSystem:
    """System contained in every input: meet their spaces prefix by prefix."""
    first, *rest = systems
    if any(q.shape != first.shape for q in rest):
        raise DimensionMismatch("system shapes differ")
    spaces: dict[tuple[int, ...], Subspace] = {}

    def walk(prefix: tuple[int, ...]):
        meet = first.spaces[prefix].intersect(*(q.spaces[prefix] for q in rest))
        spaces[prefix] = meet
        if len(prefix) < first.shape.d - 1:
            for u in meet.enumerate(SYSTEM_ENUMERATION_LIMIT):
                walk(prefix + (u,))

    walk(())
    return LSystem(first.shape, spaces, bound=sum(q.bound for q in systems))


@dataclass(frozen=True)
class DegeneracyDecision:
    degenerate: bool
    witness: dict[tuple[int, ...], Subspace] | None


def rank_reach(shape: TensorShape, axes: tuple[int, ...], k: int) -> np.ndarray:
    """Bitmap of the tensors whose ``axes``-flattening has rank <= k.

    A flattening has rank <= k exactly when its columns on the shorter side
    lie in some k-dimensional H, so the bitmap is the union of the blowups
    H (x) F2^{rest} over the subspaces H of dimension min(k, side).
    """
    check_enumeration(1 << shape.total)
    if math.prod(shape.dims[a] for a in axes) ** 2 > shape.total:  # same rank, shorter side
        axes = tuple(a for a in range(shape.d) if a not in axes)
    side = math.prod(shape.dims[a] for a in axes)
    out = np.zeros(1 << shape.total, dtype=bool)
    for space in all_subspaces(side, k):
        if space.dim == min(k, side):
            out[subspace_elements(sum_of_blowups(shape, {axes: space}))] = True
    return out


def _column_space(shape: TensorShape, axes: tuple[int, ...], data: int) -> Subspace:
    """The span of the columns of the ``axes``-flattening of ``data``."""
    posmap = axis_position_map(shape, axes)
    columns = ((data >> posmap) & 1) << np.arange(posmap.shape[0])[:, None]
    return rref(columns.sum(axis=0).tolist(), posmap.shape[0])


def _degeneracy_stages(shape: TensorShape, k: int):
    """The axis subsets I of the first d-1 axes; per I the bitmap F_I of the
    tensors whose I-flattening has rank <= k; and the prefix sumset supports
    {0}, F_I1, F_I1 + F_I2, ..., the last of which is D_k = sum_I F_I."""
    subsets = axis_subsets(shape.d - 1)
    pieces = [rank_reach(shape, axes, k) for axes in subsets]
    prefixes = [rank_reach(shape, (0,), 0)] + pieces[:1]  # rank <= 0: {0}
    for piece in pieces[1:]:
        prefixes.append(sumset_support(prefixes[-1], piece))
    return subsets, pieces, prefixes


def degenerate_decide(r: Tensor, k: int) -> DegeneracyDecision:
    """Decide whether r lies in a sum of dim<=k blowups over I within the
    first d-1 axes (the one-sided form of k-degeneracy): whether r is in D_k.

    A degenerate r is taken apart one stage at a time, last subset first:
    its piece t_I is the first t in F_I with r ^ t in the previous prefix,
    and H_I is the column space of t_I.  The witness is re-verified through
    sum_of_blowups; a failure raises VerificationFailure.
    """
    subsets, pieces, prefixes = _degeneracy_stages(r.shape, k)
    if not prefixes[-1][r.data]:
        return DegeneracyDecision(False, None)
    witness, rest = {}, r.data
    for axes, piece, prefix in zip(subsets[::-1], pieces[::-1], prefixes[-2::-1]):
        candidates = np.flatnonzero(piece)
        t = int(candidates[np.argmax(prefix[candidates ^ rest])])
        witness[axes], rest = _column_space(r.shape, axes, t), rest ^ t
    spans = sum_of_blowups(r.shape, witness).contains(r.data)
    if not spans or any(h.dim > k for h in witness.values()):
        raise VerificationFailure(f"degeneracy witness for {r.data:#x} does not verify")
    return DegeneracyDecision(True, dict(reversed(witness.items())))


def rank_one_counter(shape: TensorShape, nonzero_only: bool = False) -> Counter:
    """Multiset of all rank-1 tensors as a Counter over packed ints.

    With ``nonzero_only`` the factors range over nonzero vectors, matching
    the generator set of the tensor Cayley graph; otherwise zero factors
    are included with multiplicity.
    """
    ranges = []
    for n in shape.dims:
        lo = 1 if nonzero_only else 0
        check_enumeration(1 << n)
        ranges.append(range(lo, 1 << n))
    return Counter(rank1_flat(shape.dims, tup) for tup in product(*ranges))
