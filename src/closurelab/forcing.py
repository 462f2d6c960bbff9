"""Forcing multisets and the executable matrix-case pipeline.

The central objects: agreement profiles (how many elements of a multiset
each array annihilates), forcing certificates (containment of the
high-agreement set in a sum of subspace blowups), and the constructive
chain dense-pairs -> fibre subspaces -> structured multiset Q ->
witnessed containment that realizes the d=2 analysis at desk scale.
One fibre recursion builds the nested-subspace systems of every d
(:func:`find_system`); the matrix structure finder is its d = 2 case.

Rank-one multisets are handled as explicit factor tuples (u_1,..,u_d)
rather than flattened tensors: fibre densities are part of every
construction here, and the zero tensor's fibres are not recoverable from
the flattened multiset.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .budgets import DensityTooLow, DimensionMismatch, VerificationFailure, check_enumeration
from .gf2 import Subspace, rref
from .spectral import GroupMultiset, GroupSet, bogolyubov, sumset_support, wht
from .tensor import (
    LSystem,
    TensorShape,
    lsystem_intersect,
    rank1_flat,
    rank_reach,
    sum_of_blowups,
)


# ---------------------------------------------------------------------------
# agreement profiles and forcing certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AgreementProfile:
    """counts[r] = #{q in Q : r.q = 0}, multiplicities included."""

    q: GroupMultiset
    counts: np.ndarray  # int64, length 2^n

    @property
    def total(self) -> int:
        return self.q.total


def agreement_profile(q: GroupMultiset, shape: TensorShape | None = None) -> AgreementProfile:
    """Exact agreement counts for every array, via one transform.

    counts[r] = (|Q| + sum_q mult(q)(-1)^(r.q)) / 2.  The transform is dense
    2^n work, so the active ``max_group_exponent`` bounds n.
    """
    if shape is not None and shape.total != q.n:
        raise DimensionMismatch("shape.total differs from multiset exponent")
    spec = wht(q.counts_array(), q.n)
    counts = (q.total + spec.coeffs) // 2
    if int(counts[0]) != q.total or int(counts.max()) > q.total or counts.min() < 0:
        raise VerificationFailure("agreement profile out of range")  # pragma: no cover
    return AgreementProfile(q, counts)


def agreement_threshold(total: int, alpha: Fraction) -> int:
    """Smallest integer count c with c >= alpha * total."""
    alpha = Fraction(alpha)
    return -(-alpha.numerator * total // alpha.denominator)


def agreement_set(profile: AgreementProfile, alpha: Fraction) -> np.ndarray:
    """The arrays r with counts[r] >= alpha * |Q|, ascending."""
    return np.flatnonzero(profile.counts >= agreement_threshold(profile.total, alpha))


@dataclass(frozen=True)
class ForcingCertificate:
    q: GroupMultiset
    alpha: Fraction
    target: Subspace
    verified: bool
    counterexample: int | None = None
    agreement_set_size: int = 0


def check_forcing(
    profile: AgreementProfile, alpha: Fraction, target: Subspace
) -> ForcingCertificate:
    """Verify that the alpha-agreement set sits inside ``target``.

    For the forcing statement ``target`` is a sum of blowups
    sum_I V_I (x) F2^{I^c}, i.e. ``sum_of_blowups(shape, spaces)``.
    Failure is a result carrying a counterexample array, not an error.
    """
    if target.ambient_dim != profile.q.n:
        raise DimensionMismatch("target ambient differs from the multiset exponent")
    alpha = Fraction(alpha)
    candidates = agreement_set(profile, alpha)
    outside = np.flatnonzero(~target.contains_array(candidates))
    counterexample = int(candidates[outside[0]]) if outside.size else None
    return ForcingCertificate(
        profile.q, alpha, target, counterexample is None, counterexample, candidates.size
    )


# ---------------------------------------------------------------------------
# exact sumset reachability with witnesses
# ---------------------------------------------------------------------------


UNREACHED = 255  # SumsetReach.dist of an element beyond ``depth``


class SumsetReach:
    """Distances to sums of generators, with witnesses.

    dist[x] is the least number of generators summing to x, or UNREACHED
    when that exceeds ``depth``.  A minimal sum has linearly independent
    terms, so no distance exceeds nbits and the frontier expansion stops
    after at most min(depth, nbits) layers, or earlier once it has reached
    the whole span of the generators.

    The search is direction-optimising (Beamer, Asanovic & Patterson, SC
    2012).  A layer whose frontier is small expands top-down, from the
    frontier along every generator.  Once four times the frontier exceeds
    the unreached part of the span, the layer runs bottom-up instead: each
    unreached point of the span looks for a generator leading back into the
    previous layer.  Both directions mark the same set, so ``dist`` does
    not depend on the switch.
    """

    def __init__(self, generators: Iterable[int], nbits: int, depth: int):
        size = 1 << nbits
        check_enumeration(size)
        self.depth = depth
        self.generators = sorted(set(int(g) for g in generators))
        self._gens = np.array(self.generators, dtype=np.int64)
        space = rref(self.generators, nbits)
        span = 1 << space.dim
        dist = np.full(size, UNREACHED, dtype=np.uint8)
        dist[0] = 0
        frontier = np.zeros(1, dtype=np.int64)
        reached = 1
        todo = None  # unreached points of the span, from the first bottom-up layer on
        for j in range(1, min(depth, nbits) + 1):
            if reached == span:
                break
            fresh = []
            if 4 * frontier.size > span - reached:
                if todo is None:
                    todo = np.flatnonzero(dist == UNREACHED)
                    if span < size:
                        todo = todo[space.contains_array(todo)]
                else:
                    todo = todo[dist[todo] == UNREACHED]
                previous = dist == j - 1
                for g in self.generators:
                    hit = previous[todo ^ g]
                    if hit.any():
                        fresh.append(todo[hit])
                        todo = todo[~hit]
                        if not todo.size:
                            break
                frontier = np.concatenate(fresh)
                dist[frontier] = j
            else:
                for g in self.generators:
                    step = frontier ^ g
                    step = step[dist[step] == UNREACHED]
                    dist[step] = j
                    fresh.append(step)
                frontier = np.concatenate(fresh)
            reached += frontier.size
        self.dist = dist

    def witness(self, targets: Iterable[int]) -> list[list[int] | None]:
        """Per target, generators (at most ``depth`` of them) summing to it, or None.

        All targets backtrack together, one layer at a time from the deepest:
        one :func:`_first_hits` scan gives each target on layer j the first
        generator, in sorted order, that moves it to layer j - 1.
        """
        x = np.fromiter(targets, dtype=np.int64)
        dist = self.dist[x]
        reached = dist != UNREACHED
        top = int(dist[reached].max(initial=0))
        steps = np.zeros((x.size, top), dtype=np.int64)  # column top - j: the step off layer j
        for j in range(top, 0, -1):
            walking = np.flatnonzero(reached & (dist >= j))
            first = _first_hits(x[walking], self._gens.size, self._gens.__getitem__, self.dist < j)
            if (first < 0).any():  # pragma: no cover - contradicts the distances
                raise VerificationFailure("witness backtrack lost its path")
            steps[walking, top - j] = self._gens[first]
            x[walking] ^= self._gens[first]
        return [
            row[top - d:] if ok else None
            for ok, d, row in zip(reached.tolist(), dist.tolist(), steps.tolist())
        ]


# ---------------------------------------------------------------------------
# rank-one factor tuples
# ---------------------------------------------------------------------------


def random_factor_tuples(
    dims: tuple[int, ...], count: int, rng
) -> set[tuple[int, ...]]:
    """``count`` distinct factor tuples, uniform over the product space."""
    bits = sum(dims)
    check_enumeration(1 << bits)
    if not 0 <= count <= 1 << bits:
        raise ValueError(f"{count} distinct factor tuples do not fit in 2^{bits}")
    raw = rng.choice(1 << bits, size=count, replace=False)
    shifts = np.cumsum([0, *dims[:-1]])
    return set(zip(*(((raw >> s) & ((1 << n) - 1)).tolist() for s, n in zip(shifts, dims))))


# ---------------------------------------------------------------------------
# the matrix-case structure finder
# ---------------------------------------------------------------------------


_SCAN_CELLS = 1 << 18  # most (query, candidate) cells _first_hits holds at once


def _first_hits(queries: np.ndarray, count: int, candidate, member: np.ndarray) -> np.ndarray:
    """For each query x, the first i < count with member[x ^ candidate(i)], else -1.

    Candidates are tried in blocks of at most _SCAN_CELLS cells over the
    queries still open, and the scan stops once every query has a hit.
    """
    first = np.full(queries.size, -1, dtype=np.int64)
    open_ = np.arange(queries.size)
    start = 0
    while open_.size and start < count:
        width = min(count - start, max(1, _SCAN_CELLS // open_.size))
        hit = member[queries[open_, None] ^ candidate(np.arange(start, start + width))]
        found = hit.any(axis=1)
        first[open_[found]] = start + np.argmax(hit[found], axis=1)
        open_ = open_[~found]
        start += width
    return first


def _four_splits(
    targets: Iterable[int], t_set: Sequence[int], nbits: int
) -> dict[int, tuple[int, int, int, int]]:
    """Lexicographically first (t1, t2, t3, t4) over sorted T summing to each target.

    The (t1, t2) half is the first pair, in lexicographic order, whose sum
    s leaves u ^ s in T + T; the (t3, t4) half is then the first t3 with
    u ^ s ^ t3 in T.  Pair p is (T[p // |T|], T[p % |T|]).  Memory stays
    O(2^nbits) plus one block of the scan, and a dense T stops after the
    first block.
    """
    t = np.array(t_set, dtype=np.int64)
    m = t.size
    in_t = np.zeros(1 << nbits, dtype=bool)
    in_t[t] = True
    targets = np.fromiter(targets, dtype=np.int64)
    in_sums = sumset_support(in_t, in_t)
    head = _first_hits(targets, m * m, lambda p: t[p // m] ^ t[p % m], in_sums)
    t1, t2 = t[head // m], t[head % m]
    partial = targets ^ t1 ^ t2
    tail = _first_hits(partial, m, lambda i: t[i], in_t)
    missing = (head < 0) | (tail < 0)
    if missing.any():  # pragma: no cover - Bogolyubov guarantees a split
        u = int(targets[np.flatnonzero(missing)[0]])
        raise VerificationFailure(f"no 4-decomposition of {u:#x} over T")
    t3 = t[tail]
    splits = np.stack([t1, t2, t3, partial ^ t3], axis=1)
    return {u: tuple(split) for u, split in zip(targets.tolist(), splits.tolist())}


@dataclass(frozen=True)
class StructureResult:
    shape: TensorShape
    u_space: Subspace
    v_spaces: dict[int, Subspace]  # u -> V_u, common codimension
    common_codim: int
    decompositions: dict[int, tuple[int, int, int, int]]  # u -> (t1..t4)
    witnesses: dict[tuple[int, int], list[int]]  # (u, v) -> 16-sum witness


def find_structure_matrix(
    pairs: Iterable[tuple[int, int]],
    shape: TensorShape,
    delta: Fraction,
) -> StructureResult:
    """Dense rank-one pairs -> subspaces U and (V_u) with u (x) V_u in 16B'.

    The d = 2 case of :func:`find_system`'s fibre recursion: U is the
    system's root and V_u its subspace at prefix (u,), the meet of the
    fibre spaces W_t over the split u = t1+t2+t3+t4 (lexicographically
    first over T), trimmed to the common codimension.  Every output pair
    is certified by an explicit 16-term witness over B'.
    """
    if shape.d != 2:
        raise ValueError(f"shape {shape.dims} is not 2-dimensional, as a matrix shape must be")
    delta = Fraction(delta)
    pairs = _dense_tuples(pairs, shape, delta)
    system, decompositions = _find_system_inner(pairs, shape, delta)
    n2 = shape.dims[1]
    v_raw = {u: system.spaces[(u,)] for u in decompositions}
    common = max(space.codim for space in v_raw.values())
    v_spaces = {
        u: space.drop_last_rows(n2 - common) for u, space in v_raw.items()
    }
    targets = {
        (u, v): rank1_flat(shape.dims, (u, v))
        for u, space in v_spaces.items()
        for v in space.enumerate()
    }
    witnesses = _witnesses(pairs, shape, 16, targets)
    return StructureResult(shape, system.root, v_spaces, common, decompositions, witnesses)


def build_q_matrix(
    u_space: Subspace, v_spaces: Mapping[int, Subspace], shape: TensorShape
) -> GroupMultiset:
    """The multiset union_{u in U} (u (x) V_u); |Q| = |U| * |V_.|."""
    codims = {space.codim for space in v_spaces.values()}
    if len(codims) > 1:
        raise ValueError(f"V_u codimensions differ: {sorted(codims)}")
    counter: Counter = Counter()
    for u in u_space.enumerate():
        space = v_spaces[u]
        for v in space.enumerate():
            counter[rank1_flat(shape.dims, (u, v))] += 1
    q = GroupMultiset(shape.total, dict(counter))
    expected = (1 << u_space.dim) * (1 << next(iter(v_spaces.values())).dim)
    if q.total != expected:  # pragma: no cover - arithmetic identity
        raise VerificationFailure("structured multiset size mismatch")
    return q


# ---------------------------------------------------------------------------
# the reduced witness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReducedWitness:
    w1: Subspace  # U^perp in F2^{n1}
    w2: Subspace  # span(X) in F2^{n2}
    x_list: list[int]


def reduced_witness(
    u_space: Subspace, v_spaces: Mapping[int, Subspace], l: int
) -> ReducedWitness:
    """W1 = U^perp; W2 = span{x : x in V_u^perp for >= |U|/(10*2^l) u's}.

    |X| <= 10 * 2^(k+l) is guaranteed by counting and re-checked here.
    """
    u_elems = list(u_space.enumerate())
    hits = Counter()
    for u in u_elems:
        for x in v_spaces[u].complement().enumerate():
            hits[x] += 1
    scale = 10 * (1 << l)
    x_list = sorted(x for x, c in hits.items() if c * scale >= len(u_elems))
    k = max(space.codim for space in v_spaces.values())
    if len(x_list) > 10 * (1 << (k + l)):  # pragma: no cover - counting bound
        raise VerificationFailure("|X| exceeded its counting bound")
    n2 = v_spaces[0].ambient_dim  # 0 is in every U
    return ReducedWitness(u_space.complement(), rref(x_list, n2), x_list)


# ---------------------------------------------------------------------------
# l-system construction from dense generator sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemResult:
    system: LSystem
    sumset_depth: int  # elements certified inside depth-fold sums of B'
    witnesses: dict[int, list[int]]  # element -> depth-sum witness
    elements: Counter  # the system's element_counter()


def _dense_tuples(tuples, shape: TensorShape, delta: Fraction) -> set[tuple[int, ...]]:
    """The distinct factor tuples, refused below density ``delta``."""
    tuples = set(tuples)
    if Fraction(len(tuples), 1 << sum(shape.dims)) < delta:
        raise DensityTooLow(
            f"{len(tuples)} factor tuples are below density {delta} of 2^{sum(shape.dims)}"
        )
    return tuples


def _witnesses(tuples, shape: TensorShape, depth: int, targets: Mapping) -> dict:
    """key -> at most ``depth`` rank-one tensors of ``tuples`` summing to targets[key]."""
    reach = SumsetReach(
        [rank1_flat(shape.dims, tup) for tup in tuples], shape.total, depth
    )
    found = reach.witness(targets.values())
    if None in found:
        elem = list(targets.values())[found.index(None)]
        raise VerificationFailure(f"{elem:#x} missed the {depth}-fold sumset")
    return dict(zip(targets, found))


def find_system(tuples, shape: TensorShape, delta: Fraction) -> SystemResult:
    """Nested-subspace system with elements inside 4^d-fold sums of B'.

    d=1 is Bogolyubov directly; d>1 recurses on dense fibres, extracts a
    subspace of the dense fibre index set, and intersects four recursive
    systems for each of its elements.  Every element is certified by an
    explicit witness.
    """
    delta = Fraction(delta)
    tuples = _dense_tuples(tuples, shape, delta)
    system, _ = _find_system_inner(tuples, shape, delta)
    depth = 4**shape.d
    elements = system.element_counter()
    witnesses = _witnesses(tuples, shape, depth, {elem: elem for elem in elements})
    return SystemResult(system, depth, witnesses, elements)


def _find_system_inner(
    tuples, shape: TensorShape, delta: Fraction
) -> tuple[LSystem, dict[int, tuple[int, int, int, int]]]:
    """The system, and for d > 1 the four-split over T of each u in its root."""
    n1 = shape.dims[0]
    if shape.d == 1:
        root = bogolyubov(GroupSet.from_elements(n1, [t[0] for t in tuples]))
        return LSystem(shape, {(): root}, bound=root.codim), {}

    tail_dims = shape.dims[1:]
    tail_shape = TensorShape(tail_dims)
    tail_size = 1 << sum(tail_dims)
    fibres: dict[int, set[tuple[int, ...]]] = defaultdict(set)
    for tup in tuples:
        fibres[tup[0]].add(tup[1:])
    half = delta / 2
    t_set = sorted(
        u for u, fibre in fibres.items() if Fraction(len(fibre), tail_size) >= half
    )
    if Fraction(len(t_set), 1 << n1) < half:  # pragma: no cover - averaging
        raise VerificationFailure("averaging bound for |T| failed")

    recursive = {
        t: _find_system_inner(fibres[t], tail_shape, half)[0] for t in t_set
    }
    u_space = bogolyubov(GroupSet.from_elements(n1, t_set))

    spaces = {(): u_space}
    splits = _four_splits(u_space.enumerate(), t_set, n1)
    for u, found in splits.items():
        sub = lsystem_intersect(*(recursive[t] for t in found))
        spaces.update(((u,) + p, s) for p, s in sub.spaces.items())
    return LSystem(shape, spaces, bound=max(space.codim for space in spaces.values())), splits


# ---------------------------------------------------------------------------
# the full matrix-case pipeline experiment
# ---------------------------------------------------------------------------


@dataclass
class PipelineResult:
    shape: TensorShape
    delta: Fraction
    epsilon: Fraction
    rank_threshold: int
    structure: StructureResult
    q: GroupMultiset
    profile: AgreementProfile
    agreement_set: np.ndarray  # int64, ascending
    centers: list[int]
    w1: Subspace
    w2: Subspace
    verified: bool
    counterexample: int | None
    measured: dict = field(default_factory=dict)


_LOWER = np.tri(64, 64, -1, dtype=bool)  # _LOWER[i, j]: j < i


def _greedy_centers(points: np.ndarray, in_ball: np.ndarray) -> list[int]:
    """Greedy clustering of ascending ``points`` with the ball {m : in_ball[m]}.

    A point joins the centers iff no earlier center's ball c ^ ball holds
    it.  Points are decided a block at a time.  One gather of ``blocked``
    drops those an earlier block's centers hold; each survivor is then
    checked against the centers taken before it in the same block through
    in_ball[c ^ c'], as one 64-bit clash mask per survivor.  The balls of a
    block's centers are scattered into ``blocked`` at once.
    """
    ball = np.flatnonzero(in_ball)
    if ball.size == 1 and ball[0] == 0:  # the ball {0}: every point is its own center
        return points.tolist()
    blocked = np.zeros(in_ball.size, dtype=bool)
    # at most 64 survivors a block, fewer for large balls to bound the scatter
    most = min(_LOWER.shape[0], max(1, (1 << 18) // ball.size))
    centers: list[int] = []
    start = 0
    while start < points.size:
        window = points[start:start + 16 * most]
        open_ = np.flatnonzero(~blocked[window])[:most]
        start += int(open_[-1]) + 1 if open_.size == most else window.size
        if not open_.size:
            continue
        live = window[open_]
        clash = in_ball[live[:, None] ^ live] & _LOWER[:live.size, :live.size]
        masks = (clash @ (np.uint64(1) << np.arange(live.size, dtype=np.uint64))).tolist()
        taken, fresh = 0, []
        for i, (point, mask) in enumerate(zip(live.tolist(), masks)):
            if not mask & taken:
                taken |= 1 << i
                fresh.append(point)
        centers += fresh
        blocked[(np.array(fresh)[:, None] ^ ball).ravel()] = True
    return centers


def matrix_pipeline(
    pairs,
    shape: TensorShape,
    delta: Fraction,
    epsilon: Fraction = Fraction(1, 32),
    rank_threshold: int = 1,
) -> PipelineResult:
    """Run the whole matrix-case experiment and verify its containment.

    find_structure -> Q -> exhaustive high-agreement set R at 1-epsilon ->
    greedy rank-threshold clustering of R -> reduced witness (W1, W2) ->
    check_forcing of R against span(centers) + W1 (x) F2 + F2 (x) W2.
    """
    if not 0 <= rank_threshold <= min(shape.dims):
        raise ValueError(f"rank threshold {rank_threshold} out of range")
    if not 0 <= Fraction(epsilon) < 1:
        raise ValueError(f"epsilon {epsilon} is outside [0, 1)")
    structure = find_structure_matrix(pairs, shape, delta)
    q = build_q_matrix(structure.u_space, structure.v_spaces, shape)
    profile = agreement_profile(q, shape)
    alpha = 1 - Fraction(epsilon)
    r_arr = agreement_set(profile, alpha)

    centers = _greedy_centers(r_arr, rank_reach(shape, (0,), rank_threshold))

    # span(centers) + W1 (x) F2^{n2} + F2^{n1} (x) W2, blowup rows first:
    # rref stops eliminating once the target is the whole space
    witness = reduced_witness(structure.u_space, structure.v_spaces, rank_threshold)
    blowups = sum_of_blowups(shape, {(0,): witness.w1, (1,): witness.w2})
    target = rref(blowups.rows + tuple(centers), shape.total)
    cert = check_forcing(profile, alpha, target)

    measured = {
        "u_codim": structure.u_space.codim,
        "v_common_codim": structure.common_codim,
        "q_total": q.total,
        "agreement_set_size": r_arr.size,
        "num_centers": len(centers),
        "dim_w1": witness.w1.dim,
        "dim_w2": witness.w2.dim,
        "x_size": len(witness.x_list),
        "containment_dim": target.dim,
    }
    return PipelineResult(
        shape=shape,
        delta=Fraction(delta),
        epsilon=Fraction(epsilon),
        rank_threshold=rank_threshold,
        structure=structure,
        q=q,
        profile=profile,
        agreement_set=r_arr,
        centers=centers,
        w1=witness.w1,
        w2=witness.w2,
        verified=cert.verified,
        counterexample=cert.counterexample,
        measured=measured,
    )
