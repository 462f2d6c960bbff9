"""Exact and sampled measurement of (B,eta)-closedness.

The exact path counts pairs {(a,b) in A x B : a+b in A} with multiset
multiplicities; the Fourier path in :mod:`closurelab.spectral` must agree
with it rationally, and the test suite holds both to that.  The count for
one b is |A & (A+b)|, the popcount of W & pi_b(W) over A's bitmap W packed
into 64-bit words: pi_b moves whole words by b's high bits and permutes
bits inside each word by at most six delta swaps for its low six bits
(Knuth, TAOCP 4A, 7.1.3), so each b costs 2^(n-6) word operations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .budgets import (
    BudgetExceeded,
    DimensionMismatch,
    VerificationFailure,
    active,
    check_group_exponent,
)
from .confidence import chernoff_radius, hoeffding_radius
from .gf2 import Subspace, rref
from .spectral import (
    _BLOCK, GroupMultiset, GroupSet, check_operands, spectral_sum, subspace_elements, wht)
from .tensor import rank1_flat

EXACT_PAIR_LIMIT = 2**28  # most (a, b) pairs closedness_exact counts
SAMPLE_CHUNK = 4096  # samples drawn per seeded chunk
CONFIDENCE = 0.99  # two-sided confidence of every sampled radius
# _SWAP[s]: the bits of a word whose index has bit s clear
_SWAP = [np.uint64(m) for m in (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
                                0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF)]


@dataclass(frozen=True)
class ClosednessReport:
    eta: Fraction
    pair_count: int

    def to_json(self) -> dict:
        return {
            "mode": "exact",
            "eta_num": self.eta.numerator,
            "eta_den": self.eta.denominator,
            "pair_count": self.pair_count,
        }


@dataclass(frozen=True)
class SampledEstimate:
    """A seeded fraction and its two-sided radius at :data:`CONFIDENCE`."""

    estimate: float
    radius: float
    samples: int
    seed: int

    def to_json(self) -> dict:
        return {
            "mode": "sampled",
            "estimate": self.estimate,
            "radius": self.radius,
            "confidence": CONFIDENCE,
            "samples": self.samples,
            "seed": self.seed,
        }


def _overlap_counts(a: GroupSet, keys) -> np.ndarray:
    """|A & (A+k)| for each key k, as int64.

    A's bitmap is packed once into little-endian 64-bit words W (zero bits
    pad it to one word below n = 6).  The keys are grouped by their low six
    bits; each class permutes the bits of W once by its delta swaps, and
    then each key's count is the popcount of W[j] & that permutation at
    word j ^ (k >> 6), over the nonzero words j of W, a block of about 2^16
    words at a time.  So a key costs min(|A|, 2^(n-6)) words.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size and (keys.min() < 0 or keys.max() >> a.n):
        raise DimensionMismatch(f"translation out of range for F2^{a.n}")
    packed = np.packbits(a.bitmap(), bitorder="little")
    words = np.pad(packed, (0, -packed.size % 8)).view("<u8")
    occupied = np.flatnonzero(words)  # the AND with W is 0 at every other word
    w = words[occupied]
    rows = max(1, _BLOCK // max(occupied.size, 1))
    out = np.empty(keys.size, dtype=np.int64)
    lows = keys & 63
    for low in np.unique(lows).tolist():
        moved = words
        for s, mask in enumerate(_SWAP):
            if low >> s & 1:
                moved = ((moved & mask) << (1 << s)) | ((moved >> (1 << s)) & mask)
        cls = np.flatnonzero(lows == low)
        for lo in range(0, cls.size, rows):
            at = cls[lo : lo + rows]
            both = moved[occupied ^ (keys[at, None] >> 6)] & w
            out[at] = np.bitwise_count(both).sum(axis=1, dtype=np.int64)
    return out


def closedness_exact(a: GroupSet, b: GroupMultiset) -> ClosednessReport:
    """Exact eta with multiplicities: |{(a,b): a+b in A}| / (|A| |B|).

    The pair count is sum_b mult(b) |A & (A+b)|, each overlap counted on
    A's packed words by :func:`_overlap_counts`.
    """
    check_operands(a, b)
    if a.size * b.support_size > EXACT_PAIR_LIMIT:
        raise BudgetExceeded("pair count exceeds compute budget")
    check_group_exponent(a.n)
    counts = _overlap_counts(a, list(b.counts))
    pair_count = sum(c * m for c, m in zip(counts.tolist(), b.counts.values()))
    eta = Fraction(pair_count, a.size * b.total)
    return ClosednessReport(eta, pair_count)


def inversion_sampler(values: Sequence[int], masses: Sequence[int]) -> Callable:
    """Draws values[i] with probability masses[i] / sum(masses), by
    inverting the cumulative masses at one uniform 64-bit integer r per draw.

    The index is ``searchsorted(cums, r, side="right")``, found through a
    guide table (Chen and Asau; Devroye 1986, III.2.4) over the top bits of
    r: 4K to 8K buckets for K masses (one per value of r below 4K), each
    holding the index at its bucket's start, so one comparison finishes a
    draw.  Draws in a bucket that two or more cumulative masses cross take
    ``searchsorted``.
    """
    masses = [int(m) for m in masses]
    if min(masses, default=0) < 0:
        raise ValueError("masses must be nonnegative")
    total = sum(masses)
    if total < 1:
        raise ValueError("B must be nonempty: its masses sum to 0")
    if total >= 2**63:
        raise BudgetExceeded("total mass too large for 64-bit uniform sampling")
    vals = np.asarray(values, dtype=np.int64)
    cums = np.cumsum(np.asarray(masses, dtype=np.int64))
    # the largest shift that leaves 4K or more buckets (fewer than 8K)
    shift = max(0, ((total - 1) // (4 * cums.size - 1)).bit_length() - 1)
    starts = np.arange(((total - 1) >> shift) + 1, dtype=np.int64) << shift
    guide = np.searchsorted(cums, starts, side="right")
    ends = np.searchsorted(cums, np.append(starts[1:] - 1, total - 1), side="right")
    crowded = ends - guide >= 2
    if not crowded.any():
        crowded = None

    def sample(rng, count: int) -> np.ndarray:
        r = rng.integers(0, total, size=count)
        bucket = r >> shift
        idx = guide[bucket]
        idx += cums[idx] <= r
        if crowded is not None:
            late = np.flatnonzero(crowded[bucket])
            idx[late] = np.searchsorted(cums, r[late], side="right")
        return vals[idx]

    return sample


def groupset_oracle(a: GroupSet):
    """(membership, sampler) pair for a dense GroupSet."""
    bitmap = a.bitmap()
    elems = a.elements

    def member(xs: np.ndarray) -> np.ndarray:
        return bitmap[xs]

    def sample(rng, count: int) -> np.ndarray:
        idx = rng.integers(0, elems.size, size=count)
        return elems[idx]

    return member, sample


def seeded_chunks(samples: int, seed: int) -> Iterator[tuple[np.random.Generator, int]]:
    """(rng, count) per chunk of SAMPLE_CHUNK of ``samples``.

    Each chunk draws from its own SeedSequence((seed, chunk_index)) stream,
    so a result depends only on (seed, samples) and not on any scheduling.
    """
    for chunk_index, start in enumerate(range(0, samples, SAMPLE_CHUNK)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, chunk_index)))
        yield rng, min(SAMPLE_CHUNK, samples - start)


def sampled_fraction(
    chunk_hits: Callable[[np.random.Generator, int], int],
    samples: int,
    seed: int,
    radius_method: str = "hoeffding",
) -> SampledEstimate:
    """Seeded Monte Carlo fraction of successes, with its radius.

    ``chunk_hits(rng, count)`` draws ``count`` trials from ``rng`` and counts
    the successes, once per chunk of :func:`seeded_chunks`.  The radius is
    Hoeffding's, or the variance-adaptive Bernstein one for ``"chernoff"``.
    The active ``max_samples`` caps ``samples``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    cap = active().max_samples
    if samples > cap:
        raise BudgetExceeded(f"samples {samples} exceed budget {cap}")
    hits = sum(chunk_hits(rng, count) for rng, count in seeded_chunks(samples, seed))
    estimate = hits / samples
    if radius_method == "hoeffding":
        radius = hoeffding_radius(samples, CONFIDENCE)
    elif radius_method == "chernoff":
        radius = chernoff_radius(samples, CONFIDENCE, estimate * (1.0 - estimate))
    else:
        raise ValueError(f"unknown radius method {radius_method!r}")
    return SampledEstimate(estimate, radius, samples, seed)


def closedness_sampled(
    a_member: Callable[[np.ndarray], np.ndarray],
    a_sampler: Callable,
    b: GroupMultiset | Callable,
    samples: int,
    seed: int,
    radius_method: str = "hoeffding",
) -> SampledEstimate:
    """Seeded estimate of (B,eta)-closedness: P(a + b in A) for a drawn
    from A, then b from B, in each chunk."""
    b_sample = b if callable(b) else inversion_sampler(list(b.counts), list(b.counts.values()))

    def chunk_hits(rng, count: int) -> int:
        a_batch = np.asarray(a_sampler(rng, count))
        b_batch = np.asarray(b_sample(rng, count))
        return int(np.count_nonzero(a_member(a_batch ^ b_batch)))

    return sampled_fraction(chunk_hits, samples, seed, radius_method)


def mixed_energy(a: GroupSet, b: GroupMultiset) -> Fraction:
    """||1_A * mu_B||_2^2, exactly, via the product of the spectra.

    Always at most the density alpha of A; that ceiling is re-checked on
    every call because it is a theorem, not an input condition.
    """
    check_operands(a, b)
    m = wht(b.counts_array(), b.n).coeffs
    m *= m  # each m^2 < 2^63: the transform's guard bounds the sum of them
    value = Fraction(spectral_sum(wht(a.bitmap(), a.n), m), (1 << (2 * a.n)) * b.total**2)
    alpha = a.density
    if value > alpha:
        raise VerificationFailure(f"mixed energy {value} exceeds density {alpha}")
    return value


def triangle_compose(
    a: GroupSet, b1: int, b2: int
) -> tuple[Fraction, Fraction, Fraction]:
    """Deficits 1 - |A & (A+b)| / |A| for b = b1, b2 and b1+b2, counted on
    one packing of A; enforces the triangle inequality.

    deficit(b1+b2) <= deficit(b1) + deficit(b2) holds for every set; a
    violation indicates a counting bug and raises.
    """
    stays = _overlap_counts(a, [b1, b2, b1 ^ b2]).tolist()
    d1, d2, d12 = (1 - Fraction(stay, a.size) for stay in stays)
    if d12 > d1 + d2:
        raise VerificationFailure(
            f"triangle inequality violated: {d12} > {d1} + {d2}"
        )
    return d1, d2, d12


def basic_set(kind: str, x: int, y: int, shape: tuple[int, int]) -> GroupSet:
    """Matrices {M : Mx = y} (row kind) or {M : M^T x = y} (column kind).

    Matrices are flattened row-major into F2^(m*n).  x = 0 is allowed but
    degenerate (empty set when y != 0, the full group when y = 0) and
    triggers a warning.
    """
    m, n = shape
    nbits = m * n
    check_group_exponent(nbits)
    if kind not in ("row", "column"):
        raise ValueError(f"unknown basic set kind {kind!r}")
    xlen, ylen = (n, m) if kind == "row" else (m, n)
    if x >> xlen or y >> ylen:
        raise DimensionMismatch("x or y out of range for the shape")
    if x == 0:
        warnings.warn("basic set with x = 0 is degenerate", stacklevel=2)
        if y != 0:
            return GroupSet.from_elements(nbits, [])
        return GroupSet.from_bitmap(nbits, np.ones(1 << nbits, dtype=bool))

    t = x & -x  # M = y (x) t solves Mx = y, and t (x) y solves M^T x = y
    if kind == "row":
        constraints = [rank1_flat(shape, (1 << i, x)) for i in range(m)]
        particular = rank1_flat(shape, (y, t))
    else:
        constraints = [rank1_flat(shape, (x, 1 << j)) for j in range(n)]
        particular = rank1_flat(shape, (t, y))

    homog = rref(constraints, nbits).complement()
    return GroupSet.from_elements(nbits, particular ^ subspace_elements(homog))


def subspace_groupset(space: Subspace) -> GroupSet:
    return GroupSet.from_elements(space.ambient_dim, subspace_elements(space))
