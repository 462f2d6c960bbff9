"""Exact Fourier analysis over F2^n with integer arithmetic.

Spectra are stored as signed integers scaled by 2^n: coeffs[r] =
sum_x f(x) (-1)^(r.x).  Every transform asserts the integer Parseval
identity sum_r coeffs[r]^2 == 2^n sum_x f(x)^2; a violation raises, so no
corrupted spectrum can propagate.  A width guard refuses inputs whose
exact transform could leave signed 64-bit range, so the verified energy
sum_r coeffs[r]^2 is below 2^63.  It bounds every weighted spectral sum
sum_r coeffs[r]^2 w[r] (closedness, mixed energy), which ``spectral_sum``
takes exactly: modulo 2^64 in one pass, and modulo at most three primes
more when the bound passes 2^63.

The transform's levels are matrix products: H_{2^n} is a Kronecker product
of 16x16 Sylvester factors, so every four levels are one GEMM.  The GEMMs
are exact because every value and every partial sum is a signed sum of
input entries, at most the input's l1 norm.  Each caller passes a bound on
it: below 2^24 the GEMMs run in float32, otherwise in float64.  The
transform's guard keeps its bound below 2^31.5, and ``sumset_support``'s
product pass is at most 2^2n <= 2^52, since it refuses n > 26.  Transforms
above 2^16 points are cache-blocked: the low 16 levels run inside each
2^16-point block (512 KiB of int64, resident in a core's L2) and the
remaining levels across the blocks, a slab of columns at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .budgets import (
    BudgetExceeded,
    DimensionMismatch,
    VerificationFailure,
    check_enumeration,
    check_group_exponent,
)
from .gf2 import Subspace, rref


@dataclass(frozen=True, eq=False)
class GroupSet:
    """A plain subset of F2^n, elements stored as a sorted index array."""

    n: int
    elements: np.ndarray  # sorted int64, unique

    @classmethod
    def from_elements(cls, n: int, elems: Iterable[int] | np.ndarray) -> "GroupSet":
        if isinstance(elems, np.ndarray):
            arr = np.sort(elems.astype(np.int64, copy=False))
        else:
            arr = np.sort(np.fromiter(elems, dtype=np.int64))
        dup = arr[1:] == arr[:-1]
        if dup.any():
            arr = np.delete(arr, np.flatnonzero(dup) + 1)
        if arr.size and (arr[0] < 0 or arr[-1] >> n):
            raise DimensionMismatch(f"element out of range for F2^{n}")
        return cls(n, arr)

    @classmethod
    def from_bitmap(cls, n: int, bitmap: np.ndarray) -> "GroupSet":
        return cls(n, np.flatnonzero(bitmap).astype(np.int64, copy=False))

    @property
    def size(self) -> int:
        return int(self.elements.size)

    @property
    def density(self) -> Fraction:
        return Fraction(self.size, 1 << self.n)

    def bitmap(self) -> np.ndarray:
        check_group_exponent(self.n)
        out = np.zeros(1 << self.n, dtype=bool)
        out[self.elements] = True
        return out

    def __eq__(self, other):
        return (
            isinstance(other, GroupSet)
            and self.n == other.n
            and np.array_equal(self.elements, other.elements)
        )


@dataclass(frozen=True)
class GroupMultiset:
    """Multiset over F2^n: element -> multiplicity >= 1."""

    n: int
    counts: Mapping[int, int]

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "GroupMultiset":
        acc: dict[int, int] = {}
        for elem, mult in pairs:
            if mult < 1:
                raise ValueError("multiplicities must be >= 1")
            if elem < 0 or elem >> n:
                raise DimensionMismatch(f"element out of range for F2^{n}")
            acc[elem] = acc.get(elem, 0) + mult
        return cls(n, acc)

    @classmethod
    def from_elements(cls, n: int, elems: Iterable[int]) -> "GroupMultiset":
        return cls.from_pairs(n, ((e, 1) for e in elems))

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def support_size(self) -> int:
        return len(self.counts)

    def counts_array(self) -> np.ndarray:
        check_group_exponent(self.n)
        out = np.zeros(1 << self.n, dtype=np.int64)
        size = len(self.counts)
        out[np.fromiter(self.counts.keys(), np.int64, size)] = np.fromiter(
            self.counts.values(), np.int64, size
        )
        return out


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Integer-scaled Walsh coefficients of an integer-valued function."""

    n: int
    coeffs: np.ndarray  # int64, length 2^n
    energy: int  # sum_r coeffs[r]^2 = 2^n sum_x f(x)^2 < 2^63, checked by the transform


@dataclass(frozen=True, eq=False)
class RationalSpectrum:
    """Spectrum of a characteristic measure: numerators over one total."""

    n: int
    numerators: np.ndarray  # int64
    denominator: int

    def value(self, r: int) -> Fraction:
        return Fraction(int(self.numerators[r]), self.denominator)


_BLOCK = 1 << 16  # points per cache-resident block: 512 KiB of int64, a quarter of L2
_SLAB = 1 << 12  # columns per slab in the levels across blocks
# multiply-adds per GEMM: OpenBLAS runs up to 2^18 on the calling thread, in sgemm as in
# dgemm (a float32 2^20 transform took 1.0 CPU-s per s at 2^18 and 2.0 at 2^19, on a 2-core
# host with OPENBLAS_NUM_THREADS unset); threaded, a float64 2^20 transform ran 30 times
# slower on such a host that two other busy processes shared
_GEMM_MULADDS = 1 << 18
_FLOAT32_EXACT = 1 << 24  # float32 holds every integer of magnitude up to 2^24
# the Sylvester factors H_{2^k}[i, j] = (-1)^(i.j), k <= 4, in both BLAS widths
_FACTORS = {
    dtype: tuple(
        ((-1.0) ** np.bitwise_count(np.arange(1 << k)[:, None] & np.arange(1 << k))).astype(dtype)
        for k in range(5)
    )
    for dtype in (np.float32, np.float64)
}


def _levels(v: np.ndarray, bufs: np.ndarray) -> None:
    """Every Walsh-Hadamard level along axis 0 of the int64 view ``v``, in place.

    H_{2^L} is the Kronecker product of Sylvester factors H_{2^k}, k <= 4
    (Van Loan, *Computational Frameworks for the FFT*, 1992), so every four
    levels are one GEMM.  ``bufs`` holds two float32 or float64 arrays of
    ``v``'s shape: ``v`` is copied into the first, the GEMMs ping-pong
    between them in that width, and the result is written back into ``v``.
    A 1-D block takes each factor as ``H @ x.reshape(-1, 2^k).T``: that
    transforms the low k index bits and rotates the index right by k, so
    after all the levels every bit is back in place.  Further axes of ``v``
    are columns transformed side by side: the factor is applied batched
    along axis 0, to the index bits of stride ``step``.  Each GEMM is split
    by columns into calls of at most _GEMM_MULADDS multiply-adds.

    The width is exact here: every value and every partial sum inside a
    GEMM is a signed sum of distinct input entries, so it is at most the
    input's l1 norm, which the caller keeps below 2^24 for float32 and
    below 2^53 for float64.
    """
    src, dst = bufs
    src[...] = v
    factors = _FACTORS[bufs.dtype.type]
    levels, step = v.shape[0].bit_length() - 1, v.size // v.shape[0]
    while levels:
        k = min(levels, 4)
        h, size = factors[k], 1 << k
        if v.ndim == 1:
            x, out = src.reshape(-1, size).T, dst.reshape(size, -1)
        else:
            x, out = src.reshape(-1, size, step), dst.reshape(-1, size, step)
            step *= size
        cols = _GEMM_MULADDS >> 2 * k
        for lo in range(0, x.shape[-1], cols):
            np.matmul(h, x[..., lo : lo + cols], out=out[..., lo : lo + cols])
        src, dst = dst, src
        levels -= k
    v[...] = src


def _butterfly(a: np.ndarray, bound: int) -> np.ndarray:
    """In-place Walsh-Hadamard butterfly over a contiguous int64 array.

    ``bound`` is at least the l1 norm of ``a``, and it picks the GEMMs'
    width: float32 below 2^24, float64 otherwise.  Up to _BLOCK points the
    transform is one run of GEMM levels over the whole array.  Above, each
    pass over the whole array would stream it through the last-level cache,
    so the transform is blocked (the "four-step" order of Bailey, *FFTs in
    external or hierarchical memory*, 1990): the low 16 levels inside each
    cache-resident row of the (size / _BLOCK, _BLOCK) view, then the
    remaining levels along its axis 0, one slab of _SLAB columns at a time.
    The two work buffers are allocated once per call, sized to one block or
    one slab, so peak memory is the array plus them.  The levels commute,
    so the output is the same in every order.
    """
    dtype = np.float32 if bound < _FLOAT32_EXACT else np.float64
    if a.size <= _BLOCK:
        _levels(a, np.empty((2, a.size), dtype))
        return a
    rows = a.reshape(-1, _BLOCK)
    if not np.shares_memory(rows, a):
        raise ValueError("the butterfly needs a contiguous array to work in place")
    slab = rows.shape[0] * _SLAB
    work = np.empty(2 * max(_BLOCK, slab), dtype)
    bufs = work[: 2 * _BLOCK].reshape(2, _BLOCK)
    for row in rows:
        _levels(row, bufs)
    bufs = work[: 2 * slab].reshape(2, -1, _SLAB)
    for lo in range(0, _BLOCK, _SLAB):
        _levels(rows[:, lo : lo + _SLAB], bufs)
    return a


# Distinct primes below 2^31: a product of two residues is below 2^62, and a
# sum of < 2^31 reduced products stays inside int64.
_PRIMES = (2147483647, 2147483629, 2147483587)


def spectral_sum(spec: Spectrum, w) -> int:
    """sum_r spec.coeffs[r]^2 * w[r] for int64 weights ``w``, exactly.

    The sum is at most bound = energy * max|w| < 2^126 in size.  Its residue
    modulo 2^64 is one wrapping uint64 pass over coeffs, coeffs and ``w``,
    with no array of squares.  While the modulus is at most 2 * bound, a
    residue modulo the next prime below 2^31 is joined to it by one step of
    Garner's incremental Chinese remainder theorem (Knuth, TAOCP vol. 2,
    4.3.2); each square there is at most the energy, so it fits int64.
    2^64 times the three primes exceeds 2^156 > 2 * bound, so at most three
    primes are needed, and none while bound < 2^63.
    """
    c = spec.coeffs
    w = np.asarray(w, dtype=np.int64)
    if w.shape != c.shape or c.size >= 2**31:
        raise DimensionMismatch("weights must be one per coefficient, fewer than 2^31")
    bound = spec.energy * max(int(w.max()), -int(w.min()))
    cu = c.view(np.uint64)
    total, modulus = int(np.einsum("i,i,i->", cu, cu, w.view(np.uint64))), 1 << 64
    for p in _PRIMES:
        if modulus > 2 * bound:
            break
        terms = np.remainder(c * c, p) * np.remainder(w, p)
        r = int(np.remainder(terms, p, out=terms).sum())
        total += modulus * ((r - total) * pow(modulus, -1, p) % p)
        modulus *= p
    return total - modulus if total > modulus // 2 else total


def wht(f, n: int | None = None) -> Spectrum:
    """Exact Walsh-Hadamard transform: coeffs[r] = sum_x f(x)(-1)^(r.x).

    O(N log N) work in GEMM levels, float32 when the input's l1 norm is
    below 2^24 and float64 otherwise; applying it twice returns 2^n * f.
    The energy sum f^2 bounds the l1 norm of an integer f, so the norm
    itself is summed only when the energy reaches 2^24.  Raises
    BudgetExceeded if the exact result might not fit int64, and
    VerificationFailure if the integer Parseval identity fails.
    """
    arr = np.array(f, dtype=np.int64, copy=True)
    if n is None:
        n = int(arr.size).bit_length() - 1
    if arr.size != 1 << n:
        raise DimensionMismatch(f"array length {arr.size} is not 2^{n}")
    check_group_exponent(n)
    if isinstance(f, np.ndarray) and f.dtype == bool:  # a bitmap: sum(f^2) counts its ones
        s_in = l1 = int(np.count_nonzero(f))
    else:
        peak = max(int(arr.max()), -int(arr.min()))
        if (1 << n) * peak**2 >= 2**63:
            raise BudgetExceeded(f"2^{n} * max|f|^2 = {(1 << n) * peak**2} exceeds signed-64 range")
        s_in = int(np.dot(arr, arr))  # every partial sum is at most 2^n peak^2
        l1 = s_in if s_in < _FLOAT32_EXACT else int(np.abs(arr).sum())
    if (1 << n) * s_in >= 2**63:
        raise BudgetExceeded(f"2^{n} * sum(f^2) = {(1 << n) * s_in} exceeds signed-64 range")
    out = _butterfly(arr, l1)
    s_out = int(np.dot(out, out))  # nonnegative terms bounded by the exact total
    if s_out != (1 << n) * s_in:
        raise VerificationFailure(
            f"integer Parseval violated: {s_out} != 2^{n} * {s_in}"
        )
    return Spectrum(n, out, s_out)


def indicator_spectrum(a: GroupSet) -> Spectrum:
    return wht(a.bitmap(), a.n)


def sumset_support(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bitmap of A + B = {x + y}, the support of the convolution 1_A * 1_B.

    ``a`` and ``b`` are 0/1 bitmaps over F2^n, so their butterflies' l1
    bounds are |A| and |B|.  The butterfly of the product of their
    transforms is 2^n * #{(x, y) in A x B : x + y = z}.  Every partial sum
    of it is at most sum_r |a^(r) b^(r)| <= 2^n sqrt(|A| |B|) <= 2^2n
    (Cauchy-Schwarz and Parseval).  That is its butterfly's l1 bound, so
    its GEMMs are float64 once the bound reaches 2^24, and exact up to
    n = 26; a larger n raises BudgetExceeded.
    """
    if a.shape != b.shape or a.ndim != 1 or not a.size or a.size & (a.size - 1):
        raise DimensionMismatch("bitmaps must be equal-length arrays of 2^n entries")
    n = a.size.bit_length() - 1
    check_group_exponent(n)
    if n > 26:
        raise BudgetExceeded(f"a sumset over F2^{n} reaches 2^{2 * n}, past float64's 2^53")
    size_a, size_b = int(np.count_nonzero(a)), int(np.count_nonzero(b))
    fa = _butterfly(a.astype(np.int64), size_a)
    fb = fa if b is a else _butterfly(b.astype(np.int64), size_b)
    bound = (1 << n) * (math.isqrt(size_a * size_b) + 1)
    return _butterfly(np.multiply(fa, fb, out=fa), bound) > 0


def mu_hat(b: GroupMultiset) -> RationalSpectrum:
    """Exact spectrum of the characteristic measure mu_B.

    mu_hat(r) = (sum_b mult(b) (-1)^(r.b)) / total; mu_hat(0) = 1.
    """
    total = b.total
    if total < 1:
        raise ValueError("empty multiset has no characteristic measure")
    spec = wht(b.counts_array(), b.n)
    return RationalSpectrum(b.n, spec.coeffs, total)


def check_operands(a: GroupSet, b: GroupMultiset) -> None:
    """Refuse an empty A or B, then an A and B over different groups."""
    if a.size < 1 or b.total < 1:
        raise ValueError("A and B must be nonempty")
    if a.n != b.n:
        raise DimensionMismatch("A and B live in different groups")


def spectral_closedness(a: GroupSet, b: GroupMultiset) -> Fraction:
    """(B,eta)-closedness of A computed entirely in Fourier space.

    Returns sum_r |1_A^(r)|^2 mu_B^(r) / sum_r |1_A^(r)|^2 as an exact
    rational; by the convolution law this equals the combinatorial pair
    count |{(a,b): a+b in A}| / (|A| |B|).
    """
    check_operands(a, b)
    spec = indicator_spectrum(a)
    num = spectral_sum(spec, wht(b.counts_array(), b.n).coeffs)
    return Fraction(num, b.total * spec.energy)


def large_spectrum(spec: Spectrum, sq_threshold: Fraction) -> list[int]:
    """{r : f^(r)^2 >= sq_threshold}, compared exactly as integers.

    For f = 1_A, Parseval bounds the count by alpha / sq_threshold.
    """
    sq_threshold = Fraction(sq_threshold)
    if sq_threshold <= 0:
        raise ValueError("threshold must be positive")
    # f^(r) = coeffs[r] / 2^n, so the test is coeffs[r]^2 >= ceil(sq_threshold 4^n), which
    # for an integer c is |c| >= t = ceil(sqrt(bound)): no 2^n temporary of squares
    bound = -(-sq_threshold.numerator * (1 << 2 * spec.n) // sq_threshold.denominator)
    t = math.isqrt(bound - 1) + 1
    c = spec.coeffs
    large = c >= t
    for lo in range(0, c.size, _BLOCK):  # a block at a time: no second 2^n-entry temporary
        large[lo : lo + _BLOCK] |= c[lo : lo + _BLOCK] <= -t
    return np.flatnonzero(large).tolist()


def bogolyubov(s: GroupSet) -> Subspace:
    """Subspace of codim <= 2/alpha^2 inside 2S - 2S = {s1+s2+s3+s4}.

    Constructive large-spectrum proof: V is the orthogonal complement of
    the span of {r : |1_S^(r)|^2 >= alpha^3/2}.  Membership of every
    element of V in the 4-fold sumset is then verified against the bitmap
    of (S + S) + (S + S), two exact sumset supports; failure of that check
    is a bug, not a data condition, and raises VerificationFailure.
    """
    if s.size == 0:
        raise ValueError("S must be nonempty")
    bits = s.bitmap()
    v = rref(large_spectrum(wht(bits, s.n), s.density**3 / 2), s.n).complement()
    two = sumset_support(bits, bits)
    del bits  # 2^n bytes less at the peak of the second sumset
    four = sumset_support(two, two)  # S+S+S+S = 2S - 2S over F2
    if v.codim == 0 and four.all():  # V is the whole group: no need to list it
        return v
    elems = subspace_elements(v)
    failed = np.flatnonzero(~four[elems])
    if failed.size:
        raise VerificationFailure(
            f"element {int(elems[failed[0]]):#x} of the extracted subspace failed the 4-sum check"
        )
    return v


def subspace_elements(v: Subspace) -> np.ndarray:
    """``v.enumerate()`` as an int64 array: the span by doubling, read in Gray-code order."""
    check_enumeration(1 << v.dim)
    span = np.zeros(1, dtype=np.int64)
    for row in v.rows:
        span = np.concatenate((span, span ^ row))
    i = np.arange(span.size, dtype=np.int64)
    return span[i ^ (i >> 1)]


def random_groupset(n: int, size: int, rng) -> GroupSet:
    check_group_exponent(n)
    elems = rng.choice(1 << n, size=size, replace=False)
    return GroupSet.from_elements(n, elems)
