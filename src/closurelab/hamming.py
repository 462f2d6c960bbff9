"""Layered Hamming sets, slice spectra, B'-compatibility, and the worked
closedness scenarios.

Everything quantitative here is either an exact big-integer computation
(Krawtchouk sums, layer sizes, closedness of weight-defined sets) or a
seeded Monte Carlo estimate with a stated confidence radius.  The
headline constants of the layered counterexample are asymptotic; the
desk-scale harness exposes the cutoff constant c in n/2 - c*n^(3/4) as a
parameter and measures trends.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .budgets import BudgetExceeded, check_group_exponent
from .closure import (
    SampledEstimate,
    closedness_exact,
    closedness_sampled,
    inversion_sampler,
    sampled_fraction,
)
from .gf2 import rref
from .spectral import GroupMultiset, GroupSet, mu_hat

WINDOW_EPS = Fraction(1, 4)  # eps of the two almost-closed window scenarios


def weight_bitmap(n: int, lo: int, hi: int, support: int | None = None) -> np.ndarray:
    """Bitmap of {v in F2^n : lo <= |v| <= hi}, and v inside ``support`` if given."""
    check_group_exponent(n)
    points = np.arange(1 << n, dtype=np.int64)
    weights = np.bitwise_count(points)  # uint8
    bitmap = (weights >= lo) & (weights <= hi)
    if support is not None:
        bitmap &= (points & ~support) == 0
    return bitmap


def layer_groupset(n: int, lo: int, hi: int) -> GroupSet:
    return GroupSet.from_bitmap(n, weight_bitmap(n, lo, hi))


def standard_basis_multiset(n: int, support: int | None = None) -> GroupMultiset:
    """Basis vectors as a multiset, optionally restricted to a support mask."""
    picks = [1 << i for i in range(n) if support is None or (support >> i) & 1]
    return GroupMultiset.from_elements(n, picks)


@dataclass(frozen=True)
class LayerSet:
    """{v : lo <= |v| <= hi}, exact size at any n, dense only when small."""

    n: int
    lo: int
    hi: int

    def __post_init__(self):
        if not 0 <= self.lo <= self.hi <= self.n:
            raise ValueError(f"bad layer bounds [{self.lo}, {self.hi}] for n={self.n}")

    @classmethod
    def below_cutoff(cls, n: int, c: float) -> "LayerSet":
        """{v : |v| <= n/2 - c * n^(3/4)}."""
        hi = math.floor(n / 2 - c * n**0.75)
        if hi < 0:
            raise ValueError(f"cutoff constant {c} empties the set at n={n}")
        return cls(n, 0, hi)

    @property
    def size(self) -> int:
        return sum(math.comb(self.n, w) for w in range(self.lo, self.hi + 1))

    def weight_masses(self) -> dict[int, int]:
        return {w: math.comb(self.n, w) for w in range(self.lo, self.hi + 1)}

    def to_groupset(self) -> GroupSet:
        return layer_groupset(self.n, self.lo, self.hi)


@dataclass(frozen=True)
class SliceSet:
    """{v : |v| = w}, the Hamming sphere of one weight."""

    n: int
    w: int

    def __post_init__(self):
        if not 0 <= self.w <= self.n:
            raise ValueError(f"bad slice weight {self.w} for n={self.n}")

    @property
    def size(self) -> int:
        return math.comb(self.n, self.w)

    def to_groupset(self) -> GroupSet:
        return layer_groupset(self.n, self.w, self.w)


def slice_mu_hat(n: int, w: int, u_weight: int) -> Fraction:
    """mu_hat of the full weight-w slice at any u of the given weight.

    Krawtchouk character sum over binomials:
    K_w(u; n) = sum_j (-1)^j C(u, j) C(n-u, w-j), normalized by C(n, w).
    """
    if not (0 <= w <= n and 0 <= u_weight <= n):
        raise ValueError("weights out of range")
    k = sum(
        (-1) ** j * math.comb(u_weight, j) * math.comb(n - u_weight, w - j)
        for j in range(0, min(u_weight, w) + 1)
    )
    return Fraction(k, math.comb(n, w))


@dataclass(frozen=True)
class ConcentrationResult:
    mode: str  # "exact" | "slice"
    count: int
    members: list[int]  # vectors (exact mode) or contributing weights (slice)


def fourier_concentration(
    bprime: GroupMultiset | SliceSet, threshold: Fraction
) -> ConcentrationResult:
    """Exact #{u : mu_hat_{B'}(u) >= threshold}.

    A GroupMultiset goes through the dense transform; a full slice is
    swept weight by weight through the Krawtchouk closed form, which
    works at any n since the coefficient depends only on |u|.
    """
    threshold = Fraction(threshold)
    if isinstance(bprime, SliceSet):
        weights = [
            uw
            for uw in range(bprime.n + 1)
            if slice_mu_hat(bprime.n, bprime.w, uw) >= threshold
        ]
        count = sum(math.comb(bprime.n, uw) for uw in weights)
        return ConcentrationResult("slice", count, weights)
    spec = mu_hat(bprime)
    members = [
        r
        for r in range(1 << bprime.n)
        if Fraction(int(spec.numerators[r]), spec.denominator) >= threshold
    ]
    return ConcentrationResult("exact", len(members), members)


# ---------------------------------------------------------------------------
# B'-compatibility
# ---------------------------------------------------------------------------


def _slice_compatible_weights(layer: LayerSet, sl: SliceSet) -> set[int]:
    """Weights m with #{w in slice: u.w >= |w|/2} >= slice.size/3 at |u|=m.

    The inner count is exact: overlap j of a weight-w slice vector with a
    fixed weight-m point follows C(m,j) C(n-m, w-j), and |u+w| <= |u| is
    the integer condition 2j >= w.
    """
    n, w = sl.n, sl.w
    need = -(-w // 2)  # ceil(w/2)
    out = set()
    for m in range(layer.lo, layer.hi + 1):
        good = sum(
            math.comb(m, j) * math.comb(n - m, w - j) for j in range(need, w + 1)
        )
        if 3 * good >= sl.size:
            out.add(m)
    return out


def compatibility_fraction_exact(layer: LayerSet, sl: SliceSet) -> Fraction:
    """Exact mass fraction of the layer set that is B'-compatible, for a
    full-slice B'."""
    good_weights = _slice_compatible_weights(layer, sl)
    mass = sum(math.comb(layer.n, m) for m in good_weights)
    return Fraction(mass, layer.size)


# u samples x B' elements per overlap block of an explicit B'
_COMPAT_BLOCK = 1 << 16


def compatibility_fraction(
    layer: LayerSet, bprime: SliceSet | Sequence[int], u_samples: int, seed: int
) -> SampledEstimate:
    """Monte Carlo fraction of u in the layer set that are B'-compatible.

    u is compatible when at least a third of B' does not increase its
    weight; the inner test uses the integer reformulation u.w >= |w|/2.
    For a full slice the inner count is evaluated in closed form, so each
    sample only needs its weight; an explicit B' is scanned directly.
    """
    n = layer.n
    draw_weights = _weight_sampler(layer)
    if isinstance(bprime, SliceSet):
        good_mask = np.zeros(n + 1, dtype=bool)
        good_mask[sorted(_slice_compatible_weights(layer, bprime))] = True

        def chunk_hits(rng, count: int) -> int:
            return int(np.count_nonzero(good_mask[draw_weights(rng, count)]))

        return sampled_fraction(chunk_hits, u_samples, seed)
    if n > 64:
        raise BudgetExceeded("an explicit B' supports n <= 64")
    b_arr = np.array([int(w) for w in bprime], dtype=np.uint64)
    b_sizes = np.bitwise_count(b_arr)
    block = max(1, _COMPAT_BLOCK // max(b_arr.size, 1))

    def chunk_hits(rng, count: int) -> int:
        us = np.array(
            [_random_point_of_weight(n, m, rng) for m in draw_weights(rng, count).tolist()],
            dtype=np.uint64,
        )
        hits = 0
        for lo in range(0, count, block):
            overlap = np.bitwise_count(us[lo:lo + block, None] & b_arr)
            stay = np.count_nonzero(2 * overlap >= b_sizes, axis=1)
            hits += int(np.count_nonzero(3 * stay >= b_arr.size))
        return hits

    return sampled_fraction(chunk_hits, u_samples, seed)


def _random_point_of_weight(n: int, m: int, rng) -> int:
    idx = rng.permutation(n)[:m]
    v = 0
    for i in idx.tolist():
        v |= 1 << int(i)
    return v


def is_compatible(u: int, bprime: Iterable[int]) -> bool:
    """Direct definition: at least a third of B' does not increase |u|."""
    b_list = [int(w) for w in bprime]
    stay = sum(
        1 for w in b_list if (u ^ w).bit_count() <= u.bit_count()
    )
    return 3 * stay >= len(b_list)


# ---------------------------------------------------------------------------
# samplers for weight-defined sets beyond enumeration range (n <= 64)
# ---------------------------------------------------------------------------


_KEY_BLOCK = 512  # rows of keys drawn and ranked at a time: 256 KiB at n = 64, inside L2


def _smallest_key_bits(rng, n: int, cutoffs: np.ndarray) -> np.ndarray:
    """Per row i, a packed uint64 with bits at the ``cutoffs[i]`` smallest of
    n uniform keys drawn from ``rng``.

    The keys are drawn ``_KEY_BLOCK`` rows at a time; consecutive draws are
    the same doubles as one ``rng.random((len(cutoffs), n))``.  The bits are
    ``keys.argsort(1).argsort(1) < cutoffs[:, None]``, read off one sort per
    row and a threshold; a row whose threshold key is tied, so that it marks
    more than ``cutoffs[i]`` bits, takes the double argsort.
    """
    nbytes = (n + 7) // 8
    packed = np.zeros((cutoffs.size, 8), dtype=np.uint8)
    words = packed.view("<u8").ravel()
    for lo in range(0, cutoffs.size, _KEY_BLOCK):
        cut = cutoffs[lo:lo + _KEY_BLOCK]
        rows = packed[lo:lo + cut.size]
        keys = rng.random((cut.size, n))
        ordered = np.sort(keys, axis=1)
        thresholds = np.take_along_axis(ordered, np.maximum(cut - 1, 0)[:, None], axis=1)
        thresholds[cut == 0] = -1.0  # keys lie in [0, 1): no bit
        rows[:, :nbytes] = np.packbits(keys <= thresholds, axis=1, bitorder="little")
        tied = np.flatnonzero(np.bitwise_count(words[lo:lo + cut.size]) != cut)
        if tied.size:
            ranks = keys[tied].argsort(axis=1).argsort(axis=1)
            rows[tied, :nbytes] = np.packbits(ranks < cut[tied, None], axis=1, bitorder="little")
    return words


def fixed_weight_sampler(n: int, w: int):
    """Uniform random vectors of exactly weight w, packed as uint64."""
    if n > 64:
        raise BudgetExceeded("samplers support n <= 64")
    if not 0 <= w <= n:
        raise ValueError(f"bad slice weight {w} for n={n}")

    def sample(rng, count: int) -> np.ndarray:
        return _smallest_key_bits(rng, n, np.full(count, w))

    return sample


def _weight_sampler(layer: LayerSet):
    """Weights of uniform layer points: m with probability C(n, m) / |layer|."""
    masses = layer.weight_masses()
    return inversion_sampler(list(masses), list(masses.values()))


def layer_sampler(layer: LayerSet):
    """Uniform sampler over a layer set: weight by mass, then positions."""
    if layer.n > 64:
        raise BudgetExceeded("samplers support n <= 64")
    draw_weights = _weight_sampler(layer)
    n = layer.n

    def sample(rng, count: int) -> np.ndarray:
        return _smallest_key_bits(rng, n, draw_weights(rng, count))

    return sample


def layer_member(layer: LayerSet):
    def member(xs: np.ndarray) -> np.ndarray:
        w = np.bitwise_count(xs).astype(np.int64)
        return (w >= layer.lo) & (w <= layer.hi)

    return member


def layered_pair_eta_exact(layer: LayerSet, sl: SliceSet) -> Fraction:
    """Exact closedness of a layer set under a full-slice generator set.

    eta = sum_m mass(m)/|A| * P(|u + w| in [lo, hi]  given |u| = m); the
    inner probability is a hypergeometric overlap sum since
    |u + w| = m + |w| - 2j at overlap j.
    """
    n, w = sl.n, sl.w
    slice_size = sl.size
    num = 0
    for m, mass in layer.weight_masses().items():
        stay = sum(
            math.comb(m, j) * math.comb(n - m, w - j)
            for j in range(w + 1)
            if layer.lo <= m + w - 2 * j <= layer.hi
        )
        num += mass * stay
    return Fraction(num, layer.size * slice_size)


def layered_pair_eta_sampled(
    layer: LayerSet, sl: SliceSet, samples: int, seed: int
) -> SampledEstimate:
    """Seeded estimate of the same quantity through the generic estimator."""
    return closedness_sampled(
        layer_member(layer), layer_sampler(layer), fixed_weight_sampler(sl.n, sl.w), samples, seed
    )


# ---------------------------------------------------------------------------
# worked scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioRow:
    name: str
    params: dict
    measured: str
    claim: str
    passed: bool | None  # None = reported, not asserted

    def to_json(self) -> dict:
        return asdict(self)


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def two_layer_scenario(n: int) -> ScenarioRow:
    """Middle two layers vs the standard basis: eta = (n+1)/2n exactly."""
    if n % 2 == 0:
        raise ValueError("two-layer scenario needs odd n")
    half = (n - 1) // 2
    a = layer_groupset(n, half, half + 1)
    eta = closedness_exact(a, standard_basis_multiset(n)).eta
    expected = Fraction(n + 1, 2 * n)
    return ScenarioRow(
        "two-middle-layers",
        {"n": n},
        _frac(eta),
        f"eta == (n+1)/2n = {_frac(expected)}",
        eta == expected,
    )


def prefix_two_layer_scenario(n: int, m: int) -> ScenarioRow:
    """Weights m, m+1 supported on the first 2m coordinates; about 1/4-closed."""
    a = GroupSet.from_bitmap(n, weight_bitmap(n, m, m + 1, (1 << (2 * m)) - 1))
    eta = closedness_exact(a, standard_basis_multiset(n)).eta
    return ScenarioRow(
        "prefix-two-layers",
        {"n": n, "m": m},
        _frac(eta),
        "eta >= 1/4",
        eta >= Fraction(1, 4),
    )


def third_weight_scenario(n: int) -> ScenarioRow:
    """{|x| <= n/3} vs the basis: at least 1/3-closed (more like 2/3)."""
    a = layer_groupset(n, 0, n // 3)
    eta = closedness_exact(a, standard_basis_multiset(n)).eta
    return ScenarioRow(
        "at-most-n-third",
        {"n": n},
        _frac(eta),
        "eta >= 1/3",
        eta >= Fraction(1, 3),
    )


def random_translate_fixture(n: int, parts: int, seed: int):
    """Disjoint coordinate-span translates with no cross-closures.

    Partitions the coordinates into equal parts, spans each part, and
    rejects translate choices until every pairwise difference has at
    least two coordinates outside the union of the two parts involved;
    that makes x+e_k stay inside the original part's coset or leave the
    union entirely, giving exactly 1/parts closedness.
    """
    if n % parts:
        raise ValueError("parts must divide n")
    rng = np.random.default_rng(seed)
    perm = [int(i) for i in rng.permutation(n)]
    step = n // parts
    masks = []
    for p in range(parts):
        mask = 0
        for i in perm[p * step : (p + 1) * step]:
            mask |= 1 << i
        masks.append(mask)

    spans = [rref([1 << i for i in range(n) if (mask >> i) & 1], n) for mask in masks]
    while True:
        translates = [int(rng.integers(0, 1 << n)) for _ in range(parts)]
        ok = True
        for i in range(parts):
            for j in range(i + 1, parts):
                outside = ~(masks[i] | masks[j]) & ((1 << n) - 1)
                if ((translates[i] ^ translates[j]) & outside).bit_count() < 2:
                    ok = False
        if ok:
            break

    elems: set[int] = set()
    for span, t in zip(spans, translates):
        for v in span.enumerate():
            elems.add(v ^ t)
    a = GroupSet.from_elements(n, elems)
    if a.size != parts << step:  # pragma: no cover - enforced by rejection
        raise AssertionError("coset overlap despite rejection sampling")
    return a, masks, translates


def random_translate_scenario(n: int, parts: int, seed: int) -> ScenarioRow:
    a, _, _ = random_translate_fixture(n, parts, seed)
    eta = closedness_exact(a, standard_basis_multiset(n)).eta
    expected = Fraction(1, parts)
    return ScenarioRow(
        "random-translates",
        {"n": n, "parts": parts, "seed": seed},
        _frac(eta),
        f"eta == 1/{parts} exactly",
        eta == expected,
    )


def _convolution_floor(a_bitmap: np.ndarray, l: int) -> np.ndarray:
    """counts[x] = #{(i_1..i_l) : x + e_i1 + ... + e_il in A}, standard basis e_i."""
    counts = a_bitmap.astype(np.int64)
    for _ in range(l):
        nxt = np.zeros_like(counts)
        b = 1
        while b < counts.size:
            # x -> x ^ b flips the middle axis of this view
            nxt.reshape(-1, 2, b)[...] += counts.reshape(-1, 2, b)[:, ::-1, :]
            b <<= 1
        counts = nxt
    return counts


def _window_rows(
    name: str, params: dict, window: np.ndarray, support: int, a_bitmap: np.ndarray,
    l: int, target: Fraction, target_text: str,
) -> list[ScenarioRow]:
    """The two rows of an almost-closed window C (a bitmap): its eta against
    the basis vectors of ``support``, and min over x in C of the chance that
    l basis steps from x land in A, against ``target``."""
    n = params["n"]
    c = GroupSet.from_bitmap(n, window)
    eta = closedness_exact(c, standard_basis_multiset(n, support)).eta
    floor = Fraction(int(_convolution_floor(a_bitmap, l)[c.elements].min()), n**l)
    return [
        ScenarioRow(
            name,
            {**params, "eps": str(WINDOW_EPS)},
            _frac(eta),
            f"eta >= 1 - eps = {_frac(1 - WINDOW_EPS)}",
            eta >= 1 - WINDOW_EPS,
        ),
        ScenarioRow(
            f"{name}-reach",
            {**params, "l": l},
            _frac(floor),
            f"min_x P(x + b_1..b_l in A) >= {target_text} = {_frac(target)}",
            floor >= target,
        ),
    ]


def bounded_support_middle_scenario(n: int, m: int) -> list[ScenarioRow]:
    """The almost-closed set for the middle-layers example.

    C = {x : support in first m coords, (m-1)/2 - 1/eps <= |x| <= (m+1)/2 + 1/eps};
    B' = the basis vectors of the support.  C should be (B',1-eps)-closed,
    and every x in C reaches the two middle layers by l = 1/eps basis
    steps with probability at least (m/2n)^l.
    """
    if m % 2 == 0:
        raise ValueError("m must be odd")
    l = int(1 / WINDOW_EPS)
    mid = (m - 1) // 2
    support = (1 << m) - 1
    window = weight_bitmap(n, max(0, mid - l), min(m, mid + 1 + l), support)
    a_bitmap = weight_bitmap(n, mid, mid + 1, support)
    return _window_rows("bounded-support-window", {"n": n, "m": m}, window, support, a_bitmap,
                        l, Fraction(m, 2 * n) ** l, "(m/2n)^l")


def third_window_scenario(n: int) -> list[ScenarioRow]:
    """The almost-closed set for the at-most-n/3 example.

    C = {x : support in first 2n/3 coords, |x| <= n/3 + 1/eps};
    B' = those basis vectors.  C should be (B',1-eps)-closed and reach
    A = {|x| <= n/3} in l steps with probability at least (1/3)^l.
    """
    if n % 3:
        raise ValueError("n must be divisible by 3")
    l = int(1 / WINDOW_EPS)
    m = 2 * n // 3
    support = (1 << m) - 1
    window = weight_bitmap(n, 0, min(m, n // 3 + l), support)
    return _window_rows("third-window", {"n": n}, window, support, weight_bitmap(n, 0, n // 3),
                        l, Fraction(1, 3) ** l, "(1/3)^l")


def counterexample_scenarios(
    two_layer_ns: Sequence[int] = (5, 7, 9, 11),
    third_n: int = 15,
    translate_n: int = 12,
    translate_seed: int = 7,
    window_n: int = 17,
    window_m: int = 13,
) -> list[ScenarioRow]:
    """Measure every closedness claim of the worked examples, as a table."""
    rows: list[ScenarioRow] = []
    for n in two_layer_ns:
        rows.append(two_layer_scenario(n))
    rows.append(prefix_two_layer_scenario(16, 4))
    rows.append(third_weight_scenario(third_n))
    rows.append(random_translate_scenario(translate_n, 3, translate_seed))
    rows.extend(bounded_support_middle_scenario(window_n, window_m))
    rows.extend(third_window_scenario(third_n))
    return rows
