"""Tests for the exact Walsh-Hadamard layer and Bogolyubov extraction."""

import math
from fractions import Fraction

import numpy as np
import pytest

from closurelab.budgets import (
    Budget,
    BudgetExceeded,
    DimensionMismatch,
    VerificationFailure,
    using,
)
from closurelab.closure import closedness_exact
from closurelab.gf2 import Subspace, random_subspace, rref
from closurelab.hamming import layer_groupset, standard_basis_multiset
from closurelab.spectral import (
    GroupMultiset,
    GroupSet,
    Spectrum,
    bogolyubov,
    indicator_spectrum,
    large_spectrum,
    mu_hat,
    random_groupset,
    spectral_closedness,
    spectral_sum,
    sumset_support,
    wht,
)

from .oracles import (
    bfs_sum_layers,
    four_sum_first_failure,
    four_sum_witness,
    naive_closedness,
    naive_convolution_pairs,
    naive_sumset,
    naive_wht,
    radix2_wht,
    sum_of_products_oracle,
)


def test_wht_point_mass():
    spec = wht([1, 0, 0, 0, 0, 0, 0, 0])
    assert np.array_equal(spec.coeffs, np.ones(8, dtype=np.int64))
    assert spec.energy == 8


def test_wht_subspace_indicator_is_scaled_dual_indicator():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        w = random_subspace(n, int(rng.integers(0, n + 1)), rng)
        f = np.zeros(1 << n, dtype=np.int64)
        for x in w.enumerate():
            f[x] = 1
        spec = wht(f.tolist())
        dual = w.complement()
        for r in range(1 << n):
            expect = (1 << w.dim) if dual.contains(r) else 0
            assert int(spec.coeffs[r]) == expect


def test_wht_matches_naive_character_sum():
    rng = np.random.default_rng(1)
    for n in range(0, 8):
        f = [int(v) for v in rng.integers(-5, 6, size=1 << n)]
        assert wht(f).coeffs.tolist() == naive_wht(f)


def test_wht_involution():
    rng = np.random.default_rng(2)
    for n in range(0, 10):
        f = rng.integers(-7, 8, size=1 << n).astype(np.int64)
        back = wht(wht(f.tolist()).coeffs.tolist())
        assert np.array_equal(back.coeffs, (1 << n) * f)


def test_wht_overflow_guard():
    big = [2**31] * 4
    with pytest.raises(BudgetExceeded):
        wht(big)


def test_wht_parseval_assertion_detects_fault(monkeypatch):
    import closurelab.spectral as spectral

    real = spectral._butterfly

    def corrupted(a, bound):
        out = real(a, bound)
        out[0] += 1
        return out

    monkeypatch.setattr(spectral, "_butterfly", corrupted)
    with pytest.raises(VerificationFailure):
        spectral.wht([1, 0, 1, 1])


def test_blocked_butterfly_matches_radix2_reference():
    rng = np.random.default_rng(41)
    # every split into Hadamard factors: tails of 1-3 levels, and n = 17-19
    # across the 2^16-point block boundary
    for n in range(1, 23):
        # the largest m with 2^n * 2^n * m^2 < 2^63, so wht's int64 guard holds
        m = math.isqrt((2**63 - 1) >> (2 * n))
        f = rng.integers(-m, m + 1, size=1 << n)
        f[0], f[-1] = m, -m
        assert np.array_equal(wht(f, n).coeffs, radix2_wht(f))


def test_wht_involution_at_n20():
    f = np.random.default_rng(42).integers(-1, 2, size=1 << 20)
    back = wht(wht(f, 20).coeffs, 20).coeffs
    assert np.array_equal(back, (1 << 20) * f)


def test_wht_parseval_detects_fault_in_last_block(monkeypatch):
    import closurelab.spectral as spectral

    n = 20
    f = np.random.default_rng(43).integers(0, 2, size=1 << n)
    assert np.array_equal(wht(f, n).coeffs, radix2_wht(f))
    real = spectral._levels
    rows = []

    def corrupt_last_block(v, bufs):
        real(v, bufs)
        if v.ndim == 1:  # the low levels of one contiguous block
            rows.append(v)
            if len(rows) == (1 << n) // spectral._BLOCK:
                v[-1] += 1

    monkeypatch.setattr(spectral, "_levels", corrupt_last_block)
    with pytest.raises(VerificationFailure):
        wht(f, n)
    assert len(rows) == 16


def test_mu_hat_examples():
    b = GroupMultiset.from_elements(4, [0])
    spec = mu_hat(b)
    assert all(spec.value(r) == 1 for r in range(16))

    n = 6
    basis = GroupMultiset.from_elements(n, [1 << i for i in range(n)])
    spec = mu_hat(basis)
    for r in range(1 << n):
        assert spec.value(r) == Fraction(n - 2 * r.bit_count(), n)


def test_mu_hat_subspace_is_dual_indicator():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        w = random_subspace(n, int(rng.integers(0, n + 1)), rng)
        b = GroupMultiset.from_elements(n, w.enumerate())
        spec = mu_hat(b)
        dual = w.complement()
        for r in range(1 << n):
            assert spec.value(r) == (1 if dual.contains(r) else 0)


def test_mu_hat_rejects_empty():
    with pytest.raises(ValueError):
        mu_hat(GroupMultiset(3, {}))


def test_spectral_closedness_refuses_an_empty_b():
    with pytest.raises(ValueError, match="A and B must be nonempty"):
        spectral_closedness(layer_groupset(6, 2, 3), GroupMultiset(6, {}))


def test_spectral_closedness_full_group():
    g = GroupSet.from_elements(3, range(8))
    b = GroupMultiset.from_elements(3, [1, 2, 5])
    assert spectral_closedness(g, b) == 1


def test_spectral_closedness_coset_of_w():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = 8
        w = random_subspace(n, int(rng.integers(1, n)), rng)
        shift = int(rng.integers(0, 1 << n))
        a = GroupSet.from_elements(n, [shift ^ v for v in w.enumerate()])
        members = [v for v in w.enumerate()]
        picks = rng.choice(len(members), size=3).tolist()
        b = GroupMultiset.from_pairs(n, [(members[i], 1 + i) for i in set(picks)])
        assert spectral_closedness(a, b) == 1


def test_spectral_equals_combinatorial_counting_oracle():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(2, 11))
        size = int(rng.integers(1, (1 << n) + 1))
        a = random_groupset(n, size, rng)
        max_support = min(8, 1 << n)
        support = rng.choice(1 << n, size=int(rng.integers(1, max_support + 1)), replace=False)
        b = GroupMultiset.from_pairs(
            n, [(int(e), int(rng.integers(1, 4))) for e in support]
        )
        got = spectral_closedness(a, b)
        pairs, denom = naive_closedness(set(a.elements.tolist()), dict(b.counts))
        assert got == Fraction(pairs, denom)
        assert -1 <= got <= 1


def test_convolution_law_pair_counts():
    # spectrum of the pair-counting function = product of spectra
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 11))
        a = random_groupset(n, int(rng.integers(1, 1 << n)), rng)
        support = rng.choice(1 << n, size=4, replace=False)
        b = GroupMultiset.from_pairs(
            n, [(int(e), int(rng.integers(1, 4))) for e in support]
        )
        counts = naive_convolution_pairs(set(a.elements.tolist()), dict(b.counts), n)
        left = wht(counts).coeffs
        right = indicator_spectrum(a).coeffs * wht(b.counts_array()).coeffs
        assert np.array_equal(left, right)


def test_large_spectrum_full_group_and_subspace():
    g = GroupSet.from_elements(4, range(16))
    assert large_spectrum(indicator_spectrum(g), Fraction(1)) == [0]

    w = rref([0b0011, 0b0101], 4)
    a = GroupSet.from_elements(4, w.enumerate())
    spec = large_spectrum(indicator_spectrum(a), a.density**2)
    dual = w.complement()
    assert sorted(spec) == sorted(dual.enumerate())


def test_large_spectrum_parseval_size_bound():
    rng = np.random.default_rng(7)
    n = 10
    for _ in range(10):
        size = int(rng.integers(1 << (n - 2), 1 << n))
        a = random_groupset(n, size, rng)
        alpha = a.density
        threshold = Fraction(3, 8)
        got = large_spectrum(indicator_spectrum(a), threshold**2)
        assert len(got) <= alpha / threshold**2
        # the squared threshold is compared exactly: |c_r| >= threshold 2^n
        c = indicator_spectrum(a).coeffs
        assert got == [r for r in range(1 << n) if abs(int(c[r])) >= threshold * (1 << n)]


def test_large_spectrum_is_exact_at_thresholds_beside_a_coefficient():
    rng = np.random.default_rng(47)
    n = 8
    for _ in range(5):
        spec = indicator_spectrum(random_groupset(n, int(rng.integers(1, 1 << n)), rng))
        c = [int(x) for x in spec.coeffs]
        for x in {abs(v) for v in c[1:]} - {0, 1}:
            for sq in (x * x - 1, x * x, x * x + 1):  # two of the three are not squares
                threshold = Fraction(sq, 1 << 2 * n)
                expected = [r for r in range(1 << n) if Fraction(c[r], 1 << n) ** 2 >= threshold]
                assert large_spectrum(spec, threshold) == expected


def test_bogolyubov_subspace_fixed_point():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        w = random_subspace(n, int(rng.integers(1, n + 1)), rng)
        s = GroupSet.from_elements(n, w.enumerate())
        assert bogolyubov(s) == w


def test_bogolyubov_full_group():
    g = GroupSet.from_elements(5, range(32))
    assert bogolyubov(g) == Subspace.full(5)


def test_sumset_support_matches_pairwise_sums():
    rng = np.random.default_rng(31)
    # n = 17 crosses the butterfly's 2^16-point block
    for n, size_a, size_b in [(1, 1, 2), (4, 3, 5), (8, 40, 7), (10, 200, 300), (17, 60, 45)]:
        a = rng.choice(1 << n, size=size_a, replace=False)
        b = rng.choice(1 << n, size=size_b, replace=False)
        bits_a = np.zeros(1 << n, dtype=bool)
        bits_b = np.zeros(1 << n, dtype=np.int64)
        bits_a[a], bits_b[b] = True, 1
        got = sumset_support(bits_a, bits_b)
        assert set(np.flatnonzero(got).tolist()) == {int(x) ^ int(y) for x in a for y in b}
        assert bits_a[a].all() and bits_b[b].sum() == size_b  # inputs untouched
        doubled = sumset_support(bits_a, bits_a)
        assert set(np.flatnonzero(doubled).tolist()) == {int(x) ^ int(y) for x in a for y in a}


def test_sumset_support_matches_naive_sumset_up_to_n12(monkeypatch):
    import closurelab.spectral as spectral

    rng = np.random.default_rng(32)
    for n in range(1, 13):
        # the whole group reaches the 2^2n peak of the second transform
        for size_a, size_b in [(1 << n, 1 << n), (1 << (n - 1), max(1, n)), (2, 1)]:
            a = rng.choice(1 << n, size=size_a, replace=False)
            b = rng.choice(1 << n, size=size_b, replace=False)
            bits_a, bits_b = np.zeros((2, 1 << n), dtype=bool)
            bits_a[a], bits_b[b] = True, True
            assert np.array_equal(sumset_support(bits_a, bits_b), naive_sumset(a, b, n))
    # at n = 13 the products reach 2^26, past float32's exact 2^24; a rounding
    # error there stays far inside the 2^n step between counts, so the support
    # cannot show it, and each butterfly is checked against the reference too
    butterfly = spectral._butterfly

    def checked(a, bound):
        want = radix2_wht(a)
        out = butterfly(a, bound)
        assert np.array_equal(out, want)
        return out

    monkeypatch.setattr(spectral, "_butterfly", checked)
    n = 13
    for missing in (0, 3):  # the whole group, then all of it but three points: odd products
        a = np.arange(missing, 1 << n)
        bits = np.zeros(1 << n, dtype=bool)
        bits[a] = True
        assert np.array_equal(sumset_support(bits, bits), naive_sumset(a, a, n))


def test_wht_above_float32_range_matches_radix2_reference():
    """An l1 norm of 2^24 + 2 needs float64: float32 rounds 2^24 + 1 to 2^24."""
    f = [2**24 + 1, 1, 0, 0]
    assert np.array_equal(wht(f).coeffs, radix2_wht(f))


def test_sumset_support_refuses_n27_under_a_raised_budget():
    bits = np.broadcast_to(np.ones(1, dtype=bool), (1 << 27,))  # no 2^27 array is allocated
    with using(Budget(max_group_exponent=27)):
        with pytest.raises(BudgetExceeded):
            sumset_support(bits, bits)


def test_sumset_support_at_n0_and_lengths_that_are_not_powers_of_two():
    one, zero = np.ones(1, dtype=bool), np.zeros(1, dtype=bool)
    assert sumset_support(one, one).tolist() == [True]
    assert sumset_support(one, zero).tolist() == [False]
    for length in (3, 5, 6, 12):
        with pytest.raises(DimensionMismatch):
            sumset_support(np.ones(length, dtype=bool), np.ones(length, dtype=bool))


def test_sumset_support_reads_the_exponent_of_a_16_point_bitmap_as_4():
    rng = np.random.default_rng(41)
    a, b = rng.integers(0, 2, size=(2, 16)).astype(bool)
    with using(Budget(max_group_exponent=4)):
        got = sumset_support(a, b)
    with using(Budget(max_group_exponent=3)):
        with pytest.raises(BudgetExceeded):
            sumset_support(a, b)
    assert np.array_equal(got, naive_sumset(np.flatnonzero(a), np.flatnonzero(b), 4))


def test_subspace_elements_lists_enumerate_in_order():
    from closurelab.spectral import subspace_elements

    rng = np.random.default_rng(43)
    for n in range(0, 9):
        for _ in range(4):
            v = random_subspace(n, int(rng.integers(0, n + 1)), rng)
            got = subspace_elements(v)
            assert got.dtype == np.int64
            assert got.tolist() == list(v.enumerate())


def test_sumset_support_rejects_mismatched_bitmaps():
    for a, b in [(np.ones(8), np.ones(4)), (np.ones(6), np.ones(6)), (np.ones(0), np.ones(0)),
                 (np.ones((4, 4)), np.ones((4, 4)))]:
        with pytest.raises(DimensionMismatch):
            sumset_support(a, b)


def test_bogolyubov_full_group_at_n20_reaches_the_int64_bound(monkeypatch):
    import closurelab.spectral as spectral

    n = 20
    peaks = []
    butterfly = spectral._butterfly

    def recording(a, bound):
        out = butterfly(a, bound)
        peaks.append(int(np.abs(out).max()))
        return out

    monkeypatch.setattr(spectral, "_butterfly", recording)
    assert bogolyubov(GroupSet.from_elements(n, range(1 << n))) == Subspace.full(n)
    # the second butterfly of each sumset: 2^n * |S|^2 = 2^2n at every point, the
    # bound that keeps its float64 GEMMs exact to n = 26; the unclipped fourth power is 2^4n
    assert max(peaks) == 1 << 2 * n


def test_bogolyubov_random_dense_sets():
    rng = np.random.default_rng(9)
    n = 10
    for _ in range(10):
        s = random_groupset(n, 1 << (n - 1), rng)
        v = bogolyubov(s)
        assert v.codim <= 8  # 2 / alpha^2 with alpha = 1/2
        # independent oracle: exhaustive 4-sum reachability
        layers = bfs_sum_layers([int(e) for e in s.elements], n, 4)
        for x in v.enumerate():
            assert layers[4][x]


def test_random_groupset_density():
    rng = np.random.default_rng(10)
    a = random_groupset(8, 64, rng)
    assert a.size == 64
    assert a.density == Fraction(1, 4)


def test_groupset_from_elements_sorts_dedups_and_checks_range():
    rng = np.random.default_rng(31)
    for n in (1, 4, 12):
        elems = rng.integers(0, 1 << n, size=3 << n).tolist()  # unsorted, with duplicates
        got = GroupSet.from_elements(n, elems).elements
        assert got.dtype == np.int64
        assert got.tolist() == sorted(set(elems))
    assert GroupSet.from_elements(5, [7, 3, 7, 3, 0, 31, 0]).elements.tolist() == [0, 3, 7, 31]
    assert GroupSet.from_elements(5, [4]).elements.tolist() == [4]
    for n in (0, 5):
        empty = GroupSet.from_elements(n, [])
        assert empty.size == 0 and empty.elements.dtype == np.int64
    assert GroupSet.from_elements(0, [0]).elements.tolist() == [0]
    for bad in ([32], [-1], [3, 3, 32], [-1, -1, 5], [0, 1 << 40]):
        with pytest.raises(DimensionMismatch):
            GroupSet.from_elements(5, bad)
    # arrays are taken as they are, with the same result as their lists
    for dtype in (np.int64, np.uint64):
        for n in (1, 4, 12):
            arr = rng.integers(0, 1 << n, size=3 << n).astype(dtype)
            before = arr.copy()
            got = GroupSet.from_elements(n, arr).elements
            assert got.dtype == np.int64
            assert np.array_equal(got, GroupSet.from_elements(n, arr.tolist()).elements)
            assert np.array_equal(arr, before)  # the caller's array is not sorted in place
        empty = GroupSet.from_elements(5, np.array([], dtype=dtype))
        assert empty.size == 0 and empty.elements.dtype == np.int64
        for bad in ([32], [3, 3, 32], [0, 1 << 40], [1 << 63]):
            with pytest.raises(DimensionMismatch):
                GroupSet.from_elements(5, np.array(bad, dtype=np.uint64).astype(dtype))
    with pytest.raises(DimensionMismatch):
        GroupSet.from_elements(5, np.array([-1, 4], dtype=np.int64))


def _primes_needed(spec, w) -> int:
    """How many of spectral._PRIMES make 2^64 p_1..p_k exceed 2 * energy * max|w|."""
    import closurelab.spectral as spectral

    bound = spec.energy * max(abs(int(v)) for v in w)
    modulus, k = 1 << 64, 0
    while modulus <= 2 * bound:
        modulus *= spectral._PRIMES[k]
        k += 1
    return k


def _spectrum(coeffs) -> Spectrum:
    c = np.asarray(coeffs, dtype=np.int64)
    return Spectrum(c.size.bit_length() - 1, c, sum(v * v for v in c.tolist()))


def _check_against_oracle(monkeypatch, cases) -> set[int]:
    """Run spectral_sum on each case with only the primes its bound needs; return the counts used."""
    import closurelab.spectral as spectral

    used = set()
    for coeffs, w in cases:
        spec, w = _spectrum(coeffs), np.asarray(w, dtype=np.int64)
        assert spec.energy < 2**63
        k = _primes_needed(spec, w)
        used.add(k)
        with monkeypatch.context() as m:
            m.setattr(spectral, "_PRIMES", spectral._PRIMES[:k])  # k primes suffice
            got = spectral_sum(spec, w)
        assert type(got) is int
        assert got == sum_of_products_oracle(spec.coeffs, spec.coeffs, w)
    return used


def test_exact_sum_of_products_int64_branch(monkeypatch):
    """spectral_sum with no prime: the bound stays below 2^63."""
    rng = np.random.default_rng(11)
    top, bottom = 2**63 - 1, -(2**63)
    cases = [
        ([7], [-6]),
        # small terms of both signs, and a zero spectrum against int64 extremes
        (rng.integers(-100, 100, size=256), rng.integers(-1000, 1000, size=256)),
        (np.zeros(4, dtype=np.int64), [top, bottom, -top, 0]),
        (np.full(1 << 10, 1 << 16), np.full(1 << 10, (1 << 21) - 1)),  # bound 2^63 - 2^42
        (np.full(1 << 10, -(1 << 16)), np.full(1 << 10, -(1 << 21) + 1)),
    ]
    assert _check_against_oracle(monkeypatch, cases) == {0}


def test_exact_sum_of_products_crt_branch(monkeypatch):
    """spectral_sum with one to three primes joined to the residue mod 2^64."""
    rng = np.random.default_rng(12)
    top, bottom = 2**63 - 1, -(2**63)
    edge = 3037000499  # the largest c with c^2 < 2^63
    cases = [
        # 1 prime: past int64 in both signs, and a sum that cancels to 0
        (np.full(1 << 10, 1 << 16), np.full(1 << 10, 1 << 21)),  # sum 2^63 exactly
        # sum = +-bound = +-(2^63 + 2^42): a modulus of 2^64 > bound would misread its sign
        (np.full(1 << 10, 1 << 16), np.full(1 << 10, (1 << 21) + 1)),
        (np.full(1 << 10, 1 << 16), np.full(1 << 10, -(1 << 21) - 1)),
        (rng.integers(-(2**20), 2**20, size=1 << 12), rng.integers(-(2**40), 2**40, size=1 << 12)),
        ([2**20, 2**20], [2**40, -(2**40)]),
        # 2 primes
        (rng.integers(-(2**24), 2**24, size=1 << 12), rng.integers(-(2**62), 2**62, size=1 << 12)),
        ([2**25, -(2**25)], [top, top]),
        ([2**25, -(2**25)], [bottom, bottom]),
        # 3 primes: the energy near 2^63 against int64 extremes, both signs and cancelling
        ([edge, 0], [bottom, 5]),
        ([edge, 0], [top, -5]),
        ([2**30] * 7 + [0], [top, bottom, top, bottom, top, bottom, -1, 7]),
        ([2**30] * 7 + [0], [top, bottom + 1, top, -top, top, -top, 0, 0]),
    ]
    assert _check_against_oracle(monkeypatch, cases) == {1, 2, 3}


def test_spectral_sum_of_a_transform_matches_oracle():
    rng = np.random.default_rng(13)
    for n in range(0, 11):
        spec = wht(rng.integers(-50, 50, size=1 << n))
        for w in (rng.integers(-9, 10, size=1 << n), rng.integers(-(2**63), 2**63 - 1, size=1 << n)):
            want = sum_of_products_oracle(spec.coeffs, spec.coeffs, w)
            assert spectral_sum(spec, w) == want


def test_spectral_sum_rejects_mismatched_weights():
    spec = wht(np.ones(8, dtype=np.int64))
    for w in (np.ones(4, dtype=np.int64), np.ones(16, dtype=np.int64), np.ones((2, 4), dtype=np.int64)):
        with pytest.raises(DimensionMismatch):
            spectral_sum(spec, w)
    # 2^31 terms are refused before anything is computed (zero-copy views)
    huge = np.broadcast_to(np.int64(0), (1 << 31,))
    with pytest.raises(DimensionMismatch):
        spectral_sum(Spectrum(31, huge, 0), huge)


def test_crt_primes_are_distinct_primes_below_2_31():
    import closurelab.spectral as spectral

    primes = spectral._PRIMES
    assert len(set(primes)) == len(primes)
    for p in primes:
        assert 2**30 < p < 2**31
        assert all(p % d for d in [2] + list(range(3, math.isqrt(p) + 1, 2)))
    # every sum is at most energy * max|w| < 2^63 * 2^63 in size
    assert (1 << 64) * math.prod(primes) > 2 * 2**126


def test_wht_guard_refuses_by_peak_or_by_sum_and_admits_just_below():
    # peak-refused: 2^n * max|f|^2 >= 2^63 before any sum is taken
    for f in ([2**31, 0, 0, 0], [-(2**63), 0], [0, 2**63 - 1]):
        with pytest.raises(BudgetExceeded, match=r"max\|f\|\^2"):
            wht(f)
    # sum-refused: the peak passes (2^n * max|f|^2 = 2^62), 2^n * sum(f^2) = 2^63 does not
    with pytest.raises(BudgetExceeded, match=r"sum\(f\^2\)"):
        wht([2**30, 2**30, 0, 0])
    # just below: 2^n * sum(f^2) = 2^63 - 2^33 + 4
    f = [2**30, 2**30 - 1, 0, 0]
    assert 2**63 - 2**34 < 4 * sum(v * v for v in f) < 2**63
    spec = wht(f)
    assert spec.coeffs.tolist() == naive_wht(f)
    assert spec.energy == 4 * sum(v * v for v in f)


def test_spectral_closedness_equals_exact_count_at_n20():
    a = layer_groupset(20, 9, 11)
    b = standard_basis_multiset(20)
    # terms c^2 m reach 2^20 |A|^2 * 20 >= 2^62, but the sum is at most the
    # energy 2^20 |A| times max|m| = 20, below 2^63: one uint64 dot, no prime
    assert (1 << 20) * a.size**2 * b.total >= 2**62
    assert (1 << 20) * a.size * b.total < 2**63
    assert spectral_closedness(a, b) == closedness_exact(a, b).eta


def _bogolyubov_outcome(s: GroupSet):
    try:
        return ("accept", bogolyubov(s).rows)
    except VerificationFailure as exc:
        return ("reject", str(exc))


def _oracle_outcome(s: GroupSet, v: Subspace):
    """The old per-element loop over V in enumerate() order."""
    failed = four_sum_first_failure(indicator_spectrum(s).coeffs, v.enumerate())
    if failed is None:
        return ("accept", v.rows)
    return ("reject", f"element {failed:#x} of the extracted subspace failed the 4-sum check")


def test_bogolyubov_verification_can_fail(monkeypatch):
    import closurelab.spectral as spectral

    # with no large spectrum, V is all of F2^n, far outside 2S - 2S for |S| = 3
    monkeypatch.setattr(spectral, "large_spectrum", lambda *args: [])
    s = GroupSet.from_elements(8, [0b1, 0b110, 0b10000000])
    expected = _oracle_outcome(s, Subspace.full(8))
    assert expected[0] == "reject"
    with pytest.raises(VerificationFailure) as info:
        bogolyubov(s)
    assert str(info.value) == expected[1]


def test_bogolyubov_outcomes_match_per_element_oracle(monkeypatch):
    import closurelab.spectral as spectral

    rng = np.random.default_rng(13)
    cases = []
    for n in range(8, 14):
        for size in (1 << (n - 1), 1 << (n - 3), n + 1, 3):
            cases.append(random_groupset(n, size, rng))
    real_outcomes = []
    for s in cases:
        got = _bogolyubov_outcome(s)
        assert got[0] == "accept"
        real_outcomes.append(got)
    # V = F2^n: sparse sets fail, dense ones may pass; the first failure must agree
    monkeypatch.setattr(spectral, "large_spectrum", lambda *args: [])
    verdicts = set()
    for s in cases:
        got = _bogolyubov_outcome(s)
        assert got == _oracle_outcome(s, Subspace.full(s.n))
        verdicts.add(got[0])
    assert verdicts == {"accept", "reject"}
    monkeypatch.undo()
    for s, got in zip(cases, real_outcomes):
        large = [r for r, c in enumerate(indicator_spectrum(s).coeffs.tolist())
                 if c * c * (1 << (s.n + 1)) >= s.size**3]
        v = rref(large, s.n).complement()
        assert got == _oracle_outcome(s, v)


def test_bogolyubov_at_n17_matches_per_element_oracle(monkeypatch):
    import closurelab.spectral as spectral

    n = 17  # the fourth convolution power is one blocked transform of 2^17 points
    rng = np.random.default_rng(44)
    w = random_subspace(16, 10, rng)
    p = (1 << 16) | int(rng.integers(0, 1 << 16))
    # S = W + {p} with W in the low 16 bits: 4S = span(W, p) crosses the block boundary
    s = GroupSet.from_elements(n, [*w.enumerate(), p])
    v = bogolyubov(s)
    assert v == rref(w.rows, n)
    assert _bogolyubov_outcome(s) == _oracle_outcome(s, v)
    # a V beyond 4S, so the first failing element in enumerate() order is named
    q = next(x for x in map(int, rng.integers(0, 1 << n, size=64))
             if not rref([*w.rows, p], n).contains(x))
    u = rref([*w.rows, p, q], n)
    monkeypatch.setattr(spectral, "large_spectrum", lambda *args: list(u.complement().rows))
    expected = _oracle_outcome(s, u)
    assert expected[0] == "reject"
    assert _bogolyubov_outcome(s) == expected


def test_dense_bogolyubov_at_n17_to_20_matches_explicit_four_sums():
    for n in range(17, 21):
        rng = np.random.default_rng(n)
        s = random_groupset(n, 1 << (n - 1), rng)
        v = bogolyubov(s)
        bits, rows = s.bitmap(), np.array(v.rows, dtype=np.int64)
        # a seeded sample of V, each element backed by s1 + s2 + s3 + s4 found by lookups alone
        for _ in range(32):
            x = int(np.bitwise_xor.reduce(rows[rng.integers(0, 2, size=rows.size) == 1], initial=0))
            s1, s2, s3, s4 = four_sum_witness(bits, x, rng)
            assert bits[[s1, s2, s3, s4]].all() and s1 ^ s2 ^ s3 ^ s4 == x
