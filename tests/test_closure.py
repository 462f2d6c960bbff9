"""Tests for exact/sampled closedness, mixed energy, triangle composition,
and basic matrix sets."""

from fractions import Fraction

import numpy as np
import pytest

from closurelab.closure import (
    basic_set,
    SampledEstimate,
    closedness_exact,
    closedness_sampled,
    groupset_oracle,
    inversion_sampler,
    mixed_energy,
    subspace_groupset,
    translation_deficit,
    triangle_compose,
)
from closurelab.gf2 import random_subspace, rref
from closurelab.spectral import (
    GroupMultiset,
    GroupSet,
    random_groupset,
    spectral_closedness,
    wht,
)
from closurelab.tensor import TensorShape, rank_one_counter

from .oracles import naive_closedness, naive_convolution_pairs, sum_of_products_oracle


def layers(n, lo, hi):
    return GroupSet.from_elements(
        n, [v for v in range(1 << n) if lo <= v.bit_count() <= hi]
    )


def standard_basis(n):
    return GroupMultiset.from_elements(n, [1 << i for i in range(n)])


def test_closedness_full_group():
    g = GroupSet.from_elements(4, range(16))
    b = GroupMultiset.from_pairs(4, [(3, 2), (5, 1)])
    report = closedness_exact(g, b)
    assert report.eta == 1
    assert report.pair_count == 16 * 3


def test_middle_layers_eta():
    for n in (5, 7, 9):
        half = (n - 1) // 2
        a = layers(n, half, half + 1)
        report = closedness_exact(a, standard_basis(n))
        assert report.eta == Fraction(n + 1, 2 * n)


def test_closedness_exact_matches_naive_oracle():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(2, 10))
        a = random_groupset(n, int(rng.integers(1, (1 << n) + 1)), rng)
        k = min(6, 1 << n)
        support = rng.choice(1 << n, size=k, replace=False)
        b = GroupMultiset.from_pairs(
            n, [(int(e), int(rng.integers(1, 5))) for e in support]
        )
        report = closedness_exact(a, b)
        pairs, denom = naive_closedness(set(a.elements.tolist()), dict(b.counts))
        assert report.pair_count == pairs
        assert report.eta == Fraction(pairs, denom)


def test_exact_equals_spectral_on_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        a = random_groupset(n, int(rng.integers(1, (1 << n) + 1)), rng)
        k = min(8, 1 << n)
        support = rng.choice(1 << n, size=int(rng.integers(1, k + 1)), replace=False)
        b = GroupMultiset.from_pairs(
            n, [(int(e), int(rng.integers(1, 4))) for e in support]
        )
        assert closedness_exact(a, b).eta == spectral_closedness(a, b)


def test_closedness_sampled_full_group():
    g = GroupSet.from_elements(6, range(64))
    member, sampler = groupset_oracle(g)
    b = standard_basis(6)
    report = closedness_sampled(member, sampler, b, samples=2000, seed=7)
    assert report.estimate == 1.0
    assert report.radius > 0


def test_closedness_sampled_middle_layers_within_radius():
    n = 7
    a = layers(n, 3, 4)
    member, sampler = groupset_oracle(a)
    report = closedness_sampled(member, sampler, standard_basis(n), 10**5, seed=20260811)
    assert abs(report.estimate - 4 / 7) <= report.radius


def test_closedness_sampled_deterministic_and_seed_sensitive():
    n = 7
    a = layers(n, 3, 4)
    member, sampler = groupset_oracle(a)
    b = standard_basis(n)
    r1 = closedness_sampled(member, sampler, b, 5000, seed=3)
    r2 = closedness_sampled(member, sampler, b, 5000, seed=3)
    r3 = closedness_sampled(member, sampler, b, 5000, seed=4)
    assert r1.estimate == r2.estimate
    assert r1.estimate != r3.estimate


def test_closedness_sampled_chernoff_radius():
    n = 7
    a = layers(n, 3, 4)
    member, sampler = groupset_oracle(a)
    report = closedness_sampled(
        member, sampler, standard_basis(n), 20000, seed=5, radius_method="chernoff"
    )
    assert abs(report.estimate - 4 / 7) <= report.radius
    # variance-adaptive radius should beat Hoeffding here
    hoeff = closedness_sampled(member, sampler, standard_basis(n), 20000, seed=5)
    assert report.radius < hoeff.radius


SAMPLED_KEYS = ["mode", "estimate", "radius", "confidence", "samples", "seed"]


def test_closedness_sampled_estimates_are_pinned():
    """Frozen seeded estimates and radii over several chunks, with a basis
    and with a weighted multiset: the draws and their order must not change."""
    member, sampler = groupset_oracle(layers(7, 3, 4))
    weighted = GroupMultiset.from_pairs(7, [(1, 3), (2, 1), (5, 2)])
    cases = [
        (standard_basis(7), 20000, 5, "hoeffding", 0.5739, 0.011509037065006824),
        (standard_basis(7), 20000, 5, "chernoff", 0.5739, 0.011471284232114189),
        (weighted, 9000, 2, "hoeffding", 0.566, 0.017156659488613283),
        (weighted, 9000, 2, "chernoff", 0.566, 0.0172038999354808),
    ]
    for b, samples, seed, method, estimate, radius in cases:
        report = closedness_sampled(member, sampler, b, samples, seed, radius_method=method)
        assert report == SampledEstimate(estimate, radius, samples, seed)
        assert list(report.to_json()) == SAMPLED_KEYS
        assert report.to_json()["confidence"] == 0.99


def test_sampled_estimators_refuse_no_samples():
    member, sampler = groupset_oracle(layers(5, 2, 3))
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            closedness_sampled(member, sampler, standard_basis(5), samples, seed=1)
    with pytest.raises(ValueError, match="unknown radius method"):
        closedness_sampled(member, sampler, standard_basis(5), 10, 1, radius_method="wald")


def test_inversion_sampler_refuses_a_total_past_64_bits():
    from closurelab.budgets import BudgetExceeded

    assert inversion_sampler([3], [2**63 - 1])(np.random.default_rng(0), 4).tolist() == [3] * 4
    with pytest.raises(BudgetExceeded):
        inversion_sampler([0, 1], [2**62, 2**62])


def test_inversion_sampler_matches_searchsorted_on_the_same_stream():
    mixed = np.random.default_rng(3).integers(0, 10**6, size=300).tolist()
    cases = [
        [7] * 20,
        [1] * 1000 + [2**62],  # every small mass in one crowded bucket
        [0, 0, 5, 0, 0, 9, 0, 11, 0, 0],
        [0, 0, 5 << 40, 0, 0, 9 << 40, 0, 11 << 40, 0, 0],  # zeros inside wide buckets
        [2**63 - 1],
        mixed,
    ]
    for masses in cases:
        vals = np.arange(100, 100 + len(masses))
        cums, total = np.cumsum(masses), sum(masses)
        for seed in (1, 2):
            got = inversion_sampler(vals.tolist(), masses)(np.random.default_rng(seed), 50000)
            r = np.random.default_rng(seed).integers(0, total, 50000)
            assert np.array_equal(got, vals[np.searchsorted(cums, r, side="right")])
    assert min(mixed) >= 0 and len(set(mixed)) > 250


def test_inversion_sampler_refuses_a_negative_mass():
    with pytest.raises(ValueError, match="nonnegative"):
        inversion_sampler([1, 2, 3], [5, -3, 4])
    with pytest.raises(ValueError, match="nonempty"):
        inversion_sampler([1, 2], [0, 0])
    assert set(inversion_sampler([1, 2, 3], [0, 4, 0])(np.random.default_rng(0), 100)) == {2}


def test_multiset_sampler_respects_multiplicities():
    b = GroupMultiset.from_pairs(4, [(1, 3), (2, 1)])
    sample = inversion_sampler(list(b.counts), list(b.counts.values()))
    rng = np.random.default_rng(11)
    draws = sample(rng, 40000)
    frac = np.count_nonzero(draws == 1) / draws.size
    assert abs(frac - 0.75) < 0.02


def test_mixed_energy_full_group_and_coset_equality_case():
    g = GroupSet.from_elements(5, range(32))
    b = GroupMultiset.from_elements(5, [1, 2, 3])
    assert mixed_energy(g, b) == 1

    rng = np.random.default_rng(2)
    for _ in range(10):
        n = 8
        w = random_subspace(n, int(rng.integers(1, n)), rng)
        shift = int(rng.integers(0, 1 << n))
        a = GroupSet.from_elements(n, [shift ^ v for v in w.enumerate()])
        elems = list(w.enumerate())
        idx = rng.choice(len(elems), size=min(3, len(elems)), replace=False)
        b = GroupMultiset.from_elements(n, [elems[int(i)] for i in idx])
        assert mixed_energy(a, b) == a.density


def test_mixed_energy_at_n18_n20_matches_python_int_formula():
    from closurelab.hamming import layer_groupset, standard_basis_multiset

    rng = np.random.default_rng(14)
    for n, lo in ((18, 8), (20, 9)):
        a = layer_groupset(n, lo, lo + 2)
        heavy = rng.choice(1 << n, size=8, replace=False)
        for b in (
            standard_basis_multiset(n),
            GroupMultiset.from_pairs(n, [(int(e), int(rng.integers(1000, 3000))) for e in heavy]),
        ):
            c = wht(a.bitmap(), n).coeffs
            m = wht(b.counts_array(), n).coeffs
            want = Fraction(sum_of_products_oracle(c, c, m, m), (1 << (2 * n)) * b.total**2)
            assert mixed_energy(a, b) == want


def test_mixed_energy_at_n12_with_heavy_multiplicities_matches_convolution():
    # multiplicities 2^11..2^12 on every element: the sum's bound 2^n |A| total^2
    # is past 2^63, so the spectral sum joins a prime to its 2^64 residue
    rng = np.random.default_rng(15)
    n = 12
    a = random_groupset(n, 1 << 11, rng)
    b = GroupMultiset.from_pairs(n, [(e, int(rng.integers(2**11, 2**12))) for e in range(1 << n)])
    assert (1 << n) * a.size * b.total**2 >= 2**63
    bitmap, idx = a.bitmap(), np.arange(1 << n)
    conv = np.zeros(1 << n, dtype=np.int64)  # N(x) = sum_b mult(b) 1_A(x + b), at most total
    for e, mult in b.counts.items():
        conv += mult * bitmap[idx ^ e]
    want = Fraction(sum(v * v for v in conv.tolist()), (1 << n) * b.total**2)
    assert mixed_energy(a, b) == want


def test_mixed_energy_matches_naive_convolution_oracle():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        a = random_groupset(n, int(rng.integers(1, (1 << n) + 1)), rng)
        k = min(5, 1 << n)
        support = rng.choice(1 << n, size=k, replace=False)
        b = GroupMultiset.from_pairs(
            n, [(int(e), int(rng.integers(1, 4))) for e in support]
        )
        got = mixed_energy(a, b)
        counts = naive_convolution_pairs(set(a.elements.tolist()), dict(b.counts), n)
        want = Fraction(sum(c * c for c in counts), (1 << n) * b.total**2)
        assert got == want
        assert got <= a.density
        if got == a.density:
            # equality forces a+b-b' in A for every a in A, b, b' in B
            elems = set(a.elements.tolist())
            assert all(
                (x ^ b1 ^ b2) in elems
                for x in elems
                for b1 in b.counts
                for b2 in b.counts
            )


def test_triangle_deficit_edge_cases():
    n = 6
    w = rref([0b000011, 0b001100], n)
    a = subspace_groupset(w)
    d1, d2, d12 = triangle_compose(a, 0b000011, 0b001100)
    assert d1 == d2 == d12 == 0

    b = GroupSet.from_elements(n, [0, 1, 2, 3, 9])
    x1, _, x12 = triangle_compose(b, 5, 0)
    assert x12 == x1


def test_triangle_inequality_random():
    rng = np.random.default_rng(4)
    for _ in range(60):
        n = 10
        a = random_groupset(n, int(rng.integers(1, 1 << n)), rng)
        b1 = int(rng.integers(0, 1 << n))
        b2 = int(rng.integers(0, 1 << n))
        d1, d2, d12 = triangle_compose(a, b1, b2)
        assert d12 <= d1 + d2
        assert d1 == translation_deficit(a, b1)


def test_basic_set_row_kind_size_and_closedness():
    m = n = 3
    a = basic_set("row", 0b001, 0, (m, n))
    assert a.size == 1 << (m * n - m)
    # every member satisfies Mx = 0
    for data in a.elements.tolist():
        for i in range(m):
            row = (data >> (i * n)) & 0b111
            assert (row & 0b001).bit_count() % 2 == 0

    shape = TensorShape((m, n))
    b = GroupMultiset.from_pairs(9, rank_one_counter(shape, nonzero_only=True).items())
    got = closedness_exact(a, b).eta
    assert got == Fraction(3, 7)  # "roughly 1/2" in the source heuristic
    # independent full pair enumeration
    pairs, denom = naive_closedness(set(a.elements.tolist()), dict(b.counts))
    assert got == Fraction(pairs, denom)


def test_basic_set_column_kind():
    m, n = 3, 4
    x, y = 0b101, 0b0110
    a = basic_set("column", x, y, (m, n))
    assert a.size == 1 << (m * n - n)
    for data in a.elements.tolist():
        for j in range(n):
            col = 0
            for i in range(m):
                col |= ((data >> (i * n + j)) & 1) << i
            assert (col & x).bit_count() % 2 == ((y >> j) & 1)


def test_basic_set_x_zero_flagged():
    with pytest.warns(UserWarning):
        full = basic_set("row", 0, 0, (2, 2))
    assert full.size == 16
    with pytest.warns(UserWarning):
        empty = basic_set("row", 0, 0b01, (2, 2))
    assert empty.size == 0


def test_basic_set_intersection_lemma_bound():
    # one basic set at m=n=4: closedness >= 2^-k (delta - 2^-(m-k)), k=1, delta=1
    m = n = 4
    a = basic_set("row", 0b0011, 0b0101, (m, n))
    shape = TensorShape((m, n))
    b = GroupMultiset.from_pairs(16, rank_one_counter(shape, nonzero_only=True).items())
    eta = closedness_exact(a, b).eta
    bound = Fraction(1, 2) * (1 - Fraction(1, 1 << (m - 1)))
    assert eta >= bound


def test_subset_monotonicity_average_degree():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = 10
        a = random_groupset(n, int(rng.integers(64, 1 << n)), rng)
        support = rng.choice(1 << n, size=6, replace=False)
        b = GroupMultiset.from_elements(n, [int(e) for e in support])
        eta = closedness_exact(a, b).eta
        if eta == 0:
            continue
        drop = int(eta / 4 * a.size)
        keep = rng.permutation(a.size)[: a.size - drop]
        a_sub = GroupSet.from_elements(n, a.elements[keep].tolist())
        assert a_sub.size >= (1 - eta / 4) * a.size
        induced_pairs = closedness_exact(a_sub, b).pair_count
        assert Fraction(induced_pairs, a_sub.size) >= eta * b.total / 2
