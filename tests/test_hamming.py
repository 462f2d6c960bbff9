"""Tests for layered sets, Krawtchouk spectra, compatibility and the
worked scenarios."""

import math
from fractions import Fraction

import numpy as np
import pytest

from closurelab.budgets import Budget, BudgetExceeded, using
from closurelab.closure import SampledEstimate, closedness_exact
from closurelab.hamming import (
    LayerSet,
    SliceSet,
    compatibility_fraction,
    compatibility_fraction_exact,
    counterexample_scenarios,
    fourier_concentration,
    is_compatible,
    random_translate_fixture,
    slice_mu_hat,
    standard_basis_multiset,
    two_layer_scenario,
)
from closurelab.spectral import GroupMultiset, mu_hat

from .oracles import convolution_floor_oracle, pascal_binomials, smallest_key_bits_oracle


def test_layer_sizes_match_pascal_oracle():
    rows = pascal_binomials(40)
    for n in (5, 12, 33, 40):
        for lo in (0, 1, n // 3):
            for hi in (lo, n // 2, n):
                ls = LayerSet(n, lo, hi)
                assert ls.size == sum(rows[n][w] for w in range(lo, hi + 1))


def test_layer_groupset_agrees_with_predicate():
    ls = LayerSet(10, 3, 6)
    gs = ls.to_groupset()
    assert gs.size == ls.size
    for v in gs.elements.tolist():
        assert ls.lo <= v.bit_count() <= ls.hi


def test_below_cutoff_matches_formula():
    ls = LayerSet.below_cutoff(64, 0.1)
    assert ls.hi == math.floor(32 - 0.1 * 64**0.75)
    with pytest.raises(ValueError):
        LayerSet.below_cutoff(9, 10.0)


def test_slice_mu_hat_edge_values():
    for n, w in [(10, 3), (12, 5)]:
        assert slice_mu_hat(n, w, 0) == 1
    for n in (5, 9, 14):
        for uw in range(n + 1):
            assert slice_mu_hat(n, 1, uw) == Fraction(n - 2 * uw, n)


def test_slice_mu_hat_matches_dense_transform():
    for n in range(2, 11):
        for w in range(n + 1):
            b = GroupMultiset.from_elements(n, SliceSet(n, w).to_groupset().elements)
            spec = mu_hat(b)
            for r in range(1 << n):
                assert spec.value(r) == slice_mu_hat(n, w, r.bit_count())


def test_compatibility_definition_reformulation():
    from closurelab.gf2 import random_vector

    rng = np.random.default_rng(0)
    for _ in range(10**4):
        n = int(rng.integers(2, 65))
        u = random_vector(n, rng)
        w = random_vector(n, rng)
        direct = (u ^ w).bit_count() <= u.bit_count()
        integer_form = 2 * (u & w).bit_count() >= w.bit_count()
        assert direct == integer_form


def test_compatibility_extremes():
    n = 16
    sl = SliceSet(n, 4)
    b = sl.to_groupset().elements.tolist()
    assert not is_compatible(0, b)
    assert is_compatible((1 << n) - 1, b)


def test_compatible_weights_match_direct_scan():
    n = 12
    layer = LayerSet(n, 0, 7)
    sl = SliceSet(n, 3)
    b = sl.to_groupset().elements.tolist()
    exact = compatibility_fraction_exact(layer, sl)
    direct_count = sum(
        1 for v in layer.to_groupset().elements.tolist() if is_compatible(v, b)
    )
    assert exact == Fraction(direct_count, layer.size)


def test_compatibility_sampled_tracks_exact():
    for n in (36, 49):
        layer = LayerSet.below_cutoff(n, 0.1)
        sl = SliceSet(n, int(math.isqrt(n)))
        exact = float(compatibility_fraction_exact(layer, sl))
        rep = compatibility_fraction(layer, sl, 20000, seed=11)
        assert abs(rep.estimate - exact) <= rep.radius


def test_compatibility_sampled_deterministic():
    layer = LayerSet.below_cutoff(36, 0.1)
    sl = SliceSet(36, 6)
    r1 = compatibility_fraction(layer, sl, 5000, seed=3)
    r2 = compatibility_fraction(layer, sl, 5000, seed=3)
    assert r1.estimate == r2.estimate


def test_library_estimators_read_the_active_sample_cap():
    from closurelab.hamming import layered_pair_eta_sampled

    layer = LayerSet.below_cutoff(36, 0.1)
    sl = SliceSet(36, 6)
    with using(Budget(max_samples=10)):
        for estimate in (compatibility_fraction, layered_pair_eta_sampled):
            assert estimate(layer, sl, 10, seed=1).samples == 10  # at the cap
            with pytest.raises(BudgetExceeded, match="samples 11 exceed budget 10"):
                estimate(layer, sl, 11, seed=1)


def test_compatibility_explicit_bprime_list():
    layer = LayerSet(12, 0, 5)
    sl = SliceSet(12, 3)
    blist = sl.to_groupset().elements.tolist()
    full = compatibility_fraction(layer, sl, 4000, seed=5)
    listed = compatibility_fraction(layer, blist, 4000, seed=5)
    # closed-form and explicit paths estimate the same quantity
    assert abs(full.estimate - listed.estimate) <= full.radius + listed.radius


def test_compatibility_estimates_are_pinned():
    """Frozen seeded estimates of the closed-form slice path and of the
    explicit-B' scan: the draws and their order must not change."""
    layer = LayerSet(12, 0, 5)
    blist = SliceSet(12, 3).to_groupset().elements.tolist()
    cases = [
        (LayerSet.below_cutoff(36, 0.1), SliceSet(36, 6), 20000, 3, 0.89295, 0.011509037065006824),
        (layer, blist, 5000, 5, 0.498, 0.02301807413001365),
    ]
    for layer, bprime, samples, seed, estimate, radius in cases:
        rep = compatibility_fraction(layer, bprime, samples, seed)
        assert rep == SampledEstimate(estimate, radius, samples, seed)
        assert list(rep.to_json()) == ["mode", "estimate", "radius", "confidence", "samples", "seed"]


def _explicit_compatibility_loop(layer, bprime, samples, seed):
    """The per-sample Python count of an explicit B', on the same draws."""
    from closurelab.closure import seeded_chunks
    from closurelab.hamming import _random_point_of_weight, _weight_sampler

    draw_weights = _weight_sampler(layer)
    hits = 0
    for rng, count in seeded_chunks(samples, seed):
        for m in draw_weights(rng, count).tolist():
            u = _random_point_of_weight(layer.n, m, rng)
            stay = sum(1 for w in bprime if 2 * (u & w).bit_count() >= w.bit_count())
            hits += 3 * stay >= len(bprime)
    return hits / samples


def test_compatibility_explicit_matches_per_sample_loop(monkeypatch):
    import closurelab.hamming as hamming

    monkeypatch.setattr(hamming, "_COMPAT_BLOCK", 1000)  # several blocks per chunk
    wide = np.random.default_rng(32).integers(0, 2**64, size=40, dtype=np.uint64).tolist()
    cases = [
        (LayerSet(12, 0, 5), [x for x in range(1 << 12) if x.bit_count() == 4], 3000),
        (LayerSet(12, 2, 7), [1, 3, 7, 0xFF, 0x5A5], 5000),
        (LayerSet(64, 20, 26), wide, 5000),
        (LayerSet(9, 0, 9), [], 300),
    ]
    for layer, bprime, samples in cases:
        for seed in (1, 2):
            rep = compatibility_fraction(layer, bprime, samples, seed)
            assert rep.estimate == _explicit_compatibility_loop(layer, bprime, samples, seed)
    with pytest.raises(BudgetExceeded):
        compatibility_fraction(LayerSet(65, 0, 10), [1, 2], 10, 1)


class _TiedKeys:
    """A generator whose uniform keys take 3 values, so rows tie at their
    threshold; weights come from the wrapped generator unchanged."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self, shape):
        return np.floor(self.rng.random(shape) * 3) / 3

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)


def test_samplers_with_tied_keys_match_double_argsort():
    from closurelab.hamming import (
        _smallest_key_bits,
        _weight_sampler,
        fixed_weight_sampler,
        layer_sampler,
    )

    count = 400
    for n, w in ((1, 0), (1, 1), (7, 3), (40, 7), (64, 0), (64, 33), (64, 64)):
        keys = _TiedKeys(n).random((count, n))
        expected = smallest_key_bits_oracle(keys, [w] * count)
        assert np.array_equal(fixed_weight_sampler(n, w)(_TiedKeys(n), count), expected)
        assert np.array_equal(np.bitwise_count(expected), np.full(count, w))
        if 0 < w < n:  # the threshold key is tied in some rows
            ordered = np.sort(keys, axis=1)
            assert np.any(ordered[:, w - 1] == ordered[:, w])
    for layer in (LayerSet(20, 3, 15), LayerSet(64, 0, 20), LayerSet(5, 0, 5)):
        oracle_rng = _TiedKeys(7)
        weights = _weight_sampler(layer)(oracle_rng, count)
        keys = oracle_rng.random((count, layer.n))
        expected = smallest_key_bits_oracle(keys, weights.tolist())
        assert np.array_equal(layer_sampler(layer)(_TiedKeys(7), count), expected)
    # real keys: every row's bits are its w smallest keys
    keys = np.random.default_rng(33).random((count, 50))
    cutoffs = np.random.default_rng(34).integers(0, 51, size=count)
    assert np.array_equal(_smallest_key_bits(np.random.default_rng(33), 50, cutoffs),
                          smallest_key_bits_oracle(keys, cutoffs.tolist()))


class _TiedRow:
    """Real uniform keys, except that global row ``row`` is all one value,
    wherever the caller's blocks split the rows."""

    def __init__(self, seed, row):
        self.rng, self.row, self.drawn = np.random.default_rng(seed), row, 0

    def random(self, shape):
        keys = self.rng.random(shape)
        if self.drawn <= self.row < self.drawn + shape[0]:
            keys[self.row - self.drawn] = 0.5
        self.drawn += shape[0]
        return keys


def test_smallest_key_bits_across_key_blocks_matches_double_argsort():
    from closurelab.hamming import _KEY_BLOCK, _smallest_key_bits

    # two whole blocks of 512 rows, then a last block of 276 rows or of one
    for count, n in ((1300, 1), (1300, 7), (1300, 20), (1300, 37), (1025, 37), (1300, 64)):
        assert 2 * _KEY_BLOCK < count < 3 * _KEY_BLOCK
        cutoffs = np.random.default_rng(n).integers(0, n + 1, size=count)
        cutoffs[-1] = max(1, n - 1)  # the last row, all tied in _TiedRow, keeps a key out
        for make in (lambda: _TiedKeys(n), lambda: _TiedRow(n, count - 1)):
            keys = make().random((count, n))
            expected = smallest_key_bits_oracle(keys, cutoffs.tolist())
            got = _smallest_key_bits(make(), n, cutoffs)
            assert np.array_equal(got, expected)
            assert np.array_equal(np.bitwise_count(got), cutoffs)
    # the last block holds tied threshold keys in both generators
    keys = _TiedKeys(37).random((1300, 37))[2 * _KEY_BLOCK:]
    ordered = np.sort(keys, axis=1)
    assert np.any(ordered[:, 17] == ordered[:, 18])
    assert _TiedRow(64, 1299).random((1300, 64))[-1].tolist() == [0.5] * 64


def test_fixed_weight_sampler_refuses_a_weight_outside_0_to_n():
    from closurelab.hamming import fixed_weight_sampler

    for w in (-1, 6, 7):
        with pytest.raises(ValueError, match="bad slice weight"):
            fixed_weight_sampler(5, w)
    for w in (0, 5):
        draws = fixed_weight_sampler(5, w)(np.random.default_rng(0), 3)
        assert np.bitwise_count(draws).tolist() == [w] * 3


def test_fourier_concentration_zero_multiset():
    b = GroupMultiset.from_pairs(6, [(0, 2)])
    res = fourier_concentration(b, Fraction(98, 100))
    assert res.count == 64
    assert res.mode == "exact"


def test_fourier_concentration_slice_vs_dense_paths():
    n, w = 12, 4
    sl = SliceSet(n, w)
    dense = GroupMultiset.from_elements(n, sl.to_groupset().elements)
    for threshold in (Fraction(98, 100), Fraction(1, 2), Fraction(-1, 5)):
        slice_res = fourier_concentration(sl, threshold)
        dense_res = fourier_concentration(dense, threshold)
        assert slice_res.count == dense_res.count


def test_fourier_concentration_random_subslice_tracks_exp_bound():
    rng = np.random.default_rng(9)
    n, w = 16, 4
    full = SliceSet(n, w).to_groupset().elements
    half = rng.choice(full, size=full.size // 2, replace=False)
    b = GroupMultiset.from_elements(n, half.tolist())
    res = fourier_concentration(b, Fraction(98, 100))
    assert res.count >= 1  # u = 0 always concentrates
    assert res.count <= math.exp(n ** (2 / 3))


def test_random_translate_fixture_exact_third():
    for seed in (1, 2, 3):
        a, masks, _ = random_translate_fixture(12, 3, seed)
        assert a.size == 3 * 16
        eta = closedness_exact(a, standard_basis_multiset(12)).eta
        assert eta == Fraction(1, 3)
        assert masks[0] | masks[1] | masks[2] == (1 << 12) - 1


def test_two_layer_scenario_exactness():
    for n in (5, 7, 9, 11, 13):
        row = two_layer_scenario(n)
        assert row.passed


def test_layered_eta_mixture_matches_materialized_exact():
    from closurelab.hamming import layered_pair_eta_exact

    layer = LayerSet(12, 0, 5)
    sl = SliceSet(12, 3)
    direct = closedness_exact(
        layer.to_groupset(),
        GroupMultiset.from_elements(12, sl.to_groupset().elements),
    ).eta
    assert layered_pair_eta_exact(layer, sl) == direct


def test_layered_eta_sampled_beyond_enumeration_small_n_consistency():
    from closurelab.hamming import layered_pair_eta_exact, layered_pair_eta_sampled

    layer = LayerSet(16, 0, 6)
    sl = SliceSet(16, 4)
    exact = float(layered_pair_eta_exact(layer, sl))
    rep = layered_pair_eta_sampled(layer, sl, 20000, seed=9)
    assert abs(rep.estimate - exact) <= rep.radius
    # frozen: the draws and their order must not change
    assert rep == SampledEstimate(0.48645, 0.011509037065006824, 20000, 9)
    assert rep.to_json() == {"mode": "sampled", "estimate": 0.48645, "radius": 0.011509037065006824,
                             "confidence": 0.99, "samples": 20000, "seed": 9}


def test_section3_pair_eta_reference_value_n64():
    """Sampled eta of the scaled layered pair at n=64.

    The flat constant eta of this pair is never pinned analytically; this
    seeded run is the artifact-derived regression reference.
    """
    from closurelab.hamming import layered_pair_eta_exact, layered_pair_eta_sampled

    layer = LayerSet.below_cutoff(64, 0.1)
    sl = SliceSet(64, 8)
    exact = layered_pair_eta_exact(layer, sl)
    rep = layered_pair_eta_sampled(layer, sl, 10**5, seed=20260811)
    assert abs(rep.estimate - float(exact)) <= rep.radius
    # frozen reference: exact hypergeometric mixture and the seeded estimate
    assert math.isclose(float(exact), 0.6582684645656361, rel_tol=0, abs_tol=1e-12)
    assert rep.estimate == 0.65875


def test_convolution_floor_matches_gather_oracle():
    from closurelab.hamming import _convolution_floor

    rng = np.random.default_rng(15)
    for n in (1, 2, 5, 9):
        bitmap = rng.random(1 << n) < 0.4
        for l in (0, 1, 2, 4):
            assert np.array_equal(_convolution_floor(bitmap, l), convolution_floor_oracle(bitmap, l))


def test_counterexample_scenarios_all_pass():
    rows = counterexample_scenarios()
    for row in rows:
        assert row.passed is not False, f"{row.name}: {row.measured} vs {row.claim}"
    names = {row.name for row in rows}
    assert {
        "two-middle-layers",
        "at-most-n-third",
        "random-translates",
        "bounded-support-window",
        "third-window",
    } <= names
