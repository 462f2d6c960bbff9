"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the logged measured dimensions.

Criterion 12 is split: 12b (Krawtchouk concentration consistency) and
12a (the compatibility trend of the layered counterexample).  12a asserts
the trend in the form that can hold: the fraction tends to 0 only for
cutoff constants above c* = Phi^-1(2/3)/2 ~ 0.2154, so the test asserts the
fall to 0 at c = 1/2, and at the spec's c = 0.1, which lies below c*, it
checks each seeded estimate against the exact fraction.  The docstring of
`test_criterion_12a_section3_compatibility_trend` quotes the original
claim and gives the analysis.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from closurelab.closure import closedness_exact, triangle_compose
from closurelab.forcing import (
    agreement_profile,
    agreement_threshold,
    check_forcing,
    matrix_pipeline,
    random_factor_tuples,
)
from closurelab.gf2 import (
    all_subspaces,
    count_small_support,
    random_subspace,
)
from closurelab.hamming import (
    LayerSet,
    SliceSet,
    compatibility_fraction,
    compatibility_fraction_exact,
    counterexample_scenarios,
    fourier_concentration,
    layer_groupset,
    slice_mu_hat,
    standard_basis_multiset,
)
from closurelab.spectral import (
    GroupMultiset,
    bogolyubov,
    random_groupset,
    spectral_closedness,
    wht,
)
from closurelab.tensor import TensorShape, degenerate_decide, Tensor, rank1_flat, sum_of_blowups

from .oracles import bfs_sum_layers, matrix_rank_oracle, partition_rank_oracle


class LibraryClock:
    """Accumulates the time spent inside `with clock:` blocks.

    A criterion whose budget covers the library alone times its library
    calls through one of these, so the test's own oracle stays outside it.
    """

    def __init__(self):
        self.elapsed = 0.0

    def __enter__(self):
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        self.elapsed += time.perf_counter() - self._start

    def iterate(self, iterable):
        """Yield from `iterable`, timing each step of it but not the consumer."""
        it = iter(iterable)
        done = object()
        while True:
            with self:
                item = next(it, done)
            if item is done:
                return
            yield item


@contextmanager
def criterion(
    cid: str, description: str, budget_s: float, clock: LibraryClock | None = None
):
    """Print a PASS/FAIL line and hold the block to `budget_s`.

    The budget applies to the wall time of the block, or, when `clock` is
    given, to the library time that `clock` accumulated inside it.
    """
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {cid}: FAIL - {description}")
        raise
    wall = time.perf_counter() - start
    elapsed = wall if clock is None else clock.elapsed
    note = "" if clock is None else f" of library calls ({wall:.2f}s wall)"
    if elapsed >= budget_s:
        print(
            f"ACCEPTANCE {cid}: FAIL - runtime {elapsed:.2f}s{note} over {budget_s}s budget"
        )
        raise AssertionError(f"{cid}: runtime {elapsed:.2f}s >= {budget_s}s")
    print(
        f"ACCEPTANCE {cid}: PASS in {elapsed:.2f}s{note} (budget {budget_s:g}s) - {description}"
    )


def test_criterion_1_middle_layers_exact():
    with criterion("1", "middle-layers eta = (n+1)/2n exactly, n in 5,7,9,11", 1.0):
        for n in (5, 7, 9, 11):
            half = (n - 1) // 2
            a = layer_groupset(n, half, half + 1)
            eta = closedness_exact(a, standard_basis_multiset(n)).eta
            assert eta == Fraction(n + 1, 2 * n)


def test_criterion_2_spectral_equals_combinatorial():
    with criterion("2", "spectral = combinatorial, 100 random pairs per n=6..12", 60.0):
        rng = np.random.default_rng(20260811)
        for n in range(6, 13):
            for _ in range(100):
                a = random_groupset(n, int(rng.integers(1, (1 << n) + 1)), rng)
                support = rng.choice(1 << n, size=int(rng.integers(1, 9)), replace=False)
                b = GroupMultiset.from_pairs(
                    n, [(int(e), int(rng.integers(1, 4))) for e in support]
                )
                exact = closedness_exact(a, b).eta
                spectral = spectral_closedness(a, b)
                assert exact == spectral  # reduced-fraction equality


def _span_and_dual_indicators(rows: tuple[int, ...], parity: np.ndarray):
    """Indicators of span(rows) and of its orthogonal complement.

    Vectorised oracle: `parity[x, y]` is the parity of x.y, the span
    doubles once per basis row, and x lies in the complement when x.row is
    even for every row.
    """
    span = np.zeros(1, dtype=np.int64)
    for row in rows:
        span = np.concatenate([span, span ^ row])
    f = np.zeros(len(parity), dtype=np.int64)
    f[span] = 1
    return f, ~parity[:, list(rows)].any(axis=1)


def test_criterion_3_subspace_measure_spectrum_exhaustive():
    # the 60 s budget covers the library work (enumeration, every wht, the
    # mu_hat subsample); the test's own oracle runs outside it
    clock = LibraryClock()
    with criterion(
        "3", "mu_hat_W = indicator of W-perp, ALL subspaces of F2^n, n<=8", 60.0, clock
    ):
        from closurelab.spectral import mu_hat

        checked = 0
        for n in range(1, 9):
            idx = np.arange(1 << n, dtype=np.int64)
            parity = (np.bitwise_count(idx[:, None] & idx) & 1).astype(bool)
            for sub in clock.iterate(all_subspaces(n)):
                f, dual = _span_and_dual_indicators(sub.rows, parity)
                # mu_hat numerators are exactly this transform; denominator |W|
                with clock:
                    coeffs = wht(f, n).coeffs
                expect = np.where(dual, 1 << sub.dim, 0)
                assert np.array_equal(coeffs, expect)
                # tie the public op in on a subsample
                if checked % 997 == 0:
                    with clock:
                        spec = mu_hat(GroupMultiset.from_elements(n, sub.enumerate()))
                    assert spec.denominator == 1 << sub.dim
                    assert np.array_equal(spec.numerators, coeffs)
                checked += 1
        # the number of subspaces of F2^n (2, 5, 16, 67, 374, 2825, 29212,
        # 417199 for n = 1..8) summed: every subspace was checked
        assert checked == 449_700


def test_criterion_4_integer_parseval_always_on(monkeypatch):
    with criterion("4", "integer Parseval asserted on every transform", 30.0):
        # a large batch of clean transforms (the assertion runs inside wht)
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            f = rng.integers(-9, 10, size=1 << n)
            wht(f.astype(np.int64).tolist())
        # corrupting the butterfly must be caught by the always-on check
        import closurelab.spectral as spectral
        from closurelab.budgets import VerificationFailure

        real = spectral._butterfly

        def corrupted(a, bound):
            out = real(a, bound)
            out[0] += 2
            return out

        monkeypatch.setattr(spectral, "_butterfly", corrupted)
        with pytest.raises(VerificationFailure):
            spectral.wht([1, 0, 0, 1])
        monkeypatch.undo()


def test_criterion_5_bogolyubov_verified_against_sumset_oracle():
    with criterion("5", "Bogolyubov at n=10, 50 dense sets, codim<=8 + 4-sum oracle", 120.0):
        rng = np.random.default_rng(5)
        n = 10
        for _ in range(50):
            s = random_groupset(n, 1 << (n - 1), rng)  # density exactly 1/2
            v = bogolyubov(s)
            assert v.codim <= 8
            layers = bfs_sum_layers([int(e) for e in s.elements], n, 4)
            for x in v.enumerate():
                assert layers[4][x]


def test_criterion_6_d1_forcing_agreement_set_is_dual():
    with criterion("6", "d=1 forcing: 3/4-agreement set equals U-perp exactly", 60.0):
        rng = np.random.default_rng(6)
        for n in (8, 10, 12):
            for k in (1, 2, 3, 4):
                for _ in range(3):
                    u = random_subspace(n, n - k, rng)
                    q = GroupMultiset.from_elements(n, u.enumerate())
                    profile = agreement_profile(q)
                    thresh = agreement_threshold(q.total, Fraction(3, 4))
                    got = set(np.flatnonzero(profile.counts >= thresh).tolist())
                    assert got == set(u.complement().enumerate())
                    cert = check_forcing(
                        profile,
                        Fraction(3, 4),
                        sum_of_blowups(TensorShape((n,)), {(0,): u.complement()}),
                    )
                    assert cert.verified


def test_criterion_7_matrix_pipeline_end_to_end():
    with criterion(
        "7", "matrix pipeline (4,4) delta=1/2 eps=1/32: containment + 16B' witnesses, 10 seeds", 600.0
    ):
        shape = TensorShape((4, 4))
        for seed in range(2000, 2010):
            rng = np.random.default_rng(seed)
            pairs = random_factor_tuples((4, 4), 128, rng)
            result = matrix_pipeline(pairs, shape, Fraction(1, 2), Fraction(1, 32))
            print(f"  pipeline seed={seed} measured={result.measured}")
            assert result.verified, f"containment failed at seed {seed}"
            # independent validation of every 16B' witness
            allowed = {rank1_flat((4, 4), t) for t in pairs}
            assert result.structure.witnesses
            for (u, v), wit in result.structure.witnesses.items():
                assert len(wit) <= 16
                acc = 0
                for g in wit:
                    assert g in allowed
                    acc ^= g
                assert acc == rank1_flat((4, 4), (u, v))


def test_criterion_8_degeneracy_vs_rank_and_partition_rank():
    with criterion(
        "8", "degeneracy: d=2 equals rank on all 512 (3,3); d=3 partition rank bound", 300.0
    ):
        shape2 = TensorShape((3, 3))
        for k in (0, 1, 2):
            for x in range(1 << 9):
                res = degenerate_decide(Tensor(shape2, x), k)
                assert res.degenerate == (matrix_rank_oracle(x, 3, 3) <= k)
        shape3 = TensorShape((2, 2, 2))
        k = 1
        degenerate_found = 0
        for x in range(1 << 8):
            res = degenerate_decide(Tensor(shape3, x), k)
            if res.degenerate:
                pr = partition_rank_oracle(x, (2, 2, 2))
                assert pr is not None and pr <= (1 << (shape3.d - 1)) * k
                degenerate_found += 1
        assert degenerate_found > 0


def test_criterion_9_triangle_deficits():
    with criterion("9", "triangle: 200 random (A,b1,b2) at n=10, exact inequality", 60.0):
        rng = np.random.default_rng(9)
        n = 10
        for _ in range(200):
            a = random_groupset(n, int(rng.integers(1, 1 << n)), rng)
            b1 = int(rng.integers(0, 1 << n))
            b2 = int(rng.integers(0, 1 << n))
            d1, d2, d12 = triangle_compose(a, b1, b2)  # raises on violation
            assert d12 <= d1 + d2


def test_criterion_10_small_support_bound():
    with criterion("10", "small-support count <= sum C(dim,i), 100 random subspaces", 60.0):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            v = random_subspace(n, int(rng.integers(0, min(n, 8) + 1)), rng)
            for k in range(n + 1):
                count = count_small_support(v, k)
                bound = sum(math.comb(v.dim, i) for i in range(min(k, v.dim) + 1))
                assert count <= bound


def test_criterion_11_krawtchouk_equals_dense_transform():
    with criterion("11", "slice mu_hat equals dense transform, all n<=12, all weights", 60.0):
        from closurelab.spectral import mu_hat

        for n in range(1, 13):
            wt = np.bitwise_count(np.arange(1 << n, dtype=np.int64)).astype(np.int64)
            for w in range(n + 1):
                b = GroupMultiset.from_elements(
                    n, SliceSet(n, w).to_groupset().elements
                )
                spec = mu_hat(b)
                denom = math.comb(n, w)
                assert spec.denominator == denom
                # numerators must equal the Krawtchouk sum at each dual weight
                expected = np.array(
                    [
                        slice_mu_hat(n, w, uw).numerator
                        * (denom // slice_mu_hat(n, w, uw).denominator)
                        for uw in range(n + 1)
                    ],
                    dtype=np.int64,
                )
                assert np.array_equal(spec.numerators, expected[wt])


def _krawtchouk_sweep_by_recurrence(n: int, w: int) -> list[int]:
    """K_w(u) for u = 0..n via K_k(u+1) = K_k(u) - K_{k-1}(u) - K_{k-1}(u+1).

    Independent of the direct binomial sum used by the library.
    """
    table = [[0] * (n + 1) for _ in range(w + 1)]
    for u in range(n + 1):
        table[0][u] = 1
    for k in range(1, w + 1):
        table[k][0] = math.comb(n, k)
        for u in range(n):
            table[k][u + 1] = table[k][u] - table[k - 1][u] - table[k - 1][u + 1]
    return table[w]


def test_criterion_12a_section3_compatibility_trend():
    """Spec criterion 12, trend half, in the form that can hold.

    The claim as first stated (and asserted here until it was shown to be
    unattainable): "the compatibility fraction at c = 0.1 is strictly
    decreasing over n in {36, 49, 64} and < 0.05 at n = 64", for the layer
    set {|u| <= n/2 - c*n^(3/4)} and B' the weight-sqrt(n) slice.

    The library matches its documented definition (u is compatible when at
    least a third of B' does not increase |u|): the exact fractions at
    c = 0.1 are 0.8944 / 0.5549 / 0.9384, and the seeded estimates
    0.8944 / 0.55368 / 0.93785 lie within their radius of them.  The claim
    holds at no constant: over c in [0, 1] in steps of 1/2000 no exact
    triple has f(36) > f(49) > f(64) and f(64) < 0.05.

    Why: compatibility depends on m = |u| alone.  At m = n/2 - t*n^(3/4)
    and w = sqrt(n), the overlap j of u with a slice vector has mean
    w/2 - t*n^(1/4) and standard deviation ~ n^(1/4)/2, so the share of B'
    that does not increase |u| tends to 1 - Phi(2t).  The fraction thus
    tends to 1 for c < c* = Phi^-1(2/3)/2 ~ 0.2154 and to 0 for c > c*;
    c = 0.1 is on the wrong side (limit share 0.42 > 1/3).  On top of that
    the inner threshold ceil(w/2) jumps with the parity of w, which makes
    the 36/49/64 zig-zag: f(49) > 0 needs c < 0.2, and there f(64) >= 0.87.

    So the test asserts:
    (a) above the threshold, at c = 1/2, the fall to 0.  The limit share is
        1 - Phi(1) ~ 0.159, and the exact share at the boundary weight is
        0.12-0.22 for every square n from 36 to 4096, well under 1/3.
        (Just above c* convergence is slow: c = 0.25 and 0.3 still give
        0.30-0.84 at even w for n <= 1024.)  The seeded estimates at
        n = 36, 49, 64 are non-increasing with estimate + radius < 0.05 at
        n = 64, and the exact fraction is 0 at every square n, 36..1024.
    (b) below the threshold, at the spec's c = 0.1, each seeded estimate
        lies within its stated radius of the exact fraction.
    """
    with criterion(
        "12a", "compatibility fraction falls to 0 at c=1/2, estimates track exact at c=0.1", 300.0
    ):
        reports = {}
        for c in (0.5, 0.1):
            for n in (36, 49, 64):
                layer = LayerSet.below_cutoff(n, c)
                bprime = SliceSet(n, math.isqrt(n))
                rep = compatibility_fraction(layer, bprime, 10**5, seed=20260811)
                exact = compatibility_fraction_exact(layer, bprime)
                reports[c, n] = (rep, exact)
                print(
                    f"  c={c} n={n}: estimate {rep.estimate} +- {rep.radius:.4f}, "
                    f"exact {float(exact):.4f}"
                )
        # (a) above c*: the trend to 0
        above = [reports[0.5, n][0] for n in (36, 49, 64)]
        assert above[0].estimate >= above[1].estimate >= above[2].estimate, (
            f"not non-increasing at c=1/2: {[r.estimate for r in above]}"
        )
        assert above[2].estimate + above[2].radius < 0.05, (
            f"n=64 fraction {above[2].estimate} +- {above[2].radius} is not < 0.05"
        )
        for r in range(6, 33):
            n = r * r
            exact = compatibility_fraction_exact(
                LayerSet.below_cutoff(n, 0.5), SliceSet(n, r)
            )
            assert exact == 0, f"exact fraction {exact} at c=1/2, n={n}"
        # (b) below c*: the estimator is sound where the fraction stays large
        for n in (36, 49, 64):
            rep, exact = reports[0.1, n]
            assert abs(rep.estimate - float(exact)) <= rep.radius, (
                f"c=0.1 n={n}: estimate {rep.estimate} is not within "
                f"{rep.radius} of exact {float(exact)}"
            )


def test_criterion_12b_concentration_count_matches_recurrence_sweep():
    with criterion("12b", "slice concentration count at n=100, w=10, thr 0.98", 300.0):
        n, w = 100, 10
        res = fourier_concentration(SliceSet(n, w), Fraction(98, 100))
        sweep = _krawtchouk_sweep_by_recurrence(n, w)
        denom = math.comb(n, w)
        expected = sum(
            math.comb(n, uw)
            for uw in range(n + 1)
            if Fraction(sweep[uw], denom) >= Fraction(98, 100)
        )
        assert res.count == expected
        assert res.count == 2  # u = 0 and (w even) u = all-ones


def test_criterion_13_scenario_suite():
    with criterion("13", "every worked-example closedness claim at n <= 17", 300.0):
        rows = counterexample_scenarios()
        by_name = {}
        for row in rows:
            by_name.setdefault(row.name, []).append(row)
        # exact 1/3 for the random-translate fixture
        assert all(r.passed for r in by_name["random-translates"])
        # at-most-n/3 measured eta >= 1/3
        assert all(r.passed for r in by_name["at-most-n-third"])
        # both window sets are (B', 1-eps)-closed at eps = 1/4
        assert all(r.passed for r in by_name["bounded-support-window"])
        assert all(r.passed for r in by_name["third-window"])
        # the two-layer rows measure (n+1)/2n exactly
        assert all(r.passed for r in by_name["two-middle-layers"])
        # nothing else in the table regressed
        assert all(r.passed is not False for r in rows)
