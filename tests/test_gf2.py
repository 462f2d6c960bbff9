"""Tests for the packed GF(2) linear algebra core."""

import functools
import math

import numpy as np
import pytest

from closurelab.budgets import Budget, BudgetExceeded, DimensionMismatch, using
from closurelab.forcing import random_factor_tuples
from closurelab.gf2 import (
    Subspace,
    all_subspaces,
    count_small_support,
    from_hex,
    random_subspace,
    random_vector,
    rref,
    to_hex,
    to_hex_array,
)
from closurelab.spectral import subspace_elements


def test_rref_two_independent_vectors():
    s = rref([0b011, 0b110], 3)
    assert s.dim == 2
    assert set(s.enumerate()) == {0, 0b011, 0b110, 0b101}


def test_rref_empty():
    s = rref([], 3)
    assert s.dim == 0
    assert list(s.enumerate()) == [0]


def test_rref_dependent_vector():
    # 111 + 110 = 001
    s = rref([0b111, 0b110, 0b001], 3)
    assert s.dim == 2


def test_rref_mixed_lengths_rejected():
    with pytest.raises(DimensionMismatch):
        rref([0b1, 0b10000], 3)


def test_rref_canonical_independent_of_generating_set():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        base = [random_vector(n, rng) for _ in range(int(rng.integers(1, n + 1)))]
        shuffled = list(base)
        rng.shuffle(shuffled)
        mixed = shuffled + [shuffled[0] ^ shuffled[-1]]
        assert rref(base, n) == rref(mixed, n)


def test_orthogonal_complement_examples():
    assert rref([0b001], 3).complement() == rref([0b010, 0b100], 3)
    assert Subspace.full(4).complement() == rref((), 4)
    assert rref((), 4).complement() == Subspace.full(4)


def test_double_complement_and_exhaustive_orthogonality():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 13))
        v = random_subspace(n, int(rng.integers(0, n + 1)), rng)
        comp = v.complement()
        assert comp.dim == n - v.dim
        assert comp.complement() == v
        for x in comp.enumerate():
            assert all((x & row).bit_count() % 2 == 0 for row in v.rows)


def test_complement_is_involution_n16():
    rng = np.random.default_rng(5)
    for _ in range(25):
        v = random_subspace(16, int(rng.integers(0, 17)), rng)
        assert v.complement().complement() == v


def test_intersect_examples():
    v = rref([0b100, 0b010], 3)
    assert v.intersect(v) == v
    w = rref([0b010, 0b001], 3)
    assert v.intersect(w) == rref([0b010], 3)


def test_intersect_of_many_matches_the_pairwise_fold_and_the_definition():
    rng = np.random.default_rng(22)
    for count in range(1, 6):
        for _ in range(10):
            n = int(rng.integers(1, 9))
            spaces = [random_subspace(n, int(rng.integers(n // 2, n + 1)), rng)
                      for _ in range(count)]
            got = spaces[0].intersect(*spaces[1:])
            assert got == functools.reduce(lambda a, b: a.intersect(b), spaces)
            inside = {x for x in range(1 << n) if all(s.contains(x) for s in spaces)}
            assert set(got.enumerate()) == inside
            assert Subspace.full(n).intersect(*spaces) == got
            assert got.intersect(*spaces, rref((), n)) == rref((), n)
    with pytest.raises(DimensionMismatch):
        Subspace.full(3).intersect(Subspace.full(3), rref((), 4))


def test_intersect_matches_bruteforce_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 13))
        a = random_subspace(n, int(rng.integers(0, n + 1)), rng)
        b = random_subspace(n, int(rng.integers(0, n + 1)), rng)
        got = a.intersect(b)
        assert got.codim <= a.codim + b.codim
        assert set(got.enumerate()) == set(a.enumerate()) & set(b.enumerate())


def test_enumerate_gray_order_single_xor_steps():
    rng = np.random.default_rng(13)
    for _ in range(20):
        v = random_subspace(12, int(rng.integers(0, 13)), rng)
        elems = list(v.enumerate())
        assert len(elems) == 1 << v.dim
        assert len(set(elems)) == len(elems)
        for x, y in zip(elems, elems[1:]):
            assert (x ^ y) in v.rows
        # closure under pairwise sums, sampled
        for _ in range(20):
            i, j = rng.integers(0, len(elems), size=2)
            assert v.contains(elems[int(i)] ^ elems[int(j)])


def test_enumerate_budget():
    v = Subspace.full(20)
    with pytest.raises(BudgetExceeded):
        list(v.enumerate(budget=2**10))
    # with no explicit limit, every enumeration reads the active witness_budget
    enumerations = [
        lambda bits: list(Subspace.full(bits).enumerate()),
        lambda bits: subspace_elements(Subspace.full(bits)),
        lambda bits: random_factor_tuples((5, bits - 5), 1, np.random.default_rng(0)),
    ]
    with using(Budget(witness_budget=2**10)):
        for enumerate_bits in enumerations:
            enumerate_bits(10)  # at the limit
            with pytest.raises(BudgetExceeded):
                enumerate_bits(11)


def test_contains_array_agrees_with_contains():
    rng = np.random.default_rng(19)
    for n in (1, 2, 5, 12, 20, 33, 63, 64):
        spaces = [rref((), n), Subspace.full(n)]
        spaces += [random_subspace(n, int(rng.integers(0, n + 1)), rng) for _ in range(4)]
        for v in spaces:
            if n <= 12:
                points = list(range(1 << n))
            else:  # members of the space, so that both answers occur, and random vectors
                gens = list(v.rows)
                points = [0, (1 << n) - 1]
                for _ in range(100):
                    x = 0
                    for g in gens:
                        x ^= g * int(rng.integers(0, 2))
                    points += [x, random_vector(n, rng)]
            got = v.contains_array(np.array(points, dtype=np.uint64))
            assert got.dtype == bool
            assert got.tolist() == [v.contains(x) for x in points]
    assert Subspace.full(64).contains_array(np.array([2**64 - 1], dtype=np.uint64)).all()
    assert not rref((), 64).contains_array(np.array([2**63], dtype=np.uint64)).any()
    # int64 input, as np.flatnonzero gives it
    w = rref([0b011, 0b110], 3)
    assert w.contains_array(np.arange(8)).tolist() == [w.contains(x) for x in range(8)]


def test_contains_array_refuses_above_64_coordinates():
    for v in (rref((), 65), Subspace.full(65)):
        with pytest.raises(BudgetExceeded):
            v.contains_array(np.zeros(1, dtype=np.uint64))


def test_count_small_support_examples():
    s = rref([1, 2, 4, 8], 10)
    assert count_small_support(s, 1) == 5  # zero plus four basis vectors
    assert count_small_support(rref((), 6), 3) == 1


def test_count_small_support_bound_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        v = random_subspace(n, int(rng.integers(0, min(n, 8) + 1)), rng)
        for k in range(n + 1):
            count = count_small_support(v, k)
            bound = sum(math.comb(v.dim, i) for i in range(min(k, v.dim) + 1))
            assert count <= bound


def test_all_subspaces_counts_match_gaussian_binomials():
    def gaussian(n, k):
        num = den = 1
        for i in range(k):
            num *= 2**n - 2**i
            den *= 2**k - 2**i
        return num // den

    for n in range(0, 6):
        per_dim = {}
        for s in all_subspaces(n):
            per_dim[s.dim] = per_dim.get(s.dim, 0) + 1
        for k in range(n + 1):
            assert per_dim.get(k, 0) == gaussian(n, k)


def test_hex_roundtrip_and_orientation():
    # length 8, vector with coordinate 7 set -> high coordinate in last digit
    assert to_hex(0b10000000, 8) == "08"
    assert to_hex(0b1, 8) == "10"
    rng = np.random.default_rng(29)
    for _ in range(100):
        n = int(rng.integers(1, 90))
        x = random_vector(n, rng)
        assert from_hex(to_hex(x, n), n) == x


def test_to_hex_array_matches_to_hex():
    for n in range(1, 17):
        hexes = to_hex_array(np.arange(1 << n), n)
        assert hexes.dtype == np.dtype(f"S{(n + 3) // 4}")
        assert hexes.tolist() == [to_hex(r, n).encode() for r in range(1 << n)]
    rng = np.random.default_rng(30)
    for n in (17, 33, 63):
        values = rng.integers(0, 1 << n, size=200, dtype=np.int64)
        assert to_hex_array(values, n).tolist() == [to_hex(int(v), n).encode() for v in values]
    assert to_hex_array(np.array([], dtype=np.int64), 8).tolist() == []
    for bad in ([-1], [1 << 8], [3, 256]):
        with pytest.raises(ValueError):
            to_hex_array(np.array(bad), 8)
