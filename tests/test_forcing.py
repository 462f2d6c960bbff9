"""Tests for agreement profiles, forcing certificates, the structure
finder, l-system construction, and the matrix pipeline."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from closurelab.budgets import DensityTooLow, DimensionMismatch
from closurelab.forcing import (
    UNREACHED,
    SumsetReach,
    _four_splits,
    agreement_profile,
    agreement_threshold,
    build_q_matrix,
    check_forcing,
    find_structure_matrix,
    find_system,
    matrix_pipeline,
    random_factor_tuples,
    reduced_witness,
)
from closurelab.gf2 import Subspace, random_subspace, rref
from closurelab.spectral import GroupMultiset
from closurelab.tensor import (
    TensorShape,
    rank1_flat,
    rank_one_counter,
    rank_reach,
    sum_of_blowups,
)

from .oracles import (
    agreement_count,
    bfs_sum_layers,
    forcing_loop_oracle,
    four_split_oracle,
    greedy_centers,
    layered_witness,
    rank_one_matrices,
)


def test_agreement_profile_constant_zero_multiset():
    q = GroupMultiset.from_pairs(6, [(0, 5)])
    profile = agreement_profile(q)
    assert np.all(profile.counts == 5)


def test_agreement_profile_subspace_character_orthogonality():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = 8
        u = random_subspace(n, int(rng.integers(1, n)), rng)
        q = GroupMultiset.from_elements(n, u.enumerate())
        profile = agreement_profile(q)
        dual = u.complement()
        size = 1 << u.dim
        for r in range(1 << n):
            expect = size if dual.contains(r) else size // 2
            assert int(profile.counts[r]) == expect


def test_agreement_profile_matches_naive_double_loop():
    rng = np.random.default_rng(1)
    shape = TensorShape((3, 3))
    support = rng.choice(512, size=20, replace=False)
    q = GroupMultiset.from_pairs(
        9, [(int(e), int(rng.integers(1, 4))) for e in support]
    )
    profile = agreement_profile(q, shape)
    for r in range(512):
        assert int(profile.counts[r]) == agreement_count(q.counts, r)


def test_check_forcing_d1_subspace_agreement_set_is_dual():
    rng = np.random.default_rng(2)
    for n, k in [(8, 1), (10, 3), (12, 4)]:
        u = random_subspace(n, n - k, rng)
        q = GroupMultiset.from_elements(n, u.enumerate())
        profile = agreement_profile(q)
        cert = check_forcing(profile, Fraction(3, 4), u.complement())
        assert cert.verified
        # exactness: the agreement set IS the dual
        thresh = agreement_threshold(q.total, Fraction(3, 4))
        got = set(np.flatnonzero(profile.counts >= thresh).tolist())
        assert got == set(u.complement().enumerate())


def test_check_forcing_full_spaces_always_verified():
    q = GroupMultiset.from_pairs(4, [(3, 1), (9, 2)])
    cert = check_forcing(agreement_profile(q), Fraction(1, 2), Subspace.full(4))
    assert cert.verified
    with pytest.raises(DimensionMismatch):
        check_forcing(agreement_profile(q), Fraction(1, 2), Subspace.full(5))


def test_check_forcing_zero_multiset_never_verified_for_proper_spaces():
    q = GroupMultiset.from_pairs(4, [(0, 3)])
    cert = check_forcing(agreement_profile(q), Fraction(3, 4), rref((), 4))
    assert not cert.verified
    assert cert.counterexample is not None


def test_check_forcing_certificates_are_sound():
    # re-verification from scratch: recount agreements directly and recheck
    # containment of every qualifying array in a freshly built sum space
    rng = np.random.default_rng(30)
    shape = TensorShape((3, 3))
    u = random_subspace(9, 6, rng)
    q = GroupMultiset.from_elements(9, u.enumerate())
    profile = agreement_profile(q, shape)
    target = sum_of_blowups(shape, {(0, 1): u.complement()})
    cert = check_forcing(profile, Fraction(3, 4), target)
    assert cert.verified
    requalified = 0
    for r in range(1 << 9):
        direct = agreement_count(q.counts, r)
        assert direct == int(profile.counts[r])
        if 4 * direct >= 3 * q.total:
            requalified += 1
            assert target.contains(r)
    assert requalified == cert.agreement_set_size


def test_sumset_reach_matches_oracle_and_witnesses():
    rng = np.random.default_rng(3)
    gens = sorted(set(int(g) for g in rng.integers(1, 256, size=6)))
    reach = SumsetReach(gens, 8, 5)
    layers = bfs_sum_layers(gens, 8, 5)
    for j in range(6):
        assert np.array_equal(reach.dist <= j, layers[j])
    for x, wit in enumerate(reach.witness(range(256))):
        if wit is None:
            assert not layers[5][x]
        else:
            assert len(wit) <= 5
            acc = 0
            for g in wit:
                assert g in gens
                acc ^= g
            assert acc == x


def test_sumset_reach_witness_batches_unreached_repeated_and_empty_targets():
    # the span is the even-weight vectors of F2^4; 0b1001 needs all three
    # generators, one more than the depth
    gens = [0b0011, 0b0110, 0b1100]
    reach = SumsetReach(gens, 4, 2)
    layers = bfs_sum_layers(gens, 4, 2)
    targets = [0b1001, 0b0101, 0, 0b0001, 0b0101, 0b1001, 0, 0b0110]
    want = [layered_witness(layers, gens, x) for x in targets]
    assert want[:4] == [None, [0b0011, 0b0110], [], None]
    assert reach.witness(targets) == want
    assert reach.witness(iter(targets)) == want
    assert reach.witness([]) == []


def test_find_structure_full_pairs_gives_full_spaces():
    shape = TensorShape((3, 3))
    pairs = {(u, v) for u in range(8) for v in range(8)}
    res = find_structure_matrix(pairs, shape, Fraction(1, 2))
    assert res.u_space == Subspace.full(3)
    assert all(space == Subspace.full(3) for space in res.v_spaces.values())
    assert res.common_codim == 0


def test_find_structure_structured_halfspace():
    shape = TensorShape((4, 4))
    pairs = {(u, v) for u in range(16) if u % 2 == 0 for v in range(16)}
    res = find_structure_matrix(pairs, shape, Fraction(1, 2))
    expect_u = rref([0b0010, 0b0100, 0b1000], 4)
    assert res.u_space == expect_u
    assert all(space == Subspace.full(4) for space in res.v_spaces.values())


def test_find_structure_random_witnesses_are_sound():
    shape = TensorShape((4, 4))
    rng = np.random.default_rng(4)
    pairs = random_factor_tuples((4, 4), 128, rng)
    res = find_structure_matrix(pairs, shape, Fraction(1, 2))
    allowed = {rank1_flat((4, 4), tup) for tup in pairs}
    for (u, v), wit in res.witnesses.items():
        assert len(wit) <= 16
        acc = 0
        for g in wit:
            assert g in allowed
            acc ^= g
        assert acc == rank1_flat((4, 4), (u, v))


def test_find_structure_density_violation():
    shape = TensorShape((3, 3))
    with pytest.raises(DensityTooLow):
        find_structure_matrix({(1, 1)}, shape, Fraction(1, 2))


def test_find_structure_is_the_d2_system():
    # U is the system's root; each V_u is the system's subspace at (u,), trimmed
    rng = np.random.default_rng(41)
    shape = TensorShape((4, 4))
    pairs = random_factor_tuples((4, 4), 128, rng)
    res = find_structure_matrix(pairs, shape, Fraction(1, 2))
    system = find_system(pairs, shape, Fraction(1, 2)).system
    assert res.u_space == system.root
    for u, space in res.v_spaces.items():
        assert space.codim == res.common_codim
        assert space == system.spaces[(u,)].drop_last_rows(space.dim)
    with pytest.raises(ValueError, match=r"\(2, 2, 4\) is not 2-dimensional"):
        find_structure_matrix(pairs, TensorShape((2, 2, 4)), Fraction(1, 2))


def test_build_q_matrix_trivial_and_full():
    shape = TensorShape((3, 3))
    zero_u = rref((), 3)
    q = build_q_matrix(zero_u, {0: rref([1, 2], 3)}, shape)
    assert dict(q.counts) == {0: 4}

    full_u = Subspace.full(3)
    q_full = build_q_matrix(
        full_u, {u: Subspace.full(3) for u in range(8)}, shape
    )
    assert dict(q_full.counts) == dict(rank_one_counter(shape))


def test_build_q_matrix_elements_are_rank_one():
    from .oracles import matrix_rank_oracle

    shape = TensorShape((4, 4))
    rng = np.random.default_rng(40)
    pairs = random_factor_tuples((4, 4), 128, rng)
    res = find_structure_matrix(pairs, shape, Fraction(1, 2))
    q = build_q_matrix(res.u_space, res.v_spaces, shape)
    assert q.total == (1 << res.u_space.dim) * (
        1 << next(iter(res.v_spaces.values())).dim
    )
    for elem in q.counts:
        assert matrix_rank_oracle(elem, 4, 4) <= 1


def test_build_q_matrix_unequal_codims_rejected():
    shape = TensorShape((3, 3))
    spaces = {0: Subspace.full(3), 1: rref([1], 3)}
    spaces.update({u: Subspace.full(3) for u in range(2, 8)})
    with pytest.raises(ValueError):
        build_q_matrix(Subspace.full(3), spaces, shape)


def test_check_forcing_certificate_matches_per_candidate_loop():
    # the array containment test against the old loop over candidates in
    # ascending order, on seeded instances that both pass and fail
    rng = np.random.default_rng(31)
    outcomes = set()
    for dims in [(8,), (3, 3), (2, 2, 2), (3, 4)]:
        shape = TensorShape(dims)
        n = shape.total
        for _ in range(6):
            u = random_subspace(n, int(rng.integers(n // 2, n + 1)), rng)
            extra = rng.choice(1 << n, size=3, replace=False).tolist()
            q = GroupMultiset.from_elements(n, list(u.enumerate()) + extra)
            profile = agreement_profile(q, shape)
            spaces = {}
            for mask in range(1, 1 << shape.d):
                if rng.integers(0, 2):
                    axes = tuple(a for a in range(shape.d) if (mask >> a) & 1)
                    amb = math.prod(dims[a] for a in axes)
                    spaces[axes] = random_subspace(amb, int(rng.integers(0, amb + 1)), rng)
            spaces.setdefault((0,), u.complement() if shape.d == 1 else rref((), dims[0]))
            target = sum_of_blowups(shape, spaces)
            for alpha in (Fraction(1, 2), Fraction(3, 4)):
                cert = check_forcing(profile, alpha, target)
                thresh = agreement_threshold(q.total, alpha)
                want = forcing_loop_oracle(profile.counts, thresh, target.contains)
                assert (cert.verified, cert.counterexample, cert.agreement_set_size) == want
                outcomes.add(cert.verified)
    assert outcomes == {True, False}


def test_pipeline_containment_fails_without_w2():
    # at (4,4) delta 3/4 these seeds have dim W1 = 0 and R outside
    # span(centers) + W1 (x) F2: only W2 covers it
    shape = TensorShape((4, 4))
    alpha = 1 - Fraction(1, 32)
    for seed in (2001, 2005):
        pairs = random_factor_tuples((4, 4), 192, np.random.default_rng(seed))
        res = matrix_pipeline(pairs, shape, Fraction(3, 4))
        for blowups, verified in (({(0,): res.w1, (1,): res.w2}, True), ({(0,): res.w1}, False)):
            rows = sum_of_blowups(shape, blowups).rows + tuple(res.centers)
            cert = check_forcing(res.profile, alpha, rref(rows, shape.total))
            assert cert.verified == verified
            assert cert.agreement_set_size == res.agreement_set.size
        assert res.verified and res.measured["containment_dim"] < shape.total
        assert cert.counterexample in res.agreement_set.tolist()


def _structured_fixture(rng, n1=4, n2=4, u_codim=1, v_codim=1):
    shape = TensorShape((n1, n2))
    u_space = random_subspace(n1, n1 - u_codim, rng)
    v = random_subspace(n2, n2 - v_codim, rng)
    v_spaces = {u: v for u in u_space.enumerate()}
    return shape, u_space, v_spaces


def test_reduced_witness_full_and_fixed_v():
    rng = np.random.default_rng(9)
    u_space = random_subspace(4, 3, rng)
    full_v = {u: Subspace.full(4) for u in u_space.enumerate()}
    res = reduced_witness(u_space, full_v, 1)
    assert res.w2 == rref((), 4)
    assert res.x_list == [0]
    assert res.w1 == u_space.complement()

    v = random_subspace(4, 2, rng)
    res2 = reduced_witness(u_space, {u: v for u in u_space.enumerate()}, 1)
    assert set(res2.x_list) == set(v.complement().enumerate())
    assert res2.w2 == v.complement()


def test_reduced_witness_low_rank_containment_exhaustive():
    # every rank<=1 matrix with >= 7/8 agreement lies in W1 (x) F2 + F2 (x) W2
    rng = np.random.default_rng(10)
    shape, u_space, v_spaces = _structured_fixture(rng, v_codim=2)
    q = build_q_matrix(u_space, v_spaces, shape)
    res = reduced_witness(u_space, v_spaces, 1)
    target = sum_of_blowups(shape, {(0,): res.w1, (1,): res.w2})
    profile = agreement_profile(q, shape)
    thresh = agreement_threshold(q.total, Fraction(7, 8))
    low_rank = rank_reach(shape, (0,), 1)
    for r in np.flatnonzero(profile.counts >= thresh).tolist():
        if low_rank[r]:
            assert target.contains(int(r))


def test_sumset_reach_distances_and_witnesses_match_layered_oracle():
    rng = np.random.default_rng(31)
    cases = [
        ([int(g) for g in rng.integers(1, 1 << 7, size=5)], 7, 3),
        ([int(g) for g in rng.integers(1, 1 << 6, size=9)], 6, 9),  # depth > nbits
        ([], 5, 4),  # only 0 is reachable
        ([2 * int(g) for g in rng.integers(1, 1 << 5, size=4)], 6, 6),  # odd x unreachable
        ([int(g) for g in rng.integers(1, 1 << 8, size=12)], 8, 2),  # depth cuts the reach
        ([int(g) for g in rng.integers(0, 1 << 6, size=20)], 6, 0),  # depth 0
    ]
    for gens, nbits, depth in cases:
        reach = SumsetReach(gens, nbits, depth)
        layers = bfs_sum_layers(gens, nbits, depth)
        assert reach.depth == depth
        assert reach.generators == sorted(set(gens))
        for j in range(depth + 1):
            assert np.array_equal(reach.dist <= j, layers[j])
        witnesses = reach.witness(range(1 << nbits))
        for x, wit in enumerate(witnesses):
            first = next((j for j, layer in enumerate(layers) if layer[x]), UNREACHED)
            assert reach.dist[x] == first
            assert wit == layered_witness(layers, gens, x)
        if not layers[-1].all():
            assert None in witnesses


def _bottom_up_layers(layers: list[np.ndarray], span: int) -> list[int]:
    """The layers j whose frontier is over a quarter of the span left unreached.

    The frontier of layer j is layer j-1 minus layer j-2.
    """
    sizes = [0] + [int(layer.sum()) for layer in layers]
    return [
        j for j in range(1, len(layers))
        if span > sizes[j] and 4 * (sizes[j] - sizes[j - 1]) > span - sizes[j]
    ]


def test_sumset_reach_bottom_up_layers_match_layered_oracle():
    rng = np.random.default_rng(12)
    cases = []
    for dims, delta, seed in (((4, 4), "1/2", 2000), ((4, 4), "3/4", 2001)):
        count = math.ceil(Fraction(delta) * (1 << sum(dims)))
        pairs = random_factor_tuples(dims, count, np.random.default_rng(seed))
        cases.append(([rank1_flat(dims, t) for t in pairs], 16, 16))
    # generators spanning a 9-dimensional subspace of F2^12 that is not a
    # coordinate subspace: most points are outside the span
    inside = list(random_subspace(12, 9, rng).enumerate())
    cases.append(([inside[i] for i in rng.choice(len(inside), 30, replace=False)], 12, 12))
    # twelve independent generators: layers 6 to 12 run bottom-up, after a
    # top-down layer 5; layer 6 leaves a third of F2^12 unreached, so depth 6
    # cuts the reach at the first bottom-up layer
    cases += [([1 << i for i in range(12)], 12, 12), ([1 << i for i in range(12)], 12, 6)]
    for gens, nbits, depth in cases:
        layers = bfs_sum_layers(gens, nbits, depth)
        span = 1 << rref(gens, nbits).dim
        assert _bottom_up_layers(layers, span), "the case never switches to bottom-up"
        reach = SumsetReach(gens, nbits, depth)
        for j in range(depth + 1):
            assert np.array_equal(reach.dist <= j, layers[j])
        targets = np.random.default_rng(nbits + depth).integers(0, 1 << nbits, 400).tolist()
        assert reach.witness(targets) == [layered_witness(layers, gens, x) for x in targets]
    # the last case stops at its first bottom-up layer, short of the span
    assert _bottom_up_layers(layers, span)[0] == depth and int(layers[-1].sum()) < span


def test_four_splits_match_the_triple_loop():
    # every u in U, in U's enumeration order, on (4,4), (4,5) and (10,2) seeds
    for dims, delta, seed in (((4, 4), "1/2", 2000), ((4, 4), "3/4", 2001),
                              ((4, 5), "1/2", 2000), ((4, 5), "3/4", 2002), ((3, 3), "1/2", 1),
                              ((10, 2), "1/2", 2000)):
        delta = Fraction(delta)
        pairs = random_factor_tuples(
            dims, math.ceil(delta * (1 << sum(dims))), np.random.default_rng(seed)
        )
        res = find_structure_matrix(pairs, TensorShape(dims), delta)
        sizes = Counter(u for u, _ in pairs)
        t_set = sorted(u for u, c in sizes.items() if Fraction(c, 1 << dims[1]) >= delta / 2)
        want = [(u, four_split_oracle(u, t_set)) for u in res.u_space.enumerate()]
        assert list(res.decompositions.items()) == want
    # small random T, every target that has a split
    rng = np.random.default_rng(21)
    for n, size in ((3, 2), (4, 5), (5, 3), (5, 12), (6, 9)):
        t_set = sorted(int(t) for t in rng.choice(1 << n, size, replace=False))
        want = {u: four_split_oracle(u, t_set) for u in range(1 << n)}
        targets = [u for u, split in want.items() if split is not None]
        assert _four_splits(targets, t_set, n) == {u: want[u] for u in targets}
    # a dense T at 12 bits, every target: a table of all |T|^2 pairs per
    # target would take gigabytes, the scan a few MB
    t_set = sorted(int(t) for t in rng.choice(1 << 12, 3000, replace=False))
    tracemalloc.start()
    try:
        got = _four_splits(range(1 << 12), t_set, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert got == {u: four_split_oracle(u, t_set) for u in range(1 << 12)}


def test_matrix_pipeline_centers_match_gather_oracle():
    # (dims, delta, epsilon, seed): agreement sets of 1 to 65,536 arrays
    runs = [
        ((3, 3), "1/2", "1/32", 0),
        ((3, 3), "3/4", "1/4", 1),
        ((3, 3), "3/4", "3/8", 1),
        ((3, 3), "7/8", "3/8", 0),
        ((4, 4), "3/4", "1/32", 2000),
        ((4, 4), "3/4", "1/32", 2001),
        ((4, 4), "3/4", "1/4", 0),
        ((4, 4), "7/8", "3/8", 0),
        ((4, 4), "3/4", "3/8", 1),
        ((4, 4), "1/2", "1/32", 2000),
    ]
    for dims, delta, epsilon, seed in runs:
        shape = TensorShape(dims)
        delta, epsilon = Fraction(delta), Fraction(epsilon)
        pairs = random_factor_tuples(
            dims, math.ceil(delta * (1 << sum(dims))), np.random.default_rng(seed)
        )
        layers = bfs_sum_layers(rank_one_matrices(*dims), shape.total, 2)
        for threshold in (0, 1, 2):
            res = matrix_pipeline(pairs, shape, delta, epsilon, threshold)
            if threshold == 0 and len(res.agreement_set) > 8192:
                # every array is its own center at threshold 0
                assert res.centers == res.agreement_set.tolist()
                continue
            assert res.centers == greedy_centers(res.agreement_set, layers[threshold])


def test_find_system_full_input_is_full_system():
    shape = TensorShape((3, 3))
    tuples = {(u, v) for u in range(8) for v in range(8)}
    res = find_system(tuples, shape, Fraction(1, 2))
    assert res.system.element_counter() == rank_one_counter(shape)


def test_find_system_d1_is_bogolyubov():
    rng = np.random.default_rng(11)
    u = random_subspace(6, 4, rng)
    tuples = {(x,) for x in u.enumerate()}
    res = find_system(tuples, TensorShape((6,)), Fraction(1, 8))
    assert res.system.root == u  # Bogolyubov returns a subspace exactly
    assert res.sumset_depth == 4


def test_find_system_random_d2_verified():
    shape = TensorShape((4, 4))
    rng = np.random.default_rng(12)
    tuples = random_factor_tuples((4, 4), 128, rng)
    res = find_system(tuples, shape, Fraction(1, 2))
    assert res.system.max_codim() <= res.system.bound
    allowed = {rank1_flat((4, 4), t) for t in tuples}
    for elem, wit in res.witnesses.items():
        assert len(wit) <= 16
        acc = 0
        for g in wit:
            assert g in allowed
            acc ^= g
        assert acc == elem


@pytest.mark.parametrize("dims", [(4, 4), (2, 2, 2), (2, 3, 3), (3, 3, 2), (2, 2, 2, 2)])
def test_find_system_map_holds_exactly_the_walked_prefixes(dims):
    shape = TensorShape(dims)
    tuples = random_factor_tuples(dims, 1 << (sum(dims) - 1), np.random.default_rng(14))
    system = find_system(tuples, shape, Fraction(1, 2)).system
    walked = {tup[:j] for tup in system.factor_tuples() for j in range(shape.d)}
    assert set(system.spaces) == walked
    assert system.max_codim() == max(system.spaces[p].codim for p in walked) == system.bound


def test_find_system_d3_runs_and_verifies():
    shape = TensorShape((2, 2, 2))
    rng = np.random.default_rng(13)
    tuples = random_factor_tuples((2, 2, 2), 32, rng)
    res = find_system(tuples, shape, Fraction(1, 2))
    assert res.sumset_depth == 64
    assert res.witnesses is not None


def test_matrix_pipeline_seeded_run_and_determinism():
    shape = TensorShape((4, 4))
    rng = np.random.default_rng(18)
    pairs = random_factor_tuples((4, 4), 128, rng)
    res1 = matrix_pipeline(pairs, shape, Fraction(1, 2))
    res2 = matrix_pipeline(pairs, shape, Fraction(1, 2))
    res3 = matrix_pipeline(pairs, TensorShape([4, 4]), Fraction(1, 2))  # dims as a list
    assert res1.verified
    assert res1.measured == res2.measured == res3.measured
    assert res1.centers == res2.centers == res3.centers
    # every agreement-set element is within rank threshold of some center
    low_rank = rank_reach(shape, (0,), res1.rank_threshold)
    centers = np.array(res1.centers, dtype=np.int64)
    covered = np.zeros(low_rank.size, dtype=bool)
    for b in np.flatnonzero(low_rank):
        covered[centers ^ b] = True
    assert covered[np.array(res1.agreement_set, dtype=np.int64)].all()
