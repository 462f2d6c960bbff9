"""Tests for agreement profiles, forcing certificates, the structure
finder, l-system construction, and the matrix pipeline."""

import math
from fractions import Fraction

import numpy as np
import pytest

from closurelab.budgets import BudgetExceeded, DensityTooLow
from closurelab.forcing import (
    SumsetReach,
    agreement_profile,
    agreement_threshold,
    build_q_matrix,
    check_forcing,
    degeneracy_cluster,
    equalize_multiplicities,
    find_structure_matrix,
    find_system,
    matrix_pipeline,
    random_factor_tuples,
    rank_reach,
    reduced_witness,
    smallrank_pair,
    system_in_simple,
    tensor_agreement,
    tensor_multiset,
)
from closurelab.gf2 import Subspace, random_subspace, rref
from closurelab.spectral import GroupMultiset
from closurelab.tensor import (
    LSystem,
    SimpleSet,
    Tensor,
    TensorShape,
    degenerate_decide,
    matrix_rank,
    rank1_flat,
    rank_one_counter,
    sum_of_blowups,
)

from .oracles import bfs_sum_layers, greedy_centers, layered_witness, rank_one_matrices


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
        naive = sum(
            mult
            for elem, mult in q.counts.items()
            if (r & elem).bit_count() % 2 == 0
        )
        assert int(profile.counts[r]) == naive
        assert naive == tensor_agreement(q, r)


def test_check_forcing_d1_subspace_agreement_set_is_dual():
    rng = np.random.default_rng(2)
    for n, k in [(8, 1), (10, 3), (12, 4)]:
        u = random_subspace(n, n - k, rng)
        q = GroupMultiset.from_elements(n, u.enumerate())
        profile = agreement_profile(q)
        cert = check_forcing(
            profile, Fraction(3, 4), {(0,): u.complement()}, TensorShape((n,))
        )
        assert cert.verified
        # exactness: the agreement set IS the dual
        thresh = agreement_threshold(q.total, Fraction(3, 4))
        got = set(np.flatnonzero(profile.counts >= thresh).tolist())
        assert got == set(u.complement().enumerate())


def test_check_forcing_full_spaces_always_verified():
    q = GroupMultiset.from_pairs(4, [(3, 1), (9, 2)])
    cert = check_forcing(
        agreement_profile(q), Fraction(1, 2), {(0,): Subspace.full(4)},
        TensorShape((4,)),
    )
    assert cert.verified


def test_check_forcing_zero_multiset_never_verified_for_proper_spaces():
    q = GroupMultiset.from_pairs(4, [(0, 3)])
    cert = check_forcing(
        agreement_profile(q), Fraction(3, 4), {(0,): Subspace.zero(4)},
        TensorShape((4,)),
    )
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
    spaces = {(0, 1): u.complement()}
    cert = check_forcing(profile, Fraction(3, 4), spaces, shape)
    assert cert.verified
    target = sum_of_blowups(shape, spaces)
    requalified = 0
    for r in range(1 << 9):
        direct = tensor_agreement(q, r)
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
        assert np.array_equal(reach.layers[j], layers[j])
    for x in range(256):
        wit = reach.witness(x)
        if wit is None:
            assert not layers[5][x]
        else:
            assert len(wit) <= 5
            acc = 0
            for g in wit:
                assert g in gens
                acc ^= g
            assert acc == x


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


def test_build_q_matrix_trivial_and_full():
    shape = TensorShape((3, 3))
    zero_u = Subspace.zero(3)
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
    res = find_structure_matrix(pairs, shape, Fraction(1, 2), verify=False)
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


def _structured_fixture(rng, n1=4, n2=4, u_codim=1, v_codim=1):
    shape = TensorShape((n1, n2))
    u_space = random_subspace(n1, n1 - u_codim, rng)
    v = random_subspace(n2, n2 - v_codim, rng)
    v_spaces = {u: v for u in u_space.enumerate()}
    return shape, build_q_matrix(u_space, v_spaces, shape)


def test_smallrank_all_equal_gives_kernel_u():
    rng = np.random.default_rng(5)
    shape, q = _structured_fixture(rng)
    # a full-agreement array: anything in U^perp (x) F2^{n2}
    s = q.u_space.complement().rows[0]
    r0 = Tensor(shape, rank1_flat((4, 4), (s, 0b1011)))
    assert tensor_agreement(q, r0.data) == q.total
    rs = [r0] * 16
    res = smallrank_pair(q, rs, k=1)
    assert res.kernel == q.u_space
    assert res.common_contractions == 1 << q.u_space.dim


def test_smallrank_rank_one_perturbation_family():
    rng = np.random.default_rng(6)
    shape, q = _structured_fixture(rng)
    s = q.u_space.complement().rows[0]
    base = rank1_flat((4, 4), (s, 0b0110))
    rs = [
        Tensor(shape, base ^ rank1_flat((4, 4), (s, t)))
        for t in range(16)
    ]
    res = smallrank_pair(q, rs, k=1)
    diff = rs[res.i].data ^ rs[res.j].data
    assert matrix_rank(diff, 4, 4) <= 1


def test_smallrank_random_fixture_meets_pigeonhole_bound():
    rng = np.random.default_rng(7)
    shape, q = _structured_fixture(rng)
    profile = agreement_profile(q, shape)
    thresh = agreement_threshold(q.total, Fraction(3, 4))
    candidates = np.flatnonzero(profile.counts >= thresh)
    picks = rng.choice(candidates.size, size=16, replace=False)
    rs = [Tensor(shape, int(candidates[int(i)])) for i in picks]
    res = smallrank_pair(q, rs, k=1)
    m = 16
    u_size = 1 << q.u_space.dim
    # direct recount of the kernel witness
    diff = rs[res.i].data ^ rs[res.j].data
    from closurelab.tensor import matvec_first

    direct = [u for u in q.u_space.enumerate() if matvec_first(diff, u, 4, 4) == 0]
    assert set(direct) == set(res.kernel.enumerate())
    assert len(direct) * 4 * m * m >= u_size


def test_smallrank_precondition_reported_per_index():
    rng = np.random.default_rng(8)
    shape, q = _structured_fixture(rng)
    good = Tensor(shape, 0)
    # an array agreeing with about half of Q only
    bad_val = next(
        r
        for r in range(1, 1 << 16)
        if 4 * tensor_agreement(q, r) < 3 * q.total
    )
    rs = [good] * 15 + [Tensor(shape, bad_val)]
    with pytest.raises(ValueError, match=r"\[15\]"):
        smallrank_pair(q, rs, k=1)


def test_reduced_witness_full_and_fixed_v():
    rng = np.random.default_rng(9)
    shape = TensorShape((4, 4))
    u_space = random_subspace(4, 3, rng)
    full_v = {u: Subspace.full(4) for u in u_space.enumerate()}
    q = build_q_matrix(u_space, full_v, shape)
    res = reduced_witness(q, 1)
    assert res.w2 == Subspace.zero(4)
    assert res.x_list == [0]
    assert res.w1 == u_space.complement()

    v = random_subspace(4, 2, rng)
    q2 = build_q_matrix(u_space, {u: v for u in u_space.enumerate()}, shape)
    res2 = reduced_witness(q2, 1)
    assert set(res2.x_list) == set(v.complement().enumerate())
    assert res2.w2 == v.complement()


def test_reduced_witness_low_rank_containment_exhaustive():
    # every rank<=1 matrix with >= 7/8 agreement lies in W1 (x) F2 + F2 (x) W2
    rng = np.random.default_rng(10)
    shape, q = _structured_fixture(rng, v_codim=2)
    res = reduced_witness(q, 1)
    target = sum_of_blowups(shape, {(0,): res.w1, (1,): res.w2})
    profile = agreement_profile(q, shape)
    thresh = agreement_threshold(q.total, Fraction(7, 8))
    low_rank = rank_reach(shape).layers[1]
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
        assert len(reach.layers) == depth + 1
        for j in range(depth + 1):
            assert np.array_equal(reach.layers[j], layers[j])
        for x in range(1 << nbits):
            first = next((j for j, layer in enumerate(layers) if layer[x]), None)
            assert reach.depth_of(x) == first
            assert reach.witness(x) == layered_witness(layers, gens, x)
        if not layers[-1].all():
            assert any(reach.witness(x) is None for x in range(1 << nbits))


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
                assert res.centers == res.agreement_set
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


def test_find_system_d3_runs_and_verifies():
    shape = TensorShape((2, 2, 2))
    rng = np.random.default_rng(13)
    tuples = random_factor_tuples((2, 2, 2), 32, rng)
    res = find_system(tuples, shape, Fraction(1, 2))
    assert res.sumset_depth == 64
    assert res.witnesses is not None


def test_system_in_simple_full_space_unchanged():
    shape = TensorShape((3, 3))
    rng = np.random.default_rng(14)
    root = random_subspace(3, 2, rng)
    q = LSystem(
        shape, root, {(u,): random_subspace(3, 2, rng) for u in root.enumerate()}
    )
    t_full = SimpleSet(shape, Tensor(shape, 0))
    out = system_in_simple(q, t_full)
    assert out.element_counter() == q.element_counter()


def test_system_in_simple_codim1_big_constraint():
    shape = TensorShape((3, 3))
    q = LSystem.full(shape)
    h12 = random_subspace(9, 8, np.random.default_rng(15))
    simple = SimpleSet(shape, Tensor(shape, 0), {(0, 1): h12})
    out = system_in_simple(q, simple)
    members = simple.subspace()
    for elem in out.element_counter():
        assert members.contains(elem)


def test_system_in_simple_random_containment():
    shape = TensorShape((3, 3))
    rng = np.random.default_rng(16)
    for _ in range(5):
        root = random_subspace(3, 2, rng)
        q = LSystem(
            shape,
            root,
            {(u,): random_subspace(3, 2, rng) for u in root.enumerate()},
            bound=1,
        )
        spaces = {
            (0,): random_subspace(3, 2, rng),
            (1,): random_subspace(3, 2, rng),
            (0, 1): random_subspace(9, 8, rng),
        }
        simple = SimpleSet(shape, Tensor(shape, 0), spaces)
        out = system_in_simple(q, simple)
        q_elems = q.element_counter()
        members = simple.subspace()
        for elem in out.element_counter():
            assert elem in q_elems
            assert members.contains(elem)


def test_degeneracy_cluster_edge_cases():
    shape = TensorShape((2, 2, 2))
    r = Tensor(shape, 0b10110010)
    res = degeneracy_cluster([r, r, r], k=1)
    assert len(res.centers) == 1

    from closurelab.tensor import rank1

    zero = Tensor(shape, 0)
    one_term = rank1(shape, (1, 3, 2))
    res2 = degeneracy_cluster([zero, one_term], k=1)
    assert len(res2.centers) == 1


def test_degeneracy_cluster_random_decompositions_verified():
    shape = TensorShape((2, 2, 2))
    rng = np.random.default_rng(17)
    rs = [Tensor(shape, int(rng.integers(0, 256))) for _ in range(12)]
    res = degeneracy_cluster(rs, k=1)
    for r, (idx, witness) in zip(rs, res.assignments):
        diff = r.data ^ res.centers[idx].data
        total = sum_of_blowups(shape, witness)
        assert total.contains(diff)
        assert max((s.dim for s in witness.values()), default=0) <= 1
    # pairwise centers are non-degenerate
    for i in range(len(res.centers)):
        for j in range(i + 1, len(res.centers)):
            dec = degenerate_decide(res.centers[i] ^ res.centers[j], 1)
            assert dec.decided and not dec.degenerate


def test_degeneracy_cluster_budget_refusal():
    shape = TensorShape((2, 2, 2, 2))
    rs = [Tensor(shape, 1), Tensor(shape, 3)]
    with pytest.raises(BudgetExceeded):
        degeneracy_cluster(rs, k=2, search_budget=10)


def test_equalize_multiplicities():
    a = GroupMultiset.from_pairs(3, [(1, 1), (2, 1), (3, 1)])
    b = GroupMultiset.from_pairs(3, [(4, 2)])
    out = equalize_multiplicities([a, b])
    assert out[0].total == out[1].total == 6

    big = GroupMultiset.from_pairs(3, [(1, 997)])
    other = GroupMultiset.from_pairs(3, [(2, 1000)])
    capped = equalize_multiplicities([big, other], cap=2000)
    totals = [m.total for m in capped]
    assert max(totals) <= 2 * min(totals)


def test_matrix_pipeline_seeded_run_and_determinism():
    shape = TensorShape((4, 4))
    rng = np.random.default_rng(18)
    pairs = random_factor_tuples((4, 4), 128, rng)
    res1 = matrix_pipeline(pairs, shape, Fraction(1, 2))
    res2 = matrix_pipeline(pairs, shape, Fraction(1, 2))
    assert res1.verified
    assert res1.measured == res2.measured
    assert res1.centers == res2.centers
    # every agreement-set element is within rank threshold of some center
    low_rank = rank_reach(shape).layers[res1.rank_threshold]
    centers = np.array(res1.centers, dtype=np.int64)
    covered = np.zeros(low_rank.size, dtype=bool)
    for b in np.flatnonzero(low_rank):
        covered[centers ^ b] = True
    assert covered[np.array(res1.agreement_set, dtype=np.int64)].all()
