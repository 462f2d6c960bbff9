"""Tests for tensor shapes, rank-1 algebra, simple sets and l-systems."""

import math
from itertools import product

import numpy as np
import pytest

import closurelab.tensor as tensor_module
from closurelab.budgets import DimensionMismatch, VerificationFailure
from closurelab.gf2 import Subspace, random_subspace, rref
from closurelab.tensor import (
    LSystem,
    SimpleSet,
    Tensor,
    TensorShape,
    axis_subsets,
    degenerate_decide,
    lsystem_intersect,
    rank1,
    rank_one_counter,
    rank_reach,
    sum_of_blowups,
)

from .oracles import (
    degenerate_dfs_oracle,
    gauss_rank,
    matrix_rank_oracle,
    partition_rank_oracle,
    simple_set_member_oracle,
)


def test_flat_unflat_bijection_exhaustive():
    for dims in [(2,), (3, 5), (2, 3, 2), (2, 2, 2, 2)]:
        shape = TensorShape(dims)
        seen = set()
        for idx in product(*(range(n) for n in dims)):
            pos = shape.flat(idx)
            assert 0 <= pos < shape.total
            assert shape.unflat(pos) == idx
            seen.add(pos)
        assert len(seen) == shape.total


def test_flat_is_row_major_last_axis_fastest():
    shape = TensorShape((2, 3))
    assert shape.flat((0, 1)) == 1
    assert shape.flat((1, 0)) == 3


def test_tensor_array_roundtrip():
    rng = np.random.default_rng(1)
    for dims in [(4,), (3, 4), (2, 3, 2)]:
        shape = TensorShape(dims)
        for _ in range(10):
            data = int(rng.integers(0, 1 << shape.total))
            t = Tensor(shape, data)
            assert Tensor.from_array(t.to_array()) == t


def test_rank1_examples():
    shape = TensorShape((2, 2))
    t = rank1(shape, (0b01, 0b10))  # e1 (x) e2
    assert t.data == 1 << shape.flat((0, 1))
    assert t.data.bit_count() == 1
    assert rank1(shape, (0b11, 0)).data == 0

    shape3 = TensorShape((2, 2, 2))
    t3 = rank1(shape3, (0b11, 0b01, 0b11))
    for i, j, k in product(range(2), repeat=3):
        assert (t3.data >> shape3.flat((i, j, k))) & 1 == (1 if j == 0 else 0)


def test_rank1_matches_outer_product_of_bits():
    rng = np.random.default_rng(2)
    shape = TensorShape((3, 2, 3))
    for _ in range(30):
        factors = tuple(int(rng.integers(0, 1 << n)) for n in shape.dims)
        t = rank1(shape, factors)
        arrs = [
            np.array([(u >> i) & 1 for i in range(n)], dtype=np.uint8)
            for u, n in zip(factors, shape.dims)
        ]
        expect = arrs[0]
        for a in arrs[1:]:
            expect = np.multiply.outer(expect, a)
        assert np.array_equal(t.to_array(), expect)


@pytest.mark.parametrize("dims", [(3, 3), (3, 4), (4, 3)])
def test_rank_reach_matches_matrix_rank_oracle(dims):
    ranks = np.array([matrix_rank_oracle(x, *dims) for x in range(1 << math.prod(dims))])
    for k in range(min(dims) + 1):
        assert np.array_equal(rank_reach(TensorShape(dims), (0,), k), ranks <= k)


def test_rank_reach_matches_flattening_rank_oracle_223():
    dims = (2, 2, 3)
    bits = (np.arange(1 << 12)[:, None] >> np.arange(12)) & 1
    for axes in axis_subsets(2):
        rest = tuple(a for a in range(3) if a not in axes)
        side = math.prod(dims[a] for a in axes)
        ranks = np.array([
            gauss_rank(np.transpose(row.reshape(dims), axes + rest).reshape(side, -1))
            for row in bits
        ])
        for k in (1, 2):
            assert np.array_equal(rank_reach(TensorShape(dims), axes, k), ranks <= k)


def test_simple_set_membership_full_and_row_constraint():
    shape = TensorShape((2, 2))
    zero = Tensor(shape, 0)
    everything = SimpleSet(shape, zero)
    assert all(
        everything.member(Tensor(shape, x)) for x in range(16)
    )

    # H_{0} = span{e1} in F2^2: members have zero second row
    constrained = SimpleSet(shape, zero, {(0,): rref([0b01], 2)})
    members = [x for x in range(16) if constrained.member(Tensor(shape, x))]
    # row-major (2,2): positions 0,1 = first row; 2,3 = second row
    assert members == [x for x in range(16) if x & 0b1100 == 0]


def test_simple_set_member_count_matches_constraint_rank_oracle():
    rng = np.random.default_rng(7)
    shape = TensorShape((3, 3))
    for _ in range(10):
        spaces = {}
        for axes in [(0,), (1,), (0, 1)]:
            amb = 3 if len(axes) == 1 else 9
            spaces[axes] = random_subspace(amb, int(rng.integers(1, amb + 1)), rng)
        translate = Tensor(shape, int(rng.integers(0, 1 << 9)))
        simple = SimpleSet(shape, translate, spaces)
        count = sum(
            1 for x in range(1 << 9) if simple.member(Tensor(shape, x))
        )
        assert count == simple.size()
        assert count == 1 << simple.subspace().dim


def test_simple_set_members_matches_member_subspace_and_oracle():
    rng = np.random.default_rng(12)
    for dims in [(3, 3), (2, 2, 2), (2, 2, 3)]:
        shape = TensorShape(dims)
        for _ in range(3):
            spaces = {}
            for mask in range(1, 1 << shape.d):
                axes = tuple(a for a in range(shape.d) if (mask >> a) & 1)
                amb = math.prod(dims[a] for a in axes)
                spaces[axes] = random_subspace(amb, int(rng.integers(amb - 2, amb + 1)), rng)
            t = int(rng.integers(1, 1 << shape.total))
            simple = SimpleSet(shape, Tensor(shape, t), spaces)
            sub = simple.subspace()
            everything = simple.members(np.arange(1 << shape.total, dtype=np.uint64))
            assert int(everything.sum()) == simple.size()
            # the subspace's own members, shifted, and a seeded sample
            points = [x ^ t for x in sub.enumerate()]
            points += rng.integers(0, 1 << shape.total, size=200).tolist()
            got = simple.members(np.array(points, dtype=np.uint64)).tolist()
            assert got == everything[points].tolist()
            assert got == [simple.member(Tensor(shape, x)) for x in points]
            assert got == [sub.contains(x ^ t) for x in points]
            assert got == [
                simple_set_member_oracle(dims, t, simple.spaces, x) for x in points
            ]
            assert 0 < sum(got) < len(got)


def test_simple_set_size_examples():
    shape = TensorShape((2, 2))
    zero = Tensor(shape, 0)
    assert SimpleSet(shape, zero).size() == 16
    one_constraint = SimpleSet(shape, zero, {(0,): rref([0b01], 2)})
    assert one_constraint.size() == 4


def test_simple_set_size_drop_factor_bound():
    # intersecting with H_{[d]} costs at most 2^codim
    rng = np.random.default_rng(8)
    shape = TensorShape((3, 3))
    for _ in range(20):
        spaces = {
            (0,): random_subspace(3, int(rng.integers(1, 4)), rng),
            (1,): random_subspace(3, int(rng.integers(1, 4)), rng),
        }
        base = SimpleSet(shape, Tensor(shape, 0), spaces)
        h12 = random_subspace(9, int(rng.integers(5, 10)), rng)
        cut = SimpleSet(shape, Tensor(shape, 0), {**spaces, (0, 1): h12})
        assert cut.size() * (1 << h12.codim) >= base.size()


def test_simple_set_translation_consistency():
    rng = np.random.default_rng(9)
    shape = TensorShape((3, 3))
    spaces = {(0,): rref([0b011, 0b101], 3), (1,): rref([0b110], 3)}
    c0 = SimpleSet(shape, Tensor(shape, 0), spaces)
    for _ in range(50):
        t = int(rng.integers(0, 1 << 9))
        x = int(rng.integers(0, 1 << 9))
        shifted = SimpleSet(shape, Tensor(shape, t), spaces)
        assert c0.member(Tensor(shape, x)) == shifted.member(Tensor(shape, x ^ t))


def _blowup_by_slices(shape: TensorShape, axes: tuple[int, ...], h: Subspace) -> set[int]:
    """The tensors whose every I^c-indexed slice along the I = ``axes`` axes
    lies in h, from the definition."""
    comp = [a for a in range(shape.d) if a not in axes]
    out = set()
    for x in range(1 << shape.total):
        ok = True
        for rest in product(*(range(shape.dims[a]) for a in comp)):
            col = 0
            for k, idx in enumerate(product(*(range(shape.dims[a]) for a in axes))):
                index = dict(zip(axes, idx)) | dict(zip(comp, rest))
                col |= ((x >> shape.flat(tuple(index[a] for a in range(shape.d)))) & 1) << k
            ok = ok and h.contains(col)
        if ok:
            out.add(x)
    return out


def test_sum_of_blowups_is_the_membership_definition_and_one_rref():
    rng = np.random.default_rng(8)
    cases = [(TensorShape((2, 3)), {(0,): rref([0b01], 2)})]  # span{e1} on axis 0
    for dims, count in (((2, 3), 2), ((2, 2, 2), 2), ((2, 2, 2), 3), ((3, 2), 3)):
        shape = TensorShape(dims)
        subsets = axis_subsets(shape.d)
        for _ in range(2):
            picked = rng.choice(len(subsets), size=count, replace=False)
            spaces = {}
            for i in sorted(picked.tolist()):
                amb = math.prod(dims[a] for a in subsets[i])
                spaces[subsets[i]] = random_subspace(amb, int(rng.integers(0, amb)), rng)
            cases.append((shape, spaces))
    for shape, spaces in cases:
        singles = {axes: sum_of_blowups(shape, {axes: h}) for axes, h in spaces.items()}
        want = {0}
        for axes, h in spaces.items():
            blown = _blowup_by_slices(shape, axes, h)
            assert set(singles[axes].enumerate()) == blown
            want = {a ^ b for a in want for b in blown}
        got = sum_of_blowups(shape, spaces)
        assert got == rref([r for single in singles.values() for r in single.rows], shape.total)
        assert set(got.enumerate()) == want
    with pytest.raises(DimensionMismatch, match="ambient"):
        sum_of_blowups(TensorShape((2, 3)), {(0,): rref([1], 2), (1,): Subspace.full(2)})


def test_lsystem_refuses_a_long_prefix_and_a_wrong_ambient():
    shape = TensorShape((2, 3))
    LSystem(shape, {(): Subspace.full(2), (1,): Subspace.full(3)})
    with pytest.raises(DimensionMismatch, match="prefix"):
        LSystem(shape, {(): Subspace.full(2), (1, 0): Subspace.full(3)})
    with pytest.raises(DimensionMismatch, match="differs"):
        LSystem(shape, {(): Subspace.full(3)})
    with pytest.raises(DimensionMismatch, match="differs"):
        LSystem(shape, {(): Subspace.full(2), (1,): Subspace.full(2)})


def test_lsystem_elements_and_intersect():
    shape = TensorShape((3, 3))
    rng = np.random.default_rng(10)
    for _ in range(10):
        root_a = random_subspace(3, 2, rng)
        root_b = random_subspace(3, 2, rng)
        a = LSystem(
            shape,
            {(): root_a, **{(u,): random_subspace(3, 2, rng) for u in root_a.enumerate()}},
            bound=1,
        )
        b = LSystem(
            shape,
            {(): root_b, **{(u,): random_subspace(3, 2, rng) for u in root_b.enumerate()}},
            bound=1,
        )
        meet = lsystem_intersect(a, b)
        assert meet.bound == 2
        elems_a = a.element_counter()
        elems_b = b.element_counter()
        for t in meet.element_counter():
            assert t in elems_a and t in elems_b
        # codim additivity bound at every node
        assert meet.root.codim <= a.root.codim + b.root.codim
        for prefix, space in meet.spaces.items():
            assert space.codim <= a.spaces[prefix].codim + b.spaces[prefix].codim


def _random_system(shape: TensorShape, rng) -> LSystem:
    """Every subspace of codimension 0 or 1, one at every prefix."""
    spaces = {}

    def fill(prefix: tuple[int, ...]):
        n = shape.dims[len(prefix)]
        spaces[prefix] = random_subspace(n, n - int(rng.integers(0, 2)), rng)
        if len(prefix) < shape.d - 1:
            for u in spaces[prefix].enumerate():
                fill(prefix + (u,))

    fill(())
    return LSystem(shape, spaces, bound=1)


def test_lsystem_intersect_of_three_and_four_is_the_nested_pairwise_meet():
    rng = np.random.default_rng(23)
    for dims in ((3, 3), (2, 3, 2)):
        shape = TensorShape(dims)
        for count in (3, 4):
            for _ in range(5):
                systems = [_random_system(shape, rng) for _ in range(count)]
                got = lsystem_intersect(*systems)
                nested = systems[0]
                for q in systems[1:]:
                    nested = lsystem_intersect(nested, q)
                assert got.root == nested.root
                assert list(got.spaces.items()) == list(nested.spaces.items())
                assert got.bound == nested.bound == count
    with pytest.raises(DimensionMismatch):
        lsystem_intersect(systems[0], systems[1], _random_system(TensorShape((2, 3, 3)), rng))


def test_lsystem_self_intersection_is_identity_on_elements():
    shape = TensorShape((3, 3))
    rng = np.random.default_rng(11)
    root = random_subspace(3, 2, rng)
    q = LSystem(
        shape, {(): root, **{(u,): random_subspace(3, 2, rng) for u in root.enumerate()}}
    )
    assert lsystem_intersect(q, q).element_counter() == q.element_counter()


def test_lsystem_of_full_spaces_is_every_rank_one_tensor():
    shape = TensorShape((2, 2, 2))
    spaces = {(): Subspace.full(2)}
    spaces.update({(u,): Subspace.full(2) for u in range(4)})
    spaces.update({(u, v): Subspace.full(2) for u in range(4) for v in range(4)})
    full = LSystem(shape, spaces)
    assert full.element_counter() == rank_one_counter(shape)
    meet = lsystem_intersect(full, full)
    assert meet.element_counter() == full.element_counter()


def test_degenerate_decide_zero_tensor():
    for dims in [(2, 2), (2, 2, 2)]:
        res = degenerate_decide(Tensor(TensorShape(dims), 0), 0)
        assert res.degenerate


def test_degenerate_decide_matches_matrix_rank_exhaustive_33():
    shape = TensorShape((3, 3))
    for k in range(0, 4):
        for x in range(1 << 9):
            res = degenerate_decide(Tensor(shape, x), k)
            assert res.degenerate == (matrix_rank_oracle(x, 3, 3) <= k)


def test_degenerate_witness_spans_the_tensor():
    shape = TensorShape((3, 3))
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = int(rng.integers(0, 1 << 9))
        res = degenerate_decide(Tensor(shape, x), 2)
        if res.degenerate:
            total = sum_of_blowups(shape, res.witness)
            assert total.contains(x)


def test_degenerate_implies_partition_rank_bound_222():
    shape = TensorShape((2, 2, 2))
    k = 1
    hits = 0
    for x in range(1 << 8):
        res = degenerate_decide(Tensor(shape, x), k)
        if res.degenerate:
            pr = partition_rank_oracle(x, (2, 2, 2))
            assert pr is not None and pr <= (1 << (shape.d - 1)) * k
            hits += 1
    assert hits > 1  # the sum e1x e1 x e1 + e2 x e2 x e2 cases exist


def test_degenerate_diagonal_222_case():
    shape = TensorShape((2, 2, 2))
    diag = rank1(shape, (1, 1, 1)).data ^ rank1(shape, (2, 2, 2)).data
    res = degenerate_decide(Tensor(shape, diag), 1)
    if res.degenerate:
        pr = partition_rank_oracle(diag, (2, 2, 2))
        assert pr <= 4


def _assert_verified_witness(x: int, shape: TensorShape, k: int, res) -> None:
    assert res.degenerate
    subsets = list(res.witness)
    assert len(subsets) == (1 << (shape.d - 1)) - 1
    assert all(max(axes) < shape.d - 1 for axes in subsets)
    assert all(space.dim <= k for space in res.witness.values())
    assert sum_of_blowups(shape, res.witness).contains(x)


def test_degenerate_decide_2222_k2_is_decided_with_a_verified_witness():
    # seven axis subsets: far too many subspace tuples to search one by one
    shape = TensorShape((2, 2, 2, 2))
    rng = np.random.default_rng(2222)
    for x in [0, 1, (1 << 16) - 1, *map(int, rng.integers(0, 1 << 16, size=6))]:
        res = degenerate_decide(Tensor(shape, x), 2)
        _assert_verified_witness(x, shape, 2, res)


def test_degeneracy_bitmap_matches_dfs_exhaustive_223():
    shape = TensorShape((2, 2, 3))
    bitmap = tensor_module._degeneracy_stages(shape, 1)[2][-1]
    expected = [degenerate_dfs_oracle(x, (2, 2, 3), 1) for x in range(1 << 12)]
    assert bitmap.tolist() == expected
    rng = np.random.default_rng(223)
    for x in map(int, rng.integers(0, 1 << 12, size=20)):
        _assert_verified_witness(x, shape, 1, degenerate_decide(Tensor(shape, x), 1))


@pytest.mark.parametrize("dims", [(3, 3, 2), (3, 2, 3)])
def test_degenerate_decide_matches_dfs_on_seeded_18_cell_tensors(dims):
    shape = TensorShape(dims)
    rng = np.random.default_rng(18)
    verdicts = set()
    for x in map(int, rng.integers(0, 1 << 18, size=20)):
        res = degenerate_decide(Tensor(shape, x), 1)
        assert res.degenerate == degenerate_dfs_oracle(x, dims, 1)
        if res.degenerate:
            _assert_verified_witness(x, shape, 1, res)
        verdicts.add(res.degenerate)
    # every non-degenerate tensor of (3,2,3) is a cheap full search: check two
    if dims == (3, 2, 3):
        bitmap = tensor_module._degeneracy_stages(shape, 1)[2][-1]
        for x in map(int, rng.choice(np.flatnonzero(~bitmap), size=2, replace=False)):
            assert not degenerate_dfs_oracle(x, dims, 1)
            assert not degenerate_decide(Tensor(shape, x), 1).degenerate
            verdicts.add(False)
    assert verdicts == {True, False}


@pytest.mark.parametrize("dims", [(3, 3, 2), (3, 2, 3), (2, 3, 3)])
def test_non_degenerate_count_at_18_cells(dims):
    # a d = 3 shape where one-sided 1-degeneracy is not everything
    bitmap = tensor_module._degeneracy_stages(TensorShape(dims), 1)[2][-1]
    assert bitmap.size - int(np.count_nonzero(bitmap)) == 8064


def test_degenerate_decide_corrupted_witness_raises(monkeypatch):
    shape = TensorShape((2, 2, 2))
    diag = rank1(shape, (1, 1, 1)).data ^ rank1(shape, (2, 2, 2)).data
    assert degenerate_decide(Tensor(shape, diag), 1).degenerate
    # column spaces that lose their rows no longer span the tensor
    monkeypatch.setattr(
        tensor_module, "_column_space",
        lambda shape, axes, data: rref((), math.prod(shape.dims[a] for a in axes)),
    )
    with pytest.raises(VerificationFailure, match="does not verify"):
        degenerate_decide(Tensor(shape, diag), 1)
    monkeypatch.undo()
    # a sumset bitmap claiming every tensor: the backtracked witness cannot span it
    monkeypatch.setattr(tensor_module, "sumset_support", lambda a, b: np.ones_like(a))
    with pytest.raises(VerificationFailure, match="does not verify"):
        degenerate_decide(Tensor(shape, 1), 0)


def test_rank_one_counter_multiplicities():
    shape = TensorShape((2, 2))
    full = rank_one_counter(shape)
    assert sum(full.values()) == 16
    assert full[0] == 4 + 4 - 1  # u=0 or v=0 pairs
    nz = rank_one_counter(shape, nonzero_only=True)
    assert sum(nz.values()) == 9
    assert 0 not in nz


def test_tensor_shape_budget_guard():
    import pytest
    from closurelab.budgets import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        TensorShape((5, 6))  # 30 cells over the default 24-bit budget
