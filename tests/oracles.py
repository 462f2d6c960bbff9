"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive and shares no code path with the
library: dense numpy loops, double-loop character sums, BFS reachability.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def naive_wht(f) -> list[int]:
    """O(N^2) character sum: coeffs[r] = sum_x f(x) (-1)^(r.x)."""
    f = list(f)
    n = len(f).bit_length() - 1
    assert 1 << n == len(f)
    out = []
    for r in range(1 << n):
        acc = 0
        for x in range(1 << n):
            acc += f[x] if (r & x).bit_count() % 2 == 0 else -f[x]
        out.append(acc)
    return out


def radix2_wht(f) -> np.ndarray:
    """coeffs[r] = sum_x f(x) (-1)^(r.x) by n radix-2 levels over the whole int64 array."""
    a = np.array(f, dtype=np.int64)
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        lo, hi = pairs[:, 0].copy(), pairs[:, 1].copy()
        pairs[:, 0] = lo + hi
        pairs[:, 1] = lo - hi
        h *= 2
    return a


def gauss_rank(arr: np.ndarray) -> int:
    """Rank over GF(2) by dense row reduction."""
    a = (np.array(arr, dtype=np.uint8) & 1).copy()
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        r += 1
        if r == rows:
            break
    return r


def matrix_rank_oracle(data: int, n1: int, n2: int) -> int:
    arr = np.array(
        [[(data >> (i * n2 + j)) & 1 for j in range(n2)] for i in range(n1)],
        dtype=np.uint8,
    )
    return gauss_rank(arr)


def agreement_count(counts: dict[int, int], r: int) -> int:
    """#{q in Q : r.q = 0}, multiplicities included, by direct counting."""
    return sum(mult for elem, mult in counts.items() if (r & elem).bit_count() % 2 == 0)


def forcing_loop_oracle(counts, thresh: int, contains) -> tuple[bool, int | None, int]:
    """(verified, first counterexample, agreement set size) by one contains() per candidate.

    Candidates are the arrays r with counts[r] >= thresh, in ascending order.
    """
    candidates = [r for r in range(len(counts)) if counts[r] >= thresh]
    for r in candidates:
        if not contains(r):
            return False, r, len(candidates)
    return True, None, len(candidates)


def bfs_sum_layers(generators: list[int], nbits: int, depth: int) -> list[np.ndarray]:
    """layers[j] = boolean bitmap of sums of at most j generators."""
    size = 1 << nbits
    idx = np.arange(size, dtype=np.int64)
    reach = np.zeros(size, dtype=bool)
    reach[0] = True
    layers = [reach.copy()]
    gens = sorted(set(generators))
    for _ in range(depth):
        nxt = reach.copy()
        for g in gens:
            nxt |= reach[idx ^ g]
        layers.append(nxt.copy())
        reach = nxt
    return layers


def layered_witness(layers: list[np.ndarray], generators: list[int], x: int) -> list[int] | None:
    """Backtrack through BFS layers: lower j while x is already in layer j-1,
    else step along the first sorted generator g with x + g in layer j-1."""
    j = next((j for j, layer in enumerate(layers) if layer[x]), None)
    if j is None:
        return None
    gens = sorted(set(generators))
    out = []
    while j > 0:
        if layers[j - 1][x]:
            j -= 1
            continue
        g = next(g for g in gens if layers[j - 1][x ^ g])
        out.append(g)
        x ^= g
        j -= 1
    return out


def four_split_oracle(u: int, t_set: list[int]) -> tuple[int, int, int, int] | None:
    """Lexicographically first (t1, t2, t3, t4) over sorted T summing to u, by triple loop."""
    t_lookup = set(t_set)
    for t1 in t_set:
        for t2 in t_set:
            partial = u ^ t1 ^ t2
            for t3 in t_set:
                if partial ^ t3 in t_lookup:
                    return t1, t2, t3, partial ^ t3
    return None


def rank_one_matrices(n1: int, n2: int) -> list[int]:
    """Every nonzero u (x) v, row-major: bit i*n2 + j is u_i v_j."""
    out = set()
    for u in range(1, 1 << n1):
        for v in range(1, 1 << n2):
            out.add(sum(v << (i * n2) for i in range(n1) if (u >> i) & 1))
    return sorted(out)


def greedy_centers(points: list[int], low_rank: np.ndarray) -> list[int]:
    """Ascending greedy clustering: gather low_rank[points ^ c] per center."""
    arr = np.array(points, dtype=np.int64)
    covered = np.zeros(arr.size, dtype=bool)
    centers = []
    for idx in range(arr.size):
        if not covered[idx]:
            c = int(arr[idx])
            centers.append(c)
            covered |= low_rank[arr ^ c]
    return centers


def simple_set_member_oracle(dims: tuple[int, ...], translate: int, spaces, x: int) -> bool:
    """Every H_I^perp row annihilates every slice of x + translate along I.

    ``spaces`` maps ascending axis tuples to subspaces with ``complement()``
    rows; slices come from a transposed dense array, bit by bit.
    """
    total = math.prod(dims)
    y = x ^ translate
    arr = np.array([(y >> pos) & 1 for pos in range(total)], dtype=np.int64).reshape(dims)
    for axes, space in spaces.items():
        rest = tuple(a for a in range(len(dims)) if a not in axes)
        sliced = np.transpose(arr, tuple(axes) + rest).reshape(space.ambient_dim, -1)
        for z in space.complement().rows:
            zbits = np.array([(z >> k) & 1 for k in range(space.ambient_dim)], dtype=np.int64)
            if np.any((zbits @ sliced) & 1):
                return False
    return True


def partition_rank_oracle(data: int, dims: tuple[int, ...]) -> int | None:
    """Minimum number of bipartition products summing to the tensor.

    Terms are a (x) b over a bipartition (I, I^c) of the axes, both parts
    nonempty.  Returns None if the tensor is not reachable (cannot happen
    for d >= 2 since single-axis blowups span everything).
    """
    d = len(dims)
    total = int(np.prod(dims))
    assert total <= 20
    from closurelab.tensor import TensorShape, axis_position_map

    shape = TensorShape(tuple(dims))
    terms: set[int] = set()
    for mask in range(1, (1 << d) - 1):
        axes = tuple(a for a in range(d) if (mask >> a) & 1)
        if axes[0] != 0:
            continue  # bipartitions counted once, part containing axis 0
        posmap = axis_position_map(shape, axes)
        p_i, p_ic = posmap.shape
        for a in range(1, 1 << p_i):
            rows = [k for k in range(p_i) if (a >> k) & 1]
            for b in range(1, 1 << p_ic):
                v = 0
                for k in rows:
                    for j in range(p_ic):
                        if (b >> j) & 1:
                            v |= 1 << int(posmap[k, j])
                terms.add(v)
    if data == 0:
        return 0
    frontier = {0}
    seen = {0}
    for depth in range(1, total + 1):
        nxt = set()
        for x in frontier:
            for t in terms:
                y = x ^ t
                if y == data:
                    return depth
                if y not in seen:
                    seen.add(y)
                    nxt.add(y)
        frontier = nxt
        if not frontier:
            return None
    return None


def pascal_binomials(n_max: int) -> list[list[int]]:
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        rows.append(row)
    return rows


def naive_closedness(a_elems: set[int], b_counts: dict[int, int]):
    """(pair_count, |A|*total) by direct double loop with multiplicity."""
    pair_count = 0
    total = sum(b_counts.values())
    for a in a_elems:
        for b, mult in b_counts.items():
            if (a ^ b) in a_elems:
                pair_count += mult
    return pair_count, len(a_elems) * total


def naive_convolution_pairs(a_elems: set[int], b_counts: dict[int, int], n: int):
    """Counting function N(x) = #{(a,b): a+b = x} with multiplicity."""
    out = [0] * (1 << n)
    for a in a_elems:
        for b, mult in b_counts.items():
            out[a ^ b] += mult
    return out


def sum_of_products_oracle(*factors) -> int:
    """sum_i prod_k factors[k][i] in Python ints, term by term."""
    return sum(map(math.prod, zip(*(np.asarray(f).tolist() for f in factors))))


def four_sum_first_failure(c: np.ndarray, elements) -> int | None:
    """First x in ``elements`` with sum_r c[r]^4 (-1)^(r.x) <= 0, else None.

    The per-element check that bogolyubov ran before its single transform:
    one signed dot product over all 2^n characters per element.
    """
    idx = np.arange(c.size, dtype=np.int64)
    c4 = c.astype(np.int64) ** 2
    c4 = c4 * c4
    for x in elements:
        signs = 1 - 2 * (np.bitwise_count(idx & x).astype(np.int64) & 1)
        if int(np.dot(c4, signs)) <= 0:
            return x
    return None


def naive_sumset(a, b, n: int) -> np.ndarray:
    """Bitmap of {x + y : x in a, y in b} over F2^n, one gather per element of a."""
    out = np.zeros(1 << n, dtype=bool)
    b = np.asarray(b, dtype=np.int64)
    for x in np.asarray(a, dtype=np.int64).tolist():
        out[b ^ x] = True
    return out


def four_sum_witness(bitmap: np.ndarray, x: int, rng, draws: int = 64):
    """Some (s1, s2, s3, s4) in S^4 with s1 + s2 + s3 + s4 = x, by bitmap lookups alone.

    S is the set of ones of ``bitmap``.  Each draw takes s3, s4 from S and
    looks up x + s3 + s4 + s1 for every s1 in S; None if no draw finds one.
    """
    elems = np.flatnonzero(bitmap)
    for _ in range(draws):
        s3, s4 = (int(e) for e in rng.choice(elems, size=2))
        y = x ^ s3 ^ s4
        hits = np.flatnonzero(bitmap[elems ^ y])
        if hits.size:
            s1 = int(elems[hits[0]])
            return s1, s1 ^ y, s3, s4
    return None


def convolution_floor_oracle(a_bitmap: np.ndarray, l: int) -> np.ndarray:
    """counts[x] = #{(i_1..i_l) : x + e_i1 + ... + e_il in A}, by l gathers per basis vector."""
    counts = a_bitmap.astype(np.int64)
    idx = np.arange(a_bitmap.size, dtype=np.int64)
    for _ in range(l):
        nxt = np.zeros_like(counts)
        for i in range(a_bitmap.size.bit_length() - 1):
            nxt += counts[idx ^ (1 << i)]
        counts = nxt
    return counts


def smallest_key_bits_oracle(keys: np.ndarray, cutoffs) -> np.ndarray:
    """Per row, the packed bits of the keys ranked below its cutoff by the
    double argsort (ties keep the order that argsort gives them)."""
    ranks = keys.argsort(axis=1).argsort(axis=1)
    return np.array(
        [sum(1 << j for j, r in enumerate(row) if r < m)
         for row, m in zip(ranks.tolist(), list(cutoffs))],
        dtype=np.uint64,
    )


@functools.lru_cache(maxsize=None)
def _embedded_candidates(dims: tuple[int, ...], k: int):
    """Per axis subset of the first d-1 axes, every dim <= k subspace of
    F2^I embedded as its blowup H (x) F2^{I^c}."""
    from closurelab.gf2 import all_subspaces
    from closurelab.tensor import TensorShape, sum_of_blowups

    shape = TensorShape(dims)
    d = len(dims)
    subsets = [
        tuple(a for a in range(d - 1) if (mask >> a) & 1) for mask in range(1, 1 << (d - 1))
    ]
    return [
        [sum_of_blowups(shape, {axes: h})
         for h in all_subspaces(math.prod(dims[a] for a in axes), k)]
        for axes in subsets
    ]


def degenerate_dfs_oracle(data: int, dims: tuple[int, ...], k: int) -> bool:
    """Whether the tensor lies in a sum of dim <= k blowups over the axis
    subsets of the first d-1 axes, by depth-first search over every tuple
    of candidate subspaces (the search ``degenerate_decide`` ran before its
    sumset bitmap), carrying the partial sum of blowups.
    """
    from closurelab.gf2 import rref

    levels = _embedded_candidates(tuple(dims), k)
    n = math.prod(dims)

    def search(level: int, partial) -> bool:
        if partial.contains(data):
            return True
        if level == len(levels):
            return False
        return any(search(level + 1, rref(partial.rows + blowup.rows, n))
                   for blowup in levels[level])

    return search(0, rref((), n))
