import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fockcap import AlgebraSpec, FockSpace, Kind, relations
from fockcap.sparse import (MonomialMatrix, RowReducer, SparseMatrix, _reachable_counts,
                            orbit_ranks)


def _mat(rows, cols, entries, tag=None):
    return SparseMatrix(rows, cols, {(r, c): Fraction(v) for r, c, v in entries}, tag)


def test_arithmetic_and_matmul():
    a = _mat(2, 2, [(0, 0, 1), (0, 1, 2)])
    b = _mat(2, 2, [(1, 0, 3), (1, 1, -1)])
    assert (a + b).entries() == [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, -1)]
    assert (a - a).nnz == 0
    prod = a @ b
    # row 0 of a hits row 1 of b through column 1
    assert prod.entries() == [(0, 0, 6), (0, 1, -2)]
    assert (2 * a).get(0, 1) == 4
    assert (-a).get(0, 0) == -1
    with pytest.raises(TypeError, match="use @"):
        a * b
    assert a == _mat(2, 2, [(0, 1, 2), (0, 0, 1)]) and a != b and a != _mat(2, 3, [])
    assert (a == 3) is False
    assert repr(a) == "SparseMatrix(2x2, nnz=2, tag=None)"


def test_zero_entries_are_stripped():
    m = _mat(2, 2, [(0, 0, 1), (1, 1, 0)])
    assert m.nnz == 1
    s = m + _mat(2, 2, [(0, 0, -1)])
    assert s.nnz == 0
    assert s.max_abs() == 0


def test_transpose():
    m = _mat(2, 3, [(0, 2, 5), (1, 0, -1)])
    t = m.transpose()
    assert t.shape == (3, 2)
    assert t.get(2, 0) == 5


def test_tag_mismatch_rejected():
    a = _mat(2, 2, [(0, 0, 1)], tag="left")
    b = _mat(2, 2, [(1, 1, 1)], tag="right")
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        a + b
    # untagged operands inherit the other side's tag
    c = _mat(2, 2, [(1, 1, 1)])
    assert (a @ c).tag == "left"


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        _mat(2, 2, []) @ _mat(3, 3, [])
    with pytest.raises(ValueError):
        _mat(2, 2, []) + _mat(2, 3, [])
    two, three = MonomialMatrix(2, [1, -1], [1, 0]), MonomialMatrix(3, [1, 2, -1], [1, 1, 0])
    with pytest.raises(ValueError, match="shape mismatch"):
        two @ three
    with pytest.raises(ValueError, match="shape mismatch"):
        two + three
    with pytest.raises(ValueError, match="shape mismatch"):
        two - three


def test_apply_vector():
    m = _mat(3, 3, [(1, 0, 2), (2, 1, 3)])
    out = m.apply({0: Fraction(1), 1: Fraction(-1)})
    assert out == {1: Fraction(2), 2: Fraction(-3)}


def test_residual_is_the_max_abs_of_the_difference():
    a = _mat(2, 2, [(0, 0, 1), (1, 1, 2)])
    b = _mat(2, 2, [(0, 0, 1), (1, 0, 5)])
    assert (a - b).max_abs() == 5
    assert (a - a).max_abs() == 0
    # two 6-dim spaces of different specs, and two bases of one space
    up = FockSpace(AlgebraSpec(Kind.BOSE, 2, 2)).ladder(1, +1)
    for other in (FockSpace(AlgebraSpec(Kind.FERMI, 5, 1)).ladder(1, +1),
                  FockSpace(AlgebraSpec(Kind.BOSE, 2, 2)).ladder(1, +1, "orthonormal")):
        with pytest.raises(ValueError, match="basis tag mismatch"):
            up - other


def test_a_nan_entry_makes_a_float_residual_fail():
    # max alone skips a NaN that does not come first: the residual would read 1.0 and pass
    m = MonomialMatrix(2, [0, 1], [1.0, math.nan])
    assert math.isnan(m.max_abs())
    assert math.isnan(m.max_abs(lambda r, c: r == c))
    assert m.max_abs(lambda r, c: c == 0) == 1.0
    spec = AlgebraSpec(Kind.BOSE, 1, 1)
    assert not relations._report("nan", spec, (), m.max_abs(), relations.FLOAT).passed
    assert MonomialMatrix(2, [0, 1], [1, -3], 2).max_abs() == Fraction(3, 2)


def test_row_reducer_incremental():
    reducer = RowReducer()
    assert reducer.add({0: Fraction(1, 2), 2: Fraction(1)})
    assert not reducer.add({0: Fraction(1), 2: Fraction(2)})
    assert reducer.add({1: Fraction(7)})
    assert reducer.rank == 2
    assert not reducer.add({0: Fraction(3), 1: Fraction(1), 2: Fraction(6)})
    assert reducer.add({2: Fraction(1)})
    assert reducer.rank == 3
    # rank 1 over the rationals despite four nonzero entries, then 2
    reducer = RowReducer()
    assert reducer.add({0: Fraction(1), 1: Fraction(2)})
    assert not reducer.add({0: Fraction(2), 1: Fraction(4)})
    assert reducer.rank == 1
    assert reducer.add({1: Fraction(1, 3)})
    assert reducer.rank == 2


# e0 -> e1 + e2, e1 -> e3, e2 -> -e3: A(e1 + e2) = 0, so the orbit of e0 is
# span{e0, e1 + e2} although the support graph of A reaches every index from 0.
A = _mat(4, 4, [(1, 0, 1), (2, 0, 1), (3, 1, 1), (3, 2, -1)])
SWAP = _mat(4, 4, [(0, 0, 3), (2, 1, 1), (1, 2, 1)])  # keeps span{e0, e1 + e2}
C = _mat(4, 4, [(0, 1, Fraction(1, 2)), (2, 1, -1), (3, 0, 2), (1, 3, 1), (0, 3, 1)])


def _times(m, vec):
    out = {}
    for (r, c), v in m.data.items():
        if c in vec:
            out[r] = out.get(r, 0) + v * vec[c]
    return out


def _enumerated_orbit_rank(generators, seed, dim):
    """Rank of every word of length < dim in the generators applied to e_seed."""
    level = [{seed: Fraction(1)}]
    reducer = RowReducer()
    reducer.add(level[0])
    for _ in range(dim - 1):
        level = [_times(g, v) for g in generators for v in level]
        for word in level:
            reducer.add(word)
    return reducer.rank


def test_orbit_ranks_is_an_exact_rank_not_reachability():
    assert orbit_ranks([A], [0, 1, 2, 3]) == [2, 2, 2, 1]
    # a proper invariant subspace holds the orbit of e0 below the full dimension
    assert orbit_ranks([A, SWAP], [0, 3, 1]) == [2, 1, 3]
    for generators in ([A], [A, SWAP], [A, C], [C, SWAP], [A, SWAP, C]):
        seeds = [3, 0, 2, 1, 0]
        assert orbit_ranks(generators, seeds) == [
            _enumerated_orbit_rank(generators, seed, 4) for seed in seeds]


def _reached_by_bfs(targets, seed):
    """How many indices the index maps reach from seed, by one plain
    breadth-first walk with a set: the oracle of _reachable_counts."""
    reached, frontier = {seed}, [seed]
    while frontier:
        frontier = [w for v in frontier for target in targets
                    if (w := target[v]) >= 0 and w not in reached and not reached.add(w)]
    return len(reached)


def test_reachable_counts_match_a_per_seed_walk_on_random_index_maps():
    # asymmetric maps, self-maps and -1 entries; seeds in any order, some repeated
    rng = random.Random(7)
    for trial in range(300):
        dim = rng.randint(1, 12)
        targets = [[rng.choice([-1, v, *range(dim)]) for v in range(dim)]
                   for _ in range(rng.randint(1, 3))]
        seeds = [rng.randrange(dim) for _ in range(rng.randint(1, 2 * dim))]
        assert _reachable_counts(targets, seeds) == [
            _reached_by_bfs(targets, seed) for seed in seeds], (targets, seeds)


def test_reachable_counts_of_one_block_share_one_mask():
    # every seed of a cycle reaches all of it; seed s meets the walked s - 1 at
    # its first step, so an equal copy of the full mask per seed would hold
    # dim**2 / 8 bytes (8 MB here)
    dim = 8000
    targets = [[v - 1 if v else dim - 1 for v in range(dim)]]
    tracemalloc.start()
    try:
        counts = _reachable_counts(targets, range(dim))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [dim] * dim
    assert peak < 1e6


@st.composite
def monomial_pairs(draw):
    """Two square monomial matrices of one size, both exact (int coefficients
    over a denominator) or both float."""
    dim = draw(st.integers(1, 6))
    exact = draw(st.booleans())
    coef = st.integers(-6, 6) if exact else st.sampled_from(
        [0.0, 1.0, -0.5, 1 / 3, -math.sqrt(2), math.pi, 1e-3, -7.25])

    def one():
        targets = draw(st.lists(st.integers(-1, dim - 1), min_size=dim, max_size=dim))
        coefs = [draw(coef) if t >= 0 else 0 for t in targets]
        denom = draw(st.integers(1, 6)) if exact else 1
        return MonomialMatrix(dim, targets, coefs, denom, "tag")

    return one(), one()


@settings(max_examples=300, deadline=None)
@given(monomial_pairs(), st.sampled_from([3, -1, 0, Fraction(2, 3), 0.5]))
def test_monomial_kernel_matches_the_dict_of_keys_kernel(pair, scalar):
    a, b = pair
    sa, sb = a.to_sparse(), b.to_sparse()
    # float entries agree bit for bit: each is the same one product or sum
    assert (a @ b).data == (sa @ sb).data
    assert (a @ (1.0 * b)).data == (sa @ (1.0 * sb)).data  # exact times float, if a is exact
    assert (a + b).data == (sa + sb).data
    assert (a - b).data == (sa - sb).data
    assert (scalar * a).data == (scalar * sa).data
    assert (-a).data == (-sa).data
    assert a.transpose().data == sa.transpose().data
    assert a.entries() == sa.entries()
    assert a.nnz == sa.nnz
    assert a.max_abs() == sa.max_abs()
    off_diagonal = lambda r, c: r != c  # noqa: E731
    assert a.max_abs(off_diagonal) == sa.max_abs(off_diagonal)
    assert (a - b).max_abs() == (sa - sb).max_abs()
    vec = {c: Fraction(c + 1, 2) for c in range(a.cols)}
    assert a.apply(vec) == sa.apply(vec)
    assert [a.get(r, c) for r in range(a.rows) for c in range(a.cols)] == \
        [sa.get(r, c) for r in range(a.rows) for c in range(a.cols)]
    assert a == sa and (a @ b).tag == "tag"


def test_non_finite_scalar_is_refused():
    # 0 * inf is nan, so no scaled matrix keeps its empty slots empty
    half = MonomialMatrix(2, [1, -1], [1, 0], 2)
    for scalar in (math.inf, -math.inf, math.nan):
        for op in (half, 1.0 * half):
            with pytest.raises(ValueError, match="non-finite"):
                scalar * op
            with pytest.raises(ValueError, match="non-finite"):
                op * scalar


def test_sum_of_clashing_monomials_is_the_general_sum():
    # e0 -> 2 e1 and e0 -> e2: no single entry per column, so the exact sum
    a = MonomialMatrix(3, [1, -1, -1], [2, 0, 0])
    b = MonomialMatrix(3, [2, -1, -1], [1, 0, 0], 3)
    total = a - b
    assert isinstance(total, SparseMatrix)
    assert total.entries() == [(1, 0, 2), (2, 0, Fraction(-1, 3))]
    assert total.max_abs() == 2


def test_monomial_denominators_and_zero_entries():
    half = MonomialMatrix(2, [1, -1], [1, 0], 2)
    assert half.get(1, 0) == Fraction(1, 2) and half.get(0, 0) == 0
    assert (half @ MonomialMatrix(2, [1, -1], [3, 0])).nnz == 0  # lands on an empty column
    # a cancelled entry is no entry, and orbits do not walk through it
    cancelled = half - half
    assert cancelled.nnz == 0 and cancelled.max_abs() == 0 and cancelled.data == {}
    assert orbit_ranks([cancelled], [0]) == [1]
    assert orbit_ranks([half], [0, 1]) == [2, 1]
    assert (6 * half).denom == 1 and (6 * half).get(1, 0) == 3
    with pytest.raises(TypeError, match="use @"):
        half * half
    with pytest.raises(TypeError, match="use @"):
        half * half.to_sparse()
    assert (half == 3) is False  # NotImplemented both ways, so == falls back to identity
    assert MonomialMatrix.from_columns(2, [0, 1], [Fraction(1, 2), Fraction(1, 3)]).denom == 6
