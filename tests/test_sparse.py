import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fockcap.sparse import (MonomialMatrix, RowReducer, SparseMatrix, max_entry_difference,
                            orbit_ranks)


def _mat(rows, cols, entries, tag=None):
    return SparseMatrix(rows, cols, {(r, c): Fraction(v) for r, c, v in entries}, tag)


def test_arithmetic_and_matmul():
    a = _mat(2, 2, [(0, 0, 1), (0, 1, 2)])
    b = _mat(2, 2, [(1, 0, 3), (1, 1, -1)])
    assert (a + b).entries() == [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, -1)]
    assert (a - a).is_zero()
    prod = a @ b
    # row 0 of a hits row 1 of b through column 1
    assert prod.entries() == [(0, 0, 6), (0, 1, -2)]
    assert (2 * a).get(0, 1) == 4
    assert (-a).get(0, 0) == -1


def test_zero_entries_are_stripped():
    m = _mat(2, 2, [(0, 0, 1), (1, 1, 0)])
    assert m.nnz == 1
    s = m + _mat(2, 2, [(0, 0, -1)])
    assert s.is_zero()
    assert s.max_abs() == 0


def test_transpose_and_dense():
    m = _mat(2, 3, [(0, 2, 5), (1, 0, -1)])
    t = m.transpose()
    assert t.shape == (3, 2)
    assert t.get(2, 0) == 5
    dense = m.to_dense()
    assert dense.shape == (2, 3)
    assert dense[0, 2] == 5.0 and dense[1, 0] == -1.0


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


def test_apply_vector():
    m = _mat(3, 3, [(1, 0, 2), (2, 1, 3)])
    out = m.apply({0: Fraction(1), 1: Fraction(-1)})
    assert out == {1: Fraction(2), 2: Fraction(-3)}


def test_max_entry_difference():
    a = _mat(2, 2, [(0, 0, 1), (1, 1, 2)])
    b = _mat(2, 2, [(0, 0, 1), (1, 0, 5)])
    assert max_entry_difference(a, b) == 5
    assert max_entry_difference(a, a) == 0


def test_row_reducer_incremental():
    reducer = RowReducer(3)
    assert reducer.add({0: Fraction(1, 2), 2: Fraction(1)})
    assert not reducer.add({0: Fraction(1), 2: Fraction(2)})
    assert reducer.add({1: Fraction(7)})
    assert reducer.rank == 2
    assert reducer.contains({0: Fraction(3), 1: Fraction(1), 2: Fraction(6)})
    assert not reducer.contains({2: Fraction(1)})
    # rank 1 over the rationals despite four nonzero entries, then 2
    reducer = RowReducer(2)
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
    reducer = RowReducer(dim)
    reducer.add(level[0])
    for _ in range(dim - 1):
        level = [_times(g, v) for g in generators for v in level]
        for word in level:
            reducer.add(word)
    return reducer.rank


def test_orbit_ranks_is_an_exact_rank_not_reachability():
    assert orbit_ranks([A], [0, 1, 2, 3], 4) == [2, 2, 2, 1]
    # a proper invariant subspace holds the orbit of e0 below the full dimension
    assert orbit_ranks([A, SWAP], [0, 3, 1], 4) == [2, 1, 3]
    for generators in ([A], [A, SWAP], [A, C], [C, SWAP], [A, SWAP, C]):
        seeds = [3, 0, 2, 1, 0]
        assert orbit_ranks(generators, seeds, 4) == [
            _enumerated_orbit_rank(generators, seed, 4) for seed in seeds]


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
    assert a.nnz == sa.nnz and a.is_zero() == sa.is_zero()
    assert a.max_abs() == sa.max_abs()
    off_diagonal = lambda r, c: r != c  # noqa: E731
    assert a.max_abs(off_diagonal) == sa.max_abs(off_diagonal)
    assert max_entry_difference(a, b) == max_entry_difference(sa, sb)
    vec = {c: Fraction(c + 1, 2) for c in range(a.cols)}
    assert a.apply(vec) == sa.apply(vec)
    assert [a.get(r, c) for r in range(a.rows) for c in range(a.cols)] == \
        [sa.get(r, c) for r in range(a.rows) for c in range(a.cols)]
    assert a == sa and (a @ b).tag == "tag"


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
    assert (half @ MonomialMatrix(2, [1, -1], [3, 0])).is_zero()  # lands on an empty column
    # a cancelled entry is no entry, and orbits do not walk through it
    cancelled = half - half
    assert cancelled.is_zero() and cancelled.max_abs() == 0 and cancelled.data == {}
    assert orbit_ranks([cancelled], [0], 2) == [1]
    assert orbit_ranks([half], [0, 1], 2) == [2, 1]
    assert (6 * half).denom == 1 and (6 * half).get(1, 0) == 3
    assert MonomialMatrix.diagonal([Fraction(1, 2), Fraction(1, 3)]).denom == 6
