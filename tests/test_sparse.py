from fractions import Fraction

import pytest

from fockcap import RowReducer, SparseMatrix, max_entry_difference, rational_rank
from fockcap.sparse import orbit_ranks


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


def test_rational_rank_exact():
    # rank 1 over the rationals despite four nonzero entries
    vecs = [{0: Fraction(1), 1: Fraction(2)},
            {0: Fraction(2), 1: Fraction(4)}]
    assert rational_rank(vecs, 2) == 1
    vecs.append({1: Fraction(1, 3)})
    assert rational_rank(vecs, 2) == 2


def test_row_reducer_incremental():
    reducer = RowReducer(3)
    assert reducer.add({0: Fraction(1, 2), 2: Fraction(1)})
    assert not reducer.add({0: Fraction(1), 2: Fraction(2)})
    assert reducer.add({1: Fraction(7)})
    assert reducer.rank == 2
    assert reducer.contains({0: Fraction(3), 1: Fraction(1), 2: Fraction(6)})
    assert not reducer.contains({2: Fraction(1)})


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
    words = list(level)
    for _ in range(dim - 1):
        level = [_times(g, v) for g in generators for v in level]
        words += level
    return rational_rank(words, dim)


def test_orbit_ranks_is_an_exact_rank_not_reachability():
    assert orbit_ranks([A], [0, 1, 2, 3], 4) == [2, 2, 2, 1]
    # a proper invariant subspace holds the orbit of e0 below the full dimension
    assert orbit_ranks([A, SWAP], [0, 3, 1], 4) == [2, 1, 3]
    for generators in ([A], [A, SWAP], [A, C], [C, SWAP], [A, SWAP, C]):
        seeds = [3, 0, 2, 1, 0]
        assert orbit_ranks(generators, seeds, 4) == [
            _enumerated_orbit_rank(generators, seed, 4) for seed in seeds]
