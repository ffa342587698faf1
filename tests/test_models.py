import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fockcap import (AlgebraSpec, Kind, cli, diagonal_hamiltonian, diagonal_spectrum,
                     dimension, enumerate_basis, quadratic_hamiltonian_spectrum,
                     models, spectrum_of_diagonal, toy_levels, toy_spectrum)
from fockcap.operators import ORTHONORMAL, fock_space
from fockcap.sparse import MonomialMatrix, SparseMatrix

from conftest import small_grid

B22 = AlgebraSpec(Kind.BOSE, 2, 2)
SPECTRUM_TOL = 1e-10  # float eigenvalues, as in acceptance criterion 8


def test_diagonal_hamiltonian_entries():
    h = diagonal_hamiltonian(B22, [1, 1])
    assert isinstance(h, MonomialMatrix)
    r = fock_space(B22).index[(1, 1)]
    assert h.get(r, r) == 1          # 2 * (1 - 1/2)
    assert h.get(0, 0) == 0
    spec = AlgebraSpec(Kind.FERMI, 1, 1)
    h = diagonal_hamiltonian(spec, [1])
    assert h.get(1, 1) == 1


def test_diagonal_hamiltonian_formula():
    # entry at v equals sum_i eps_i v_i (p - |v| + 1)/p
    for spec in small_grid(3, 3):
        eps = [Fraction(i + 1, 2) for i in range(spec.n)]
        h = diagonal_hamiltonian(spec, eps)
        for r, v in enumerate(enumerate_basis(spec)):
            k = sum(v)
            expected = sum(e * x for e, x in zip(eps, v)) * Fraction(spec.p - k + 1, spec.p)
            assert h.get(r, r) == expected
        off = [(r, c) for (r, c) in h.data if r != c]
        assert not off


def test_toy_levels_closed_form():
    rows = toy_levels(10)
    k, value, mult, gap = rows[3]
    assert (k, value, mult) == (3, Fraction(12, 5), 4)
    assert gap == Fraction(1) - Fraction(6, 10)
    # level gaps are 1 - 2k/p throughout
    for k, value, mult, gap in rows[:-1]:
        assert gap == Fraction(1) - Fraction(2 * k, 10)
        assert rows[k + 1][1] - value == gap
    assert rows[-1][3] is None


def test_toy_spectrum_merges_degeneracies():
    report = toy_spectrum(2)
    assert report.levels == ((Fraction(0), 1), (Fraction(1), 5))
    # at p=10 the parabola collides pairwise: E_k = E_{11-k}
    report = toy_spectrum(10)
    merged = dict(report.levels)
    assert merged[Fraction(12, 5)] == 4 + 9
    assert report.total_multiplicity == dimension(AlgebraSpec(Kind.BOSE, 2, 10))


def test_toy_spectrum_equals_matrix_diagonalization():
    for p in (1, 2, 3, 10):
        spec = AlgebraSpec(Kind.BOSE, 2, p)
        assert toy_spectrum(p).levels == diagonal_spectrum(spec, [1, 1]).levels


def test_toy_levels_approach_uncapped_ladder():
    # the level labelled k sits exactly k(k-1)/p below its uncapped value k
    for p in (10, 100, 1000):
        for k, value, mult, _ in toy_levels(p):
            assert Fraction(k) - value == Fraction(k * (k - 1), p)
            assert mult == k + 1


def test_toy_argument_validation():
    with pytest.raises(ValueError):
        toy_levels(0)
    with pytest.raises(ValueError):
        toy_spectrum(-3)


def test_spectrum_of_diagonal_rejects_offdiagonal():
    spec = AlgebraSpec(Kind.BOSE, 2, 1)
    with pytest.raises(ValueError):
        spectrum_of_diagonal(fock_space(spec).bilinear(1, 2))


def test_multiplicities_sum_to_dimension():
    for spec in small_grid(3, 3):
        eps = list(range(1, spec.n + 1))
        assert diagonal_spectrum(spec, eps).total_multiplicity == dimension(spec)


def test_quadratic_diagonal_matches_exact():
    for spec in (B22, AlgebraSpec(Kind.FERMI, 3, 2), AlgebraSpec(Kind.BOSE, 1, 4)):
        eps = [1.0 + 0.5 * i for i in range(spec.n)]
        t = [[eps[i] if i == j else 0.0 for j in range(spec.n)] for i in range(spec.n)]
        float_report = quadratic_hamiltonian_spectrum(spec, t)
        exact_report = diagonal_spectrum(spec, [Fraction(2 + i, 2) for i in range(spec.n)])
        assert len(float_report.levels) == len(exact_report.levels)
        for (fv, fm), (ev, em) in zip(float_report.levels, exact_report.levels):
            assert fm == em
            assert fv == pytest.approx(float(ev), abs=1e-10)


def test_quadratic_identity_reproduces_toy():
    for p in (2, 5):
        spec = AlgebraSpec(Kind.BOSE, 2, p)
        report = quadratic_hamiltonian_spectrum(spec, [[1.0, 0.0], [0.0, 1.0]])
        expected = toy_spectrum(p)
        assert len(report.levels) == len(expected.levels)
        for (fv, fm), (ev, em) in zip(report.levels, expected.levels):
            assert fm == em
            assert fv == pytest.approx(float(ev), abs=1e-10)


def test_quadratic_hopping_frozen():
    spec = AlgebraSpec(Kind.BOSE, 2, 1)
    report = quadratic_hamiltonian_spectrum(spec, [[0.0, 1.0], [1.0, 0.0]])
    values = [v for v, _ in report.levels]
    mults = [m for _, m in report.levels]
    assert values == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)
    assert mults == [1, 1, 1]


TABLES = {
    "diagonal": lambda n: [[0.5 + 1.25 * i if i == j else 0.0 for j in range(n)]
                           for i in range(n)],
    "degenerate": lambda n: [[1.0] * n for _ in range(n)],
    "hopping": lambda n: [[0.3 * (i + 1) if i == j else -0.7 if abs(i - j) == 1 else 0.0
                           for j in range(n)] for i in range(n)],
}


def _dict_of_keys_levels(spec, table):
    """The float spectrum with H summed as a SparseMatrix of the products."""
    space = fock_space(spec)
    dim = dimension(spec)
    h = SparseMatrix(dim, dim)
    for i in range(1, spec.n + 1):
        for j in range(1, spec.n + 1):
            t = table[i - 1][j - 1]
            if t != 0:
                product = space.ladder(i, +1, ORTHONORMAL) @ space.ladder(j, -1, ORTHONORMAL)
                h = h + t * product.to_sparse()
    dense = np.zeros((dim, dim))
    for (r, c), v in h.data.items():
        dense[r, c] = v
    return models._cluster(np.linalg.eigvalsh(dense), models.CLUSTER_TOL)


def assert_levels_close(got, want):
    """Equal multiplicities, and values within SPECTRUM_TOL (LAPACK on the
    grade blocks and on the whole matrix rounds differently)."""
    assert [m for _, m in got] == [m for _, m in want]
    assert max((abs(g - w) for (g, _), (w, _) in zip(got, want)), default=0.0) <= SPECTRUM_TOL


@pytest.mark.parametrize("name", sorted(TABLES))
def test_quadratic_spectrum_matches_the_dict_of_keys_oracle(name):
    for spec in small_grid(3, 3):
        table = TABLES[name](spec.n)
        assert_levels_close(quadratic_hamiltonian_spectrum(spec, table).levels,
                            _dict_of_keys_levels(spec, table))


# Levels of `spectrum --backend float --matrix-file` from one dense eigvalsh of
# the whole matrix, recorded before the spectrum was computed per grade block.
# The all-ones tables merge levels across grades (bose 2 5: one zero level in
# each of the six grades); the last two are hopping tables.
FLOAT_SPECTRUM_GOLDEN = [
    (('bose', 3, 4, [[0.5, 0.0, 0.0], [0.0, 1.75, 0.0], [0.0, 0.0, 3.0]]),
     ((0.0, 1), (0.5, 2), (0.7499999999999999, 2), (0.8125, 1), (1.125, 2), (1.3750000000000002, 1),
      (1.4375, 2), (1.6874999999999998, 1), (1.75, 4), (2.0, 2), (2.0625, 2), (2.375, 2), (2.625, 4),
      (2.6874999999999996, 1), (3.0, 2), (3.25, 2), (3.562499999999999, 1), (3.875, 1),
      (4.499999999999999, 2))),
    (('fermi', 4, 3, [[-1.0, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 2.0, 0], [0, 0, 0, 0.0]]),
     ((-1.0, 1), (-0.6666666666666666, 1), (-0.5, 1), (-0.25, 1), (0.0, 2), (0.16666666666666666, 1),
      (0.25, 1), (0.3333333333333333, 1), (0.41666666666666663, 1), (0.6666666666666666, 1),
      (0.75, 1), (1.3333333333333333, 1), (1.5, 1), (2.0, 1))),
    (('bose', 2, 5, [[1.0, 1.0], [1.0, 1.0]]),
     ((-1.3607527828777185e-16, 6), (0.3999999999999998, 1), (0.8, 2), (1.1999999999999997, 2),
      (1.6000000000000003, 3), (2.0, 2), (2.4, 2), (3.1999999999999997, 2), (3.5999999999999996, 1))),
    (('fermi', 3, 3, [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]),
     ((-1.367607616026568e-16, 4), (1.0, 1), (2.0, 2), (2.9999999999999996, 1))),
    (('bose', 3, 3, [[1.0, -0.5, 0.0], [-0.5, 2.0, 0.25], [0.0, 0.25, 0.5]]),
     ((0.0, 1), (0.44354994606771236, 2), (0.5685449510698085, 1), (0.5913999280902831, 1),
      (0.6935399560719044, 1), (0.8185349610740014, 2), (0.8413899380944754, 1),
      (1.0416716616645703, 1), (1.0913799480986683, 1), (1.1666666666666659, 1),
      (1.291661671668763, 1), (1.6397933772614275, 1), (1.7647883822635237, 1),
      (1.787643359283999, 1), (2.0376333692881925, 1), (2.2379150928582856, 2),
      (2.983886790477715, 1))),
    (('fermi', 3, 2, [[1.0, -0.5, 0.0], [-0.5, 2.0, 0.25], [0.0, 0.25, 0.5]]),
     ((0.0, 1), (0.4435499460677123, 1), (0.6310424535708569, 1), (0.8185349610740013, 1),
      (1.3407325194629998, 1), (1.5282250269661442, 1), (2.2379150928582865, 1))),
]


@pytest.mark.parametrize("case, expected", FLOAT_SPECTRUM_GOLDEN)
def test_float_spectrum_tolerance_golden(case, expected, tmp_path, capsys):
    kind, n, p, table = case
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    assert cli.main(["spectrum", "--kind", kind, "--n", str(n), "--p", str(p),
                     "--backend", "float", "--matrix-file", str(path)]) == 0
    got = tuple((level["value"], level["mult"]) for level in json.loads(capsys.readouterr().out))
    assert_levels_close(got, expected)


def test_float_spectrum_allocates_no_dim_squared_array(fresh_spaces):
    # dim 12341: one dense float matrix would take 1.2 GB; the largest grade block is 861^2
    spec = AlgebraSpec(Kind.BOSE, 3, 40)
    eps = [Fraction(1, 2), Fraction(5, 4), Fraction(2)]
    table = [[float(eps[i]) if i == j else 0.0 for j in range(3)] for i in range(3)]
    tracemalloc.start()  # numpy reports its array buffers to tracemalloc
    try:
        report = quadratic_hamiltonian_spectrum(spec, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert report.total_multiplicity == dimension(spec)
    exact = diagonal_spectrum(spec, eps).levels
    assert_levels_close(report.levels, [(float(v), m) for v, m in exact])


def test_quadratic_rejects_asymmetric_table():
    with pytest.raises(ValueError):
        quadratic_hamiltonian_spectrum(B22, [[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        quadratic_hamiltonian_spectrum(B22, [[0.0, 1.0]])


def test_spectrum_invariant_under_mode_relabeling():
    spec = AlgebraSpec(Kind.BOSE, 3, 2)
    eps = [Fraction(1), Fraction(3, 2), Fraction(4)]
    reference = diagonal_spectrum(spec, eps).levels
    for perm in itertools.permutations(range(3)):
        permuted = [eps[p] for p in perm]
        assert diagonal_spectrum(spec, permuted).levels == reference


@given(st.integers(1, 40))
def test_toy_total_multiplicity_property(p):
    # multiplicities over the closed-form table always fill the space
    assert toy_spectrum(p).total_multiplicity == (p + 1) * (p + 2) // 2


def test_zero_coefficient_builds_no_product(monkeypatch):
    products = []
    matmul = MonomialMatrix.__matmul__

    def counted(a, b):
        products.append(1)
        return matmul(a, b)

    monkeypatch.setattr(MonomialMatrix, "__matmul__", counted)
    spec = AlgebraSpec(Kind.BOSE, 3, 2)
    diagonal_hamiltonian(spec, [2, 0, Fraction(1, 3)])
    assert len(products) == 2
    products.clear()
    quadratic_hamiltonian_spectrum(spec, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert len(products) == 2


def test_non_adjoint_ladder_fails_the_symmetry_check(monkeypatch, fresh_spaces):
    from fockcap import operators
    original = operators._ladder_matrix

    def skewed(space, i, delta, normalization):
        # a_1^+ no longer the transpose of a_1^-: the hopping term loses its symmetry
        op = original(space, i, delta, normalization)
        return 2.0 * op if (i, delta, normalization) == (1, +1, operators.ORTHONORMAL) else op

    monkeypatch.setattr(operators, "_ladder_matrix", skewed)
    with pytest.raises(RuntimeError, match="not symmetric"):
        quadratic_hamiltonian_spectrum(B22, [[0.0, 1.0], [1.0, 0.0]])


def test_product_entry_outside_its_grade_block_is_a_builder_bug(monkeypatch, fresh_spaces):
    from fockcap import operators
    original = operators._ladder_matrix

    def doubled(space, i, delta, normalization):
        # a_1^+ raises by two quanta: a_1^+ a_1^- no longer keeps the grade
        op = original(space, i, delta, normalization)
        return op @ op if (i, delta, normalization) == (1, +1, operators.ORTHONORMAL) else op

    monkeypatch.setattr(operators, "_ladder_matrix", doubled)
    with pytest.raises(RuntimeError, match="outside grade block"):
        quadratic_hamiltonian_spectrum(AlgebraSpec(Kind.BOSE, 2, 3), [[1.0, 0.0], [0.0, 1.0]])


def test_energy_count_validation():
    with pytest.raises(ValueError):
        diagonal_hamiltonian(B22, [1])
