import collections
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockcap import (AlgebraSpec, Kind, cli, diagonal_spectrum, dimension,
                     quadratic_hamiltonian_spectrum, models, toy_levels, toy_spectrum)
from fockcap.operators import ORTHONORMAL, FockSpace
from fockcap.sparse import MonomialMatrix, SparseMatrix

from conftest import (brute_basis, bumped, diagonal_hamiltonian, products, rank_map,
                      small_grid, spectrum_of_diagonal)

B22 = AlgebraSpec(Kind.BOSE, 2, 2)
SPECTRUM_TOL = 1e-10  # float eigenvalues, as in acceptance criterion 8


def test_diagonal_hamiltonian_entries():
    h = diagonal_hamiltonian(B22, [1, 1])
    assert isinstance(h, MonomialMatrix)
    r = rank_map(FockSpace(B22))[(1, 1)]
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
        for r, v in enumerate(FockSpace(spec).basis):
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


def _product_route_levels(spec, energies):
    """The oracle: H assembled from the products a_i^+ @ a_i^-, its diagonal read off."""
    return spectrum_of_diagonal(diagonal_hamiltonian(spec, energies)).levels


def test_toy_spectrum_equals_matrix_diagonalization():
    for p in (1, 2, 3, 10):
        spec = AlgebraSpec(Kind.BOSE, 2, p)
        assert toy_spectrum(p).levels == _product_route_levels(spec, [1, 1])


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
        spectrum_of_diagonal(FockSpace(spec).bilinear(1, 2))


def test_diagonal_spectrum_equals_the_product_route():
    # zero, negative, repeated and non-integer energies; small_grid holds Fermi specs with p >= n
    rng = random.Random(18)
    for spec in small_grid(4, 4):
        n = spec.n
        draws = [[Fraction(0)] * n, [Fraction(5, 3)] * n,
                 [Fraction(-7, 4), Fraction(0), Fraction(2, 9), Fraction(-7, 4)][:n],
                 [-3, 2, -1, 4][:n]]
        draws += [[Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(n)]
                  for _ in range(2)]
        for eps in draws:
            assert diagonal_spectrum(spec, eps).levels == _product_route_levels(spec, eps), \
                (spec, eps)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(Kind), st.integers(1, 4), st.integers(1, 5), st.data())
def test_diagonal_spectrum_matches_the_product_route_property(kind, n, p, data):
    spec = AlgebraSpec(kind, n, p)
    eps = data.draw(st.lists(st.fractions(-5, 5, max_denominator=12), min_size=n, max_size=n))
    assert diagonal_spectrum(spec, eps).levels == _product_route_levels(spec, eps)


def test_multiplicities_sum_to_dimension():
    for spec in small_grid(3, 3):
        eps = list(range(1, spec.n + 1))
        assert diagonal_spectrum(spec, eps).total_multiplicity == dimension(spec)


@pytest.mark.parametrize("kind, n, p, energies", [
    (Kind.BOSE, 3, 60, [Fraction(-1, 2), 3, Fraction(7, 3)]),
    (Kind.BOSE, 4, 12, [1, 1, 2, 2]),
    (Kind.FERMI, 14, 6, list(range(1, 15))),
], ids=["bose-3-60", "bose-4-12-repeated", "fermi-14-6"])
def test_diagonal_spectrum_equals_a_count_over_the_basis(kind, n, p, energies):
    # past the sizes the product route reaches: each basis vector's level, counted one by one
    spec = AlgebraSpec(kind, n, p)
    eps = [Fraction(e) for e in energies]
    counts = collections.Counter(sum(e * x for e, x in zip(eps, v)) * (p - sum(v) + 1) / p
                                 for v in FockSpace(spec).basis)
    assert diagonal_spectrum(spec, energies).levels == tuple(sorted(counts.items()))


def test_fermi_diagonal_spectrum_costs_nothing_in_a_loose_cap():
    # a Fermi cap past n binds nothing: the work is over the 2^n vectors, not over p
    p, energies = 10**7, [Fraction(-1, 2), 3, Fraction(7, 3)]
    counts = collections.Counter(sum(e * x for e, x in zip(energies, v)) * (p - sum(v) + 1) / p
                                 for v in itertools.product((0, 1), repeat=3))
    t0 = time.perf_counter()
    report = diagonal_spectrum(AlgebraSpec(Kind.FERMI, 3, p), energies)
    assert time.perf_counter() - t0 < 1.0
    assert report.levels == tuple(sorted(counts.items()))


def _ordinary_hopping(spec, i, j, v):
    """b_i^+ b_j |v> for the ordinary uncapped ladders in the unnormalized
    occupation basis, Fermi sign (-1)^(v_1+...+v_{m-1}) included, as {w: coefficient}."""
    fermi = spec.kind is Kind.FERMI
    coef = v[j - 1] * (-1) ** (fermi * sum(v[:j - 1]))
    w = bumped(v, j, -1)
    if not coef or (fermi and w[i - 1]):
        return {}
    return {bumped(w, i, +1): coef * (-1) ** (fermi * sum(w[:i - 1]))}


def test_ladder_products_are_the_ordinary_ones_scaled_per_grade():
    # the identity the quadratic spectrum rests on: on grade k, a_i^+ a_j^- = ((p-k+1)/p) b_i^+ b_j
    for spec in small_grid(3, 3):
        space = FockSpace(spec)
        for i, j in itertools.product(range(1, spec.n + 1), repeat=2):
            product = space.ladder(i, +1) @ space.ladder(j, -1)
            got = {(space.basis[r], space.basis[c]): x for (r, c), x in product.data.items()}
            want = {(w, v): Fraction(spec.p - sum(v) + 1, spec.p) * x
                    for v in brute_basis(spec)
                    for w, x in _ordinary_hopping(spec, i, j, v).items()}
            assert got == want, (spec, i, j)


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


def _clustered(values):
    """Sorted floats grouped wherever consecutive ones differ by more than
    CLUSTER_TOL; each level is its group's fsum mean and size."""
    groups = []
    for x in sorted(values):
        if not groups or x - groups[-1][-1] > models.CLUSTER_TOL:
            groups.append([])
        groups[-1].append(x)
    return [(math.fsum(group) / len(group), len(group)) for group in groups]


def _dict_of_keys_levels(spec, table):
    """The float spectrum with H summed as a SparseMatrix of the products and
    diagonalised densely: the oracle of the one-body reduction."""
    space = FockSpace(spec)
    dim = dimension(spec)
    h = SparseMatrix(dim, dim)
    for t, product in products(space, table, ORTHONORMAL):
        h = h + t * product.to_sparse()
    dense = np.zeros((dim, dim))
    for (r, c), v in h.data.items():
        dense[r, c] = v
    return _clustered(np.linalg.eigvalsh(dense).tolist())


def assert_levels_close(got, want):
    """Equal multiplicities, and values within SPECTRUM_TOL (the count at the
    eigenvalues of t and LAPACK on the whole matrix round differently)."""
    assert [m for _, m in got] == [m for _, m in want]
    assert max((abs(g - w) for (g, _), (w, _) in zip(got, want)), default=0.0) <= SPECTRUM_TOL


def _random_tables(rng, n, count):
    """count symmetric n x n tables drawn from rng; each entry zero, a small
    integer or uniform in [-2, 2], so diagonal, sparse and dense tables all occur."""
    tables = []
    for _ in range(count):
        table = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                table[i][j] = table[j][i] = rng.choice(
                    [0.0, float(rng.randint(-2, 2)), rng.uniform(-2, 2)])
        tables.append(table)
    return tables


@pytest.mark.parametrize("name", sorted(TABLES) + ["random"])
def test_quadratic_spectrum_matches_the_dict_of_keys_oracle(name):
    # "random": 4 seeded tables a spec, 72 over the grid
    rng = random.Random(26)
    for spec in small_grid(3, 3):
        tables = (_random_tables(rng, spec.n, 4) if name == "random"
                  else [TABLES[name](spec.n)])
        for table in tables:
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


def test_float_spectrum_allocates_no_dim_squared_array():
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


def test_hopping_spectrum_allocates_no_dim_squared_array():
    # dim 2925: one dense float matrix would take 68 MB; the largest grade block is 325^2
    spec = AlgebraSpec(Kind.BOSE, 3, 24)
    tracemalloc.start()
    try:
        report = quadratic_hamiltonian_spectrum(spec, TABLES["hopping"](3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert report.total_multiplicity == dimension(spec)


def test_hopping_spectrum_still_imports_numpy_and_matches_the_dense_oracle():
    # a table with an off-diagonal entry is the one thing that needs eigvalsh
    spec, table = AlgebraSpec(Kind.BOSE, 3, 3), TABLES["hopping"](3)
    src = os.path.dirname(os.path.dirname(os.path.abspath(models.__file__)))
    script = ("import json, sys; from fockcap import AlgebraSpec, Kind, "
              "quadratic_hamiltonian_spectrum as q; "
              f"levels = q(AlgebraSpec(Kind.BOSE, 3, 3), {table!r}).levels; "
              "assert 'numpy' in sys.modules; print(json.dumps(levels))")
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         check=True, capture_output=True, text=True).stdout
    assert_levels_close([tuple(level) for level in json.loads(out)],
                        _dict_of_keys_levels(spec, table))


def test_diagonal_levels_are_the_exact_levels_rounded_once():
    # no eigensolver on a diagonal table: where no two levels merge, each float
    # level is the exact diagonal_spectrum level, correctly rounded
    rng = random.Random(7)
    for kind, n, p in [(kind, n, p) for kind in Kind for n in (1, 2, 3, 4) for p in (1, 3, 5)]:
        spec = AlgebraSpec(kind, n, p)
        energies = [rng.choice([0.0, rng.uniform(-1e3, 1e3), float(rng.randint(-3, 3))])
                    for _ in range(n)]
        exact = diagonal_spectrum(spec, [Fraction(e) for e in energies]).levels
        assert all(b - a > models.CLUSTER_TOL for (a, _), (b, _) in zip(exact, exact[1:]))
        table = [[energies[i] if i == j else 0.0 for j in range(n)] for i in range(n)]
        got = quadratic_hamiltonian_spectrum(spec, table).levels
        assert [(repr(v), m) for v, m in got] == [(repr(float(v)), m) for v, m in exact], \
            (spec, energies)


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


def test_energy_count_validation():
    with pytest.raises(ValueError):
        diagonal_hamiltonian(B22, [1])
    for energies in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match=f"^expected 2 energies, got {len(energies)}$"):
            diagonal_spectrum(B22, energies)
