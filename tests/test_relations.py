import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fockcap import (AlgebraSpec, FockSpace, Kind, check_backend_agreement, check_cap,
                     check_classical_limit, check_hermiticity, check_mixed,
                     check_number, check_pp, check_vacuum_cyclic, run_grid,
                     run_suite)
from fockcap.operators import UNNORMALIZED, grade_diagonal
from fockcap.relations import EXACT, FLOAT, FLOAT_TOL, RelationReport
from fockcap.sparse import SparseMatrix

from conftest import gram_matrix, one_vector_runs, small_grid


def test_exact_suite_spot_specs():
    for spec in (AlgebraSpec(Kind.FERMI, 2, 1), AlgebraSpec(Kind.BOSE, 2, 2),
                 AlgebraSpec(Kind.FERMI, 3, 3), AlgebraSpec(Kind.BOSE, 1, 4)):
        for rep in run_suite(spec, EXACT):
            assert rep.passed, (rep.relation, rep.indices, rep.residual)
            assert rep.residual == 0


def test_pp_reports_cover_all_pairs():
    spec = AlgebraSpec(Kind.BOSE, 3, 2)
    reports = check_pp(FockSpace(spec))
    pairs = {(rep.relation, rep.indices) for rep in reports}
    assert len(pairs) == 2 * 6  # i <= j over 3 modes, both ladder families
    assert all(rep.residual == 0 for rep in reports)


def test_fermi_creation_squares_to_zero():
    spec = AlgebraSpec(Kind.FERMI, 2, 2)
    up = FockSpace(spec).ladder(1, +1)
    assert (up @ up).nnz == 0


def test_mixed_relation_off_diagonal_pairs():
    spec = AlgebraSpec(Kind.BOSE, 2, 3)
    for rep in check_mixed(FockSpace(spec)):
        assert rep.residual == 0


@pytest.mark.parametrize("spec", [AlgebraSpec(Kind.BOSE, 2, 3), AlgebraSpec(Kind.FERMI, 3, 2)],
                         ids=lambda spec: f"{spec.kind.value}-{spec.n}-{spec.p}")
def test_mixed_relation_residuals_are_those_of_the_per_pair_products(monkeypatch, spec):
    # check_mixed forms c_upper a_i^- and c_lower a_j^+ once per mode; exact
    # products associate, so wrong ladders, a dict-of-keys one among them, give
    # the residuals of the products formed pair by pair
    ladder = FockSpace.ladder

    def wrong(self, i, delta, normalization=UNNORMALIZED):
        op = ladder(self, i, delta, normalization)
        if (i, delta) == (1, -1):
            return 2 * op
        if (i, delta) == (2, +1):
            return op.to_sparse() + SparseMatrix(op.rows, op.cols, {(0, 0): Fraction(1)}, op.tag)
        return op

    monkeypatch.setattr(FockSpace, "ladder", wrong)
    space, p, sign = FockSpace(spec), spec.p, -spec.kind.sign
    c_upper = grade_diagonal(space, lambda k: Fraction(1) - Fraction(k - 1, p))
    c_lower = grade_diagonal(space, lambda k: Fraction(1) - Fraction(k, p))
    reports = check_mixed(space)
    for rep in reports:
        i, j = rep.indices
        down, up = space.ladder(i, -1), space.ladder(j, +1)
        lhs = c_upper @ (down @ up) + sign * (c_lower @ (up @ down))
        assert rep.residual == (lhs - c_lower @ c_upper if i == j else lhs).max_abs()
    assert sum(rep.residual != 0 for rep in reports) >= 2


def test_mixed_relation_detects_wrong_cap():
    # same matrices checked against the relation for a different p must fail
    spec = AlgebraSpec(Kind.BOSE, 1, 3)
    space = FockSpace(spec)
    up = space.ladder(1, +1)
    down = space.ladder(1, -1)
    wrong_p = 2
    from fockcap.operators import grade_diagonal
    c_upper = grade_diagonal(space, lambda k: Fraction(1) - Fraction(k - 1, wrong_p))
    c_lower = grade_diagonal(space, lambda k: Fraction(1) - Fraction(k, wrong_p))
    expr = c_upper @ (down @ up) - c_lower @ (up @ down) - c_lower @ c_upper
    assert expr.nnz > 0


def test_number_relation_and_multiplicities():
    for spec in small_grid(3, 3):
        for rep in check_number(FockSpace(spec)):
            assert rep.passed


@pytest.mark.parametrize("spec", [AlgebraSpec(Kind.BOSE, 2, 3), AlgebraSpec(Kind.FERMI, 3, 2),
                                  AlgebraSpec(Kind.BOSE, 3, 2)])
def test_number_multiplicity_fails_for_a_repeated_last_vector(monkeypatch, spec):
    # no ladder reaches the copy of the last top-grade vector and every grade's
    # closed-form rank range still reads its k; only the count of vectors differs
    from fockcap import operators
    monkeypatch.setattr(operators, "iter_runs", lambda s: one_vector_runs(s, lambda b: b + b[-1:]))
    failed = {rep.relation for rep in run_suite(spec, EXACT) if not rep.passed}
    assert failed == {"number-multiplicity"}


def test_cap_reports():
    spec = AlgebraSpec(Kind.FERMI, 3, 2)
    for rep in check_cap(FockSpace(spec)):
        assert rep.residual == 0
    # cap 1 forbids two quanta outright
    spec = AlgebraSpec(Kind.BOSE, 1, 1)
    up = FockSpace(spec).ladder(1, +1)
    assert (up @ up).nnz == 0


def test_hermiticity_exact_and_float():
    # the float suite holds the exact hermiticity reports, not a float copy of them
    spec = AlgebraSpec(Kind.BOSE, 2, 3)
    reports = check_hermiticity(FockSpace(spec))
    assert all(rep.residual == 0 and rep.backend == EXACT for rep in reports)
    assert set(reports) <= set(run_suite(spec, FLOAT))


def test_vacuum_cyclic_rank_is_full():
    for spec in small_grid(3, 3):
        rep = check_vacuum_cyclic(FockSpace(spec))
        assert rep.passed and rep.residual == 0


def test_float_backend_suite():
    # the float suite is the exact suite plus the 2n orthonormal agreement checks
    # of the ladders: conjugation by the diagonal square roots of G keeps every relation
    for spec in (AlgebraSpec(Kind.FERMI, 3, 2), AlgebraSpec(Kind.BOSE, 2, 4)):
        reports = run_suite(spec, FLOAT)
        assert reports == sorted(run_suite(spec, EXACT) + check_backend_agreement(FockSpace(spec)),
                                 key=RelationReport.sort_key)
        assert len(reports) == 2 * spec.n ** 2 + 9 * spec.n + 3
        for rep in reports:
            assert rep.passed, (rep.relation, rep.indices, rep.residual)
            assert float(rep.residual) <= FLOAT_TOL
        with pytest.raises(ValueError, match="unknown backend"):
            run_suite(spec, "orthonormal")


def test_vacuum_cyclic_fails_without_creation_operators(monkeypatch):
    from fockcap import dimension, operators
    original = operators._ladder_matrix

    def no_creation(space, i, delta, normalization):
        op = original(space, i, delta, normalization)
        return 0 * op if delta > 0 else op

    monkeypatch.setattr(operators, "_ladder_matrix", no_creation)
    spec = AlgebraSpec(Kind.BOSE, 2, 3)
    rep = check_vacuum_cyclic(FockSpace(spec))
    assert not rep.passed and rep.residual == dimension(spec) - 1


@pytest.mark.parametrize("spec", [AlgebraSpec(Kind.BOSE, 2, 3), AlgebraSpec(Kind.FERMI, 3, 2)])
def test_hermiticity_fails_for_a_doubled_annihilation_only(monkeypatch, spec):
    from fockcap import operators
    space = FockSpace(spec)
    expected = space.ladder(1, -1).max_abs()
    original = operators._ladder_matrix

    def doubled(space, i, delta, normalization):
        op = original(space, i, delta, normalization)
        return 2 * op if (i, delta) == (1, -1) else op

    monkeypatch.setattr(operators, "_ladder_matrix", doubled)
    reports = check_hermiticity(FockSpace(spec))
    failed = [(rep.relation, rep.indices) for rep in reports if not rep.passed]
    assert failed == [("adjoint-is-annihilation", (1,))]
    # the adjoint's defect: G^-1 (a_1^+)^T G - 2 a_1^- = -a_1^-
    assert reports[0].residual == expected > 0


def extra_entry(op):
    """op as a dict-of-keys matrix with one more, small, entry on the diagonal
    at e_1 (rank n, the last vector of grade 1): column e_1 of a_2^+ then
    holds two entries with different Gram ratios, 1 and
    G(e_1 + e_2)/G(e_1) = (p - 1)/p, so a ratio taken per column shows."""
    n = op.tag.spec.n
    return op.to_sparse() + SparseMatrix(op.rows, op.cols, {(n, n): Fraction(1, 7)}, op.tag)


@pytest.mark.parametrize("wrong", [extra_entry, lambda op: 3 * op],
                         ids=["two-in-a-column", "tripled"])
@pytest.mark.parametrize("spec", [AlgebraSpec(Kind.BOSE, 2, 3), AlgebraSpec(Kind.FERMI, 3, 2)],
                         ids=lambda spec: f"{spec.kind.value}-{spec.n}-{spec.p}")
def test_hermiticity_residual_is_the_oracle_gram_defect(monkeypatch, spec, wrong):
    # a wrong a_2^+, monomial or not: the residual is the largest entry of
    # G^-1 (X^T G - G Y), formed with the oracle Gram matrix
    ladder = FockSpace.ladder

    def wrong_ladder(self, i, delta, normalization=UNNORMALIZED):
        op = ladder(self, i, delta, normalization)
        return wrong(op) if (i, delta) == (2, +1) else op

    monkeypatch.setattr(FockSpace, "ladder", wrong_ladder)
    space = FockSpace(spec)
    assert space.basis[spec.n] == (1,) + (0,) * (spec.n - 1)
    G = gram_matrix(space).to_sparse()
    G_inv = G.map_entries(lambda r, c, g: 1 / g, G.tag)
    reports = {rep.indices: rep for rep in check_hermiticity(space)}
    for i in range(1, spec.n + 1):
        X, Y = (SparseMatrix(op.rows, op.cols, op.data, op.tag)
                for op in (space.ladder(i, +1), space.ladder(i, -1)))
        expected = (G_inv @ (X.transpose() @ G - G @ Y)).max_abs()
        assert reports[(i,)].residual == expected
        assert reports[(i,)].passed == (i != 2)


def test_backend_agreement():
    for spec in small_grid(3, 3):
        for rep in check_backend_agreement(FockSpace(spec)):
            assert rep.passed


def test_grid_runner_shape():
    reports = run_grid(2, 2, EXACT)
    specs = {(rep.spec.kind, rep.spec.n, rep.spec.p) for rep in reports}
    assert len(specs) == 8
    assert all(rep.passed for rep in reports)
    keys = [rep.sort_key() for rep in reports]
    assert keys == sorted(keys)


def test_report_serialization():
    rep = run_suite(AlgebraSpec(Kind.FERMI, 1, 1), EXACT)[0]
    payload = rep.as_dict()
    assert payload["kind"] == "fermi" and payload["pass"] is True
    assert payload["residual"] == "0"
    rep = check_backend_agreement(FockSpace(AlgebraSpec(Kind.FERMI, 1, 1)))[0]
    payload = rep.as_dict()
    assert payload["backend"] == FLOAT and isinstance(payload["residual"], float)


@given(st.sampled_from(["fermi", "bose"]), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 3), st.integers(1, 3))
def test_mixed_relation_property(kind, n, p, i, j):
    spec = AlgebraSpec(Kind(kind), n, p)
    i = 1 + (i - 1) % n
    j = 1 + (j - 1) % n
    reports = {rep.indices: rep for rep in check_mixed(FockSpace(spec))}
    assert reports[(i, j)].residual == 0


def test_classical_limit_boseding_values():
    report = check_classical_limit(Kind.BOSE, 1, 2, [10, 100, 1000])
    assert report.passed
    # deviation at p=100 is sqrt(2) - sqrt(2*99/100)
    assert report.deviations[1] == pytest.approx(
        math.sqrt(2) - math.sqrt(2 * 99 / 100), abs=1e-15)
    assert report.deviations[1] == pytest.approx(0.0071, abs=2e-4)
    assert all(d <= 6 / p for d, p in zip(report.deviations, report.p_values))
    assert report.deviations[0] > report.deviations[1] > report.deviations[2]


def test_classical_limit_fermi_grade_zero_is_exact():
    # the lowest creation coefficient is exactly 1, so a window of 1 shows
    # zero deviation for fermions at any cap
    report = check_classical_limit(Kind.FERMI, 2, 1, [10, 100])
    assert report.deviations == (0.0, 0.0)
    assert report.passed


def test_classical_limit_argument_validation():
    with pytest.raises(ValueError):
        check_classical_limit(Kind.BOSE, 1, 10, [10, 100])
    with pytest.raises(ValueError):
        check_classical_limit(Kind.BOSE, 1, 2, [100, 10])
    with pytest.raises(ValueError):
        check_classical_limit(Kind.BOSE, 1, 0, [10])
    with pytest.raises(ValueError):
        check_classical_limit(Kind.BOSE, 1, 2, [])


def test_classical_limit_builds_no_space(built_spaces):
    # the deviation reads only the pairs (v_i, |v|) of the window's vectors
    for kind in (Kind.FERMI, Kind.BOSE):
        assert check_classical_limit(kind, 3, 3, [4, 10, 100]).passed
    assert built_spaces == []


def test_classical_limit_serialization():
    report = check_classical_limit(Kind.FERMI, 2, 2, [10, 100])
    payload = report.as_dict()
    assert payload["kind"] == "fermi"
    assert payload["pass"] is True
    assert len(payload["deviations"]) == 2


def test_window_deviation_reads_the_orthonormal_ladders():
    # the same gap, taken from every entry of the shipped orthonormal ladders
    # between window states: u is the state of the pair that holds more quanta
    from fockcap.operators import ORTHONORMAL
    from fockcap.relations import _window_deviation
    window = 2
    for kind in (Kind.FERMI, Kind.BOSE):
        for n in range(1, 4):
            for p in range(3, 7):
                space = FockSpace(AlgebraSpec(kind, n, p))
                expected = 0.0
                for i in range(1, n + 1):
                    for delta in (+1, -1):
                        for (r, c), x in space.ladder(i, delta, ORTHONORMAL).data.items():
                            u = space.basis[r if delta > 0 else c]
                            if sum(u) <= window:
                                expected = max(expected, abs(abs(x) - math.sqrt(u[i - 1])))
                assert _window_deviation(kind, n, window, p) == expected
