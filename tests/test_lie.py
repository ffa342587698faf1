from fractions import Fraction

import pytest

from fockcap import (AlgebraSpec, FockSpace, Kind, check_adjoint_action, check_branching,
                     check_gl_commutators, check_identification, cli,
                     diagonal_action_value, dimension, extended_rescaled_generators,
                     operators, run_lie_suite)
from fockcap.operators import ORTHONORMAL, grade_diagonal
from fockcap.sparse import MonomialMatrix

from conftest import bumped, one_vector_runs, rank_map, stepped

F21 = AlgebraSpec(Kind.FERMI, 2, 1)
F22 = AlgebraSpec(Kind.FERMI, 2, 2)
B22 = AlgebraSpec(Kind.BOSE, 2, 2)


def test_diagonal_generator_eigenvalues():
    space = FockSpace(F22)
    r = rank_map(space)[(1, 0)]
    assert space.bilinear(1, 1).get(r, r) == 2  # p - |v| + v_1 = 2 - 1 + 1
    space = FockSpace(B22)
    r = rank_map(space)[(1, 1)]
    assert space.bilinear(1, 1).get(r, r) == 1  # v_1 + |v| - p = 1 + 2 - 2


def test_diagonal_generator_on_vacuum():
    # fermi: p - 0 + 0 = p; bose: 0 + 0 - p = -p
    assert FockSpace(F22).bilinear(1, 1).get(0, 0) == 2
    assert FockSpace(B22).bilinear(1, 1).get(0, 0) == -2
    # off-diagonal generators kill the vacuum
    assert FockSpace(F22).bilinear(1, 2).apply({0: Fraction(1)}) == {}


def test_diagonal_action_values_match_matrices():
    for spec in (F22, B22, AlgebraSpec(Kind.BOSE, 3, 2)):
        space = FockSpace(spec)
        basis = space.basis
        for i in range(1, spec.n + 1):
            eii = space.bilinear(i, i)
            for r, v in enumerate(basis):
                assert eii.get(r, r) == diagonal_action_value(spec, v, i)


def test_gl_commutator_frozen_example():
    # [e_12, e_21] = e_11 - e_22 on the 3-dimensional fermi space
    e = FockSpace(F21).bilinear
    e12, e21 = e(1, 2), e(2, 1)
    lhs = e12 @ e21 - e21 @ e12
    rhs = e(1, 1) - e(2, 2)
    assert lhs == rhs
    # commutator of a generator with itself vanishes
    assert (e12 @ e12 - e12 @ e12).nnz == 0


def test_gl_commutators_exhaustive():
    for spec in (F21, B22, AlgebraSpec(Kind.BOSE, 3, 2), AlgebraSpec(Kind.FERMI, 3, 2)):
        reports = check_gl_commutators(FockSpace(spec))
        assert len(reports) == spec.n ** 4
        for rep in reports:
            assert rep.residual == 0, (rep.indices, rep.residual)


def test_adjoint_action_frozen_examples():
    # [e_12, a_2^+] = a_1^+ for fermions
    fermi, bose = FockSpace(F22), FockSpace(B22)
    e12 = fermi.bilinear(1, 2)
    up1, up2 = fermi.ladder(1, +1), fermi.ladder(2, +1)
    assert e12 @ up2 - up2 @ e12 == up1
    # [e_11, a_1^+] = 2 a_1^+ for bosons, zero for fermions
    e11, up = bose.bilinear(1, 1), bose.ladder(1, +1)
    assert e11 @ up - up @ e11 == 2 * up
    e11 = fermi.bilinear(1, 1)
    assert (e11 @ up1 - up1 @ e11).nnz == 0


def test_adjoint_action_exhaustive():
    for spec in (F22, B22, AlgebraSpec(Kind.FERMI, 3, 2)):
        for rep in check_adjoint_action(FockSpace(spec)):
            assert rep.residual == 0, (rep.relation, rep.indices)


def _three_wrong_ladders(monkeypatch):
    """a_1^+ steps v to v + e_2 (its coefficients still those of mode 1), a_2^-
    is tripled and a_2^+ steps v to v + e_1 + e_2, in both normalizations.  The
    first two keep the grade step, so only the last breaks [E_00, a^pm] = -+a^pm."""
    original = operators._ladder_matrix

    def faulty(space, i, delta, normalization):
        op = original(space, i, delta, normalization)
        if (i, delta) == (1, +1):
            return stepped(space, op, lambda v: bumped(v, 2, +1))
        if (i, delta) == (2, +1):
            return stepped(space, op, lambda v: bumped(bumped(v, 1, +1), 2, +1))
        return 3 * op if (i, delta) == (2, -1) else op

    monkeypatch.setattr(operators, "_ladder_matrix", faulty)


@pytest.mark.parametrize("spec", [AlgebraSpec(Kind.BOSE, 2, 3), AlgebraSpec(Kind.FERMI, 3, 2),
                                  AlgebraSpec(Kind.BOSE, 3, 2)],
                         ids=lambda spec: f"{spec.kind.value}-{spec.n}-{spec.p}")
def test_failing_ladder_residuals_are_those_of_the_paper_expressions(monkeypatch, spec):
    # each residual is the max |entry| of the relation's defect, formed here from the
    # (wrong) ladders, the e_ij built from them and E_00 = p*Id - N
    _three_wrong_ladders(monkeypatch)
    space = FockSpace(spec)
    s, idx, e = spec.kind.sign, range(1, spec.n + 1), space.bilinear
    up = {k: space.ladder(k, +1) for k in idx}
    down = {k: space.ladder(k, -1) for k in idx}
    e00 = grade_diagonal(space, lambda k: spec.p - k)

    def commutator(x, y):
        return x @ y - y @ x

    def d(a, b):
        return int(a == b)

    expected = {}
    for i in idx:
        expected["root-ladder-plus", (i,)] = commutator(e00, up[i]) + up[i]
        expected["root-ladder-minus", (i,)] = commutator(e00, down[i]) - down[i]
        for j in idx:
            for k in idx:
                expected["ladder-adjoint-plus", (i, j, k)] = (
                    commutator(e(i, j), up[k]) - d(j, k) * up[i] - s * d(i, j) * up[k])
                expected["ladder-adjoint-minus", (i, j, k)] = (
                    commutator(e(i, j), down[k]) + d(i, k) * down[j] + s * d(i, j) * down[k])
    relations = {relation for relation, _ in expected}
    got = {(rep.relation, rep.indices): rep.residual
           for rep in check_adjoint_action(space) + check_identification(space)
           if rep.relation in relations}
    assert got == {key: expr.max_abs() for key, expr in expected.items()}
    for family in ("ladder-adjoint", "root-ladder"):
        assert any(res for (relation, _), res in got.items() if relation.startswith(family))


def test_extended_generators_bracket_examples():
    # {E_10, E_01} = E_11 + E_00 for fermions, in the p-rescaled exact form
    table = extended_rescaled_generators(FockSpace(F22))
    lhs = table[(1, 0)] @ table[(0, 1)] + table[(0, 1)] @ table[(1, 0)]
    rhs = F22.p * (table[(1, 1)] + table[(0, 0)])
    assert lhs == rhs
    # [E_10, E_01] = E_11 - E_00 for bosons
    table = extended_rescaled_generators(FockSpace(B22))
    lhs = table[(1, 0)] @ table[(0, 1)] - table[(0, 1)] @ table[(1, 0)]
    rhs = B22.p * (table[(1, 1)] - table[(0, 0)])
    assert lhs == rhs


def test_identity_resolution():
    for spec in (F22, B22):
        table = extended_rescaled_generators(FockSpace(spec))
        total = table[(0, 0)]
        for i in range(1, spec.n + 1):
            total = total + table[(i, i)]
        from fockcap.sparse import SparseMatrix
        dim = dimension(spec)
        assert total == SparseMatrix(dim, dim, {(r, r): spec.p for r in range(dim)}, total.tag)


def test_identification_suite():
    for spec in (F21, F22, B22, AlgebraSpec(Kind.BOSE, 2, 3)):
        for rep in check_identification(FockSpace(spec)):
            assert rep.passed, (rep.relation, rep.indices, rep.residual, rep.backend)


def test_highest_weight_vacuum():
    for spec in (F22, B22):
        table = extended_rescaled_generators(FockSpace(spec))
        vac = {0: Fraction(1)}
        assert table[(0, 0)].apply(vac) == {0: Fraction(spec.p)}
        for i in range(1, spec.n + 1):
            assert table[(i, i)].apply(vac) == {}


def test_weight_vector_coordinates():
    from fockcap import weight_vector
    assert weight_vector(F22, (0, 0)) == (2, 0, 0)
    assert weight_vector(B22, (1, 1)) == (0, 1, 1)
    # coordinates are the joint eigenvalues of the diagonal generators,
    # adjoined direction first
    for spec in (F22, B22, AlgebraSpec(Kind.BOSE, 3, 2)):
        space = FockSpace(spec)
        table = extended_rescaled_generators(space)
        for r, v in enumerate(space.basis):
            weight = weight_vector(spec, v)
            assert table[(0, 0)].get(r, r) == weight[0]
            for i in range(1, spec.n + 1):
                assert table[(i, i)].get(r, r) == weight[i]


def test_branching_structure():
    for spec in (AlgebraSpec(Kind.FERMI, 4, 2), B22, AlgebraSpec(Kind.BOSE, 3, 3)):
        for rep in check_branching(FockSpace(spec)):
            assert rep.passed, (rep.relation, rep.indices, rep.residual)


def test_branching_block_dims_counts_the_enumeration(monkeypatch):
    from fockcap import operators
    spec = AlgebraSpec(Kind.BOSE, 2, 3)

    def block_dims(reports):
        return next(rep for rep in reports if rep.relation == "branching-block-dims")

    assert block_dims(check_branching(FockSpace(spec))).passed
    # top block one short
    monkeypatch.setattr(operators, "iter_runs", lambda s: one_vector_runs(s, lambda b: b[:-1]))
    assert not block_dims(check_branching(FockSpace(spec))).passed


def test_branching_frozen_blocks():
    from fockcap import graded_dimensions
    assert graded_dimensions(AlgebraSpec(Kind.FERMI, 4, 2)) == [1, 4, 6]
    assert graded_dimensions(B22) == [1, 2, 3]


def test_lie_suite_all_and_subsets():
    reports_all = run_lie_suite(F21, "all")
    assert all(rep.passed for rep in reports_all)
    brackets = run_lie_suite(F21, "brackets")
    assert {rep.relation for rep in brackets} <= {
        "gl-commutator", "ladder-adjoint-plus", "ladder-adjoint-minus"}
    with pytest.raises(ValueError):
        run_lie_suite(F21, "nonsense")


def test_gl_generator_index_validation():
    with pytest.raises(ValueError):
        FockSpace(F21).bilinear(0, 1)
    with pytest.raises(ValueError):
        FockSpace(F21).bilinear(1, 5)


@pytest.mark.parametrize("kind, n, p", [("bose", 1, 100), ("bose", 2, 90), ("fermi", 2, 600)])
def test_float_brackets_pass_where_their_entries_grow_like_p(capsys, kind, n, p):
    # E_00 reaches p and sqrt(p) a^pm about p/2, so a product entry carries a
    # rounding error of about eps p^2, past the absolute 1e-12 at these caps
    assert cli.main(["lie", "--kind", kind, "--n", str(n), "--p", str(p)]) == 0
    assert "[ok]" in capsys.readouterr().out


def test_float_brackets_catch_a_relative_1e9_error_in_one_ladder_entry(monkeypatch):
    original = operators._ladder_matrix

    def faulty(space, i, delta, normalization):
        op = original(space, i, delta, normalization)
        if normalization != ORTHONORMAL or delta < 0:
            return op
        coefs = op.coef[:-1]
        largest = max(range(len(coefs)), key=lambda c: abs(coefs[c]))
        coefs[largest] *= 1 + 1e-9
        return MonomialMatrix(op.rows, op.target[:-1], coefs, op.denom, op.tag)

    monkeypatch.setattr(operators, "_ladder_matrix", faulty)
    reports = [rep for rep in check_identification(FockSpace(AlgebraSpec(Kind.BOSE, 1, 1000)))
               if rep.relation == "extended-bracket-float"]
    failed = [rep for rep in reports if not rep.passed]
    assert len(reports) == 16
    assert [rep.indices for rep in failed] == [(0, 1, 1, 0), (1, 0, 0, 1)]
    assert all(rep.residual > 1e-4 for rep in failed)
