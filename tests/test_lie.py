from fractions import Fraction

import pytest

from fockcap import (AlgebraSpec, Kind, check_adjoint_action, check_branching,
                     check_gl_commutators, check_identification,
                     diagonal_action_value, dimension, enumerate_basis,
                     extended_rescaled_generators, fock_space, run_lie_suite)

F21 = AlgebraSpec(Kind.FERMI, 2, 1)
F22 = AlgebraSpec(Kind.FERMI, 2, 2)
B22 = AlgebraSpec(Kind.BOSE, 2, 2)


def test_diagonal_generator_eigenvalues():
    e11 = fock_space(F22).bilinear(1, 1)
    r = fock_space(F22).index[(1, 0)]
    assert e11.get(r, r) == 2            # p - |v| + v_1 = 2 - 1 + 1
    e11 = fock_space(B22).bilinear(1, 1)
    r = fock_space(B22).index[(1, 1)]
    assert e11.get(r, r) == 1            # v_1 + |v| - p = 1 + 2 - 2


def test_diagonal_generator_on_vacuum():
    # fermi: p - 0 + 0 = p; bose: 0 + 0 - p = -p
    assert fock_space(F22).bilinear(1, 1).get(0, 0) == 2
    assert fock_space(B22).bilinear(1, 1).get(0, 0) == -2
    # off-diagonal generators kill the vacuum
    assert fock_space(F22).bilinear(1, 2).apply({0: Fraction(1)}) == {}


def test_diagonal_action_values_match_matrices():
    for spec in (F22, B22, AlgebraSpec(Kind.BOSE, 3, 2)):
        basis = enumerate_basis(spec)
        for i in range(1, spec.n + 1):
            eii = fock_space(spec).bilinear(i, i)
            for r, v in enumerate(basis):
                assert eii.get(r, r) == diagonal_action_value(spec, v, i)


def test_gl_commutator_frozen_example():
    # [e_12, e_21] = e_11 - e_22 on the 3-dimensional fermi space
    e12 = fock_space(F21).bilinear(1, 2)
    e21 = fock_space(F21).bilinear(2, 1)
    lhs = e12 @ e21 - e21 @ e12
    rhs = fock_space(F21).bilinear(1, 1) - fock_space(F21).bilinear(2, 2)
    assert lhs == rhs
    # commutator of a generator with itself vanishes
    assert (e12 @ e12 - e12 @ e12).nnz == 0


def test_gl_commutators_exhaustive():
    for spec in (F21, B22, AlgebraSpec(Kind.BOSE, 3, 2), AlgebraSpec(Kind.FERMI, 3, 2)):
        reports = check_gl_commutators(spec)
        assert len(reports) == spec.n ** 4
        for rep in reports:
            assert rep.residual == 0, (rep.indices, rep.residual)


def test_adjoint_action_frozen_examples():
    # [e_12, a_2^+] = a_1^+ for fermions
    e12 = fock_space(F22).bilinear(1, 2)
    up1, up2 = fock_space(F22).ladder(1, +1), fock_space(F22).ladder(2, +1)
    assert e12 @ up2 - up2 @ e12 == up1
    # [e_11, a_1^+] = 2 a_1^+ for bosons, zero for fermions
    e11 = fock_space(B22).bilinear(1, 1)
    up = fock_space(B22).ladder(1, +1)
    assert e11 @ up - up @ e11 == 2 * up
    e11 = fock_space(F22).bilinear(1, 1)
    up = fock_space(F22).ladder(1, +1)
    assert (e11 @ up - up @ e11).nnz == 0


def test_adjoint_action_exhaustive():
    for spec in (F22, B22, AlgebraSpec(Kind.FERMI, 3, 2)):
        for rep in check_adjoint_action(spec):
            assert rep.residual == 0, (rep.relation, rep.indices)


def test_extended_generators_bracket_examples():
    # {E_10, E_01} = E_11 + E_00 for fermions, in the p-rescaled exact form
    table = extended_rescaled_generators(F22)
    lhs = table[(1, 0)] @ table[(0, 1)] + table[(0, 1)] @ table[(1, 0)]
    rhs = F22.p * (table[(1, 1)] + table[(0, 0)])
    assert lhs == rhs
    # [E_10, E_01] = E_11 - E_00 for bosons
    table = extended_rescaled_generators(B22)
    lhs = table[(1, 0)] @ table[(0, 1)] - table[(0, 1)] @ table[(1, 0)]
    rhs = B22.p * (table[(1, 1)] - table[(0, 0)])
    assert lhs == rhs


def test_identity_resolution():
    for spec in (F22, B22):
        table = extended_rescaled_generators(spec)
        total = table[(0, 0)]
        for i in range(1, spec.n + 1):
            total = total + table[(i, i)]
        from fockcap.sparse import SparseMatrix
        dim = dimension(spec)
        assert total == SparseMatrix(dim, dim, {(r, r): spec.p for r in range(dim)}, total.tag)


def test_identification_suite():
    for spec in (F21, F22, B22, AlgebraSpec(Kind.BOSE, 2, 3)):
        for rep in check_identification(spec):
            assert rep.passed, (rep.relation, rep.indices, rep.residual, rep.backend)


def test_highest_weight_vacuum():
    for spec in (F22, B22):
        table = extended_rescaled_generators(spec)
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
        table = extended_rescaled_generators(spec)
        for r, v in enumerate(enumerate_basis(spec)):
            weight = weight_vector(spec, v)
            assert table[(0, 0)].get(r, r) == weight[0]
            for i in range(1, spec.n + 1):
                assert table[(i, i)].get(r, r) == weight[i]


def test_branching_structure():
    for spec in (AlgebraSpec(Kind.FERMI, 4, 2), B22, AlgebraSpec(Kind.BOSE, 3, 3)):
        for rep in check_branching(spec):
            assert rep.passed, (rep.relation, rep.indices, rep.residual)


def test_branching_block_dims_counts_the_enumeration(monkeypatch, fresh_spaces):
    from fockcap import operators
    spec = AlgebraSpec(Kind.BOSE, 2, 3)

    def block_dims(reports):
        return next(rep for rep in reports if rep.relation == "branching-block-dims")

    assert block_dims(check_branching(spec)).passed
    original = operators.enumerate_basis
    monkeypatch.setattr(operators, "enumerate_basis",
                        lambda s: original(s)[:-1])  # top block one short
    operators.fock_space.cache_clear()
    assert not block_dims(check_branching(spec)).passed


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
        fock_space(F21).bilinear(0, 1)
    with pytest.raises(ValueError):
        fock_space(F21).bilinear(1, 5)
