from fractions import Fraction
from math import factorial

import pytest

import fockcap
from fockcap import (AlgebraSpec, Kind, MonomialMatrix, dimension,
                     enumerate_basis, fock_space, normalize,
                     operator_json_payload)
from fockcap.operators import ORTHONORMAL, UNNORMALIZED, grade_diagonal

from conftest import small_grid

F21 = AlgebraSpec(Kind.FERMI, 2, 1)
F22 = AlgebraSpec(Kind.FERMI, 2, 2)
B22 = AlgebraSpec(Kind.BOSE, 2, 2)


def column_image(spec, op, v):
    """Decode op|v> into a dict occupation-vector -> coefficient."""
    col = fock_space(spec).index[v]
    basis = enumerate_basis(spec)
    return {basis[r]: val for (r, c), val in op.data.items() if c == col}


def test_creation_respects_the_cap():
    # total occupation already at the cap: creation gives zero
    op = fock_space(F21).ladder(2, +1)
    assert column_image(F21, op, (1, 0)) == {}


def test_creation_sign_from_preceding_modes():
    op = fock_space(F22).ladder(2, +1)
    assert column_image(F22, op, (1, 0)) == {(1, 1): Fraction(-1)}
    # no occupied mode in front: plain +1
    assert column_image(F22, fock_space(F22).ladder(1, +1), (0, 1)) == {(1, 1): Fraction(1)}


def test_bose_creation_is_unit_coefficient():
    spec = AlgebraSpec(Kind.BOSE, 1, 3)
    assert column_image(spec, fock_space(spec).ladder(1, +1), (2,)) == {(3,): Fraction(1)}


def test_annihilation_coefficients():
    # grade k = 2 at cap p = 2: coefficient (p-k+1)/p = 1/2
    op = fock_space(F22).ladder(1, -1)
    assert column_image(F22, op, (1, 1)) == {(0, 1): Fraction(1, 2)}
    spec = AlgebraSpec(Kind.BOSE, 1, 2)
    assert column_image(spec, fock_space(spec).ladder(1, -1), (2,)) == {(1,): Fraction(1)}


def test_annihilation_kills_vacuum():
    for spec in small_grid(3, 3):
        for i in range(1, spec.n + 1):
            assert column_image(spec, fock_space(spec).ladder(i, -1), (0,) * spec.n) == {}


def test_number_operator():
    spec = AlgebraSpec(Kind.FERMI, 3, 2)
    N = fock_space(spec).number()
    assert N.get(0, 0) == 0
    trace = sum(N.get(r, r) for r in range(dimension(spec)))
    assert trace == 9
    r = fock_space(B22).index[(1, 1)]
    assert fock_space(B22).number().get(r, r) == 2


def test_mode_index_validation():
    with pytest.raises(ValueError):
        fock_space(F21).ladder(0, +1)
    with pytest.raises(ValueError):
        fock_space(F21).ladder(3, -1)
    with pytest.raises(ValueError):
        fock_space(F21).ladder(True, +1)  # bool is an int subclass


def gram_entry(spec, v):
    """<v|v>, read from the Gram form of fock_space(spec)."""
    space = fock_space(spec)
    r = space.index[v]
    return space.gram.get(r, r)


def test_gram_closed_forms():
    # fermi, p=2, k=2: 2!/(2^2 0!) = 1/2
    assert gram_entry(F22, (1, 1)) == Fraction(1, 2)
    # bose, p=2, l=(2,0): 2!*2!/(2^2 0!) = 1
    assert gram_entry(B22, (2, 0)) == Fraction(1)
    for spec in small_grid(3, 3):
        assert gram_entry(spec, (0,) * spec.n) == 1
        for v in enumerate_basis(spec):
            k = sum(v)
            expected = Fraction(factorial(spec.p), spec.p ** k * factorial(spec.p - k))
            if spec.kind is Kind.BOSE:
                for x in v:
                    expected *= factorial(x)
            assert gram_entry(spec, v) == expected > 0


def test_gram_recurrence():
    # adding one quantum at grade k multiplies the norm by (p-k)/p (fermi)
    # resp. (l_i+1)(p-k)/p (bose)
    for spec in small_grid(3, 3):
        for v in enumerate_basis(spec):
            k = sum(v)
            if k == spec.p:
                continue
            for i in range(1, spec.n + 1):
                if spec.kind is Kind.FERMI and v[i - 1] == 1:
                    continue
                w = v[: i - 1] + (v[i - 1] + 1,) + v[i:]
                ratio = Fraction(spec.p - k, spec.p)
                if spec.kind is Kind.BOSE:
                    ratio *= v[i - 1] + 1
                assert gram_entry(spec, w) == gram_entry(spec, v) * ratio


def gram_from_matrix_elements(spec):
    """Independent oracle: <v|v> from vacuum expectation of ladder strings."""
    space = fock_space(spec)
    create = {i: space.ladder(i, +1) for i in range(1, spec.n + 1)}
    annihilate = {i: space.ladder(i, -1) for i in range(1, spec.n + 1)}
    values = []
    for v in enumerate_basis(spec):
        vec = {0: Fraction(1)}
        for i in range(spec.n, 0, -1):
            for _ in range(v[i - 1]):
                vec = create[i].apply(vec)
        for i in range(1, spec.n + 1):
            for _ in range(v[i - 1]):
                vec = annihilate[i].apply(vec)
        values.append(vec.get(0, Fraction(0)))
    return values


def test_gram_matches_matrix_element_oracle():
    for spec in small_grid(3, 3):
        gram = fock_space(spec).gram
        assert [gram.get(r, r) for r in range(dimension(spec))] == gram_from_matrix_elements(spec)


def test_adjoint_swaps_ladder_operators():
    # G diagonal and invertible: Y is the adjoint G^-1 X^T G of X iff X^T G = G Y
    for spec in small_grid(4, 4):
        space = fock_space(spec)
        G = space.gram
        for i in range(1, spec.n + 1):
            up, down = space.ladder(i, +1), space.ladder(i, -1)
            assert up.transpose() @ G == G @ down
            assert down.transpose() @ G == G @ up
        N = space.number()
        assert N.transpose() @ G == G @ N


def test_adjoint_requires_matching_tag():
    gram = fock_space(F21).gram
    with pytest.raises(ValueError, match="basis tag mismatch"):
        normalize(fock_space(F22).ladder(1, +1), gram)
    other = fock_space(AlgebraSpec(Kind.BOSE, 2, 1)).ladder(1, +1)
    assert other.shape == gram.shape
    with pytest.raises(ValueError, match="basis tag mismatch"):
        normalize(other, gram)
    with pytest.raises(ValueError, match="basis tag mismatch"):
        gram @ other


def test_number_commutators_exact():
    for spec in small_grid(3, 3):
        space = fock_space(spec)
        N = space.number()
        for i in range(1, spec.n + 1):
            up = space.ladder(i, +1)
            down = space.ladder(i, -1)
            assert (N @ up - up @ N - up).nnz == 0
            assert (N @ down - down @ N + down).nnz == 0


def test_normalized_vacuum_coefficients():
    spec = AlgebraSpec(Kind.FERMI, 1, 2)
    space = fock_space(spec)
    op = normalize(space.ladder(1, +1), space.gram)
    assert op.get(space.index[(1,)], space.index[(0,)]) == pytest.approx(1.0)
    spec = AlgebraSpec(Kind.BOSE, 1, 2)
    space = fock_space(spec)
    op = normalize(space.ladder(1, +1), space.gram)
    # sqrt(2*(2-1)/2) = 1 from the singly occupied state
    assert op.get(space.index[(2,)], space.index[(1,)]) == pytest.approx(1.0)


def test_normalize_keeps_diagonals():
    for spec in (F22, B22):
        space = fock_space(spec)
        N = space.number()
        N_norm = normalize(N, space.gram)
        for r in range(dimension(spec)):
            assert N_norm.get(r, r) == float(N.get(r, r))


def test_normalized_creation_column_norms():
    # squared column sum at a grade-k source: (p-k)/p (fermi, acting columns)
    # resp. (l_i+1)(p-k)/p (bose)
    for spec in small_grid(3, 3):
        space = fock_space(spec)
        basis = enumerate_basis(spec)
        for i in range(1, spec.n + 1):
            op = normalize(space.ladder(i, +1), space.gram)
            by_col = {}
            for (r, c), val in op.data.items():
                by_col.setdefault(c, 0.0)
                by_col[c] += val * val
            for c, sq in by_col.items():
                v = basis[c]
                k = sum(v)
                expected = (spec.p - k) / spec.p
                if spec.kind is Kind.BOSE:
                    expected *= v[i - 1] + 1
                assert sq == pytest.approx(expected, rel=1e-12)


def test_direct_orthonormal_build_matches_normalization():
    for spec in small_grid(3, 3):
        space = fock_space(spec)
        for i in range(1, spec.n + 1):
            via_gram = normalize(space.ladder(i, +1), space.gram)
            direct = space.ladder(i, +1, ORTHONORMAL)
            assert set(via_gram.data) == set(direct.data)
            for key, val in direct.data.items():
                assert via_gram.data[key] == pytest.approx(val, abs=1e-14)
            via_gram = normalize(space.ladder(i, -1), space.gram)
            direct = space.ladder(i, -1, ORTHONORMAL)
            for key, val in direct.data.items():
                assert via_gram.data[key] == pytest.approx(val, abs=1e-14)
    assert fock_space(F22).number(ORTHONORMAL).get(3, 3) == 2.0


def test_grade_block_structure():
    for spec in small_grid(3, 3):
        basis = enumerate_basis(spec)
        totals = [sum(v) for v in basis]
        space = fock_space(spec)
        for i in range(1, spec.n + 1):
            for (r, c), _ in space.ladder(i, +1).data.items():
                assert totals[r] == totals[c] + 1
            for (r, c), _ in space.ladder(i, -1).data.items():
                assert totals[r] == totals[c] - 1


def test_json_payload_schema():
    space = fock_space(F21)
    payload = operator_json_payload(space.ladder(1, +1))
    assert payload["spec"] == {"kind": "fermi", "n": 2, "p": 1}
    assert payload["basis"] == "graded-lex"
    assert payload["normalization"] == "unnormalized"
    assert payload["dims"] == [3, 3]
    assert payload["entries"] == [[2, 0, 1, 1]]
    norm = operator_json_payload(normalize(space.ladder(1, +1), space.gram))
    assert norm["normalization"] == "orthonormal"
    assert norm["entries"] == [[2, 0, 1.0]]


def test_json_payload_reads_spec_and_normalization_from_the_tag():
    payload = operator_json_payload(fock_space(F22).ladder(1, +1, ORTHONORMAL))
    assert payload["spec"] == {"kind": "fermi", "n": 2, "p": 2}
    assert payload["normalization"] == "orthonormal"
    assert payload["dims"] == [4, 4]


def test_json_payload_refuses_an_untagged_operator():
    for op in (MonomialMatrix(2, [1, -1], [1, 0]), MonomialMatrix(2, [1, -1], [0.5, 0.0])):
        with pytest.raises(ValueError, match="basis tag"):
            operator_json_payload(op)


def test_json_payload_refuses_float_entries_in_the_exact_basis():
    op = 1.0 * fock_space(F21).ladder(1, +1)  # a float scalar keeps the unnormalized tag
    assert op.tag.normalization == UNNORMALIZED
    with pytest.raises(ValueError, match="float entries in an operator tagged 'unnormalized'"):
        operator_json_payload(op)


def test_grade_diagonal_takes_its_tag_from_its_values():
    space = fock_space(F22)
    for func, normalization in ((lambda k: 1.0 - k / 2, ORTHONORMAL),
                                (lambda k: Fraction(1) - Fraction(k, 2), UNNORMALIZED),
                                (lambda k: k, UNNORMALIZED)):
        op = grade_diagonal(space, func)
        assert (op.tag.spec, op.tag.normalization) == (F22, normalization)
        assert [op.get(r, r) for r in range(op.rows)] == [func(k) for k in space.grades]


def test_grade_diagonal_calls_its_function_once_per_grade():
    spec = AlgebraSpec(Kind.BOSE, 3, 4)
    space = fock_space(spec)
    assert dimension(spec) > spec.p + 1
    calls = []

    def counting(k):
        calls.append(k)
        return Fraction(k, 3)

    op = grade_diagonal(space, counting)
    assert calls == list(range(spec.p + 1))
    assert [op.get(r, r) for r in range(op.rows)] == [Fraction(k, 3) for k in space.grades]


def test_removed_second_routes_are_gone():
    for name in ("max_entry_difference", "grand_partition", "mean_occupation", "GramForm",
                 "adjoint_wrt_gram", "gram_value", "rank", "unrank", "validate_vector"):
        assert not hasattr(fockcap, name)
    for name in ("rank", "unrank", "validate_vector", "_grade_count"):  # fock_space(spec).index
        assert not hasattr(fockcap.basis, name)
    for name in ("identity", "diagonal"):
        assert not hasattr(MonomialMatrix, name)
