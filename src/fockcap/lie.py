"""Bilinear generators and the gl(1|n) / gl(1+n) structure of the Fock space.

The rescaled bilinears

    e_ij = p * {a_i^+, a_j^-}   (Fermi)      e_ij = p * [a_i^+, a_j^-]   (Bose)

close on the gl(n) commutation relations when acting in the Fock space, and
extend to a basis of gl(1|n) (Fermi) resp. gl(1+n) (Bose) once a zeroth index
is adjoined:

    E_00 = p*Id - N,   E_i0 ~ sqrt(p) a_i^+,   E_0i ~ sqrt(p) a_i^-,
    E_ii = e_ii - E_00 (Fermi) / e_ii + E_00 (Bose),   E_ij = e_ij (i != j).

sqrt(p) is irrational for general p, so the exact backend verifies the
bracket table with the odd/crossing generators rescaled by a further sqrt(p)
(i.e. p * a_i^pm), which multiplies the right side of any bracket of two
crossing generators by p and leaves every other bracket untouched.  The
float backend verifies the literal sqrt(p)-scaled table on the orthonormal
basis.  The vacuum is a highest-weight vector of weight (p; 0, ..., 0).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .basis import AlgebraSpec, Kind, dimension, graded_dimensions
from .operators import EXACT, FLOAT, ORTHONORMAL, fock_space, normalize
from .relations import RelationReport, _report
from .sparse import SparseMatrix, orbit_rank

LIE_CHECKS = ("brackets", "identify", "branching")


def gl_generator(spec: AlgebraSpec, i: int, j: int) -> SparseMatrix:
    """The exact bilinear e_ij = p*{a_i^+, a_j^-} (Fermi) / p*[a_i^+, a_j^-] (Bose)."""
    return fock_space(spec).bilinear(i, j)


def diagonal_action_value(spec: AlgebraSpec, v: Sequence[int], i: int) -> int:
    """Eigenvalue of e_ii on a basis vector: p-|v|+v_i (Fermi), v_i+|v|-p (Bose)."""
    k = sum(v)
    if spec.kind is Kind.FERMI:
        return spec.p - k + v[i - 1]
    return v[i - 1] + k - spec.p


def weight_vector(spec: AlgebraSpec, v: Sequence[int]) -> tuple[int, ...]:
    """Joint eigenvalue coordinates (lambda_0; lambda_1..lambda_n) of the
    diagonal generators (E_00; E_11..E_nn) on a basis vector, with the
    adjoined direction first.  The vacuum has weight (p; 0, ..., 0)."""
    return (spec.p - sum(v),) + tuple(v)


def check_gl_commutators(spec: AlgebraSpec) -> list[RelationReport]:
    """[e_ij, e_kl] = delta_jk e_il - delta_il e_kj over all index quadruples."""
    e = fock_space(spec).bilinear
    out = []
    idx = range(1, spec.n + 1)
    for i in idx:
        for j in idx:
            for k in idx:
                for l in idx:
                    expr = e(i, j) @ e(k, l) - e(k, l) @ e(i, j)
                    if j == k:
                        expr = expr - e(i, l)
                    if i == l:
                        expr = expr + e(k, j)
                    out.append(_report("gl-commutator", spec, (i, j, k, l),
                                       expr.max_abs(), EXACT))
    return out


def check_adjoint_action(spec: AlgebraSpec) -> list[RelationReport]:
    """Commutators of e_ij with the ladder operators.

    Fermi: [e_ij, a_k^+] = d_jk a_i^+ - d_ij a_k^+,
           [e_ij, a_k^-] = -d_ik a_j^- + d_ij a_k^-.
    Bose:  [e_ij, a_k^+] = d_jk a_i^+ + d_ij a_k^+,
           [e_ij, a_k^-] = -d_ik a_j^- - d_ij a_k^-.
    """
    space = fock_space(spec)
    e = space.bilinear
    ups = {i: space.ladder(i, +1) for i in range(1, spec.n + 1)}
    downs = {i: space.ladder(i, -1) for i in range(1, spec.n + 1)}
    diag_sign = 1 if spec.kind is Kind.BOSE else -1
    out = []
    idx = range(1, spec.n + 1)
    for i in idx:
        for j in idx:
            for k in idx:
                expr = e(i, j) @ ups[k] - ups[k] @ e(i, j)
                if j == k:
                    expr = expr - ups[i]
                if i == j:
                    expr = expr - diag_sign * ups[k]
                out.append(_report("ladder-adjoint-plus", spec, (i, j, k),
                                   expr.max_abs(), EXACT))
                expr = e(i, j) @ downs[k] - downs[k] @ e(i, j)
                if i == k:
                    expr = expr + downs[j]
                if i == j:
                    expr = expr + diag_sign * downs[k]
                out.append(_report("ladder-adjoint-minus", spec, (i, j, k),
                                   expr.max_abs(), EXACT))
    return out


def extended_rescaled_generators(spec: AlgebraSpec) -> dict[tuple[int, int], SparseMatrix]:
    """Exact (n+1)x(n+1) generator family with crossing entries scaled by p.

    Index 0 is the adjoined direction: entry (i,0) is p*a_i^+, (0,i) is
    p*a_i^-, (0,0) is p*Id - N; diagonal entries for i >= 1 are built from
    the bilinears via the identification above.
    """
    space = fock_space(spec)
    N = space.number()
    identity = SparseMatrix.identity(dimension(spec), N.tag)
    e00 = spec.p * identity - N
    table: dict[tuple[int, int], SparseMatrix] = {(0, 0): e00}
    for i in range(1, spec.n + 1):
        table[(i, 0)] = spec.p * space.ladder(i, +1)
        table[(0, i)] = spec.p * space.ladder(i, -1)
        if spec.kind is Kind.FERMI:
            table[(i, i)] = space.bilinear(i, i) - e00
        else:
            table[(i, i)] = space.bilinear(i, i) + e00
        for j in range(1, spec.n + 1):
            if i != j:
                table[(i, j)] = space.bilinear(i, j)
    return table


def extended_float_generators(spec: AlgebraSpec) -> dict[tuple[int, int], SparseMatrix]:
    """Literal sqrt(p)-scaled generator family on the orthonormal basis."""
    space = fock_space(spec)
    exact = extended_rescaled_generators(spec)
    root_p = math.sqrt(spec.p)
    table: dict[tuple[int, int], SparseMatrix] = {}
    for (a, b), mat in exact.items():
        if (a == 0) != (b == 0):
            if a == 0:
                table[(a, b)] = root_p * space.ladder(b, -1, ORTHONORMAL)
            else:
                table[(a, b)] = root_p * space.ladder(a, +1, ORTHONORMAL)
        else:
            table[(a, b)] = normalize(mat, space.gram)
    return table


def _crossing(a: int, b: int) -> bool:
    return (a == 0) != (b == 0)


def _bracket_residual(kind: Kind, p_scale, table, ab, cd):
    """LHS - RHS of the graded bracket

        [[E_ab, E_cd]] = d_bc E_ad - (-1)^(deg*deg) d_ad E_cb

    where the bracket is the anticommutator iff both generators are odd
    (Fermi crossing generators), and p_scale multiplies the RHS when both
    generators are crossing (compensating their extra sqrt(p) rescale)."""
    a, b = ab
    c, d = cd
    X, Y = table[ab], table[cd]
    both_crossing = _crossing(a, b) and _crossing(c, d)
    anticommute = kind is Kind.FERMI and both_crossing
    expr = X @ Y + Y @ X if anticommute else X @ Y - Y @ X
    scale = p_scale if both_crossing else 1
    if b == c:
        expr = expr - scale * table[(a, d)]
    if a == d:
        # sign of the E_cb term: + when the bracket is an anticommutator
        if anticommute:
            expr = expr - scale * table[(c, b)]
        else:
            expr = expr + scale * table[(c, b)]
    return expr


def check_identification(spec: AlgebraSpec) -> list[RelationReport]:
    """Full bracket table of the adjoined generator family, the identity
    resolution, the number-operator identity, the root-ladder property and
    the highest weight of the vacuum.

    The exact backend checks the p-rescaled table; the float backend checks
    the literal sqrt(p)-scaled table on the orthonormal basis.
    """
    out = []
    space = fock_space(spec)
    dim = dimension(spec)
    labels = [(a, b) for a in range(spec.n + 1) for b in range(spec.n + 1)]

    exact = extended_rescaled_generators(spec)
    for ab in labels:
        for cd in labels:
            expr = _bracket_residual(spec.kind, spec.p, exact, ab, cd)
            out.append(_report("extended-bracket", spec, ab + cd,
                               expr.max_abs(), EXACT))

    floats = extended_float_generators(spec)
    for ab in labels:
        for cd in labels:
            expr = _bracket_residual(spec.kind, 1.0, floats, ab, cd)
            out.append(_report("extended-bracket-float", spec, ab + cd,
                               expr.max_abs(), FLOAT))

    identity = SparseMatrix.identity(dim, exact[(0, 0)].tag)
    resolution = exact[(0, 0)]
    for i in range(1, spec.n + 1):
        resolution = resolution + exact[(i, i)]
    out.append(_report("identity-resolution", spec, (),
                       (resolution - spec.p * identity).max_abs(), EXACT))

    N = space.number()
    weight_sum = exact[(1, 1)]
    for i in range(2, spec.n + 1):
        weight_sum = weight_sum + exact[(i, i)]
    out.append(_report("number-weight-identity", spec, (),
                       (weight_sum - N).max_abs(), EXACT))

    vacuum = {0: Fraction(1)}
    e00_vac = exact[(0, 0)].apply(vacuum)
    hw_resid = max(abs(e00_vac.get(0, Fraction(0)) - spec.p),
                   max((abs(v) for r, v in e00_vac.items() if r != 0), default=Fraction(0)))
    for i in range(1, spec.n + 1):
        img = exact[(i, i)].apply(vacuum)
        hw_resid = max(hw_resid, max((abs(v) for v in img.values()), default=Fraction(0)))
    out.append(_report("highest-weight", spec, (), hw_resid, EXACT))

    for i in range(1, spec.n + 1):
        up = space.ladder(i, +1)
        down = space.ladder(i, -1)
        out.append(_report("root-ladder-plus", spec, (i,),
                           (exact[(0, 0)] @ up - up @ exact[(0, 0)] + up).max_abs(), EXACT))
        out.append(_report("root-ladder-minus", spec, (i,),
                           (exact[(0, 0)] @ down - down @ exact[(0, 0)] - down).max_abs(), EXACT))
    return out


def check_branching(spec: AlgebraSpec) -> list[RelationReport]:
    """Grade blocks as the gl(1)+gl(n) decomposition of the Fock space.

    Verifies block sizes against the binomial multiplicities, the E_00 value
    p-k on grade k, invariance of every block under all e_ij, and block
    irreducibility (the e_ij orbit of any single block vector spans the
    whole block).
    """
    out = []
    space = fock_space(spec)
    basis, grades, offsets = space.basis, space.grades, space.offsets
    dims = graded_dimensions(spec)

    enumerated = [0] * (spec.p + 1)
    for k in grades:
        enumerated[k] += 1
    out.append(_report("branching-block-dims", spec, (),
                       Fraction(0) if enumerated == dims else Fraction(1), EXACT))

    dim = len(basis)
    N = space.number()
    e00 = spec.p * SparseMatrix.identity(dim, N.tag) - N
    weight_resid = max((abs(e00.get(r, r) - (spec.p - k))
                        for k in range(spec.p + 1) for r in range(offsets[k], offsets[k + 1])),
                       default=Fraction(0))
    out.append(_report("branching-weight-values", spec, (), weight_resid, EXACT))

    pairs = [(i, j) for i in range(1, spec.n + 1) for j in range(1, spec.n + 1)]
    generators = [space.bilinear(i, j) for i, j in pairs]
    for ij, mat in zip(pairs, generators):
        cross = max((abs(v) for (r, c), v in mat.data.items() if grades[r] != grades[c]),
                    default=0)
        out.append(_report("branching-invariant", spec, ij, cross, EXACT))

    for k in range(spec.p + 1):
        failed = sum(orbit_rank(generators, seed, dim) != dims[k]
                     for seed in range(offsets[k], offsets[k + 1]))
        out.append(_report("branching-irreducible", spec, (k,), Fraction(failed), EXACT))

    for i in range(1, spec.n + 1):
        e = space.bilinear(i, i)
        matrix_trace = sum((e.get(r, r) for r in range(len(basis))), Fraction(0))
        action_trace = sum(diagonal_action_value(spec, v, i) for v in basis)
        out.append(_report("diagonal-trace", spec, (i,),
                           abs(matrix_trace - action_trace), EXACT))
        diag_resid = max((abs(e.get(r, r) - diagonal_action_value(spec, v, i))
                          for r, v in enumerate(basis)), default=Fraction(0))
        off_resid = max((abs(v) for (r, c), v in e.data.items() if r != c),
                        default=0)
        out.append(_report("diagonal-action", spec, (i,),
                           max(diag_resid, off_resid), EXACT))
    return out


def run_lie_suite(spec: AlgebraSpec, which: str = "all") -> list[RelationReport]:
    """Lie-structure checks for one spec; which selects a named subset."""
    if which not in LIE_CHECKS + ("all",):
        raise ValueError(f"unknown check {which!r}; expected one of {LIE_CHECKS + ('all',)}")
    reports: list[RelationReport] = []
    if which in ("brackets", "all"):
        reports += check_gl_commutators(spec)
        reports += check_adjoint_action(spec)
    if which in ("identify", "all"):
        reports += check_identification(spec)
    if which in ("branching", "all"):
        reports += check_branching(spec)
    return sorted(reports, key=RelationReport.sort_key)
