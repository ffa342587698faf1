"""Bilinear generators and the gl(1|n) / gl(1+n) structure of the Fock space.

The rescaled bilinears

    e_ij = p * {a_i^+, a_j^-}   (Fermi)      e_ij = p * [a_i^+, a_j^-]   (Bose)

close on the gl(n) commutation relations when acting in the Fock space, and
extend to a basis of gl(1|n) (Fermi) resp. gl(1+n) (Bose) once a zeroth index
is adjoined:

    E_00 = p*Id - N,   E_i0 ~ sqrt(p) a_i^+,   E_0i ~ sqrt(p) a_i^-,
    E_ii = e_ii + s E_00,   E_ij = e_ij (i != j),
    with the exchange sign s = -1 for Fermi, +1 for Bose (Kind.sign).

sqrt(p) is irrational for general p, so the exact backend verifies the
bracket table with the odd/crossing generators rescaled by a further sqrt(p)
(i.e. p * a_i^pm), which multiplies the right side of any bracket of two
crossing generators by p and leaves every other bracket untouched.  The
float backend verifies the literal sqrt(p)-scaled table on the orthonormal
basis, to FLOAT_TOL times max(1, |X| |Y|) for the largest entries |X|, |Y|
of the two generators, which grow like p.  The vacuum is a highest-weight
vector of weight (p; 0, ..., 0).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .basis import EXACT, FLOAT, LIE_CHECKS, ORTHONORMAL, AlgebraSpec, Kind, grade_offsets
from .operators import FockSpace, grade_diagonal, normalize
from .relations import RelationReport, _report
from .sparse import MonomialMatrix, bracket, orbit_ranks


def diagonal_action_value(spec: AlgebraSpec, v: Sequence[int], i: int) -> int:
    """Eigenvalue of e_ii on a basis vector: v_i + s(|v|-p) with the exchange
    sign s, so p-|v|+v_i (Fermi) and v_i+|v|-p (Bose)."""
    return v[i - 1] + spec.kind.sign * (sum(v) - spec.p)


def weight_vector(spec: AlgebraSpec, v: Sequence[int]) -> tuple[int, ...]:
    """Joint eigenvalue coordinates (lambda_0; lambda_1..lambda_n) of the
    diagonal generators (E_00; E_11..E_nn) on a basis vector, with the
    adjoined direction first.  The vacuum has weight (p; 0, ..., 0)."""
    return (spec.p - sum(v),) + tuple(v)


def _generators(space: FockSpace) -> dict[tuple[int, int], MonomialMatrix]:
    """The unscaled exact generators, labelled as in the (n+1)x(n+1) table:
    e_ij at (i, j), a_i^+ at (i, 0) and a_i^- at (0, i)."""
    idx = range(1, space.spec.n + 1)
    table = {(i, j): space.bilinear(i, j) for i in idx for j in idx}
    for i in idx:
        table[(i, 0)] = space.ladder(i, +1)
        table[(0, i)] = space.ladder(i, -1)
    return table


def check_gl_commutators(space: FockSpace) -> list[RelationReport]:
    """[e_ij, e_kl] = delta_jk e_il - delta_il e_kj over all index quadruples:
    _bracket_residual over the e_ij, none of which is a crossing generator."""
    spec, table = space.spec, _generators(space)
    labels = [ab for ab in table if not _crossing(*ab)]
    return [_report("gl-commutator", spec, ij + kl,
                    _bracket_residual(spec.kind, 1, table, ij, kl).max_abs(), EXACT)
            for ij in labels for kl in labels]


def check_adjoint_action(space: FockSpace) -> list[RelationReport]:
    """Commutators of e_ij with the ladder operators.

    [e_ij, a_k^+] = d_jk a_i^+ + s d_ij a_k^+,
    [e_ij, a_k^-] = -d_ik a_j^- - s d_ij a_k^-,
    with the exchange sign s = -1 for Fermi, +1 for Bose.  The d_jk and d_ik
    terms are the table bracket [E_ij, E_k0] resp. [E_ij, E_0k] of
    _bracket_residual over the unscaled generators; the s d_ij term is there
    because e_ii = E_ii - s E_00 and [E_00, a_k^pm] = -+a_k^pm.
    """
    spec, table = space.spec, _generators(space)
    idx = range(1, spec.n + 1)
    out = []
    for i in idx:
        for j in idx:
            for k in idx:
                for relation, kl, delta in (("ladder-adjoint-plus", (k, 0), +1),
                                            ("ladder-adjoint-minus", (0, k), -1)):
                    expr = _bracket_residual(spec.kind, 1, table, (i, j), kl)
                    if i == j:
                        expr = expr - delta * spec.kind.sign * table[kl]
                    out.append(_report(relation, spec, (i, j, k), expr.max_abs(), EXACT))
    return out


def extended_rescaled_generators(space: FockSpace) -> dict[tuple[int, int], MonomialMatrix]:
    """Exact (n+1)x(n+1) generator family with crossing entries scaled by p.

    Index 0 is the adjoined direction: entry (i,0) is p*a_i^+, (0,i) is
    p*a_i^-, (0,0) is p*Id - N; diagonal entries for i >= 1 are built from
    the bilinears via the identification above.
    """
    spec = space.spec
    e00 = grade_diagonal(space, lambda k: spec.p - k)
    signed_e00 = spec.kind.sign * e00
    return {(0, 0): e00} | {
        (a, b): spec.p * op if _crossing(a, b) else op + signed_e00 if a == b else op
        for (a, b), op in _generators(space).items()}


def _crossing(a: int, b: int) -> bool:
    return (a == 0) != (b == 0)


def _bracket_residual(kind: Kind, p_scale, table, ab, cd):
    """LHS - RHS of the graded bracket

        [[E_ab, E_cd]] = E_ab E_cd - q E_cd E_ab = d_bc E_ad - q d_ad E_cb

    with q = (-1)^(deg*deg), the exchange sign of kind when both generators are
    crossing and 1 otherwise; p_scale multiplies the RHS when both are crossing
    (compensating their extra sqrt(p) rescale)."""
    a, b = ab
    c, d = cd
    both_crossing = _crossing(a, b) and _crossing(c, d)
    q = kind.sign if both_crossing else 1
    expr = bracket(table[ab], table[cd], q)
    scale = p_scale if both_crossing else 1
    if b == c:
        expr = expr - scale * table[(a, d)]
    if a == d:
        expr = expr + q * scale * table[(c, b)]
    return expr


def check_identification(space: FockSpace) -> list[RelationReport]:
    """Full bracket table of the adjoined generator family, the identity
    resolution, the number-operator identity, the root-ladder property and
    the highest weight of the vacuum.

    The exact backend checks the p-rescaled table; the float backend checks
    the literal sqrt(p)-scaled table on the orthonormal basis.
    """
    spec = space.spec
    out = []
    labels = [(a, b) for a in range(spec.n + 1) for b in range(spec.n + 1)]

    exact = extended_rescaled_generators(space)
    for ab in labels:
        for cd in labels:
            expr = _bracket_residual(spec.kind, spec.p, exact, ab, cd)
            out.append(_report("extended-bracket", spec, ab + cd,
                               expr.max_abs(), EXACT))

    # The float table is the exact one normalized, except that the crossing
    # entries are the literal sqrt(p)-scaled orthonormal ladder operators.
    floats = {ab: normalize(mat, space) for ab, mat in exact.items() if not _crossing(*ab)}
    root_p = math.sqrt(spec.p)
    for i in range(1, spec.n + 1):
        floats[(i, 0)] = root_p * space.ladder(i, +1, ORTHONORMAL)
        floats[(0, i)] = root_p * space.ladder(i, -1, ORTHONORMAL)
    sizes = {ab: mat.max_abs() for ab, mat in floats.items()}
    for ab in labels:
        for cd in labels:
            expr = _bracket_residual(spec.kind, 1.0, floats, ab, cd)
            out.append(_report("extended-bracket-float", spec, ab + cd, expr.max_abs(), FLOAT,
                               max(1.0, sizes[ab] * sizes[cd])))

    weight_sum = sum((exact[(i, i)] for i in range(2, spec.n + 1)), exact[(1, 1)])
    p_identity = grade_diagonal(space, lambda k: spec.p)
    out.append(_report("identity-resolution", spec, (),
                       (exact[(0, 0)] + weight_sum - p_identity).max_abs(), EXACT))
    out.append(_report("number-weight-identity", spec, (),
                       (weight_sum - space.number()).max_abs(), EXACT))

    # E_aa |0> = lambda_a |0> for the vacuum weight (p; 0, ..., 0)
    hw_resid = Fraction(0)
    for a, weight in enumerate(weight_vector(spec, (0,) * spec.n)):
        image = exact[(a, a)].apply({0: Fraction(1)})
        image[0] = image.get(0, 0) - weight
        hw_resid = max(hw_resid, *map(abs, image.values()))
    out.append(_report("highest-weight", spec, (), hw_resid, EXACT))

    # [E_00, a_i^pm] = -+a_i^pm on the unscaled ladders: on the p-scaled table it
    # would repeat the extended-bracket reports (0, 0, i, 0) and (0, 0, 0, i)
    unscaled = _generators(space) | {(0, 0): exact[(0, 0)]}
    for i in range(1, spec.n + 1):
        for relation, ladder in (("root-ladder-plus", (i, 0)), ("root-ladder-minus", (0, i))):
            expr = _bracket_residual(spec.kind, 1, unscaled, (0, 0), ladder)
            out.append(_report(relation, spec, (i,), expr.max_abs(), EXACT))
    return out


def check_branching(space: FockSpace) -> list[RelationReport]:
    """Grade blocks as the gl(1)+gl(n) decomposition of the Fock space.

    Verifies block sizes against the binomial multiplicities, the E_00 value
    p-k on grade k, invariance of every block under all e_ij, and block
    irreducibility (the e_ij orbit of any single block vector spans the
    whole block).
    """
    spec = space.spec
    out = []
    basis, grades, offsets = space.basis, space.grades, grade_offsets(spec)
    dims = [b - a for a, b in zip(offsets, offsets[1:])]  # the closed-form d_0..d_p

    enumerated = [0] * (spec.p + 1)
    for k in grades:
        enumerated[k] += 1
    out.append(_report("branching-block-dims", spec, (),
                       Fraction(0) if enumerated == dims else Fraction(1), EXACT))

    dim = len(basis)
    e00 = grade_diagonal(space, lambda k: spec.p - k)
    weight_resid = max((abs(e00.get(r, r) - (spec.p - k))
                        for k in range(spec.p + 1) for r in range(offsets[k], offsets[k + 1])),
                       default=Fraction(0))
    out.append(_report("branching-weight-values", spec, (), weight_resid, EXACT))

    pairs = [(i, j) for i in range(1, spec.n + 1) for j in range(1, spec.n + 1)]
    generators = [space.bilinear(i, j) for i, j in pairs]
    for ij, mat in zip(pairs, generators):
        cross = mat.max_abs(lambda r, c: grades[r] != grades[c])
        out.append(_report("branching-invariant", spec, ij, cross, EXACT))

    # offsets are closed-form; a block vector missing from the basis has no orbit
    ranks = orbit_ranks(generators, range(dim)) + [0] * (offsets[-1] - dim)
    for k in range(spec.p + 1):
        failed = sum(ranks[seed] != dims[k] for seed in range(offsets[k], offsets[k + 1]))
        out.append(_report("branching-irreducible", spec, (k,), Fraction(failed), EXACT))

    for i in range(1, spec.n + 1):
        e = space.bilinear(i, i)
        matrix = [e.get(r, r) for r in range(dim)]
        action = [diagonal_action_value(spec, v, i) for v in basis]
        out.append(_report("diagonal-trace", spec, (i,),
                           abs(sum(matrix, Fraction(0)) - sum(action)), EXACT))
        diag_resid = max((abs(x - y) for x, y in zip(matrix, action)), default=Fraction(0))
        off_resid = e.max_abs(lambda r, c: r != c)
        out.append(_report("diagonal-action", spec, (i,),
                           max(diag_resid, off_resid), EXACT))
    return out


def run_lie_suite(spec: AlgebraSpec, which: str = "all") -> list[RelationReport]:
    """Lie-structure checks for one spec; which selects a named subset.  The
    checks share one FockSpace, built here."""
    if which not in LIE_CHECKS + ("all",):
        raise ValueError(f"unknown check {which!r}; expected one of {LIE_CHECKS + ('all',)}")
    space = FockSpace(spec)
    reports: list[RelationReport] = []
    if which in ("brackets", "all"):
        reports += check_gl_commutators(space)
        reports += check_adjoint_action(space)
    if which in ("identify", "all"):
        reports += check_identification(space)
    if which in ("branching", "all"):
        reports += check_branching(space)
    return sorted(reports, key=RelationReport.sort_key)
