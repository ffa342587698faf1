"""Machine verification of the defining relations of the capped algebras.

Every check assembles the relevant matrix expression and reports its largest
residual entry.  The relations are checked on the exact operators of the
unnormalized basis, where residuals are Fractions and a check passes only if
the residual is exactly zero.  The orthonormal operators are the exact ones
conjugated by the square roots of the diagonal Gram form, which keeps every
relation, so they are checked only for that: check_backend_agreement compares
the conjugated ladders entry by entry, within FLOAT_TOL, with the ones built
straight from their square-root coefficients, and the float backend of
run_suite is the exact suite plus those 2n checks.

Relations covered, for a = f (Fermi, bracket {,}) or a = b (Bose, [,]):

    double ladder    {a_i^+, a_j^+} = {a_i^-, a_j^-} = 0     (commutators for Bose)
    number ladder    [N, a_i^pm] = pm a_i^pm, and N = k on the grade-k rank range
    mixed ladder     (1-(N-1)/p) a_i^- a_j^+  +/-  (1-N/p) a_j^+ a_i^-
                         = delta_ij (1-N/p)(1-(N-1)/p)
    cap              a_i^+ annihilates the top grade; ladder operators move
                     between adjacent grades only
    hermiticity      the adjoint G^-1 X^T G of a_i^+ for the diagonal Gram
                     form G is a_i^-, and N is self-adjoint
    vacuum cyclic    the algebra generated by the ladder operators spans the
                     whole space from the vacuum (exact rank computation)

check_classical_limit compares the orthonormal matrix elements in a fixed
low-occupation window against the ordinary (uncapped) fermion/boson ones and
verifies the deviation shrinks as the cap grows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .basis import EXACT, FLOAT, ORTHONORMAL, AlgebraSpec, Kind, dimension
from .operators import FockSpace, _orthonormal_magnitude, grade_diagonal, normalize
from .sparse import MonomialMatrix, _filled, bracket, orbit_ranks

FLOAT_TOL = 1e-12


class RelationReport(NamedTuple):
    relation: str
    spec: AlgebraSpec
    indices: tuple[int, ...]
    residual: Fraction | float
    passed: bool
    backend: str = EXACT

    def sort_key(self):
        return (self.spec.kind.value, self.spec.n, self.spec.p,
                self.relation, self.indices)

    def as_dict(self) -> dict:
        residual = str(self.residual) if self.backend == EXACT else float(self.residual)
        return {
            "relation": self.relation,
            "kind": self.spec.kind.value,
            "n": self.spec.n,
            "p": self.spec.p,
            "indices": list(self.indices),
            "residual": residual,
            "pass": self.passed,
            "backend": self.backend,
        }


def _report(relation: str, spec: AlgebraSpec, indices: tuple[int, ...],
            residual, backend: str = EXACT, scale: float = 1) -> RelationReport:
    """An exact residual passes at zero, a float one up to FLOAT_TOL * scale."""
    if backend == EXACT:
        passed = residual == 0
    else:
        passed = float(residual) <= FLOAT_TOL * scale
    return RelationReport(relation, spec, indices, residual, passed, backend)


def check_pp(space: FockSpace) -> list[RelationReport]:
    """Two creations (and two annihilations) anticommute/commute to zero."""
    spec = space.spec
    out = []
    for name, delta in (("double-plus", +1), ("double-minus", -1)):
        for i in range(1, spec.n + 1):
            for j in range(i, spec.n + 1):
                a, b = space.ladder(i, delta), space.ladder(j, delta)
                out.append(_report(name, spec, (i, j),
                                   bracket(a, b, spec.kind.sign).max_abs()))
    return out


def check_number(space: FockSpace) -> list[RelationReport]:
    """[N, a_i^pm] = pm a_i^pm, and N is k on the rank range offsets[k]..offsets[k+1]
    of the closed-form grade offsets and the basis holds no other vector:
    eigenvalue k with multiplicity exactly d_k, on a basis whose grades are
    contiguous."""
    spec = space.spec
    N, offsets = space.number(), space.offsets
    out = []
    for i in range(1, spec.n + 1):
        up, down = space.ladder(i, +1), space.ladder(i, -1)
        out.append(_report("number-ladder-plus", spec, (i,), (bracket(N, up) - up).max_abs()))
        out.append(_report("number-ladder-minus", spec, (i,),
                           (bracket(N, down) + down).max_abs()))
    graded = N.rows == offsets[-1] and all(N.get(r, r) == k for k in range(len(offsets) - 1)
                                           for r in range(offsets[k], offsets[k + 1]))
    out.append(_report("number-multiplicity", spec, (), Fraction(0 if graded else 1)))
    return out


def check_mixed(space: FockSpace) -> list[RelationReport]:
    """The deformed mixed relation between one creation and one annihilation.

    (1-(N-1)/p) a_i^- a_j^+ - s (1-N/p) a_j^+ a_i^- = delta_ij (1-N/p)(1-(N-1)/p)
    with the exchange sign s = Kind.sign; the scalar polynomials in N are
    evaluated as diagonal matrices standing to the left of the products.
    Exact products associate, so c_upper a_i^- and c_lower a_j^+ are formed
    once per mode, not once per pair.
    """
    spec = space.spec
    n, p = spec.n, spec.p
    sign = -spec.kind.sign
    c_upper = grade_diagonal(space, lambda k: Fraction(1) - Fraction(k - 1, p))
    c_lower = grade_diagonal(space, lambda k: Fraction(1) - Fraction(k, p))
    rhs_full = c_lower @ c_upper
    scaled_up = [c_lower @ space.ladder(j, +1) for j in range(1, n + 1)]
    out = []
    for i in range(1, n + 1):
        down = space.ladder(i, -1)
        scaled_down = c_upper @ down
        for j in range(1, n + 1):
            lhs = scaled_down @ space.ladder(j, +1) + sign * (scaled_up[j - 1] @ down)
            expr = lhs - rhs_full if i == j else lhs
            out.append(_report("mixed-ladder", spec, (i, j), expr.max_abs()))
    return out


def check_cap(space: FockSpace) -> list[RelationReport]:
    """Creation kills the top grade; ladder operators shift grade by exactly 1."""
    spec = space.spec
    grades, top = space.grades, space.offsets[min(spec.p, spec.top + 1)]
    out = []
    for i in range(1, spec.n + 1):
        up, down = space.ladder(i, +1), space.ladder(i, -1)
        out.append(_report("cap-top-grade", spec, (i,), up.max_abs(lambda r, c: c >= top)))
        out.append(_report("grade-raising", spec, (i,),
                           up.max_abs(lambda r, c: grades[r] != grades[c] + 1)))
        out.append(_report("grade-lowering", spec, (i,),
                           down.max_abs(lambda r, c: grades[r] != grades[c] - 1)))
    return out


def check_hermiticity(space: FockSpace) -> list[RelationReport]:
    """Adjoint of creation is annihilation; N is self-adjoint.

    The adjoint G^-1 X^T G of X for the diagonal Gram form G is (X D)^T, X D
    holding each entry x of X at (r, c) as x G(r)/G(c) from space.gram_ratio:
    for an exact monomial X, integers over their least common denominator (p
    for a raising ladder, 1 for N); else Fractions, entry by entry.  The
    residual is the largest entry of the adjoint's defect (X D)^T - Y."""
    spec, N, ratio, out = space.spec, space.number(), space.gram_ratio, []
    pairs = [("adjoint-is-annihilation", (i,), space.ladder(i, +1), space.ladder(i, -1))
             for i in range(1, spec.n + 1)] + [("number-self-adjoint", (), N, N)]
    for name, indices, X, Y in pairs:
        if isinstance(X, MonomialMatrix) and X.exact:
            ratios = [ratio(r, c) if x else (0, 1)
                      for c, r, x in zip(range(X.cols), X.target, X.coef)]
            lcm = math.lcm(*{den for _, den in ratios})
            coefs = [x * num * (lcm // den) for x, (num, den) in zip(X.coef, ratios)]
            XD = _filled(X.rows, X.target, coefs + [0], X.denom * lcm, True, X.tag)
        else:  # a SparseMatrix: the dict-of-keys copies of tests/test_kernel.py
            XD = X.map_entries(lambda r, c, x: x * Fraction(*ratio(r, c)), X.tag)
        out.append(_report(name, spec, indices, (XD.transpose() - Y).max_abs()))
    return out


def check_vacuum_cyclic(space: FockSpace) -> RelationReport:
    """Irreducibility witness: the span of the vacuum orbit under the ladder
    operators has full dimension (exact rank computation)."""
    spec = space.spec
    generators = [space.ladder(i, delta) for delta in (+1, -1) for i in range(1, spec.n + 1)]
    residual = Fraction(dimension(spec) - orbit_ranks(generators, [0])[0])
    return _report("vacuum-cyclic", spec, (), residual)


def check_backend_agreement(space: FockSpace) -> list[RelationReport]:
    """Exact-then-normalized ladders match the directly built orthonormal
    ones entrywise (within FLOAT_TOL); N, being diagonal, has no second route."""
    spec = space.spec
    out = []
    for i in range(1, spec.n + 1):
        for suffix, delta in (("plus", +1), ("minus", -1)):
            out.append(_report(f"orthonormal-agreement-{suffix}", spec, (i,),
                               (normalize(space.ladder(i, delta), space)
                                - space.ladder(i, delta, ORTHONORMAL)).max_abs(), FLOAT))
    return out


def run_suite(spec: AlgebraSpec, backend: str = EXACT) -> list[RelationReport]:
    """All relation checks for one spec, canonically ordered.

    The checks share one FockSpace, built here, so each operator is built
    once.  The float backend is the exact suite plus check_backend_agreement:
    the orthonormal operators are the exact ones conjugated by a diagonal
    matrix, which keeps every relation, so their agreement with the exact
    ones is all that is left to check of them.
    """
    if backend not in (EXACT, FLOAT):
        raise ValueError(f"unknown backend {backend!r}")
    space = FockSpace(spec)
    reports = (check_pp(space) + check_number(space) + check_mixed(space) + check_cap(space)
               + check_hermiticity(space) + [check_vacuum_cyclic(space)])
    if backend == FLOAT:
        reports += check_backend_agreement(space)
    return sorted(reports, key=RelationReport.sort_key)


def run_grid(n_max: int, p_max: int, backend: str = EXACT) -> list[RelationReport]:
    reports = []
    for kind in (Kind.FERMI, Kind.BOSE):
        for n in range(1, n_max + 1):
            for p in range(1, p_max + 1):
                reports += run_suite(AlgebraSpec(kind, n, p), backend)
    return sorted(reports, key=RelationReport.sort_key)


class ClassicalLimitReport(NamedTuple):
    kind: Kind
    n: int
    window_cap: int
    p_values: tuple[int, ...]
    deviations: tuple[float, ...]
    bound_constant: float
    within_bound: bool
    nonincreasing: bool

    @property
    def passed(self) -> bool:
        return self.within_bound and self.nonincreasing

    def as_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "n": self.n,
            "window_cap": self.window_cap,
            "p_values": list(self.p_values),
            "deviations": list(self.deviations),
            "bound_constant": self.bound_constant,
            "within_bound": self.within_bound,
            "nonincreasing": self.nonincreasing,
            "pass": self.passed,
        }


def _window_deviation(kind: Kind, n: int, window_cap: int, p: int) -> float:
    """Sup-norm gap, over matrix elements between window states (total <=
    window_cap), between the cap-p orthonormal ladder coefficients and the
    ordinary fermion/boson ones.  Each element belongs to the window state u
    that holds more quanta; its uncapped value is sqrt(u_i) for both kinds.
    Both read only x = u_i > 0 and k = |u|, whose pairs over the window are
    1 <= k <= window_cap, 1 <= x <= min(k, b) and k - x <= (n-1) b, with b
    the window's entry bound."""
    b = AlgebraSpec(kind, n, window_cap).max_entry
    return max((abs(_orthonormal_magnitude(x, k, p) - math.sqrt(x))
                for k in range(1, window_cap + 1)
                for x in range(max(1, k - (n - 1) * b), min(k, b) + 1)), default=0.0)


def check_classical_limit(kind: Kind, n: int, window_cap: int,
                          p_values: Sequence[int]) -> ClassicalLimitReport:
    """Deviation from the uncapped ladder coefficients for each cap in
    p_values, with the crude uniform bound 2*(window_cap+1)/p."""
    kind = Kind(kind)
    if window_cap < 1:
        raise ValueError("window_cap must be >= 1")
    p_values = tuple(p_values)
    if not p_values or list(p_values) != sorted(set(p_values)):
        raise ValueError("p_values must be strictly increasing and nonempty")
    if window_cap >= min(p_values):
        raise ValueError(f"window_cap {window_cap} must be < min(p_values) {min(p_values)}")
    deviations = tuple(_window_deviation(kind, n, window_cap, p) for p in p_values)
    constant = 2.0 * (window_cap + 1)
    within = all(d <= constant / p for d, p in zip(deviations, p_values))
    nonincreasing = all(b <= a for a, b in zip(deviations, deviations[1:]))
    return ClassicalLimitReport(kind, n, window_cap, p_values, deviations,
                                constant, within, nonincreasing)
