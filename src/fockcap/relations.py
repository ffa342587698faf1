"""Machine verification of the defining relations of the capped algebras.

Every check assembles the relevant matrix expression and reports its largest
residual entry.  On the exact backend residuals are Fractions and a check
passes only if the residual is exactly zero; on the float backend (operators
in the orthonormal basis) the pass threshold is FLOAT_TOL.

Relations covered, for a = f (Fermi, bracket {,}) or a = b (Bose, [,]):

    double ladder    {a_i^+, a_j^+} = {a_i^-, a_j^-} = 0     (commutators for Bose)
    number ladder    [N, a_i^pm] = pm a_i^pm
    mixed ladder     (1-(N-1)/p) a_i^- a_j^+  +/-  (1-N/p) a_j^+ a_i^-
                         = delta_ij (1-N/p)(1-(N-1)/p)
    cap              a_i^+ annihilates the top grade; ladder operators move
                     between adjacent grades only
    hermiticity      adjoint of a_i^+ w.r.t. the Gram form equals a_i^-
    vacuum cyclic    the algebra generated by the ladder operators spans the
                     whole space from the vacuum (exact rank computation)

check_classical_limit compares the orthonormal matrix elements in a fixed
low-occupation window against the ordinary (uncapped) fermion/boson ones and
verifies the deviation shrinks as the cap grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .basis import AlgebraSpec, Kind, dimension, enumerate_basis, graded_dimensions
from .operators import (EXACT, FLOAT, NORMALIZATION, ORTHONORMAL, FockSpace,
                        adjoint_wrt_gram, fock_space, grade_diagonal, normalize)
from .sparse import max_entry_difference, orbit_rank

FLOAT_TOL = 1e-12


@dataclass(frozen=True)
class RelationReport:
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
            residual, backend: str) -> RelationReport:
    if backend == EXACT:
        passed = residual == 0
    else:
        passed = float(residual) <= FLOAT_TOL
    return RelationReport(relation, spec, indices, residual, passed, backend)


def _space(spec: AlgebraSpec, backend: str) -> tuple[FockSpace, str]:
    """The shared space of spec and the normalization the backend works in."""
    if backend not in NORMALIZATION:
        raise ValueError(f"unknown backend {backend!r}")
    return fock_space(spec), NORMALIZATION[backend]


def check_pp(spec: AlgebraSpec, backend: str = EXACT) -> list[RelationReport]:
    """Two creations (and two annihilations) anticommute/commute to zero."""
    space, norm = _space(spec, backend)
    sign = 1 if spec.kind is Kind.FERMI else -1
    out = []
    for name, delta in (("double-plus", +1), ("double-minus", -1)):
        for i in range(1, spec.n + 1):
            for j in range(i, spec.n + 1):
                a, b = space.ladder(i, delta, norm), space.ladder(j, delta, norm)
                resid = (a @ b + sign * (b @ a)).max_abs()
                out.append(_report(name, spec, (i, j), resid, backend))
    return out


def check_number(spec: AlgebraSpec, backend: str = EXACT) -> list[RelationReport]:
    """[N, a_i^pm] = pm a_i^pm, and N has eigenvalue k with multiplicity d_k."""
    space, norm = _space(spec, backend)
    N = space.number(norm)
    out = []
    for i in range(1, spec.n + 1):
        up = space.ladder(i, +1, norm)
        down = space.ladder(i, -1, norm)
        out.append(_report("number-ladder-plus", spec, (i,),
                           (N @ up - up @ N - up).max_abs(), backend))
        out.append(_report("number-ladder-minus", spec, (i,),
                           (N @ down - down @ N + down).max_abs(), backend))
    counts = [0] * (spec.p + 1)
    for r in range(dimension(spec)):
        counts[int(N.get(r, r))] += 1
    ok = counts == graded_dimensions(spec)
    residual = Fraction(0) if ok else Fraction(1)
    out.append(_report("number-multiplicity", spec, (), residual if backend == EXACT
                       else float(residual), backend))
    return out


def check_mixed(spec: AlgebraSpec, backend: str = EXACT) -> list[RelationReport]:
    """The deformed mixed relation between one creation and one annihilation.

    (1-(N-1)/p) a_i^- a_j^+ + s (1-N/p) a_j^+ a_i^- = delta_ij (1-N/p)(1-(N-1)/p)
    with s = +1 for Fermi, -1 for Bose; the scalar polynomials in N are
    evaluated as diagonal matrices standing to the left of the products.
    """
    space, norm = _space(spec, backend)
    p = spec.p
    sign = 1 if spec.kind is Kind.FERMI else -1
    if backend == EXACT:
        upper = lambda k: Fraction(1) - Fraction(k - 1, p)  # noqa: E731
        lower = lambda k: Fraction(1) - Fraction(k, p)  # noqa: E731
    else:
        upper = lambda k: 1.0 - (k - 1) / p  # noqa: E731
        lower = lambda k: 1.0 - k / p  # noqa: E731
    c_upper = grade_diagonal(spec, upper, normalization=norm)
    c_lower = grade_diagonal(spec, lower, normalization=norm)
    rhs_full = c_lower @ c_upper
    out = []
    for i in range(1, spec.n + 1):
        for j in range(1, spec.n + 1):
            down, up = space.ladder(i, -1, norm), space.ladder(j, +1, norm)
            lhs = c_upper @ (down @ up) + sign * (c_lower @ (up @ down))
            expr = lhs - rhs_full if i == j else lhs
            out.append(_report("mixed-ladder", spec, (i, j), expr.max_abs(), backend))
    return out


def check_cap(spec: AlgebraSpec, backend: str = EXACT) -> list[RelationReport]:
    """Creation kills the top grade; ladder operators shift grade by exactly 1."""
    space, norm = _space(spec, backend)
    grades, offsets = space.grades, space.offsets
    top = range(offsets[spec.p], offsets[spec.p + 1])
    out = []
    for i in range(1, spec.n + 1):
        up = space.ladder(i, +1, norm)
        down = space.ladder(i, -1, norm)
        top_resid = max((abs(v) for (r, c), v in up.data.items() if c in top), default=0)
        out.append(_report("cap-top-grade", spec, (i,), top_resid, backend))
        raise_resid = max((abs(v) for (r, c), v in up.data.items()
                           if grades[r] != grades[c] + 1), default=0)
        out.append(_report("grade-raising", spec, (i,), raise_resid, backend))
        lower_resid = max((abs(v) for (r, c), v in down.data.items()
                           if grades[r] != grades[c] - 1), default=0)
        out.append(_report("grade-lowering", spec, (i,), lower_resid, backend))
    return out


def check_hermiticity(spec: AlgebraSpec, backend: str = EXACT) -> list[RelationReport]:
    """Adjoint of creation is annihilation; N is self-adjoint.

    Exact backend: adjoint w.r.t. the Gram form.  Float backend: plain
    transpose, since the basis is orthonormal there.
    """
    space, norm = _space(spec, backend)
    out = []
    if backend == EXACT:
        adj = lambda m: adjoint_wrt_gram(m, space.gram)  # noqa: E731
    else:
        adj = lambda m: m.transpose()  # noqa: E731
    for i in range(1, spec.n + 1):
        resid = max_entry_difference(adj(space.ladder(i, +1, norm)), space.ladder(i, -1, norm))
        out.append(_report("adjoint-is-annihilation", spec, (i,), resid, backend))
    N = space.number(norm)
    out.append(_report("number-self-adjoint", spec, (),
                       max_entry_difference(adj(N), N), backend))
    return out


def check_vacuum_cyclic(spec: AlgebraSpec) -> RelationReport:
    """Irreducibility witness: the span of the vacuum orbit under the ladder
    operators has full dimension (exact rational rank)."""
    space = fock_space(spec)
    generators = [space.ladder(i, delta) for delta in (+1, -1) for i in range(1, spec.n + 1)]
    dim = dimension(spec)
    residual = Fraction(dim - orbit_rank(generators, 0, dim))
    return _report("vacuum-cyclic", spec, (), residual, EXACT)


def check_backend_agreement(spec: AlgebraSpec) -> list[RelationReport]:
    """Exact-then-normalized operators match the directly built orthonormal
    ones entrywise (within FLOAT_TOL)."""
    space = fock_space(spec)
    out = []
    for i in range(1, spec.n + 1):
        for suffix, delta in (("plus", +1), ("minus", -1)):
            out.append(_report(f"orthonormal-agreement-{suffix}", spec, (i,),
                               max_entry_difference(normalize(space.ladder(i, delta), space.gram),
                                                    space.ladder(i, delta, ORTHONORMAL)), FLOAT))
    out.append(_report("orthonormal-agreement-number", spec, (),
                       max_entry_difference(normalize(space.number(), space.gram),
                                            space.number(ORTHONORMAL)), FLOAT))
    return out


def run_suite(spec: AlgebraSpec, backend: str = EXACT) -> list[RelationReport]:
    """All relation checks for one spec, canonically ordered."""
    reports = []
    reports += check_pp(spec, backend)
    reports += check_number(spec, backend)
    reports += check_mixed(spec, backend)
    reports += check_cap(spec, backend)
    reports += check_hermiticity(spec, backend)
    if backend == EXACT:
        reports.append(check_vacuum_cyclic(spec))
    else:
        reports += check_backend_agreement(spec)
    return sorted(reports, key=RelationReport.sort_key)


def run_grid(n_max: int, p_max: int, backend: str = EXACT,
             kinds: Iterable[Kind] = (Kind.FERMI, Kind.BOSE)) -> list[RelationReport]:
    reports = []
    for kind in kinds:
        for n in range(1, n_max + 1):
            for p in range(1, p_max + 1):
                reports += run_suite(AlgebraSpec(kind, n, p), backend)
    return sorted(reports, key=RelationReport.sort_key)


@dataclass(frozen=True)
class ClassicalLimitReport:
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
    ordinary fermion/boson ones."""
    window = enumerate_basis(AlgebraSpec(kind, n, window_cap))
    dev = 0.0
    for v in window:
        k = sum(v)
        for i in range(1, n + 1):
            x = v[i - 1]
            if k < window_cap and not (kind is Kind.FERMI and x == 1):
                if kind is Kind.FERMI:
                    deformed = math.sqrt((p - k) / p)
                    standard = 1.0
                else:
                    deformed = math.sqrt((x + 1) * (p - k) / p)
                    standard = math.sqrt(x + 1)
                dev = max(dev, abs(deformed - standard))
            if x > 0:
                if kind is Kind.FERMI:
                    deformed = math.sqrt((p - k + 1) / p)
                    standard = 1.0
                else:
                    deformed = math.sqrt(x * (p - k + 1) / p)
                    standard = math.sqrt(x)
                dev = max(dev, abs(deformed - standard))
    return dev


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
