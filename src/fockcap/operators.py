"""Ladder operators, number operator and Gram form of the capped Fock space.

Internally everything lives in the UNNORMALIZED basis |v> obtained by
applying raw creation operators to the vacuum, where all matrix elements are
rational:

    creation      a_i^+ |v> = 0 if |v| = p, else
                  Fermi:  (1 - v_i) * sign_i(v) * |v + e_i>
                  Bose:   |v + e_i>
    annihilation  a_i^- |v> = Fermi: v_i * sign_i(v) * (p-k+1)/p * |v - e_i>
                  Bose:  v_i * (p-k+1)/p * |v - e_i>,     k = |v|
    sign_i(v) = (-1)^(v_1 + ... + v_{i-1})

The squared norms of the unnormalized basis form the Gram form G, a diagonal
operator (FockSpace.gram)

    Fermi:  <v|v> = p! / (p^k (p-k)!)
    Bose:   <v|v> = p! * prod_i v_i! / (p^k (p-k)!)

and a_i^+, a_i^- are mutually adjoint for it: (a_i^+)^T G = G a_i^-.

Conjugating by the square roots of the Gram entries yields the orthonormal
backend, whose entries are floats; there the actions carry the familiar
square-root coefficients (see FockSpace.ladder, which also builds them
directly as an independent construction route).

fock_space(spec) hands out the one FockSpace of a spec, which builds the
basis, the Gram form and each operator at most once for every caller; it is
the one way to obtain an operator.

Mode indices are 1-based in every public signature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial
from typing import Sequence

from .basis import (AlgebraSpec, Kind, OccupationVector, enumerate_basis,
                    grade_offsets)
from .sparse import MonomialMatrix, bracket

UNNORMALIZED = "unnormalized"
ORTHONORMAL = "orthonormal"
# Backends of the relation and spectrum reports, and the basis each works in.
EXACT = "exact"
FLOAT = "float"
NORMALIZATION = {EXACT: UNNORMALIZED, FLOAT: ORTHONORMAL}
# Spaces kept alive by fock_space(); one command works on one spec at a time.
SPACE_CACHE_SIZE = 4


@dataclass(frozen=True)
class BasisTag:
    spec: AlgebraSpec
    normalization: str


def _check_mode(spec: AlgebraSpec, i: int) -> None:
    if not isinstance(i, int) or isinstance(i, bool) or not (1 <= i <= spec.n):
        raise ValueError(f"mode index {i!r} out of range 1..{spec.n}")


def prefix_sign(v: Sequence[int], i: int) -> int:
    """Fermionic reordering sign (-1)^(v_1+...+v_{i-1}) for 1-based mode i."""
    return -1 if sum(v[: i - 1]) % 2 else 1


def _bumped(v: OccupationVector, i: int, delta: int) -> OccupationVector:
    return v[: i - 1] + (v[i - 1] + delta,) + v[i:]


class FockSpace:
    """Everything the checks, models and CLI read of one capped Fock space.

    Holds the basis, its rank index, the grade of each basis vector, the
    grade offsets, the Gram form, and the ladder operators (per mode and
    normalization), the number operator (per normalization) and the exact
    bilinears e_ij.  Each is built on first use and at most once.  Obtain
    spaces through fock_space(spec), which shares one per spec; the matrices
    it hands out are shared by every caller and must not be mutated.
    """

    def __init__(self, spec: AlgebraSpec):
        self.spec = spec
        self._operators: dict[tuple, MonomialMatrix] = {}

    @cached_property
    def basis(self) -> list[OccupationVector]:
        return enumerate_basis(self.spec)

    @cached_property
    def index(self) -> dict[OccupationVector, int]:
        return {v: r for r, v in enumerate(self.basis)}

    @cached_property
    def grades(self) -> list[int]:
        """Total occupation of each basis vector, by rank (from the enumeration)."""
        return [sum(v) for v in self.basis]

    @cached_property
    def offsets(self) -> list[int]:
        return grade_offsets(self.spec)

    @cached_property
    def gram(self) -> MonomialMatrix:
        """The Gram form G as a diagonal operator, integer coefficients over
        one common denominator: at v of grade k = |v|,

            Fermi:  G(v, v) = <v|v> = p! / (p^k (p-k)!)
            Bose:   G(v, v) = <v|v> = p! * prod_i v_i! / (p^k (p-k)!)

        The grade factor is one value per grade; the Bose product is an
        integer diagonal."""
        p = self.spec.p
        G = grade_diagonal(self, lambda k: Fraction(factorial(p), p ** k * factorial(p - k)))
        if self.spec.kind is Kind.BOSE:
            dim = len(self.basis)
            G = G @ MonomialMatrix(dim, range(dim), [math.prod(map(factorial, v))
                                                     for v in self.basis], 1, G.tag)
        return G

    def ladder(self, i: int, delta: int, normalization: str = UNNORMALIZED) -> MonomialMatrix:
        """a_i^+ (delta = +1) or a_i^- (delta = -1) in the given normalization.

        ORTHONORMAL builds the operator straight from its action on
        orthonormal vectors, at grade k = |v|:
            a_i^+  Fermi (1-v_i)*sign_i(v)*sqrt((p-k)/p),  Bose sqrt((v_i+1)(p-k)/p)
            a_i^-  Fermi v_i*sign_i(v)*sqrt((p-k+1)/p),    Bose sqrt(v_i(p-k+1)/p)
        This route never touches the Gram form, so it is the oracle that
        normalize() is checked against.
        """
        _check_mode(self.spec, i)
        if delta not in (+1, -1) or normalization not in (UNNORMALIZED, ORTHONORMAL):
            raise ValueError(f"no ladder operator with delta={delta!r}, {normalization!r}")
        return self._memo(_ladder_matrix, i, delta, normalization)

    def number(self, normalization: str = UNNORMALIZED) -> MonomialMatrix:
        return self._memo(_number_matrix, normalization)

    def bilinear(self, i: int, j: int) -> MonomialMatrix:
        """Exact e_ij = p*{a_i^+, a_j^-} (Fermi) / p*[a_i^+, a_j^-] (Bose)."""
        _check_mode(self.spec, i)
        _check_mode(self.spec, j)
        return self._memo(_bilinear_matrix, i, j)

    def _memo(self, kernel, *args) -> MonomialMatrix:
        key = (kernel, *args)
        op = self._operators.get(key)
        if op is None:
            op = self._operators[key] = kernel(self, *args)
        return op


@lru_cache(maxsize=SPACE_CACHE_SIZE)
def fock_space(spec: AlgebraSpec) -> FockSpace:
    """The FockSpace of spec, shared by every caller while it stays cached."""
    return FockSpace(spec)


# Empties the fock_space cache.  Bound once, here, so that it still works where the name
# fock_space is later rebound to a plain wrapper (the benchmark's tracer wraps every
# public function, and a wrapper has no cache_clear).
clear_space_cache = fock_space.cache_clear


def _ladder_matrix(space: FockSpace, i: int, delta: int, normalization: str) -> MonomialMatrix:
    # One walk v -> w = v + delta*e_i for all four ladder operators; w is
    # admissible exactly when it is in the index.  With u the one of v, w that
    # holds more quanta, the orthonormal entry is sign*sqrt(u_i (p-|u|+1)/p)
    # either way: the oracle route of FockSpace.ladder, compared with
    # normalize() by check_backend_agreement (acceptance criterion 8).  The
    # unnormalized basis puts the whole square on a_i^-, as the integer
    # sign*v_i*(p-|v|+1) over the denominator p, and 1 on a_i^+.
    spec, index, p = space.spec, space.index, space.spec.p
    targets, coefs = [], []
    for v in space.basis:
        w = _bumped(v, i, delta)
        row = index.get(w, -1)
        sign = prefix_sign(v, i) if spec.kind is Kind.FERMI else 1
        if row < 0:
            coef = 0
        elif normalization == ORTHONORMAL:
            coef = sign * _orthonormal_magnitude(w if delta > 0 else v, i, p)
        elif delta > 0:
            coef = sign
        else:
            coef = sign * v[i - 1] * (p - sum(v) + 1)
        targets.append(row)
        coefs.append(coef)
    denom = p if normalization == UNNORMALIZED and delta < 0 else 1
    return MonomialMatrix(len(index), targets, coefs, denom, BasisTag(spec, normalization))


def _orthonormal_magnitude(u: Sequence[int], i: int, p: int) -> float:
    """|<u|a_i^+|u - e_i>| = |<u - e_i|a_i^-|u>| on the orthonormal basis:
    sqrt(u_i (p - |u| + 1)/p), which tends to the uncapped sqrt(u_i) as p grows."""
    return math.sqrt(u[i - 1] * (p - sum(u) + 1) / p)


def _number_matrix(space: FockSpace, normalization: str) -> MonomialMatrix:
    return grade_diagonal(space, Fraction if normalization == UNNORMALIZED else float)


def _bilinear_matrix(space: FockSpace, i: int, j: int) -> MonomialMatrix:
    spec = space.spec
    return spec.p * bracket(space.ladder(i, +1), space.ladder(j, -1), spec.kind.anticommuting)


def normalize(op: MonomialMatrix, gram: MonomialMatrix) -> MonomialMatrix:
    """Conjugate an exact operator into the orthonormal basis (float entries).

    entry'(r, c) = entry(r, c) * sqrt(g_r / g_c), the transformation induced
    by |v>> = |v> / sqrt(g_v).  The g share one denominator, so g_r / g_c is
    the ratio of two integer coefficients, which true division rounds
    correctly.
    """
    if op.tag != gram.tag:
        raise ValueError(f"basis tag mismatch: {op.tag!r} vs {gram.tag!r}")
    g = gram.coef
    return op.map_entries(lambda r, c, val: float(val) * math.sqrt(g[r] / g[c]),
                          BasisTag(gram.tag.spec, ORTHONORMAL))


def grade_diagonal(space: FockSpace, func) -> MonomialMatrix:
    """Diagonal operator on space whose entry at v is func(|v|): the number
    operator, polynomials in it and the grade factor of the Gram form.  func
    is called once per grade k = 0..p, and each basis vector takes the value
    of its grade.  A diagonal operator is the same matrix in both bases, so
    the values name its tag: floats the orthonormal one, rationals the
    unnormalized one."""
    values = [func(k) for k in range(space.spec.p + 1)]
    dim = len(space.grades)
    op = MonomialMatrix.from_columns(dim, range(dim), [values[k] for k in space.grades])
    op.tag = BasisTag(space.spec, UNNORMALIZED if op.exact else ORTHONORMAL)
    return op


def operator_json_payload(op: MonomialMatrix) -> dict:
    """JSON-ready export of an operator, entries row-major ascending; the
    spec and the normalization are read from the operator's basis tag."""
    if not isinstance(op.tag, BasisTag):
        raise ValueError(f"cannot export an operator without a basis tag: {op!r}")
    spec, normalization = op.tag.spec, op.tag.normalization
    exact = normalization == UNNORMALIZED
    entries = op.entries()
    if exact and any(isinstance(v, float) for _, _, v in entries):
        raise ValueError(f"float entries in an operator tagged {UNNORMALIZED!r}: "
                         f"exact export needs rational entries: {op!r}")
    # in place, so each (row, col, value) is freed as its export replaces it
    for k, (r, c, v) in enumerate(entries):
        entries[k] = [r, c, v.numerator, v.denominator] if exact else [r, c, float(v)]
    return {
        "spec": {"kind": spec.kind.value, "n": spec.n, "p": spec.p},
        "basis": "graded-lex",
        "normalization": normalization,
        "dims": [op.rows, op.cols],
        "entries": entries,
    }
