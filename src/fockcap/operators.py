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

The squared norms of the unnormalized basis form the diagonal Gram form

    Fermi:  <v|v> = p! / (p^k (p-k)!)
    Bose:   <v|v> = p! * prod_i v_i! / (p^k (p-k)!)

Conjugating by the square roots of the Gram entries yields the orthonormal
backend, whose entries are floats; there the actions carry the familiar
square-root coefficients (see orthonormal_creation / orthonormal_annihilation,
which build them directly as an independent construction route).

fock_space(spec) hands out the one FockSpace of a spec, which builds the
basis, the Gram form and each operator at most once for every caller.

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
from .sparse import SparseMatrix

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


@dataclass(frozen=True)
class GramForm:
    """Diagonal of squared norms of the unnormalized basis, all positive."""

    values: tuple[Fraction, ...]
    tag: BasisTag


def _check_mode(spec: AlgebraSpec, i: int) -> None:
    if not isinstance(i, int) or not (1 <= i <= spec.n):
        raise ValueError(f"mode index {i!r} out of range 1..{spec.n}")


def prefix_sign(v: Sequence[int], i: int) -> int:
    """Fermionic reordering sign (-1)^(v_1+...+v_{i-1}) for 1-based mode i."""
    return -1 if sum(v[: i - 1]) % 2 else 1


def _bumped(v: OccupationVector, i: int, delta: int) -> OccupationVector:
    return v[: i - 1] + (v[i - 1] + delta,) + v[i:]


def exact_tag(spec: AlgebraSpec) -> BasisTag:
    return BasisTag(spec, UNNORMALIZED)


def float_tag(spec: AlgebraSpec) -> BasisTag:
    return BasisTag(spec, ORTHONORMAL)


class FockSpace:
    """Everything the builders and checks read of one capped Fock space.

    Holds the basis, its rank index, the grade of each basis vector, the
    grade offsets, the Gram form, and the ladder operators (per mode and
    normalization), the number operator (per normalization) and the exact
    bilinears e_ij.  Each is built on first use and at most once.  Obtain
    spaces through fock_space(spec), which shares one per spec; the matrices
    it hands out are shared by every caller and must not be mutated.
    """

    def __init__(self, spec: AlgebraSpec):
        self.spec = spec
        self._operators: dict[tuple, SparseMatrix] = {}

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
    def gram(self) -> GramForm:
        return GramForm(tuple(gram_value(self.spec, v) for v in self.basis), exact_tag(self.spec))

    def ladder(self, i: int, delta: int, normalization: str = UNNORMALIZED) -> SparseMatrix:
        """a_i^+ (delta = +1) or a_i^- (delta = -1) in the given normalization."""
        _check_mode(self.spec, i)
        if delta not in (+1, -1) or normalization not in (UNNORMALIZED, ORTHONORMAL):
            raise ValueError(f"no ladder operator with delta={delta!r}, {normalization!r}")
        return self._memo(_ladder_matrix, i, delta, normalization)

    def number(self, normalization: str = UNNORMALIZED) -> SparseMatrix:
        return self._memo(_number_matrix, normalization)

    def bilinear(self, i: int, j: int) -> SparseMatrix:
        """Exact e_ij = p*{a_i^+, a_j^-} (Fermi) / p*[a_i^+, a_j^-] (Bose)."""
        _check_mode(self.spec, i)
        _check_mode(self.spec, j)
        return self._memo(_bilinear_matrix, i, j)

    def _memo(self, kernel, *args) -> SparseMatrix:
        key = (kernel, *args)
        op = self._operators.get(key)
        if op is None:
            op = self._operators[key] = kernel(self, *args)
        return op


@lru_cache(maxsize=SPACE_CACHE_SIZE)
def fock_space(spec: AlgebraSpec) -> FockSpace:
    """The FockSpace of spec, shared by every caller while it stays cached."""
    return FockSpace(spec)


def _ladder_matrix(space: FockSpace, i: int, delta: int, normalization: str) -> SparseMatrix:
    # One walk v -> w = v + delta*e_i for all four ladder operators; w is
    # admissible exactly when it is in the index.  With u the one of v, w that
    # holds more quanta, the orthonormal entry is sign*sqrt(u_i (p-|u|+1)/p)
    # either way, taken straight from the action on orthonormal vectors and
    # never from the Gram form: it is the oracle that normalize() is checked
    # against (check_backend_agreement, acceptance criterion 8).  The
    # unnormalized basis puts the whole square on a_i^- and 1 on a_i^+.
    spec, index, p = space.spec, space.index, space.spec.p
    data = {}
    for col, v in enumerate(space.basis):
        w = _bumped(v, i, delta)
        row = index.get(w)
        if row is None:
            continue
        sign = prefix_sign(v, i) if spec.kind is Kind.FERMI else 1
        if normalization == ORTHONORMAL:
            u = w if delta > 0 else v
            data[(row, col)] = sign * math.sqrt(u[i - 1] * (p - sum(u) + 1) / p)
        elif delta > 0:
            data[(row, col)] = Fraction(sign)
        else:
            data[(row, col)] = sign * Fraction(v[i - 1] * (p - sum(v) + 1), p)
    return SparseMatrix(len(index), len(index), data, BasisTag(spec, normalization))


def _number_matrix(space: FockSpace, normalization: str) -> SparseMatrix:
    value = Fraction if normalization == UNNORMALIZED else float
    return grade_diagonal(space.spec, value, normalization=normalization)


def _bilinear_matrix(space: FockSpace, i: int, j: int) -> SparseMatrix:
    up, down = space.ladder(i, +1), space.ladder(j, -1)
    sign = 1 if space.spec.kind is Kind.FERMI else -1
    return space.spec.p * (up @ down + sign * (down @ up))


def build_creation(spec: AlgebraSpec, i: int) -> SparseMatrix:
    """Exact creation operator for mode i on the unnormalized basis."""
    return fock_space(spec).ladder(i, +1)


def build_annihilation(spec: AlgebraSpec, i: int) -> SparseMatrix:
    """Exact annihilation operator for mode i; carries (p-k+1)/p on grade k."""
    return fock_space(spec).ladder(i, -1)


def build_number(spec: AlgebraSpec) -> SparseMatrix:
    """Total number operator: diagonal with entry |v| at each basis vector."""
    return fock_space(spec).number()


def gram_value(spec: AlgebraSpec, v: Sequence[int]) -> Fraction:
    """Squared norm of an unnormalized basis vector."""
    k = sum(v)
    g = Fraction(factorial(spec.p), spec.p ** k * factorial(spec.p - k))
    if spec.kind is Kind.BOSE:
        for x in v:
            g *= factorial(x)
    return g


def build_gram(spec: AlgebraSpec) -> GramForm:
    return fock_space(spec).gram


def normalize(op: SparseMatrix, gram: GramForm) -> SparseMatrix:
    """Conjugate an exact operator into the orthonormal basis (float entries).

    entry'(r, c) = entry(r, c) * sqrt(g_r / g_c), the transformation induced
    by |v>> = |v> / sqrt(g_v).
    """
    if op.tag != gram.tag:
        raise ValueError(f"basis tag mismatch: {op.tag!r} vs {gram.tag!r}")
    spec = gram.tag.spec
    g = gram.values
    data = {
        (r, c): float(val) * math.sqrt(float(g[r] / g[c]))
        for (r, c), val in op.data.items()
    }
    return SparseMatrix(op.rows, op.cols, data, float_tag(spec))


def adjoint_wrt_gram(op: SparseMatrix, gram: GramForm) -> SparseMatrix:
    """Exact adjoint G^-1 op^T G for the diagonal Gram form G."""
    if op.tag != gram.tag:
        raise ValueError(f"basis tag mismatch: {op.tag!r} vs {gram.tag!r}")
    if op.rows != op.cols:
        raise ValueError("adjoint requires a square operator")
    g = gram.values
    data = {(c, r): val * g[r] / g[c] for (r, c), val in op.data.items()}
    return SparseMatrix(op.rows, op.cols, data, op.tag)


def orthonormal_creation(spec: AlgebraSpec, i: int) -> SparseMatrix:
    """Creation operator built directly on the orthonormal basis.

    Coefficients come straight from the action on orthonormal vectors:
    Fermi (1-v_i)*sign*sqrt((p-k)/p), Bose sqrt((v_i+1)(p-k)/p); this route
    never touches the Gram form, so it cross-checks normalize().
    """
    return fock_space(spec).ladder(i, +1, ORTHONORMAL)


def orthonormal_annihilation(spec: AlgebraSpec, i: int) -> SparseMatrix:
    """Annihilation operator built directly on the orthonormal basis.

    Fermi v_i*sign*sqrt((p-k+1)/p), Bose sqrt(v_i(p-k+1)/p) at grade k.
    """
    return fock_space(spec).ladder(i, -1, ORTHONORMAL)


def orthonormal_number(spec: AlgebraSpec) -> SparseMatrix:
    return fock_space(spec).number(ORTHONORMAL)


def grade_diagonal(spec: AlgebraSpec, func, *, normalization: str = UNNORMALIZED) -> SparseMatrix:
    """Diagonal operator whose entry at v is func(|v|); used for scalar
    polynomials in the number operator."""
    values = [func(k) for k in fock_space(spec).grades]
    return SparseMatrix.diagonal(values, BasisTag(spec, normalization))


def operator_json_payload(spec: AlgebraSpec, op: SparseMatrix) -> dict:
    """JSON-ready export of an operator, entries row-major ascending."""
    normalization = op.tag.normalization if isinstance(op.tag, BasisTag) else UNNORMALIZED
    if normalization == UNNORMALIZED:
        entries = [[r, c, v.numerator, v.denominator] for r, c, v in op.entries()]
    else:
        entries = [[r, c, float(v)] for r, c, v in op.entries()]
    return {
        "spec": {"kind": spec.kind.value, "n": spec.n, "p": spec.p},
        "basis": "graded-lex",
        "normalization": normalization,
        "dims": [op.rows, op.cols],
        "entries": entries,
    }
