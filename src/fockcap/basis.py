"""Occupation-vector bases of the capped Fock spaces.

A basis vector is a tuple of per-mode occupation numbers whose total is at
most the cap p.  Fermi entries are restricted to {0, 1}; Bose entries are
arbitrary nonnegative integers.  The canonical ordering is graded by total
occupation ascending, lexicographic ascending within each grade, so the
number operator is block diagonal with contiguous grade blocks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import comb, log, log1p
from typing import Iterator, Sequence

OccupationVector = tuple[int, ...]


class Kind(str, enum.Enum):
    FERMI = "fermi"
    BOSE = "bose"

    @property
    def anticommuting(self) -> bool:
        """Fermi ladder operators anticommute, Bose ones commute."""
        return self is Kind.FERMI


@dataclass(frozen=True)
class AlgebraSpec:
    """The triple (kind, number of modes n, total-occupation cap p)."""

    kind: Kind
    n: int
    p: int

    def __post_init__(self):
        if not isinstance(self.kind, Kind):
            object.__setattr__(self, "kind", Kind(self.kind))
        # bool is an int subclass: n=True would equal, and hash like, n=1
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"number of modes must be a positive integer, got {self.n!r}")
        if not isinstance(self.p, int) or isinstance(self.p, bool) or self.p < 1:
            raise ValueError(f"occupation cap must be a positive integer, got {self.p!r}")

    @property
    def max_entry(self) -> int:
        return 1 if self.kind is Kind.FERMI else self.p


def fermi_cap_note(spec: AlgebraSpec) -> str | None:
    """Advisory note when a Fermi cap is not binding (p >= n).

    The space then has the full 2**n fermionic dimension, though the
    deformed matrix elements still differ from the ordinary ones.
    """
    if spec.kind is Kind.FERMI and spec.p >= spec.n:
        return (f"fermi cap p={spec.p} >= n={spec.n}: the cap is not binding and the "
                f"space has the full 2^{spec.n} fermionic dimension")
    return None


def validate_vector(spec: AlgebraSpec, v: Sequence[int]) -> OccupationVector:
    """Check admissibility of an occupation vector; return it as a tuple."""
    v = tuple(v)
    if len(v) != spec.n:
        raise ValueError(f"expected {spec.n} modes, got {len(v)}")
    for x in v:
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            raise ValueError(f"occupation numbers must be nonnegative integers, got {x!r}")
        if x > spec.max_entry:
            raise ValueError(f"entry {x} exceeds per-mode maximum {spec.max_entry}")
    if sum(v) > spec.p:
        raise ValueError(f"total occupation {sum(v)} exceeds cap p={spec.p}")
    return v


def _grade_count(kind: Kind, n: int, k: int) -> int:
    # number of admissible vectors on n modes with total exactly k
    if k < 0:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    if kind is Kind.FERMI:
        return comb(n, k) if k <= n else 0
    return comb(n + k - 1, k)


def _grade_vectors(kind: Kind, n: int, k: int) -> Iterator[OccupationVector]:
    # lexicographic ascending within the grade (n >= 1); the last mode takes
    # the remaining total when admissible, so Bose grades cost O(output)
    top = min(k, 1 if kind is Kind.FERMI else k)
    if n == 1:
        if k <= top:
            yield (k,)
        return
    for first in range(0, top + 1):
        for rest in _grade_vectors(kind, n - 1, k - first):
            yield (first,) + rest


def iter_basis(spec: AlgebraSpec) -> Iterator[OccupationVector]:
    """The basis vectors in canonical (graded, then lex) order, one at a time."""
    for k in range(spec.p + 1):
        yield from _grade_vectors(spec.kind, spec.n, k)


def enumerate_basis(spec: AlgebraSpec) -> list[OccupationVector]:
    """All basis vectors in canonical (graded, then lex) order."""
    return list(iter_basis(spec))


def graded_dimensions(spec: AlgebraSpec) -> list[int]:
    """Grade-block sizes d_0..d_p: C(n,k) for Fermi, C(n+k-1,k) for Bose."""
    return [_grade_count(spec.kind, spec.n, k) for k in range(spec.p + 1)]


def dimension(spec: AlgebraSpec) -> int:
    """Total dimension, the sum of the graded dimensions."""
    return sum(graded_dimensions(spec))


def log10_dimension_bound(spec: AlgebraSpec) -> float:
    """A lower bound on log10 of the dimension, formed without any binomial.

    The Bose dimension is C(n+p, p), the sum of the C(n+k-1, k); the Fermi one
    is at least its largest term C(n, min(p, n//2)).  For 0 < b <= a/2 and
    r = b/a, C(a, b) >= exp(a H(r)) / sqrt(8 a r (1-r)) with the entropy
    a H(r) = b (ln(a/b) + g(r)), g(r) = -(1-r) log1p(-r) / r, which has no
    cancellation at any size.  C(a, b) grows with b up to a/2, so b is capped
    at 10**6, where the bound is already far past any printable size.
    """
    n, p = spec.n, spec.p
    a, b = (n + p, min(n, p)) if spec.kind is Kind.BOSE else (n, min(p, n // 2))
    b = min(b, 10 ** 6)
    if b == 0:
        return 0.0
    r = b / a
    g = -(1 - r) * log1p(-r) / r if r > 0 else 1.0  # r underflows only for a past 1e308
    return (b * (log(a) - log(b) + g) - 0.5 * log(8 * b * (1 - r))) / log(10)


def grade_offsets(spec: AlgebraSpec) -> list[int]:
    """Starting rank of each grade block (length p+2, last entry = dimension)."""
    offsets = [0]
    for d in graded_dimensions(spec):
        offsets.append(offsets[-1] + d)
    return offsets


def rank(spec: AlgebraSpec, v: Sequence[int]) -> int:
    """Position of an admissible vector in the canonical ordering.

    Computed combinatorially: vectors of lower grade come first, then the
    lexicographic position within the grade is obtained by counting, for
    every prefix choice smaller than v's, the completions of the remaining
    modes.
    """
    v = validate_vector(spec, v)
    k = sum(v)
    r = sum(_grade_count(spec.kind, spec.n, j) for j in range(k))
    remaining = k
    for j, x in enumerate(v):
        for smaller in range(x):
            r += _grade_count(spec.kind, spec.n - j - 1, remaining - smaller)
        remaining -= x
    return r


def unrank(spec: AlgebraSpec, r: int) -> OccupationVector:
    """Inverse of rank()."""
    dim = dimension(spec)
    if not isinstance(r, int) or isinstance(r, bool) or not (0 <= r < dim):
        raise ValueError(f"rank {r!r} out of range 0..{dim - 1}")
    k = 0
    pos = r
    while True:
        d = _grade_count(spec.kind, spec.n, k)
        if pos < d:
            break
        pos -= d
        k += 1
    out: list[int] = []
    remaining = k
    for j in range(spec.n):
        x = 0
        while True:
            if spec.kind is Kind.FERMI and x > 1:
                raise AssertionError("unrank overran the fermionic entry range")
            cnt = _grade_count(spec.kind, spec.n - j - 1, remaining - x)
            if pos < cnt:
                break
            pos -= cnt
            x += 1
        out.append(x)
        remaining -= x
    return tuple(out)


def basis_csv(spec: AlgebraSpec) -> Iterator[str]:
    """Basis listing as CSV lines with columns rank, total, occ_1..occ_n,
    made as they are read: no list of the basis is built."""
    yield ",".join(["rank", "total"] + [f"occ_{i}" for i in range(1, spec.n + 1)]) + "\n"
    for r, v in enumerate(iter_basis(spec)):
        yield f"{r},{sum(v)},{','.join(map(str, v))}\n"
