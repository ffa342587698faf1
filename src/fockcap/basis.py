"""Occupation-vector bases of the capped Fock spaces.

A basis vector is a tuple of per-mode occupation numbers whose total is at
most the cap p.  Fermi entries are restricted to {0, 1}; Bose entries are
arbitrary nonnegative integers.  The canonical ordering is graded by total
occupation ascending, lexicographic ascending within each grade, so the
number operator is block diagonal with contiguous grade blocks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from math import comb, log, log1p
from typing import Iterator

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
    """Grade-block sizes d_0..d_p: C(n,k) for Fermi, C(n+k-1,k) for Bose.

    One running binomial, d_k = d_{k-1} (n-k+1)/k for Fermi (0 past k = n)
    and d_{k-1} (n+k-1)/k for Bose; each division is exact.
    """
    n, fermi = spec.n, spec.kind is Kind.FERMI
    out = [1]
    for k in range(1, spec.p + 1):
        out.append(out[-1] * (n - k + 1 if fermi else n + k - 1) // k)
    return out


def dimension(spec: AlgebraSpec) -> int:
    """Total dimension: C(n+p, p) for Bose, the sum of C(n,k) up to k = min(n, p) for Fermi."""
    if spec.kind is Kind.BOSE:
        return comb(spec.n + spec.p, spec.p)
    return sum(graded_dimensions(replace(spec, p=min(spec.n, spec.p))))


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


def basis_csv(spec: AlgebraSpec) -> Iterator[str]:
    """Basis listing as CSV lines with columns rank, total, occ_1..occ_n,
    made as they are read: no list of the basis is built."""
    yield ",".join(["rank", "total"] + [f"occ_{i}" for i in range(1, spec.n + 1)]) + "\n"
    for r, v in enumerate(iter_basis(spec)):
        yield f"{r},{sum(v)},{','.join(map(str, v))}\n"
