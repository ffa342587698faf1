"""Occupation-vector bases of the capped Fock spaces.

A basis vector is a tuple of per-mode occupation numbers whose total is at
most the cap p.  Fermi entries are restricted to {0, 1}; Bose entries are
arbitrary nonnegative integers.  The canonical ordering is graded by total
occupation ascending, lexicographic ascending within each grade, so the
number operator is block diagonal with contiguous grade blocks.
"""

from __future__ import annotations

import enum
from itertools import count, islice
from math import comb, log, log1p
from typing import Iterator, NamedTuple, Sequence

OccupationVector = tuple[int, ...]
# The option values the command line offers.  Every command imports this module, so
# they live here and the parser loads no other; operators, relations and lie import
# them again by name.
UNNORMALIZED = "unnormalized"
ORTHONORMAL = "orthonormal"
# Backends of the relation and spectrum reports.
EXACT = "exact"
FLOAT = "float"
# The named subsets of the Lie-structure suite (lie.run_lie_suite).
LIE_CHECKS = ("brackets", "identify", "branching")
# Rows of a basis listing, or of any streamed JSON array (cli._dump_json_rows), joined
# into one block of text: about 32 KB of JSON rows.  Blocks of 1024 rows, no faster, made
# a pipe reader's heap grow.
BLOCK_ROWS = 256


class Kind(str, enum.Enum):
    FERMI = "fermi"
    BOSE = "bose"

    @property
    def sign(self) -> int:
        """The exchange sign s: -1 for Fermi (anticommuting), +1 for Bose (commuting)."""
        return -1 if self is Kind.FERMI else 1


class _SpecFields(NamedTuple):
    kind: Kind
    n: int
    p: int


class AlgebraSpec(_SpecFields):
    """The triple (kind, number of modes n, total-occupation cap p).

    A NamedTuple, not a dataclass: importing dataclasses loads inspect and
    more, and every command would pay for it at start-up.
    """

    __slots__ = ()

    def __new__(cls, kind, n, p):
        kind = Kind(kind)
        # bool is an int subclass: n=True would equal, and hash like, n=1
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"number of modes must be a positive integer, got {n!r}")
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise ValueError(f"occupation cap must be a positive integer, got {p!r}")
        return super().__new__(cls, kind, n, p)

    @classmethod
    def _make(cls, iterable):
        """Through __new__, so _replace checks its fields too."""
        return cls(*iterable)

    @property
    def max_entry(self) -> int:
        return 1 if self.kind is Kind.FERMI else self.p

    @property
    def top(self) -> int:
        """The highest grade that holds a vector: min(p, n) for Fermi, p for Bose."""
        return min(self.p, self.n) if self.kind is Kind.FERMI else self.p

    @property
    def grade_steps(self) -> range:
        """The order of k in the in-place mode step c[k] += y c[k-1]: top..1 for
        Fermi, so each step reads the old c[k-1] (a mode adds 1 + y t), and
        1..top for Bose, so it reads the new one (1/(1 - y t))."""
        return range(self.top, 0, -1) if self.kind is Kind.FERMI else range(1, self.top + 1)


def fermi_cap_note(spec: AlgebraSpec) -> str | None:
    """Advisory note when a Fermi cap is not binding (p >= n).

    The space then has the full 2**n fermionic dimension, though the
    deformed matrix elements still differ from the ordinary ones.
    """
    if spec.kind is Kind.FERMI and spec.p >= spec.n:
        return (f"fermi cap p={spec.p} >= n={spec.n}: the cap is not binding and the "
                f"space has the full 2^{spec.n} fermionic dimension")
    return None


def _suffix_table(spec: AlgebraSpec) -> list[list[OccupationVector]]:
    """table[j]: the (n-1)-mode vectors of grade j with entries at most
    max_entry, lexicographic ascending, for j = 0 up to the highest grade
    that holds one (so no row is empty).  The vectors of the space are
    (a,) + w over its rows (see _runs); for Bose it holds n/(n + top) of
    the basis.

    Built grade by grade, by the prefix recursion over compositions (Knuth,
    TAOCP 4A, 7.2.1.3) split at the first nonzero entry: an m-mode vector of
    grade j >= 1 is z zeros, a head h >= 1 and an (m-z-1)-mode tail of grade
    j - h, in lex order by z descending, then h ascending, then the tail.
    A row reads only rows of lower grades, so the top grade is formed for
    the n-1 modes alone; a mode-by-mode build would form it for every m on
    the way, about n/(top + 1) times the table's own work when n is large
    and top small.
    """
    n1, bound = spec.n - 1, spec.max_entry
    top = min(spec.top, n1 * bound)
    rows = [[[(0,) * m]] for m in range(n1 + 1)]  # rows[m][j]: m modes, grade j
    for j in range(1, top + 1):
        for m in range(1 if j < top else n1, n1 + 1):
            rows[m].append([lead + w for lead, tails in _leads(rows, m, j, bound)
                            for w in tails])
    return rows[n1]


def _leads(rows: list[list[list]], m: int, j: int, bound: int) -> Iterator[tuple]:
    """(z zeros and the head h, the tails) of the m-mode vectors of grade j,
    in lex order, over the (z, h) whose tails are nonempty: tails of t modes
    hold grades up to t * bound."""
    for z in range(m - 1, -1, -1):
        t = m - z - 1
        for h in range(max(1, j - t * bound), min(j, bound) + 1):
            yield (0,) * z + (h,), rows[t][j - h]


def _runs(spec: AlgebraSpec, table: list[list]) -> Iterator[tuple[int, int, list]]:
    """(k, a, row) for the runs of the canonical order: grade k ascending,
    then head a ascending, each run the vectors (a,) + w for w in row, the
    row of grade k - a of the suffix table (or of any table with one entry
    per suffix).  a runs over exactly the heads whose row is in the table,
    so n = 1 costs one step per grade, not one per grade below k."""
    last, bound = len(table) - 1, spec.max_entry
    for k in range(spec.top + 1):
        for a in range(max(0, k - last), min(k, bound) + 1):
            yield k, a, table[k - a]


def iter_runs(spec: AlgebraSpec) -> Iterator[tuple[int, int, list[OccupationVector]]]:
    """The canonical order as the runs (k, a, row) of the suffix table (see _runs)."""
    return _runs(spec, _suffix_table(spec))


def graded_dimensions(spec: AlgebraSpec) -> list[int]:
    """Grade-block sizes d_0..d_p: C(n,k) for Fermi, C(n+k-1,k) for Bose.

    One running binomial, d_k = d_{k-1} (n + s(k-1))/k with the exchange sign
    s (0 past k = n for Fermi); each division is exact.
    """
    n, s = spec.n, spec.kind.sign
    out = [1]
    for k in range(1, spec.p + 1):
        out.append(out[-1] * (n + s * (k - 1)) // k)
    return out


def dimension(spec: AlgebraSpec) -> int:
    """Total dimension: C(n+p, p) for Bose, the sum of C(n,k) up to k = top for Fermi."""
    if spec.kind is Kind.BOSE:
        return comb(spec.n + spec.p, spec.p)
    return sum(graded_dimensions(AlgebraSpec(spec.kind, spec.n, spec.top)))


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
    a, b = (n + p, n) if spec.kind is Kind.BOSE else (n, n // 2)
    b = min(b, spec.top, 10 ** 6)
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


def basis_text(spec: AlgebraSpec, parts: Sequence[str]) -> Iterator[str]:
    """The basis listing in blocks of about BLOCK_ROWS rows, made as they are
    read.  The vector v of rank r is the row parts[0], r, parts[1], |v|,
    parts[2], v_1, parts[3], ..., v_n, parts[n + 2].  A block joins the rank
    texts, the text of each run's grade and head (see _runs), formed once per
    run, and the text of each suffix v_2..v_n, formed once per table row."""
    lead = parts[0]
    fill = "".join("{}" + t.replace("{", "{{").replace("}", "}}") for t in parts[4:]).format
    table = [[fill(*w) for w in row] for row in _suffix_table(spec)]
    ranks, top, last = map(str, count()), spec.top, min(spec.top, spec.max_entry)
    texts, suffixes = [], []  # of the rows not yet written
    for k, a, row in _runs(spec, table):
        texts += [f"{parts[1]}{k}{parts[2]}{a}{parts[3]}"] * len(row)
        suffixes += row
        if len(suffixes) >= BLOCK_ROWS or k == top and a == last:  # or the last run
            block = [lead, "", "", ""] * len(suffixes)
            block[1::4] = islice(ranks, len(suffixes))
            block[2::4] = texts
            block[3::4] = suffixes
            yield "".join(block)
            texts, suffixes = [], []


def basis_csv(spec: AlgebraSpec) -> Iterator[str]:
    """Basis listing as CSV with columns rank, total, occ_1..occ_n: the header
    line, then the blocks of lines of basis_text."""
    yield ",".join(["rank", "total"] + [f"occ_{i}" for i in range(1, spec.n + 1)]) + "\n"
    yield from basis_text(spec, ["", *[","] * (spec.n + 1), "\n"])
