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
operator, read only as the ratio G(r)/G(c) of FockSpace.gram_ratio

    Fermi:  <v|v> = p! / (p^k (p-k)!)
    Bose:   <v|v> = p! * prod_i v_i! / (p^k (p-k)!)

and a_i^+, a_i^- are mutually adjoint for it: (a_i^+)^T G = G a_i^-.

Conjugating by the square roots of the Gram entries yields the orthonormal
backend, whose entries are floats; there the actions carry the familiar
square-root coefficients (see FockSpace.ladder, which also builds the ladders
directly, as the independent route that checks the conjugation).

FockSpace(spec) builds the basis and each operator of a spec
at most once; it is the one way to obtain an operator.  Each entry point
(a suite or a command) builds one space and hands it to the code it calls, so
the space lives exactly as long as that call; no spectrum builds one.

Mode indices are 1-based in every public signature.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, groupby, repeat
from operator import itemgetter, truediv
from typing import Iterator, NamedTuple

from .basis import EXACT, FLOAT  # noqa: F401  (the backends, importable from here as before)
from .basis import (ORTHONORMAL, UNNORMALIZED, AlgebraSpec, Kind, OccupationVector,
                    grade_offsets, iter_runs)
from .sparse import MonomialMatrix, _filled, bracket


class BasisTag(NamedTuple):
    spec: AlgebraSpec
    normalization: str


def _check_mode(spec: AlgebraSpec, i: int) -> None:
    if not isinstance(i, int) or isinstance(i, bool) or not (1 <= i <= spec.n):
        raise ValueError(f"mode index {i!r} out of range 1..{spec.n}")


class FockSpace:
    """Everything the checks and the CLI read of one capped Fock space.

    Holds the basis, the grade of each basis vector, the grade offsets, and
    the ladder operators (per mode and normalization), the exact number
    operator and the exact bilinears e_ij; it gives the Gram form as the
    ratio gram_ratio.  Each is built on first use and at most once.  The
    matrices it hands out are shared by every caller of the space and must
    not be mutated.  The basis, the grades and the ladder walks all read the
    enumeration's runs, listed once by the seam iter_runs (basis.iter_runs),
    so a space asked only for ladders and their products builds no basis
    list; the runs hold the enumeration's (n-1)-mode suffix table (about
    n/(n + top) of the basis for Bose), and a walk holds besides the grade it
    is at and the ranks that still wait from the grade below.  basis is the
    one place that forms whole vectors (a,) + w.
    """

    def __init__(self, spec: AlgebraSpec):
        self.spec = spec
        self._operators: dict[tuple, MonomialMatrix] = {}
        # the rank ints of the enumeration, grown by the ladder walks and shared by
        # them, so the ladders of a space hold one int object per rank between them
        self._ranks: list[int] = []

    @cached_property
    def runs(self) -> list[tuple[int, int, list[OccupationVector]]]:
        """The enumeration as its runs (k, a, row) (see basis._runs), read once."""
        return list(iter_runs(self.spec))

    @cached_property
    def basis(self) -> list[OccupationVector]:
        return [head + w for _, a, row in self.runs for head in ((a,),) for w in row]

    @cached_property
    def grades(self) -> list[int]:
        """Total occupation of each basis vector, by rank: k for each vector of a run."""
        return list(chain.from_iterable(repeat(k, len(row)) for k, _, row in self.runs))

    @cached_property
    def offsets(self) -> list[int]:
        """Starting rank of each grade 0..top (AlgebraSpec.top), then the dimension."""
        return grade_offsets(self.spec._replace(p=self.spec.top))

    def gram_ratio(self, r: int, c: int) -> tuple[int, int]:
        """G(r)/G(c) as two ints (num, den) for the basis vectors u, v of ranks
        r, c: the one place that knows how the Gram form (module docstring) is
        written down.  Its grade factors perm(p, k)/p^k leave
        perm(p-k_c, k_r-k_c)/p^(k_r-k_c) if k_r >= k_c, the inverse otherwise,
        and the Bose products a falling factorial per mode where u and v differ.
        A rank that is not an int in 0..dim-1 (a bool or another int subclass
        too) is refused."""
        grades = self.grades
        dim = len(grades)
        if type(r) is not int or type(c) is not int or not (0 <= r < dim and 0 <= c < dim):
            raise ValueError(f"basis ranks {r!r}, {c!r} out of range 0..{dim - 1}")
        if r == c:
            return 1, 1
        kr, kc, p = grades[r], grades[c], self.spec.p
        num, den = ((math.perm(p - kc, kr - kc), p ** (kr - kc)) if kr >= kc
                    else (p ** (kc - kr), math.perm(p - kr, kc - kr)))
        if self.spec.kind is Kind.BOSE:
            for x, y in zip(self.basis[r], self.basis[c]):
                if x > y:
                    num *= math.perm(x, x - y)
                elif x < y:
                    den *= math.perm(y, y - x)
        return num, den

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
        if (not isinstance(delta, int) or isinstance(delta, bool) or delta not in (+1, -1)
                or normalization not in (UNNORMALIZED, ORTHONORMAL)):
            raise ValueError(f"no ladder operator with delta={delta!r}, {normalization!r}")
        return self._memo(_ladder_matrix, i, delta, normalization)

    def number(self) -> MonomialMatrix:
        """The exact N; its orthonormal form is normalize(space.number(), space)."""
        return self._memo(_number_matrix)

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


def _ladder_matrix(space: FockSpace, i: int, delta: int, normalization: str) -> MonomialMatrix:
    """a_i^+ (delta = +1) or a_i^- (delta = -1), by one walk over the enumeration.

    Let A_k be the vectors v of grade k with v_i below the entry bound and
    k < p, and B_{k+1} the vectors w of grade k + 1 with w_i >= 1.  Then
    v -> v + e_i is a bijection of A_k onto B_{k+1}, and it keeps the
    lexicographic order: v + e_i and v' + e_i first differ where v and v'
    do, and by as much.  Grade k comes wholly before grade k + 1 in the
    enumeration, so the j-th vector of A_k and the j-th vector of B_{k+1}
    are the pair (v, v + e_i).  a_i^+ sends the A vector to the B vector,
    a_i^- the B vector to the A vector; every other column is empty.  No
    v +- e_i is formed and no rank is looked up.  The walk reads the runs
    (k, a, row) of space.runs a grade at a time, v_i being the head
    a (i = 1) or an entry of each suffix in row.  The A_k wait in a list
    keyed by their grade, and the B_{k+1} take them from its front: over a
    faulty enumeration (a vector dropped, repeated or out of its grade)
    grade k pairs only with grade k + 1, and a vector left unpaired holds
    no entry.

    The coefficients are those of the column vector v, at grade k = |v|.
    The Fermi sign_i reads modes 1..i-1, which v and v +- e_i share, so it is
    read on the one of the pair that holds more quanta, the B vector u: the
    parity of its head a and the first i - 2 entries of its suffix.  The
    orthonormal entry is sign*sqrt(u_i (p-|u|+1)/p) either way
    (_orthonormal_magnitude): the oracle route of FockSpace.ladder, compared
    with normalize() by check_backend_agreement (acceptance criterion 8).
    The unnormalized basis puts the whole square on a_i^-, as the integer
    sign*v_i*(p-|v|+1) over the denominator p, and 1 on a_i^+.  So each
    coefficient reads v_i, the grade and that parity; no walk forms a
    vector, and the A_k wait as ranks.
    """
    spec, p, m = space.spec, space.spec.p, i - 1
    fermi, bound = spec.kind is Kind.FERMI, spec.max_entry
    orthonormal = normalization == ORTHONORMAL
    empty = 0.0 if orthonormal else 0  # the coefficient of an empty column
    ranks, targets, coefs = space._ranks, [], []
    waiting: dict[int, list[int]] = {}  # grade k -> ranks of the A_k not paired
    for k, runs in groupby(space.runs, itemgetter(0)):
        column = []  # v_i of each vector of the grade
        signs = []  # sign_i of each B vector of the grade, for Fermi past mode 1
        for _, a, row in runs:
            column += [a] * len(row) if m == 0 else map(itemgetter(m - 1), row)
            if fermi and m:
                signs += [-1 if (a + sum(w[:m - 1])) & 1 else 1 for w in row if w[m - 1]]
        r0, size = len(targets), len(column)
        ranks.extend(range(len(ranks), r0 + size))
        grade = ranks[r0:r0 + size]
        targets += [-1] * size
        coefs += [empty] * size
        # the j-th B pairs with the j-th A waiting; zip stops at the shorter list
        a_ranks, b_ranks = waiting.get(k - 1, []), list(compress(grade, column))
        if orthonormal:
            values = [_orthonormal_magnitude(x, k, p) for x in compress(column, column)]
        elif delta > 0:
            values = repeat(1)
        else:
            values = [x * (p - k + 1) for x in compress(column, column)]
        if signs:
            values = [s * x for s, x in zip(signs, values)]
        cols, rows = (a_ranks, b_ranks) if delta > 0 else (b_ranks, a_ranks)
        for c, r, x in zip(cols, rows, values):
            targets[c] = r
            coefs[c] = x
        del a_ranks[:len(b_ranks)]
        if k < p:  # every v_i <= k is below the bound when k is
            below = repeat(True) if k < bound else [x < bound for x in column]
            waiting.setdefault(k, []).extend(compress(grade, below))
    denom = 1 if orthonormal or delta > 0 else p
    # the lists end in the kernel's empty slot and are handed over, not copied
    targets.append(-1)
    coefs.append(0)
    return _filled(len(targets) - 1, targets, coefs, denom, not orthonormal,
                   BasisTag(spec, normalization))


def _orthonormal_magnitude(x: int, k: int, p: int) -> float:
    """|<u|a_i^+|u - e_i>| = |<u - e_i|a_i^-|u>| on the orthonormal basis, for u
    of grade k with u_i = x: sqrt(x (p - k + 1)/p), which tends to the uncapped
    sqrt(x) as p grows."""
    return math.sqrt(x * (p - k + 1) / p)


def _number_matrix(space: FockSpace) -> MonomialMatrix:
    return grade_diagonal(space, Fraction)


def _bilinear_matrix(space: FockSpace, i: int, j: int) -> MonomialMatrix:
    spec = space.spec
    return spec.p * bracket(space.ladder(i, +1), space.ladder(j, -1), spec.kind.sign)


def normalize(op: MonomialMatrix, space: FockSpace) -> MonomialMatrix:
    """Conjugate an exact operator of space into the orthonormal basis (float entries).

    entry'(r, c) = entry(r, c) * sqrt(G(r) / G(c)), the transformation induced
    by |v>> = |v> / sqrt(G(v)).  space.gram_ratio gives G(r) / G(c) as two
    ints, whose quotient true division rounds correctly."""
    tag = BasisTag(space.spec, UNNORMALIZED)
    if op.tag != tag:
        raise ValueError(f"basis tag mismatch: {op.tag!r} vs {tag!r}")
    return op.map_entries(lambda r, c, v: float(v) * math.sqrt(truediv(*space.gram_ratio(r, c))),
                          BasisTag(space.spec, ORTHONORMAL))


def grade_diagonal(space: FockSpace, func) -> MonomialMatrix:
    """Exact diagonal operator on space whose entry at v is func(|v|): the
    number operator and polynomials in it, such as E_00 and p*Id, tagged
    unnormalized.  func is called once per grade k = 0..top that holds a
    vector, and each basis vector takes the value of its grade."""
    values = [func(k) for k in range(space.spec.top + 1)]
    dim = len(space.grades)
    return MonomialMatrix.from_columns(dim, range(dim), [values[k] for k in space.grades],
                                       BasisTag(space.spec, UNNORMALIZED))


def operator_json_payload(op: MonomialMatrix) -> dict:
    """JSON-ready export of an operator; the spec and the normalization are
    read from the operator's basis tag.  Every check that refuses the
    operator runs here; "entries" is then an iterator of its entries as
    tuples, row-major ascending, made as they are read."""
    if not isinstance(op.tag, BasisTag):
        raise ValueError(f"cannot export an operator without a basis tag: {op!r}")
    spec, normalization = op.tag.spec, op.tag.normalization
    denom = op.denom
    if normalization == UNNORMALIZED:
        if not op.exact and op.nnz:
            raise ValueError(f"float entries in an operator tagged {UNNORMALIZED!r}: "
                             f"exact export needs rational entries: {op!r}")
        # x/denom in lowest terms, as Fraction(x, denom) would hold it (denom > 0)
        entries: Iterator[tuple] = ((r, c, x // g, denom // g) for r, c, x in op._row_major()
                                    for g in (math.gcd(x, denom),))
    else:
        # the encoder would write a non-finite float as Infinity or NaN, which is no JSON.
        # Every coefficient is read: max() skips a NaN that is not first.
        if not op.exact and not all(map(math.isfinite, op.coef)):
            raise ValueError(f"non-finite entries in an operator tagged {normalization!r}: "
                             f"{op!r}")
        entries = ((r, c, x / denom) for r, c, x in op._row_major())
    return {
        "spec": {"kind": spec.kind.value, "n": spec.n, "p": spec.p},
        "basis": "graded-lex",
        "normalization": normalization,
        "dims": [op.rows, op.cols],
        "entries": entries,
    }
