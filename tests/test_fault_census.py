"""Fault census: every small fault of one family, each sorted into a class.

The fault catalogue (test_fault_catalogue.py) picks its faults by hand.  A
census takes every fault of a family instead, so that the claim "the
relation suite catches it" is counted rather than argued.  Each fault is one
of three classes:

- detected: some exact run_suite report fails;
- equivalent: the edited ladders are D X D^-1 for a diagonal D, on every
  entry of all 2n of them, so the edit is a change of basis v -> d_v v and
  no relation can see it; D is solved and then checked entry by entry, not
  assumed;
- missed: neither.  This class must stay empty.

The family here is the adjoint-consistent pair edit: the a_i^+ entry at
(r, c) and the a_i^- entry at (c, r) of the unnormalized route, multiplied
together by one of FACTORS, so hermiticity still holds.  It runs over every
live entry of every a_i^+ of SPECS.
"""

from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from fockcap import AlgebraSpec, Kind, operators, run_suite
from fockcap.operators import UNNORMALIZED, FockSpace
from fockcap.sparse import MonomialMatrix

SPECS = (AlgebraSpec(Kind.BOSE, 2, 3), AlgebraSpec(Kind.FERMI, 3, 2))
FACTORS = (0, 2, 3, -1)


def pair_edits(space):
    """(i, r, c, factor) for each live entry (r, c) of each a_i^+ and each factor."""
    return [(i, r, c, factor) for i in range(1, space.spec.n + 1)
            for r, c in space.ladder(i, +1).data for factor in FACTORS]


def _install(mp, edit):
    """Make the unnormalized ladder kernel apply edit to a_i^+ and a_i^-."""
    i, r, c, factor = edit
    original = operators._ladder_matrix

    def edited(space, j, delta, normalization):
        op = original(space, j, delta, normalization)
        if j != i or normalization != UNNORMALIZED:
            return op
        col, row = (c, r) if delta > 0 else (r, c)
        assert op.target[col] == row and op.coef[col], edit  # the pair is adjoint
        coefs = op.coef[:-1]
        coefs[col] *= factor
        return MonomialMatrix(op.rows, op.target[:-1], coefs, op.denom, op.tag)

    mp.setattr(operators, "_ladder_matrix", edited)


def _ladders(space):
    return [space.ladder(i, delta) for i in range(1, space.spec.n + 1) for delta in (+1, -1)]


def conjugating_diagonal(clean, edited, dim):
    """The diagonal d (d_0 = 1 at the vacuum) with Y = D X D^-1 on every entry
    of every pair (X, Y) of clean and edited ladders, or None if there is none.

    Y_rc = d_r X_rc / d_c, so each entry live in both fixes d_r from d_c and
    back; d is read along those links from the vacuum, then every entry of
    every pair, live in either, is checked against it."""
    links = defaultdict(list)
    for X, Y in zip(clean, edited):
        for (r, c), x in X.data.items():
            y = Y.get(r, c)
            if y:
                links[c].append((r, Fraction(y) / x))
                links[r].append((c, x / Fraction(y)))
    d, frontier = {0: Fraction(1)}, [0]
    while frontier:
        c = frontier.pop()
        for r, ratio in links[c]:
            if r not in d:
                d[r] = d[c] * ratio
                frontier.append(r)
    if len(d) != dim:
        return None
    for X, Y in zip(clean, edited):
        for r, c in X.data.keys() | Y.data.keys():
            if Y.get(r, c) * d[c] != d[r] * X.get(r, c):
                return None
    return d


def census(spec):
    """(edit, class, names of the failing checks) for every pair edit of spec."""
    clean_space = FockSpace(spec)
    clean = _ladders(clean_space)
    out = []
    for edit in pair_edits(clean_space):
        with pytest.MonkeyPatch.context() as mp:
            _install(mp, edit)
            failed = {rep.relation for rep in run_suite(spec) if not rep.passed}
            if failed:
                cls = "detected"
            else:
                space = FockSpace(spec)
                equivalent = conjugating_diagonal(clean, _ladders(space), len(space.grades))
                cls = "missed" if equivalent is None else "equivalent"
        out.append((edit, cls, failed))
    return out


def test_every_pair_edit_is_detected_or_equivalent():
    results = {spec: census(spec) for spec in SPECS}
    classes = Counter(cls for rows in results.values() for _, cls, _ in rows)
    assert classes["missed"] == 0
    assert classes == Counter(detected=82, equivalent=2)
    # the negation of the one entry into a top-grade vector that only one mode
    # reaches, (3, 0) or (0, 3) at bose 2/3: the change of basis w -> -w there
    equivalent = {(spec, edit) for spec, rows in results.items()
                  for edit, cls, _ in rows if cls == "equivalent"}
    assert equivalent == {(SPECS[0], (1, 9, 5, -1)), (SPECS[0], (2, 6, 3, -1))}
    # the checks that are the only detector of some edit: ×2 and ×3 of those same pairs
    sole = Counter(name for rows in results.values() for _, _, failed in rows
                   if len(failed) == 1 for name in failed)
    assert sole == Counter({"mixed-ladder": 4})


def test_the_conjugating_diagonal_is_checked_not_assumed():
    spec = SPECS[0]
    space = FockSpace(spec)
    clean = _ladders(space)
    dim = len(space.grades)
    d = conjugating_diagonal(clean, clean, dim)
    assert d == {r: 1 for r in range(dim)}
    # doubling a pair can be solved along one path to its vector but not along another
    with pytest.MonkeyPatch.context() as mp:
        _install(mp, (1, 4, 1, 2))
        assert conjugating_diagonal(clean, _ladders(FockSpace(spec)), dim) is None
