"""Fault census: every small fault of a family, each sorted into a class.

The fault catalogue (test_fault_catalogue.py) picks its faults by hand.  A
census takes every fault of a family instead, so that the claim "the
relation suite catches it" is counted rather than argued.  Each fault is one
of four classes:

- detected: some exact run_suite report fails;
- equivalent: the edited ladders are D X D^-1 for a diagonal D, on every
  entry of all 2n of them, so the edit is a change of basis v -> d_v v and
  no relation can see it; D is solved and then checked entry by entry, not
  assumed;
- relabelled: the edit reorders the enumeration, and the edited ladders are
  the clean ones with each rank read through that same reordering, checked
  entry by entry: a permutation of the basis, which no relation can see;
- missed: none of these.  This class must stay empty.

The families:

- pair edits: the a_i^+ entry at (r, c) and the a_i^- entry at (c, r) of
  the unnormalized route, multiplied together by one of FACTORS, so
  hermiticity still holds; over every live entry of every a_i^+ of SPECS;
- enumeration edits: the basis list, at the seam operators.iter_runs, with
  vector j dropped, repeated, or swapped with vector j + 1; over every j of
  ENUMERATION_SPECS;
- whole-model faults: the unnormalized ladders with every live coefficient
  rebuilt from its column vector by a wrong formula (MODEL_FAULTS); over
  MODEL_SPECS;
- N edits: every live entry of the number operator, at the seam
  operators._number_matrix, multiplied by one of ENTRY_FACTORS or plus 1, or
  its target moved to every other rank of its grade; over ENUMERATION_SPECS;
- orthonormal edits: the same entry edits, without the plus 1, made to
  every live entry of every orthonormal a_i^+ and a_i^-, the ladders that
  FockSpace builds straight from their square-root coefficients, classified
  by the float backend of run_suite; over ENUMERATION_SPECS.

An N edit is never equivalent or relabelled: D N D^-1 = N for every
diagonal D, and an edit of N reorders no basis vector.  Nor is an
orthonormal edit: the agreement checks compare each orthonormal ladder with
the normalized exact one entry by entry, in the one basis both are written
in.  So these two families are classified as detected or missed only.

FAMILIES names each family, for tools/census_tables.py, which prints the
per-check tables of them all.
"""

from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from fockcap import AlgebraSpec, Kind, operators, run_suite
from fockcap.operators import ORTHONORMAL, UNNORMALIZED, FockSpace
from fockcap.relations import EXACT, FLOAT
from fockcap.sparse import MonomialMatrix

from conftest import one_vector_runs

SPECS = (AlgebraSpec(Kind.BOSE, 2, 3), AlgebraSpec(Kind.FERMI, 3, 2))
FACTORS = (0, 2, 3, -1)
ENUMERATION_SPECS = SPECS + (AlgebraSpec(Kind.BOSE, 3, 2),)
MODEL_SPECS = ENUMERATION_SPECS + (AlgebraSpec(Kind.FERMI, 3, 3),)
ENTRY_FACTORS = (0, 2, -1)


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


def relabelled(clean, edited, order):
    """Whether order (the clean rank at each edited rank) is a permutation and
    every edited ladder Y is its clean X read through it: Y[s, t] = X[order[s],
    order[t]] on every entry live in either."""
    if sorted(order) != list(range(clean[0].rows)):
        return False
    where = {r: s for s, r in enumerate(order)}
    return all(Y.data == {(where[r], where[c]): x for (r, c), x in X.data.items()}
               for X, Y in zip(clean, edited))


def classify(spec, clean, install, order=None, backend=EXACT):
    """(class, names of the failing checks of run_suite(spec, backend)) of the
    fault that install(mp) puts in place, against the clean ladders of spec;
    order is the reordering of the enumeration that the fault applies, if it
    applies one.  clean is None for a fault that is detected or missed only."""
    with pytest.MonkeyPatch.context() as mp:
        install(mp)
        failed = {rep.relation for rep in run_suite(spec, backend) if not rep.passed}
        if failed or clean is None:
            return "detected" if failed else "missed", failed
        edited = _ladders(FockSpace(spec))
    dim = edited[0].rows
    if dim == clean[0].rows and conjugating_diagonal(clean, edited, dim) is not None:
        return "equivalent", failed
    if order is not None and relabelled(clean, edited, order):
        return "relabelled", failed
    return "missed", failed


def census(spec):
    """(edit, class, names of the failing checks) for every pair edit of spec."""
    clean_space = FockSpace(spec)
    clean = _ladders(clean_space)
    return [(edit, *classify(spec, clean, lambda mp, edit=edit: _install(mp, edit)))
            for edit in pair_edits(clean_space)]


def enumeration_edits(dim):
    """(name, j, edit of a list) for each vector j of a basis of dim vectors."""
    return ([("drop", j, lambda b, j=j: b[:j] + b[j + 1:]) for j in range(dim)]
            + [("repeat", j, lambda b, j=j: b[:j + 1] + b[j:]) for j in range(dim)]
            + [("swap", j, lambda b, j=j: b[:j] + [b[j + 1], b[j]] + b[j + 2:])
               for j in range(dim - 1)])


def enumeration_census(spec):
    """((name, j), class, names of the failing checks) for every enumeration edit
    of spec; an edit's reordering is the edit applied to the list of ranks."""
    clean = _ladders(FockSpace(spec))
    dim = clean[0].rows
    out = []
    for name, j, edit in enumeration_edits(dim):
        def install(mp, edit=edit):
            mp.setattr(operators, "iter_runs", lambda s: one_vector_runs(s, edit))
        out.append(((name, j), *classify(spec, clean, install, edit(list(range(dim))))))
    return out


def _prefix_sign(spec, i, v):
    """sign_i(v) = (-1)^(v_1 + ... + v_{i-1}) for Fermi, 1 for Bose."""
    return (-1) ** sum(v[:i - 1]) if spec.kind is Kind.FERMI else 1


def _clean(spec, i, delta, v):
    """The unnormalized coefficient of the operators.py docstring at column v."""
    magnitude = 1 if delta > 0 else v[i - 1] * Fraction(spec.p - sum(v) + 1, spec.p)
    return _prefix_sign(spec, i, v) * magnitude


def _ordinary(spec, i, delta, v):
    """The ordinary ladders cut off at p: a_i^- without the grade factor (p-k+1)/p."""
    return _prefix_sign(spec, i, v) * (1 if delta > 0 else v[i - 1])


def _grade_off_by_one(spec, i, delta, v):
    """The grade factor (p-k)/p in place of (p-k+1)/p."""
    magnitude = 1 if delta > 0 else v[i - 1] * Fraction(spec.p - sum(v), spec.p)
    return _prefix_sign(spec, i, v) * magnitude


def _suffix_sign(spec, i, delta, v):
    """The Fermi sign read from modes i+1..n: the other Jordan-Wigner ordering."""
    return (-1) ** sum(v[i:]) * abs(_clean(spec, i, delta, v))


MODEL_FAULTS = {"ordinary-ladders": _ordinary, "grade-factor-off-by-one": _grade_off_by_one,
                "fermi-sign-from-later-modes": _suffix_sign}


def _install_model(mp, coefficient):
    """Make the unnormalized ladder kernel rebuild each live coefficient of its
    ladder as coefficient(spec, i, delta, v) from the column vector v."""
    original = operators._ladder_matrix

    def rebuilt(space, i, delta, normalization):
        op = original(space, i, delta, normalization)
        if normalization != UNNORMALIZED:
            return op
        values = [coefficient(space.spec, i, delta, v) if x else 0
                  for v, x in zip(space.basis, op.coef)]
        return MonomialMatrix.from_columns(op.rows, op.target[:-1], values, op.tag)

    mp.setattr(operators, "_ladder_matrix", rebuilt)


def model_census(spec):
    """(fault name, class, names of the failing checks) for every whole-model
    fault of spec; the Fermi sign fault only where there is a sign."""
    clean = _ladders(FockSpace(spec))
    return [(name, *classify(spec, clean, lambda mp, f=fault: _install_model(mp, f)))
            for name, fault in MODEL_FAULTS.items()
            if spec.kind is Kind.FERMI or fault is not _suffix_sign]


def entry_edits(space, op, plus_one):
    """(column, how, x) for every edit of every live entry of op: "times" each
    of ENTRY_FACTORS, "plus" 1 if plus_one, and "move" its target to each
    other rank x of the target's grade."""
    offsets, grades, out = space.offsets, space.grades, []
    for c, (r, x) in enumerate(zip(op.target[:-1], op.coef)):
        if x:
            k = grades[r]
            out += [(c, "times", f) for f in ENTRY_FACTORS] + [(c, "plus", 1)] * plus_one
            out += [(c, "move", s) for s in range(offsets[k], offsets[k + 1]) if s != r]
    return out


def edited_entry(op, c, how, x):
    """op with the entry of column c edited as entry_edits says."""
    targets, coefs = op.target[:-1], op.coef[:-1]
    if how == "times":
        coefs[c] *= x
    elif how == "plus":
        coefs[c] += x * op.denom
    else:
        targets[c] = x
    return MonomialMatrix(op.rows, targets, coefs, op.denom, op.tag)


def number_census(spec):
    """(edit, class, names of the failing checks) for every N edit of spec."""
    space = FockSpace(spec)

    def install(mp, edit):
        original = operators._number_matrix
        mp.setattr(operators, "_number_matrix", lambda s: edited_entry(original(s), *edit))

    return [(edit, *classify(spec, None, lambda mp, edit=edit: install(mp, edit)))
            for edit in entry_edits(space, space.number(), True)]


def orthonormal_census(spec):
    """((i, delta, column, how, x), class, names of the failing float checks)
    for every orthonormal edit of spec."""
    space = FockSpace(spec)

    def install(mp, i, delta, *edit):
        original = operators._ladder_matrix

        def edited(space, j, d, normalization):
            op = original(space, j, d, normalization)
            if (j, d, normalization) != (i, delta, ORTHONORMAL):
                return op
            return edited_entry(op, *edit)

        mp.setattr(operators, "_ladder_matrix", edited)

    edits = [(i, delta, *edit) for i in range(1, spec.n + 1) for delta in (+1, -1)
             for edit in entry_edits(space, space.ladder(i, delta, ORTHONORMAL), False)]
    return [(edit, *classify(spec, None, lambda mp, edit=edit: install(mp, *edit),
                             backend=FLOAT))
            for edit in edits]


def coverage(results):
    """check name -> (edits it detects, edits it alone detects), over results,
    a dict spec -> [(edit, class, names of the failing checks)]."""
    detects, only = Counter(), Counter()
    for rows in results.values():
        for _, _, failed in rows:
            detects.update(failed)
            if len(failed) == 1:
                only.update(failed)
    return {name: (count, only[name]) for name, count in detects.items()}


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


def test_every_enumeration_edit_is_detected_or_relabelled():
    results = {spec: enumeration_census(spec) for spec in ENUMERATION_SPECS}
    classes = Counter(cls for rows in results.values() for _, cls, _ in rows)
    assert sum(classes.values()) == 78
    assert classes == Counter(detected=77, relabelled=1)
    # (0, 2, 0) <-> (1, 0, 1) at bose 3/2: each mode's vectors with w_i >= 1 stay in order
    relabelled = [(spec, edit) for spec, rows in results.items()
                  for edit, cls, _ in rows if cls == "relabelled"]
    assert relabelled == [(ENUMERATION_SPECS[2], ("swap", 6))]
    # number-multiplicity alone sees a repeat of the last vector, which no ladder
    # reaches, and the swap of (0, 1) with (2, 0) at bose 2/3, which only reorders grades
    sole = {(spec, edit): failed for spec, rows in results.items()
            for edit, _, failed in rows if len(failed) == 1}
    assert sole == {**{(spec, ("repeat", FockSpace(spec).offsets[-1] - 1)):
                       {"number-multiplicity"} for spec in ENUMERATION_SPECS},
                    (ENUMERATION_SPECS[0], ("swap", 2)): {"number-multiplicity"}}


def test_every_whole_model_fault_is_detected_or_equivalent():
    # the rebuild itself is faithful: the clean formula gives back the clean ladders
    for spec in MODEL_SPECS:
        clean = _ladders(FockSpace(spec))
        with pytest.MonkeyPatch.context() as mp:
            _install_model(mp, _clean)
            assert _ladders(FockSpace(spec)) == clean
    results = {(spec, name): (cls, failed) for spec in MODEL_SPECS
               for name, cls, failed in model_census(spec)}
    assert len(results) == 10
    for (spec, name), (cls, failed) in results.items():
        if name == "fermi-sign-from-later-modes":
            # D is (-1)^(a parity of v): the two Jordan-Wigner orderings are equivalent
            assert cls == "equivalent", spec
        else:
            assert cls == "detected", (spec, name)
            assert failed == {"adjoint-is-annihilation", "mixed-ladder"}, (spec, name)


def test_every_number_edit_is_detected():
    results = {spec: number_census(spec) for spec in ENUMERATION_SPECS}
    classes = Counter(cls for rows in results.values() for _, cls, _ in rows)
    assert classes == Counter(detected=164)
    moves = sum(how == "move" for rows in results.values() for (_, how, _), _, _ in rows)
    assert moves == 68
    # the three number checks each see every edit, hermiticity the moves; none alone
    assert coverage(results) == {"number-ladder-plus": (164, 0),
                                 "number-ladder-minus": (164, 0),
                                 "number-multiplicity": (164, 0),
                                 "number-self-adjoint": (68, 0)}


def test_every_orthonormal_edit_is_detected_by_the_agreement_checks():
    results = {spec: orthonormal_census(spec) for spec in ENUMERATION_SPECS}
    classes = Counter(cls for rows in results.values() for _, cls, _ in rows)
    assert classes == Counter(detected=341)
    # the exact suite reads no orthonormal ladder: each edit has exactly one detector,
    # the agreement check of the edited ladder
    for rows in results.values():
        for (_, delta, *_), _, failed in rows:
            assert failed == {"orthonormal-agreement-" + ("plus" if delta > 0 else "minus")}
    assert coverage(results) == {"orthonormal-agreement-plus": (196, 196),
                                 "orthonormal-agreement-minus": (145, 145)}


# name -> (the census of one spec, its specs, the backend of run_suite that classifies it)
FAMILIES = {
    "pair": (census, SPECS, EXACT),
    "enumeration": (enumeration_census, ENUMERATION_SPECS, EXACT),
    "whole-model": (model_census, MODEL_SPECS, EXACT),
    "N": (number_census, ENUMERATION_SPECS, EXACT),
    "orthonormal": (orthonormal_census, ENUMERATION_SPECS, FLOAT),
}
