"""Fault catalogue: single injected faults, and the commands that catch them.

Each fault is patched into one place of the construction, where a bug would
sit, on one of three routes:

- ``unnormalized``: the rational ladder and number operators and the Gram
  form, which the exact relation suite reads;
- ``orthonormal``: the float ladder and number operators that FockSpace
  builds straight from their square-root coefficients, which only the
  orthonormal agreement checks and the float bracket table of ``lie`` read;
- ``shared``: what both routes are built from, the walk that pairs v with
  v +- e_i, its Fermi sign, and the basis enumeration that FockSpace.basis
  and the walk both read; a ladder fault on this route is the same edit made
  to both normalizations.

Every fault runs through ``cli.main`` on ``verify``, ``verify --backend
float`` and ``lie`` for each catalogue spec it applies to.  No run may end
in an exception or a usage error.  ``verify --backend float`` is the exact
suite plus ``orthonormal-agreement-*``, so it must fail on every spec where
``verify`` or ``lie`` fails, and on at least one spec for every fault.  A
fault on the unnormalized or shared route must make the exact ``verify``
exit 1 on every spec; a fault on the orthonormal route leaves it at 0 and is
caught by the agreement checks alone.  Every check that ``verify`` or
``lie`` reports fails on at least one fault-spec pair.  FALLBACKS names, for
each fault, the dict-of-keys fallbacks of the kernel its runs take: what a
deletion of SparseMatrix and RowReducer would have to replace.
"""

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import pytest

from fockcap import AlgebraSpec, Kind, cli, operators
from fockcap.operators import ORTHONORMAL, UNNORMALIZED, grade_diagonal
from fockcap.sparse import MonomialMatrix, RowReducer, SparseMatrix

from conftest import bumped, one_vector_runs, stepped

SPECS = (AlgebraSpec(Kind.BOSE, 2, 3), AlgebraSpec(Kind.FERMI, 3, 2),
         AlgebraSpec(Kind.BOSE, 3, 2), AlgebraSpec(Kind.FERMI, 3, 3))
COMMANDS = {"verify": ("verify",), "verify-float": ("verify", "--backend", "float"),
            "lie": ("lie",)}
SHARED = "shared"
# the normalizations a ladder or number fault on each route edits
EDITED = {UNNORMALIZED: (UNNORMALIZED,), ORTHONORMAL: (ORTHONORMAL,),
          SHARED: (UNNORMALIZED, ORTHONORMAL)}
GRADE = 1  # the grade that grade faults change: every spec has it, and grades on both sides


@dataclass(frozen=True)
class Fault:
    name: str
    route: str
    install: Callable  # install(monkeypatch) patches the fault in
    fermi_only: bool = False

    def applies(self, spec: AlgebraSpec) -> bool:
        return spec.kind is Kind.FERMI or not self.fermi_only


def _edited(op: MonomialMatrix, cols, factor=1, move=None) -> MonomialMatrix:
    """op with the coefficient of each column in cols times factor, and its
    target r moved to move(r)."""
    targets, coefs = op.target[:-1], op.coef[:-1]
    for c in cols:
        coefs[c] *= factor
        if move is not None:
            targets[c] = move(targets[c])
    return MonomialMatrix(op.rows, targets, coefs, op.denom, op.tag)


def _live(op: MonomialMatrix) -> list[int]:
    return [c for c, x in enumerate(op.coef[:-1]) if x]


def _scale_grade(space, op):
    return _edited(op, [c for c in _live(op) if space.grades[c] == GRADE], 2)


def _scale_entry(space, op):
    return _edited(op, _live(op)[-1:], 3)


def _move_target(space, op):
    grades = space.grades

    def neighbour(r):
        return r + 1 if r + 1 < len(grades) and grades[r + 1] == grades[r] else r - 1

    col = next(c for c in _live(op)
               if grades[neighbour(op.target[c])] == grades[op.target[c]])
    return _edited(op, [col], move=neighbour)


def _flip_sign(space, op):
    return _edited(op, _live(op), -1)


def _ladder_fault(edit, i, delta, route):
    def install(mp):
        original = operators._ladder_matrix

        def faulty(space, j, d, normalization):
            op = original(space, j, d, normalization)
            if (j, d) == (i, delta) and normalization in EDITED[route]:
                return edit(space, op)
            return op

        mp.setattr(operators, "_ladder_matrix", faulty)
    return install


def _double_step(i, delta):
    """a_i^+ (delta = +1) or a_i^- (delta = -1) steps v -> v + 2*delta*e_i: each
    entry of the built operator moved to that row of the test-side rank map."""
    return _ladder_fault(lambda space, op: stepped(space, op, lambda v: bumped(v, i, 2 * delta)),
                         i, delta, SHARED)


def _off_by_one(space, op):
    """N is one more than the grade on grade GRADE."""
    one = Fraction(1) if op.exact else 1.0
    return op + grade_diagonal(space, lambda k: one if k == GRADE else 0 * one)


def _number_fault(edit, route):
    def install(mp):
        original = operators._number_matrix

        def faulty(space, normalization):
            op = original(space, normalization)
            return edit(space, op) if normalization in EDITED[route] else op

        mp.setattr(operators, "_number_matrix", faulty)
    return install


def _prefix_sign_fault(stop):
    """The Fermi sign of mode i counts the occupations of modes 1..stop(i), not
    1..i-1: every Fermi ladder, in both normalizations, with the entry of each
    column v times the wrong sign over the right one, both read on v."""
    def install(mp):
        original = operators._ladder_matrix

        def faulty(space, i, delta, normalization):
            op = original(space, i, delta, normalization)
            if space.spec.kind is not Kind.FERMI:
                return op
            basis = space.basis
            return _edited(op, [c for c in _live(op)
                                if (sum(basis[c][:stop(i)]) - sum(basis[c][:i - 1])) % 2], -1)

        mp.setattr(operators, "_ladder_matrix", faulty)
    return install


def _gram_fault(mp):
    """The Gram value of every vector of grade GRADE doubled, in the ratio
    G(r)/G(c) that every reader of the Gram form takes."""
    original = operators.FockSpace.gram_ratio

    def gram_ratio(space, r, c):
        num, den = original(space, r, c)
        return (2 * num if space.grades[r] == GRADE else num,
                2 * den if space.grades[c] == GRADE else den)

    mp.setattr(operators.FockSpace, "gram_ratio", gram_ratio)


def _cap_fault(mp):
    """The orthonormal coefficients of the cap p + 1 on the space of cap p."""
    original = operators._orthonormal_magnitude
    mp.setattr(operators, "_orthonormal_magnitude", lambda x, k, p: original(x, k, p + 1))


def _enumeration_fault(edit):
    """The enumeration that FockSpace.basis and the ladder walk both read, edited,
    as one-vector runs at their seam operators.iter_runs."""
    def install(mp):
        mp.setattr(operators, "iter_runs", lambda spec: one_vector_runs(spec, edit))
    return install


def _faults() -> list[Fault]:
    faults = []
    for kind, edit in (("scale-grade", _scale_grade), ("scale-entry", _scale_entry),
                       ("move-target", _move_target), ("flip-sign", _flip_sign)):
        for i, delta in ((1, +1), (2, -1)):
            for route in (UNNORMALIZED, ORTHONORMAL, SHARED):
                name = f"{kind}-a{i}{'+' if delta > 0 else '-'}-{route}"
                faults.append(Fault(name, route, _ladder_fault(edit, i, delta, route)))
    faults += [Fault(f"number-off-by-one-{route}", route, _number_fault(_off_by_one, route))
               for route in (UNNORMALIZED, ORTHONORMAL, SHARED)]
    faults += [
        Fault("double-step-a1+", SHARED, _double_step(1, +1)),
        Fault("double-step-a2-", SHARED, _double_step(2, -1)),
        Fault("move-target-N-unnormalized", UNNORMALIZED,
              _number_fault(_move_target, UNNORMALIZED)),
        Fault("prefix-sign-includes-own-mode", SHARED, _prefix_sign_fault(lambda i: i), True),
        Fault("prefix-sign-skips-previous-mode", SHARED,
              _prefix_sign_fault(lambda i: max(i - 2, 0)), True),
        Fault("gram-grade", UNNORMALIZED, _gram_fault),
        Fault("cap-plus-one", ORTHONORMAL, _cap_fault),
        Fault("enumeration-drops-vector", SHARED, _enumeration_fault(lambda b: b[:1] + b[2:])),
        Fault("enumeration-repeats-vector", SHARED, _enumeration_fault(lambda b: b[:2] + b[1:])),
        Fault("enumeration-swaps-grades", SHARED,
              _enumeration_fault(lambda b: [b[1], b[0]] + b[2:])),
    ]
    return faults


FAULTS = _faults()


def failing_checks(command: str, spec: AlgebraSpec) -> set[str]:
    """The names of the checks that fail in `command --json` on spec, run
    through cli.main, which builds its own space; the exit code must say the same."""
    argv = [*COMMANDS[command], "--kind", spec.kind.value, "--n", str(spec.n),
            "--p", str(spec.p), "--json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1), (argv, code, err.getvalue())
    failed = {rep["relation"] for rep in json.loads(out.getvalue()) if not rep["pass"]}
    assert code == (1 if failed else 0), (argv, code)
    return failed


def run_fault(fault: Fault) -> dict[AlgebraSpec, dict[str, set[str]]]:
    """The failing checks of every command on every spec the fault applies to."""
    results = {}
    for spec in filter(fault.applies, SPECS):
        with pytest.MonkeyPatch.context() as mp:
            fault.install(mp)
            results[spec] = {command: failing_checks(command, spec) for command in COMMANDS}
    return results


def _fallbacks(mp) -> set[str]:
    """Record which dict-of-keys fallback of the kernel each call from now on takes."""
    taken = set()

    def spy(cls, name, label, took):
        original = getattr(cls, name)

        def spied(*args):
            out = original(*args)
            if took(args, out):
                taken.add(label)
            return out

        mp.setattr(cls, name, spied)

    spy(MonomialMatrix, "_plus", "sum-clash",
        lambda args, out: isinstance(out, SparseMatrix) and isinstance(args[1], MonomialMatrix))
    spy(MonomialMatrix, "transpose", "transpose-row-clash",
        lambda args, out: isinstance(out, SparseMatrix))
    spy(RowReducer, "add", "non-monomial-orbit", lambda args, out: True)
    return taken


# SparseMatrix and RowReducer keep a wrong operator's residuals exact where the
# monomial kernel cannot hold them: a sum whose terms put one column in two rows
# (sum-clash), a transpose with two entries in one row, and the orbit of
# operators that are not monomial.  These are the catalogue faults that need them.
FALLBACKS = {
    "move-target-a1+-unnormalized": {"sum-clash", "non-monomial-orbit"},
    "move-target-a1+-orthonormal": {"sum-clash"},
    "move-target-a1+-shared": {"sum-clash", "non-monomial-orbit"},
    "move-target-a2--unnormalized": {"sum-clash", "non-monomial-orbit"},
    "move-target-a2--orthonormal": {"sum-clash"},
    "move-target-a2--shared": {"sum-clash", "non-monomial-orbit"},
    "enumeration-drops-vector": {"sum-clash", "non-monomial-orbit"},
    "enumeration-repeats-vector": {"sum-clash", "non-monomial-orbit"},
    "double-step-a1+": {"sum-clash"},
    "double-step-a2-": {"sum-clash"},
    "move-target-N-unnormalized": {"sum-clash", "transpose-row-clash"},
}


@pytest.mark.parametrize("fault", FAULTS, ids=lambda fault: fault.name)
def test_every_fault_is_caught(monkeypatch, fault):
    taken = _fallbacks(monkeypatch)
    results = run_fault(fault)
    assert any(failed["verify-float"] for failed in results.values())
    for spec, failed in results.items():
        assert failed["verify"] <= failed["verify-float"], spec
        if failed["verify"] or failed["lie"]:
            assert failed["verify-float"], spec
        if fault.route == ORTHONORMAL:
            assert not failed["verify"], spec
            assert all(name.startswith("orthonormal-agreement-")
                       for name in failed["verify-float"]), spec
        else:
            assert failed["verify"], spec
    assert taken == FALLBACKS.get(fault.name, set())


def _report_names(command: str, spec: AlgebraSpec) -> set[str]:
    """The names of every check that `command --json` reports on spec."""
    argv = [*COMMANDS[command], "--kind", spec.kind.value, "--n", str(spec.n),
            "--p", str(spec.p), "--json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return {rep["relation"] for rep in json.loads(out.getvalue())}


@pytest.mark.parametrize("command", ["verify", "lie"])
def test_every_check_fails_on_some_catalogue_pair(command):
    reported = set().union(*(_report_names(command, spec) for spec in SPECS))
    failed = set()
    for fault in FAULTS:
        with pytest.MonkeyPatch.context() as mp:
            fault.install(mp)
            for spec in filter(fault.applies, SPECS):
                failed |= failing_checks(command, spec)
    assert reported - failed == set()
