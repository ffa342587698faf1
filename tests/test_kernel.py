"""The monomial kernel against the dict-of-keys oracle, at suite level.

Every operator FockSpace builds is a MonomialMatrix.  These tests rerun the
suites on SparseMatrix copies (and so on the RowReducer orbit path) and
require the same reports, show that a wrong ladder operator yields failing
reports rather than an exception, and count that a passing suite or command
never leaves the kernel.
"""

from collections import Counter

import pytest

from fockcap import AlgebraSpec, Kind, cli, operators, run_lie_suite, run_suite
from fockcap.operators import FockSpace
from fockcap.relations import EXACT, FLOAT
from fockcap.sparse import MonomialMatrix, RowReducer, SparseMatrix, orbit_ranks

from conftest import bumped, small_grid, stepped


def _suites(spec):
    return run_suite(spec, EXACT), run_suite(spec, FLOAT), run_lie_suite(spec)


def _spec_id(spec):
    return f"{spec.kind.value}-{spec.n}-{spec.p}"


def _hand_out_sparse_copies(monkeypatch):
    original = FockSpace._memo

    def memo(self, kernel, *args):
        op = original(self, kernel, *args)
        return op.to_sparse() if isinstance(op, MonomialMatrix) else op

    monkeypatch.setattr(FockSpace, "_memo", memo)


def _oracle_suites(monkeypatch, spec):
    """The suites of spec on SparseMatrix copies of every FockSpace operator."""
    with monkeypatch.context() as patch:
        _hand_out_sparse_copies(patch)
        assert isinstance(FockSpace(spec).ladder(1, +1), SparseMatrix)
        return _suites(spec)


@pytest.mark.parametrize("spec", small_grid(), ids=_spec_id)
def test_suites_match_the_dict_of_keys_oracle(monkeypatch, spec):
    assert _suites(spec) == _oracle_suites(monkeypatch, spec)


def _skew_first_creation(monkeypatch):
    """a_1^+ maps v to v + e_2 in place of v + e_1 (its coefficients still
    those of mode 1), so its weight is wrong and sums that hold it clash."""
    original = operators._ladder_matrix

    def skewed(space, i, delta, normalization):
        op = original(space, i, delta, normalization)
        if (i, delta) == (1, +1):
            return stepped(space, op, lambda v: bumped(v, 2, +1))
        return op

    monkeypatch.setattr(operators, "_ladder_matrix", skewed)


@pytest.mark.parametrize("spec", [AlgebraSpec(Kind.BOSE, 2, 3), AlgebraSpec(Kind.FERMI, 3, 2),
                                  AlgebraSpec(Kind.BOSE, 3, 2)], ids=_spec_id)
def test_wrong_ladder_fails_with_exact_residuals(monkeypatch, spec):
    _skew_first_creation(monkeypatch)
    got = _suites(spec)
    for reports in got:
        failed = [rep for rep in reports if not rep.passed]
        assert failed
        assert all(rep.residual != 0 for rep in failed)
    assert got == _oracle_suites(monkeypatch, spec)


@pytest.mark.parametrize("spec", small_grid(3, 3), ids=_spec_id)
def test_reachability_is_the_orbit_rank(spec):
    space = FockSpace(spec)
    idx = range(1, spec.n + 1)
    ups = [space.ladder(i, +1) for i in idx]
    downs = [space.ladder(i, -1) for i in idx]
    bilinears = [space.bilinear(i, j) for i in idx for j in idx]
    dim = len(space.basis)
    for generators in (ups + downs, downs, ups, bilinears, bilinears[:1]):
        sparse = [op.to_sparse() for op in generators]
        assert orbit_ranks(generators, range(dim)) == orbit_ranks(sparse, range(dim))


def _count_calls(monkeypatch, targets) -> Counter:
    """Counts of calls to each (class, method name) in targets, from now on."""
    calls = Counter()

    def counting(cls, name):
        original = getattr(cls, name)

        def counted(*args):
            calls[cls.__name__, name] += 1
            return original(*args)

        monkeypatch.setattr(cls, name, counted)

    for cls, name in targets:
        counting(cls, name)
    return calls


def test_passing_suites_stay_in_the_kernel(monkeypatch):
    calls = _count_calls(monkeypatch, ((SparseMatrix, "__matmul__"), (SparseMatrix, "__add__"),
                                       (SparseMatrix, "__sub__"), (RowReducer, "add")))
    for spec in (AlgebraSpec(Kind.BOSE, 3, 3), AlgebraSpec(Kind.FERMI, 3, 2),
                 AlgebraSpec(Kind.BOSE, 2, 4), AlgebraSpec(Kind.FERMI, 4, 4)):
        for reports in _suites(spec):
            assert all(rep.passed for rep in reports)
    assert calls == Counter()


def test_passing_exact_suites_map_no_entries(monkeypatch):
    # hermiticity forms the adjoint (a_i^+ D)^T over integer Gram ratios, with no Fraction map
    calls = _count_calls(monkeypatch, ((MonomialMatrix, "map_entries"),))
    for spec in (AlgebraSpec(Kind.BOSE, 3, 3), AlgebraSpec(Kind.FERMI, 3, 2),
                 AlgebraSpec(Kind.BOSE, 2, 4), AlgebraSpec(Kind.FERMI, 4, 4)):
        assert all(rep.passed for rep in run_suite(spec, EXACT))
    assert calls == Counter()


HOPPING = "[[1.0, -0.5, 0.0], [-0.5, 2.0, 0.25], [0.0, 0.25, 0.5]]"


@pytest.mark.parametrize("command", [
    "dim --kind bose --n 3 --p 3 --json", "basis --kind fermi --n 3 --p 2 --json",
    "ops --kind bose --n 3 --p 3 --op eij --i 1 --j 2",
    "ops --kind fermi --n 3 --p 2 --op create --i 2 --normalization orthonormal",
    "verify --kind bose --n 3 --p 3", "verify --kind fermi --n 3 --p 2 --backend float",
    "verify --grid 2 2", "lie --kind bose --n 3 --p 3", "lie --kind fermi --n 3 --p 2",
    "thermo --kind bose --n 3 --p 3 --beta 1 --mu 0",
    "spectrum --kind bose --n 3 --p 4 --energies 1/2,0,3",
    "spectrum --kind fermi --n 3 --p 2 --energies 1,2,3 --backend float",
    "spectrum --kind bose --n 3 --p 3 --backend float --matrix-file {hopping}",
    "spectrum --kind fermi --n 3 --p 2 --backend float --matrix-file {hopping}",
    "toy --p 10", "toy --p 6 --json"])
def test_passing_commands_construct_no_sparse_matrix(monkeypatch, capsys, tmp_path, command):
    hopping = tmp_path / "hopping.json"
    hopping.write_text(HOPPING)
    calls = _count_calls(monkeypatch, ((SparseMatrix, "__init__"), (RowReducer, "__init__")))
    assert cli.main(command.format(hopping=hopping).split()) == 0
    capsys.readouterr()
    assert calls == Counter()
