import sys
from collections import Counter
from functools import cached_property

import pytest

from fockcap import AlgebraSpec, Kind, lie, operators, run_lie_suite, run_suite
from fockcap.operators import ORTHONORMAL, UNNORMALIZED, FockSpace
from fockcap.relations import EXACT, FLOAT

SPECS = (AlgebraSpec(Kind.BOSE, 3, 3), AlgebraSpec(Kind.FERMI, 3, 2))


def _count_calls(monkeypatch, owner, name, counts, key):
    """Wrap owner.name under every name that holds it in a fockcap module and
    count its calls by key(*args)."""
    original = getattr(owner, name)

    def counted(*args):
        counts[key(*args)] += 1
        return original(*args)

    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == "fockcap" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)


def _count_basis_lists(monkeypatch, counts):
    """Count the builds of FockSpace.basis by spec, from now on: the one list
    of the basis a space holds (its ladders walk the enumeration themselves)."""
    original = FockSpace.basis.func

    def listed(space):
        counts[space.spec] += 1
        return original(space)

    prop = cached_property(listed)
    prop.__set_name__(FockSpace, "basis")
    monkeypatch.setattr(FockSpace, "basis", prop)


def test_suites_build_each_space_and_operator_once(monkeypatch):
    # each suite call builds its own space: it lists the basis at most once (the
    # grades come from the enumeration's runs, so a suite that reads no vector, such
    # as the Fermi relation suite, lists none) and builds each operator it reads once,
    # and the three calls together read every operator
    enumerations, ladders, numbers, bilinears = Counter(), Counter(), Counter(), Counter()
    _count_basis_lists(monkeypatch, enumerations)
    _count_calls(monkeypatch, operators, "_ladder_matrix", ladders,
                 lambda space, *key: (space.spec, *key))
    _count_calls(monkeypatch, operators, "_number_matrix", numbers,
                 lambda space, norm: (space.spec, norm))
    _count_calls(monkeypatch, operators, "_bilinear_matrix", bilinears,
                 lambda space, i, j: (space.spec, i, j))
    built = {"ladders": set(), "numbers": set(), "bilinears": set()}
    listed = []
    for spec in SPECS:
        for suite, option in ((run_suite, EXACT), (run_suite, FLOAT), (run_lie_suite, "all")):
            for counts in (enumerations, ladders, numbers, bilinears):
                counts.clear()
            suite(spec, option)
            assert enumerations in (Counter(), Counter([spec]))
            listed.append(bool(enumerations))
            for name, counts in (("ladders", ladders), ("numbers", numbers),
                                 ("bilinears", bilinears)):
                assert set(counts.values()) <= {1}, (suite, option, name)
                built[name] |= set(counts)

    # the Bose Gram ratio reads the vectors (every suite), the branching check of lie too
    assert listed == [True, True, True, False, False, True]
    norms = (UNNORMALIZED, ORTHONORMAL)
    assert built["ladders"] == {(spec, i, delta, norm) for spec in SPECS
                                for i in range(1, spec.n + 1) for delta in (+1, -1)
                                for norm in norms}
    assert built["numbers"] == {(spec, norm) for spec in SPECS for norm in norms}
    assert built["bilinears"] == {(spec, i, j) for spec in SPECS
                                  for i in range(1, spec.n + 1) for j in range(1, spec.n + 1)}


def test_a_space_builds_its_number_operator_from_itself(monkeypatch):
    enumerations = Counter()
    _count_basis_lists(monkeypatch, enumerations)
    spec = SPECS[0]
    space = FockSpace(spec)
    for norm in (UNNORMALIZED, ORTHONORMAL):
        assert [space.number(norm).get(r, r) for r in range(len(space.basis))] == space.grades
    assert enumerations == Counter([spec])


def test_lie_suite_builds_the_extended_table_once(monkeypatch):
    tables = Counter()
    _count_calls(monkeypatch, lie, "extended_rescaled_generators", tables,
                 lambda space: space.spec)
    for spec in SPECS:
        run_lie_suite(spec)
    assert tables == Counter(SPECS)


def test_ladder_rejects_unknown_direction_and_normalization():
    space = FockSpace(AlgebraSpec(Kind.BOSE, 2, 3))
    for args in ((1, 2), (1, 0), (1, +1, "float"), (3, +1)):
        with pytest.raises(ValueError):
            space.ladder(*args)
