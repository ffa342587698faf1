import sys
from collections import Counter

import pytest

from fockcap import (AlgebraSpec, Kind, basis, build_creation, build_gram,
                     operators, run_lie_suite, run_suite)
from fockcap.operators import ORTHONORMAL, UNNORMALIZED, fock_space
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


def test_suites_build_each_space_and_operator_once(monkeypatch, fresh_spaces):
    enumerations, ladders, numbers, bilinears = Counter(), Counter(), Counter(), Counter()
    _count_calls(monkeypatch, basis, "enumerate_basis", enumerations, lambda spec: spec)
    _count_calls(monkeypatch, operators, "_ladder_matrix", ladders,
                 lambda space, *key: (space.spec, *key))
    _count_calls(monkeypatch, operators, "_number_matrix", numbers,
                 lambda space, norm: (space.spec, norm))
    _count_calls(monkeypatch, operators, "_bilinear_matrix", bilinears,
                 lambda space, i, j: (space.spec, i, j))
    for spec in SPECS:
        run_suite(spec, EXACT)
        run_suite(spec, FLOAT)
        run_lie_suite(spec)

    norms = (UNNORMALIZED, ORTHONORMAL)
    assert enumerations == Counter(SPECS)
    assert ladders == Counter((spec, i, delta, norm) for spec in SPECS
                              for i in range(1, spec.n + 1) for delta in (+1, -1)
                              for norm in norms)
    assert numbers == Counter((spec, norm) for spec in SPECS for norm in norms)
    assert bilinears == Counter((spec, i, j) for spec in SPECS
                                for i in range(1, spec.n + 1) for j in range(1, spec.n + 1))


def test_builders_share_the_space_of_equal_specs(fresh_spaces):
    a, b = AlgebraSpec(Kind.BOSE, 2, 3), AlgebraSpec("bose", 2, 3)
    assert fock_space(a) is fock_space(b)
    assert build_creation(a, 1) is build_creation(b, 1)
    assert build_gram(a) is fock_space(b).gram


def test_ladder_rejects_unknown_direction_and_normalization():
    space = fock_space(AlgebraSpec(Kind.BOSE, 2, 3))
    for args in ((1, 2), (1, 0), (1, +1, "float"), (3, +1)):
        with pytest.raises(ValueError):
            space.ladder(*args)
