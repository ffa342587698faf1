import gc
import itertools
import weakref

import pytest

from fockcap import AlgebraSpec, FockSpace, Kind


def small_grid(n_max=4, p_max=4):
    """Every spec with n <= n_max, p <= p_max, both kinds."""
    return [AlgebraSpec(kind, n, p)
            for kind in (Kind.FERMI, Kind.BOSE)
            for n in range(1, n_max + 1)
            for p in range(1, p_max + 1)]


def brute_basis(spec):
    """Independent enumeration oracle: filter the full product lattice."""
    top = 1 if spec.kind is Kind.FERMI else spec.p
    vectors = [v for v in itertools.product(range(top + 1), repeat=spec.n)
               if sum(v) <= spec.p]
    return sorted(vectors, key=lambda v: (sum(v), v))


@pytest.fixture
def built_spaces(monkeypatch):
    """Weak references to every FockSpace built while the test runs."""
    refs = []
    init = FockSpace.__init__

    def recorded(self, spec):
        init(self, spec)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(FockSpace, "__init__", recorded)
    return refs


def alive(refs):
    """The spaces of refs that a full garbage collection leaves alive."""
    gc.collect()
    return [space for space in (ref() for ref in refs) if space is not None]
