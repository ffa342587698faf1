"""Fock representations of fermion/boson ladder algebras with a maximal
total-occupation cap, over exact rational arithmetic.

Each submodule below is registered in sys.modules and as an attribute of the
package, but lazily (importlib.util.LazyLoader): its code runs on first use,
so a command executes only the modules it calls.  The public names re-exported
here resolve through __getattr__ (PEP 562), which loads their module then.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# Each re-exported name, by the submodule that defines it.
_EXPORTS = {name: module for module, names in (
    ("basis", "AlgebraSpec Kind OccupationVector basis_csv dimension fermi_cap_note "
              "graded_dimensions grade_offsets"),
    ("lie", "check_adjoint_action check_branching check_gl_commutators check_identification "
            "diagonal_action_value extended_rescaled_generators run_lie_suite weight_vector"),
    ("models", "diagonal_level_counts diagonal_spectrum quadratic_hamiltonian_spectrum "
               "toy_levels toy_spectrum"),
    ("operators", "FockSpace normalize operator_json_payload"),
    ("relations", "ClassicalLimitReport RelationReport check_backend_agreement check_cap "
                  "check_classical_limit check_hermiticity check_mixed check_number check_pp "
                  "check_vacuum_cyclic run_grid run_suite"),
    ("sparse", "MonomialMatrix"),
    ("thermo", "CharacterPolynomial character occupation_summary sweep"),
) for name in names.split()}


def _lazy(name: str):
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)  # only marks the module to load on first use
    return module


for _name in dict.fromkeys(_EXPORTS.values()):
    globals()[_name] = _lazy(_name)
del _name


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], name)


def __dir__() -> list[str]:
    return sorted([*globals(), *_EXPORTS])


__version__ = "0.1.0"
