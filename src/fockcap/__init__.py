"""Fock representations of fermion/boson ladder algebras with a maximal
total-occupation cap, over exact rational arithmetic."""

from .basis import (AlgebraSpec, Kind, OccupationVector, basis_csv, dimension,
                    enumerate_basis, fermi_cap_note, graded_dimensions,
                    grade_offsets)
from .lie import (check_adjoint_action, check_branching, check_gl_commutators,
                  check_identification, diagonal_action_value,
                  extended_rescaled_generators, run_lie_suite, weight_vector)
from .models import (SpectrumReport, diagonal_hamiltonian, diagonal_spectrum,
                     quadratic_hamiltonian_spectrum, spectrum_of_diagonal,
                     toy_levels, toy_spectrum)
from .operators import fock_space, normalize, operator_json_payload
from .relations import (ClassicalLimitReport, RelationReport,
                        check_backend_agreement, check_cap,
                        check_classical_limit, check_hermiticity, check_mixed,
                        check_number, check_pp, check_vacuum_cyclic, run_grid,
                        run_suite)
from .sparse import MonomialMatrix
from .thermo import (CharacterPolynomial, character, occupation_summary,
                     sweep)

__version__ = "0.1.0"
