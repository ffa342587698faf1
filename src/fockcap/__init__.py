"""Fock representations of fermion/boson ladder algebras with a maximal
total-occupation cap, over exact rational arithmetic."""

from .basis import (AlgebraSpec, Kind, OccupationVector, basis_csv, dimension,
                    enumerate_basis, fermi_cap_note, graded_dimensions,
                    grade_offsets, rank, unrank, validate_vector)
from .lie import (check_adjoint_action, check_branching, check_gl_commutators,
                  check_identification, diagonal_action_value,
                  extended_rescaled_generators, gl_generator, run_lie_suite,
                  weight_vector)
from .models import (SpectrumReport, diagonal_hamiltonian, diagonal_spectrum,
                     quadratic_hamiltonian_spectrum, spectrum_of_diagonal,
                     toy_levels, toy_spectrum)
from .operators import (GramForm, adjoint_wrt_gram, build_annihilation,
                        build_creation, build_gram, build_number, gram_value,
                        normalize, operator_json_payload,
                        orthonormal_annihilation, orthonormal_creation,
                        orthonormal_number)
from .relations import (ClassicalLimitReport, RelationReport,
                        check_backend_agreement, check_cap,
                        check_classical_limit, check_hermiticity, check_mixed,
                        check_number, check_pp, check_vacuum_cyclic, run_grid,
                        run_suite)
from .sparse import MonomialMatrix, max_entry_difference
from .thermo import (CharacterPolynomial, character, grand_partition,
                     mean_occupation, occupation_summary, sweep)

__version__ = "0.1.0"
