"""Young integration and differential systems driven by finite
p-variation paths, 1 <= p < 2.

Core objects: SampledPath (grid paths), p_variation (optimal-partition
dynamic program), young_integral (tagged sums with certified error
bounds), solve_yde / solve_flow (Euler schemes with Jacobian
propagation), residual checks for the change-of-variable identities,
flow composition, and first-order systems solved by characteristics.
"""

from .paths import (Partition, PathError, SampledPath, VariationResult,
                    dyadic_prefix, dyadic_steps, holder_norm, p_variation,
                    p_variation_norm)
from .integrate import (DimensionMismatch, IntegralResult, YoungConditionError,
                        indefinite_integral, young_integral, young_loeve_bound)
from .drivers import (DeterministicSpec, FbmSpec, GenerationError,
                      ResourceError, fbm_increment_covariance,
                      fbm_value_covariance, gen_deterministic, gen_fbm)
from .fields import (FieldSpec, PointMap, ScalarObservable, SmoothMap,
                     TimeDependentMap, as_single_field)
from .yde import BlowUpError, FlowMap, NewtonError, SolveConfig, solve_flow, solve_yde
from .reports import (CheckReport, ResidualReport, make_check_report,
                      make_residual_report, residual_ladder)
from .calculus import chain_rule_residual, ito_kunita_residual, substitution_residual
from .symmetry import (SampleDomain, check_conserved_algebraic,
                       check_conserved_trajectory, check_infinitesimal_symmetry,
                       check_symmetry_map, check_symmetry_trajectory, lie_bracket,
                       propagate_observable)
from .composition import compose_flows
from .pde import (CausticError, CharStream, GridBox, HamiltonianSpec,
                  InversionError, ScalarHamiltonian, assemble_solution_field,
                  fold_times, interp_nodal, invert_char_map, pde_residual,
                  seed_from_initial_data, verify_compatibility,
                  verify_inverse_flow_equation)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
