"""Young integration and differential systems driven by finite
p-variation paths, 1 <= p < 2.

Core objects: SampledPath (grid paths), p_variation (optimal-partition
dynamic program), young_integral (tagged sums with certified error
bounds), solve_yde / solve_flow (Euler schemes with Jacobian
propagation), residual checks for the change-of-variable identities,
flow composition, and first-order systems solved by characteristics.

The public names load their submodule on first use (PEP 562), so a
program that needs only paths never imports the PDE solver.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Public names by the submodule that defines them.
_EXPORTS = {
    "paths": ("GridBox", "NumericFailure", "Partition", "PathError", "SampledPath",
              "VariationResult", "dyadic_prefix", "dyadic_steps", "holder_norm",
              "p_variation", "p_variation_norm"),
    "integrate": ("DimensionMismatch", "IntegralResult", "YoungConditionError",
                  "indefinite_integral", "young_integral", "young_loeve_bound"),
    "drivers": ("DeterministicSpec", "FbmSpec", "GenerationError", "ResourceError",
                "fbm_increment_covariance", "fbm_value_covariance", "gen_deterministic",
                "gen_fbm"),
    "fields": ("FieldSpec", "PointMap", "ScalarObservable", "SmoothMap",
               "TimeDependentMap", "as_single_field"),
    "yde": ("BlowUpError", "FlowMap", "NewtonError", "SolveConfig", "solve_flow",
            "solve_yde"),
    "reports": ("CheckReport", "ResidualReport", "make_check_report",
                "make_residual_report", "residual_ladder"),
    "calculus": ("chain_rule_residual", "ito_kunita_residual", "substitution_residual"),
    "symmetry": ("SampleDomain", "check_conserved_algebraic", "check_conserved_trajectory",
                 "check_infinitesimal_symmetry", "check_symmetry_map",
                 "check_symmetry_trajectory", "lie_bracket", "propagate_observable"),
    "composition": ("compose_flows",),
    "pde": ("CausticError", "CharStream", "HamiltonianSpec", "InversionError",
            "ScalarHamiltonian", "assemble_solution_field", "fold_times", "interp_nodal",
            "invert_char_map", "pde_residual", "seed_from_initial_data",
            "verify_compatibility", "verify_inverse_flow_equation"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
