"""Exact construction and verification of extensions of Hamiltonian systems."""

from .params import PARAMS, ParamPoly, Q, as_parampoly, as_q
from .coeffs import (CanonicalCoeff, SingularEvaluation, Var, VarSystem,
                     ZeroCoefficientDivision)
from .phase import (PhasePoint, PhaseSpace, PhaseSpaceMismatch, PPoly,
                    apply_U, apply_W, apply_XL, confinement, poisson_bracket)
from .extension import (ExtensionProfile, CompatibilityReport,
                        LinearSeedFamily, ModifiedK, SeedConditionError,
                        SeedSolution, build_extended_H, build_K,
                        build_modified_K, check_e2_system,
                        check_compatibility_conditions, check_seed, closed_form_PD,
                        expand_modified_K, make_extension_space, make_profile,
                        recursion_Gn, solve_linear_seed, modified_coupling_functions)
from .models import (CATALOG, ModelSpec, cage_model, coincidence_pair,
                     extend_model, golden_K21, harmonic_model,
                     polar_cartesian_map, ttw_model)

__version__ = "0.1.0"

__all__ = [
    "PARAMS", "ParamPoly", "Q", "as_parampoly", "as_q",
    "CanonicalCoeff", "SingularEvaluation", "Var", "VarSystem",
    "ZeroCoefficientDivision",
    "PhasePoint", "PhaseSpace", "PhaseSpaceMismatch", "PPoly",
    "apply_U", "apply_W", "apply_XL", "confinement", "poisson_bracket",
    "ExtensionProfile", "CompatibilityReport", "LinearSeedFamily",
    "ModifiedK", "SeedConditionError", "SeedSolution",
    "build_extended_H", "build_K", "build_modified_K",
    "check_e2_system", "check_compatibility_conditions", "check_seed",
    "closed_form_PD", "expand_modified_K", "make_extension_space",
    "make_profile", "recursion_Gn", "solve_linear_seed",
    "modified_coupling_functions",
    "CATALOG", "ModelSpec", "cage_model", "coincidence_pair", "extend_model",
    "golden_K21",
    "harmonic_model", "polar_cartesian_map", "ttw_model",
]
