"""Exact connection data and annihilating operators for one-parameter sparse polynomials.

The input is a polynomial in n+1 variables with n+2 monomials, the last one
weighted by a parameter lam.  The package computes, all in exact rational
arithmetic: the rank hypotheses and the minimal integer relation between the
exponents, the connection coefficients sigma and tau, the operator
lam * nabla on monomial classes, closed-form annihilating operators for two
parametrized exponent layouts with their monodromy candidate exponents, and
order-by-order propagation of log expansion coefficients.
"""

from .algebra import (
    ABElement,
    conj_b,
    homogeneous_components,
    linear_factor_product,
    shift_identity_check,
)
from .asymptotics import (
    ExpansionSpec,
    ExpansionTable,
    LogPoly,
    propagate,
    verify_table,
)
from .connection import (
    MonomialMu,
    SigmaTau,
    nabla_formula,
    pde_coefficients,
    push_nabla,
    push_nabla_via_shift,
    sigma_tau,
)
from .errors import (
    ContractError,
    DimensionError,
    HypothesisError,
    InputError,
    SingularMatrixError,
)
from .exact import LaurentPoly, RatMatrix, det, invert, parse_rat, rank, solve
from .exponents import (
    Case,
    DependencyData,
    DetIdentityReport,
    ExponentData,
    LayoutAnalysis,
    dependency,
    dependency_solution,
    det_identity_check,
    validate_hypotheses,
)
from .families import (
    CrossValidationReport,
    FamilyResult,
    cross_validate,
    family_a,
    family_b,
    match_family,
    monodromy_candidates,
)

__version__ = "0.1.0"

__all__ = [
    "ABElement",
    "Case",
    "ContractError",
    "CrossValidationReport",
    "DependencyData",
    "DetIdentityReport",
    "DimensionError",
    "ExpansionSpec",
    "ExpansionTable",
    "ExponentData",
    "FamilyResult",
    "HypothesisError",
    "InputError",
    "LaurentPoly",
    "LayoutAnalysis",
    "LogPoly",
    "MonomialMu",
    "RatMatrix",
    "SigmaTau",
    "SingularMatrixError",
    "conj_b",
    "cross_validate",
    "dependency",
    "dependency_solution",
    "det",
    "det_identity_check",
    "family_a",
    "family_b",
    "homogeneous_components",
    "invert",
    "linear_factor_product",
    "match_family",
    "monodromy_candidates",
    "nabla_formula",
    "parse_rat",
    "pde_coefficients",
    "propagate",
    "push_nabla",
    "push_nabla_via_shift",
    "rank",
    "shift_identity_check",
    "sigma_tau",
    "solve",
    "validate_hypotheses",
    "verify_table",
]
