"""Exact connection data and annihilating operators for one-parameter sparse polynomials.

The input is a polynomial in n+1 variables with n+2 monomials, the last one
weighted by a parameter lam.  The package computes, all in exact rational
arithmetic: the rank hypotheses and the minimal integer relation between the
exponents, the connection coefficients sigma and tau, the operator
lam * nabla on monomial classes, closed-form annihilating operators for two
parametrized exponent layouts with their monodromy candidate exponents, and
order-by-order propagation of log expansion coefficients.

``import lamconn`` runs none of the eight modules below.  It registers each
one in ``sys.modules`` and as an attribute of the package through
``importlib.util.LazyLoader``, so a module runs on the first read of one of
its attributes.  A public name is bound in the package on its first read,
through the module ``__getattr__`` of PEP 562, and each later read finds it
there: ``lamconn.propagate`` runs ``asymptotics`` and the two modules it
imports, ``exact`` and ``errors``, and no other.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Each module, in the order it is registered, with the public names it defines.
_NAMES = {
    "exact": "LaurentPoly RatMatrix det invert parse_rat rank solve",
    "errors": "ContractError DimensionError HypothesisError InputError SingularMatrixError",
    "algebra": "ABElement conj_b homogeneous_components linear_factor_product shift_identity_check",
    "exponents": "Case DependencyData DetIdentityReport ExponentData LayoutAnalysis dependency "
                 "dependency_solution det_identity_check validate_hypotheses",
    "connection": "MonomialMu SigmaTau nabla_formula pde_coefficients push_nabla push_nabla_via_shift sigma_tau",
    "families": "CrossValidationReport FamilyResult cross_validate family_a family_b match_family "
                "monodromy_candidates",
    "asymptotics": "ExpansionSpec ExpansionTable LogPoly propagate verify_table",
    "selftest": "",
}


def _register(name: str):
    """The submodule name, in sys.modules and not yet run: it runs on the first read of an attribute."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_HOME = {}  # public name -> the module that defines it
for _name, _names in _NAMES.items():
    _module = globals()[_name] = _register(_name)
    _HOME.update(dict.fromkeys(_names.split(), _module))
del _name, _names, _module

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_HOME[name], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
