"""Mutants that the battery must kill, each installed with monkeypatch in
every module that imported the patched name.

Criterion 4 keeps three independent sigma routes: a slip in any one of them
fails it.  The routes are sigma read off the inverse row of M~^T, sigma from
the relation solved from M' | alpha_(n+2), and sigma from fresh determinants
of both matrices.  Each sigma mutant is the sign slip that integer numerators
invite, a quantity taken over |det| instead of the signed determinant, in
one route only.

The one-pass algebra kernels each get the slip their rule invites: a
``push_linear`` without its e*nd (lam-derivative) term fails criterion 7, and
a ``linear_factor_product`` without its j*rd term, which treats a and b as
commuting, fails criteria 1 and 2.
"""

import dataclasses
from fractions import Fraction

import pytest

import lamconn
from lamconn import algebra, connection, exact, families, selftest
from lamconn.algebra import ABElement
from lamconn.exponents import ExponentData

CACHED_ANALYSIS = ExponentData.analysis.func


def numerators_over_abs_det(numerators: str, determinant: str):
    """ExponentData.analysis with the named numerators negated when their determinant is negative."""

    def analysis(self):
        result = CACHED_ANALYSIS(self)
        nums = getattr(result, numerators)
        if getattr(result, determinant) < 0:
            result = dataclasses.replace(result, **{numerators: tuple(-x for x in nums)})
        return result

    return property(analysis)


def inverse_row_over_abs_det(monkeypatch):
    monkeypatch.setattr(ExponentData, "analysis", numerators_over_abs_det("inverse_numerators", "det_m_tilde"))


def relation_over_abs_det(monkeypatch):
    monkeypatch.setattr(ExponentData, "analysis", numerators_over_abs_det("relation_numerators", "det_m_prime"))


def det_returns_abs(monkeypatch):
    real_det = exact.det
    for module in (exact, selftest, lamconn):
        monkeypatch.setattr(module, "det", lambda m: abs(real_det(m)))


def test_sigma_routes_agree_unpatched():
    passed, detail = selftest._check_sigma_routes()
    assert passed, detail


@pytest.mark.parametrize("mutant", [inverse_row_over_abs_det, relation_over_abs_det, det_returns_abs])
def test_sigma_route_mutant_fails_criterion_4(monkeypatch, mutant):
    mutant(monkeypatch)
    passed, detail = selftest._check_sigma_routes()
    assert not passed
    assert detail.startswith("disagreement on")


REAL_PUSH_LINEAR = algebra.push_linear


def push_linear_without_lam_derivative(q, n):
    """The kernel with e*nd dropped: the term it contributes is exactly b * theta(Q)."""
    return REAL_PUSH_LINEAR(q, n) - ABElement.gen_b() * q.theta()


def commuting_factor_product(roots):
    """The factor product with j*rd dropped: sum_m (-1)^m e_m(roots) a^(d-m) b^m."""
    coeffs = [Fraction(1)]  # by power of b
    for root in roots:
        coeffs = [c - root * prev for c, prev in zip(coeffs + [0], [0] + coeffs)]
    return ABElement({(len(roots) - m, m): c for m, c in enumerate(coeffs)})


def test_kernel_criteria_pass_unpatched():
    for cid in (1, 2, 7):
        result = selftest.run_criterion(cid)
        assert result.passed, result.detail


def test_push_linear_mutant_fails_criterion_7(monkeypatch):
    for module in (algebra, connection):
        monkeypatch.setattr(module, "push_linear", push_linear_without_lam_derivative)
    result = selftest.run_criterion(7)
    assert not result.passed
    assert result.detail.startswith("uniform shift fails for")


def test_commuting_factor_product_fails_criteria_1_and_2(monkeypatch):
    for module in (algebra, families, selftest, lamconn):
        monkeypatch.setattr(module, "linear_factor_product", commuting_factor_product)
    for cid in (1, 2):
        result = selftest.run_criterion(cid)
        assert not result.passed
        assert result.detail.startswith("operator match False")
