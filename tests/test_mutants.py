"""Criterion 4 keeps three independent sigma routes: a slip in any one of them fails it.

The routes are sigma read off the inverse row of M~^T, sigma from the
relation solved from M' | alpha_(n+2), and sigma from fresh determinants of
both matrices.  Each mutant below is the sign slip that integer numerators
invite, a quantity taken over |det| instead of the signed determinant, in
one route only.  It is installed with monkeypatch in every module that
imported the patched name.
"""

import dataclasses

import pytest

import lamconn
from lamconn import exact, selftest
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
