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

Every check that ``cross_validate`` records has a mutant that fails it and
criterion 8, and criteria 3, 5, 6, 9, 10 and 11 each have one that fails
them.  Each of these tests runs only the criterion it names.
"""

import dataclasses
from fractions import Fraction

import pytest

import lamconn
from lamconn import algebra, cli, connection, exact, families, selftest
from lamconn.algebra import ABElement
from lamconn.asymptotics import ResidualReport
from lamconn.exponents import Case, ExponentData

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


def wrap(name, change, modules=(families, selftest)):
    """A mutant installer: the real function of that name with its result
    passed through change, installed in each of modules that imported it."""
    real = getattr(families, name)

    def install(monkeypatch):
        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *args: change(real(*args)))

    return install


def other_case(case):
    return Case.CASE_I if case is Case.CASE_II else Case.CASE_II


REAL_DET_IDENTITY_CHECK = families.det_identity_check


def det_identity_with_sign_slip(data, dep):
    """det_identity_check with (-1)^n for (-1)^(n+1): the real check run on det M' negated."""
    slipped = ExponentData(n=data.n, alphas=data.alphas)
    analysis = data.analysis
    vars(slipped)["analysis"] = dataclasses.replace(analysis, det_m_prime=-analysis.det_m_prime)
    return REAL_DET_IDENTITY_CHECK(slipped, dep)


CROSS_CHECK_MUTANTS = {
    "r": wrap("dependency", lambda dep: dataclasses.replace(dep, r=dep.r + 1)),
    "p": wrap("dependency", lambda dep: dataclasses.replace(dep, p=(dep.p[0] + 1,) + dep.p[1:])),
    "d": wrap("dependency", lambda dep: dataclasses.replace(dep, d=dep.d + 1)),
    "h": wrap("dependency", lambda dep: dataclasses.replace(dep, h=dep.h + 1)),
    "case": wrap("dependency", lambda dep: dataclasses.replace(dep, case=other_case(dep.case))),
    "sigma": wrap("dependency", lambda dep: dataclasses.replace(dep, sigma=dep.sigma + 1)),
    "lambda_exponent": wrap(
        "family_a", lambda result: dataclasses.replace(result, lambda_exponent=-result.lambda_exponent)
    ),
    "determinant_identity": lambda monkeypatch: monkeypatch.setattr(
        families, "det_identity_check", det_identity_with_sign_slip
    ),
    "sigma_from_inverse": wrap("sigma_tau", lambda st: dataclasses.replace(st, sigma=st.sigma + 1)),
    "nabla_one": wrap(
        "family_a", lambda result: dataclasses.replace(result, nabla_one=result.nabla_one + ABElement.gen_b())
    ),
}


def test_cross_validation_passes_unpatched():
    names = [c.name for c in families.cross_validate(families.family_a(2, 2, 1)).checks]
    assert names == list(CROSS_CHECK_MUTANTS)
    result = selftest.run_criterion(8)
    assert result.passed, result.detail


@pytest.mark.parametrize("check", list(CROSS_CHECK_MUTANTS))
def test_cross_check_mutant_fails_its_check_and_criterion_8(monkeypatch, check):
    CROSS_CHECK_MUTANTS[check](monkeypatch)
    report = families.cross_validate(families.family_a(2, 2, 1))
    assert check in [c.name for c in report.checks if not c.passed]
    result = selftest.run_criterion(8)
    assert not result.passed
    assert result.detail.startswith("cross validation fails for")


REAL_VERIFY_TABLE = selftest.verify_table
REAL_MAIN = cli.main


def shift_identity_with_k_slip(q, mu):
    """shift_identity_check with mu + k + 1 on the right at degree 2 or more."""
    left, right = algebra.shift_identity_check(q, mu)
    if q.degree() >= 2:
        # (a - (mu + k + 1)*b) * Q = (a - (mu + k)*b) * Q - b * Q
        right = right - ABElement.gen_b() * q
    return left, right


def verify_table_blind_past_order_40(spec, table):
    report = REAL_VERIFY_TABLE(spec, table)
    return ResidualReport({key: poly for key, poly in report.residuals.items() if key[2] <= 40})


def main_hypothesis_exit_1(argv=None):
    code = REAL_MAIN(argv)
    return 1 if code == 2 else code


def candidates_not_reduced(result):
    return list(result.roots_low)


CRITERION_MUTANTS = [
    (3, wrap("dependency", lambda dep: dataclasses.replace(dep, case=other_case(dep.case)), (selftest,))),
    (5, det_returns_abs),
    (6, lambda monkeypatch: monkeypatch.setattr(selftest, "shift_identity_check", shift_identity_with_k_slip)),
    (9, lambda monkeypatch: monkeypatch.setattr(selftest, "verify_table", verify_table_blind_past_order_40)),
    (10, lambda monkeypatch: monkeypatch.setattr(cli, "main", main_hypothesis_exit_1)),
    (11, lambda monkeypatch: monkeypatch.setattr(selftest, "monodromy_candidates", candidates_not_reduced)),
]


@pytest.mark.parametrize("cid, mutant", CRITERION_MUTANTS, ids=[f"criterion-{c}" for c, _ in CRITERION_MUTANTS])
def test_criterion_mutant_fails_its_criterion(monkeypatch, cid, mutant):
    assert selftest.run_criterion(cid).passed
    mutant(monkeypatch)
    result = selftest.run_criterion(cid)
    assert not result.passed, result.detail
