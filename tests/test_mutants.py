"""Mutants that the battery must kill, each installed with monkeypatch in
every module that imported the patched name.

Criterion 4 keeps three independent sigma routes: a slip in any one of them
fails it.  The routes are sigma read off the inverse row of M~^T, sigma from
the relation solved from M' | alpha_(n+2), and sigma from fresh determinants
of both matrices.  Each sigma mutant is the sign slip that integer numerators
invite, a quantity taken over |det| instead of the signed determinant, in
one route only.

The one-pass algebra kernels each get the slip their rule invites: a
``push_nabla`` without its e*nd (lam-derivative) term fails criterion 7, and
a ``linear_factor_product`` without its j*rd term, which treats a and b as
commuting, fails criteria 1, 2 and 8.  The other lam*nabla route gets its slip
too: a ``push_nabla_via_shift`` that shifts parts of degree above 3 by
degree + 1 fails criterion 7, which compares the two routes on the operator
times (a - b).

Every check that ``cross_validate`` records has a mutant that fails it and
criterion 8, and criteria 3, 5, 6, 9, 10 and 11 each have one that fails
them.  The determinant identity's sign slip, installed where the battery
calls the check too, also fails criterion 5.  Each of these tests runs only
the criteria it names.

``propagate``'s seed chains get the two slips their bookkeeping invites, each
made in a recompiled copy of ``asymptotics._chain``: the depth coupling
scaled by L instead of L/gcd(L, s), and a renormalization that resets the
shared denominator without rescaling the numerators.  Both fail criterion 9.
So do ``verify_table``'s two slips, made in a recompiled copy: a residual
that drops the depth-(k+1) share Y[k+1], and the factor m + rho + 1 read as
m + rho.  Each also fails the polynomial-arithmetic oracle of
``test_asymptotics`` on its long table.

The elimination kernel's back substitution gets its two slips, each in a
recompiled copy of ``exact._solve_square``: a sum that skips its last term
and a right-hand side without its det factor.  Each fails criterion 4 and
the golden full inverse of ``test_exact``.  ``nabla_formula`` built with
k*sigma + tau on b fails criterion 7 and the frozen operator of
``test_connection``.

A failing comparison of criteria 1 to 7 and 9 to 11, and criterion 8's
product of the factors, ends its detail with "first difference at KEY:
EXPECTED vs GOT", and each test asserts the KEY that its mutant makes the
battery name.
"""

import dataclasses
import inspect
import textwrap
from fractions import Fraction

import pytest

import lamconn
from lamconn import algebra, asymptotics, cli, connection, exact, exponents, families, selftest
from lamconn.algebra import ABElement
from lamconn.asymptotics import ResidualReport
from lamconn.exponents import Case, ExponentData

import test_asymptotics
import test_connection
import test_exact

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


def first_difference_key(detail):
    """KEY of a FAIL detail that ends with '; first difference at KEY: EXPECTED vs GOT'."""
    _, found, tail = detail.rpartition("; first difference at ")
    key, _, values = tail.partition(": ")
    assert found and " vs " in values, detail
    return key


def test_sigma_routes_agree_unpatched():
    passed, detail = selftest._check_sigma_routes()
    assert passed, detail


SIGMA_ROUTE_MUTANTS = [  # (mutant, the route it breaks)
    (inverse_row_over_abs_det, "inverse row"),
    (relation_over_abs_det, "relation"),
    (det_returns_abs, "determinants"),
]


@pytest.mark.parametrize("mutant, route", SIGMA_ROUTE_MUTANTS, ids=[m.__name__ for m, _ in SIGMA_ROUTE_MUTANTS])
def test_sigma_route_mutant_fails_criterion_4(monkeypatch, mutant, route):
    mutant(monkeypatch)
    passed, detail = selftest._check_sigma_routes()
    assert not passed
    assert detail.startswith("disagreement on")
    # the broken route is the one that differs from the median of the three
    assert first_difference_key(detail) == route


def recompiled(function, old: str, new: str):
    """function recompiled from its source with the one occurrence of old replaced by new."""
    module = inspect.getmodule(function)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[function.__name__]


REAL_PUSH_NABLA = connection.push_nabla


def push_nabla_without_lam_derivative(q, st):
    """The kernel with e*nd dropped: the term it contributes is exactly b * theta(Q)."""
    return REAL_PUSH_NABLA(q, st) - ABElement.gen_b() * q.theta()


LAM_NABLA_MUTANTS = {  # name: (patched function, replacement, detail prefix of criterion 7, first difference)
    # b * theta(Q) vanishes at lam^0, so the first difference has a lam power
    "push_nabla_without_lam_derivative": (
        "push_nabla",
        push_nabla_without_lam_derivative,
        "uniform shift fails for",
        "(0, 3, -2)",
    ),
    # lam*nabla raises the degree by one: the degree-4 part goes to total degree 5
    "via_shift_one_degree_too_far": (
        "push_nabla_via_shift",
        recompiled(connection.push_nabla_via_shift, "(st.mu.k + degree)", "(st.mu.k + degree + (degree > 3))"),
        "lam*nabla routes differ on the degree-4 multiple",
        "(0, 5, 0)",
    ),
}


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


@pytest.mark.parametrize("mutant", list(LAM_NABLA_MUTANTS))
def test_lam_nabla_mutant_fails_criterion_7(monkeypatch, mutant):
    name, replacement, prefix, key = LAM_NABLA_MUTANTS[mutant]
    for module in (connection, selftest):
        monkeypatch.setattr(module, name, replacement)
    result = selftest.run_criterion(7)
    assert not result.passed
    assert result.detail.startswith(prefix), result.detail
    assert first_difference_key(result.detail) == key


def test_commuting_factor_product_fails_criteria_1_2_and_8(monkeypatch):
    for module in (algebra, families, selftest, lamconn):
        monkeypatch.setattr(module, "linear_factor_product", commuting_factor_product)
    # commuting a and b first shows at b^2 of the low part, where b*a = a*b - b^2 enters
    for cid, key in ((1, "(0, 2, -2)"), (2, "(0, 2, 2)")):
        result = selftest.run_criterion(cid)
        assert not result.passed
        assert result.detail.startswith("operator match False")
        assert first_difference_key(result.detail) == key
    result = selftest.run_criterion(8)
    assert not result.passed
    assert result.detail.startswith("operator is not the product of its factors"), result.detail
    assert first_difference_key(result.detail) == "(0, 2, -2)"


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


def test_det_identity_sign_slip_fails_criterion_5(monkeypatch):
    assert selftest.run_criterion(5).passed
    for module in (families, selftest):
        monkeypatch.setattr(module, "det_identity_check", det_identity_with_sign_slip)
    result = selftest.run_criterion(5)
    assert not result.passed
    assert result.detail.startswith("identity fails on"), result.detail
    assert first_difference_key(result.detail) == "det M'"


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


CRITERION_MUTANTS = [  # (criterion, mutant, the first difference its FAIL detail names, or None)
    # the fields of both layouts sort by name, and "case" comes first
    (
        3,
        wrap("dependency", lambda dep: dataclasses.replace(dep, case=other_case(dep.case)), (selftest,)),
        "('first layout', 'case')",
    ),
    # the fresh det M' taken as |det M'| disagrees with the cached signed one
    (5, det_returns_abs, "det M'"),
    # the slip subtracts b*Q, one degree above Q, which has degree 3 here
    (
        6,
        lambda monkeypatch: monkeypatch.setattr(selftest, "shift_identity_check", shift_identity_with_k_slip),
        "(0, 4, 0)",
    ),
    # compares sets of residual keys; "perturbing c[1, 2, 61] ... gives residuals at []" names the cell
    (9, lambda monkeypatch: monkeypatch.setattr(selftest, "verify_table", verify_table_blind_past_order_40), None),
    (10, lambda monkeypatch: monkeypatch.setattr(cli, "main", main_hypothesis_exit_1), "exit code"),
    # the unreduced roots 5/2 and 1 keep the length; 5/2 is the first entry that differs
    (
        11,
        lambda monkeypatch: monkeypatch.setattr(selftest, "monodromy_candidates", candidates_not_reduced),
        "('first layout', 'position 0')",
    ),
]


@pytest.mark.parametrize("cid, mutant, key", CRITERION_MUTANTS, ids=[f"criterion-{c}" for c, _, _ in CRITERION_MUTANTS])
def test_criterion_mutant_fails_its_criterion(monkeypatch, cid, mutant, key):
    assert selftest.run_criterion(cid).passed
    mutant(monkeypatch)
    result = selftest.run_criterion(cid)
    assert not result.passed, result.detail
    if key is not None:
        assert first_difference_key(result.detail) == key


def candidates_with_a_zero(result):
    return families.monodromy_candidates(result) + [Fraction(0)]


FIELD_MUTANTS = [  # (criterion, mutant, first difference): slips that only the keyed comparison names
    # sum_p is compared with the rest of the dependency block
    (
        3,
        wrap("dependency", lambda dep: dataclasses.replace(dep, sum_p=dep.sum_p + 1), (selftest,)),
        "('first layout', 'sum_p')",
    ),
    # a missing key counts as 0, so only the length names a list that grows by a 0
    (
        11,
        lambda monkeypatch: monkeypatch.setattr(selftest, "monodromy_candidates", candidates_with_a_zero),
        "('first layout', 'length')",
    ),
]


@pytest.mark.parametrize("cid, mutant, key", FIELD_MUTANTS, ids=["criterion-3-sum_p", "criterion-11-length"])
def test_field_mutant_names_its_field(monkeypatch, cid, mutant, key):
    test_criterion_mutant_fails_its_criterion(monkeypatch, cid, mutant, key)


CHAIN_MUTANTS = {  # name: (old, new, the start of criterion 9's FAIL detail, the residual cell it names)
    "back_is_l": ("rd * (big_l // gamma)", "rd * big_l", "nonzero residual for spec", "(1, 0, 5)"),
    "renormalize_without_rescaling": (
        "v = [c.numerator * (big_e // c.denominator) for c in emitted] + [0]",
        "pass",
        "propagate fails on the telescoping spec",
        "(0, 0, 3)",
    ),
}


@pytest.mark.parametrize("mutant", list(CHAIN_MUTANTS))
def test_chain_mutant_fails_criterion_9(monkeypatch, mutant):
    assert selftest.run_criterion(9).passed
    old, new, prefix, key = CHAIN_MUTANTS[mutant]
    monkeypatch.setattr(asymptotics, "_chain", recompiled(asymptotics._chain, old, new))
    result = selftest.run_criterion(9)
    assert not result.passed, result.detail
    assert result.detail.startswith(prefix), result.detail
    assert first_difference_key(result.detail) == key


VERIFY_MUTANTS = {
    "no_depth_share": ("above = level", "above = {}"),
    "factor_m_plus_rho": ("((m + 1) * rd + rn)", "(m * rd + rn)"),
}


@pytest.mark.parametrize("mutant", list(VERIFY_MUTANTS))
def test_verify_mutant_fails_criterion_9_and_the_oracle(monkeypatch, mutant):
    assert selftest.run_criterion(9).passed
    mutated = recompiled(asymptotics.verify_table, *VERIFY_MUTANTS[mutant])
    for module in (asymptotics, selftest, lamconn, test_asymptotics):
        monkeypatch.setattr(module, "verify_table", mutated)
    result = selftest.run_criterion(9)
    assert not result.passed, result.detail
    # the first random spec already has a residual at its first relation
    assert result.detail.startswith("nonzero residual for spec"), result.detail
    assert first_difference_key(result.detail) == "(0, 0, 0)"
    with pytest.raises(AssertionError):
        test_asymptotics.TestVerifyTableOracle().test_long_table_passes()


# Both slips break the inverse row and the relation, the two routes solved
# through the kernel; the walk names the first of them in key order.
KERNEL_MUTANTS = {  # name: (old, new) in exact._solve_square, and the first difference of criterion 4
    # the sum over j > i stops before its last term, U[i][n-1] * X[n-1]
    "back_substitution_without_last_term": ("row[i + 1 : n]", "row[i + 1 : n - 1]", "inverse row"),
    # U X = B' in place of U X = det * B'
    "back_substitution_without_det": ("d * b", "b", "inverse row"),
}


@pytest.mark.parametrize("mutant", list(KERNEL_MUTANTS))
def test_kernel_mutant_fails_criterion_4_and_the_golden_inverse(monkeypatch, mutant):
    assert selftest.run_criterion(4).passed
    old, new, key = KERNEL_MUTANTS[mutant]
    mutated = recompiled(exact._solve_square, old, new)
    for module in (exact, exponents):
        monkeypatch.setattr(module, "_solve_square", mutated)
    result = selftest.run_criterion(4)
    assert not result.passed, result.detail
    assert result.detail.startswith("disagreement on"), result.detail
    assert first_difference_key(result.detail) == key
    with pytest.raises(AssertionError):
        test_exact.TestMatrixFrozen().test_inverse_golden()


def test_nabla_formula_sign_slip_fails_criterion_7_and_the_frozen_operator(monkeypatch):
    assert selftest.run_criterion(7).passed
    # k*sigma + tau in place of k*sigma - tau on b
    mutated = recompiled(connection.nabla_formula, "- tn * sd", "+ tn * sd")
    for module in (connection, families, selftest, lamconn, test_connection):
        monkeypatch.setattr(module, "nabla_formula", mutated)
    result = selftest.run_criterion(7)
    assert not result.passed, result.detail
    # push_nabla reads its N off nabla_formula; the expected left factor is built from sigma and tau
    assert result.detail.startswith("uniform shift fails for"), result.detail
    assert first_difference_key(result.detail) == "(0, 3, -2)"
    with pytest.raises(AssertionError):
        test_connection.TestNablaFormula().test_layout_a()
