"""The battery's mutants: each entry of MUTANTS is one slip and what kills it.

An entry holds a name, an install, every criterion the slip fails when the
whole battery runs under it, each with the start of its FAIL detail and the
first-difference KEY that detail names (None when it names none), and Tier-1
oracles that pass unpatched and fail under the slip: they raise
AssertionError, or pytest's Failed where a ``pytest.raises`` block sees
nothing raised.  Every install follows one
rule: the slipped object replaces the real one wherever a loaded module
other than this one binds it, or on its class for a method or a cached
property.  All but three entries are installed by ``slipped``, an edit of the
package function's own source.  Of the three, the two that wrap a real
function, propagate_cached_by_spec and json_indent_3, capture it here, at
import, so that the install cannot make it call itself.  An entry that no
criterion kills has no kills, and its oracles alone kill it.

``pytest --mutant NAME`` (tests/conftest.py) installs the entry NAME by its
own install for the whole session.
"""

import inspect
import json
import re
import sys
import tempfile
import textwrap
import types
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from lamconn import algebra, asymptotics, cli, connection, exact, exponents, families, selftest
from lamconn.algebra import ABElement
from lamconn.asymptotics import ExpansionTable, LogPoly
from lamconn.exponents import ExponentData, MonomialMu

import test_algebra
import test_asymptotics
import test_cli
import test_connection
import test_exact
import test_exponents
import test_families
import test_fuzz
import test_golden


class Mutant(NamedTuple):
    name: str
    install: Callable[[pytest.MonkeyPatch], None]
    kills: dict  # criterion: (start of its FAIL detail, first-difference KEY or None)
    oracles: tuple = ()


def rebind(original, replacement):
    """The install of replacement wherever a loaded module other than this one binds original."""

    def install(monkeypatch):
        for name, module in list(sys.modules.items()):
            if isinstance(module, types.ModuleType) and name != __name__:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, replacement)

    return install


def slipped(function, old: str, new: str):
    """The install of function recompiled from its source with the one occurrence of old replaced by new.

    The slip runs in its module's own globals, as the original does, so a monkeypatch of
    a module global reaches both.  A method is replaced on its class, which binds it.  A
    cached property is slipped through the source of its function, decorator and all, and
    the recompiled property is named on its class, as the class statement names the real
    one; an instance that cached its value before the install keeps it.  A plain property
    is slipped through its getter, given as ``fget``, and the recompiled property replaces
    it on its class.  The install carries the slip as its ``slip``: (qualname, old, new).
    """
    if isinstance(function, cached_property):
        function = function.func
    module = inspect.getmodule(function)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"{function.__qualname__}: {old!r} occurs {source.count(old)} times, not once"
    namespace = {}
    exec(compile(source.replace(old, new), module.__file__, "exec"), vars(module), namespace)
    replacement = namespace[function.__name__]
    owner, _, attr = function.__qualname__.rpartition(".")
    install = rebind(function, replacement)
    if owner:
        if isinstance(replacement, cached_property):
            replacement.__set_name__(getattr(module, owner), attr)
        install = lambda monkeypatch: monkeypatch.setattr(getattr(module, owner), attr, replacement)
    install.slip = (function.__qualname__, old, new)
    return install


REAL_PROPAGATE = asymptotics.propagate
REAL_DUMPS = json.dumps


def dumps_indent_3(obj, *, indent=None, **kwargs):
    """json.dumps with indent=3 where the CLI asks for 2."""
    return REAL_DUMPS(obj, indent=3 if indent == 2 else indent, **kwargs)


def propagate_cached_by_spec(monkeypatch):
    """The install of propagate behind a fresh cache keyed by the spec alone."""
    cache = {}
    rebind(REAL_PROPAGATE, lambda spec, seed: cache.setdefault(spec, REAL_PROPAGATE(spec, seed)))(monkeypatch)


def check_passes(name):
    """Oracle: the named check of cross_validate passes on the first golden layout."""
    report = families.cross_validate(families.family_a(2, 2, 1))
    assert name not in [c.name for c in report.checks if not c.passed]


def replay_to_first_change():
    """Oracle: the golden corpus replays to its records, stopping at the first command that differs."""
    changed = test_golden.changed_commands(first_only=True)
    assert not changed, test_golden.describe(changed)


def output_streams_unchanged(as_json):
    """Oracle: test_output_streams_unchanged in a temporary directory with a monkeypatch of its own."""
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as monkeypatch:
        test_cli.TestPropagate().test_output_streams_unchanged(Path(directory), monkeypatch, as_json)


def one_rendering_of_unsorted_entries():
    """Oracle: test_one_rendering_serves_both_formats on a table whose entries are out of key
    order, run without hypothesis, which refuses a test method called on a second instance."""
    test = test_asymptotics.TestSerialization.test_one_rendering_serves_both_formats.hypothesis.inner_test
    entries = {(0, 0, 1): LogPoly.zero(), (0, 0, 0): LogPoly.zero()}
    test(test_asymptotics.TestSerialization(), ExpansionTable(spec=test_asymptotics.GOLDEN, entries=entries))


def public_functions_on_a_row_swap():
    """Oracle: test_public_functions_match_oracle on its row-swap @example, run without hypothesis."""
    test = test_exact.TestEliminationOracle.test_public_functions_match_oracle.hypothesis.inner_test
    test(test_exact.TestEliminationOracle(), test_exact.ROW_SWAP)


def routes_agree_where_their_parts_cancel():
    """Oracle: test_two_routes_agree on its @example where the shift route's two parts cancel, run
    without hypothesis, which refuses a test method called on a second instance."""
    test = test_connection.TestPushNabla.test_two_routes_agree.hypothesis.inner_test
    test(test_connection.TestPushNabla(), test_connection.ROUTE_PARTS_CANCEL)


def first_difference_key(detail):
    """KEY of a FAIL detail that ends with '; first difference at KEY: EXPECTED vs GOT'."""
    _, found, tail = detail.rpartition("; first difference at ")
    key, _, values = tail.partition(": ")
    assert found and " vs " in values, detail
    return key


CROSS_VALIDATION = ("cross validation fails for", None)


def cross_check(name, install, kills={}):
    """The entry of a slip that fails the check name of cross_validate, and so criterion 8, besides kills."""
    return Mutant(name, install, {**kills, 8: CROSS_VALIDATION}, (partial(check_passes, name),))


SIGMA_ROUTES = "disagreement on"
# criteria 1 and 2's detail when only the matrix route's operator differs
MATRIX_ROUTE = "operator match True, nabla match True, matrix route False"
IDENTITY = ("identity fails on", "identity")
# criterion 2's detail when its nabla is the golden one in value but not in form
GOLDEN_NABLA_FORM = ("operator match True, nabla match False, matrix route True; no key differs, so the two sides "
                     "differ only in form")
# oracles that two entries share
INVERSE_GOLDEN = (test_exact.TestMatrixFrozen().test_inverse_golden,)
FROBENIUS_GOLDEN = (test_asymptotics.TestFrobeniusRoute().test_golden,)
LONG_TABLE = (test_asymptotics.TestVerifyTableOracle().test_long_table_passes,)
REPLAY = (replay_to_first_change,)
MUTANTS = [
    # the factor product with j*rd dropped, as if a and b commuted: it first shows at b^2 of the
    # low part, where b*a = a*b - b^2 enters
    Mutant("commuting_factor_product", slipped(algebra.linear_factor_product, "-n * (j * rd + rn)", "-n * rn"),
           {1: ("operator match False", "(0, 2, -2)"), 2: ("operator match False", "(0, 2, 2)"),
            8: ("operator is not the product of its factors", "(0, 2, -2)")}),
    # the family operator's low part written without its lam power: -4*low lands at lam^0
    Mutant("low_part_without_lam_power", slipped(families.FamilyResult.full_operator, "e + shift", "e"),
           {1: ("operator match False", "(0, 2, -2)"), 2: ("operator match False", "(0, 2, 0)"),
            7: ("uniform shift fails for", "(0, 3, 0)"), 8: ("operator is not the product of its factors", "(0, 2, -2)")}),
    # _make dividing out a gcd only above 2: an element whose numerators and denominator share
    # just the factor 2 stays unreduced and equals no reduced copy, though every term agrees, so
    # criterion 2 names no key: its nabla -2*(a - 3/4*b) stays (-8*a + 6*b)/4; and the family
    # operator, one sum over its two parts' lcm, stays over other factors of 2 than the general
    # product of its factors, first on A(2, 2, 2)
    Mutant("reduced_keeps_gcd_2", slipped(ABElement._make, "if g != 1:", "if g > 2:"),
           {2: (GOLDEN_NABLA_FORM, None), 8: ("operator is not the product of its factors for A(2, 2, 2)", None)},
           (test_algebra.TestNormalForm().test_identity_element,)),
    # ... and _linear: the golden nabla (-8*a + 6*b)/4 stays over 2
    Mutant("linear_keeps_gcd_2", slipped(ABElement._linear, "if g != 1:", "if g > 2:"),
           {2: (GOLDEN_NABLA_FORM, None), 8: CROSS_VALIDATION},
           (partial(test_algebra.TestTrustedConstructor().test_linear_factor_is_what_the_constructor_makes, 4, -6, 2),)),
    # _plus without its factor: every sum adds its second part at weight 1, so the shift route's
    # (-sigma*a)*Q and the family operator's -4*lam^(+-2)*low enter unweighted
    Mutant("plus_drops_its_factor", slipped(ABElement._plus, "factor * (out_den // den)", "out_den // den"),
           {1: ("operator match False", "(0, 2, -2)"), 2: ("operator match False", "(0, 2, 2)"),
            7: ("lam*nabla routes differ on the degree-4 multiple", "(1, 3, -2)"),
            8: ("operator is not the product of its factors", "(0, 2, -2)")},
           (partial(test_algebra.TestTrustedConstructor().test_plus_adds_factor_times_its_terms, -4),)),
    # the closed rule's t-step with j + t - 1 for j + t: the product runs it only where j passes
    # of T would cost more than the terms it emits, as for b^2*a, b^3*a^2 and b^3 times a dense
    # group of degree 2 or 3; the first oracle compares b^3*a^2 with the word-rewriting oracle
    Mutant("product_t_step_one_low", slipped(ABElement.__mul__, "(j + t)", "(j + t - 1)"),
           {6: ("shift identity fails for", "(0, 4, 0)"), 8: ("operator is not the product of its factors", "(0, 3, 0)")},
           (partial(test_algebra.TestNormalForm().test_closed_rule_on_whole_powers, 3, 2),
            test_algebra.TestNormalForm().test_b2_times_a_frozen)),
    # the closed rule's t = 0 term one a power too high: a^i*b^j times a^k*b^l starts at
    # a^(i+k+1); every left term with j = 0 takes that rule, as in scale and in the product by 1
    Mutant("product_shift_one_high", slipped(ABElement.__mul__, "p = i + k", "p = i + k + 1"),
           {1: ("operator match False", "(0, 2, -2)"), 2: ("operator match False", "(0, 2, 2)"),
            6: ("shift identity fails for", "(0, 4, 0)"), 7: ("uniform shift fails for", "(1, 2, -2)"),
            8: ("operator is not the product of its factors", "(0, 2, -2)")},
           (test_algebra.TestNormalForm().test_identity_element,
            test_algebra.TestNormalForm().test_sparse_rows_at_huge_degree)),
    # the product's T pass with p for p + 1: b*a loses its -b^2, as if a and b commuted, which
    # first shows where the commuting slip does, and in every criterion that multiplies; the
    # oracle compares b*a with the word-rewriting oracle
    Mutant("product_t_pass_factor_one_low", slipped(ABElement.__mul__, "(p + 1) * acc", "p * acc"),
           {1: ("operator match False", "(0, 2, -2)"), 2: ("operator match False", "(0, 2, 2)"),
            6: ("shift identity fails for", "(1, 3, 0)"), 7: ("uniform shift fails for", "(0, 3, -2)"),
            8: ("operator is not the product of its factors", "(0, 2, -2)")},
           (partial(test_algebra.TestNormalForm().test_closed_rule_on_whole_powers, 1, 1),)),
    # the fields of both layouts sort by name: sum_p is compared with the rest of the dependency block
    Mutant("sum_p", slipped(exponents.dependency, "sum_p=sum_p,", "sum_p=sum_p + 1,"),
           {3: ("first layout", "('first layout', 'sum_p')"), 4: (SIGMA_ROUTES, "relation"), 5: IDENTITY,
            8: CROSS_VALIDATION}),
    # the dependency block keeping p a tuple: its JSON text is the same, so only the comparison
    # of the block with its golden dict sees the slip
    Mutant("dependency_json_keeps_p_a_tuple", slipped(exponents.DependencyData.to_json, '"p": list(self.p)',
                                                      '"p": self.p'),
           {3: ("first layout", "('first layout', 'p')")}),
    # the determinant block printing only its Fractions as text, its int determinants as ints;
    # no command prints the block, so no criterion fails
    Mutant("det_identity_json_ints_unprinted", slipped(exponents.DetIdentityReport.to_json, "type(value) is bool",
                                                       "isinstance(value, int)"),
           {}, (test_exponents.TestDetIdentity().test_reports_print_their_fields,)),
    # each sigma route over |det|: the broken route is the one that differs from the median of the three
    Mutant("inverse_row_over_abs_det", slipped(ExponentData.analysis, "else tuple(inverse[0])",
                                               "else tuple(x if det_tilde > 0 else -x for x in inverse[0])"),
           {2: (MATRIX_ROUTE, "(0, 1, 0)"), 4: (SIGMA_ROUTES, "inverse row"),
            7: ("uniform shift fails for", "(0, 3, 2)"), 8: CROSS_VALIDATION}),
    Mutant("relation_over_abs_det", slipped(ExponentData.analysis, "else tuple(relation[0])",
                                            "else tuple(x if det_prime > 0 else -x for x in relation[0])"),
           {4: (SIGMA_ROUTES, "relation"), 5: IDENTITY}),
    # the fresh det M' taken as |det M'| also disagrees with the cached signed one
    Mutant("det_returns_abs", slipped(exact.det, "return Fraction(_solve_square(m, len(m))[1], scale)",
                                      "return abs(Fraction(_solve_square(m, len(m))[1], scale))"),
           {4: (SIGMA_ROUTES, "determinants"), 5: ("identity fails on", "det M'")}),
    # back substitution's sum over j > i stops before its last term, U[i][n-1] * X[n-1]; both
    # slips break the inverse row and the relation, and the walk names the first in key order
    Mutant("back_substitution_without_last_term", slipped(exact._solve_square, "map(mul, row, x)",
                                                          "map(mul, row, x[: n - 1])"),
           {1: (MATRIX_ROUTE, "(0, 1, 0)"), 2: (MATRIX_ROUTE, "(0, 1, 0)"), 4: (SIGMA_ROUTES, "inverse row"),
            5: IDENTITY, 7: ("uniform shift fails for", "(0, 3, -2)"), 8: CROSS_VALIDATION}, INVERSE_GOLDEN),
    # U X = B' in place of U X = det * B'
    Mutant("back_substitution_without_det", slipped(exact._solve_square, "d * row[c]", "row[c]"),
           {1: (MATRIX_ROUTE, "(0, 1, 0)"), 2: (MATRIX_ROUTE, "(0, 1, 0)"),
            3: ("first layout", "('first layout', 'case')"), 4: (SIGMA_ROUTES, "inverse row"), 5: IDENTITY,
            7: ("uniform shift fails for", "(0, 3, -2)"), 8: CROSS_VALIDATION}, INVERSE_GOLDEN),
    # forward elimination's row swap without negating the row moved down: every determinant
    # taken through a swap loses its sign, and criterion 5 compares the identity's two sides
    Mutant("eliminate_swap_not_negated", slipped(exact._eliminate, "[-x for x in work[rk]]", "work[rk]"),
           {4: (SIGMA_ROUTES, "determinants"), 5: IDENTITY},
           (public_functions_on_a_row_swap,)),
    # a pivot step that leaves the rows with a zero in its column unscaled: their later
    # Bareiss divisions are no longer exact
    Mutant("eliminate_skips_rescale", slipped(exact._eliminate, "elif p != prev:", "elif False:"),
           {4: (SIGMA_ROUTES, "determinants"), 5: ("identity fails on", "det M~"),
            7: ("uniform shift fails for", "(0, 3, -2)"), 8: CROSS_VALIDATION},
           (test_exact.TestMatrixFrozen().test_det_golden,)),
    # the matrix gate without its ragged test: the elimination zips each row with the pivot
    # row, so a longer later row is cut short without a word; the battery builds no ragged matrix
    Mutant("integer_rows_lets_ragged_through", slipped(exact._integer_rows, "len(row) != width", "False"),
           {}, (partial(test_exact.TestMatrixErrors().test_every_solver_goes_through_the_gate,
                        *next(p.values for p in test_exact.GATE_REFUSALS if p.id == "det-ragged")),)),
    # mu + k + 1 on the right at degree 2 or more subtracts b*Q, one degree above Q, which has
    # degree 3 here
    Mutant("shift_identity_with_k_slip", slipped(algebra.shift_identity_check, "mu + k)", "mu + k + (k >= 2))"),
           {6: ("shift identity fails for", "(0, 4, 0)")}),
    # e*nd dropped: the term it contributes, b * theta(Q), vanishes at lam^0, so the first
    # difference has a lam power
    Mutant("push_nabla_without_lam_derivative", slipped(connection.push_nabla, "lam_b = e * nd + nb", "lam_b = nb"),
           {7: ("uniform shift fails for", "(0, 3, -2)")}),
    # push_nabla's T pass with p for p + 1: conj_b(a) loses its -b, which b alone, with no a
    # power, cannot show
    Mutant("push_nabla_t_pass_factor_one_low", slipped(connection.push_nabla, "- (p + 1) * w", "- p * w"),
           {7: ("uniform shift fails for", "(0, 3, -2)")},
           (test_connection.TestPushNabla().test_family_a_operator_frozen,)),
    # the PDE's beta written unreduced: only the text of the analyze report shows it, as the
    # properties build their Fractions through the reducing constructor
    Mutant("beta_unreduced", slipped(connection.SigmaTau._beta_parts, "g = math.gcd(bn, bd)", "g = 1"),
           {}, (test_connection.test_records_match_fraction_arithmetic,) + REPLAY),
    # lam*nabla raises the degree by one: the degree-4 part goes to total degree 5
    Mutant("via_shift_one_degree_too_far", slipped(connection.push_nabla_via_shift, "(i + j) * per_degree",
                                                   "(i + j + (i + j > 3)) * per_degree"),
           {7: ("lam*nabla routes differ on the degree-4 multiple", "(0, 5, 0)")}),
    # the shift route's (-sigma*a)*Q written at Q's own a powers, as -sigma*Q: only criterion 7
    # runs the route, on the degree-4 multiple; the oracle's first example is the one where the
    # route's two parts cancel at a*b
    Mutant("via_shift_a_term_not_shifted", slipped(connection.push_nabla_via_shift, "(i + 1, j, e)", "(i, j, e)"),
           {7: ("lam*nabla routes differ on the degree-4 multiple", "(0, 3, -2)")},
           (routes_agree_where_their_parts_cancel,)),
    # k*sigma + tau in place of k*sigma - tau on b; push_nabla reads its N off nabla_formula,
    # while the expected left factor is built from sigma and tau
    Mutant("nabla_formula_sign_slip", slipped(connection.nabla_formula, "- tn * sd", "+ tn * sd"),
           {1: (MATRIX_ROUTE, "(0, 1, 0)"), 2: (MATRIX_ROUTE, "(0, 1, 0)"),
            7: ("uniform shift fails for", "(0, 3, -2)"), 8: CROSS_VALIDATION},
           (test_connection.TestNablaFormula().test_layout_a,)),
    # one entry per check of cross_validate, in its order, each failing that check
    cross_check("r", slipped(exponents.dependency, "r=r,", "r=r + 1,"),
                {3: ("first layout", "('first layout', 'r')"), 4: (SIGMA_ROUTES, "relation"), 5: IDENTITY}),
    cross_check("p", slipped(exponents.dependency, "p=p,", "p=(p[0] + 1,) + p[1:],"),
                {3: ("first layout", "('first layout', 'p')")}),
    cross_check("d", slipped(exponents.dependency, "d=d,", "d=d + 1,"),
                {3: ("first layout", "('first layout', 'd')"), 7: ("uniform shift fails for", "(0, 3, -2)")}),
    cross_check("h", slipped(exponents.dependency, "h=h,", "h=h + 1,"),
                {3: ("first layout", "('first layout', 'h')"), 7: ("uniform shift fails for", "(0, 3, -2)")}),
    # "case" is the first field of both layouts in name order
    cross_check("case", slipped(exponents.dependency, '("I", r) if side_nonpos > side_pos else ("II", -r)',
                                '("II", r) if side_nonpos > side_pos else ("I", -r)'),
                {3: ("first layout", "('first layout', 'case')")}),
    cross_check("sigma", slipped(exponents.dependency, "_fraction(r, r - sum_p)", "_fraction(r, r - sum_p) + 1"),
                {3: ("first layout", "('first layout', 'sigma')"), 4: (SIGMA_ROUTES, "reported sigma"),
                 5: ("identity fails on", "passed")}),
    cross_check("lambda_exponent", slipped(families.family_a, "roots_low, -2, nabla_one)", "roots_low, 2, nabla_one)"),
                {1: ("operator match False", "(0, 2, -2)"), 7: ("uniform shift fails for", "(0, 3, 2)")}),
    # the check reading det M' negated, as if its sign were (-1)^n for (-1)^(n+1): it also
    # fails criterion 5's comparison of determinants
    cross_check("determinant_identity", slipped(exponents.det_identity_check, "d_prime = data", "d_prime = -data"),
                {5: ("identity fails on", "det M'")}),
    cross_check("sigma_from_inverse", slipped(connection.sigma_tau, "_fraction(w[0], det)", "_fraction(w[0], det) + 1"),
                {1: (MATRIX_ROUTE, "(1, 0, 0)"), 2: (MATRIX_ROUTE, "(1, 0, 0)"), 4: (SIGMA_ROUTES, "inverse row"),
                 7: ("uniform shift fails for", "(0, 3, -2)")}),
    cross_check("nabla_one", slipped(families.family_a, "roots_low, -2, nabla_one)",
                                     "roots_low, -2, nabla_one + ABElement.gen_b())"),
                {1: ("operator match True, nabla match False", "(0, 1, 0)")}),
    # a check's verdict compared with itself: every check passes whatever the matrices read, so
    # criterion 8's copy of the first golden layout with nabla_one doubled passes too
    Mutant("verdict_compares_expected_with_itself", slipped(
        families.CheckOutcome.passed.fget, "self.expected == self.got", "self.expected == self.expected"),
           {8: ("cross validation passes a copy of A(2, 2, 1) with nabla_one doubled", None)},
           tuple(partial(test_families.TestCheckOutcome().test_verdict_is_the_comparison, *row)
                 for row in test_families.VERDICTS if not row[2])),
    # criterion 9 in the order of its FAIL branches.  propagate's step factor m + rho + 1 read
    # as m + rho: the golden values name the first wrong cell (i, k, m, L power)
    Mutant("chain_step_at_m_plus_rho", slipped(asymptotics._chain, "s = (m + 1) * rd + rn", "s = m * rd + rn"),
           {9: ("golden values differ on the golden spec", "(0, 0, 1, 1)")},
           FROBENIUS_GOLDEN),
    # the closed form's factor for t = m - 1 read at t = m
    Mutant("frobenius_one_order_late", slipped(selftest.frobenius_table, "m + spec.rhos[i]", "m + spec.rhos[i] + 1"),
           {9: ("closed-form route differs from propagate on the golden spec", "(0, 0, 1, 1)")},
           FROBENIUS_GOLDEN),
    # the depth coupling scaled by L instead of L/gcd(L, s)
    Mutant("back_is_l", slipped(asymptotics._chain, "rd * (big_l // gamma)", "rd * big_l"),
           {9: ("nonzero residual for spec", "(1, 0, 5)")}),
    # verify_table's residual without the depth-(k+1) share Y[k+1]; this slip and the next
    # already show at the first relation of the first random spec
    Mutant("no_depth_share", slipped(asymptotics.verify_table, "y_up, q = y, p", "y_up, q = 0, p"),
           {9: ("nonzero residual for spec", "(0, 0, 0)")}, LONG_TABLE),
    # verify_table's factor m + rho + 1 read as m + rho
    Mutant("factor_m_plus_rho", slipped(asymptotics.verify_table, "((m + 1) * rd + rn)", "(m * rd + rn)"),
           {9: ("nonzero residual for spec", "(0, 0, 0)")}, LONG_TABLE),
    # the closed form's division by B + x with the sign of the running quotient flipped;
    # it vanishes at log depth 0, so the golden spec passes
    Mutant("frobenius_sign_slip", slipped(selftest.frobenius_table, "(p - quotient)", "(p + quotient)"),
           {9: ("closed-form route differs from propagate for spec", "(0, 1, 1, 1)")}),
    # each Fraction of the trusted constructor left unreduced when its parts share a factor: it
    # equals no reduced Fraction of its value, so sigma from the inverse row differs from the other
    # routes and the determinant identity's sigma check fails; the first golden value emitted
    # so is 1/10 at L^2, and the first golden layout's low root 5/2 is built as 20/8, which
    # reduced mod 1 stays 4/8
    Mutant("fraction_unreduced", slipped(exact._fraction, "g = math.gcd(n, d)", "g = 1"),
           {4: (SIGMA_ROUTES, "inverse row"), 5: ("identity fails on", "passed"), 8: CROSS_VALIDATION,
            9: ("golden values differ on the golden spec", "(0, 0, 2, 2)"),
            11: ("first layout", "('first layout', 'position 0')")},
           FROBENIUS_GOLDEN + (test_exact.test_fraction_from_parts_is_what_the_constructor_makes,)),
    # ... and with its sign rule dropped: a negative denominator stays where it is, and the first
    # golden layout's sigma prints as 2/-1
    Mutant("fraction_sign_rule_dropped", slipped(exact._fraction, "if d < 0:", "if False:"),
           {3: ("first layout", "('first layout', 'sigma')"), 4: (SIGMA_ROUTES, "inverse row"),
            5: ("identity fails on", "passed"), 8: CROSS_VALIDATION},
           (test_exact.test_fraction_from_parts_is_what_the_constructor_makes,)),
    # a cache keyed by the spec alone hands a second seed the first seed's table
    Mutant("propagate_cached_by_spec", propagate_cached_by_spec,
           {9: ("propagate is not additive in the seed for spec", "(0, 0, 0, 0)")}),
    # every chain stops after 40 orders, which only the order-80 long spec reaches
    Mutant("chain_stops_at_order_40", slipped(asymptotics._chain, "range(spec.order - m0)",
                                              "range(min(spec.order - m0, 40))"),
           {9: ("nonzero residual for the long spec", "(0, 0, 40)")}),
    # every residual past order 40 dropped: names the perturbed cell, "perturbing c[1, 2, 61] ...
    # gives residuals at []", and no KEY
    Mutant("verify_table_blind_past_order_40", slipped(asymptotics.verify_table, "if n:", "if n and m <= 40:"),
           {9: ("perturbing c[1, 2, 61] of the long spec gives residuals at", None)}),
    # a renormalization that resets the shared denominator without rescaling the numerators
    Mutant("renormalize_without_rescaling", slipped(
        asymptotics._chain, "v = [c.numerator * (big_e // c.denominator) for c in emitted] + [0]", "pass"),
           {9: ("propagate fails on the telescoping spec", "(0, 0, 3)")}),
    # gated on the spec: the random specs stop at order 8, so only the order-12 telescoping
    # spec meets a closed form cut at order 10
    Mutant("frobenius_cut_at_order_10", slipped(selftest.frobenius_table, "range(m0, spec.order + 1)",
                                                "range(m0, min(spec.order, 10) + 1)"),
           {9: ("propagate fails on the telescoping spec", "(0, 0, 11, 7)")}),
    # propagate's one digit-limit test per step without its numerator half: a step whose
    # denominators fit under the limit is let through however long its numerators grow
    Mutant("step_digit_test_without_numerators", slipped(
        asymptotics._chain, "den.bit_length() > room or max(map(int.bit_length, v)) > room", "den.bit_length() > room"),
           {}, (test_asymptotics.TestDigitLimit().test_exact_boundary_at_a_numerator,)),
    # ... and without its denominator half
    Mutant("step_digit_test_without_denominators", slipped(
        asymptotics._chain, "den.bit_length() > room or max(map(int.bit_length, v)) > room",
        "max(map(int.bit_length, v)) > room"),
           {}, (test_asymptotics.TestDigitLimit().test_exact_boundary_at_a_denominator,)),
    # no limit (0) read as a bound of 1, which every seed reaches; the battery runs under
    # Python's default limit, so no criterion fails
    Mutant("no_limit_refuses_everything", slipped(asymptotics._digit_bound, "if limit else None", "if limit else 1"),
           {}, (test_asymptotics.TestDigitLimit().test_no_limit_refuses_nothing,)),
    # verify_table's walk down a diagonal keeps reading the order m coefficient at its first degree
    Mutant("verify_rows_not_advanced", slipped(asymptotics.verify_table, "terms.get(e, _ZERO)", "terms.get(0, _ZERO)"),
           {9: ("nonzero residual for spec", "(0, 0, 1)")}, LONG_TABLE),
    # the hypothesis gate's exit code 2 reported as 1, the code of malformed input
    Mutant("main_hypothesis_exit_1", slipped(cli.main, "return 2", "return 1"),
           {10: ("rank 3, exit code 1", "exit code")}),
    # the unreduced roots 5/2 and 1 keep the length; 5/2 is the first entry that differs
    Mutant("candidates_not_reduced", slipped(families.monodromy_candidates, "x - (x.numerator // x.denominator)", "x"),
           {11: ("first layout", "('first layout', 'position 0')")}),
    # a missing key counts as 0, so only the length names a list that grows by a 0
    Mutant("candidates_with_a_zero", slipped(families.monodromy_candidates, "for x in result.roots_low]",
                                             "for x in result.roots_low] + [Fraction(0)]"),
           {11: ("first layout", "('first layout', 'length')")}),
    # the printer's magnitudes of rational coefficients left unreduced: 1/2*a + 1/3*b prints as
    # 3/6*a + 2/6*b, which reads back to the same element, so no criterion fails
    Mutant("printer_magnitude_unreduced", slipped(
        ABElement.__str__, "nums[keys[start]]\n            g = math.gcd(n, den)", "nums[keys[start]]\n            g = 1"),
           {}, (test_algebra.TestPrinting().test_shared_denominator_terms_print_reduced,
                test_fuzz.test_parsers_match_fraction_oracle)),
    # ... and of the terms of a lam sum: (1/2 + 1/3*lam)*b prints as (3/6 + 2/6*lam)*b
    Mutant("printer_lam_magnitude_unreduced", slipped(
        ABElement.__str__, "nums[key]\n            g = math.gcd(n, den)", "nums[key]\n            g = 1"),
           {}, (test_algebra.TestPrinting().test_shared_denominator_terms_print_reduced,
                test_fuzz.test_parsers_match_fraction_oracle)),
    # parse drops a term's own sign where it signs the term's literals: "a - 2*b" reads as
    # a + 2*b, so the golden nabla texts read back wrong
    Mutant("literal_read_drops_sign", slipped(ABElement.parse, "minus != (lam_open", "False != (lam_open"),
           {1: ("operator match True, nabla match False", "(0, 1, 0)"),
            2: ("operator match True, nabla match False", "(1, 0, 0)")},
           (test_algebra.TestTextFormat().test_parse_variants,)),
    # the first term of a lam sum read without its sign, its "(-" compared with "-":
    # "(-4*lam^-2)*a^2" reads as (4*lam^-2)*a^2; the battery reads no lam sum, so no
    # criterion fails
    Mutant("group_term_drops_sign", slipped(ABElement.parse, 'lam_open == "(-"', 'lam_open == "-"'),
           {}, (test_fuzz.test_parsers_match_fraction_oracle, test_golden.test_algebra_texts_read_back_byte_identically)),
    # a term's parts read without the "*" between them: "2a + ab" reads as 2*a + a*b; no
    # text the package prints lacks one, so only the fuzz oracle's example sees the slip
    Mutant("term_parts_without_star", rebind(algebra._TERM_RE, re.compile(
        algebra._TERM_RE.pattern.replace(r"(?(2)\*)", r"\*?").replace(r"(?(9)\*)", r"\*?"))),
           {}, (test_fuzz.test_parsers_match_fraction_oracle,)),
    # the product's one-pass flattening of its rows keeps only the positive numerators
    Mutant("product_drops_negative_terms", slipped(ABElement.__mul__, "row.items() if n}", "row.items() if n > 0}"),
           {1: ("operator match False", "(0, 2, -2)"), 2: ("operator match False", "(0, 2, 2)"),
            6: ("shift identity fails for", "(0, 4, 0)"), 7: ("uniform shift fails for", "(1, 2, -2)"),
            8: ("operator is not the product of its factors", "(0, 2, -2)")},
           (test_families.TestClosedFormOracle().test_family_a_grid,)),
    # the rendered cells in entry order: propagate makes its entries in key order, so only a
    # hand-built table shows the slip and no criterion fails
    Mutant("cells_json_unsorted", slipped(ExpansionTable._cell_text, "sorted(self.entries.items())",
                                          "self.entries.items()"),
           {}, (one_rendering_of_unsorted_entries,)),
    # each run of absent degrees in a CSV row written as one 0; the battery writes no CSV
    Mutant("csv_zero_run_written_once", slipped(ExpansionTable.csv_chunks, '",0" * gap for', '",0" * min(gap, 1) for'),
           {}, (partial(test_asymptotics.TestSerialization().test_csv_bytes_match_csv_writer, "golden"),)),
    # propagate --json prints its whole JSON text in one write: the bytes are the same, and
    # the streaming oracle's JSON form fails
    Mutant("propagate_json_printed_whole", slipped(cli._cmd_propagate, "json.dump(table.to_json(), sys.stdout, indent=2)",
                                                   'print(json.dumps(table.to_json(), indent=2), end="")'),
           {}, (partial(output_streams_unchanged, True),)),
    # the one check of mu's length lets a too-short mu through: sigma_tau pairs the entries it
    # has with the inverse row, and the golden mu [1, 0] for n = 2 is analyzed, not refused
    Mutant("mu_length_lets_short_through", slipped(MonomialMu.check_length, "!= n + 1", "> n + 1"),
           {}, (test_connection.TestSigmaTau().test_wrong_beta_length,) + REPLAY),
    # three one-character changes in what the CLI writes, which only the golden replay sees;
    # the input-error branch is named by the {exc} of its print, as the digit-limit branch
    # also prints to stderr and returns 1
    Mutant("term_text_with_x", slipped(exact.term_text, 'f"{mag}*{monomial}"', 'f"{mag}x{monomial}"'), {}, REPLAY),
    Mutant("json_indent_3", rebind(REAL_DUMPS, dumps_indent_3), {}, REPLAY),
    Mutant("main_input_error_exit_2", slipped(cli.main, '{exc}", file=sys.stderr)\n        return 1',
                                              '{exc}", file=sys.stderr)\n        return 2'), {}, REPLAY),
]


def test_every_entry_is_killed_by_something():
    assert [m.name for m in MUTANTS if not (m.kills or m.oracles)] == []
    assert len(ENTRY) == len(MUTANTS)


def test_every_other_entry_slips_the_package_source():
    # The installs that edit no function's source: one caches the real function, one edits
    # a compiled pattern, and one patches json.dumps itself, which CI's streaming check needs.
    assert {m.name for m in MUTANTS if not hasattr(m.install, "slip")} == {
        "propagate_cached_by_spec", "term_parts_without_star", "json_indent_3"}


def test_cross_validation_passes_unpatched():
    names = [c.name for c in families.cross_validate(families.family_a(2, 2, 1)).checks]
    assert names == [o.args[0] for m in MUTANTS for o in m.oracles if getattr(o, "func", None) is check_passes]


# The oracles that are no collected test, each run unpatched elsewhere: check_passes by
# test_acceptance's criterion_08, which cross-validates the first golden layout,
# replay_to_first_change, against the same records, by test_golden's
# test_corpus_replays_to_recorded_digests, output_streams_unchanged as test_cli's
# test_output_streams_unchanged[json], and one_rendering_of_unsorted_entries,
# public_functions_on_a_row_swap and routes_agree_where_their_parts_cancel as @examples of
# test_one_rendering_serves_both_formats, test_public_functions_match_oracle and
# test_two_routes_agree.
RUN_ELSEWHERE = {check_passes, replay_to_first_change, output_streams_unchanged, one_rendering_of_unsorted_entries,
                 public_functions_on_a_row_swap, routes_agree_where_their_parts_cancel}


def test_other_criteria_and_oracles_pass_unpatched():
    # Every criterion runs unpatched in test_acceptance's test_criterion, and an oracle
    # that is a collected test, or a parametrization of one, runs unpatched as itself.
    for oracle in {o for m in MUTANTS for o in m.oracles}:
        function = getattr(oracle, "func", oracle)
        if function not in RUN_ELSEWHERE and not function.__name__.startswith("test_"):
            oracle()


def test_slip_runs_in_its_module_globals(monkeypatch):
    # the text form of the streaming oracle patches cli.open, which the slipped _cmd_propagate must see
    ENTRY["propagate_json_printed_whole"].install(monkeypatch)
    assert cli._cmd_propagate.__globals__ is vars(cli)
    output_streams_unchanged(False)


def assert_kills(monkeypatch, mutant, cids, oracles=()):
    """Install mutant; each criterion of cids fails as its entry says, and each of oracles raises."""
    mutant.install(monkeypatch)
    for cid in cids:
        prefix, key = mutant.kills[cid]
        result = selftest.run_criterion(cid)
        assert not result.passed, result.detail
        assert result.detail.startswith(prefix), result.detail
        if key is None:
            assert "; first difference at " not in result.detail, result.detail
        else:
            assert first_difference_key(result.detail) == key
    for oracle in oracles:
        with pytest.raises((AssertionError, pytest.fail.Exception)):
            oracle()


ENTRY = {m.name: m for m in MUTANTS}
# The three slips that two criteria kill keep one test per kill, under the names the
# kills had when each slip was registered twice; test_mutant_is_killed runs the rest.
TWO_KILLS = ("case", "det_returns_abs", "determinant_identity")
ONE_TEST = [m for m in MUTANTS if m.name not in TWO_KILLS]


@pytest.mark.parametrize("mutant", ONE_TEST, ids=[m.name for m in ONE_TEST])
def test_mutant_is_killed(monkeypatch, mutant):
    assert_kills(monkeypatch, mutant, mutant.kills, mutant.oracles)


@pytest.mark.parametrize("cid, name", [(3, "case"), (5, "det_returns_abs")], ids=["criterion-3", "criterion-5"])
def test_criterion_mutant_fails_its_criterion(monkeypatch, cid, name):
    assert_kills(monkeypatch, ENTRY[name], [cid])


@pytest.mark.parametrize("name", ["case", "determinant_identity"])
def test_cross_check_mutant_fails_its_check_and_criterion_8(monkeypatch, name):
    assert_kills(monkeypatch, ENTRY[name], [8], ENTRY[name].oracles)


def test_det_identity_sign_slip_fails_criterion_5(monkeypatch):
    assert_kills(monkeypatch, ENTRY["determinant_identity"], [5])


@pytest.mark.parametrize("name", ["det_returns_abs"])
def test_sigma_route_mutant_fails_criterion_4(monkeypatch, name):
    assert_kills(monkeypatch, ENTRY[name], [4])
