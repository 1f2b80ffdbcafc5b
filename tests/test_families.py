"""Closed-form operators for the two parametrized layouts, checked against the matrix route."""

import dataclasses
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lamconn import families
from lamconn.algebra import ABElement, homogeneous_components, linear_factor_product
from lamconn.errors import InputError
from lamconn.exact import LaurentPoly
from lamconn.exponents import ExponentData
from lamconn.families import (
    CheckOutcome,
    CrossValidationReport,
    FamilyResult,
    cross_validate,
    family_a,
    family_b,
    match_family,
    monodromy_candidates,
)

params_a = st.tuples(*[st.integers(min_value=1, max_value=5)] * 3)
params_b = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=4),
)


class TestFamilyA:
    def test_unit_parameters(self):
        result = family_a(1, 1, 1)
        assert result.roots_top == (F(3), F(2), F(1))
        assert result.roots_low == (F(3), F(3, 2))
        assert result.lambda_exponent == -2
        assert result.nabla_one == ABElement.parse("2*a - 3*b")

    def test_golden_instance(self):
        result = family_a(2, 2, 1)
        assert result.roots_top == (F(5, 2), F(7, 4), F(3, 4))
        assert result.roots_low == (F(5, 2), F(1))
        assert result.exponents.alphas == ((4, 0, 0), (0, 4, 0), (0, 0, 2), (2, 2, 1))
        assert result.nabla_one == ABElement.parse("2*a - 2*b")

    def test_golden_factored_display(self):
        text = family_a(2, 2, 1).factored_display()
        assert text == "(a - 5/2*b)*[(a - 7/4*b)*(a - 3/4*b) - 4*lam^-2*(a - b)]"

    def test_operator_assembly(self):
        result = family_a(2, 2, 1)
        top = linear_factor_product([F(5, 2), F(7, 4), F(3, 4)])
        low = linear_factor_product([F(5, 2), F(1)])
        assert linear_factor_product(result.roots_top) == top
        assert linear_factor_product(result.roots_low) == low
        assert result.full_operator == top + low.scale(LaurentPoly.lam_power(-2, -4))

    def test_components_split_by_degree(self):
        result = family_a(2, 2, 1)
        assert homogeneous_components(result.full_operator) == [
            (3, linear_factor_product(result.roots_top)),
            (2, linear_factor_product(result.roots_low).scale(LaurentPoly.lam_power(-2, -4))),
        ]

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(InputError):
            family_a(*bad)

    @pytest.mark.parametrize("bad", [("2", 1, 1), (1, F(3, 2), 1), (1, 1, True)])
    def test_rejects_nonintegers(self, bad):
        with pytest.raises(InputError):
            family_a(*bad)


class TestFamilyB:
    def test_unit_parameters(self):
        result = family_b(1, 1, 1, 1)
        assert result.roots_top == (F(3), F(3, 2), F(1))
        assert result.roots_low == (F(5, 2), F(3, 2))
        assert result.lambda_exponent == 2
        assert result.nabla_one == ABElement.parse("-2*a + 2*b")

    def test_golden_instance(self):
        result = family_b(2, 2, 1, 1)
        assert result.roots_top == (F(5, 2), F(5, 4), F(3, 4))
        assert result.roots_low == (F(2), F(1))
        assert result.exponents.alphas == ((4, 0, 1), (0, 4, 1), (0, 0, 2), (2, 2, 0))
        assert result.nabla_one == ABElement.parse("-2*a + 3/2*b")

    def test_golden_factored_display(self):
        text = family_b(2, 2, 1, 1).factored_display()
        assert text == "(a - 5/2*b)*(a - 5/4*b)*(a - 3/4*b) - 4*lam^2*(a - 2*b)*(a - b)"

    def test_one_sided_powers_allowed(self):
        # u may be zero as long as u + v stays positive
        result = family_b(1, 2, 0, 3)
        assert result.exponents.alphas[0] == (2, 0, 0)
        assert cross_validate(result).passed

    @pytest.mark.parametrize("bad", [(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, -1, 2), (1, 1, 0, 0)])
    def test_rejects_bad_parameters(self, bad):
        with pytest.raises(InputError):
            family_b(*bad)


class TestMonodromyCandidates:
    # the candidates of both golden instances are pinned by criterion 11
    def test_multiplicity_kept(self):
        # equal residues are reported once per root, not deduplicated
        result = family_b(2, 2, 1, 1)
        assert len(monodromy_candidates(result)) == len(result.roots_low)

    @given(params_a)
    def test_residues_in_unit_interval(self, params):
        result = family_a(*params)
        for root, residue in zip(result.roots_low, monodromy_candidates(result)):
            assert 0 <= residue < 1
            assert (root - residue).denominator == 1


class TestMatchFamily:
    def test_round_trip_a(self):
        result = family_a(3, 1, 2)
        matched = match_family(result.exponents)
        assert matched is not None
        assert (matched.kind, matched.params) == ("A", (3, 1, 2))
        assert matched.full_operator == result.full_operator

    def test_round_trip_b(self):
        result = family_b(1, 1, 0, 1)
        matched = match_family(result.exponents)
        assert matched is not None
        assert (matched.kind, matched.params) == ("B", (1, 1, 0, 1))

    def test_rejects_cube(self):
        cube = ExponentData(n=2, alphas=((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)))
        assert match_family(cube) is None

    def test_rejects_wrong_dimension(self):
        data = ExponentData(n=1, alphas=((2, 0), (0, 2), (1, 1)))
        assert match_family(data) is None

    def test_rejects_scaled_diagonal(self):
        data = ExponentData(n=2, alphas=((5, 0, 0), (0, 4, 0), (0, 0, 2), (2, 2, 1)))
        assert match_family(data) is None

    @given(params_b)
    def test_round_trip_b_random(self, params):
        result = family_b(*params)
        matched = match_family(result.exponents)
        assert matched is not None
        assert (matched.kind, matched.params) == ("B", params)

    def test_match_carries_the_layout_itself(self):
        # cross_validate then reads the analysis already cached on the layout
        grid = [family_a(*params) for params in product(range(1, 4), repeat=3)] + [
            family_b(p, q, u, v) for p, q, u, v in product(range(1, 3), range(1, 3), range(3), range(3)) if u + v
        ]
        for result in grid:
            data = ExponentData(n=2, alphas=result.exponents.alphas)
            assert match_family(data).exponents is data, result.label()


class TestCrossValidation:
    # the golden instances A(2, 2, 1), A(3, 1, 2) and B(2, 2, 1, 1) are pinned by criterion 8
    def test_check_names_stable(self):
        names = [c.name for c in cross_validate(family_a(1, 1, 1)).checks]
        assert names == [
            "r",
            "p",
            "d",
            "h",
            "case",
            "sigma",
            "lambda_exponent",
            "determinant_identity",
            "sigma_from_inverse",
            "nabla_one",
        ]

    @given(params_a)
    def test_family_a_random(self, params):
        assert cross_validate(family_a(*params)).passed

    @given(params_b)
    def test_family_b_random(self, params):
        assert cross_validate(family_b(*params)).passed


class TestDisplayAndJson:
    def test_label(self):
        assert family_a(2, 2, 1).label() == "A(2, 2, 1)"
        assert family_b(1, 2, 3, 4).label() == "B(1, 2, 3, 4)"

    def test_pulled_out_form_only_when_shared(self):
        # the leftmost top and low roots of layout A agree exactly when w = 1
        assert "[" in family_a(3, 2, 1).factored_display()
        assert "[" not in family_a(2, 2, 2).factored_display()

    def test_json_fields(self):
        payload = family_a(2, 2, 1).to_json()
        assert payload["kind"] == "A"
        assert payload["params"] == [2, 2, 1]
        assert payload["roots_top"] == ["5/2", "7/4", "3/4"]
        assert payload["roots_low"] == ["5/2", "1"]
        assert payload["c_coeff"] == "-4"
        assert payload["lambda_exponent"] == -2
        assert payload["monodromy_candidates"] == ["1/2", "0"]
        assert payload["operator_factored"] == family_a(2, 2, 1).factored_display()
        assert payload["operator"] == str(family_a(2, 2, 1).full_operator)

    @given(params_a)
    def test_every_root_positive_a(self, params):
        result = family_a(*params)
        assert all(r > 0 for r in result.roots_top + result.roots_low)

    @given(params_b)
    def test_every_root_positive_b(self, params):
        result = family_b(*params)
        assert all(r > 0 for r in result.roots_top + result.roots_low)

    def test_cross_validation_json(self):
        report = cross_validate(family_b(2, 2, 1, 1)).to_json()
        assert report["label"] == "B(2, 2, 1, 1)"
        assert report["passed"] is True
        assert all(set(c) == {"name", "passed", "expected", "got"} for c in report["checks"])


class TestDerivedOperators:
    def test_operators_follow_the_roots(self):
        result = family_a(2, 2, 1)
        changed = dataclasses.replace(result, roots_low=(F(1, 2),))
        low = linear_factor_product([F(1, 2)]).scale(LaurentPoly.lam_power(-2, -4))
        assert changed.full_operator == linear_factor_product(result.roots_top) + low
        assert changed.c_coeff == F(-4)

    @pytest.mark.parametrize("build, params", [(family_a, (2, 2, 1)), (family_b, (2, 2, 1, 1))])
    def test_operator_built_once_on_first_read(self, monkeypatch, build, params):
        real = families.linear_factor_product
        calls = []

        def counted(roots):
            calls.append(roots)
            return real(roots)

        monkeypatch.setattr(families, "linear_factor_product", counted)
        result = build(*params)
        assert calls == []
        first = result.full_operator
        assert calls == [result.roots_top, result.roots_low]
        assert result.full_operator is first
        assert len(calls) == 2

    def test_copy_derives_its_own_operator(self):
        # the seam the lambda_exponent and nabla_one mutants use
        result = family_a(2, 2, 1)
        changed = dataclasses.replace(result, lambda_exponent=2)
        low = linear_factor_product(result.roots_low).scale(LaurentPoly.lam_power(2, -4))
        assert changed.full_operator == linear_factor_product(result.roots_top) + low
        assert changed.full_operator != result.full_operator

    def test_no_operator_arguments(self):
        r = family_a(1, 1, 1)
        fields = (r.kind, r.params, r.exponents, r.roots_top, r.roots_low, r.lambda_exponent, r.nabla_one)
        assert FamilyResult(*fields) == r
        with pytest.raises(TypeError):
            FamilyResult(*fields, full_operator=ABElement.one())
        with pytest.raises(TypeError):
            FamilyResult(*fields, c_coeff=F(1))



def sum_form_a(u, v, w):
    """Family A's roots and lam*nabla([1]) as sums of Fractions, the way they were first written."""
    s = F(u * v + v * w + w * u, 2 * u * v * w)
    top = (2 + F(u + v, 2 * u * v), 1 + F(u + w, 2 * u * w), F(v + w, 2 * v * w))
    return top, (F(3, 2) + s, s), ABElement({(1, 0): 2, (0, 1): -2 * s})


def sum_form_b(p, q, u, v):
    """Family B's roots and lam*nabla([1]) as sums of Fractions, the way they were first written."""
    t = F(p * u + q * v + 2 * p * q, 2 * p * q * (u + v))
    top = (2 + F(p + q, 2 * p * q), F(1, 2) + t, t)
    low = (
        1 + F(p * u + q * v + 2 * p * q + p * (u + v), 2 * p * q * (u + v)),
        F(p * u + q * v + 2 * p * q + q * (u + v), 2 * p * q * (u + v)),
    )
    return top, low, ABElement({(1, 0): -2, (0, 1): 2 * t})


GRID_A = list(product(range(1, 9), repeat=3))
GRID_B = [(p, q, u, v) for p, q, u, v in product(range(1, 7), range(1, 7), range(7), range(7)) if u + v >= 1]


class TestClosedFormOracle:
    """The records built on integers equal the Fraction sums, and the operator
    equals top + c * lam^lambda_exponent * low through the general product."""

    @staticmethod
    def check(result, top, low, nabla_one):
        assert result.roots_top == top
        assert result.roots_low == low
        assert result.nabla_one == nabla_one
        weight = ABElement.monomial(0, 0, LaurentPoly.lam_power(result.lambda_exponent, FamilyResult.c_coeff))
        assert result.full_operator == linear_factor_product(top) + linear_factor_product(low) * weight

    def test_family_a_grid(self):
        for params in GRID_A:
            self.check(family_a(*params), *sum_form_a(*params))

    def test_family_b_grid(self):
        for params in GRID_B:
            self.check(family_b(*params), *sum_form_b(*params))


# (expected, got, whether the check passes) for the kinds of value cross_validate compares
VERDICTS = [
    (F(-2), F(-2), True),
    (F(-2), F(2), False),
    (F(2), 2, True),
    ((1, 1, -1), (1, 1, -1), True),
    ((1, 1, -1), (1, 1, 1), False),
    (ABElement.parse("2*a - 3/2*b"), ABElement.parse("2*a - 3/2*b"), True),
    (ABElement.parse("2*a - 3/2*b"), ABElement.parse("2*a - (3/2*lam)*b"), False),
]


class TestCheckOutcome:
    def test_values_kept_and_printed_in_json(self):
        check = CheckOutcome("sigma", F(-2), F(-2))
        # the record keeps what a check compares, and no verdict of its own
        assert [f.name for f in dataclasses.fields(CheckOutcome)] == ["name", "expected", "got"]
        assert check.expected == F(-2)
        assert check.to_json() == {"name": "sigma", "passed": True, "expected": "-2", "got": "-2"}

    @pytest.mark.parametrize("expected, got, passed", VERDICTS)
    def test_verdict_is_the_comparison(self, expected, got, passed):
        check = CheckOutcome("compared", expected, got)
        assert check.passed is passed
        assert check.to_json()["passed"] is passed

    def test_failed_elements_name_first_difference(self):
        expected = ABElement.parse("a^2 - 3*a*b + (lam)*b")
        got = ABElement.parse("a^2 - 5/2*a*b + (2*lam)*b")
        check = CheckOutcome("forced", expected, got)
        # (0, 1, 1) is lam*b; a*b differs too, but at the larger key (1, 1, 0)
        assert check.to_json()["first_difference"] == {"key": [0, 1, 1], "expected": "1", "got": "2"}
        report = CrossValidationReport("forced", (check,))
        assert report.to_json()["checks"][0]["first_difference"]["key"] == [0, 1, 1]

    def test_failed_text_check_has_no_term(self):
        check = CheckOutcome("forced", "1", "0")
        assert check.to_json()["first_difference"] is None

    def test_passing_reports_unchanged(self):
        report = cross_validate(family_b(2, 2, 1, 1)).to_json()
        assert all("first_difference" not in c for c in report["checks"])
