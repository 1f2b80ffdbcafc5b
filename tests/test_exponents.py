"""Rank hypotheses, the minimal integer relation and the case split."""

import math
from dataclasses import replace
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lamconn.connection import sigma_tau
from lamconn.errors import ContractError, HypothesisError, InputError, SingularMatrixError
from lamconn.exact import det, invert, rank, solve
from lamconn.exponents import (
    ExponentData,
    MonomialMu,
    dependency,
    dependency_solution,
    det_identity_check,
    validate_hypotheses,
)
from strategies import exponent_layouts

LAYOUT_A = ExponentData(n=2, alphas=((4, 0, 0), (0, 4, 0), (0, 0, 2), (2, 2, 1)))
LAYOUT_B = ExponentData(n=2, alphas=((4, 0, 1), (0, 4, 1), (0, 0, 2), (2, 2, 0)))
CUBE = ExponentData(n=2, alphas=((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)))


class TestValidation:
    def test_matrices(self):
        m_tilde, m_prime = LAYOUT_A.matrix_m_tilde(), LAYOUT_A.matrix_m_prime()
        assert m_tilde == (
            (1, 1, 1, 1),
            (4, 0, 0, 2),
            (0, 4, 0, 2),
            (0, 0, 2, 1),
        )
        assert m_prime == ((4, 0, 0), (0, 4, 0), (0, 0, 2))
        assert {type(x) for row in m_tilde + m_prime for x in row} == {int}

    def test_duplicate_columns_rejected(self):
        with pytest.raises(InputError):
            ExponentData(n=1, alphas=((1, 0), (1, 0), (0, 1)))

    def test_wrong_counts_rejected(self):
        with pytest.raises(InputError):
            ExponentData(n=2, alphas=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        with pytest.raises(InputError):
            ExponentData(n=1, alphas=((1, 0, 0), (0, 1, 0), (1, 1, 1)))

    def test_bool_n_rejected(self):
        with pytest.raises(InputError):
            ExponentData(n=True, alphas=((1, 0), (0, 1), (1, 1)))
        with pytest.raises(InputError):
            ExponentData.from_json({"n": True, "alphas": [[1, 0], [0, 1], [1, 1]]})

    def test_negative_entries_rejected(self):
        with pytest.raises(InputError):
            ExponentData(n=1, alphas=((1, 0), (0, -1), (1, 1)))

    @pytest.mark.parametrize(
        "alphas, message",
        [
            (((1, 0), (0, True), (1, 1)), "exponent entry must be a nonnegative integer, got True"),
            (((1, 0), (0, -1), (1, 1)), "exponent entry must be a nonnegative integer, got -1"),
            (((1, 0), (0, 1.0), (1, 1)), "exponent entry must be a nonnegative integer, got 1.0"),
            (((1, 0), (0,), (-1, 1)), r"exponent vector \(0,\) must have 2 entries"),
            (((1, 0), (0, 1), (1, 1), (2,)), "expected 3 exponent vectors, got 4"),
        ],
        ids=["bool", "negative", "float", "short-vector-first", "count-first"],
    )
    def test_first_bad_entry_named(self, alphas, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            ExponentData(n=1, alphas=alphas)

    def test_int_subclass_entries_accepted(self):
        class Exponent(int):
            pass

        data = ExponentData(n=1, alphas=((Exponent(1), 0), (0, 1), (1, 1)))
        assert data.alphas == ((1, 0), (0, 1), (1, 1))

    def test_from_json_schema(self):
        data = ExponentData.from_json({"n": 2, "alphas": [[4, 0, 0], [0, 4, 0], [0, 0, 2], [2, 2, 1]]})
        assert data == LAYOUT_A
        with pytest.raises(InputError):
            ExponentData.from_json({"n": 2})
        with pytest.raises(InputError):
            ExponentData.from_json([1, 2])
        with pytest.raises(InputError):
            ExponentData.from_json({"n": 2, "alphas": "nope"})


class TestHypotheses:
    def test_both_pass_on_layouts(self):
        for data in (LAYOUT_A, LAYOUT_B):
            report = validate_hypotheses(data)
            assert report.passed
            assert report.rank_m_tilde == 4
            assert report.rank_m_prime == 3
            assert report.note is None

    def test_quasi_homogeneous_fails_first_only(self):
        report = validate_hypotheses(CUBE)
        assert not report.passed
        assert not report.bordered_rank_ok
        assert report.basis_ok
        assert report.rank_m_tilde == 3
        assert report.failure_messages() == ["hypothesis i) fails: rank 3 < 4"]

    def test_note_when_basis_fails_but_border_holds(self):
        # first two exponents collinear, third completes the bordered rank
        data = ExponentData(n=1, alphas=((1, 0), (2, 0), (0, 1)))
        report = validate_hypotheses(data)
        assert report.bordered_rank_ok
        assert not report.basis_ok
        assert not report.passed
        assert report.note is not None

    def test_dependency_refuses_failed_hypotheses(self):
        with pytest.raises(HypothesisError):
            dependency(CUBE)
        with pytest.raises(HypothesisError):
            dependency_solution(ExponentData(n=1, alphas=((1, 0), (2, 0), (0, 1))))
        # collinear exponents fail both hypotheses, and every stage words the refusal alike
        both_fail = ExponentData(n=1, alphas=((1, 0), (2, 0), (3, 0)))
        for stage in (dependency, dependency_solution, partial(sigma_tau, mu=MonomialMu.unit(1))):
            with pytest.raises(HypothesisError) as refused:
                stage(both_fail)
            assert str(refused.value) == "hypothesis i) fails: rank 2 < 3; hypothesis ii) fails: rank 1 < 2"


class TestDependency:
    def test_layout_a_frozen(self):
        dep = dependency(LAYOUT_A)
        assert (dep.r, dep.p, dep.sum_p) == (2, (1, 1, 1), 3)
        assert (dep.d, dep.h) == (2, 1)
        assert dep.case == "II"
        assert dep.sigma == -2
        assert dep.lambda_exponent == -2

    def test_layout_b_frozen(self):
        dep = dependency(LAYOUT_B)
        assert (dep.r, dep.p, dep.sum_p) == (2, (1, 1, -1), 1)
        assert (dep.d, dep.h) == (2, 1)
        assert dep.case == "I"
        assert dep.sigma == 2
        assert dep.lambda_exponent == 2

    def test_integer_relation_case(self):
        # alpha_4 = alpha_1 + alpha_2 already integral: r = 1
        data = ExponentData(n=1, alphas=((1, 0), (0, 1), (1, 1)))
        dep = dependency(data)
        assert dep.r == 1
        assert dep.p == (1, 1)
        assert dep.case == "II"
        assert dep.sigma == F(1, 1 - 2)

    def test_zero_last_exponent_rejected(self):
        # Both hypotheses would hold, but no relation exists: refused on construction.
        with pytest.raises(InputError, match="the parameter monomial has exponent zero"):
            ExponentData(n=1, alphas=((1, 0), (0, 1), (0, 0)))
        with pytest.raises(InputError, match="the parameter monomial has exponent zero"):
            ExponentData.from_json({"n": 1, "alphas": [[1, 0], [0, 1], [0, 0]]})

    def test_degenerate_case_split_raises(self):
        # Only reachable when the analysis claims full bordered rank for a
        # quasi-homogeneous layout; the guard must not be a bare assert.
        data = ExponentData(n=1, alphas=((2, 0), (0, 2), (1, 1)))
        data.__dict__["analysis"] = replace(data.analysis, rank_m_tilde=3)
        with pytest.raises(ContractError):
            dependency(data)

    def test_relation_holds_and_r_minimal(self):
        for data in (LAYOUT_A, LAYOUT_B):
            dep = dependency(data)
            for row in range(data.n + 1):
                lhs = dep.r * data.alphas[-1][row]
                rhs = sum(p * data.alphas[j][row] for j, p in enumerate(dep.p))
                assert lhs == rhs
            assert math.gcd(dep.r, *(abs(x) for x in dep.p)) == 1


class TestDetIdentity:
    def test_layouts(self):
        for data, expected_tilde, expected_prime in (
            (LAYOUT_A, 16, 32),
            (LAYOUT_B, -16, 32),
        ):
            report = det_identity_check(data, dependency(data))
            assert report.passed
            assert report.det_m_tilde == expected_tilde
            assert report.det_m_prime == expected_prime
            assert report.identity_holds
            assert report.sigma_matches is True

    def test_reports_print_their_fields(self):
        for data, det_m_tilde, sigma in ((LAYOUT_A, "16", "-2"), (LAYOUT_B, "-16", "2")):
            assert det_identity_check(data, dependency(data)).to_json() == {
                "det_m_prime": "32",
                "det_m_tilde": det_m_tilde,
                "predicted_det_m_tilde": det_m_tilde,
                "identity_holds": True,
                "sigma_from_determinants": sigma,
                "sigma_matches": True,
                "passed": True,
            }

    def test_sigma_equals_det_ratio(self):
        for data in (LAYOUT_A, LAYOUT_B):
            dep = dependency(data)
            ratio = F(-1) ** (data.n + 1) * det(data.matrix_m_prime()) / det(data.matrix_m_tilde())
            assert dep.sigma == ratio


class TestRandomLayouts:
    @given(exponent_layouts())
    def test_sigma_routes_agree_when_valid(self, layout):
        n, alphas = layout
        if len(set(alphas)) != n + 2 or not any(alphas[-1]):
            return
        data = ExponentData(n=n, alphas=alphas)
        if not validate_hypotheses(data).passed:
            return
        dep = dependency(data)
        assert abs(dep.sigma) == F(dep.r, dep.h)
        assert dep.sigma == F(dep.r, dep.r - dep.sum_p)
        assert (dep.sigma > 0) == (dep.case == "I")
        assert dep.lambda_exponent == (dep.r if dep.case == "I" else -dep.r)
        assert dep.d >= 1 and dep.h >= 1
        assert dep.d + dep.h >= 2
        report = det_identity_check(data, dep)
        assert report.passed

    @given(exponent_layouts())
    def test_minimality(self, layout):
        n, alphas = layout
        if len(set(alphas)) != n + 2 or not any(alphas[-1]):
            return
        data = ExponentData(n=n, alphas=alphas)
        if validate_hypotheses(data).basis_ok:
            r, p = dependency_solution(data)
            assert r >= 1
            if any(p):
                assert math.gcd(r, *(abs(x) for x in p)) == 1


def layouts_with_failures():
    """Random layouts, a third built to fail hypothesis i) and a third to fail ii)."""

    def degrade(args):
        (n, alphas), kind = args
        alphas = list(alphas)
        if kind == "fail_i":
            # the last exponent is the midpoint of the first two: quasi-homogeneous
            alphas[-1] = tuple(x + y for x, y in zip(alphas[0], alphas[1]))
            alphas[0] = tuple(2 * x for x in alphas[0])
            alphas[1] = tuple(2 * x for x in alphas[1])
        elif kind == "fail_ii":
            alphas[1] = tuple(2 * x for x in alphas[0])
        return n, tuple(alphas)

    return st.tuples(exponent_layouts(), st.sampled_from(["free", "fail_i", "fail_ii"])).map(degrade)


class TestCachedAnalysis:
    @given(layouts_with_failures())
    @example((2, CUBE.alphas))
    @example((1, ((1, 0), (2, 0), (0, 1))))
    @example((2, LAYOUT_B.alphas))  # det M~ = -16
    @example((2, ((0, 4, 1), (4, 0, 1), (0, 0, 2), (2, 2, 0))))  # det M' = -32, det M~ = 16
    @example((1, ((1, 0), (0, 1), (2, 0))))  # relation 1 * alpha_3 = 2 * alpha_1 + 0 * alpha_2
    def test_analysis_matches_fresh_elimination(self, layout):
        n, alphas = layout
        if len(set(alphas)) != n + 2 or not any(alphas[-1]):
            return
        data = ExponentData(n=n, alphas=alphas)
        analysis = data.analysis
        m_tilde, m_prime = data.matrix_m_tilde(), data.matrix_m_prime()
        assert analysis.rank_m_tilde == rank(m_tilde)
        assert analysis.rank_m_prime == rank(m_prime)
        assert analysis.det_m_tilde == det(m_tilde)
        assert analysis.det_m_prime == det(m_prime)
        if analysis.det_m_tilde == 0:
            assert analysis.inverse_numerators is None
            with pytest.raises(SingularMatrixError):
                invert(m_tilde)
        else:
            inverse_row = invert(m_tilde)[n + 1]
            assert tuple(F(w, analysis.det_m_tilde) for w in analysis.inverse_numerators) == inverse_row
        if analysis.det_m_prime == 0:
            assert analysis.relation_numerators is None
            with pytest.raises(SingularMatrixError):
                solve(m_prime, alphas[-1])
        else:
            x = solve(m_prime, alphas[-1])
            assert [F(q, analysis.det_m_prime) for q in analysis.relation_numerators] == x
            # the minimal relation by its definition: r clears every denominator of x
            r = math.lcm(*(v.denominator for v in x))
            assert dependency_solution(data) == (r, tuple(int(r * v) for v in x))
        assert data.analysis is analysis
