"""Sigma and tau from the bordered matrix, the nabla operator and its pushforward."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lamconn.algebra import ABElement, conj_b
from lamconn.connection import (
    MonomialMu,
    SigmaTau,
    nabla_formula,
    pde_coefficients,
    push_nabla,
    push_nabla_via_shift,
    sigma_tau,
)
from lamconn.errors import HypothesisError, InputError
from lamconn.exact import LaurentPoly, invert
from lamconn.exponents import ExponentData, dependency
from lamconn.families import family_a, family_b
from lamconn.selftest import random_exponent_data

A = ABElement.gen_a()
B = ABElement.gen_b()

LAYOUT_A = ExponentData(n=2, alphas=((4, 0, 0), (0, 4, 0), (0, 0, 2), (2, 2, 1)))
LAYOUT_B = ExponentData(n=2, alphas=((4, 0, 1), (0, 4, 1), (0, 0, 2), (2, 2, 0)))

small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=5)

lam_poly = st.dictionaries(
    st.integers(min_value=-2, max_value=2), small_fraction, max_size=3
).map(LaurentPoly)

abelement_lam = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)),
    lam_poly,
    max_size=4,
).map(ABElement)


class TestSigmaTau:
    def test_layout_a_unit(self):
        st_data = sigma_tau(LAYOUT_A, MonomialMu.unit(2))
        assert (st_data.sigma, st_data.tau) == (F(-2), F(2))

    def test_layout_b_unit(self):
        st_data = sigma_tau(LAYOUT_B, MonomialMu.unit(2))
        assert (st_data.sigma, st_data.tau) == (F(2), F(-3, 2))

    def test_layout_a_x0(self):
        st_data = sigma_tau(LAYOUT_A, MonomialMu(beta=(1, 0, 0)))
        assert st_data.sigma == F(-2)
        assert st_data.tau == F(5, 2)
        assert st_data.mu.k == 1

    def test_wrong_beta_length(self):
        with pytest.raises(InputError):
            sigma_tau(LAYOUT_A, MonomialMu(beta=(1, 0)))

    def test_singular_matrix_raises_hypothesis_error(self):
        cube = ExponentData(n=2, alphas=((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)))
        with pytest.raises(HypothesisError):
            sigma_tau(cube, MonomialMu.unit(2))

    def test_singular_matrix_worded_as_dependency_words_it(self):
        cube = ExponentData(n=2, alphas=((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)))
        with pytest.raises(HypothesisError) as from_sigma_tau:
            sigma_tau(cube, MonomialMu.unit(2))
        with pytest.raises(HypothesisError) as from_dependency:
            dependency(cube)
        assert str(from_sigma_tau.value) == str(from_dependency.value) == "hypothesis i) fails: rank 3 < 4"

    def test_sigma_independent_of_mu(self):
        rng = random.Random(1009)
        for _ in range(100):
            data = random_exponent_data(rng)
            base = sigma_tau(data, MonomialMu.unit(data.n)).sigma
            for _ in range(5):
                beta = tuple(rng.randint(0, 5) for _ in range(data.n + 1))
                assert sigma_tau(data, MonomialMu(beta=beta)).sigma == base

    @given(st.integers(min_value=0, max_value=2**32), st.lists(st.integers(0, 9), min_size=6, max_size=6))
    def test_tau_is_inverse_row_pairing(self, seed, beta):
        data = random_exponent_data(random.Random(seed), max_n=5, bound=30)
        row = invert(data.matrix_m_tilde()).row(data.n + 1)
        mu = MonomialMu(beta=tuple(beta[: data.n + 1]))
        st_data = sigma_tau(data, mu)
        assert st_data.sigma == row[0]
        assert st_data.tau == sum((row[i + 1] * (b + 1) for i, b in enumerate(mu.beta)), F(0))

    def test_tau_affine_in_beta(self):
        # tau is the inverse-row pairing with beta + 1, so it is affine linear
        inv_row = (F(1, 2), F(1, 2), F(1))
        for beta in ((0, 0, 0), (2, 1, 0), (0, 0, 3)):
            st_data = sigma_tau(LAYOUT_A, MonomialMu(beta=beta))
            expected = sum(c * (b + 1) for c, b in zip(inv_row, beta))
            assert st_data.tau == expected


class TestNablaFormula:
    def test_layout_a(self):
        st_data = sigma_tau(LAYOUT_A, MonomialMu.unit(2))
        assert nabla_formula(st_data) == ABElement.parse("2*a - 2*b")

    def test_layout_b(self):
        st_data = sigma_tau(LAYOUT_B, MonomialMu.unit(2))
        assert nabla_formula(st_data) == ABElement.parse("-2*a + 3/2*b")

    def test_k_shift(self):
        # N = -(sigma*a + (tau - k*sigma)*b)
        st_data = sigma_tau(LAYOUT_A, MonomialMu(beta=(1, 0, 0)))
        assert nabla_formula(st_data) == ABElement.parse("2*a - 9/2*b")

    @pytest.mark.parametrize("sigma, tau", [(0.5, 1), (1, "2"), (True, 1)])
    def test_sigma_tau_take_exact_coefficients_only(self, sigma, tau):
        # nabla_formula builds its factor without a check, so the record checks.
        with pytest.raises(TypeError, match="coefficient must be an int or a Fraction"):
            SigmaTau(sigma=sigma, tau=tau, mu=MonomialMu.unit(2))


class TestPde:
    def test_layout_a(self):
        pde = pde_coefficients(sigma_tau(LAYOUT_A, MonomialMu.unit(2)))
        assert (pde.alpha, pde.beta) == (F(2), F(0))

    def test_layout_b(self):
        pde = pde_coefficients(sigma_tau(LAYOUT_B, MonomialMu.unit(2)))
        assert (pde.alpha, pde.beta) == (F(-2), F(-1, 2))

    def test_layout_a_x0(self):
        pde = pde_coefficients(sigma_tau(LAYOUT_A, MonomialMu(beta=(1, 0, 0))))
        assert (pde.alpha, pde.beta) == (F(2), F(1, 2))

    def test_json_shape(self):
        payload = pde_coefficients(sigma_tau(LAYOUT_A, MonomialMu.unit(2))).to_json()
        assert payload["sigma"] == "-2"
        assert payload["tau"] == "2"
        assert payload["k"] == 0
        assert payload["pde"]["alpha"] == "2"
        assert payload["pde"]["beta"] == "0"
        assert "sigma" in payload["pde"]["raw"]


class TestPushNabla:
    def test_on_b_frozen(self):
        st_data = sigma_tau(LAYOUT_A, MonomialMu.unit(2))
        assert push_nabla(B, st_data) == ABElement({(1, 1): 2, (0, 2): -4})

    def test_on_one_is_nabla(self):
        for layout in (LAYOUT_A, LAYOUT_B):
            st_data = sigma_tau(layout, MonomialMu.unit(2))
            assert push_nabla(ABElement.one(), st_data) == nabla_formula(st_data)

    def test_theta_term(self):
        # a lam power contributes its exponent times b on the left
        st_data = sigma_tau(LAYOUT_A, MonomialMu.unit(2))
        q = ABElement.monomial(0, 0, LaurentPoly({3: 1}))
        expected = ABElement.monomial(0, 1, LaurentPoly({3: 3})) + ABElement(
            {(1, 0): LaurentPoly({3: 2}), (0, 1): LaurentPoly({3: -2})}
        )
        assert push_nabla(q, st_data) == expected

    def test_family_a_operator_frozen(self):
        result = family_a(2, 2, 1)
        st_data = sigma_tau(result.exponents, MonomialMu.unit(2))
        expected = ABElement.parse("2*a - 8*b") * result.full_operator
        assert push_nabla(result.full_operator, st_data) == expected

    @given(
        abelement_lam | st.just(ABElement.zero()),
        st.integers(min_value=0, max_value=2**32),
        st.lists(st.integers(0, 4), min_size=4, max_size=4),
    )
    @example(ABElement.zero(), 0, [0, 0, 0, 0])
    @example(ABElement.monomial(2, 1, LaurentPoly({-2: F(-3, 4), 1: 2})), 7, [1, 0, 2, 3])
    def test_kernel_matches_conjugation_and_product(self, q, seed, beta):
        """push_nabla's one-pass kernel equals b*theta(Q) + conj_b(Q)*N by the general product."""
        data = random_exponent_data(random.Random(seed))
        st_data = sigma_tau(data, MonomialMu(beta=tuple(beta[: data.n + 1])))
        expected = B * q.theta() + conj_b(q) * nabla_formula(st_data)
        assert push_nabla(q, st_data) == expected

    @given(abelement_lam)
    def test_two_routes_agree(self, q):
        st_data = sigma_tau(LAYOUT_A, MonomialMu.unit(2))
        assert push_nabla(q, st_data) == push_nabla_via_shift(q, st_data)

    @given(abelement_lam)
    def test_two_routes_agree_other_layout(self, q):
        st_data = sigma_tau(LAYOUT_B, MonomialMu(beta=(1, 1, 0)))
        assert push_nabla(q, st_data) == push_nabla_via_shift(q, st_data)

    @given(abelement_lam)
    def test_commutation_rules(self, q):
        # pushing through b is plain left multiplication; pushing through a
        # left-multiplies by the conjugated generator a - b
        st_data = sigma_tau(LAYOUT_B, MonomialMu.unit(2))
        assert push_nabla(B * q, st_data) == B * push_nabla(q, st_data)
        assert push_nabla(A * q, st_data) == (A - B) * push_nabla(q, st_data)

    @given(abelement_lam, abelement_lam)
    def test_additive(self, q1, q2):
        st_data = sigma_tau(LAYOUT_A, MonomialMu.unit(2))
        assert push_nabla(q1 + q2, st_data) == push_nabla(q1, st_data) + push_nabla(q2, st_data)


class TestUniformShift:
    @pytest.mark.parametrize(
        "result",
        [family_a(1, 2, 3), family_a(4, 4, 4), family_b(1, 1, 2, 3), family_b(3, 2, 1, 4)],
        ids=lambda r: r.label(),
    )
    def test_operator_maps_to_left_factor(self, result):
        data = result.exponents
        dep = dependency(data)
        st_data = sigma_tau(data, MonomialMu.unit(data.n))
        shift = st_data.tau - st_data.mu.k * st_data.sigma - (dep.d + dep.h) * st_data.sigma
        left = -(A.scale(st_data.sigma) + B.scale(shift))
        assert push_nabla(result.full_operator, st_data) == left * result.full_operator
