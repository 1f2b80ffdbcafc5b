"""Sigma and tau from the bordered matrix, the nabla operator and its pushforward."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from lamconn.algebra import ABElement, conj_b
from lamconn.connection import (
    SigmaTau,
    nabla_formula,
    pde_coefficients,
    push_nabla,
    push_nabla_via_shift,
    sigma_tau,
)
from lamconn.errors import HypothesisError, InputError
from lamconn.exact import LaurentPoly, invert
from lamconn.exponents import ExponentData, MonomialMu, dependency, det_identity_check
from lamconn.families import family_a
from lamconn.selftest import random_exponent_data
from strategies import abelements, exponent_layouts, polys, rationals

A = ABElement.gen_a()
B = ABElement.gen_b()

LAYOUT_A = ExponentData(n=2, alphas=((4, 0, 0), (0, 4, 0), (0, 0, 2), (2, 2, 1)))
LAYOUT_B = ExponentData(n=2, alphas=((4, 0, 1), (0, 4, 1), (0, 0, 2), (2, 2, 0)))

# the shift route's a*Q and b*R terms cancel at a*b under LAYOUT_A and mu = 1, so its last
# _make drops a zero; both routes give -a^2 + 2*b^2
ROUTE_PARTS_CANCEL = ABElement.parse("-1/2*a - b")

abelement_lam = abelements(3, polys(LaurentPoly, -2, 2, rationals(-4, 4, 5), max_size=3), 4)


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

    @pytest.mark.parametrize(
        "beta, message",
        [((1, True, -1), "True"), ((1, -1, True), "-1"), ((1, 0.5, -1), "0.5")],
        ids=["bool", "negative", "float"],
    )
    def test_first_bad_beta_entry_named(self, beta, message):
        with pytest.raises(InputError, match=f"^beta entry must be a nonnegative integer, got {message}$"):
            MonomialMu(beta=beta)

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
        row = invert(data.matrix_m_tilde())[data.n + 1]
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


@given(exponent_layouts(max_entry=3), st.lists(st.integers(0, 4), min_size=4, max_size=4))
# beta = k - sigma - tau = 1 - 3/2 + 5/4 is 6/8 over sd*td = 8 before its reduction
@example((1, ((3, 1), (0, 2), (2, 0))), [1, 0, 0, 0])
def test_records_match_fraction_arithmetic(layout, entries):
    # every record built from integer parts against plain Fraction arithmetic on the same integers
    n, alphas = layout
    assume(len(set(alphas)) == n + 2 and any(alphas[-1]))
    data = ExponentData(n=n, alphas=alphas)
    assume(data.analysis.passed)
    analysis = data.analysis
    dep = dependency(data)
    report = det_identity_check(data, dep)
    signed_prime = (-1) ** (n + 1) * analysis.det_m_prime
    assert report.sigma_from_determinants == F(signed_prime, analysis.det_m_tilde)
    assert report.predicted_det_m_tilde == F(signed_prime * (dep.r - dep.sum_p), dep.r)
    mu = MonomialMu(beta=tuple(entries[: n + 1]))
    st_data = sigma_tau(data, mu)
    w = analysis.inverse_numerators
    assert st_data.sigma == F(w[0], analysis.det_m_tilde)
    assert st_data.tau == F(sum(x * (b + 1) for x, b in zip(w[1:], mu.beta)), analysis.det_m_tilde)
    alpha, beta = -st_data.sigma, mu.k - st_data.sigma - st_data.tau
    assert (st_data.alpha, st_data.beta) == (alpha, beta)
    pde = st_data.to_json()["pde"]
    assert (pde["alpha"], pde["beta"]) == (str(alpha), str(beta))


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

    def test_routes_agree_at_a_huge_b_power(self):
        # each route takes one pass over a row's two a powers; a row sized by its degree,
        # 10^9 + 1, would never end
        st_data = sigma_tau(LAYOUT_A, MonomialMu.unit(2))
        q = ABElement.monomial(1, 10**9)
        assert push_nabla(q, st_data) == push_nabla_via_shift(q, st_data)

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
    @example(ROUTE_PARTS_CANCEL)
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


# The uniform left factor under lam*nabla is pinned by criterion 7 on both parameter grids.
