"""Normal ordering, conjugation and the shift identity.

The multiplication oracle is a string rewriting engine over words in a, b
that applies ba -> ab - bb until no reducible pair remains; the class under
test never sees it.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lamconn.algebra import (
    ABElement,
    conj_b,
    homogeneous_components,
    linear_factor_product,
    shift_identity_check,
)
from lamconn.asymptotics import ExpansionSpec, propagate
from lamconn.errors import ContractError, InputError
from lamconn.exact import LaurentPoly, det, solve
from strategies import abelements, polys, small_fraction

A = ABElement.gen_a()
B = ABElement.gen_b()

_WORD_MEMO = {}


def _normalize_word(word):
    """Oracle normal form of one word over {a, b} by leftmost ba -> ab - bb.

    Memoized per distinct word; naive branch-per-rewrite blows up on inputs
    like b^k a^k while the set of same-length words stays small.
    """
    stack = [word]
    while stack:
        w = stack[-1]
        if w in _WORD_MEMO:
            stack.pop()
            continue
        idx = w.find("ba")
        if idx < 0:
            _WORD_MEMO[w] = {w: F(1)}
            stack.pop()
            continue
        swapped = w[:idx] + "ab" + w[idx + 2 :]
        doubled = w[:idx] + "bb" + w[idx + 2 :]
        pending = [x for x in (swapped, doubled) if x not in _WORD_MEMO]
        if pending:
            stack.extend(pending)
            continue
        out = dict(_WORD_MEMO[swapped])
        for ww, c in _WORD_MEMO[doubled].items():
            out[ww] = out.get(ww, F(0)) - c
        _WORD_MEMO[w] = {ww: c for ww, c in out.items() if c != 0}
        stack.pop()
    return _WORD_MEMO[word]


def rewrite_words(word_sums):
    """Oracle normal form of a rational combination of words over {a, b}."""
    out = {}
    for word, coeff in word_sums.items():
        for w, c in _normalize_word(word).items():
            out[w] = out.get(w, F(0)) + coeff * c
    return {w: c for w, c in out.items() if c != 0}


def word_to_element(word):
    out = ABElement.one()
    for ch in word:
        out = out * (A if ch == "a" else B)
    return out


def word_sum_to_element(word_sums):
    return sum((word_to_element(word).scale(c) for word, c in word_sums.items()), ABElement.zero())


def element_to_word_map(x):
    out = {}
    for (i, j), coeff in x.terms.items():
        assert coeff.terms.keys() <= {0}
        out["a" * i + "b" * j] = coeff.coefficient(0)
    return out


class TestNormalForm:
    def test_b2_times_a_frozen(self):
        # b^2 * a = a*b^2 - 2*b^3
        assert (B * B) * A == ABElement({(1, 2): 1, (0, 3): -2})

    def test_abab_frozen(self):
        # (ab)(ab) = a^2*b^2 - a*b^3, first derived with the word oracle
        assert rewrite_words({"abab": F(1)}) == {"aabb": F(1), "abbb": F(-1)}
        assert (A * B) * (A * B) == ABElement({(2, 2): 1, (1, 3): -1})

    @pytest.mark.parametrize("j", range(7))
    def test_induction_identity(self, j):
        b_j = ABElement.monomial(0, j)
        lhs = b_j * A
        rhs = (A - B.scale(j)) * b_j
        assert lhs == rhs

    @pytest.mark.parametrize("k", range(7))
    @pytest.mark.parametrize("j", range(7))
    def test_closed_rule_on_whole_powers(self, j, k):
        # b^j * a^k: one T pass on a^k when j = 1, the closed normal-ordering rule when j >= 2
        product = ABElement.monomial(0, j) * ABElement.monomial(k, 0)
        assert element_to_word_map(product) == rewrite_words({"b" * j + "a" * k: F(1)})

    # 2/3 * 3/2 cancels both denominators, and 1/2 * 2 one of them.
    @example([("ab", F(2, 3)), ("ba", F(3, 2))])
    @example([("b", F(1, 2)), ("a", F(2)), ("ab", F(-5, 6))])
    @given(
        st.lists(
            st.tuples(st.text(alphabet="ab", max_size=5), small_fraction),
            min_size=1,
            max_size=3,
        )
    )
    def test_products_match_word_oracle(self, words):
        product_word = "".join(word for word, _ in words)
        scale = math.prod(c for _, c in words)
        oracle = rewrite_words({product_word: scale})
        element = ABElement.one()
        for word, c in words:
            element = element * word_to_element(word).scale(c)
        assert element_to_word_map(element) == oracle

    def test_identity_element(self):
        x = ABElement({(2, 1): F(3, 2), (0, 0): -1})
        assert x * ABElement.one() == x
        assert ABElement.one() * x == x
        assert x * ABElement.zero() == ABElement.zero()

    def test_sparse_rows_at_huge_degree(self):
        # a left factor without b emits only t = 0: one entry in a row of degree 2*10^9 + 2,
        # which a row sized by its degree could not hold
        coeff = LaurentPoly.lam_power(-5, 3)
        product = ABElement.monomial(10**9, 0) * ABElement.monomial(10**9, 2, coeff)
        assert product == ABElement.monomial(2 * 10**9, 2, coeff)

    def test_huge_b_power_times_a(self):
        # 10^9 passes of T, or a row sized by the degree, would never end: the closed rule
        # emits the two terms
        product = ABElement.monomial(0, 10**9) * A
        assert product == ABElement.parse("a*b^1000000000 - 1000000000*b^1000000001")

    def test_t_powers_reused_across_left_terms(self):
        # b, b^2 and b^3 against one dense group of degree 4: each takes T^j of it (3 passes of
        # span 5 against the closed rule's 15 terms), T^1 and T^2 made once for all three
        left = {"b": F(2), "bb": F(-1, 3), "bbb": F(5)}
        right = {"aaaa": F(1), "aaab": F(-2), "aabb": F(3, 2), "abbb": F(1), "bbbb": F(-4)}
        product = word_sum_to_element(left) * word_sum_to_element(right)
        expected = rewrite_words({u + v: c * d for u, c in left.items() for v, d in right.items()})
        assert element_to_word_map(product) == expected

    def test_negative_powers_rejected(self):
        with pytest.raises(InputError):
            ABElement({(-1, 0): 1})


# Coefficients must be ints or Fractions, and key parts and exponents ints;
# bools, floats and strings are refused rather than converted, in every
# module that takes a number from its caller.
@pytest.mark.parametrize(
    "build, error",
    [
        pytest.param(lambda: ABElement({(1, 0): 0.1}), TypeError, id="ab-float"),
        pytest.param(lambda: ABElement({(1, 0): "1/3"}), TypeError, id="ab-str"),
        pytest.param(lambda: ABElement({(1, 0): True}), TypeError, id="ab-bool"),
        pytest.param(lambda: ABElement.monomial(1, 0, 0.5), TypeError, id="monomial-float"),
        pytest.param(lambda: ABElement.gen_a().scale(0.25), TypeError, id="scale-float"),
        pytest.param(lambda: linear_factor_product([0.1]), TypeError, id="roots-float"),
        pytest.param(lambda: linear_factor_product([True]), TypeError, id="roots-bool"),
        pytest.param(lambda: LaurentPoly({0: "1/3"}), TypeError, id="lp-str"),
        pytest.param(lambda: LaurentPoly({0: 0.0}), TypeError, id="lp-float-zero"),
        pytest.param(lambda: LaurentPoly.const(0.5), TypeError, id="const-float"),
        pytest.param(lambda: LaurentPoly.lam_power(2, 0.5), TypeError, id="lam-power-float"),
        pytest.param(lambda: ABElement({(1.0, 0): 1}), InputError, id="ab-float-key"),
        pytest.param(lambda: ABElement({(True, 0): 1}), InputError, id="ab-bool-key"),
        pytest.param(lambda: ABElement({(0, False): 1}), InputError, id="ab-bool-key-j"),
        pytest.param(lambda: ABElement.monomial(1.0, 0), InputError, id="monomial-float-key"),
        pytest.param(lambda: ABElement({(1, 2, 3): 1}), InputError, id="ab-key-triple"),
        pytest.param(lambda: ABElement({(1,): 1}), InputError, id="ab-key-single"),
        pytest.param(lambda: ABElement({5: 1}), InputError, id="ab-key-int"),
        pytest.param(lambda: LaurentPoly({True: 1}), InputError, id="lp-bool-exp"),
        pytest.param(lambda: LaurentPoly({1.0: 1}), InputError, id="lp-float-exp"),
        pytest.param(lambda: LaurentPoly.lam_power(True), InputError, id="lam-power-bool-exp"),
        pytest.param(lambda: LaurentPoly.const(1).scale(0.1), TypeError, id="lp-scale-float"),
        pytest.param(lambda: LaurentPoly.const(1).scale("1/3"), TypeError, id="lp-scale-str"),
        pytest.param(lambda: ExpansionSpec((0.5,), 0, 1, 1, 0), TypeError, id="spec-rho-float"),
        pytest.param(lambda: ExpansionSpec((True,), 0, 1, 1, 0), TypeError, id="spec-rho-bool"),
        pytest.param(lambda: ExpansionSpec((F(1, 2),), 0, 1, 0.1, 0), TypeError, id="spec-alpha-float"),
        pytest.param(lambda: ExpansionSpec((F(1, 2),), 0, 1, "1/3", 0), TypeError, id="spec-alpha-str"),
        pytest.param(lambda: ExpansionSpec((F(1, 2),), 0, 1, 1, False), TypeError, id="spec-beta-bool"),
        pytest.param(lambda: ExpansionSpec((F(1, 2),), 0.0, 1, 1, 0), InputError, id="spec-depth-float"),
        pytest.param(
            lambda: propagate(ExpansionSpec((F(1, 2),), 0, 1, 1, 0), {(0, 0, 0): 0.1}),
            TypeError,
            id="seed-float",
        ),
        pytest.param(
            lambda: propagate(ExpansionSpec((F(1, 2),), 0, 1, 1, 0), {(0, 0, 0): "1/3"}),
            TypeError,
            id="seed-str",
        ),
        pytest.param(lambda: det([[1, 0.5]]), TypeError, id="matrix-float"),
        pytest.param(lambda: det([[True]]), TypeError, id="matrix-bool"),
        pytest.param(lambda: solve([[2]], [0.5]), TypeError, id="solve-float"),
        pytest.param(lambda: solve([[2]], ["1"]), TypeError, id="solve-str"),
    ],
)
def test_constructors_reject_non_exact_input(build, error):
    with pytest.raises(error):
        build()


abelement = abelements(3, small_fraction, 4)
lam_abelement = abelements(2, polys(LaurentPoly, -3, 3, max_size=3), 3)

# Either kind of coefficient, for the properties that must hold over Q[lam, 1/lam].
any_abelement = abelement | lam_abelement
any_coefficient = small_fraction | polys(LaurentPoly, -2, 2)


class TestRingAxioms:
    @given(any_abelement, any_abelement, any_abelement)
    def test_associative(self, x, y, z):
        lhs, rhs = (x * y) * z, x * (y * z)
        assert lhs == rhs
        assert hash(lhs) == hash(rhs)

    @given(any_abelement, any_abelement, any_abelement)
    def test_distributive(self, x, y, z):
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z

    @given(abelement, abelement)
    def test_degree_additive(self, x, y):
        if x.is_zero() or y.is_zero():
            assert (x * y).is_zero()
        else:
            assert (x * y).degree() == x.degree() + y.degree()

    def test_commutator(self):
        assert A * B - B * A == B * B


class TestConjugation:
    def test_frozen_examples(self):
        assert conj_b(A) == A - B
        assert conj_b(B) == B
        assert conj_b(A * A) == ABElement({(2, 0): 1, (1, 1): -2, (0, 2): 2})

    @given(any_abelement, any_abelement)
    def test_homomorphism(self, x, y):
        assert conj_b(x * y) == conj_b(x) * conj_b(y)
        assert conj_b(x + y) == conj_b(x) + conj_b(y)

    @given(abelement)
    def test_degree_preserved(self, x):
        assert [d for d, _ in homogeneous_components(conj_b(x))] == [d for d, _ in homogeneous_components(x)]

    @given(abelement)
    def test_bijective(self, x):
        # the inverse substitutes a + b for a; (a + b) is the factor (a - (-1)*b)
        plus = linear_factor_product([F(-1)])
        powers = [ABElement.one()]
        for _ in range(4):
            powers.append(powers[-1] * plus)
        inverse = ABElement.zero()
        for (i, j), coeff in x.terms.items():
            inverse = inverse + (powers[i] * ABElement.monomial(0, j)).scale(coeff)
        assert conj_b(inverse) == x

    def test_preserves_lam_coefficients(self):
        x = ABElement({(1, 0): LaurentPoly({-2: -4})})
        assert conj_b(x) == ABElement({(1, 0): LaurentPoly({-2: -4}), (0, 1): LaurentPoly({-2: 4})})


class TestTrustedConstructor:
    # (a + b)*(a - b) = a^2 - 2*b^2 cancels its a*b term, scaling by 0
    # cancels every term, and x - x must have no terms at all.
    @example(A + B, A - B, F(0))
    @example(A + B.scale(LaurentPoly({-1: 2})), A + B.scale(LaurentPoly({-1: 2})), F(1))
    @given(any_abelement, any_abelement, any_coefficient)
    def test_flat_storage(self, x, y, c):
        assert not (x - x).terms
        results = [
            x,
            x + y,
            x - y,
            -x,
            x * y,
            x.scale(c),
            x.times_a(),
            conj_b(x),
            x.map_coefficients(LaurentPoly.theta),
            x.theta(),
        ]
        results += [part for _, part in homogeneous_components(x + y)]
        for r in results:
            assert type(r) is ABElement
            # Canonical form: nonzero int numerators over a positive int
            # denominator that shares no factor with all of them.
            for key, n in r._terms.items():
                assert type(key) is tuple and len(key) == 3
                assert all(type(e) is int for e in key) and key[0] >= 0 and key[1] >= 0
                assert type(n) is int and n != 0
            assert type(r._den) is int and r._den >= 1
            assert math.gcd(r._den, *r._terms.values()) == 1
            # and read back as nonzero LaurentPoly coefficients
            for key, coeff in r.terms.items():
                assert all(type(e) is int and e >= 0 for e in key)
                assert type(coeff) is LaurentPoly and not coeff.is_zero()
        assert x.theta() == x.map_coefficients(LaurentPoly.theta)
        assert ABElement(x.terms) == x
        assert x.scale(c) == x * ABElement.monomial(0, 0, c)
        # Scaling checked against LaurentPoly's own product, coefficient by coefficient.
        poly = c if type(c) is LaurentPoly else LaurentPoly.const(c)
        expected = {k: v * poly for k, v in x.terms.items() if not (v * poly).is_zero()}
        assert x.scale(c).terms == expected

    @pytest.mark.parametrize(
        "na, nb, den",
        [(0, 3, 2), (-5, 0, 3), (0, 0, 7), (4, -6, 2), (-6, 9, 12)],
        ids=["no-a", "no-b", "zero", "shared-2", "shared-3"],
    )
    def test_linear_factor_is_what_the_constructor_makes(self, na, nb, den):
        # _linear reduces by its own gcd and leaves out a zero term
        assert ABElement._linear(na, nb, den) == ABElement({(1, 0): F(na, den), (0, 1): F(nb, den)})

    @pytest.mark.parametrize("factor", [1, -1, -4, -6])
    def test_plus_adds_factor_times_its_terms(self, factor):
        # _plus against the product's scaling, over denominators 2 and 6 whose lcm is 6; at
        # factor -6 the a terms cancel and _make drops them
        x = ABElement({(1, 0): 1, (0, 1): F(1, 2)})
        y = ABElement({(1, 0): F(1, 6), (0, 2): LaurentPoly({-2: F(5, 3)})})
        assert x._plus(y._terms.items(), y._den, factor) == x + y.scale(factor)


# Int, zero and Fraction roots, as drawn or with the first one repeated or every sign flipped.
root_lists = st.lists(st.integers(-4, 4) | small_fraction, max_size=5).flatmap(
    lambda roots: st.sampled_from([roots, roots + roots[:1], [-r for r in roots]])
)


class TestLinearFactors:
    def test_frozen_product(self):
        assert linear_factor_product([F(5, 2), F(1)]) == ABElement(
            {(2, 0): 1, (1, 1): F(-7, 2), (0, 2): 5}
        )

    def test_empty_product(self):
        assert linear_factor_product([]) == ABElement.one()

    def test_order_matters(self):
        r1, r2 = F(1), F(3)
        assert linear_factor_product([r1, r2]) != linear_factor_product([r2, r1])

    @given(root_lists)
    @example([])
    @example([0, 0])
    @example([F(-3, 4), F(-3, 4), F(-3, 4)])
    @example([2, F(1, 3), -1])
    def test_one_pass_matches_product_fold(self, roots):
        """The one-pass kernel equals the general product of the factors, left to right."""
        fold = ABElement.one()
        for root in roots:
            fold = fold * ABElement._linear(root.denominator, -root.numerator, root.denominator)
        assert linear_factor_product(roots) == fold

    @given(st.lists(small_fraction, max_size=4))
    def test_monic_of_right_degree(self, roots):
        p = linear_factor_product(roots)
        d = len(roots)
        assert len(homogeneous_components(p)) == 1
        assert p.degree() == d
        assert p.terms[(d, 0)] == LaurentPoly.const(1)


class TestHomogeneous:
    def test_components_order(self):
        assert homogeneous_components(A * A + B) == [(2, A * A), (1, B)]

    def test_sum_of_components(self):
        x = ABElement({(2, 1): 1, (1, 0): F(1, 2), (0, 0): -3})
        total = ABElement.zero()
        for _, part in homogeneous_components(x):
            total = total + part
        assert total == x

    def test_as_homogeneous_rejects_mixed(self):
        # the shift identity needs one degree k, so a mixed element is refused
        with pytest.raises(ContractError, match=r"mixes degrees \[1, 2\]"):
            shift_identity_check(A + A * A, 0)

    def test_zero_is_homogeneous(self):
        # zero has no parts; the identity takes k = 0 and both sides vanish
        zero = ABElement.zero()
        assert homogeneous_components(zero) == []
        assert shift_identity_check(zero, F(3, 2)) == (zero, zero)


class TestTextFormat:
    def test_canonical_example(self):
        x = ABElement(
            {
                (3, 0): 1,
                (2, 1): -5,
                (1, 1): LaurentPoly({-2: -4}),
                (0, 2): F(7, 2),
            }
        )
        assert str(x) == "a^3 - 5*a^2*b + (-4*lam^-2)*a*b + 7/2*b^2"
        assert ABElement.parse(str(x)) == x

    def test_term_ordering(self):
        # descending total degree, then descending a power within a degree
        x = ABElement({(0, 2): 1, (1, 1): 1, (2, 0): 1, (0, 1): 1})
        assert str(x) == "a^2 + a*b + b^2 + b"

    def test_units(self):
        assert str(ABElement.zero()) == "0"
        assert str(ABElement.one()) == "1"
        assert str(-A) == "-a"
        assert str(A - B) == "a - b"
        assert str(ABElement.monomial(0, 1, LaurentPoly({2: 1}))) == "(lam^2)*b"

    def test_parse_variants(self):
        assert ABElement.parse("2*a - 2*b") == A.scale(2) - B.scale(2)
        assert ABElement.parse("(1 + lam)*b^2") == ABElement.monomial(
            0, 2, LaurentPoly({0: 1, 1: 1})
        )
        assert ABElement.parse("0") == ABElement.zero()

    def test_parse_rejects_unordered(self):
        with pytest.raises(InputError):
            ABElement.parse("b*a")

    @pytest.mark.parametrize(
        "bad", ["a^-1", "c", "a^", "2**a", "(a + b)*b", "a*a*b", "3*lam^2*a", "1/2 - -3", "a + -3"]
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(InputError):
            ABElement.parse(bad)

    def test_parse_rejects_oversized_exponent(self):
        # one digit past Python's default int/str conversion limit
        with pytest.raises(InputError, match="too long"):
            ABElement.parse("a^" + "1" * 4301)

    @pytest.mark.parametrize(
        "template",
        [
            "{}*a - b", "a + 1/{}*b", "a^{}*b", "a*b^{}", "(3*lam^{})*a", "(1 - 2*lam^{})*b^2", "(1/{} + lam)*a",
            "(3*lam^-{})*a", "(1 + lam^-{})*a",
        ],
        ids=[
            "numerator", "denominator", "a_power", "b_power", "lam_power", "lam_power_in_group", "denominator_in_group",
            "negative_lam_power", "negative_lam_power_in_group",
        ],
    )
    def test_parse_names_the_oversized_literal(self, template):
        with pytest.raises(InputError) as caught:
            ABElement.parse(template.format("1" * 4301))
        assert str(caught.value) == "integer literal of 4301 digits is too long"

    @given(abelement)
    def test_round_trip(self, x):
        assert ABElement.parse(str(x)) == x

    @given(lam_abelement)
    def test_round_trip_with_lam(self, x):
        assert ABElement.parse(str(x)) == x



class TestPrinting:
    """Frozen strings, one for each branch of the printer."""

    def test_lone_lam_zero_coefficient_prints_bare(self):
        assert str(ABElement.monomial(1, 1, LaurentPoly({0: F(-3, 2)}))) == "-3/2*a*b"
        assert str(ABElement.monomial(0, 0, F(5, 3))) == "5/3"
        assert str(ABElement.monomial(2, 0) + ABElement.one()) == "a^2 + 1"

    def test_group_with_lam_zero_in_ascending_power(self):
        x = ABElement.monomial(0, 2, LaurentPoly({2: 1, 0: 3, -1: F(1, 2)}))
        assert str(x) == "(1/2*lam^-1 + 3 + lam^2)*b^2"
        assert str(ABElement.monomial(0, 0, LaurentPoly({1: 2, 0: -1}))) == "(-1 + 2*lam)"

    def test_unit_coefficients_in_a_group(self):
        assert str(ABElement.monomial(1, 0, LaurentPoly({-2: 1}))) == "(lam^-2)*a"
        assert str(ABElement.monomial(1, 0, LaurentPoly({1: -1, 3: 1}))) == "(-lam + lam^3)*a"
        assert str(ABElement.monomial(0, 1, LaurentPoly({0: 1, 1: -1}))) == "(1 - lam)*b"

    def test_shared_denominator_terms_print_reduced(self):
        assert str(A.scale(F(1, 2)) + B.scale(F(1, 3))) == "1/2*a + 1/3*b"
        assert str(ABElement.monomial(0, 1, LaurentPoly({0: F(1, 2), 1: F(1, 3), 2: F(5, 6)}))) == (
            "(1/2 + 1/3*lam + 5/6*lam^2)*b"
        )
        assert str(A.scale(F(3, 4)) - B.scale(F(1, 4)) + ABElement.monomial(0, 0, F(1, 2))) == "3/4*a - 1/4*b + 1/2"

    def test_negative_leading_terms(self):
        assert str(B - ABElement.monomial(2, 0)) == "-a^2 + b"
        x = ABElement.monomial(1, 0, LaurentPoly({-1: -2, 1: 1})) - B.scale(3)
        assert str(x) == "(-2*lam^-1 + lam)*a - 3*b"
        y = B.scale(-1) + ABElement.monomial(0, 0, LaurentPoly({2: F(-1, 2)}))
        assert str(y) == "-b + (-1/2*lam^2)"

class TestShiftIdentity:
    def test_frozen_degree_one(self):
        left, right = shift_identity_check(B, 0)
        assert left == right == A * B - ABElement.monomial(0, 2)
        left, right = shift_identity_check(A, F(2))
        assert left == right == ABElement({(2, 0): 1, (1, 1): -3, (0, 2): 3})

    @given(
        st.integers(min_value=0, max_value=4),
        st.data(),
        small_fraction,
    )
    def test_identity_on_random_homogeneous(self, degree, data, mu):
        terms = {}
        for i in range(degree + 1):
            value = data.draw(small_fraction)
            if value:
                terms[(i, degree - i)] = value
        left, right = shift_identity_check(ABElement(terms), mu)
        assert left == right
