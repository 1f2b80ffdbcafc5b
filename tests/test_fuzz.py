"""Fuzzing of the text parsers and JSON loaders.

Every input must give a value or raise InputError, and nothing else.  Text
is drawn mostly from the tokens the grammars use, so that inputs get past
the first character before they fail.  JSON input is any JSON value, the
expected keys with any values, or a near-valid object.  Parsed polynomials
and algebra elements must also print and parse back to themselves, and
read and print as a Fraction and LaurentPoly oracle does.  Example counts
are kept small so the suite stays fast.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lamconn.algebra import ABElement
from lamconn.asymptotics import ExpansionSpec, LogPoly, parse_seed_key
from lamconn.errors import InputError
from lamconn.exact import LaurentPoly, join_signed, parse_rat, power_text, read_terms, term_text
from lamconn.exponents import ExponentData

TOKENS = [
    "0", "1", "7", "12", "1/2", "-3/4", "+", "-", "*", "/", "^", "^-", "(", ")", "[", "]",
    " ", ",", ".", "e", "a", "b", "a^2", "b^3", "L", "L^2", "lam", "lam^-2", "x", "1_0",
]
FACTORS = [
    "2", "1/2", "-3", "a", "b", "a^2", "b^0", "L", "L^3", "lam", "lam^-2", "(1 + lam)", "(L - 2)",
]
# Sums of products of factors, mostly well formed; token soup; any short text;
# comma-separated integers for seed keys.
sum_text = st.lists(
    st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3).map("*".join), min_size=1, max_size=3
).flatmap(lambda terms: st.sampled_from([" + ", " - ", "+", "-", " - -", " + -"]).map(lambda op: op.join(terms)))
grammar_text = (
    sum_text
    | st.lists(st.sampled_from(TOKENS), max_size=12).map("".join)
    | st.text(max_size=12)
    | st.lists(st.sampled_from(["0", "1", "12", "-1", " 2", "x", ""]), min_size=3, max_size=3).map(
        ",".join
    )
)

json_scalar = (
    st.none()
    | st.booleans()
    | st.integers(-3, 30)
    | st.floats(allow_nan=False)
    | st.sampled_from(["1/2", "-7/5", "3", "0", "1/0", "x", ""])
)
json_value = st.recursive(
    json_scalar,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=10,
)


def value_or_input_error(load, arg):
    try:
        return load(arg)
    except InputError:
        return None


@pytest.mark.parametrize(
    "parse",
    [parse_rat, LaurentPoly.parse, LogPoly.parse, ABElement.parse, parse_seed_key],
    ids=lambda parse: parse.__qualname__,
)
@settings(max_examples=250)
@given(text=grammar_text)
def test_text_parser(parse, text):
    value = value_or_input_error(parse, text)
    if isinstance(value, (LaurentPoly, ABElement)):
        assert type(value).parse(str(value)) == value


# Sums whose terms carry denominators and one or two parenthesized lam groups.
lam_group = st.lists(
    st.builds("{}/{}*lam^{}".format, st.integers(-9, 9), st.integers(1, 12), st.integers(-3, 3)),
    min_size=1,
    max_size=3,
).map(lambda terms: f"({' + '.join(terms)})")
grouped_sum = st.lists(
    st.builds(
        "{}/{}*{}{}".format,
        st.integers(-9, 9),
        st.integers(1, 12),
        st.lists(lam_group, min_size=1, max_size=2).map("*".join),
        st.sampled_from(["", "*a", "*b^2", "*a*b", "*a^3*b"]),
    ),
    min_size=1,
    max_size=4,
).map(" - ".join)


def oracle_poly(cls, text):
    """cls.parse by Fractions: each term's coefficient summed into its exponent."""
    what = f"polynomial in {cls.VAR}"
    terms = {}
    for (num, den), powers, groups in read_terms(text, what):
        if groups or any(name != cls.VAR for name, _ in powers):
            raise InputError(f"only rationals and powers of {cls.VAR} may form a {what}: {text!r}")
        e = sum(power for _, power in powers)
        terms[e] = terms.get(e, 0) + Fraction(num, den)
    return cls(terms)


def oracle_group(group):
    """A group from read_terms as a LaurentPoly summed in Fractions; a group that did not read raises."""
    if isinstance(group, InputError):
        raise group
    poly = LaurentPoly.zero()
    for e, num, den in group:
        poly = poly + LaurentPoly.lam_power(e, Fraction(num, den))
    return poly


def oracle_element(text):
    """ABElement.parse by LaurentPoly: groups multiplied as polynomials, sums in Fractions."""
    out = {}
    for (num, den), powers, groups in read_terms(text, "algebra element"):
        i = j = e = 0
        seen_b = False
        for name, power in powers:
            if name == "lam":
                e += power
            elif name not in ("a", "b") or power < 0:
                raise InputError(f"bad factor {name}^{power} in algebra element: {text!r}")
            elif name == "b":
                seen_b = True
                j += power
            elif seen_b:
                raise InputError(f"a after b in {text!r}: text must be normally ordered")
            else:
                i += power
        poly = LaurentPoly.lam_power(e, Fraction(num, den))
        for group in groups:
            poly = poly * oracle_group(group)
        out[(i, j)] = out.get((i, j), LaurentPoly.zero()) + poly
    return ABElement(out)


def oracle_text(x):
    """str(x) with every lam group printed by LaurentPoly."""
    parts = []
    for (i, j), poly in sorted(x.terms.items(), key=lambda kv: (-sum(kv[0]), -kv[0][0])):
        monomial = "*".join(filter(None, (power_text("a", i), power_text("b", j))))
        if poly.is_const():
            c = poly.const_value()
            parts.append((c < 0, term_text(abs(c), monomial)))
        else:
            parts.append((False, term_text(f"({poly})", monomial)))
    return join_signed(parts)


def outcome(parse, text):
    try:
        return parse(text)
    except InputError as exc:
        return f"InputError: {exc}"


@settings(max_examples=250)
@given(text=grammar_text | grouped_sum)
@example(text="0")
@example(text="2*-a")
@example(text="1/2 - -3")
@example(text="(0)*a")
@example(text="3*(lam - lam)")
@example(text="(a)")
@example(text="()")
@example(text="1/0")
@example(text="b*a")
@example(text="a^-1")
@example(text="7/14*a")
@example(text="(1 + lam)*(2 - lam^-1)*a")
@example(text="(-lam)*b")
@example(text="( 1/2*lam )*a")
@example(text="(lam*a")
@example(text="((lam))")
@example(text="2*(lam)*b*(3)")
def test_parsers_match_fraction_oracle(text):
    for parse, oracle in (
        (ABElement.parse, oracle_element),
        (LaurentPoly.parse, lambda t: oracle_poly(LaurentPoly, t)),
        (LogPoly.parse, lambda t: oracle_poly(LogPoly, t)),
    ):
        got, expected = outcome(parse, text), outcome(oracle, text)
        assert type(got) is type(expected) and got == expected
    x = outcome(ABElement.parse, text)
    if isinstance(x, ABElement):
        assert str(x) == oracle_text(x)


# Any JSON, the right keys with any JSON values, or near-valid objects.
exponent_json = (
    json_value
    | st.fixed_dictionaries({"n": json_value, "alphas": json_value})
    | st.integers(1, 3).flatmap(
        lambda n: st.fixed_dictionaries(
            {
                "n": st.just(n),
                "alphas": st.lists(
                    st.lists(st.integers(0, 4), min_size=n + 1, max_size=n + 1)
                    | st.lists(st.integers(-1, 4), max_size=n + 2),
                    min_size=n + 2,
                    max_size=n + 2,
                ),
            }
        )
    )
)
rat_json = st.integers(-3, 3) | st.sampled_from(["1/2", "1/3", "-1", "-7/5", "1/0", "x"])
order_json = st.integers(-1, 800) | st.sampled_from([True, 1.5, "2"])
expansion_json = (
    json_value
    | st.fixed_dictionaries({k: json_value for k in ("rhos", "N", "M", "alpha", "beta")})
    | st.fixed_dictionaries(
        {
            "rhos": st.lists(rat_json, min_size=1, max_size=3),
            "N": order_json,
            "M": order_json,
            "alpha": rat_json,
            "beta": rat_json,
        }
    )
)


@settings(max_examples=250)
@given(obj=exponent_json)
def test_exponent_loader(obj):
    value_or_input_error(ExponentData.from_json, obj)


@settings(max_examples=250)
@given(obj=expansion_json)
def test_expansion_loader(obj):
    value_or_input_error(ExpansionSpec.from_json, obj)
