"""Fuzzing of the text parsers and JSON loaders.

Every input must give a value or raise InputError, and nothing else.  Text
is drawn mostly from the tokens the grammars use, so that inputs get past
the first character before they fail.  JSON input is any JSON value, the
expected keys with any values, or a near-valid object.  Parsed polynomials
and algebra elements must also print and parse back to themselves.  Example
counts are kept small so the suite stays fast.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamconn.algebra import ABElement
from lamconn.asymptotics import ExpansionSpec, LogPoly, parse_seed_key
from lamconn.errors import InputError
from lamconn.exact import LaurentPoly, parse_rat
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
