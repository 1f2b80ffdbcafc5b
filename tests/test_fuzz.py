"""Fuzzing of the text parsers and JSON loaders.

Every input must give a value or raise InputError, and nothing else.  Text
is drawn from sums in the algebra grammar, which the algebra reader reads,
from the tokens the grammars use, so that inputs get past the first
character before they fail, and from printed elements with one token
dropped, duplicated or swapped, so that inputs fail one edit away from
printed text.  JSON input is any JSON value, the expected keys with any
values, or a near-valid object.  Parsed algebra
elements must also print and parse back to themselves, and read and print
as a Fraction and LaurentPoly oracle does; the oracle reads text with the
character-level reference reader in tests/reference_reader.py, not with the
package's regular-expression reader, and both must raise the same
InputError text on text outside the grammar.  Example counts are kept
small so the suite stays fast.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lamconn.algebra import ABElement
from lamconn.asymptotics import ExpansionSpec, seed_from_json
from lamconn.errors import InputError
from lamconn.exact import LaurentPoly, join_signed, parse_rat, power_text, term_text
from lamconn.exponents import ExponentData
from reference_reader import read_element
from strategies import abelements, polys

TOKENS = [
    "0", "1", "7", "12", "1/2", "-3/4", "+", "-", "*", "/", "^", "^-", "(", ")", "[", "]",
    " ", ",", ".", "e", "a", "b", "a^2", "b^3", "L", "L^2", "lam", "lam^-2", "x", "1_0",
]
# One token of printed text: a number, a name, a separator or one other character.
PRINTED_TOKEN = re.compile(r"[0-9]+|lam|[ab]| [-+] |.")


def edited(text, edit, index):
    """text with its token at index (modulo their count) dropped, duplicated or swapped with the next."""
    tokens = PRINTED_TOKEN.findall(text)
    k = index % len(tokens)
    if edit == "drop":
        del tokens[k]
    elif edit == "duplicate":
        tokens.insert(k, tokens[k])
    else:
        tokens[k : k + 2] = tokens[k : k + 2][::-1]
    return "".join(tokens)


printed_edit = st.builds(
    edited,
    abelements(2, polys(LaurentPoly, -3, 3, max_size=3), 3).map(str),
    st.sampled_from(["drop", "duplicate", "swap"]),
    st.integers(0, 63),
)


def signed_sum(terms):
    """One to four drawn terms, each after " + " or " - " but the first, which may take a "-"."""
    return st.builds(
        lambda lead, first, rest: lead + first + "".join(sep + term for sep, term in rest),
        st.sampled_from(["", "-"]),
        terms,
        st.lists(st.tuples(st.sampled_from([" + ", " - "]), terms), max_size=3),
    )


# Sums in the algebra grammar, with unreduced fractions, zero powers, bare
# monomials, lam sums and repeated monomials.
coeff = st.builds("{}/{}".format, st.integers(0, 9), st.integers(1, 12)) | st.integers(0, 12).map(str)
power = st.sampled_from(["", "^0", "^1", "^2", "^3"])
lam_power = st.sampled_from(["", "^0", "^2", "^-1", "^-3"])
mono = st.builds("a{}*b{}".format, power, power) | st.builds("a{}".format, power) | st.builds("b{}".format, power)
lam_term = st.builds("{}*lam{}".format, coeff, lam_power) | coeff | st.builds("lam{}".format, lam_power)
lam_group = signed_sum(lam_term).map("({})".format)
grouped_sum = signed_sum(st.builds("{}*{}".format, coeff | lam_group, mono) | coeff | lam_group | mono)

# Sums in the grammar; token soup; any short text; comma-separated integers
# for seed keys; printed elements one edit away.
grammar_text = (
    grouped_sum
    | st.lists(st.sampled_from(TOKENS), max_size=12).map("".join)
    | st.text(max_size=12)
    | st.lists(st.sampled_from(["0", "1", "12", "-1", " 2", "x", ""]), min_size=3, max_size=3).map(
        ",".join
    )
    | printed_edit
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


def parse_seed_key(text):
    """The seed reader on a seed whose one key is text."""
    return seed_from_json({"seed": {text: 1}})


def value_or_input_error(load, arg):
    try:
        return load(arg)
    except InputError:
        return None


@pytest.mark.parametrize(
    "parse",
    [parse_rat, ABElement.parse, parse_seed_key],
    ids=lambda parse: parse.__qualname__,
)
@settings(max_examples=250)
@given(text=grammar_text)
def test_text_parser(parse, text):
    value = value_or_input_error(parse, text)
    if isinstance(value, ABElement):
        assert ABElement.parse(str(value)) == value


def oracle_element(text):
    """ABElement.parse by LaurentPoly: each term's lam terms summed in Fractions."""
    out = {}
    for lam_terms, i, j in read_element(text):
        poly = LaurentPoly.zero()
        for e, num, den in lam_terms:
            poly = poly + LaurentPoly.lam_power(e, Fraction(num, den))
        out[(i, j)] = out.get((i, j), LaurentPoly.zero()) + poly
    return ABElement(out)


def oracle_text(x):
    """str(x) with every lam group printed by LaurentPoly."""
    parts = []
    for (i, j), poly in sorted(x.terms.items(), key=lambda kv: (-sum(kv[0]), -kv[0][0])):
        monomial = "*".join(filter(None, (power_text("a", i), power_text("b", j))))
        if poly.terms.keys() <= {0}:
            c = poly.coefficient(0)
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
@given(text=grammar_text)
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
@example(text="1/2*a - 1/3*b")
# a lam sum over a shared denominator, whose terms print reduced
@example(text="(1/2 + 1/3*lam)*b")
# one-term coefficients, read from the term's own match: both signs and a negative
# exponent, a lam sum without lam, and a zero denominator inside a one-term lam sum
@example(text="-(-3/4*lam^-2)*b^2")
@example(text="(5)*a*b")
@example(text="(3/0*lam)*a")
# parts without their "*"
@example(text="2a + ab")
# which fault wins; see test_fault_precedence
@example(text="c + 2**a")
@example(text="(a + )*b")
@example(text="(a)*b + 2**a")
@example(text="b*a + 1/0")
@example(text="(lam")
@example(text="((lam))*a")
@example(text="()*a")
@example(text="lam + (1)")
@example(text="L + (L^2)")
@example(text="(lam)*L")
# a literal past the conversion limit in a group that never closes: the "(" fails first
@example(text="(1 + lam^" + "1" * 4301)
def test_parsers_match_fraction_oracle(text):
    # text outside the grammar, the examples above among it, is refused by both readers in the same words
    x, expected = outcome(ABElement.parse, text), outcome(oracle_element, text)
    assert type(x) is type(expected) and x == expected
    if isinstance(x, ABElement):
        assert str(x) == oracle_text(x)


@pytest.mark.parametrize(
    "text, message",
    [
        # the leftmost fault wins: a syntax fault beats a later bad name
        ("2**a + c", "unexpected '**a + c' in algebra element: '2**a + c'"),
        # a term outside the grammar fails from its start, whatever comes after it
        ("(lam + )*b + 1/0", "unexpected '(lam + )*b + 1/0' in algebra element: '(lam + )*b + 1/0'"),
        ("(a)*b + 2**a", "unexpected '(a)*b + 2**a' in algebra element: '(a)*b + 2**a'"),
        # a term in the grammar fails at its literal, before a later syntax fault
        ("1/0*b*a", "zero denominator: '1/0'"),
        # a group is a lam sum in one pair of parentheses
        ("(lam", "unexpected '(lam' in algebra element: '(lam'"),
        ("((lam))*a", "unexpected '((lam))*a' in algebra element: '((lam))*a'"),
        ("a - ()*a", "unexpected ' - ()*a' in algebra element: 'a - ()*a'"),
    ],
    ids=["syntax-beats-name", "group-dangling", "group-name", "zero-denominator", "unclosed-group", "nested-group",
         "empty-group"],
)
def test_fault_precedence(text, message):
    with pytest.raises(InputError) as caught:
        ABElement.parse(text)
    assert str(caught.value) == message


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
