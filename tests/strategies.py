"""The Hypothesis strategies that more than one test draws from, each defined once.

Every rational is built from two drawn integers, a denominator and then a
numerator in range.  That draws the same values as Hypothesis's own
``fractions`` strategy at about a third of its cost per draw, and drawing
rationals is where most of the suite's time goes.
"""

import math
from fractions import Fraction

from hypothesis import strategies as st

from lamconn.algebra import ABElement


def rationals(low, high, max_denominator):
    """The rationals in [low, high] with denominator at most max_denominator, the values of
    fractions(min_value=low, max_value=high, max_denominator=max_denominator), drawn as
    a denominator q in 1..max_denominator and then a numerator in ceil(low*q)..floor(high*q)."""
    low, high = Fraction(low), Fraction(high)
    denominators = st.integers(min_value=1, max_value=max_denominator)
    numerators = {q: st.integers(math.ceil(low * q), math.floor(high * q)) for q in range(1, max_denominator + 1)}

    @st.composite
    def rational(draw):
        q = draw(denominators)
        return Fraction(draw(numerators[q]), q)

    return rational()


small_fraction = rationals(-5, 5, 6)


def polys(cls, low, high, coefficients=small_fraction, *, min_size=0, max_size=None):
    """A LaurentPoly or LogPoly cls with exponents in low..high, each coefficient drawn from coefficients."""
    return st.dictionaries(
        st.integers(min_value=low, max_value=high), coefficients, min_size=min_size, max_size=max_size
    ).map(cls)


def abelements(max_power, coefficients, max_size):
    """An ABElement with a and b powers up to max_power and at most max_size drawn terms."""
    powers = st.integers(min_value=0, max_value=max_power)
    return st.dictionaries(st.tuples(powers, powers), coefficients, max_size=max_size).map(ABElement)


def cell_keys(spec):
    """A key (i, k, m) of a cell of spec's table."""
    return st.tuples(
        st.integers(min_value=0, max_value=len(spec.rhos) - 1),
        st.integers(min_value=0, max_value=spec.log_depth),
        st.integers(min_value=0, max_value=spec.order),
    )


# Integer and rational entries mixed, so rows take both the integer path and
# the path that first scales a row by the lcm of its denominators.
matrix_entry = st.integers(min_value=-9, max_value=9) | rationals(-9, 9, 6)


def entry_rows(nrows, ncols):
    """nrows lists of ncols matrix entries."""
    return st.lists(st.lists(matrix_entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)


def exponent_layouts(max_entry=9):
    """A layout (n, alphas) with n in 1..3 and n+2 exponent vectors of n+1 entries in
    0..max_entry, not checked: vectors may repeat and the last may be zero."""
    def build(args):
        n, flat = args
        alphas = tuple(tuple(flat[i * (n + 1) : (i + 1) * (n + 1)]) for i in range(n + 2))
        return n, alphas

    return (
        st.integers(min_value=1, max_value=3)
        .flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.integers(min_value=0, max_value=max_entry),
                    min_size=(n + 2) * (n + 1),
                    max_size=(n + 2) * (n + 1),
                ),
            )
        )
        .map(build)
    )
