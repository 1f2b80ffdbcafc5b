"""Order-by-order propagation in L and the exact residual check."""

import csv
import dataclasses
import functools
import io
import json
import operator
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lamconn.algebra import ABElement
from lamconn.asymptotics import (
    ExpansionSpec,
    ExpansionTable,
    MAX_CELLS,
    MAX_EXPONENTS,
    MAX_LOG_DEPTH,
    MAX_ORDER,
    LogPoly,
    propagate,
    seed_from_json,
    verify_table,
)
from lamconn.errors import InputError
from lamconn.exact import LaurentPoly, first_difference
from lamconn.selftest import frobenius_table
from strategies import cell_keys, polys, rationals

GOLDEN = ExpansionSpec(rhos=(F(1, 2),), log_depth=0, order=2, alpha=1, beta=0)
GOLDEN_LOG = ExpansionSpec(rhos=(F(0),), log_depth=1, order=1, alpha=0, beta=1)
# As long as the benchmark's largest tables: coefficients of both signs with
# denominators past 600 digits.
LONG = ExpansionSpec(rhos=(F(1, 3), F(-1, 2), F(2, 5)), log_depth=4, order=80, alpha=F(-3, 2), beta=F(5, 7))
LONG_SEED = {(i, k, 0): F(1 + i, 1 + k) for i in range(3) for k in (0, 4)}


@functools.cache
def long_table():
    return propagate(LONG, LONG_SEED)

seed_values = rationals(-3, 3, 4)


def spec_strategy():
    rho_pool = st.lists(rationals(F(-6, 7), 3, 7), min_size=1, max_size=3, unique=True)

    def build(rhos, n, m, alpha, beta):
        try:
            return ExpansionSpec(rhos=tuple(rhos), log_depth=n, order=m, alpha=alpha, beta=beta)
        except InputError:
            return None

    return st.builds(
        build,
        rho_pool,
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=4),
        seed_values,
        seed_values,
    ).filter(lambda s: s is not None)


class TestLogPoly:
    def test_str(self):
        assert str(LogPoly({1: F(1, 3)})) == "1/3*L"
        assert str(LogPoly({2: F(1, 10)})) == "1/10*L^2"
        assert str(LogPoly({0: -1, 1: 1, 3: -2})) == "-1 + L - 2*L^3"
        assert str(LogPoly.zero()) == "0"

    def test_deriv(self):
        assert LogPoly({0: 5, 2: F(1, 2)}).deriv() == LogPoly({1: 1})
        assert LogPoly.const(7).deriv() == LogPoly.zero()

    def test_eq_against_numbers(self):
        # a polynomial equals no number, not even its constant value
        assert LogPoly.const(3) != 3
        assert LogPoly.zero() != 0
        assert LogPoly({1: 1}) != 1

    def test_degree_convention(self):
        assert LogPoly.zero().degree() == -1
        assert LogPoly({3: 1}).degree() == 3

    def test_zero_pruning(self):
        assert LogPoly({2: 0, 0: 1}) == LogPoly.const(1)

    @pytest.mark.parametrize("bad", [{-1: 1}, {F(1, 2): 1}, {"2": 1}])
    def test_rejects_bad_degrees(self, bad):
        with pytest.raises(InputError):
            LogPoly(bad)

    def test_json(self):
        assert LogPoly({1: F(1, 3), 0: -2}).to_json() == {"0": "-2", "1": "1/3"}

    def test_does_not_mix_with_laurent(self):
        log, laurent = LogPoly({0: 1, 1: 2}), LaurentPoly({0: 1, 1: 2})
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(log, laurent)
            with pytest.raises(TypeError):
                op(laurent, log)
        assert log != laurent
        assert laurent != log
        # constants too: a polynomial equals only a polynomial of its own class
        assert LogPoly.const(1) != LaurentPoly.const(1)
        assert LaurentPoly.zero() != LogPoly.zero()

    def test_not_an_algebra_coefficient(self):
        with pytest.raises(TypeError):
            ABElement({(0, 0): LogPoly.const(1)})
        with pytest.raises(TypeError):
            ABElement.one().scale(LogPoly.const(1))


class TestSpecValidation:
    def test_round_trip_json(self):
        spec = ExpansionSpec(rhos=(F(1, 2), F(1, 3)), log_depth=2, order=5, alpha=F(-2), beta=F(1, 2))
        assert ExpansionSpec.from_json(spec.to_json()) == spec

    def test_json_shape(self):
        payload = GOLDEN.to_json()
        assert payload == {"rhos": ["1/2"], "N": 0, "M": 2, "alpha": "1", "beta": "0"}

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rhos=(), log_depth=0, order=1, alpha=1, beta=0),
            dict(rhos=(F(-1),), log_depth=0, order=1, alpha=1, beta=0),
            dict(rhos=(F(-3, 2),), log_depth=0, order=1, alpha=1, beta=0),
            dict(rhos=(F(1, 2), F(3, 2)), log_depth=0, order=1, alpha=1, beta=0),
            dict(rhos=(F(0), F(2)), log_depth=0, order=1, alpha=1, beta=0),
            dict(rhos=(F(1, 2),), log_depth=-1, order=1, alpha=1, beta=0),
            dict(rhos=(F(1, 2),), log_depth=0, order=-2, alpha=1, beta=0),
            dict(rhos=(F(1, 2),), log_depth=True, order=1, alpha=1, beta=0),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(InputError):
            ExpansionSpec(**kwargs)

    @pytest.mark.parametrize(
        "obj",
        [
            [],
            {},
            {"rhos": ["1/2"], "N": 0, "M": 2, "alpha": "1"},
            {"rhos": "1/2", "N": 0, "M": 2, "alpha": "1", "beta": "0"},
            {"rhos": ["1/2"], "N": 0.5, "M": 2, "alpha": "1", "beta": "0"},
            {"rhos": [0.5], "N": 0, "M": 2, "alpha": "1", "beta": "0"},
            {"rhos": ["1/2"], "N": 0, "M": 2, "alpha": True, "beta": "0"},
        ],
    )
    def test_from_json_rejects(self, obj):
        with pytest.raises(InputError):
            ExpansionSpec.from_json(obj)

    def test_from_json_limits(self):
        base = {"rhos": ["1/2"], "alpha": "1", "beta": "0"}
        spec = ExpansionSpec.from_json({**base, "N": MAX_LOG_DEPTH, "M": MAX_ORDER})
        assert (spec.log_depth, spec.order) == (MAX_LOG_DEPTH, MAX_ORDER)
        rhos = [f"1/{d}" for d in range(2, MAX_EXPONENTS + 3)]
        spec = ExpansionSpec.from_json({**base, "rhos": rhos[:-1], "N": 0, "M": 0})
        assert len(spec.rhos) == MAX_EXPONENTS
        # Work budget: rhos * (N + 1) * (M + 1) <= MAX_CELLS, checked before any work.
        spec = ExpansionSpec.from_json({**base, "rhos": rhos[:2], "N": 7, "M": MAX_ORDER})
        assert len(spec.rhos) * (spec.log_depth + 1) * (spec.order + 1) <= MAX_CELLS
        for over in (
            {"N": MAX_LOG_DEPTH + 1, "M": 0},
            {"N": 0, "M": MAX_ORDER + 1},
            {"rhos": rhos, "N": 0, "M": 0},
            {"rhos": rhos[:2], "N": MAX_LOG_DEPTH, "M": MAX_ORDER},
        ):
            with pytest.raises(InputError, match="must be at most"):
                ExpansionSpec.from_json({**base, **over})

    def test_parse_seed_key(self):
        assert seed_from_json({"seed": {"1,2,3": 1}}) == {(1, 2, 3): 1}
        assert seed_from_json({"seed": {"0,0,0": 1}}) == {(0, 0, 0): 1}
        for bad in ("1,2", "1,2,3,4", "a,b,c", "1;2;3", "", "0,0,1_0", "+0,0,1", "0, 0,1", "-1,0,0", "\u0660,0,0"):
            with pytest.raises(InputError):
                seed_from_json({"seed": {bad: 1}})
        with pytest.raises(InputError) as refused:
            seed_from_json({"seed": ["0,0,0"]})
        assert str(refused.value) == "seed must be an object keyed by 'i,k,m'"


class TestPropagate:
    # the golden ladder of GOLDEN is pinned, cell by cell, by criterion 9
    def test_golden_log_ladder(self):
        table = propagate(GOLDEN_LOG, {(0, 0, 0): 1, (0, 1, 0): 1})
        assert table.get(0, 1, 1) == LogPoly({1: 1})
        assert table.get(0, 0, 1) == LogPoly.zero()

    def test_zero_seed_gives_zero_table(self):
        table = propagate(GOLDEN, {})
        assert all(poly.is_zero() for poly in table.entries.values())

    def test_entries_cover_full_grid(self):
        spec = ExpansionSpec(rhos=(F(1, 2), F(1, 3)), log_depth=1, order=2, alpha=1, beta=1)
        table = propagate(spec, {(0, 0, 0): 1})
        assert set(table.entries) == {
            (i, k, m) for i in range(2) for k in range(2) for m in range(3)
        }

    def test_seed_constants_recoverable(self):
        spec = ExpansionSpec(rhos=(F(1, 2),), log_depth=1, order=3, alpha=2, beta=F(1, 3))
        seed = {(0, 0, 0): F(2), (0, 1, 1): F(-1, 2), (0, 0, 3): F(5)}
        table = propagate(spec, seed)
        for (i, k, m), value in seed.items():
            assert table.get(i, k, m).constant_term() == value

    def test_rejects_out_of_range_seed(self):
        for key in ((1, 0, 0), (0, 1, 0), (0, 0, 3), (-1, 0, 0), (0, -1, 0), (0, 0, -1)):
            with pytest.raises(InputError):
                propagate(GOLDEN, {key: 1})
        with pytest.raises(InputError):
            propagate(GOLDEN, {(0, 0): 1})

    @pytest.mark.parametrize("key", [(0, 0, 1.5), (0, 0.5, 0), ("0", 0, 0), (True, 0, 0)])
    def test_rejects_non_integer_seed_key(self, key):
        with pytest.raises(InputError, match="integers"):
            propagate(GOLDEN, {key: 7})

    @given(spec_strategy(), seed_values, seed_values)
    def test_additive_in_seed(self, spec, c1, c2):
        key1 = (0, 0, 0)
        key2 = (0, spec.log_depth, 0)
        t1 = propagate(spec, {key1: c1})
        t2 = propagate(spec, {key2: c2})
        combined = propagate(spec, {key1: c1, key2: c2} if key1 != key2 else {key1: c1 + c2})
        for key in combined.entries:
            assert combined.entries[key] == t1.get(*key) + t2.get(*key)

    @given(spec_strategy())
    def test_degree_bounded_by_order(self, spec):
        seed = {(i, k, 0): 1 for i in range(len(spec.rhos)) for k in range(spec.log_depth + 1)}
        table = propagate(spec, seed)
        for (_, _, m), poly in table.entries.items():
            assert poly.degree() <= m


def seed_maps(spec):
    return st.dictionaries(cell_keys(spec), seed_values, max_size=4)


class TestFrobeniusRoute:
    """The closed-form route of the battery against propagate's recurrence."""

    def test_golden(self):
        seed = {(0, 0, 0): F(1)}
        assert frobenius_table(GOLDEN, seed) == propagate(GOLDEN, seed)

    def test_one_rho_deep_and_long(self):
        spec = ExpansionSpec(rhos=(F(1, 3),), log_depth=16, order=200, alpha=F(-3, 2), beta=F(5, 7))
        seed = {(0, 0, 0): F(1), (0, 16, 0): F(-2, 3)}
        assert frobenius_table(spec, seed) == propagate(spec, seed)

    def test_two_rhos_long(self):
        spec = ExpansionSpec(rhos=(F(1, 3), F(-1, 2)), log_depth=3, order=300, alpha=F(2), beta=F(-1, 3))
        seed = {(0, 3, 0): F(1), (1, 0, 5): F(2, 5), (1, 2, 17): F(-7)}
        assert frobenius_table(spec, seed) == propagate(spec, seed)


@st.composite
def chain_specs(draw):
    """A spec and a seed, drawing every pair that spec_strategy and seed_maps draw:
    one to three rhos with denominators up to 10^30, alpha possibly 0, log depth
    up to 3 and order up to 12, and a seed of up to six values, possibly empty
    and possibly 0, to which half the draws add a constant at the top depth of
    the first ladder.  A third of those draws telescope (beta a multiple of
    alpha), but almost none makes a chain renormalize.

    So half the draws come from a telescoping arm instead, built to reach
    _chain's renormalization: every rho is q + 1/den with den from 10^6 to
    10^30, alpha is not 0, beta is a multiple of it, the order is 8 to 14 and
    the seed always holds the constant at the top depth of the first ladder.
    Counted with an instrumented _chain, 31 of the 100 derandomized draws of
    test_matches_frobenius_and_verifies renormalize, against 2 without the arm."""
    telescoping = draw(st.booleans())
    if telescoping:
        dens = st.integers(min_value=10**6, max_value=10**30)
    else:
        dens = st.sampled_from([1, 2, 3, 7, 10**6 + 3]) | st.integers(min_value=1, max_value=10**30)
    rhos = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        den = draw(dens)
        if telescoping:  # q + 1/den, which keeps its whole denominator
            rhos.append(F(draw(st.integers(min_value=-1, max_value=2)) * den + 1, den))
        else:
            rhos.append(F(draw(st.integers(min_value=1 - den, max_value=3 * den)), den))
    alpha = draw(rationals(-3, 3, 5).filter(bool) if telescoping else rationals(-3, 3, 5))
    if telescoping or draw(st.integers(min_value=0, max_value=2)) == 0:
        beta = alpha * draw(st.integers(min_value=-3, max_value=3))
    else:
        beta = draw(seed_values)
    try:
        spec = ExpansionSpec(
            rhos=tuple(rhos),
            log_depth=draw(st.integers(min_value=0, max_value=3)),
            order=draw(st.integers(min_value=8, max_value=14) if telescoping else st.integers(min_value=0, max_value=12)),
            alpha=alpha,
            beta=beta,
        )
    except InputError:  # congruent rhos
        assume(False)
    seed = draw(st.dictionaries(cell_keys(spec), seed_values, max_size=6))
    if telescoping or draw(st.booleans()):
        seed = {(0, spec.log_depth, 0): draw(seed_values), **seed}
    return spec, seed


class TestChainKernel:
    """propagate's integer seed chains against the closed-form route and the relation."""

    @given(chain_specs())
    # telescoping with a large rho denominator: the chain renormalizes
    @example((ExpansionSpec(rhos=(F(1, 2095744),), log_depth=1, order=9, alpha=1, beta=0), {(0, 1, 0): F(1)}))
    def test_matches_frobenius_and_verifies(self, spec_seed):
        spec, seed = spec_seed
        table = propagate(spec, seed)
        assert table == frobenius_table(spec, seed)
        report = verify_table(spec, table)
        assert report.passed
        assert report.residuals == {}


class TestVerifyTable:
    def test_propagated_tables_pass(self):
        table = propagate(GOLDEN, {(0, 0, 0): 1})
        assert verify_table(GOLDEN, table).passed

    def test_order_zero_is_vacuous(self):
        spec = ExpansionSpec(rhos=(F(1, 2),), log_depth=2, order=0, alpha=1, beta=1)
        arbitrary = ExpansionTable(
            spec=spec, entries={(0, k, 0): LogPoly.const(k + 1) for k in range(3)}
        )
        assert verify_table(spec, arbitrary).passed

    def test_interior_perturbation_is_localized(self):
        spec = ExpansionSpec(rhos=(F(1, 2),), log_depth=0, order=3, alpha=1, beta=0)
        table = propagate(spec, {(0, 0, 0): 1})
        tampered = ExpansionTable(
            spec=spec,
            entries={**table.entries, (0, 0, 1): table.get(0, 0, 1) + LogPoly.const(1)},
        )
        report = verify_table(spec, tampered)
        # a constant shift at order 1 breaks exactly the relation sourced there:
        # its derivative vanishes, so the m=0 relation never sees it
        assert set(report.residuals) == {(0, 0, 1)}
        assert report.residuals[(0, 0, 1)] == LogPoly.const(-(spec.alpha * (1 + F(1, 2)) + spec.beta))

    def test_depth_neighbour_sees_constant_shift(self):
        spec = ExpansionSpec(rhos=(F(0),), log_depth=1, order=2, alpha=1, beta=1)
        table = propagate(spec, {(0, 1, 0): 1})
        tampered = ExpansionTable(
            spec=spec,
            entries={**table.entries, (0, 1, 1): table.get(0, 1, 1) + LogPoly.const(1)},
        )
        report = verify_table(spec, tampered)
        assert set(report.residuals) == {(0, 1, 1), (0, 0, 1)}
        assert report.residuals[(0, 0, 1)] == LogPoly.const(-spec.alpha)
        # first_difference names the smallest residual key, and none of a passing report
        assert first_difference({}, report.residuals) == ((0, 0, 1), 0, LogPoly.const(-spec.alpha))
        passing = verify_table(spec, table)
        assert first_difference({}, passing.residuals) is None

    def test_top_order_constants_are_free(self):
        # the last-order seed never enters any relation, so shifting it is invisible
        spec = ExpansionSpec(rhos=(F(1, 2),), log_depth=0, order=3, alpha=1, beta=0)
        table = propagate(spec, {(0, 0, 0): 1})
        tampered = ExpansionTable(
            spec=spec,
            entries={**table.entries, (0, 0, 3): table.get(0, 0, 3) + LogPoly.const(7)},
        )
        assert verify_table(spec, tampered).passed

    def test_nonconstant_tampering_detected(self):
        table = propagate(GOLDEN, {(0, 0, 0): 1})
        tampered = ExpansionTable(
            spec=GOLDEN,
            entries={**table.entries, (0, 0, 2): LogPoly({2: F(1, 7)})},
        )
        assert not verify_table(GOLDEN, tampered).passed


def residuals_by_polynomial_arithmetic(spec, table):
    """The relation of verify_table evaluated with LogPoly operations, term map by term map."""
    residuals = {}
    zero = LogPoly.zero()
    for i, rho in enumerate(spec.rhos):
        for m in range(spec.order):
            factor = spec.alpha * (m + rho) + spec.beta
            for k in range(spec.log_depth + 1):
                above_next = table.get(i, k + 1, m + 1) if k < spec.log_depth else zero
                above_cur = table.get(i, k + 1, m) if k < spec.log_depth else zero
                res = (
                    table.get(i, k, m + 1).deriv().scale(m + rho + 1)
                    + above_next.deriv()
                    - table.get(i, k, m).scale(factor)
                    - above_cur.scale(spec.alpha)
                )
                if not res.is_zero():
                    residuals[(i, k, m)] = res
    return residuals


small_log_polys = polys(LogPoly, 0, 5, seed_values.filter(bool), min_size=1, max_size=3)


@st.composite
def corrupted_tables(draw):
    """A propagated table and a copy with one drawn cell, on the grid's edges too, shifted."""
    spec = draw(spec_strategy())
    table = propagate(spec, draw(seed_maps(spec)))
    key = (
        draw(st.integers(min_value=0, max_value=len(spec.rhos) - 1)),
        draw(st.one_of(st.just(spec.log_depth), st.integers(min_value=0, max_value=spec.log_depth))),
        draw(st.one_of(st.sampled_from((0, spec.order)), st.integers(min_value=0, max_value=spec.order))),
    )
    entries = {**table.entries, key: table.get(*key) + draw(small_log_polys)}
    return spec, table, key, ExpansionTable(spec=spec, entries=entries)


@st.composite
def damaged_tables(draw):
    """A propagated table that lost some cells, got up to three cells shifted
    (two depths at one order when there are two) and carries a term of degree
    above m: the cells on one side of a relation go missing."""
    spec = draw(spec_strategy())
    entries = dict(propagate(spec, draw(seed_maps(spec))).entries)
    for key in draw(st.lists(st.sampled_from(sorted(entries)), min_size=1, max_size=3, unique=True)):
        del entries[key]
    i = draw(st.integers(min_value=0, max_value=len(spec.rhos) - 1))
    k = draw(st.integers(min_value=0, max_value=max(spec.log_depth - 1, 0)))
    m = draw(st.integers(min_value=0, max_value=spec.order))
    shifted = {(i, k, m), (i, min(k + 1, spec.log_depth), m)}
    if draw(st.booleans()):
        shifted.add((i, spec.log_depth, draw(st.integers(min_value=0, max_value=spec.order))))
    for key in sorted(shifted):
        entries[key] = entries.get(key, LogPoly.zero()) + draw(small_log_polys)
    key = draw(st.sampled_from(sorted(shifted)))
    high = LogPoly({key[2] + draw(st.integers(min_value=1, max_value=3)): draw(seed_values.filter(bool))})
    entries[key] += high
    return spec, ExpansionTable(spec=spec, entries=entries)


class TestVerifyTableOracle:
    @given(corrupted_tables())
    def test_residuals_match_polynomial_arithmetic(self, drawn):
        spec, table, (i, k, m), tampered = drawn
        assert verify_table(spec, table).residuals == residuals_by_polynomial_arithmetic(spec, table) == {}
        residuals = verify_table(spec, tampered).residuals
        assert residuals == residuals_by_polynomial_arithmetic(spec, tampered)
        # c[k,m] enters only the relations at (k, m), (k-1, m), (k, m-1) and (k-1, m-1)
        assert set(residuals) <= {(i, k - dk, m - dm) for dk in (0, 1) for dm in (0, 1)}

    @given(damaged_tables())
    def test_damaged_tables_match_polynomial_arithmetic(self, drawn):
        spec, damaged = drawn
        assert verify_table(spec, damaged).residuals == residuals_by_polynomial_arithmetic(spec, damaged)

    def test_long_table_passes(self):
        table = long_table()
        assert verify_table(LONG, table).residuals == residuals_by_polynomial_arithmetic(LONG, table) == {}

    @settings(max_examples=12)
    @given(
        st.tuples(
            st.integers(min_value=0, max_value=len(LONG.rhos) - 1),
            st.integers(min_value=0, max_value=LONG.log_depth),
            st.integers(min_value=41, max_value=LONG.order),
        ),
        small_log_polys,
    )
    def test_long_table_perturbed_past_order_40(self, key, delta):
        table = long_table()
        tampered = ExpansionTable(spec=LONG, entries={**table.entries, key: table.get(*key) + delta})
        report = verify_table(LONG, tampered)
        expected = residuals_by_polynomial_arithmetic(LONG, tampered)
        assert report.residuals == expected
        if key[2] < LONG.order:
            # the relation at (k, m) sees delta times -(alpha*(m + rho) + beta), never zero here
            assert not report.passed


def refused_at(limit, spec, seed):
    """Whether propagate refuses spec and seed under an int/str conversion limit of limit digits."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        propagate(spec, seed)
    except InputError as exc:
        assert str(exc).startswith(f"a number in the result has more than {limit} digits")
        return True
    finally:
        sys.set_int_max_str_digits(old)
    return False


def widest_digits(table, part):
    return max(len(str(abs(part(c)))) for poly in table.entries.values() for c in poly.coeffs.values())


class TestDigitLimit:
    """propagate refuses a table it could not print as soon as a cell passes the limit."""

    # its widest integer is a denominator, of 3,695 digits against 3,351 for numerators
    SPEC = ExpansionSpec(rhos=(F(1, 3),), log_depth=16, order=200, alpha=F(-3, 2), beta=F(5, 7))
    SEED = {(0, 0, 0): F(1), (0, 16, 0): F(-2, 3)}
    # a long seed numerator makes the widest integer a numerator, of 713 digits against 36
    NUMERATOR_SPEC = ExpansionSpec(rhos=(F(-1, 2),), log_depth=3, order=30, alpha=F(2), beta=F(3))
    NUMERATOR_SEED = {(0, 0, 0): F(10**700 - 1)}

    def test_refused_under_a_lower_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(InputError, match="more than 640 digits"):
                propagate(self.SPEC, self.SEED)
        finally:
            sys.set_int_max_str_digits(old)

    def assert_boundary_at_widest(self, spec, seed, widest, narrower):
        """Under a limit of D digits, D those of the table's widest integer, the
        table is made; one digit less refuses it."""
        table = propagate(spec, seed)
        digits = widest_digits(table, widest)
        assert digits > widest_digits(table, narrower)
        assert not refused_at(digits, spec, seed)
        assert refused_at(digits - 1, spec, seed)

    def test_exact_boundary_at_a_denominator(self):
        self.assert_boundary_at_widest(self.SPEC, self.SEED, operator.attrgetter("denominator"),
                                       operator.attrgetter("numerator"))

    def test_exact_boundary_at_a_numerator(self):
        self.assert_boundary_at_widest(self.NUMERATOR_SPEC, self.NUMERATOR_SEED, operator.attrgetter("numerator"),
                                       operator.attrgetter("denominator"))

    def test_no_limit_refuses_nothing(self):
        # a limit of 0 is no limit: the 713-digit numerator that a limit of 640 refuses is made
        assert refused_at(640, self.NUMERATOR_SPEC, self.NUMERATOR_SEED)
        assert not refused_at(0, self.NUMERATOR_SPEC, self.NUMERATOR_SEED)

    def test_full_table_under_the_default_limit(self):
        table = propagate(self.SPEC, self.SEED)
        assert len(table.entries) == 17 * 201
        limit = sys.get_int_max_str_digits()
        digits = max(
            len(str(abs(x)))
            for poly in table.entries.values()
            for c in poly.coeffs.values()
            for x in (c.numerator, c.denominator)
        )
        assert 640 < digits <= limit


def json_table_by_cell(entries):
    """The "table" block of to_json, written cell by cell from LogPoly.to_json."""
    return {f"{i},{k},{m}": poly.to_json() for (i, k, m), poly in sorted(entries.items())}


def csv_by_csv_writer(table):
    """The table's CSV as csv.writer writes it, one column per degree up to the top one."""
    width = max((poly.degree() for poly in table.entries.values()), default=-1) + 1
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["i", "k", "m"] + [f"L^{e}" for e in range(width)])
    for (i, k, m), poly in sorted(table.entries.items()):
        writer.writerow([i, k, m] + [poly.coefficient(e) for e in range(width)])
    return buf.getvalue()


@st.composite
def sparse_tables(draw):
    """Hand-built cells at drawn keys: degrees with gaps, and empty cells."""
    spec = draw(spec_strategy())
    cells = polys(LogPoly, 0, 9, seed_values.filter(bool), max_size=3)
    return ExpansionTable(spec=spec, entries=draw(st.dictionaries(cell_keys(spec), cells, max_size=6)))


def rendered_tables():
    """Propagated, damaged, corrupted and hand-built sparse tables."""
    return st.one_of(
        spec_strategy().flatmap(lambda spec: seed_maps(spec).map(lambda seed: propagate(spec, seed))),
        damaged_tables().map(operator.itemgetter(1)),
        corrupted_tables().map(operator.itemgetter(3)),
        sparse_tables(),
    )


class TestSerialization:
    def test_table_json(self):
        payload = propagate(GOLDEN, {(0, 0, 0): 1}).to_json()
        assert payload["spec"] == GOLDEN.to_json()
        assert payload["table"]["0,0,0"] == {"0": "1"}
        assert payload["table"]["0,0,1"] == {"1": "1/3"}
        assert payload["table"]["0,0,2"] == {"2": "1/10"}

    def test_csv_shape(self):
        text = propagate(GOLDEN, {(0, 0, 0): 1}).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "i,k,m,L^0,L^1,L^2"
        assert lines[1] == "0,0,0,1,0,0"
        assert lines[2] == "0,0,1,0,1/3,0"
        assert lines[3] == "0,0,2,0,0,1/10"

    @pytest.mark.parametrize("name", ["golden", "long"])
    def test_csv_bytes_match_csv_writer(self, name):
        table = propagate(GOLDEN, {(0, 0, 0): 1}) if name == "golden" else long_table()
        if name == "long":
            coefficients = [c for poly in table.entries.values() for c in poly.coeffs.values()]
            assert min(coefficients) < 0
            assert max(len(str(c.denominator)) for c in coefficients) > 600
        assert table.to_csv() == csv_by_csv_writer(table)

    @given(rendered_tables())
    @example(ExpansionTable(spec=GOLDEN, entries={}))
    @example(ExpansionTable(spec=GOLDEN, entries={(0, 0, 1): LogPoly.zero(), (0, 0, 0): LogPoly.zero()}))
    def test_one_rendering_serves_both_formats(self, table):
        table_json = json_table_by_cell(table.entries)
        expected = (json.dumps({"spec": table.spec.to_json(), "table": table_json}), csv_by_csv_writer(table))
        # json first, csv first, and each twice, on tables that share the entries
        json_first = ExpansionTable(spec=table.spec, entries=table.entries)
        csv_first = ExpansionTable(spec=table.spec, entries=table.entries)
        assert (json.dumps(json_first.to_json()), json_first.to_csv()) == expected
        assert csv_first.to_csv() == expected[1]
        assert json.dumps(csv_first.to_json()) == expected[0]
        for rendered in (json_first, csv_first):
            assert (json.dumps(rendered.to_json()), rendered.to_csv()) == expected
            assert rendered.to_json()["table"] == table_json
        # a copy with other entries renders those, not the rendering it was copied from
        key = max(table.entries, default=(0, 0, 0))
        entries = {**table.entries, key: table.get(*key) + LogPoly({4: F(-2, 7)})}
        changed = dataclasses.replace(json_first, entries=entries)
        assert changed.to_csv() == csv_by_csv_writer(changed)
        assert changed.to_json()["table"] == json_table_by_cell(entries)
        assert (json.dumps(json_first.to_json()), json_first.to_csv()) == expected

    def test_json_table_is_new_and_its_cells_are_the_shared_rendering(self):
        table = propagate(GOLDEN, {(0, 0, 0): 1})
        expected = (json.dumps(table.to_json()), table.to_csv())
        first, second = table.to_json(), table.to_json()
        assert first["table"] is not second["table"]
        # the cell dicts are read-only: every call hands out the same ones
        assert all(first["table"][key] is second["table"][key] for key in first["table"])
        del first["table"]["0,0,0"]
        first["table"]["0,0,3"] = {"0": "7"}
        assert (json.dumps(table.to_json()), table.to_csv()) == expected

    def test_table_equality_ignores_stored_zeros(self):
        spec = GOLDEN
        with_zero = ExpansionTable(spec=spec, entries={(0, 0, 0): LogPoly.zero()})
        assert with_zero == ExpansionTable(spec=spec, entries={})
