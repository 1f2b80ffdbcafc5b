"""Exact scalars and matrices, checked against cofactor and adjugate oracles,
and the elimination kernel against a plain Fraction Gauss-Jordan and sympy."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lamconn.asymptotics import LogPoly
from lamconn.errors import DimensionError, InputError, SingularMatrixError
from lamconn.exact import (
    LaurentPoly,
    RatMatrix,
    _integer_rows,
    _solve_square,
    check_int,
    det,
    first_difference,
    invert,
    parse_rat,
    rank,
    solve,
)

# Bordered exponent matrices of the two golden instances; every frozen value
# below was produced by the oracles in this file before the implementation
# existed.
TILDE_A = [[1, 1, 1, 1], [4, 0, 0, 2], [0, 4, 0, 2], [0, 0, 2, 1]]
TILDE_B = [[1, 1, 1, 1], [4, 0, 0, 2], [0, 4, 0, 2], [1, 1, 2, 0]]


def det_cofactor(rows):
    """Independent determinant oracle: first-row cofactor expansion."""
    n = len(rows)
    if n == 1:
        return F(rows[0][0])
    total = F(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * F(rows[0][j]) * det_cofactor(minor)
    return total


def inverse_adjugate(rows):
    """Independent inversion oracle: transposed cofactor matrix over the determinant."""
    n = len(rows)
    d = det_cofactor(rows)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:i] + row[i + 1 :] for k, row in enumerate(rows) if k != j]
            out[i][j] = (-1) ** (i + j) * det_cofactor(minor) / d
    return out


small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=6)

# One digit past Python's default int/str conversion limit.
LONG_DIGITS = "1" * 4301


def polys(cls, min_exponent):
    return st.dictionaries(
        st.integers(min_value=min_exponent, max_value=4), small_fraction, max_size=5
    ).map(cls)


# Integer and rational entries mixed, so rows take both the integer path and
# the path that first scales a row by the lcm of its denominators.
matrix_entry = st.integers(min_value=-9, max_value=9) | st.fractions(
    min_value=-9, max_value=9, max_denominator=6
)


def matrix(nrows, ncols, entries=matrix_entry):
    return st.lists(
        st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
    ).map(RatMatrix)


def square_matrix(n, entries=matrix_entry):
    return matrix(n, n, entries)


def rank_deficient_matrix(nrows, ncols):
    """A product (nrows x k) @ (k x ncols) with k < min(nrows, ncols), so rank <= k."""
    return st.integers(min_value=1, max_value=max(1, min(nrows, ncols) - 1)).flatmap(
        lambda k: st.tuples(matrix(nrows, k), matrix(k, ncols)).map(lambda pair: pair[0] @ pair[1])
    )


def rectangular_matrix():
    return st.tuples(
        st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5)
    ).flatmap(lambda shape: matrix(*shape) | rank_deficient_matrix(*shape))


class TestRat:
    def test_parse_plain(self):
        assert parse_rat("-7/4") == F(-7, 4)
        assert parse_rat("5") == F(5)
        assert parse_rat(" 3/6 ") == F(1, 2)

    def test_format(self):
        assert str(F(-7, 4)) == "-7/4"
        assert str(F(10, 2)) == "5"
        assert str(F(0)) == "0"

    @pytest.mark.parametrize("bad", ["1.5", "", "a", "1/0", "1e3", "+-3", "1/ 2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(InputError):
            parse_rat(bad)

    @pytest.mark.parametrize("text", [LONG_DIGITS, "-" + LONG_DIGITS, "1/" + LONG_DIGITS, "+" + LONG_DIGITS])
    def test_parse_rejects_oversized_literal(self, text):
        # the message counts the digits alone, never the sign
        with pytest.raises(InputError) as caught:
            parse_rat(text)
        assert str(caught.value) == "integer literal of 4301 digits is too long"

    @given(small_fraction)
    def test_round_trip(self, x):
        assert parse_rat(str(x)) == x


flat_maps = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-2, 2), max_size=6)


class TestFirstDifference:
    """The one walk behind every failure report; a missing key counts as 0."""

    @given(flat_maps, flat_maps)
    @example({}, {})
    @example({(0, 1): 0}, {})
    @example({(0, 1): 1, (1, 0): 2}, {(1, 0): 3})
    def test_none_exactly_when_equal_else_smallest_differing_key(self, x, changes):
        y = {**x, **changes}
        diff = first_difference(x, y)
        if {k: v for k, v in x.items() if v} == {k: v for k, v in y.items() if v}:
            assert diff is None
        else:
            key, vx, vy = diff
            assert (vx, vy) == (x.get(key, 0), y.get(key, 0)) and vx != vy
            assert all(x.get(k, 0) == y.get(k, 0) for k in x.keys() | y.keys() if k < key)

    def test_any_value_type(self):
        routes = {"determinants": F(1, 2), "inverse row": F(1, 2)}
        assert first_difference(routes, {**routes, "inverse row": F(-1, 2)}) == ("inverse row", F(1, 2), F(-1, 2))
        assert first_difference({}, {(0, 2, 1): LogPoly.const(3)}) == ((0, 2, 1), 0, LogPoly.const(3))


class TestCheckInt:
    def test_accepts(self):
        assert check_int(-2, "x") == -2
        assert check_int(0, "x", 0) == 0
        assert check_int(10**50, "x", 1) == 10**50

    @pytest.mark.parametrize(
        "value, minimum, message",
        [
            (1.0, None, "x must be an integer, got 1.0"),
            ("1", None, "x must be an integer, got '1'"),
            (True, 0, "x must be a nonnegative integer, got True"),
            (-1, 0, "x must be a nonnegative integer, got -1"),
            (0, 1, "x must be a positive integer, got 0"),
        ],
    )
    def test_refuses(self, value, minimum, message):
        with pytest.raises(InputError) as info:
            check_int(value, "x", minimum)
        assert str(info.value) == message


class TestLaurentPoly:
    def test_str_sorted_ascending(self):
        p = LaurentPoly({0: 1, -2: F(-4)})
        assert str(p) == "-4*lam^-2 + 1"

    def test_str_units(self):
        assert str(LaurentPoly({1: 1})) == "lam"
        assert str(LaurentPoly({2: -1})) == "-lam^2"
        assert str(LaurentPoly.zero()) == "0"
        assert str(LaurentPoly.const(F(7, 2))) == "7/2"

    def test_parse_examples(self):
        assert LaurentPoly.parse("-4*lam^-2 + 1") == LaurentPoly({-2: -4, 0: 1})
        assert LaurentPoly.parse("lam") == LaurentPoly({1: 1})
        assert LaurentPoly.parse("3/2*lam^5 - lam") == LaurentPoly({5: F(3, 2), 1: -1})
        assert LaurentPoly.parse("0") == LaurentPoly.zero()
        assert LaurentPoly.parse("1/2 - -3") == LaurentPoly.const(F(7, 2))
        assert LaurentPoly.parse("2*-lam") == LaurentPoly({1: -2})

    @pytest.mark.parametrize("bad", ["lam^", "4*", "(1)", "lam**2", "b"])
    def test_parse_rejects(self, bad):
        with pytest.raises(InputError):
            LaurentPoly.parse(bad)

    def test_parse_rejects_oversized_exponent(self):
        with pytest.raises(InputError, match="too long"):
            LaurentPoly.parse("lam^" + LONG_DIGITS)

    @pytest.mark.parametrize(
        "template",
        ["{}*lam + 1", "lam - 1/{}", "2*lam^{}", "2*lam^-{}"],
        ids=["numerator", "denominator", "lam_power", "negative_lam_power"],
    )
    def test_parse_names_the_oversized_literal(self, template):
        with pytest.raises(InputError) as caught:
            LaurentPoly.parse(template.format(LONG_DIGITS))
        assert str(caught.value) == "integer literal of 4301 digits is too long"

    def test_theta(self):
        p = LaurentPoly({3: 5, 0: 7, -2: 1})
        assert p.theta() == LaurentPoly({3: 15, -2: -2})

    def test_mul(self):
        p = LaurentPoly({-2: -4, 0: 1})
        q = LaurentPoly({2: 1})
        assert p * q == LaurentPoly({0: -4, 2: 1})
        assert p * F(1, 2) == LaurentPoly({-2: -2, 0: F(1, 2)})

    def test_zero_pruning(self):
        assert LaurentPoly({5: 0}).is_zero()
        assert (LaurentPoly({1: 1}) - LaurentPoly({1: 1})).is_zero()

    @given(polys(LaurentPoly, -4) | polys(LogPoly, 0))
    def test_str_parse_round_trip(self, p):
        assert type(p).parse(str(p)) == p

    @given(
        st.dictionaries(st.integers(min_value=-3, max_value=3), small_fraction, max_size=4),
        st.dictionaries(st.integers(min_value=-3, max_value=3), small_fraction, max_size=4),
    )
    def test_theta_is_a_derivation(self, t1, t2):
        p, q = LaurentPoly(t1), LaurentPoly(t2)
        assert (p * q).theta() == p.theta() * q + p * q.theta()


@given(st.sampled_from([LaurentPoly, LogPoly]), small_fraction)
def test_constant_hashes_as_its_value(cls, c):
    # zero included: small_fraction draws 0
    p = cls.const(c)
    assert hash(p) == hash(p.coefficient(0))
    assert len({p, p.coefficient(0)}) == 1


# Few values, so that equal ones meet often: numbers, constants and
# non-constant polynomials of both classes.
tiny_value = st.sampled_from([F(0), F(1), F(-1), F(1, 2)])
comparable = st.one_of(
    st.integers(min_value=-1, max_value=1),
    tiny_value,
    *(tiny_value.map(cls.const) for cls in (LaurentPoly, LogPoly)),
    *(
        st.dictionaries(st.integers(min_value=0, max_value=2), tiny_value, max_size=2).map(cls)
        for cls in (LaurentPoly, LogPoly)
    ),
)


class TestEqualityAcrossClasses:
    @example(LogPoly.const(1), 1, LaurentPoly.const(1))
    @given(comparable, comparable, comparable)
    def test_transitive_and_hash_consistent(self, x, y, z):
        if x == y and y == z:
            assert x == z
        for a, b in ((x, y), (y, z), (x, z)):
            if a == b:
                assert hash(a) == hash(b)

    @example(([1, LogPoly.const(1), LaurentPoly.const(1)], [LogPoly.const(1), LaurentPoly.const(1), 1]))
    @given(st.lists(comparable, max_size=6).flatmap(lambda xs: st.tuples(st.just(xs), st.permutations(xs))))
    def test_set_size_ignores_insertion_order(self, pair):
        xs, shuffled = pair
        assert len(set(xs)) == len(set(shuffled))


same_type_pair = st.tuples(polys(LaurentPoly, -4), polys(LaurentPoly, -4)) | st.tuples(
    polys(LogPoly, 0), polys(LogPoly, 0)
)


class TestTrustedConstructor:
    # A lam^1 term: theta multiplies its coefficient by the int 1, which must
    # still leave a Fraction.
    @example((LaurentPoly({1: 2, -1: F(1, 2)}), LaurentPoly({1: -2})), F(3))
    @given(same_type_pair, small_fraction)
    def test_results_hold_only_nonzero_fractions(self, pair, c):
        p, q = pair
        results = [p + q, p - q, -p, p * q, p.scale(c), p.theta()]
        if type(p) is LogPoly:
            results.append(p.deriv())
        for r in results:
            assert type(r) is type(p)
            assert all(type(e) is int for e in r.terms)
            assert all(type(v) is F and v != 0 for v in r.terms.values())


class TestMatrixFrozen:
    def test_det_golden(self):
        assert det_cofactor(TILDE_A) == 16  # oracle
        assert det(RatMatrix(TILDE_A)) == 16
        assert det_cofactor(TILDE_B) == -16
        assert det(RatMatrix(TILDE_B)) == -16

    def test_inverse_last_row_golden(self):
        inv = invert(RatMatrix(TILDE_A))
        assert inv.row(3) == (F(-2), F(1, 2), F(1, 2), F(1))
        assert tuple(inverse_adjugate(TILDE_A)[3]) == inv.row(3)
        inv_b = invert(RatMatrix(TILDE_B))
        assert inv_b.row(3) == (F(2), F(-1, 4), F(-1, 4), F(-1))
        assert tuple(inverse_adjugate(TILDE_B)[3]) == inv_b.row(3)

    def test_inverse_golden(self):
        # every row, so every term of the back substitution counts
        for rows in (TILDE_A, TILDE_B):
            assert invert(RatMatrix(rows)) == RatMatrix(inverse_adjugate(rows))

    def test_solve_basis_expansions(self):
        m_prime_a = RatMatrix([[4, 0, 0], [0, 4, 0], [0, 0, 2]])
        assert solve(m_prime_a, [2, 2, 1]) == [F(1, 2), F(1, 2), F(1, 2)]
        m_prime_b = RatMatrix([[4, 0, 0], [0, 4, 0], [1, 1, 2]])
        assert solve(m_prime_b, [2, 2, 0]) == [F(1, 2), F(1, 2), F(-1, 2)]

    def test_rank_quasi_homogeneous(self):
        cube = RatMatrix([[1, 1, 1, 1], [3, 0, 0, 1], [0, 3, 0, 1], [0, 0, 3, 1]])
        assert rank(cube) == 3
        assert det(cube) == 0

    def test_rank_rectangular(self):
        assert rank(RatMatrix([[1, 2, 3], [2, 4, 6]])) == 1
        assert rank(RatMatrix([[1, 0], [0, 1], [1, 1]])) == 2


class TestMatrixErrors:
    def test_ragged(self):
        with pytest.raises(DimensionError):
            RatMatrix([[1, 2], [3]])

    def test_empty(self):
        with pytest.raises(DimensionError):
            RatMatrix([])

    def test_det_non_square(self):
        with pytest.raises(DimensionError):
            det(RatMatrix([[1, 2, 3], [4, 5, 6]]))

    def test_invert_singular(self):
        singular = RatMatrix([[1, 2], [2, 4]])
        with pytest.raises(SingularMatrixError):
            invert(singular)
        with pytest.raises(SingularMatrixError):
            solve(singular, [1, 1])

    def test_solve_length_mismatch(self):
        with pytest.raises(DimensionError):
            solve(RatMatrix([[1, 0], [0, 1]]), [1, 2, 3])


class TestMatrixProperties:
    @given(st.integers(min_value=1, max_value=4).flatmap(square_matrix))
    def test_det_matches_cofactor_oracle(self, m):
        assert det(m) == det_cofactor([list(row) for row in m.rows()])

    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda n: st.tuples(square_matrix(n), square_matrix(n))
        )
    )
    def test_det_multiplicative(self, pair):
        m1, m2 = pair
        assert det(m1 @ m2) == det(m1) * det(m2)

    @given(st.integers(min_value=1, max_value=4).flatmap(square_matrix))
    def test_inverse_times_matrix(self, m):
        if det(m) == 0:
            with pytest.raises(SingularMatrixError):
                invert(m)
            return
        inv = invert(m)
        assert inv @ m == RatMatrix.identity(m.nrows)
        assert m @ inv == RatMatrix.identity(m.nrows)

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.tuples(
                square_matrix(n),
                st.lists(matrix_entry, min_size=n, max_size=n),
            )
        )
    )
    def test_solve_substitutes(self, pair):
        m, rhs = pair
        if det(m) == 0:
            with pytest.raises(SingularMatrixError):
                solve(m, rhs)
            return
        x = solve(m, rhs)
        assert m.apply(x) == [F(v) for v in rhs]

    @given(st.integers(min_value=1, max_value=4).flatmap(square_matrix))
    def test_rank_full_iff_nonsingular(self, m):
        assert (rank(m) == m.nrows) == (det(m) != 0)

    @given(rectangular_matrix())
    def test_rank_matches_sympy(self, m):
        sympy = pytest.importorskip("sympy")
        oracle = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.rows()]
        )
        assert rank(m) == oracle.rank()


def gauss_jordan(rows, width):
    """Oracle: plain Fraction Gauss-Jordan on the first width columns.

    Returns the rank, the determinant of those columns when there are as
    many rows (0 when they are singular) and the reduced rows, each pivot
    scaled to 1 and cleared above and below.
    """
    work = [[F(x) for x in row] for row in rows]
    rk, det_value = 0, F(1)
    for col in range(width):
        pivot = next((r for r in range(rk, len(work)) if work[r][col]), None)
        if pivot is None:
            det_value = F(0)
            continue
        if pivot != rk:
            work[rk], work[pivot] = work[pivot], work[rk]
            det_value = -det_value
        p = work[rk][col]
        det_value *= p
        work[rk] = [x / p for x in work[rk]]
        for r in range(len(work)):
            f = work[r][col]
            if r != rk and f:
                work[r] = [x - f * y for x, y in zip(work[r], work[rk])]
        rk += 1
    return rk, det_value, work


def oracle_solve_square(rows, n):
    """(rank A, det A, columns of det A * A^-1 B) of [A | B] by the oracle; (rank, 0, None) when singular."""
    rk, det_value, work = gauss_jordan(rows, n)
    if rk < n:
        return rk, 0, None
    return rk, det_value, [[det_value * work[i][c] for i in range(n)] for c in range(n, len(rows[0]))]


# Integer and rational entries, the rationals built from drawn integers.
system_entry = st.integers(min_value=-9, max_value=9) | st.builds(
    F, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=6)
)


def entry_rows(nrows, ncols):
    return st.lists(st.lists(system_entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)


@st.composite
def augmented_systems(draw):
    """Rows of [A | B] and n, for square A of size 1..7 and 0..4 columns of B.

    A is drawn directly or, for a cap k < n, as an (n x k) @ (k x n)
    product, so that singular and rank-deficient A come often.
    """
    n = draw(st.integers(min_value=1, max_value=7))
    k = draw(st.integers(min_value=1, max_value=n))
    if k == n:
        a = draw(entry_rows(n, n))
    else:
        left, right = draw(entry_rows(n, k)), draw(entry_rows(k, n))
        a = [[sum((F(x) * y for x, y in zip(row, col)), F(0)) for col in zip(*right)] for row in left]
    b = draw(entry_rows(n, draw(st.integers(min_value=0, max_value=4))))
    return [list(ra) + rb for ra, rb in zip(a, b)], n


class TestEliminationOracle:
    """The one kernel: forward elimination and exact back substitution."""

    @given(augmented_systems())
    @example(([[0, 1, 5], [1, 0, 6]], 2))  # a row swap at the first pivot
    @example(([[1, 2], [2, 4]], 2))  # singular, no B
    @example(([[2, 0, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0]], 3))  # a zero row of A
    def test_solve_square_matches_fraction_gauss_jordan(self, system):
        rows, n = system
        int_rows = _integer_rows(rows)[1]
        assert _solve_square(int_rows, n) == oracle_solve_square(int_rows, n)

    @given(augmented_systems())
    def test_solve_square_matches_sympy(self, system):
        sympy = pytest.importorskip("sympy")
        rows, n = system
        int_rows = _integer_rows(rows)[1]
        a = sympy.Matrix([row[:n] for row in int_rows])
        b = sympy.Matrix(n, len(int_rows[0]) - n, lambda i, j: int_rows[i][n + j])
        rk, d, columns = _solve_square(int_rows, n)
        assert (rk, d) == (a.rank(), a.det())
        if d == 0:
            assert columns is None
        else:
            x = a.inv() * b * d
            assert columns == [list(x[:, c]) for c in range(x.cols)]

    @given(augmented_systems())
    def test_public_functions_match_oracle(self, system):
        rows, n = system
        m = RatMatrix([row[:n] for row in rows])
        rk, det_value, _ = gauss_jordan(m.rows(), n)
        assert (rank(m), det(m)) == (rk, det_value)
        if rk == n:
            assert invert(m) @ m == RatMatrix.identity(n)
            rhs = [row[-1] for row in rows]
            reduced = gauss_jordan([row[:n] + [v] for row, v in zip(rows, rhs)], n)[2]
            assert solve(m, rhs) == [row[n] for row in reduced]

    @given(
        st.tuples(*[st.integers(min_value=1, max_value=7)] * 3).flatmap(
            lambda shape: st.tuples(
                entry_rows(shape[0], shape[1]), entry_rows(shape[0], shape[2]), entry_rows(shape[2], shape[1])
            )
        )
    )
    def test_rank_rectangular_matches_oracle(self, triple):
        # a drawn matrix, and a product through k columns, of rank at most k
        rows, left, right = triple
        for m in (RatMatrix(rows), RatMatrix(left) @ RatMatrix(right)):
            assert rank(m) == gauss_jordan(m.rows(), m.ncols)[0]
