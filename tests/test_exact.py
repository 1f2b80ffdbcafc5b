"""Exact scalars and matrices, checked against cofactor and adjugate oracles."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lamconn.asymptotics import LogPoly
from lamconn.errors import DimensionError, InputError, SingularMatrixError
from lamconn.exact import LaurentPoly, RatMatrix, check_int, det, invert, parse_rat, rank, solve

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

    @pytest.mark.parametrize("text", [LONG_DIGITS, "-" + LONG_DIGITS, "1/" + LONG_DIGITS])
    def test_parse_rejects_oversized_literal(self, text):
        with pytest.raises(InputError, match="too long"):
            parse_rat(text)

    @given(small_fraction)
    def test_round_trip(self, x):
        assert parse_rat(str(x)) == x


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
        with pytest.raises(SingularMatrixError) as info:
            invert(singular)
        assert info.value.det == 0
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
