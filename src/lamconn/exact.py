"""Exact scalar arithmetic: rationals, Laurent polynomials in lam, rational matrices as rows.

Every quantity in this package is an exact rational; floats are never
introduced.  Rationals are stdlib ``fractions.Fraction`` values, which already
guarantee a positive denominator, full reduction and a unique zero.

``_fraction(n, d)`` is the package's one trusted Fraction constructor: for
ints n and d != 0 it divides out gcd(n, d), negated when d < 0, so the
denominator it writes is positive, and writes the reduced parts straight
into the two slots that Fraction keeps, ``_numerator`` and ``_denominator``.
It is the object ``Fraction(n, d)`` makes, without that constructor's type
and sign tests.  ``asymptotics._chain`` builds each expansion coefficient
with it; ``exponents.dependency`` builds sigma, ``det_identity_check`` the
predicted det M~ and the determinant route to sigma, ``connection.sigma_tau``
sigma and tau, ``SigmaTau`` the PDE coefficients alpha and beta, and
``families`` the roots of both families.

Every number from outside passes one gate, kept here and called by every
other module: ``check_int`` takes an int that is not a bool, at least a
given minimum, for counts, exponents and keys; ``check_coefficient`` takes
an int or a Fraction as a coefficient; ``json_rat`` takes a JSON integer or
a "p/q" string; ``parse_rat`` and ``parse_int`` read text.  A float, string
or bool given as a coefficient is a TypeError, and any other refusal is an
InputError.  ``parse_int`` is also the ``parse_int`` hook of the CLI's JSON
loader, so an integer literal too long for Python's int/str conversion is
refused in the same words whether it stands in a JSON number, a JSON string
or text.  ``json_object`` holds the one check of a JSON input's shape: an
object that has every required key.

Every failure report that compares two values finds where they differ
with one walk, ``first_difference``, over two mappings: each caller
flattens its own values into key -> number maps (an algebra element by
(i, j, e) through ``algebra._flat``, a log table by (i, k, m, e), a tuple
of rationals by name), and the walk returns the smallest differing key
with both values there.

``LaurentPoly`` is the package's one sparse polynomial in a single variable;
``asymptotics.LogPoly`` is the same type printed in L instead of lam.  Both
are printed, never read: no input the package takes holds one.

``power_text``, ``term_text`` and ``join_signed`` write the polynomials'
text; ``algebra`` owns the text format of algebra elements, which it reads
and writes itself.

Matrix determinant, rank, inverse and solution all come from one
fraction-free forward elimination on Python ints (``_eliminate``, Bareiss)
with exact divisions; ``_solve_square`` follows it with an exact integer
back substitution for det * A^-1 * B.  ``det``, ``rank``, ``invert`` and
``solve`` take a matrix as a sequence of rows of ints or Fractions, and one
gate, ``_integer_rows``, checks its shape and entries and scales each row to
integers.  ``det`` and ``_solve_augmented``, the one solve of [m | B] behind
``invert`` and ``solve``, build their Fractions once at the end; an exponent
layout is integral, so its eliminations in ``exponents`` build no Fraction
at all.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, Sequence

from .errors import DimensionError, InputError, SingularMatrixError

_ZERO = Fraction(0)
_RAT_RE = re.compile(r"^([+-]?[0-9]+)(?:/([0-9]+))?$")


def _fraction(n: int, d: int) -> Fraction:
    """Fraction(n, d) for ints n and d != 0, reduced with one gcd that carries
    the sign of d, and set in the two slots that Fraction keeps."""
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    c = object.__new__(Fraction)
    c._numerator = n // g
    c._denominator = d // g
    return c


def parse_int(digits: str) -> int:
    """int() of a digit string with an optional sign; one longer than Python's
    conversion limit is bad input, and its message counts the digits alone."""
    try:
        return int(digits)
    except ValueError:
        raise InputError(f"integer literal of {len(digits.lstrip('+-'))} digits is too long") from None


def parse_rat(text: str) -> Fraction:
    """Parse "p" or "p/q" in ASCII digits with q > 0.  Anything else (floats included) is rejected."""
    m = _RAT_RE.match(text.strip())
    if m is None:
        raise InputError(f"not a rational literal: {text!r}")
    num = parse_int(m.group(1))
    den = parse_int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise InputError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def first_difference(x: Mapping, y: Mapping) -> tuple | None:
    """The smallest key at which x and y differ, with the value of each there
    (a missing key counts as 0); None when they agree."""
    for key in sorted(x.keys() | y.keys()):
        vx, vy = x.get(key, 0), y.get(key, 0)
        if vx != vy:
            return key, vx, vy
    return None


def check_coefficient(c: Fraction | int) -> Fraction | int:
    """c itself if it is an int (not a bool) or a Fraction; anything else is a TypeError."""
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficient must be an int or a Fraction, got {c!r}")
    return c


_INT_KINDS = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}


def check_int(value: int, what: str, minimum: int | None = None) -> int:
    """value itself if it is an int (not a bool) of at least minimum (None, 0 or 1).

    Anything else is bad input; what names the value in the message.
    """
    if isinstance(value, bool) or not isinstance(value, int) or (minimum is not None and value < minimum):
        raise InputError(f"{what} must be {_INT_KINDS[minimum]}, got {value!r}")
    return value


def json_object(obj, what: str, keys: Iterable[str]) -> dict:
    """obj itself if it is a JSON object that holds every one of keys; what
    names the input in the message when it is not an object."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} input must be a JSON object")
    missing = set(keys) - set(obj)
    if missing:
        raise InputError(f"missing keys: {sorted(missing)}")
    return obj


def json_rat(value, what: str) -> Fraction:
    """A rational from JSON: an integer (not a bool) or a "p/q" string; anything else is bad input."""
    if isinstance(value, str):
        return parse_rat(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer or a 'p/q' string, got {value!r}")
    return Fraction(value)


def power_text(name: str, e: int) -> str:
    """name^e as text: "" for e = 0 and the bare name for e = 1."""
    return "" if e == 0 else name if e == 1 else f"{name}^{e}"


def term_text(mag: Fraction | str, monomial: str) -> str:
    """One term: "mag", "monomial" or "mag*monomial"; mag is a positive number
    (not printed when it is 1) or text: "p/q" or a parenthesized coefficient."""
    if not monomial:
        return str(mag)
    return monomial if mag == 1 else f"{mag}*{monomial}"


def join_signed(terms: Iterable[tuple[bool, str]]) -> str:
    """Join (negative, body) pairs as "-x + y - z"; no pairs at all give "0"."""
    chunks: list[str] = []
    for negative, body in terms:
        if chunks:
            chunks.append(" - " if negative else " + ")
        elif negative:
            chunks.append("-")
        chunks.append(body)
    return "".join(chunks) or "0"


class LaurentPoly:
    """Sparse polynomial in one variable, with integer exponents and Fraction coefficients.

    Stored as exponent -> coefficient with zero coefficients pruned, so
    equality of the term maps is equality of the polynomials.  Instances are
    treated as immutable.  ``VAR`` names the variable for printing: lam
    here, L in the subclass ``asymptotics.LogPoly``.  Arithmetic takes only
    an operand of exactly the same type (or an int or Fraction), so
    polynomials in different variables never mix; equality and hashing
    compare the term maps of two polynomials of the same type alone, so a
    polynomial equals no number and no polynomial of the other type.

    ``__init__``, ``const`` and ``lam_power`` validate what they are given;
    every arithmetic result is built by ``_make``, which trusts its input,
    drops its zeros and hands the rest to ``_adopt``, the one constructor
    that writes a polynomial's terms without checking them.
    """

    __slots__ = ("_terms",)

    VAR = "lam"

    def __init__(self, terms: Mapping[int, Fraction | int] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for e, c in terms.items():
                check_int(e, "exponent")
                if check_coefficient(c):
                    clean[e] = Fraction(c)
        self._terms = clean

    @classmethod
    def _make(cls, terms: dict[int, Fraction]) -> "LaurentPoly":
        """Trusted constructor: int exponents and Fraction values; the zeros are
        dropped, and ``_adopt`` keeps the new dict of the rest."""
        return cls._adopt({e: c for e, c in terms.items() if c})

    @classmethod
    def _adopt(cls, terms: dict[int, Fraction]) -> "LaurentPoly":
        """Trusted constructor that keeps terms itself, uncopied: int exponents and nonzero
        Fraction values, in a dict that its caller hands over and never touches again."""
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    @classmethod
    def const(cls, c: Fraction | int) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def lam_power(cls, e: int, c: Fraction | int = 1) -> "LaurentPoly":
        return cls({e: c})

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, e: int) -> Fraction:
        return self._terms.get(e, _ZERO)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out[e] + c if e in out else c
        return self._make(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return self._make({e: -c for e, c in self._terms.items()})

    def __mul__(self, other: "LaurentPoly | Fraction | int") -> "LaurentPoly":
        if type(other) is type(self):
            out: dict[int, Fraction] = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    e = e1 + e2
                    out[e] = out[e] + c1 * c2 if e in out else c1 * c2
            return self._make(out)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c: Fraction | int) -> "LaurentPoly":
        c = Fraction(check_coefficient(c))
        return self._make({e: v * c for e, v in self._terms.items()})

    def theta(self) -> "LaurentPoly":
        """Apply the Euler operator lam * d/dlam, i.e. lam^t -> t * lam^t."""
        return self._make({e: e * c for e, c in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        return join_signed(
            (c < 0, term_text(abs(c), power_text(self.VAR, e))) for e, c in sorted(self._terms.items())
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


def _integer_rows(rows: Sequence[Sequence[Fraction | int]], square: str | None = None) -> tuple[int, list[list[int]]]:
    """The one gate of the matrix functions: each row times the lcm of its
    denominators, and the product of those multipliers.

    A matrix has at least one row and column, rows of one length and entries
    that ``check_coefficient`` takes; square, when given, names the function
    that refuses a matrix that is not square.
    """
    if not rows or not rows[0]:
        raise DimensionError("matrix must have at least one row and column")
    width = len(rows[0])
    scale = 1
    out = []
    for row in rows:
        if len(row) != width:
            raise DimensionError("ragged rows in matrix")
        s = math.lcm(*(check_coefficient(x).denominator for x in row))
        scale *= s
        out.append([x.numerator * (s // x.denominator) for x in row])
    if square is not None and len(out) != width:
        raise DimensionError(f"{square} needs a square matrix")
    return scale, out


def _eliminate(rows: Iterable[Sequence[int]], width: int) -> tuple[int, int, list[Sequence[int]]]:
    """Fraction-free forward elimination of integer rows on the first width columns.

    Columns without a pivot are skipped.  Each pivot updates only the rows
    below it, each by (p * x - f * y) // prev, which divides by the previous
    pivot exactly because every entry stays a minor of the input matrix
    (Bareiss, Math. Comp. 22, 1968).  A row swap negates the row moved down,
    so the last pivot carries the sign: for a square matrix of full rank it
    is the determinant.  Returns the rank, the last pivot (1 when the rank is
    0) and the rows in echelon form: zero below each pivot.
    """
    work = list(rows)
    nrows = len(work)
    rk = 0
    prev = 1
    for col in range(width):
        for pivot in range(rk, nrows):
            if work[pivot][col]:
                break
        else:
            continue
        if pivot != rk:
            work[rk], work[pivot] = work[pivot], [-x for x in work[rk]]
        top = work[rk]
        p = top[col]
        for r in range(rk + 1, nrows):
            row = work[r]
            f = row[col]
            if f:
                work[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                work[r] = [p * x // prev for x in row]
        prev = p
        rk += 1
        if rk == nrows:
            break
    return rk, prev, work


def _solve_square(rows: Iterable[Sequence[int]], n: int) -> tuple[int, int, list[list[int]] | None]:
    """One elimination of the integer rows [A | B] for square A of size n,
    then exact back substitution.

    Returns rank A, det A and the columns of X = det A * A^-1 B, all
    integers; the columns are None and the determinant 0 when A is singular.
    The elimination leaves [U | B'] with U upper triangular, U = L A and
    B' = L B for one invertible L, so U X = det A * B'.  Each entry of X is
    an integer by Cramer's rule, so U_ii * X_i = det A * B'_i - sum over
    j > i of U_ij * X_j holds on integers and the division by U_ii is exact.
    Each column is a list of n zeros, filled in one pass from X_(n-1) down
    to X_0; the entries not yet filled are 0, so the sum runs over the
    whole of row i and takes no slice.
    """
    rk, d, upper = _eliminate(rows, n)
    if rk < n:
        return rk, 0, None
    columns = [[0] * n for _ in range(n, len(upper[0]))]
    for i in range(n - 1, -1, -1):
        row = upper[i]
        u = row[i]
        for c, x in enumerate(columns, n):
            # x holds X_(i+1), ..., X_(n-1) of this column and 0 up to X_i, and row i of U
            # is 0 left of U_ii, so the sum over the whole row is the sum over j > i
            x[i] = (d * row[c] - sum(map(mul, row, x))) // u
    return rk, d, columns


def det(rows: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """Determinant: the signed last pivot of the elimination over the row scales."""
    scale, m = _integer_rows(rows, "determinant")
    return Fraction(_solve_square(m, len(m))[1], scale)


def rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    m = _integer_rows(rows)[1]
    return _eliminate(m, len(m[0]))[0]


def _solve_augmented(rows: Sequence[Sequence[Fraction | int]], right: list[list]) -> list[list[Fraction]]:
    """The columns of m^-1 B, for m the square rows that the gate took and right
    the rows of B, from one elimination of [m | B], which the gate scales; raises
    SingularMatrixError when det m = 0."""
    augmented = [[*r, *b] for r, b in zip(rows, right)]
    _, pivot, columns = _solve_square(_integer_rows(augmented)[1], len(rows))
    if columns is None:
        raise SingularMatrixError("matrix is singular")
    return [[Fraction(x, pivot) for x in column] for column in columns]


def invert(rows: Sequence[Sequence[Fraction | int]]) -> tuple[tuple[Fraction, ...], ...]:
    """The rows of the inverse, by forward elimination and back substitution on
    [m | I]; raises SingularMatrixError when det = 0."""
    n = len(_integer_rows(rows, "inverse")[1])
    return tuple(zip(*_solve_augmented(rows, [[int(i == j) for j in range(n)] for i in range(n)])))


def solve(rows: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]) -> list[Fraction]:
    """Solve m * x = rhs for square invertible m."""
    if len(rhs) != len(_integer_rows(rows, "solve")[1]):
        raise DimensionError("right-hand side length does not match")
    return _solve_augmented(rows, [[v] for v in rhs])[0]
