"""Exact scalar arithmetic: rationals, Laurent polynomials in lam, rational matrices.

Every quantity in this package is an exact rational; floats are never
introduced.  Rationals are stdlib ``fractions.Fraction`` values, which already
guarantee a positive denominator, full reduction and a unique zero.

Every number from outside passes one gate, kept here and called by every
other module: ``check_int`` takes an int that is not a bool, at least a
given minimum, for counts, exponents and keys; ``check_coefficient`` takes
an int or a Fraction as a coefficient; ``json_rat`` takes a JSON integer or
a "p/q" string; ``parse_rat`` and ``parse_int`` read text.  A float, string
or bool given as a coefficient is a TypeError, and any other refusal is an
InputError.

Every failure report that compares two values finds where they differ
with one walk, ``first_difference``, over two mappings: each caller
flattens its own values into key -> number maps (an algebra element by
(i, j, e) through ``algebra._flat``, a log table by (i, k, m, e), a tuple
of rationals by name), and the walk returns the smallest differing key
with both values there.

``LaurentPoly`` is the package's one sparse polynomial in a single variable;
``asymptotics.LogPoly`` is the same type printed in L instead of lam.

Polynomials and algebra elements share one term grammar:

    sum    := signs term (signs term)*
    term   := factor ("*" signs factor)*
    factor := p[/q] | name[^int] | "(" sum ")", nested one level at most

where signs is a run of + and - that may be empty only at the start and
after "*", and whitespace is allowed between tokens.  ``read_terms`` reads
it on ints, each coefficient a (numerator, denominator) pair, and reads
each group in the same pass as a polynomial in lam, so a malformed group
is reported where it stands in the text.  It reads every literal with a
plain ``int()`` inside one ``try`` around its token loop; a literal past
Python's int/str conversion limit raises ``ValueError`` there, and the
handler names that literal through ``parse_int``.  ``power_text``,
``term_text`` and ``join_signed`` write the grammar (``ABElement.__str__``
writes the same text in one pass of its own).  Each parser checks its own
names and whether it takes groups.

Matrix determinant, rank, inverse and solution all come from one
fraction-free forward elimination on Python ints (``_eliminate``, Bareiss)
with exact divisions; ``_solve_square`` follows it with an exact integer
back substitution for det * A^-1 * B.  The RatMatrix functions scale the
rows to integers once, and ``det``, ``invert`` and ``solve`` build their
Fractions once at the end; an exponent layout is integral, so its
eliminations in ``exponents`` build no Fraction at all.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, Sequence

from .errors import DimensionError, InputError, SingularMatrixError

_ZERO = Fraction(0)
_RAT_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")
# One token of the term grammar after optional whitespace: an operator, p[/q],
# name[^int] or a parenthesized group without parentheses inside.
_TOKEN_RE = re.compile(r"\s*(?:([-+*])|((\d+)(?:/(\d+))?)|([^\W\d]\w*)(?:\^(-?\d+))?|\(([^()]*)\))")


def parse_int(digits: str) -> int:
    """int() of a digit string with an optional sign; one longer than Python's
    conversion limit is bad input, and its message counts the digits alone."""
    try:
        return int(digits)
    except ValueError:
        raise InputError(f"integer literal of {len(digits.lstrip('+-'))} digits is too long") from None


def parse_rat(text: str) -> Fraction:
    """Parse "p" or "p/q" with q > 0.  Anything else (floats included) is rejected."""
    m = _RAT_RE.match(text.strip())
    if m is None:
        raise InputError(f"not a rational literal: {text!r}")
    num = parse_int(m.group(1))
    den = parse_int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise InputError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def read_terms(text: str, what: str) -> list[tuple[tuple[int, int], list[tuple[str, int]], list[list[tuple[int, int, int]]]]]:
    """Read a sum in the term grammar into one ((num, den), powers, groups) per term.

    num/den is the signed product of the term's rational factors, as two
    ints with den > 0, not reduced; powers lists its name^int factors as
    (name, power) in text order.  groups holds each of its parentheses, read
    in the same pass as a polynomial in lam (``LaurentPoly._read``) into its
    (exponent, num, den) terms; a group that does not read raises its
    InputError there.  what names the expected value in error messages.
    Literals go through plain int(); a ValueError from one past the
    conversion limit becomes parse_int's InputError for that literal.
    """
    if not text.strip():
        raise InputError(f"empty {what}")
    terms = []
    num, den, powers, groups = 1, 1, [], []
    want_factor = True
    match = _TOKEN_RE.match
    pos, end = 0, len(text.rstrip())
    try:
        while pos < end:
            m = match(text, pos)
            if m is None or (m[1] == "*" if want_factor else m[1] is None):
                raise InputError(f"unexpected {text[pos:end].lstrip()[:20]!r} in {what}: {text!r}")
            pos = m.end()
            op, rat, p, q, name, power, group = m.groups()
            if op is None:
                want_factor = False
                if rat is not None:
                    num *= int(p)
                    if q:
                        den *= int(q)
                        if den == 0:
                            raise InputError(f"zero denominator: {rat!r}")
                elif name is not None:
                    powers.append((name, int(power) if power else 1))
                else:
                    groups.append(LaurentPoly._read(group))
            elif op == "*":
                want_factor = True
            elif not want_factor:
                terms.append(((num, den), powers, groups))
                num, den, powers, groups = 1 if op == "+" else -1, 1, [], []
                want_factor = True
            elif op == "-":
                num = -num
    except InputError:
        raise
    except ValueError:
        # int() refused a literal past the conversion limit: parse_int names the first one
        for literal in (p, q, power):
            if literal:
                parse_int(literal)
        raise
    if want_factor:
        raise InputError(f"dangling operator in {what}: {text!r}")
    terms.append(((num, den), powers, groups))
    return terms


def over_one_denominator(parts: list[tuple[object, int, int]]) -> tuple[dict, int]:
    """Numerators by key over the lcm of the parts' denominators; cancelled keys keep a 0."""
    den = math.lcm(*(d for _, _, d in parts))
    nums: dict = {}
    for key, n, d in parts:
        nums[key] = nums.get(key, 0) + n * (den // d)
    return nums, den


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
    treated as immutable.  ``VAR`` names the variable for printing and
    parsing: lam here, L in the subclass ``asymptotics.LogPoly``.  Arithmetic
    takes only an operand of exactly the same type (or an int or Fraction),
    so polynomials in different variables never mix.  Equality follows the
    same rule except for constants, which compare by value with numbers and
    with constants of either class.

    ``__init__``, ``const`` and ``lam_power`` validate what they are given;
    every arithmetic result is built by ``_make``, which trusts its input.
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
        """Trusted constructor: int exponents and Fraction values; only zeros are dropped."""
        poly = object.__new__(cls)
        poly._terms = {e: c for e, c in terms.items() if c}
        return poly

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

    def is_const(self) -> bool:
        return set(self._terms) <= {0}

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
        if type(other) is type(self):
            return self._terms == other._terms
        if isinstance(other, LaurentPoly):
            # Constants of either class equal their value, so they equal each other.
            return self.is_const() and other.is_const() and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self.is_const() and self.coefficient(0) == other
        return NotImplemented

    def __hash__(self) -> int:
        # A constant, zero included, equals its value, so it hashes as that value.
        if self.is_const():
            return hash(self.coefficient(0))
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        return join_signed(
            (c < 0, term_text(abs(c), power_text(self.VAR, e))) for e, c in sorted(self._terms.items())
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    @classmethod
    def _read(cls, text: str) -> list[tuple[int, int, int]]:
        """(exponent, num, den) per term of a text in VAR, like-exponent terms not merged."""
        what = f"polynomial in {cls.VAR}"
        terms = []
        for (n, d), powers, groups in read_terms(text, what):
            e = 0
            for name, power in powers:
                if name != cls.VAR:
                    break
                e += power
            else:
                if not groups:
                    terms.append((e, n, d))
                    continue
            raise InputError(f"only rationals and powers of {cls.VAR} may form a {what}: {text!r}")
        return terms

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse the serialized form, e.g. "-4*lam^-2 + 1" or "lam" (in L for LogPoly)."""
        nums, den = over_one_denominator(cls._read(text))
        return cls({e: Fraction(n, den) for e, n in nums.items()})


class RatMatrix:
    """Dense matrix of Fractions with exact elimination-based operations."""

    __slots__ = ("_rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable[Fraction | int]]):
        data = tuple(tuple(Fraction(check_coefficient(x)) for x in row) for row in rows)
        if not data or not data[0]:
            raise DimensionError("matrix must have at least one row and column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DimensionError("ragged rows in matrix")
        self._rows = data
        self.nrows = len(data)
        self.ncols = width

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[Fraction | int]]) -> "RatMatrix":
        height = len(cols[0])
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(height)])

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._rows[i]

    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.ncols != other.nrows:
            raise DimensionError("inner dimensions differ")
        return RatMatrix(
            [
                [
                    sum((self._rows[i][k] * other._rows[k][j] for k in range(self.ncols)), Fraction(0))
                    for j in range(other.ncols)
                ]
                for i in range(self.nrows)
            ]
        )

    def apply(self, vec: Sequence[Fraction | int]) -> list[Fraction]:
        if len(vec) != self.ncols:
            raise DimensionError("vector length does not match column count")
        v = [Fraction(check_coefficient(x)) for x in vec]
        return [sum((row[k] * v[k] for k in range(self.ncols)), Fraction(0)) for row in self._rows]

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._rows)
        return f"RatMatrix[{body}]"


def _integer_rows(rows: Iterable[Sequence[Fraction | int]]) -> tuple[int, list[list[int]]]:
    """Each row times the lcm of its denominators, and the product of those multipliers."""
    scale = 1
    out = []
    for row in rows:
        s = math.lcm(*(x.denominator for x in row))
        scale *= s
        out.append([x.numerator * (s // x.denominator) for x in row])
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
    """
    rk, d, upper = _eliminate(rows, n)
    if rk < n:
        return rk, 0, None
    columns = [[] for _ in upper[0][n:]]
    for i in range(n - 1, -1, -1):
        row = upper[i]
        u, right = row[i], row[i + 1 : n]
        for b, x in zip(row[n:], columns):
            # x holds X_(i+1), ..., X_(n-1) of this column
            x.insert(0, (d * b - sum(map(mul, right, x))) // u)
    return rk, d, columns


def det(m: RatMatrix) -> Fraction:
    """Determinant: the signed last pivot of the elimination over the row scales."""
    if not m.is_square():
        raise DimensionError("determinant needs a square matrix")
    scale, rows = _integer_rows(m.rows())
    return Fraction(_solve_square(rows, m.nrows)[1], scale)


def rank(m: RatMatrix) -> int:
    return _eliminate(_integer_rows(m.rows())[1], m.ncols)[0]


def invert(m: RatMatrix) -> RatMatrix:
    """Inverse by forward elimination and back substitution on [m | I]; raises
    SingularMatrixError when det = 0."""
    if not m.is_square():
        raise DimensionError("inverse needs a square matrix")
    n = m.nrows
    augmented = [r + tuple(int(i == j) for j in range(n)) for i, r in enumerate(m.rows())]
    _, pivot, columns = _solve_square(_integer_rows(augmented)[1], n)
    if columns is None:
        raise SingularMatrixError("matrix is singular")
    return RatMatrix.from_columns([[Fraction(x, pivot) for x in column] for column in columns])


def solve(m: RatMatrix, rhs: Sequence[Fraction | int]) -> list[Fraction]:
    """Solve m * x = rhs for square invertible m."""
    if not m.is_square():
        raise DimensionError("solve needs a square matrix")
    if len(rhs) != m.nrows:
        raise DimensionError("right-hand side length does not match")
    augmented = [r + (Fraction(check_coefficient(v)),) for r, v in zip(m.rows(), rhs)]
    _, pivot, columns = _solve_square(_integer_rows(augmented)[1], m.nrows)
    if columns is None:
        raise SingularMatrixError("matrix is singular")
    return [Fraction(x, pivot) for x in columns[0]]
