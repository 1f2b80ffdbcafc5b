"""Normally ordered elements of the algebra generated by a and b.

The two generators satisfy a*b - b*a = b^2 (the Jordan plane).  Every element
is a sum of terms c * lam^e * a^i * b^j with all a factors on the left and c
rational, stored flat as integer numerators over one shared denominator:
one map (i, j, e) -> n with n a nonzero int, and one int den >= 1, so the
coefficient of the term is n/den.  The form is canonical: gcd(den, every n)
is 1, and the zero element is the empty map over 1.  Equal elements
therefore have equal maps and denominators.  Grouped by (i, j), the terms
give the Laurent polynomial coefficients in lam.

Normal ordering has a closed form: from b^j * a = (a - j*b) * b^j,
induction on k gives

    b^j * a^k = sum_t (-1)^t C(k,t) j(j+1)...(j+t-1) a^(k-t) * b^(j+t)

for t = 0..k, so the product of two normal monomials is

    (a^i * b^j) * (a^k * b^l) = sum_t (-1)^t C(k,t) j(j+1)...(j+t-1) a^(i+k-t) * b^(j+t+l)

with the lam exponents added.  On a whole row, the terms of one total degree
d and lam exponent, one b is a single backward pass: with g the row's
numerators indexed by the a power,

    b * sum_k g_k a^k b^(d-k) = sum_p T(g)_p a^p b^(d+1-p),    T(g)_p = g_p - (p+1)*T(g)_(p+1),

from the row's largest a power down (b*a = a*b - b^2 is T of g = (0, 1)).
So b^j times a row is T^j of it, and a^i*b^j times it is T^j(g) with every a
power raised by i.  Both rules multiply only by integers, so the product runs
on the numerators over the product of the two denominators.  It is the
general product: ``scale`` and ``times_a`` multiply by a degree-0 element and
by a, and conjugation by b is b * x with every b power lowered by one.

``ABElement.__mul__`` groups the right operand's terms by (degree, lam
exponent) once and loops over the groups outside, the left terms inside.
Each group's state is local to its pass: its span, the group's largest a
power + 1, emitted, the sum of k + 1 over its terms, which is the number of
terms the closed rule emits for it, and its T powers.  For each group and
left term c*lam^e*a^i*b^j, one comparison picks one of two rules:

- 0 < j * span <= emitted: T^j of the group's dense row g.  g is made once
  per group, on its first T pass, and T(g), T^2(g), ... once each, on first
  use, then reused for every later left term; so the dense row, its j
  passes and the span values added cost at most three times the closed
  rule's terms;
- otherwise the closed rule, term by term.  At j = 0 its terms past t = 0
  carry the factor j = 0, so it adds only the t = 0 term, a shift of the
  group's a powers by i.  Past emitted, j passes would cost more than the
  terms it emits: b^(10^9)*a emits two terms, where 10^9 passes would
  never end.

A dense list is sized by its group's span, never by its degree, and made
only when a T pass needs it: a product whose left terms all have j = 0
never reads one, and a sparse group's span can be huge, as a^(10^9) times
a^(10^9)*b^2 would ask for 10^9 + 1 entries to shift one term.

Every term emitted for one left term and group has the same total degree
and lam exponent, so the product sums into accumulator rows keyed by
(degree, lam exponent), each a dict from the a power to its numerator:
inside a row the a power fixes the b power, so the inner loop hashes one
small int instead of an (i, j, e) tuple.  An accumulator row is a dict, not
a list, because it is sparse: a^(10^9) times a^(10^9)*b^2 fills one entry of
a row of degree 2*10^9 + 2.  The product flattens the rows back into the
flat map once per result, dropping zero numerators in the same pass, and
``_make`` divides out the gcd with the denominator only when it is not 1.

Every result is made by one of two trusted constructors.  ``_make`` takes
a map of int numerators over an int denominator: it rebuilds the map only
when one scan of its values finds a zero, and divides out the gcd with the
denominator.  ``_linear`` makes a factor (na*a + nb*b)/den with one gcd of
its own.  Sums go through one helper, ``_plus``, which adds factor times a
stream of (key, numerator) pairs into an element over the lcm of the two
denominators and ends in ``_make``: ``__add__`` passes the other element's
terms, and the callers outside this module that add a part with its own key
change and factor pass that part, so none of them computes an lcm.

``linear_factor_product`` uses a two-term case of the closed rule instead,
in one pass on the flat map (rows measured no faster there), and is tested
against the general product:

    a^i*b^j * a = a^(i+1)*b^j - j*a^i*b^(j+1)

``connection.push_nabla`` runs its own T pass on each row of Q, one degree
up, and ``connection.push_nabla_via_shift`` reaches the same recurrence
through this product's, as b*R; its (-sigma*a)*Q is a shift that it passes
to ``_plus`` one a power up.  The two lam*nabla routes keep separate loops
rather than one shared T helper: criterion 7 compares them, and a slip in a
shared helper would move both routes alike and pass.  ``conj_b`` and the product are
push_nabla's independent route in the tests as well.  In the benchmark's
``operators`` op the product runs twice: the family operator times the
product of linear factors, and b*R.  ``FamilyResult.full_operator`` passes
its low part to ``_plus`` at its lam power, with its weight as the factor.

The module owns the text format of elements: ``__str__`` writes it and
``parse`` reads exactly the text ``__str__`` writes, in this grammar:

    element := ["-"] term (sep term)*             sep  := " + " | " - "
    term    := coeff ["*" mono] | mono | "(" lamsum ")" ["*" mono]
    mono    := "a" [pow] ["*b" [pow]] | "b" [pow]
    lamsum  := ["-"] lamterm (sep lamterm)*
    lamterm := coeff ["*lam" [zpow]] | "lam" [zpow]
    coeff   := nat ["/" nat]    pow := "^" nat    zpow := "^" ["-"] nat    nat := [0-9]+

The grammar does not ask for canonical text: fractions need not be reduced,
a monomial may repeat and terms may come in any order; like terms are
summed.  ``parse`` reads one term per match of ``_TERM_RE``, whose groups
hold the coefficient's one term: the numerator and denominator of a
rational, or the sign, parts, lam and exponent of a lam sum's first term.
Only the further terms of a longer lam sum, held whole in one group, are
read by ``_LAM_TERM_RE``.  Every (i, j, e) key goes with its numerator and
denominator over one denominator into ``_make``.

A fault is reported by one rule, the leftmost fault wins: terms are read from
the left, and the first term that fails decides.  A term outside the grammar
raises ``unexpected {rest!r} in algebra element: {text!r}``, where rest is
the text from its separator on, cut at 20 characters (``empty algebra
element`` for the empty text); a term in the grammar fails at its leftmost
literal that is a zero denominator (``zero denominator: 'p/q'``) or longer
than Python's int/str conversion limit (``integer literal of N digits is too
long``).  The reference reader in the tests holds ``parse`` to the grammar
and the rule.

``__str__`` sorts the flat keys once by (-(i+j), -i, e), so each (i, j) is
one run of ascending lam exponents, reduces each term's n/den with one gcd
and writes every piece into one list that it joins once.  A run of one
term with no lam, a rational coefficient, is written bare on its own path;
only a coefficient with lam or with more than one term enters the loop
that writes a parenthesized lam sum.  It writes the grammar itself rather
than through ``exact.term_text`` and ``exact.join_signed``, and the fuzz
tests hold it to those writers.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ContractError, InputError
from .exact import LaurentPoly, check_coefficient, check_int, parse_rat

Key = tuple[int, int]
FlatKey = tuple[int, int, int]
RowKey = tuple[int, int]  # (total degree, lam exponent)
Rows = dict[RowKey, dict[int, int]]  # row -> a power -> numerator

_RAT = "[0-9]+(?:/[0-9]+)?"
_LAM_TERM = rf"(?:{_RAT}(?:\*lam(?:\^-?[0-9]+)?)?|lam(?:\^-?[0-9]+)?)"
# One term of the grammar at pos, with its separator: 1 the separator, 2 the
# coefficient, a rational or a parenthesized lam sum, 3 the "(" or "(-" that
# opens a lam sum, 4 and 5 the numerator and denominator of the rational or of
# the lam sum's first term, 6 and 7 that term's lam and its exponent, 8 the lam
# sum's further terms, 9 and 10 a and its power, 11 and 12 b and its power.  A
# "*" stands between two parts, and the match is the separator alone when no
# term follows it.  The look-ahead after the optional "(" asks for a digit or
# an l, so that no coefficient is empty; lam is read only where group 3 opened
# a lam sum.
_TERM_RE = re.compile(
    r"(^-?| [-+] )((\(-?)?(?=[0-9l])(?:([0-9]+)(?:/([0-9]+))?)?"
    rf"(?(3)(?:(?(4)\*)(lam)(?:\^(-?[0-9]+))?)?((?: [-+] {_LAM_TERM})*)\)))?"
    r"(?:(?(2)\*)(?=[ab])(?:(a)(?:\^([0-9]+))?)?(?:(?(9)\*)(b)(?:\^([0-9]+))?)?)?"
)
# One further lam term of a lam sum, in group 8 of _TERM_RE: its separator, the
# numerator and denominator, lam and its exponent.
_LAM_TERM_RE = re.compile(r"( [-+] )(?:([0-9]+)(?:/([0-9]+))?)?\*?(lam)?(?:\^(-?[0-9]+))?")
_LITERAL_RE = re.compile(_RAT)


class ABElement:
    """Finite sum of c * lam^e * a^i * b^j terms, held as ``_terms[(i, j, e)] / _den``.

    Every value of ``_terms`` is a nonzero int, ``_den`` is a positive int
    and gcd(_den, *values) is 1.  ``__init__`` and ``monomial`` validate int,
    Fraction or LaurentPoly coefficients; only ``terms`` builds Fractions.
    Two constructors trust their input: ``_make`` builds every arithmetic
    result, the product's flattened rows and ``_plus``'s sums included, and
    ``_linear`` every factor (na*a + nb*b)/den from int numerators, with one
    gcd of its own.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[Key, LaurentPoly | Fraction | int] | None = None):
        parts = []
        for key, coeff in (terms or {}).items():
            if not isinstance(key, tuple) or len(key) != 2:
                raise InputError(f"key must be an (i, j) pair of generator powers, got {key!r}")
            i, j = (check_int(x, "generator power", 0) for x in key)
            by_exp = coeff._terms.items() if type(coeff) is LaurentPoly else [(0, check_coefficient(coeff))]
            parts += [((i, j, e), c.numerator, c.denominator) for e, c in by_exp]
        made = ABElement._make(*over_one_denominator(parts))
        self._terms, self._den = made._terms, made._den

    @classmethod
    def _make(cls, nums: dict[FlatKey, int], den: int) -> "ABElement":
        """Trusted constructor: (i, j, e) int keys, i, j >= 0, int values over den >= 1.

        Drops zero numerators, rebuilding nums only when one scan finds a zero, and
        divides out their gcd with den; nums is kept when neither changes it.
        """
        if 0 in nums.values():
            nums = {k: n for k, n in nums.items() if n}
        x = object.__new__(cls)
        if den != 1:
            g = math.gcd(den, *nums.values())
            if g != 1:
                nums = {k: n // g for k, n in nums.items()}
                den //= g
        x._terms = nums
        x._den = den
        return x

    @classmethod
    def zero(cls) -> "ABElement":
        return cls()

    @classmethod
    def _linear(cls, na: int, nb: int, den: int) -> "ABElement":
        """Trusted (na*a + nb*b) / den from int numerators over an int den >= 1,
        reduced with one gcd of all three; a zero numerator leaves out its term."""
        g = math.gcd(na, nb, den)
        if g != 1:
            na, nb, den = na // g, nb // g, den // g
        nums = {}
        if na:
            nums[(1, 0, 0)] = na
        if nb:
            nums[(0, 1, 0)] = nb
        x = object.__new__(cls)
        x._terms = nums
        x._den = den
        return x

    @classmethod
    def one(cls) -> "ABElement":
        return cls._make({(0, 0, 0): 1}, 1)

    @classmethod
    def gen_a(cls) -> "ABElement":
        return cls._make({(1, 0, 0): 1}, 1)

    @classmethod
    def gen_b(cls) -> "ABElement":
        return cls._make({(0, 1, 0): 1}, 1)

    @classmethod
    def monomial(cls, i: int, j: int, coeff: LaurentPoly | Fraction | int = 1) -> "ABElement":
        return cls({(i, j): coeff})

    @property
    def terms(self) -> dict[Key, LaurentPoly]:
        """The coefficient of each a^i*b^j as a polynomial in lam, keyed by (i, j).

        Each numerator becomes its nonzero Fraction over ``_den`` in one pass,
        grouped by (i, j), and each group is adopted uncopied.
        """
        grouped: dict[Key, dict[int, Fraction]] = {}
        for (i, j, e), n in self._terms.items():
            grouped.setdefault((i, j), {})[e] = Fraction(n, self._den)
        return {k: LaurentPoly._adopt(group) for k, group in grouped.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree in a, b; the zero element has degree -1 by convention."""
        return max((i + j for i, j, _ in self._terms), default=-1)

    def map_coefficients(self, fn) -> "ABElement":
        return ABElement({k: fn(c) for k, c in self.terms.items()})

    def theta(self) -> "ABElement":
        """lam * d/dlam on every coefficient: each numerator times its lam exponent."""
        return ABElement._make({k: k[2] * n for k, n in self._terms.items()}, self._den)

    def __add__(self, other: "ABElement") -> "ABElement":
        if not isinstance(other, ABElement):
            return NotImplemented
        return self._plus(other._terms.items(), other._den)

    def _plus(self, terms: Iterable[tuple[FlatKey, int]], den: int, factor: int = 1) -> "ABElement":
        """self + factor * the (key, numerator) pairs of terms over den >= 1, summed over the lcm of
        the two denominators and made by ``_make``; terms may repeat a key."""
        d1 = self._den
        out_den = d1 if d1 == den else math.lcm(d1, den)
        m1, m2 = out_den // d1, factor * (out_den // den)
        out = dict(self._terms) if m1 == 1 else {k: m1 * n for k, n in self._terms.items()}
        for k, n in terms:
            n *= m2
            out[k] = out[k] + n if k in out else n
        return ABElement._make(out, out_den)

    def __sub__(self, other: "ABElement") -> "ABElement":
        return self + (-other)

    def __neg__(self) -> "ABElement":
        return ABElement._make({k: -n for k, n in self._terms.items()}, self._den)

    def scale(self, c: LaurentPoly | Fraction | int) -> "ABElement":
        return self * ABElement.monomial(0, 0, c)

    def times_a(self) -> "ABElement":
        return self * ABElement.gen_a()

    def __mul__(self, other: "ABElement") -> "ABElement":
        if not isinstance(other, ABElement):
            return NotImplemented
        # other's terms as maps k -> numerator by (degree, lam exponent): l is the degree minus k
        right: dict[RowKey, dict[int, int]] = {}
        for (k, l, e2), c2 in other._terms.items():
            right.setdefault((k + l, e2), {})[k] = c2
        rows: Rows = {}
        for (d2, e2), group in right.items():
            # the group's span (largest a power + 1), the number of terms the closed rule emits
            # for it, and its T powers [g, T(g), T^2(g), ...]: g, its dense row, is made on its
            # first T pass, and each power on first use
            span, emitted, powers = max(group) + 1, sum(group) + len(group), []
            for (i, j, e1), c1 in self._terms.items():
                key = (i + j + d2, e1 + e2)
                row = rows.get(key)
                if row is None:
                    row = rows[key] = {}
                # T^j when 0 < j * span <= emitted: a left term with j = 0 is a shift, which the
                # closed rule makes with no dense row, and past emitted j passes of T would cost
                # more than the terms the closed rule emits
                if 0 < j * span <= emitted:
                    # b^j times the group is T^j of its dense row, added at a powers i..i+span-1;
                    # the flattening below drops a zero that lands in the row
                    if not powers:
                        powers.append([0] * span)
                        for k, c2 in group.items():
                            powers[0][k] = c2
                    while len(powers) <= j:
                        acc, h, t = 0, powers[-1], [0] * span
                        for p in range(span - 1, -1, -1):
                            acc = h[p] - (p + 1) * acc
                            t[p] = acc
                        powers.append(t)
                    for p, v in enumerate(powers[j], i):
                        v *= c1
                        row[p] = row[p] + v if p in row else v
                    continue
                for k, c2 in group.items():
                    # v = c1*c2 * (-1)^t C(k,t) j(j+1)...(j+t-1) at a^(i+k-t); the division is
                    # exact, and at j = 0 every term past t = 0 is zero, so only the shift is added
                    v = c1 * c2
                    p = i + k
                    row[p] = row[p] + v if p in row else v
                    if j:
                        for t in range(k):
                            v = -v * (k - t) * (j + t) // (t + 1)
                            p -= 1
                            row[p] = row[p] + v if p in row else v
        # rows[(d, e)][i] is the numerator of lam^e*a^i*b^(d-i): flattened, its zeros dropped
        nums = {(i, d - i, e): n for (d, e), row in rows.items() for i, n in row.items() if n}
        return ABElement._make(nums, self._den * other._den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ABElement):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._terms.items())))

    def __str__(self) -> str:
        # One pass over the keys in print order: descending total degree, then
        # descending a power, then ascending lam exponent, so each (i, j) is one run.
        nums, den = self._terms, self._den
        keys = sorted(nums, key=lambda k: (-k[0] - k[1], -k[0], k[2]))
        out: list[str] = []
        count, start = len(keys), 0
        while start < count:
            i, j, e = keys[start]
            stop = start + 1
            while stop < count and keys[stop][0] == i and keys[stop][1] == j:
                stop += 1
            a_text = "" if i == 0 else "a" if i == 1 else f"a^{i}"
            b_text = "" if j == 0 else "b" if j == 1 else f"b^{j}"
            monomial = f"{a_text}*{b_text}" if a_text and b_text else a_text or b_text
            if e == 0 and stop == start + 1:
                # a rational coefficient: the term alone, its sign its separator
                n = nums[keys[start]]
                g = math.gcd(n, den)
                mag = str(abs(n) // g) if g == den else f"{abs(n) // g}/{den // g}"
                out.append((" - " if out else "-") if n < 0 else " + " if out else "")
                out.append(f"{mag}*{monomial}" if monomial and mag != "1" else monomial or mag)
                start = stop
                continue
            # A coefficient involving lam is always parenthesized so the term
            # boundary stays unambiguous; its sign lives inside the parentheses.
            out.append(" + (" if out else "(")
            for pos in range(start, stop):
                key = keys[pos]
                n = nums[key]
                g = math.gcd(n, den)
                mag = str(abs(n) // g) if g == den else f"{abs(n) // g}/{den // g}"
                lead = pos == start
                out.append(("-" if lead else " - ") if n < 0 else "" if lead else " + ")
                e = key[2]
                var = "" if e == 0 else "lam" if e == 1 else f"lam^{e}"
                out.append(f"{mag}*{var}" if var and mag != "1" else var or mag)
            out.append(f")*{monomial}" if monomial else ")")
            start = stop
        return "".join(out) or "0"

    def __repr__(self) -> str:
        return f"ABElement({self})"

    @classmethod
    def parse(cls, text: str) -> "ABElement":
        """Read text in the grammar of the module docstring, such as "a^2 - 7/2*a*b + (-4*lam^-2)*b^2"."""
        parts = []
        pos, end = 0, len(text)
        while True:
            m = _TERM_RE.match(text, pos)
            if m is None or m.end() == m.end(1):
                raise InputError(f"unexpected {text[pos:pos + 20]!r} in algebra element: {text!r}"
                                 if text else "empty algebra element")
            sep, _, lam_open, p, q, lam, e, more, a, i, b, j = m.groups()
            minus = "-" in sep
            try:
                i = (int(i) if i else 1) if a else 0
                j = (int(j) if j else 1) if b else 0
                # the coefficient's one term, or a lam sum's first, read from this match
                num = int(p) if p else 1
                den = int(q) if q else 1
                if not den:
                    raise ValueError  # parse_rat's rescan below words it
                e = int(e) if e else 1 if lam else 0
                parts.append(((i, j, e), -num if minus != (lam_open == "(-") else num, den))
                # a longer lam sum's further terms, each with its own separator
                for lam_sep, p, q, lam, e in _LAM_TERM_RE.findall(more) if more else ():
                    num = int(p) if p else 1
                    den = int(q) if q else 1
                    if not den:
                        raise ValueError
                    e = int(e) if e else 1 if lam else 0
                    parts.append(((i, j, e), -num if minus != (lam_sep == " - ") else num, den))
            except ValueError:
                # int() refused a literal past the conversion limit, or a denominator is 0:
                # parse_rat raises on the leftmost of the term's literals that holds a fault
                for literal in _LITERAL_RE.findall(m[0]):
                    parse_rat(literal)
            pos = m.end()
            if pos == end:
                return cls._make(*over_one_denominator(parts))


def over_one_denominator(parts: list[tuple[object, int, int]]) -> tuple[dict, int]:
    """Numerators by key over the lcm of the parts' denominators; cancelled keys keep a 0."""
    den = math.lcm(*(d for _, _, d in parts))
    nums: dict = {}
    for key, n, d in parts:
        nums[key] = nums.get(key, 0) + n * (den // d)
    return nums, den


def _flat(x: ABElement) -> dict[FlatKey, Fraction]:
    """x as its map (i, j, e) -> coefficient of lam^e*a^i*b^j, the form failure reports compare."""
    return {key: Fraction(n, x._den) for key, n in x._terms.items()}


def conj_b(x: ABElement) -> ABElement:
    """Conjugation by b: x -> b * x * b^(-1), the algebra map a -> a - b, b -> b.

    Computed as b * x with every b power lowered by one; each term of b * x
    has at least one b factor, so no inverse of b is ever materialized.  It
    preserves total degree and is invertible (send a to a + b).
    """
    bx = ABElement.gen_b() * x
    return ABElement._make({(i, j - 1, e): n for (i, j, e), n in bx._terms.items()}, bx._den)


def linear_factor_product(roots: Sequence[Fraction | int]) -> ABElement:
    """Left-to-right product of factors (a - root*b); the empty product is 1.

    From a^i*b^j*a = a^(i+1)*b^j - j*a^i*b^(j+1), each factor with root
    rn/rd right-multiplies the numerators in one pass: a term n*lam^e*a^i*b^j
    adds n*rd at (i+1, j, e) and -n*(j*rd + rn) at (i, j+1, e), and the
    denominator is multiplied by rd.  The result is reduced once, at the end.
    """
    nums: dict[FlatKey, int] = {(0, 0, 0): 1}
    den = 1
    for root in roots:
        check_coefficient(root)
        rn, rd = root.numerator, root.denominator
        out: dict[FlatKey, int] = {}
        for (i, j, e), n in nums.items():
            key = (i + 1, j, e)
            v = n * rd
            out[key] = out[key] + v if key in out else v
            key = (i, j + 1, e)
            v = -n * (j * rd + rn)
            out[key] = out[key] + v if key in out else v
        nums, den = out, den * rd
    return ABElement._make(nums, den)


def homogeneous_components(x: ABElement) -> list[tuple[int, ABElement]]:
    """Split into (degree, part) pairs, highest total degree first."""
    buckets: dict[int, dict[FlatKey, int]] = {}
    for key, n in x._terms.items():
        buckets.setdefault(key[0] + key[1], {})[key] = n
    return [
        (degree, ABElement._make(nums, x._den))
        for degree, nums in sorted(buckets.items(), reverse=True)
    ]


def shift_identity_check(q: ABElement, mu: Fraction | int) -> tuple[ABElement, ABElement]:
    """Both sides of conj_b(Q) * (a - mu*b) = (a - (mu+k)*b) * Q for Q of degree k.

    Q must be homogeneous; the zero element has k = 0.  Returns (left, right);
    the caller compares them.  They agree for every homogeneous Q, which is
    what makes the degree-indexed shift of the root work.
    """
    parts = homogeneous_components(q)
    if len(parts) > 1:
        raise ContractError(f"element mixes degrees {sorted(k for k, _ in parts)}")
    k = parts[0][0] if parts else 0
    a, b = ABElement.gen_a(), ABElement.gen_b()
    left = conj_b(q) * (a - b.scale(mu))
    right = (a - b.scale(mu + k)) * q
    return left, right
