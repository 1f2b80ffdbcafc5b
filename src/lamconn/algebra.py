"""Normally ordered elements of the algebra generated by a and b.

The two generators satisfy a*b - b*a = b^2 (the Jordan plane).  Every element
is kept as a sum of monomials a^i * b^j with all a factors on the left and
coefficients that are Laurent polynomials in lam.  Normal ordering has a
closed form: from b^j * a = (a - j*b) * b^j, induction on k gives

    b^j * a^k = sum_t (-1)^t C(k,t) j(j+1)...(j+t-1) a^(k-t) * b^(j+t)

for t = 0..k, so the product of two normal monomials is

    (a^i * b^j) * (a^k * b^l) = sum_t (-1)^t C(k,t) j(j+1)...(j+t-1) a^(i+k-t) * b^(j+t+l)

and ``ABElement.__mul__`` applies it once per pair of terms.  Conjugation by
b is the same product followed by lowering every b power by one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ContractError, InputError
from .exact import LaurentPoly, Rat, join_signed, parse_int, split_factors, split_terms

Key = tuple[int, int]

_GEN_RE = re.compile(r"^(a|b)(?:\^(\d+))?$")


class ABElement:
    """Finite sum of coefficient * a^i * b^j terms, zero coefficients pruned.

    ``__init__``, ``monomial``, ``map_coefficients`` and ``parse`` validate
    what they are given; every arithmetic result is built by ``_make``, which
    trusts its input.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Key, LaurentPoly | Rat | int] | None = None):
        clean: dict[Key, LaurentPoly] = {}
        if terms:
            for key, coeff in terms.items():
                i, j = key
                if i < 0 or j < 0:
                    raise InputError(f"negative generator power in key {key!r}")
                if type(coeff) is not LaurentPoly:
                    coeff = LaurentPoly.const(coeff)
                if not coeff.is_zero():
                    clean[(i, j)] = coeff
        self._terms = clean

    @classmethod
    def _make(cls, terms: dict[Key, LaurentPoly]) -> "ABElement":
        """Trusted constructor: nonnegative int keys, LaurentPoly values; only zeros are dropped."""
        x = object.__new__(cls)
        x._terms = {k: c for k, c in terms.items() if not c.is_zero()}
        return x

    @classmethod
    def zero(cls) -> "ABElement":
        return cls()

    @classmethod
    def one(cls) -> "ABElement":
        return cls({(0, 0): 1})

    @classmethod
    def gen_a(cls) -> "ABElement":
        return cls({(1, 0): 1})

    @classmethod
    def gen_b(cls) -> "ABElement":
        return cls({(0, 1): 1})

    @classmethod
    def monomial(cls, i: int, j: int, coeff: LaurentPoly | Rat | int = 1) -> "ABElement":
        return cls({(i, j): coeff})

    @property
    def terms(self) -> dict[Key, LaurentPoly]:
        return dict(self._terms)

    def coefficient(self, i: int, j: int) -> LaurentPoly:
        return self._terms.get((i, j), LaurentPoly.zero())

    def is_zero(self) -> bool:
        return not self._terms

    def support_degrees(self) -> set[int]:
        return {i + j for i, j in self._terms}

    def is_homogeneous(self) -> bool:
        return len(self.support_degrees()) <= 1

    def degree(self) -> int:
        """Total degree in a, b; the zero element has degree -1 by convention."""
        if not self._terms:
            return -1
        return max(i + j for i, j in self._terms)

    def map_coefficients(self, fn) -> "ABElement":
        return ABElement({k: fn(c) for k, c in self._terms.items()})

    def __add__(self, other: "ABElement") -> "ABElement":
        if not isinstance(other, ABElement):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            _accumulate(out, k, c)
        return ABElement._make(out)

    def __sub__(self, other: "ABElement") -> "ABElement":
        return self + (-other)

    def __neg__(self) -> "ABElement":
        return ABElement._make({k: -c for k, c in self._terms.items()})

    def scale(self, c: LaurentPoly | Rat | int) -> "ABElement":
        if type(c) is not LaurentPoly:
            c = LaurentPoly.const(c)
        return ABElement._make({k: v * c for k, v in self._terms.items()})

    def times_a(self) -> "ABElement":
        return self * ABElement.gen_a()

    def __mul__(self, other: "ABElement") -> "ABElement":
        if not isinstance(other, ABElement):
            return NotImplemented
        out: dict[Key, LaurentPoly] = {}
        for (i, j), c1 in self._terms.items():
            for (k, l), c2 in other._terms.items():
                c = c1 * c2
                # n = (-1)^t C(k,t) j(j+1)...(j+t-1); the division is exact
                # and n becomes 0 after t = 0 when j = 0.
                n = 1
                for t in range(k + 1):
                    _accumulate(out, (i + k - t, j + t + l), c if n == 1 else c.scale(n))
                    n = -n * (k - t) * (j + t) // (t + 1)
                    if not n:
                        break
        return ABElement._make(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ABElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        return join_signed(
            _term_text(self._terms[(i, j)], i, j)
            for i, j in sorted(self._terms, key=lambda k: (-(k[0] + k[1]), -k[0]))
        )

    def __repr__(self) -> str:
        return f"ABElement({self})"

    @classmethod
    def parse(cls, text: str) -> "ABElement":
        """Parse canonical text such as "a^2 - 7/2*a*b + (-4*lam^-2)*b^2"."""
        terms: dict[Key, LaurentPoly] = {}
        for sign, term in split_terms(text, "algebra element"):
            coeff = LaurentPoly.const(sign)
            a_pow = 0
            b_pow = 0
            seen_b = False
            for factor in split_factors(term):
                if factor.startswith("(") and factor.endswith(")"):
                    coeff = coeff * LaurentPoly.parse(factor[1:-1])
                    continue
                m = _GEN_RE.match(factor)
                if m is None:
                    lam_part = LaurentPoly.parse(factor)
                    coeff = coeff * lam_part
                    continue
                name, exp_s = m.group(1), m.group(2)
                exp = parse_int(exp_s) if exp_s is not None else 1
                if name == "a":
                    if seen_b:
                        raise InputError(f"a after b in {term!r}: text must be normally ordered")
                    a_pow += exp
                else:
                    seen_b = True
                    b_pow += exp
            _accumulate(terms, (a_pow, b_pow), coeff)
        return cls(terms)

    def to_json(self) -> str:
        return str(self)


def _accumulate(store: dict[Key, LaurentPoly], key: Key, value: LaurentPoly) -> None:
    store[key] = store[key] + value if key in store else value


def _term_text(coeff: LaurentPoly, i: int, j: int) -> tuple[bool, str]:
    """Render one normal term; returns (negative, body text) for join_signed."""
    monomial = "*".join(
        part
        for part in (
            "a" if i == 1 else f"a^{i}" if i else "",
            "b" if j == 1 else f"b^{j}" if j else "",
        )
        if part
    )
    if coeff.is_const():
        value = coeff.const_value()
        negative = value < 0
        mag = abs(value)
        if not monomial:
            return negative, str(mag)
        if mag == 1:
            return negative, monomial
        return negative, f"{mag}*{monomial}"
    # A coefficient involving lam is always parenthesized so the term
    # boundary stays unambiguous; its sign lives inside the parentheses.
    body = f"({coeff})"
    return False, f"{body}*{monomial}" if monomial else body


def conj_b(x: ABElement) -> ABElement:
    """Conjugation by b: x -> b * x * b^(-1), the algebra map a -> a - b, b -> b.

    Computed as b * x with every b power lowered by one; each term of b * x
    has at least one b factor, so no inverse of b is ever materialized.  It
    preserves total degree and is invertible (send a to a + b).
    """
    bx = ABElement.gen_b() * x
    return ABElement._make({(i, j - 1): c for (i, j), c in bx._terms.items()})


def linear_factor_product(roots: Sequence[Rat | int]) -> ABElement:
    """Left-to-right product of factors (a - root*b); the empty product is 1."""
    out = ABElement.one()
    for root in roots:
        out = out * (ABElement.gen_a() - ABElement.gen_b().scale(Fraction(root)))
    return out


@dataclass(frozen=True)
class HomogeneousPart:
    """An element all of whose terms share one total degree in a, b."""

    degree: int
    element: ABElement

    def __post_init__(self):
        if self.degree < 0:
            raise ContractError("degree must be nonnegative")
        bad = [k for k in self.element.terms if k[0] + k[1] != self.degree]
        if bad:
            raise ContractError(f"terms {bad} do not have degree {self.degree}")


def as_homogeneous(x: ABElement) -> HomogeneousPart:
    """Wrap an element after checking it is homogeneous; degree 0 for zero."""
    degrees = x.support_degrees()
    if len(degrees) > 1:
        raise ContractError(f"element mixes degrees {sorted(degrees)}")
    return HomogeneousPart(degrees.pop() if degrees else 0, x)


def homogeneous_components(x: ABElement) -> list[HomogeneousPart]:
    """Split into homogeneous parts, highest total degree first."""
    buckets: dict[int, dict[Key, LaurentPoly]] = {}
    for (i, j), c in x._terms.items():
        buckets.setdefault(i + j, {})[(i, j)] = c
    return [
        HomogeneousPart(degree, ABElement._make(terms))
        for degree, terms in sorted(buckets.items(), reverse=True)
    ]


def shift_identity_check(q: HomogeneousPart, mu: Rat | int) -> tuple[ABElement, ABElement]:
    """Both sides of conj_b(Q) * (a - mu*b) = (a - (mu+k)*b) * Q for Q of degree k.

    Returns (left, right); the caller compares them.  They agree for every
    homogeneous Q, which is what makes the degree-indexed shift of the root
    work.
    """
    mu = Fraction(mu)
    k = q.degree
    a, b = ABElement.gen_a(), ABElement.gen_b()
    left = conj_b(q.element) * (a - b.scale(mu))
    right = (a - b.scale(mu + k)) * q.element
    return left, right
