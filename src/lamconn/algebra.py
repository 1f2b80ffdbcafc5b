"""Normally ordered elements of the algebra generated by a and b.

The two generators satisfy a*b - b*a = b^2 (the Jordan plane).  Every element
is a sum of terms c * lam^e * a^i * b^j with all a factors on the left and c
rational, stored flat as one map (i, j, e) -> c; grouped by (i, j), the terms
give the Laurent polynomial coefficients in lam.  Normal ordering has a
closed form: from b^j * a = (a - j*b) * b^j, induction on k gives

    b^j * a^k = sum_t (-1)^t C(k,t) j(j+1)...(j+t-1) a^(k-t) * b^(j+t)

for t = 0..k, so the product of two normal monomials is

    (a^i * b^j) * (a^k * b^l) = sum_t (-1)^t C(k,t) j(j+1)...(j+t-1) a^(i+k-t) * b^(j+t+l)

and ``ABElement.__mul__`` applies it once per pair of terms, adding their lam
exponents.  It is the one product: ``scale`` and ``times_a`` multiply by a
degree-0 element and by a, and conjugation by b is b * x with every b power
lowered by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ContractError, InputError
from .exact import LaurentPoly, Rat, join_signed, power_text, read_terms, term_text

Key = tuple[int, int]
FlatKey = tuple[int, int, int]


class ABElement:
    """Finite sum of c * lam^e * a^i * b^j terms; ``_terms`` maps (i, j, e) to nonzero c.

    ``__init__``, ``monomial`` and ``map_coefficients`` validate LaurentPoly
    coefficients and flatten them, and ``parse`` reads text straight into the
    map; ``terms``, ``coefficient`` and ``__str__`` group it by (i, j).  Every
    arithmetic result is built by ``_make``, which trusts its input.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Key, LaurentPoly | Rat | int] | None = None):
        flat: dict[FlatKey, Rat] = {}
        for key, coeff in (terms or {}).items():
            i, j = key
            if i < 0 or j < 0:
                raise InputError(f"negative generator power in key {key!r}")
            if type(coeff) is not LaurentPoly:
                coeff = LaurentPoly.const(coeff)
            for e, c in coeff._terms.items():
                flat[(i, j, e)] = c
        self._terms = flat

    @classmethod
    def _make(cls, terms: dict[FlatKey, Rat]) -> "ABElement":
        """Trusted constructor: (i, j, e) int keys, i, j >= 0, Fraction values; drops only zeros."""
        x = object.__new__(cls)
        x._terms = {k: c for k, c in terms.items() if c}
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
        grouped: dict[Key, dict[int, Rat]] = {}
        for (i, j, e), c in self._terms.items():
            grouped.setdefault((i, j), {})[e] = c
        return {k: LaurentPoly._make(v) for k, v in grouped.items()}

    def coefficient(self, i: int, j: int) -> LaurentPoly:
        return self.terms.get((i, j), LaurentPoly.zero())

    def is_zero(self) -> bool:
        return not self._terms

    def support_degrees(self) -> set[int]:
        return {i + j for i, j, _ in self._terms}

    def is_homogeneous(self) -> bool:
        return len(self.support_degrees()) <= 1

    def degree(self) -> int:
        """Total degree in a, b; the zero element has degree -1 by convention."""
        return max(self.support_degrees(), default=-1)

    def map_coefficients(self, fn) -> "ABElement":
        return ABElement({k: fn(c) for k, c in self.terms.items()})

    def __add__(self, other: "ABElement") -> "ABElement":
        if not isinstance(other, ABElement):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out[k] + c if k in out else c
        return ABElement._make(out)

    def __sub__(self, other: "ABElement") -> "ABElement":
        return self + (-other)

    def __neg__(self) -> "ABElement":
        return ABElement._make({k: -c for k, c in self._terms.items()})

    def scale(self, c: LaurentPoly | Rat | int) -> "ABElement":
        return self * ABElement.monomial(0, 0, c)

    def times_a(self) -> "ABElement":
        return self * ABElement.gen_a()

    def __mul__(self, other: "ABElement") -> "ABElement":
        if not isinstance(other, ABElement):
            return NotImplemented
        out: dict[FlatKey, Rat] = {}
        for (i, j, e1), c1 in self._terms.items():
            for (k, l, e2), c2 in other._terms.items():
                c = c1 * c2
                e = e1 + e2
                # n = (-1)^t C(k,t) j(j+1)...(j+t-1); the division is exact
                # and n becomes 0 after t = 0 when j = 0.
                n = 1
                for t in range(k + 1):
                    key = (i + k - t, j + t + l, e)
                    v = c if n == 1 else n * c
                    out[key] = out[key] + v if key in out else v
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
        ordered = sorted(self.terms.items(), key=lambda kc: (-sum(kc[0]), -kc[0][0]))
        parts: list[tuple[bool, str]] = []
        for (i, j), c in ordered:
            monomial = "*".join(filter(None, (power_text("a", i), power_text("b", j))))
            if c.is_const():
                value = c.const_value()
                parts.append((value < 0, term_text(abs(value), monomial)))
            else:
                # A coefficient involving lam is always parenthesized so the term
                # boundary stays unambiguous; its sign lives inside the parentheses.
                parts.append((False, term_text(f"({c})", monomial)))
        return join_signed(parts)

    def __repr__(self) -> str:
        return f"ABElement({self})"

    @classmethod
    def parse(cls, text: str) -> "ABElement":
        """Parse normal-form text such as "a^2 - 7/2*a*b + (-4*lam^-2)*b^2".

        a comes before b; a parenthesized group is a polynomial in lam.
        """
        out: dict[FlatKey, Rat] = {}
        for coeff, powers, groups in read_terms(text, "algebra element"):
            i = j = e = 0
            seen_b = False
            for name, power in powers:
                if name == "lam":
                    e += power
                elif name not in ("a", "b") or power < 0:
                    raise InputError(f"bad factor {name}^{power} in algebra element: {text!r}")
                elif name == "b":
                    seen_b = True
                    j += power
                elif seen_b:
                    raise InputError(f"a after b in {text!r}: text must be normally ordered")
                else:
                    i += power
            by_exp = {e: coeff}
            if groups:
                poly = LaurentPoly.lam_power(e, coeff)
                for group in groups:
                    poly = poly * LaurentPoly.parse(group)
                by_exp = poly._terms
            for e, c in by_exp.items():
                key = (i, j, e)
                out[key] = out[key] + c if key in out else c
        return cls._make(out)

    def to_json(self) -> str:
        return str(self)


def conj_b(x: ABElement) -> ABElement:
    """Conjugation by b: x -> b * x * b^(-1), the algebra map a -> a - b, b -> b.

    Computed as b * x with every b power lowered by one; each term of b * x
    has at least one b factor, so no inverse of b is ever materialized.  It
    preserves total degree and is invertible (send a to a + b).
    """
    bx = ABElement.gen_b() * x
    return ABElement._make({(i, j - 1, e): c for (i, j, e), c in bx._terms.items()})


def linear_factor_product(roots: Sequence[Rat | int]) -> ABElement:
    """Left-to-right product of factors (a - root*b); the empty product is 1."""
    out = ABElement.one()
    for root in roots:
        out = out * ABElement({(1, 0): 1, (0, 1): -Fraction(root)})
    return out


@dataclass(frozen=True)
class HomogeneousPart:
    """An element all of whose terms share one total degree in a, b."""

    degree: int
    element: ABElement

    def __post_init__(self):
        if self.degree < 0:
            raise ContractError("degree must be nonnegative")
        bad = sorted({(i, j) for i, j, _ in self.element._terms if i + j != self.degree})
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
    buckets: dict[int, dict[FlatKey, Rat]] = {}
    for key, c in x._terms.items():
        buckets.setdefault(key[0] + key[1], {})[key] = c
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
