"""Closed-form annihilating operators for two parametrized exponent layouts.

Layout A in three variables: x^(2u) + y^(2v) + z^(2w) + lam * x^u y^v z^w.
Layout B in three variables: x^(2p) z^u + y^(2q) z^v + z^(u+v) + lam * x^p y^q.

Both sit in the case split with d = 2 and h = 1, so the operator is a cubic
product of monic linear factors plus -4 * lam^(+-2) times a quadratic one.
The factor roots are explicit rational expressions in the parameters, and
every one of them is positive.  Each layout and each root list is written
once, every root as one Fraction of two integer expressions in the
parameters; ``FamilyResult`` derives its operator from its roots once, on
first read, so building or copying a record builds no operator.  The cross check
recomputes the relation, case data, sigma and lam*nabla([1]) from the
exponent matrices and compares them with the closed forms, keeping the
compared values; in JSON a failed check of two algebra elements names the
first term where they differ, found by ``exact.first_difference``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import ClassVar

from .algebra import ABElement, _flat, linear_factor_product
from .connection import MonomialMu, nabla_formula, sigma_tau
from .errors import InputError
from .exact import check_int, first_difference, power_text, term_text
from .exponents import Case, DependencyData, ExponentData, dependency, det_identity_check

@dataclass(frozen=True)
class FamilyResult:
    """Operator data for one family instance.

    full_operator = top + c_coeff * lam^lambda_exponent * low, where top and
    low are the left-to-right products of the monic linear factors (a - r*b)
    over roots_top and roots_low; the operator is derived from the record's
    roots and lambda exponent once, on first read, never given, so a
    ``dataclasses.replace`` copy derives its own.  The low product is weighted
    by mapping its numerators, (i, j, e) -> (i, j, e + lambda_exponent) times
    c_coeff, not by a general product.  The low roots reduced mod 1 are the
    monodromy candidate exponents.
    """

    kind: str
    params: tuple[int, ...]
    exponents: ExponentData
    roots_top: tuple[Fraction, ...]
    roots_low: tuple[Fraction, ...]
    lambda_exponent: int
    nabla_one: ABElement
    c_coeff: ClassVar[Fraction] = Fraction(-4)

    @cached_property
    def full_operator(self) -> ABElement:
        top = linear_factor_product(self.roots_top)
        low = linear_factor_product(self.roots_low)
        # c * lam^shift * low: each term moves up by the lam exponent and its numerator takes c's
        c, shift = self.c_coeff, self.lambda_exponent
        weighted = {(i, j, e + shift): n * c.numerator for (i, j, e), n in low._terms.items()}
        return top + ABElement._make(weighted, low._den * c.denominator)

    def label(self) -> str:
        return f"{self.kind}({', '.join(str(x) for x in self.params)})"

    def factored_display(self) -> str:
        """Operator as a product-of-factors string.

        Every root of both families is positive, so each factor prints as
        (a - r*b).  When the top and low parts share their leftmost factor it
        is pulled out in front of a bracketed mixed block; otherwise the two
        blocks are shown side by side.
        """
        c = self.c_coeff
        c_text = f"{'-' if c < 0 else '+'} {term_text(abs(c), power_text('lam', self.lambda_exponent))}"
        top, low = self.roots_top, self.roots_low
        if top[0] == low[0]:
            head = _factor_text(top[0])
            rest_top = "*".join(_factor_text(x) for x in top[1:])
            rest_low = "*".join(_factor_text(x) for x in low[1:])
            tail = f"*{rest_low}" if rest_low else ""
            return f"{head}*[{rest_top} {c_text}{tail}]"
        top_text = "*".join(_factor_text(x) for x in top)
        low_text = "*".join(_factor_text(x) for x in low)
        return f"{top_text} {c_text}*{low_text}"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": list(self.params),
            "exponents": self.exponents.to_json(),
            "roots_top": [str(x) for x in self.roots_top],
            "roots_low": [str(x) for x in self.roots_low],
            "c_coeff": str(self.c_coeff),
            "lambda_exponent": self.lambda_exponent,
            "operator": str(self.full_operator),
            "operator_factored": self.factored_display(),
            "nabla_one": str(self.nabla_one),
            "monodromy_candidates": [str(x) for x in monodromy_candidates(self)],
        }


def _layout_a(u: int, v: int, w: int) -> tuple[tuple[int, int, int], ...]:
    return ((2 * u, 0, 0), (0, 2 * v, 0), (0, 0, 2 * w), (u, v, w))


def _layout_b(p: int, q: int, u: int, v: int) -> tuple[tuple[int, int, int], ...]:
    return ((2 * p, 0, u), (0, 2 * q, v), (0, 0, u + v), (p, q, 0))


def family_a(u: int, v: int, w: int) -> FamilyResult:
    """Operator for x^(2u) + y^(2v) + z^(2w) + lam * x^u y^v z^w."""
    for name, value in (("u", u), ("v", v), ("w", w)):
        check_int(value, name, 1)
    # s = 1/(2u) + 1/(2v) + 1/(2w); the roots are 2 + (u+v)/(2uv), 1 + (u+w)/(2uw) and
    # (v+w)/(2vw) on top, 3/2 + s and s below
    s_num, s_den = u * v + v * w + w * u, 2 * u * v * w
    s = Fraction(s_num, s_den)
    roots_top = (
        Fraction(4 * u * v + u + v, 2 * u * v),
        Fraction(2 * u * w + u + w, 2 * u * w),
        Fraction(v + w, 2 * v * w),
    )
    roots_low = (Fraction(3 * u * v * w + s_num, s_den), s)
    nabla_one = ABElement._linear(2 * s.denominator, -2 * s.numerator, s.denominator)
    exponents = ExponentData(n=2, alphas=_layout_a(u, v, w))
    return FamilyResult("A", (u, v, w), exponents, roots_top, roots_low, -2, nabla_one)


def family_b(p: int, q: int, u: int, v: int) -> FamilyResult:
    """Operator for x^(2p) z^u + y^(2q) z^v + z^(u+v) + lam * x^p y^q."""
    for name, value, minimum in (("p", p, 1), ("q", q, 1), ("u", u, 0), ("v", v, 0)):
        check_int(value, name, minimum)
    if u + v < 1:
        raise InputError("u + v must be at least 1")
    # t = (pu + qv + 2pq) / (2pq(u+v)); the roots are 2 + (p+q)/(2pq), 1/2 + t and t on top,
    # 1 + t + 1/(2q) and t + 1/(2p) below
    t_num, t_den = p * u + q * v + 2 * p * q, 2 * p * q * (u + v)
    t = Fraction(t_num, t_den)
    roots_top = (Fraction(4 * p * q + p + q, 2 * p * q), Fraction(p * q * (u + v) + t_num, t_den), t)
    roots_low = (
        Fraction(t_den + t_num + p * (u + v), t_den),
        Fraction(t_num + q * (u + v), t_den),
    )
    nabla_one = ABElement._linear(-2 * t.denominator, 2 * t.numerator, t.denominator)
    exponents = ExponentData(n=2, alphas=_layout_b(p, q, u, v))
    return FamilyResult("B", (p, q, u, v), exponents, roots_top, roots_low, 2, nabla_one)


def monodromy_candidates(result: FamilyResult) -> list[Fraction]:
    """Low-part roots reduced mod 1 into [0, 1), multiplicities kept, in root order."""
    return [x - (x.numerator // x.denominator) for x in result.roots_low]


def match_family(data: ExponentData) -> FamilyResult | None:
    """Recognize an exponent layout as a family instance; None when it is neither.

    The candidate parameters are read off the layout, and the whole layout
    they generate must equal it.  The result carries data itself as its
    exponents, so cross_validate reads data's cached analysis.
    """
    if data.n != 2:
        return None
    alphas = data.alphas
    u, v, w = alphas[3]
    if min(u, v, w) >= 1 and alphas == _layout_a(u, v, w):
        return replace(family_a(u, v, w), exponents=data)
    p, q, u, v = alphas[3][0], alphas[3][1], alphas[0][2], alphas[1][2]
    if min(p, q, u + v) >= 1 and alphas == _layout_b(p, q, u, v):
        return replace(family_b(p, q, u, v), exponents=data)
    return None


@dataclass(frozen=True)
class CheckOutcome:
    """One compared quantity; expected and got keep the values, printed only in to_json."""

    name: str
    passed: bool
    expected: object
    got: object

    def to_json(self) -> dict:
        """The check printed; a failed one also names where two ABElements first
        differ, as flat (i, j, e) -> coefficient maps, and null for other values."""
        out = {"name": self.name, "passed": self.passed, "expected": str(self.expected), "got": str(self.got)}
        if not self.passed:
            diff = None
            if isinstance(self.expected, ABElement) and isinstance(self.got, ABElement):
                diff = first_difference(_flat(self.expected), _flat(self.got))
            out["first_difference"] = (
                None if diff is None else {"key": list(diff[0]), "expected": str(diff[1]), "got": str(diff[2])}
            )
        return out


@dataclass(frozen=True)
class CrossValidationReport:
    label: str
    checks: tuple[CheckOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"label": self.label, "passed": self.passed, "checks": [c.to_json() for c in self.checks]}


def cross_validate(result: FamilyResult) -> CrossValidationReport:
    """Recompute the derived quantities from the exponents and compare.

    The closed forms fix r = 2, d = 2, h = 1 for both layouts, case II with
    sigma = -2 for A and case I with sigma = 2 for B; the connection formula
    applied to mu = 1 must reproduce the stored lam*nabla([1]).  dependency
    raises HypothesisError on a layout that fails a rank hypothesis, so no
    check records them.
    """
    checks: list[CheckOutcome] = []

    def record(name: str, expected, got) -> None:
        checks.append(CheckOutcome(name, expected == got, expected, got))

    data = result.exponents
    dep: DependencyData = dependency(data)
    expected_case = Case.CASE_II if result.kind == "A" else Case.CASE_I
    expected_p = (1, 1, 1) if result.kind == "A" else (1, 1, -1)
    record("r", 2, dep.r)
    record("p", expected_p, dep.p)
    record("d", 2, dep.d)
    record("h", 1, dep.h)
    record("case", expected_case.value, dep.case.value)
    record("sigma", Fraction(-2) if result.kind == "A" else Fraction(2), dep.sigma)
    record("lambda_exponent", result.lambda_exponent, dep.lambda_exponent)
    det_report = det_identity_check(data, dep)
    record("determinant_identity", True, det_report.passed)
    st = sigma_tau(data, MonomialMu.unit(data.n))
    record("sigma_from_inverse", dep.sigma, st.sigma)
    record("nabla_one", result.nabla_one, nabla_formula(st))
    return CrossValidationReport(label=result.label(), checks=tuple(checks))


def _factor_text(root: Fraction) -> str:
    return f"(a - {term_text(root, 'b')})"
