"""Order-by-order propagation of log coefficients along the parameter.

A solution of lam*d/dlam d/ds phi = alpha*s*d(phi)/ds + beta*phi is expanded
as sum over exponents rho_i, log depths k and orders m of

    c[i,k,m](lam) * s^(m + rho_i) * (Log s)^k / k!

Matching powers of s gives, for each i independently,

    (m + rho_i + 1) * D[i,k,m+1] + D[i,k+1,m+1]
        = (alpha*(m + rho_i) + beta) * c[i,k,m] + alpha * c[i,k+1,m]

where D is lam*d/dlam of c.  In the variable L = Log(lam/lam0) that Euler
derivative is plain d/dL, so each step solves for D descending in k (depth
N+1 is zero), integrates in L, and adds the free integration constant
supplied by the seed.  Degrees in L grow by at most one per order, hence
deg c[i,k,m] <= m.

The recurrence also has a closed (Frobenius) form: a seed value s at
(i, K, m0) adds, for every m >= m0 and j <= K,

    s * L^(m-m0)/(m-m0)! * [x^(K-j)] prod_{t=m0}^{m-1} (alpha + (beta - alpha)/(t + rho_i + 1 + x))

to c[i,j,m], and the table is the sum over the seed.  ``selftest`` computes
it as an independent route and compares it with ``propagate``.

The coefficients are LogPoly values, LaurentPoly's sparse polynomial printed
in L instead of lam.  ``propagate`` builds each order in one pass per cell
over plain {degree: Fraction} term maps and wraps each finished cell once.
``verify_table`` substitutes the table back into the relation above with
code of its own, summing each residual straight from the cells' term maps.
It needs only a zero test, so each degree of a residual is summed on
integer cross products over one unreduced denominator, without a gcd, and a
Fraction is built only for a residual that is not zero.

Exponents are required pairwise non-congruent mod 1: congruent exponents
would couple their ladders and the per-i propagation would no longer be
well defined, so such input is rejected outright.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import DIGIT_LIMIT_MESSAGE, InputError
from .exact import LaurentPoly, Rat, check_coefficient, check_int, json_rat, parse_int

SeedKey = tuple[int, int, int]

# Largest N, M and number of rhos that ExpansionSpec.from_json accepts, bounding
# a JSON spec's work up front; they admit N=3, M=720 and N=16, M=400.  Each rho
# is its own ladder of (N + 1) * (M + 1) cells, and all ladders together may
# hold at most MAX_CELLS, the cells of one rho at the largest N and M.  That
# one rho, seeded at depths 0 and 16 with alpha -7/5 and beta 11/3, is the
# slowest accepted spec measured: propagate refuses it at order 236, where a
# coefficient first passes the 4300-digit print limit, about 0.9 s into the
# CLI (Python 3.11, 2-core VM).
MAX_LOG_DEPTH = 16
MAX_ORDER = 720
MAX_EXPONENTS = 4
MAX_CELLS = (MAX_LOG_DEPTH + 1) * (MAX_ORDER + 1)


class LogPoly(LaurentPoly):
    """Polynomial in L = Log(lam/lam0) with Fraction coefficients.

    The sparse storage, arithmetic, equality and text form are LaurentPoly's,
    printed and parsed in L; degrees in L are never negative.
    """

    __slots__ = ()

    VAR = "L"

    def __init__(self, coeffs: Mapping[int, Rat | int] | None = None):
        for e in coeffs or ():
            check_int(e, "log degree", 0)
        super().__init__(coeffs)

    @property
    def coeffs(self) -> dict[int, Rat]:
        return self.terms

    def degree(self) -> int:
        """Degree in L; the zero polynomial has degree -1 by convention."""
        return max(self._terms, default=-1)

    def constant_term(self) -> Rat:
        """The value at L = 0."""
        return self.coefficient(0)

    def deriv(self) -> "LogPoly":
        """d/dL, which is lam*d/dlam on coefficient functions of lam."""
        return self._make({e - 1: e * c for e, c in self._terms.items() if e > 0})

    def to_json(self) -> dict[str, str]:
        return {str(e): str(c) for e, c in sorted(self._terms.items())}


@dataclass(frozen=True)
class ExpansionSpec:
    """Exponents, log depth, order cutoff and normalized PDE coefficients."""

    rhos: tuple[Rat, ...]
    log_depth: int
    order: int
    alpha: Rat
    beta: Rat

    def __post_init__(self):
        rhos = tuple(Fraction(check_coefficient(x)) for x in self.rhos)
        object.__setattr__(self, "rhos", rhos)
        object.__setattr__(self, "alpha", Fraction(check_coefficient(self.alpha)))
        object.__setattr__(self, "beta", Fraction(check_coefficient(self.beta)))
        if not rhos:
            raise InputError("at least one exponent rho is required")
        check_int(self.log_depth, "log depth", 0)
        check_int(self.order, "order", 0)
        for x in rhos:
            if x <= -1:
                raise InputError(f"every exponent must exceed -1, got {x}")
        for i in range(len(rhos)):
            for j in range(i + 1, len(rhos)):
                if (rhos[i] - rhos[j]).denominator == 1:
                    raise InputError(
                        f"exponents {rhos[i]} and {rhos[j]} are congruent mod 1; "
                        "their ladders would overlap"
                    )

    @classmethod
    def from_json(cls, obj) -> "ExpansionSpec":
        if not isinstance(obj, dict):
            raise InputError("expansion input must be a JSON object")
        missing = {"rhos", "N", "M", "alpha", "beta"} - set(obj)
        if missing:
            raise InputError(f"missing keys: {sorted(missing)}")
        if not isinstance(obj["rhos"], list):
            raise InputError("rhos must be a list")
        if len(obj["rhos"]) > MAX_EXPONENTS:
            raise InputError(f"the number of rhos must be at most {MAX_EXPONENTS}")
        for key, limit in (("N", MAX_LOG_DEPTH), ("M", MAX_ORDER)):
            if check_int(obj[key], key, 0) > limit:
                raise InputError(f"{key} must be at most {limit}")
        cells = len(obj["rhos"]) * (obj["N"] + 1) * (obj["M"] + 1)
        if cells > MAX_CELLS:
            raise InputError(f"rhos * (N + 1) * (M + 1) = {cells} must be at most {MAX_CELLS}")
        return cls(
            rhos=tuple(json_rat(x, "rho") for x in obj["rhos"]),
            log_depth=obj["N"],
            order=obj["M"],
            alpha=json_rat(obj["alpha"], "alpha"),
            beta=json_rat(obj["beta"], "beta"),
        )

    def to_json(self) -> dict:
        return {
            "rhos": [str(x) for x in self.rhos],
            "N": self.log_depth,
            "M": self.order,
            "alpha": str(self.alpha),
            "beta": str(self.beta),
        }


def parse_seed_key(text: str) -> SeedKey:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError(f"seed key must be 'i,k,m', got {text!r}")
    if not all(part.isdecimal() for part in parts):
        raise InputError(f"seed key must contain integers, got {text!r}")
    i, k, m = (parse_int(part) for part in parts)
    return i, k, m


@dataclass(frozen=True)
class ExpansionTable:
    """Coefficients c[i,k,m] as polynomials in L, keyed by (i, k, m)."""

    spec: ExpansionSpec
    entries: dict[SeedKey, LogPoly] = field(default_factory=dict)

    def get(self, i: int, k: int, m: int) -> LogPoly:
        return self.entries.get((i, k, m), LogPoly.zero())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExpansionTable):
            return NotImplemented
        keys = set(self.entries) | set(other.entries)
        return self.spec == other.spec and all(
            self.entries.get(key, LogPoly.zero()) == other.entries.get(key, LogPoly.zero())
            for key in keys
        )

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "table": {
                f"{i},{k},{m}": poly.to_json()
                for (i, k, m), poly in sorted(self.entries.items())
            },
        }

    def to_csv(self) -> str:
        """One row per (i, k, m); columns are the coefficients of L^0, L^1, ...

        Lines end in CRLF, as csv's excel dialect writes them.  No field can
        hold a comma, quote or line break, so none is quoted and the rows
        are plain joins.
        """
        width = max((poly.degree() for poly in self.entries.values()), default=-1) + 1
        rows = [",".join(["i", "k", "m"] + [f"L^{e}" for e in range(width)])]
        for (i, k, m), poly in sorted(self.entries.items()):
            cells = [str(i), str(k), str(m)] + ["0"] * width
            for e, c in poly._terms.items():
                cells[e + 3] = str(c)
            rows.append(",".join(cells))
        return "\r\n".join(rows) + "\r\n"


def _check_seed(spec: ExpansionSpec, seed: Mapping[SeedKey, Rat | int]) -> dict[SeedKey, Rat]:
    clean: dict[SeedKey, Rat] = {}
    for key, value in seed.items():
        try:
            i, k, m = key
        except (TypeError, ValueError):
            raise InputError(f"seed key must be an (i, k, m) triple, got {key!r}") from None
        try:
            for x in key:
                check_int(x, "seed key part")
        except InputError:
            raise InputError(f"seed key must hold integers, got {key!r}") from None
        if not (0 <= i < len(spec.rhos)):
            raise InputError(f"seed index i={i} out of range")
        if not (0 <= k <= spec.log_depth):
            raise InputError(f"seed log depth k={k} out of range")
        if not (0 <= m <= spec.order):
            raise InputError(f"seed order m={m} out of range")
        value = Fraction(check_coefficient(value))
        if value != 0:
            clean[key] = value
    return clean


def propagate(spec: ExpansionSpec, seed: Mapping[SeedKey, Rat | int]) -> ExpansionTable:
    """Fill the whole table from the seed constants.

    Missing seed entries default to zero.  Each order is produced by solving
    the matched-power relation for the Euler derivatives top depth first,
    integrating in L and adding the seed constant of the next order; each
    cell is one pass over term maps.  A coefficient with more digits than
    Python's int/str conversion limit (0: no limit) could not be printed, so
    it is refused as soon as its cell is finished.
    """
    clean_seed = _check_seed(spec, seed)
    limit = sys.get_int_max_str_digits()
    bound = 10**limit if limit else None
    alpha, beta, top = spec.alpha, spec.beta, spec.log_depth
    entries: dict[SeedKey, LogPoly] = {}

    def finish(key: SeedKey, cell: dict[int, Rat]) -> None:
        if bound is not None:
            for c in cell.values():
                if c.denominator >= bound or abs(c.numerator) >= bound:
                    raise InputError(DIGIT_LIMIT_MESSAGE.format(limit))
        entries[key] = LogPoly._make(cell)

    for i, rho in enumerate(spec.rhos):
        current: list[dict[int, Rat]] = []
        for k in range(top + 1):
            constant = clean_seed.get((i, k, 0))
            current.append({0: constant} if constant is not None else {})
            finish((i, k, 0), current[k])
        for m in range(spec.order):
            # D[k] = f*c[k] + a*c[k+1] + g*D[k+1], with D[N+1] = c[N+1] = 0.
            q = 1 / (m + rho + 1)
            f = (alpha * (m + rho) + beta) * q
            a = alpha * q
            g = -q
            nxt: list[dict[int, Rat]] = [{}] * (top + 1)
            above: dict[int, Rat] = {}
            d_above: dict[int, Rat] = {}
            for k in range(top, -1, -1):
                d = {e: f * c for e, c in current[k].items()}
                for e, c in above.items():
                    d[e] = d[e] + a * c if e in d else a * c
                for e, c in d_above.items():
                    d[e] = d[e] + g * c if e in d else g * c
                d = {e: c for e, c in d.items() if c}
                cell = {e + 1: c / (e + 1) for e, c in d.items()}
                constant = clean_seed.get((i, k, m + 1))
                if constant is not None:
                    cell[0] = constant
                finish((i, k, m + 1), cell)
                nxt[k] = cell
                above, d_above = current[k], d
            current = nxt
    return ExpansionTable(spec=spec, entries=entries)


@dataclass(frozen=True)
class ResidualReport:
    """Exact residuals of the matched-power relation; empty means the table checks out."""

    residuals: dict[SeedKey, LogPoly]

    @property
    def passed(self) -> bool:
        return not self.residuals

    @property
    def first_difference(self) -> tuple[SeedKey, LogPoly] | None:
        """The smallest (i, k, m) key with its residual; None when the table checks out."""
        return min(self.residuals.items(), default=None)

    def to_json(self) -> dict:
        out = {
            "passed": self.passed,
            "residuals": {
                f"{i},{k},{m}": poly.to_json()
                for (i, k, m), poly in sorted(self.residuals.items())
            },
        }
        if not self.passed:
            (i, k, m), poly = self.first_difference
            out["first_difference"] = {"key": f"{i},{k},{m}", "residual": poly.to_json()}
        return out


def _add_ratio(res: dict[int, list[int]], e: int, n: int, d: int) -> None:
    """Add n/d to the unreduced [numerator, denominator] at degree e."""
    acc = res.get(e)
    if acc is None:
        res[e] = [n, d]
    elif acc[1] == d:
        acc[0] += n
    else:
        acc[0] = acc[0] * d + n * acc[1]
        acc[1] *= d


def verify_table(spec: ExpansionSpec, table: ExpansionTable) -> ResidualReport:
    """Substitute the table into the relation linking order m to m+1.

    The residual keyed (i, k, m) collects every term of that relation moved
    to one side; an order cutoff of zero verifies vacuously.  It is summed
    straight from the term maps of the four cells involved, with code of its
    own, so that it checks propagate rather than repeating it.  Each degree
    in L is summed on integer cross products, n1*d2 + n2*d1 over d1*d2 (or
    n1 + n2 over a shared denominator), and never reduced: only its zero
    test is needed.  Fractions are built only for a residual that is not zero.
    """
    residuals: dict[SeedKey, LogPoly] = {}
    no_terms: dict[int, Rat] = {}
    top = spec.log_depth
    an, ad = -spec.alpha.numerator, spec.alpha.denominator

    def terms(key: SeedKey) -> dict[int, Rat]:
        poly = table.entries.get(key)
        return no_terms if poly is None else poly._terms

    for i, rho in enumerate(spec.rhos):
        rn, rd = rho.numerator, rho.denominator
        for m in range(spec.order):
            sn = (m + 1) * rd + rn  # m + rho + 1 = sn/rd
            minus_factor = -(spec.alpha * (m + rho) + spec.beta)
            fn, fd = minus_factor.numerator, minus_factor.denominator
            for k in range(top + 1):
                # (m + rho + 1)*D[k,m+1] + D[k+1,m+1] - factor*c[k,m] - alpha*c[k+1,m],
                # each degree held as [numerator, denominator]
                res = {
                    e - 1: [sn * e * c.numerator, rd * c.denominator]
                    for e, c in terms((i, k, m + 1)).items()
                    if e
                }
                for e, c in terms((i, k, m)).items():
                    _add_ratio(res, e, fn * c.numerator, fd * c.denominator)
                if k < top:
                    for e, c in terms((i, k + 1, m + 1)).items():
                        if e:
                            _add_ratio(res, e - 1, e * c.numerator, c.denominator)
                    for e, c in terms((i, k + 1, m)).items():
                        _add_ratio(res, e, an * c.numerator, ad * c.denominator)
                if any(n for n, _ in res.values()):
                    residuals[(i, k, m)] = LogPoly._make({e: Fraction(n, d) for e, (n, d) in res.items()})
    return ResidualReport(residuals=residuals)
