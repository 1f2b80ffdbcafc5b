"""Exponent matrices of an (n+2)-monomial polynomial and their rank data.

The input polynomial in n+1 variables is sum(x^alpha_j, j = 1..n+1) plus
lam * x^alpha_(n+2).  Two hypotheses make the analysis work:

  i)  the bordered matrix (row of ones over all n+2 exponent columns) has
      full rank n+2, which rules out quasi-homogeneity;
  ii) the first n+1 exponent vectors form a basis of Q^(n+1).

Under ii) the last exponent has a unique rational expansion in the basis,
cleared to the minimal integer relation r * alpha_(n+2) = sum p_j * alpha_j.
The sign pattern of the p_j splits the analysis into two cases and fixes the
rational sigma together with the lam power carried by the lower operator
block downstream.

All of the rank, determinant and solution data comes from two fraction-free
forward eliminations per layout, each followed by an exact integer back
substitution (``exact._solve_square``), done once and cached on the
ExponentData instance (``ExponentData.analysis``): M~^T | e_(n+2) gives the
bordered rank, det M~ and the last row of M~^-1; M' | alpha_(n+2) gives the
basis rank, det M' and the rational basis expansion of the last exponent.
validate_hypotheses, dependency_solution, det_identity_check and
connection.sigma_tau read it, and dependency reads the relation through
dependency_solution.

The eliminations run on the integer exponents and build no Fraction: each
solution is kept as the integer numerators det * solution over its signed
integer determinant (det M~ for the inverse row, det M' for the relation),
so Fraction(numerator, det) is the solution's entry, sign included.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ContractError, HypothesisError, InputError
from .exact import RatMatrix, _solve_square, check_int

# Work budget of a JSON layout, checked by ExponentData.from_json before any
# elimination: (n + 2)^3, the order of the updates in each of the two
# eliminations, times the bit length of the largest exponent entry, which
# sets how long the integers in them grow.  It admits n = 156 with entries 0
# and 1, n = 64 with 13-bit entries and n = 4 with entries at Python's
# 4300-digit limit.  The slowest accepted corner measured is n = 156 with
# random 0/1 entries: about 1 s (0.85-1.3 s) for `lamconn analyze` (Python
# 3.11, 2-core VM); n = 64 with random 13-bit entries took under 0.3 s, and
# n = 4 and n = 10 with entries on the budget curve under 0.5 s each.
MAX_LAYOUT_WORK = 4_000_000


@dataclass(frozen=True)
class LayoutAnalysis:
    """Rank, determinant and solution data of one layout's two matrices, and
    the verdicts on hypotheses i) and ii) read off the two ranks.

    inverse_numerators is det M~ times the last row of M~^-1, and
    relation_numerators is det M' times the expansion of alpha_(n+2) in the
    first n+1 exponents; both are integers over the signed determinant (never
    its absolute value), and each is None when its matrix is singular, the
    determinant then being 0.
    """

    n: int
    rank_m_tilde: int
    det_m_tilde: int
    inverse_numerators: tuple[int, ...] | None
    rank_m_prime: int
    det_m_prime: int
    relation_numerators: tuple[int, ...] | None

    @property
    def bordered_rank_ok(self) -> bool:
        return self.rank_m_tilde == self.n + 2

    @property
    def basis_ok(self) -> bool:
        return self.rank_m_prime == self.n + 1

    @property
    def passed(self) -> bool:
        return self.bordered_rank_ok and self.basis_ok

    @property
    def note(self) -> str | None:
        if self.bordered_rank_ok and not self.basis_ok:
            return (
                "the first n+1 exponents do not span; a different monomial ordering "
                "or a reparametrization of lam may repair this, which this tool does not attempt"
            )
        return None

    def failure_messages(self) -> list[str]:
        out = []
        if not self.bordered_rank_ok:
            out.append(f"hypothesis i) fails: rank {self.rank_m_tilde} < {self.n + 2}")
        if not self.basis_ok:
            out.append(f"hypothesis ii) fails: rank {self.rank_m_prime} < {self.n + 1}")
        return out

    def to_json(self) -> dict:
        out = {
            "rank_m_tilde": self.rank_m_tilde,
            "rank_m_prime": self.rank_m_prime,
            "hypothesis_i": self.bordered_rank_ok,
            "hypothesis_ii": self.basis_ok,
            "passed": self.passed,
        }
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class ExponentData:
    """Validated exponent columns: n+2 distinct vectors with n+1 nonnegative
    entries each, the last of them (the parameter monomial's) not zero."""

    n: int
    alphas: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        check_int(self.n, "n", 1)
        alphas = tuple(tuple(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if len(alphas) != self.n + 2:
            raise InputError(f"expected {self.n + 2} exponent vectors, got {len(alphas)}")
        for a in alphas:
            if len(a) != self.n + 1:
                raise InputError(f"exponent vector {a} must have {self.n + 1} entries")
            for entry in a:
                check_int(entry, "exponent entry", 0)
        if len(set(alphas)) != len(alphas):
            raise InputError("exponent vectors must be pairwise distinct")
        if not any(alphas[-1]):
            # lam would multiply the constant monomial: the relation is r * 0 = 0.
            raise InputError("the parameter monomial has exponent zero; no usable relation")

    def matrix_m_prime(self) -> RatMatrix:
        """The (n+1) x (n+1) matrix whose columns are the first n+1 exponents."""
        return RatMatrix.from_columns(self.alphas[: self.n + 1])

    def matrix_m_tilde(self) -> RatMatrix:
        """All n+2 exponent columns bordered by a first row of ones."""
        cols = [(1,) + a for a in self.alphas]
        return RatMatrix.from_columns(cols)

    @cached_property
    def analysis(self) -> LayoutAnalysis:
        """Both eliminations of this layout, computed on first use."""
        last = self.n + 1
        # M~^T | e_(n+2): the solution is the last row of M~^-1
        rk_tilde, det_tilde, inverse = _solve_square(
            [(1,) + a + (int(j == last),) for j, a in enumerate(self.alphas)], last + 1
        )
        # M' | alpha_(n+2): the rows of the matrix with all n+2 exponents as columns
        rk_prime, det_prime, relation = _solve_square(zip(*self.alphas), last)
        return LayoutAnalysis(
            n=self.n,
            rank_m_tilde=rk_tilde,
            det_m_tilde=det_tilde,
            inverse_numerators=None if inverse is None else tuple(inverse[0]),
            rank_m_prime=rk_prime,
            det_m_prime=det_prime,
            relation_numerators=None if relation is None else tuple(relation[0]),
        )

    @classmethod
    def from_json(cls, obj) -> "ExponentData":
        if not isinstance(obj, dict):
            raise InputError("exponent input must be a JSON object")
        missing = {"n", "alphas"} - set(obj)
        if missing:
            raise InputError(f"missing keys: {sorted(missing)}")
        n = obj["n"]
        alphas = obj["alphas"]
        if not isinstance(alphas, list) or not all(isinstance(a, list) for a in alphas):
            raise InputError("alphas must be a list of lists")
        data = cls(n=n, alphas=tuple(tuple(a) for a in alphas))
        bits = max(1, *(max(a).bit_length() for a in data.alphas))
        work = (data.n + 2) ** 3 * bits
        if work > MAX_LAYOUT_WORK:
            raise InputError(
                f"(n + 2)^3 * (bit length of the largest entry) = {work} must be at most {MAX_LAYOUT_WORK}"
            )
        return data

    def to_json(self) -> dict:
        return {"n": self.n, "alphas": [list(a) for a in self.alphas]}


def validate_hypotheses(data: ExponentData) -> LayoutAnalysis:
    """The layout's cached analysis, which answers both rank hypotheses; never raises."""
    return data.analysis


class Case(enum.Enum):
    CASE_I = "I"
    CASE_II = "II"


@dataclass(frozen=True)
class DependencyData:
    """Minimal integer relation and the derived case data.

    r * alpha_(n+2) = sum p_j * alpha_j with r >= 1 minimal; d and h come
    from the positive / nonpositive split of the p_j; sigma = r/(r - sum p)
    and the operator's lam power is +r in case I, -r in case II.
    """

    r: int
    p: tuple[int, ...]
    sum_p: int
    d: int
    h: int
    case: Case
    sigma: Fraction
    lambda_exponent: int

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "p": list(self.p),
            "sum_p": self.sum_p,
            "d": self.d,
            "h": self.h,
            "case": self.case.value,
            "sigma": str(self.sigma),
            "lambda_exponent": self.lambda_exponent,
        }


def dependency_solution(data: ExponentData) -> tuple[int, tuple[int, ...]]:
    """The minimal integer relation r and p, from the numerators q_j of the
    basis expansion over det = det M'; needs only hypothesis ii).

    Every denominator of x_j = q_j / det divides det, and the lcm of the
    reduced ones, |det| / gcd(det, q_j), is |det| / gcd(det, *q) prime by
    prime.  So r = det / g and p_j = r * x_j = q_j / g, with g = gcd(det, *q)
    carrying the sign of det, and no smaller positive r gives an integer
    relation.
    """
    analysis = data.analysis
    if not analysis.basis_ok:
        raise HypothesisError("; ".join(analysis.failure_messages()))
    d, q = analysis.det_m_prime, analysis.relation_numerators
    g = math.gcd(d, *q) if d > 0 else -math.gcd(d, *q)
    return d // g, tuple(x // g for x in q)


def dependency(data: ExponentData) -> DependencyData:
    """Full case analysis; requires both hypotheses."""
    report = validate_hypotheses(data)
    if not report.passed:
        raise HypothesisError("; ".join(report.failure_messages()))
    r, p = dependency_solution(data)
    sum_p = sum(p)
    side_nonpos = r - sum(x for x in p if x <= 0)
    side_pos = sum(x for x in p if x > 0)
    if side_nonpos == side_pos:
        # Equality would force det of the bordered matrix to vanish, which
        # hypothesis i) has already excluded.
        raise ContractError(f"degenerate case split r - sum(p_j <= 0) = sum(p_j > 0) = {side_pos}")
    d = min(side_nonpos, side_pos)
    h = max(side_nonpos, side_pos) - d
    case = Case.CASE_I if side_nonpos > side_pos else Case.CASE_II
    sigma = Fraction(r, r - sum_p)
    return DependencyData(
        r=r,
        p=p,
        sum_p=sum_p,
        d=d,
        h=h,
        case=case,
        sigma=sigma,
        lambda_exponent=r if case is Case.CASE_I else -r,
    )


@dataclass(frozen=True)
class DetIdentityReport:
    """Both sides of det(M~) = (-1)^(n+1) * (1 - sum_p/r) * det(M') plus the
    determinant route to sigma."""

    det_m_prime: int
    det_m_tilde: int
    predicted_det_m_tilde: Fraction
    identity_holds: bool
    sigma_from_determinants: Fraction
    sigma_matches: bool
    passed: bool

    def to_json(self) -> dict:
        return {
            "det_m_prime": str(self.det_m_prime),
            "det_m_tilde": str(self.det_m_tilde),
            "predicted_det_m_tilde": str(self.predicted_det_m_tilde),
            "identity_holds": self.identity_holds,
            "sigma_from_determinants": str(self.sigma_from_determinants),
            "sigma_matches": self.sigma_matches,
            "passed": self.passed,
        }


def det_identity_check(data: ExponentData, dep: DependencyData) -> DetIdentityReport:
    """Check the determinant identity exactly, with the relation r, p from
    dep, and compare dep.sigma with sigma = (-1)^(n+1) * det M' / det M~.

    dep comes from dependency(data), which needs hypothesis i), so det M~ is
    not 0.
    """
    d_prime = data.analysis.det_m_prime
    d_tilde = data.analysis.det_m_tilde
    # On ints: the identity times r, whose right side over r is the prediction.
    signed_prime = -d_prime if data.n % 2 == 0 else d_prime
    predicted_times_r = signed_prime * (dep.r - dep.sum_p)
    identity_holds = d_tilde * dep.r == predicted_times_r
    sigma_det = Fraction(signed_prime, d_tilde)
    sigma_matches = dep.sigma == sigma_det
    return DetIdentityReport(
        det_m_prime=d_prime,
        det_m_tilde=d_tilde,
        predicted_det_m_tilde=Fraction(predicted_times_r, dep.r),
        identity_holds=identity_holds,
        sigma_from_determinants=sigma_det,
        sigma_matches=sigma_matches,
        passed=identity_holds and sigma_matches,
    )
