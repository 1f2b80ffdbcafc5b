"""Connection data sigma, tau and the operator lam * nabla on monomial classes.

For a monomial mu = x^beta of total degree k the classes of the n+2 products
monomial_j * mu are recovered from a[mu] and the scaled b[mu] through the
bordered exponent matrix: inverting it, the last product reads off as
sigma * a[mu] + tau * b[mu].  Everything exported here multiplies the
connection by lam once, so each formula is polynomial in lam and 1/lam and
the 1/lam in nabla itself is stated explicitly in rendered reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import ABElement, conj_b, homogeneous_components
from .errors import HypothesisError, InputError
from .exact import Rat, check_coefficient, check_int
from .exponents import ExponentData


@dataclass(frozen=True)
class MonomialMu:
    """Exponent vector of the reference monomial mu = x^beta."""

    beta: tuple[int, ...]

    def __post_init__(self):
        beta = tuple(self.beta)
        object.__setattr__(self, "beta", beta)
        for entry in beta:
            check_int(entry, "beta entry", 0)

    @classmethod
    def unit(cls, n: int) -> "MonomialMu":
        """The constant monomial 1 in n+1 variables."""
        return cls(beta=(0,) * (n + 1))

    @property
    def k(self) -> int:
        return sum(self.beta)

    def to_json(self) -> dict:
        return {"beta": list(self.beta), "k": self.k}


PDE_RAW = "-lam*d/dlam d/ds phi = sigma*d(s*phi)/ds + (tau - k)*phi"
PDE_NORMALIZED = "lam*d/dlam d/ds phi = alpha*s*d(phi)/ds + beta*phi"


@dataclass(frozen=True)
class SigmaTau:
    """Connection data at mu and its period integral PDE: expanding and
    negating PDE_RAW gives PDE_NORMALIZED with alpha = -sigma and
    beta = k - sigma - tau, the coefficients the expansion propagator uses.
    """

    sigma: Rat
    tau: Rat
    mu: MonomialMu

    def __post_init__(self):
        check_coefficient(self.sigma)
        check_coefficient(self.tau)

    @property
    def alpha(self) -> Rat:
        return -self.sigma

    @property
    def beta(self) -> Rat:
        return self.mu.k - self.sigma - self.tau

    def to_json(self) -> dict:
        """The connection block of the analyze report, without nabla."""
        return {
            "sigma": str(self.sigma),
            "tau": str(self.tau),
            "k": self.mu.k,
            "pde": {
                "raw": PDE_RAW,
                "normalized": PDE_NORMALIZED,
                "alpha": str(self.alpha),
                "beta": str(self.beta),
            },
            "mu": self.mu.to_json(),
        }


def sigma_tau(data: ExponentData, mu: MonomialMu) -> SigmaTau:
    """Read sigma and tau off the last row of the inverted bordered matrix."""
    if len(mu.beta) != data.n + 1:
        raise InputError(f"mu must have {data.n + 1} entries, got {len(mu.beta)}")
    row = data.analysis.inverse_last_row
    if row is None:
        raise HypothesisError("bordered exponent matrix is singular; hypothesis i) fails")
    sigma = row[0]
    tau = sum((row[i + 1] * (mu.beta[i] + 1) for i in range(data.n + 1)), Fraction(0))
    return SigmaTau(sigma=sigma, tau=tau, mu=mu)


def nabla_formula(st: SigmaTau) -> ABElement:
    """The operator N with lam * nabla([mu]) = N [mu], i.e. N = -(sigma*a + (tau - k*sigma)*b)."""
    return ABElement._linear(-st.sigma, st.mu.k * st.sigma - st.tau)


def push_nabla(q: ABElement, st: SigmaTau) -> ABElement:
    """Apply lam * nabla to Q [mu] for Q with Laurent coefficients in lam.

    Differentiating the coefficient contributes lam * c'(lam) * b * Q; moving
    nabla through the word conjugates every generator by b and lands on
    nabla([mu]) itself.  Both contributions stay polynomial in lam, 1/lam.
    """
    theta_part = ABElement.gen_b() * q.theta()
    return theta_part + conj_b(q) * nabla_formula(st)


def push_nabla_via_shift(q: ABElement, st: SigmaTau) -> ABElement:
    """Same operator, computed through the degree shift instead of conjugation.

    For a homogeneous piece T of degree g the conjugation route collapses to
    the closed form -(sigma*a + (tau - (k+g)*sigma)*b) * T, so the two
    implementations must agree term for term.
    """
    result = ABElement.gen_b() * q.theta()
    for degree, part in homogeneous_components(q):
        shift = st.tau - (st.mu.k + degree) * st.sigma
        op = ABElement._linear(-st.sigma, -shift)
        result = result + op * part
    return result


def pde_coefficients(st: SigmaTau) -> SigmaTau:
    """The PDE coefficients alpha and beta at mu, which SigmaTau carries."""
    return st
