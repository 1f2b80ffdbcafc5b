"""Connection data sigma, tau and the operator lam * nabla on monomial classes.

For a monomial mu = x^beta of total degree k the classes of the n+2 products
monomial_j * mu are recovered from a[mu] and the scaled b[mu] through the
bordered exponent matrix: inverting it, the last product reads off as
sigma * a[mu] + tau * b[mu].  Everything exported here multiplies the
connection by lam once, so each formula is polynomial in lam and 1/lam and
the 1/lam in nabla itself is stated explicitly in rendered reports.

Every value here is formed from integer numerators with one reduction each:
sigma and tau from the numerators of the inverse row over det M~, beta and
each linear operator (na*a + nb*b)/den from sigma = sn/sd and tau = tn/td
over sd*td, and alpha is -sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import ABElement, FlatKey, homogeneous_components
from .errors import HypothesisError, InputError
from .exact import check_coefficient, check_int
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

    sigma: Fraction
    tau: Fraction
    mu: MonomialMu

    def __post_init__(self):
        check_coefficient(self.sigma)
        check_coefficient(self.tau)

    @property
    def alpha(self) -> Fraction:
        return -self.sigma

    @property
    def beta(self) -> Fraction:
        sn, sd, tn, td = self.sigma.numerator, self.sigma.denominator, self.tau.numerator, self.tau.denominator
        return Fraction((self.mu.k * sd - sn) * td - tn * sd, sd * td)

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
    """Read sigma = w_0 / det and tau = sum(w_(i+1) * (beta_i + 1)) / det off the
    numerators w of the last row of M~^-1 over det = det M~."""
    if len(mu.beta) != data.n + 1:
        raise InputError(f"mu must have {data.n + 1} entries, got {len(mu.beta)}")
    w, det = data.analysis.inverse_numerators, data.analysis.det_m_tilde
    if w is None:
        raise HypothesisError("; ".join(data.analysis.failure_messages()))
    tau = sum(x * (b + 1) for x, b in zip(w[1:], mu.beta))
    return SigmaTau(sigma=Fraction(w[0], det), tau=Fraction(tau, det), mu=mu)


def nabla_formula(st: SigmaTau) -> ABElement:
    """The operator N with lam * nabla([mu]) = N [mu], i.e. N = -(sigma*a + (tau - k*sigma)*b).

    With sigma = sn/sd and tau = tn/td, N = (-sn*td*a + (k*sn*td - tn*sd)*b) / (sd*td).
    """
    sn, sd, tn, td = st.sigma.numerator, st.sigma.denominator, st.tau.numerator, st.tau.denominator
    return ABElement._linear(-sn * td, st.mu.k * sn * td - tn * sd, sd * td)


def push_nabla(q: ABElement, st: SigmaTau) -> ABElement:
    """Apply lam * nabla to Q [mu] for Q with Laurent coefficients in lam.

    Differentiating the coefficient contributes lam * c'(lam) * b * Q; moving
    nabla through the word conjugates every generator by b and lands on
    nabla([mu]) itself.  Both contributions stay polynomial in lam, 1/lam.
    So the result is b * theta(Q) + conj_b(Q) * N with N = (na*a + nb*b)/nd
    from ``nabla_formula``, summed in one pass over Q's numerators.  With
    w_0 = 1 and w_(t+1) = -w_t*(i - t), conj_b(a^i*b^j) = (a - b)^i*b^j
    = sum_t w_t a^(i-t)*b^(j+t), and b*a^i*b^j has the same w_t with one more
    b; a^p*b^s*a = a^(p+1)*b^s - s*a^p*b^(s+1).  So a term c*lam^e*a^i*b^j
    adds, for t = 0..i with p = i - t and s = j + t, c*w_t*na at (p+1, s, e)
    and c*w_t*(e*nd + nb - s*na) at (p, s+1, e), all over den*nd.
    ``push_nabla_via_shift`` is the independent route through the product.
    """
    n = nabla_formula(st)
    na, nb, nd = n._terms.get((1, 0, 0), 0), n._terms.get((0, 1, 0), 0), n._den
    out: dict[FlatKey, int] = {}
    for (i, j, e), w in q._terms.items():
        lam_b = e * nd + nb
        for t in range(i + 1):
            p, s = i - t, j + t
            key = (p + 1, s, e)
            v = w * na
            out[key] = out[key] + v if key in out else v
            key = (p, s + 1, e)
            v = w * (lam_b - s * na)
            out[key] = out[key] + v if key in out else v
            w = -w * (i - t)
    return ABElement._make(out, q._den * nd)


def push_nabla_via_shift(q: ABElement, st: SigmaTau) -> ABElement:
    """Same operator, computed through the degree shift instead of conjugation.

    For a homogeneous piece T of degree g the conjugation route collapses to
    the closed form -(sigma*a + (tau - (k+g)*sigma)*b) * T, so the two
    implementations must agree term for term.
    """
    sn, sd, tn, td = st.sigma.numerator, st.sigma.denominator, st.tau.numerator, st.tau.denominator
    result = ABElement.gen_b() * q.theta()
    for degree, part in homogeneous_components(q):
        op = ABElement._linear(-sn * td, (st.mu.k + degree) * sn * td - tn * sd, sd * td)
        result = result + op * part
    return result


def pde_coefficients(st: SigmaTau) -> SigmaTau:
    """The PDE coefficients alpha and beta at mu, which SigmaTau carries."""
    return st
