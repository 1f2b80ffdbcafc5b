"""Connection data sigma, tau and the operator lam * nabla on monomial classes.

For a monomial mu = x^beta of total degree k the classes of the n+2 products
monomial_j * mu are recovered from a[mu] and the scaled b[mu] through the
bordered exponent matrix: inverting it, the last product reads off as
sigma * a[mu] + tau * b[mu].  Everything exported here multiplies the
connection by lam once, so each formula is polynomial in lam and 1/lam and
the 1/lam in nabla itself is stated explicitly in rendered reports.

Every value here is formed from integer numerators with one reduction each,
by ``exact._fraction`` or ``ABElement._linear``: sigma and tau from the
numerators of the inverse row over det M~, beta and each linear operator
(na*a + nb*b)/den from sigma = sn/sd and tau = tn/td over sd*td, and alpha
is -sigma.  ``SigmaTau.to_json`` writes the texts of alpha and beta from
those integer parts, without building either Fraction.

The two lam*nabla routes share no helper.  ``push_nabla`` runs its own T
pass on each row of Q.  ``push_nabla_via_shift`` adds (-sigma*a)*Q, a shift
of the a powers, to b*R through ``ABElement._plus``, and only b*R goes
through the general product, whose T pass is the product's own loop;
so criterion 7, which compares the routes, still holds two separate loops
to one another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .algebra import ABElement, FlatKey, Rows
from .exact import _fraction, check_coefficient
from .exponents import ExponentData, MonomialMu


PDE_RAW = "-lam*d/dlam d/ds phi = sigma*d(s*phi)/ds + (tau - k)*phi"
PDE_NORMALIZED = "lam*d/dlam d/ds phi = alpha*s*d(phi)/ds + beta*phi"
# the generator b, the left factor of push_nabla_via_shift's one product
_B = ABElement.gen_b()


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

    def _beta_parts(self, k: int) -> tuple[int, int]:
        """The reduced numerator and denominator of beta, given k = mu.k: with sigma = sn/sd
        and tau = tn/td, beta = ((k*sd - sn)*td - tn*sd)/(sd*td), reduced with one gcd."""
        sn, sd, tn, td = self.sigma.numerator, self.sigma.denominator, self.tau.numerator, self.tau.denominator
        bn, bd = (k * sd - sn) * td - tn * sd, sd * td
        g = math.gcd(bn, bd)
        return bn // g, bd // g

    @property
    def alpha(self) -> Fraction:
        return _fraction(-self.sigma.numerator, self.sigma.denominator)

    @property
    def beta(self) -> Fraction:
        return _fraction(*self._beta_parts(self.mu.k))

    def to_json(self) -> dict:
        """The connection block of the analyze report, without nabla."""
        k, an, ad = self.mu.k, -self.sigma.numerator, self.sigma.denominator
        bn, bd = self._beta_parts(k)
        return {
            "sigma": str(self.sigma),
            "tau": str(self.tau),
            "k": k,
            "pde": {
                "raw": PDE_RAW,
                "normalized": PDE_NORMALIZED,
                "alpha": f"{an}/{ad}" if ad != 1 else str(an),
                "beta": f"{bn}/{bd}" if bd != 1 else str(bn),
            },
            "mu": self.mu.to_json(),
        }


def sigma_tau(data: ExponentData, mu: MonomialMu) -> SigmaTau:
    """Read sigma = w_0 / det and tau = sum(w_(i+1) * (beta_i + 1)) / det off the
    numerators w of the last row of M~^-1 over det = det M~.  mu is checked
    first by ``MonomialMu.check_length``, then hypothesis i)."""
    mu.check_length(data.n)
    w, det = data.analysis.inverse_numerators, data.analysis.det_m_tilde
    if w is None:
        raise data.analysis.refusal()
    # tau's numerator sum(w_(i+1) * (beta_i + 1)), as the pairing with beta plus the row's sum
    row = w[1:]
    tau = sum(map(mul, row, mu.beta)) + sum(row)
    return SigmaTau(sigma=_fraction(w[0], det), tau=_fraction(tau, det), mu=mu)


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
    from ``nabla_formula``.

    Q is taken one row at a time: g, the numerators of its terms of degree d
    and lam exponent e, indexed by the a power.  conj_b of the row is
    w = T(g), the backward pass w_p = g_p - (p + 1)*w_(p+1) of ``algebra``
    from the row's largest a power down, at degree d; b times the row is the
    same w at degree d + 1.  With a^p*b^s*a = a^(p+1)*b^s - s*a^p*b^(s+1),
    the row (d + 1, e) of the result is

        na*w_(p-1) + (e*nd + nb - (d - p)*na)*w_p    at a^p*b^(d+1-p)

    for p from 0 to the row's largest a power + 1, over den*nd, formed in
    the same pass as w.
    Each row of the result comes from one row of Q, so its values go
    straight into the flat map, and a row costs one pass over its a powers:
    Q = a*b^(10^9) is two steps.

    ``push_nabla_via_shift`` is the independent route through the product,
    whose b*R runs the same recurrence in ``ABElement.__mul__``.  The two
    keep separate loops rather than one shared T helper: criterion 7
    compares them, and a slip in a shared helper would move both alike.
    """
    n = nabla_formula(st)
    na, nb, nd = n._terms.get((1, 0, 0), 0), n._terms.get((0, 1, 0), 0), n._den
    rows: Rows = {}
    for (i, j, e), c in q._terms.items():
        key = (i + j, e)
        row = rows.get(key)
        if row is None:
            row = rows[key] = {}
        row[i] = c
    nums: dict[FlatKey, int] = {}
    for (d, e), row in rows.items():
        # w is w_(p+1) on entry and w_p after the step; the value at a^(p+1) needs both
        lam_b = e * nd + nb - d * na
        w = 0
        for p in range(max(row), -1, -1):
            v = (lam_b + (p + 1) * na) * w
            w = row.get(p, 0) - (p + 1) * w
            v += na * w
            if v:
                nums[(p + 1, d - p, e)] = v
        v = lam_b * w
        if v:
            nums[(0, d + 1, e)] = v
    return ABElement._make(nums, q._den * nd)


def push_nabla_via_shift(q: ABElement, st: SigmaTau) -> ABElement:
    """Same operator, computed through the degree shift instead of conjugation.

    For the degree-g part Q_g of Q the conjugation route collapses to
    L_g * Q_g with L_g = -(sigma*a + (tau - (k+g)*sigma)*b), so lam*nabla(Q)
    = b*theta(Q) + sum_g L_g*Q_g.  Gathering every b part into one element R,

        push_nabla_via_shift(Q) = (-sigma*a)*Q + b*R,

    where a term c*lam^e*a^i*b^j of Q contributes (e - tau + (k+i+j)*sigma)*c
    to R: e*c from b*theta(Q) and -(tau - (k+i+j)*sigma)*c from L_(i+j).
    Only b*R goes through the general ``ABElement.__mul__``, which takes one
    T pass per row of R.  (-sigma*a)*Q is a plain shift, a^i*b^j ->
    a^(i+1)*b^j: with sigma = sn/sd, each term of Q goes one a power up into
    ``_plus`` on b*R, over Q's denominator times sd with the factor -sn, and
    the sum drops what cancels and reduces.  It never calls ``push_nabla``
    or ``conj_b``, and its T pass is the product's loop, not push_nabla's:
    the two routes keep separate loops, so that a slip in either shows as a
    difference between them instead of moving both alike, and criterion 7
    holds them to agree term for term.
    """
    sn, sd, tn, td = st.sigma.numerator, st.sigma.denominator, st.tau.numerator, st.tau.denominator
    # over sd*td, (e - tau + (k+g)*sigma) is e*sd*td + g*sn*td + (k*sn*td - tn*sd) at degree g
    den, per_degree, at_zero = sd * td, sn * td, st.mu.k * sn * td - tn * sd
    # R over q._den*sd*td, the terms whose factor is 0 left out
    r = {(i, j, e): v for (i, j, e), n in q._terms.items()
         if (v := (e * den + (i + j) * per_degree + at_zero) * n)}
    br = _B * ABElement._make(r, q._den * den)
    # (-sigma*a)*Q: Q's numerators one a power up over q._den*sd, times -sn
    return br._plus((((i + 1, j, e), n) for (i, j, e), n in q._terms.items()), q._den * sd, -sn)


def pde_coefficients(st: SigmaTau) -> SigmaTau:
    """The PDE coefficients alpha and beta at mu, which SigmaTau carries."""
    return st
