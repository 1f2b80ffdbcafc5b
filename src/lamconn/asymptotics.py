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
in L instead of lam.  ``propagate`` runs the recurrence once per seed chain:
ladder i together with one seeded order m0.  The L^e coefficient of
c[i,k,m] comes only from the chain with m0 = m - e, so chains never add to
each other, and a chain carries one number per depth k <= K, its top seeded
depth.  With rho = rn/rd, z = lcm(den alpha, den beta) and
s = (m + 1)*rd + rn, so that m + rho + 1 = s/rd, the step from order m holds

    f = Fn/(z*s),  a = An/(z*s),  g = -rd/s,
    Fn = alpha*z*(m*rd + rn) + beta*z*rd,  An = alpha*z*rd

(alpha*z and beta*z are integers).  The chain keeps integer numerators V[k]
over E*P*L^(K-k), starting from E = the lcm of the seed denominators and
P = L = 1.  A step takes gamma = gcd(L, s), lam = s/gamma, back = L/gamma and,
for k = K..0 with j = K - k and W[K+1] = V[K+1] = 0,

    W[k] = lam^j * (Fn*V[k] + An*L*V[k+1]) - rd*back*W[k+1],

which is D[k] over z*E*P*s*(L*lam)^j; dividing by e + 1 integrates.  Then
E <- E*z*(e+1), divided together with the W by the small
gcd(z*(e+1), W[0], ..., W[K]), P <- P*s, L <- L*lam (the lcm of the s so
far) and V <- W, and each emitted coefficient is one reduced
Fraction(V[k], E*P*L^(K-k)), built only for a nonzero V[k] by
``exact._fraction``: one gcd, and the reduced parts set straight into the
two slots that Fraction keeps, without Fraction's own constructor.  The
inner loop needs no big gcd.  When the bit length of E*P*L^K
passes twice that of the widest reduced denominator plus 256, as
telescoping chains (beta a multiple of alpha) make it, the chain
renormalizes: E becomes the lcm of the reduced denominators, P = L = 1, and
each V[k] is rescaled to the new E.

A chain writes each coefficient straight into its ladder's rows, one term
dict per depth and order, and ``propagate`` makes the table's cells of those
dicts once every chain has run.  A coefficient past Python's int/str digit
limit is refused in the step that makes it, by one test per step after the
seeds: a reduced coefficient's numerator is at most |V[k]| and its
denominator at most E*P*L^K, so when none of these has as many bits as
10**limit, no coefficient of the step can reach it, and only otherwise is
each coefficient compared with it.

``verify_table`` substitutes the table back into the relation above with
code of its own, summing each residual straight from the cells' terms.
The residual at (i, k, m) is X[k] + Y[k+1], where

    X[k] = (m + rho + 1)*D[k,m+1] - (alpha*(m + rho) + beta)*c[k,m],
    Y[k] = D[k,m+1] - alpha*c[k,m]

read the same two cells.  At L^e the relation ties c[k,m] at L^e only to
c[k,m+1] at L^(e+1) and to depth k+1 at the same m and e, so every
coefficient that a residual reads lies on one diagonal d = m - e; this is
a property of the relation, not of ``propagate``.  One pass over a
ladder's cells puts each term in a degree -> coefficient map by diagonal
and depth.  Each diagonal is then walked at every degree e with
0 <= d + e < M at which some depth has a term at e or e + 1, from the top
depth down.  With S = rd*ad*bd, one small denominator per ladder, the
factors m + rho + 1, alpha*(m + rho) + beta and alpha are integer
numerators over S.  With c[k,m+1] = n1/d1 at L^(e+1) and c[k,m] = n2/d2 at
L^e (an absent term is 0/1), read from their two parts, A = (e+1)*n1*d2,
B = n2*d1 and P = d1*d2, and X[k] and Y[k] are small-integer combinations
of A and B over S*P.  The walk carries Y and P of the depth above, Q, so
the residual at L^e is one cross product X[k]*Q + Y[k+1]*P over S*P*Q.
It needs only a zero test, so the sum is never reduced, and a Fraction is
built only for a residual that is not zero.

A table is rendered once.  The first ``to_json`` or CSV call builds its
cell text in ``ExpansionTable._cell_text``, a cached property kept for as
long as the table lives: for each cell in (i, k, m) order, the "i,k,m"
text and the degree -> coefficient text, which ``LogPoly.to_json`` writes
as "n/d", or "n" when d is 1, from each coefficient's two parts.  So each
coefficient is converted to decimal once however many formats are written.
``to_json`` returns those cell dicts themselves, read-only, in a new
"table" dict; ``csv_chunks`` writes each row from them, each run of absent
degrees as one ",0" * gap, and yields the rows in runs of M + 1, one (i, k)
ladder of a propagated table each, which ``to_csv`` joins and the CLI
writes to its file as they come.  Entries are never changed once the table exists.

Exponents are required pairwise non-congruent mod 1: congruent exponents
would couple their ladders and the per-i propagation would no longer be
well defined, so such input is rejected outright.

An expansion input is one JSON object, read by two functions:
``ExpansionSpec.from_json`` reads the spec and bounds its work, and
``seed_from_json`` reads the whole optional "seed" object, its "i,k,m" keys,
the rule that no two keys name one cell, and its rational values.  The CLI
calls them in that order, so a bad spec is reported before a bad seed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, islice, product
from typing import Iterable, Iterator, Mapping

from .errors import DIGIT_LIMIT_MESSAGE, InputError
from .exact import _ZERO, LaurentPoly, _fraction, check_coefficient, check_int, json_object, json_rat, parse_int

SeedKey = tuple[int, int, int]

# Largest N, M and number of rhos that ExpansionSpec.from_json accepts, bounding
# a JSON spec's work up front; they admit N=3, M=720 and N=16, M=400.  Each rho
# is its own ladder of (N + 1) * (M + 1) cells, and all ladders together may
# hold at most MAX_CELLS, the cells of one rho at the largest N and M.  The
# slowest accepted spec measured is that one rho, 1/(10^100 + 1), seeded at
# depths 0 and 16 with alpha 1 and beta 2: its coefficients telescope and stay
# printable, and the CLI prints the whole 31.7 MB table in 7.4 to 8.6 s.
# Seeded the same way with rho 1/3, alpha -7/5 and beta 11/3, propagate
# refuses it at order 236, where a coefficient first passes the 4300-digit
# print limit, 0.5 to 0.6 s into the CLI (Python 3.11, 2-core VM).
MAX_LOG_DEPTH = 16
MAX_ORDER = 720
MAX_EXPONENTS = 4
MAX_CELLS = (MAX_LOG_DEPTH + 1) * (MAX_ORDER + 1)


class LogPoly(LaurentPoly):
    """Polynomial in L = Log(lam/lam0) with Fraction coefficients.

    The sparse storage, arithmetic, equality and text form are LaurentPoly's,
    printed in L; degrees in L are never negative.
    """

    __slots__ = ()

    VAR = "L"

    def __init__(self, coeffs: Mapping[int, Fraction | int] | None = None):
        for e in coeffs or ():
            check_int(e, "log degree", 0)
        super().__init__(coeffs)

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return self.terms

    def degree(self) -> int:
        """Degree in L; the zero polynomial has degree -1 by convention."""
        return max(self._terms, default=-1)

    def constant_term(self) -> Fraction:
        """The value at L = 0."""
        return self.coefficient(0)

    def deriv(self) -> "LogPoly":
        """d/dL, which is lam*d/dlam on coefficient functions of lam."""
        return self._make({e - 1: e * c for e, c in self._terms.items() if e > 0})

    def to_json(self) -> dict[str, str]:
        """Degree -> coefficient text, in ascending degree: each coefficient
        written as str writes a Fraction, "n/d" or "n" when d is 1, straight
        from its two parts."""
        return {
            str(e): f"{c._numerator}/{c._denominator}" if c._denominator != 1 else str(c._numerator)
            for e, c in sorted(self._terms.items())
        }


@dataclass(frozen=True)
class ExpansionSpec:
    """Exponents, log depth, order cutoff and normalized PDE coefficients."""

    rhos: tuple[Fraction, ...]
    log_depth: int
    order: int
    alpha: Fraction
    beta: Fraction

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
        json_object(obj, "expansion", ("rhos", "N", "M", "alpha", "beta"))
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


def seed_from_json(obj) -> dict[SeedKey, Fraction]:
    """The seed of an expansion input: its optional "seed" object, keyed by
    "i,k,m" with three runs of ASCII digits, each key naming a cell
    that no earlier key names, and each value a rational (``json_rat``).

    Without a "seed" the seed is empty.  ``propagate`` checks the cells
    against the spec.
    """
    seed_obj = json_object(obj, "expansion", ()).get("seed", {})
    if not isinstance(seed_obj, dict):
        raise InputError("seed must be an object keyed by 'i,k,m'")
    seed: dict[SeedKey, Fraction] = {}
    for text, value in seed_obj.items():
        parts = text.split(",")
        if len(parts) != 3:
            raise InputError(f"seed key must be 'i,k,m', got {text!r}")
        if not (text.isascii() and all(part.isdecimal() for part in parts)):
            raise InputError(f"seed key must contain integers, got {text!r}")
        key = tuple(map(parse_int, parts))
        if key in seed:
            raise InputError(f"seed key {text!r} names the same cell {key} as an earlier key")
        seed[key] = json_rat(value, f"seed value for {text!r}")
    return seed


@dataclass(frozen=True)
class ExpansionTable:
    """Coefficients c[i,k,m] as polynomials in L, keyed by (i, k, m).

    The entries are not changed once the table exists.  The first to_json,
    to_csv or csv_chunks call renders every cell's key and coefficients to
    text, and both formats read that rendering for the rest of the table's
    life; a copy made with dataclasses.replace renders its own entries.  The
    CSV is written in runs of M + 1 rows, one (i, k) ladder each when the
    table holds every order of its ladders, as a propagated one does.
    """

    spec: ExpansionSpec
    entries: dict[SeedKey, LogPoly]

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

    @cached_property
    def _cell_text(self) -> dict[str, dict[str, str]]:
        """The JSON table block of the entries, built on the first render: each cell's
        "i,k,m" text mapped to its degree -> coefficient text, both in ascending order."""
        return {f"{i},{k},{m}": poly.to_json() for (i, k, m), poly in sorted(self.entries.items())}

    def to_json(self) -> dict:
        """The spec and every cell.  The "table" dict is new on each call, but
        its cell dicts are the table's rendering itself, shared by every call:
        read them, never change them."""
        return {"spec": self.spec.to_json(), "table": dict(self._cell_text)}

    def to_csv(self) -> str:
        """One row per (i, k, m); columns are the coefficients of L^0, L^1, ...

        Lines end in CRLF, as csv's excel dialect writes them.  The text is
        the join of csv_chunks.
        """
        return "".join(self.csv_chunks())

    def csv_chunks(self) -> Iterator[str]:
        """The CSV text of to_csv in pieces: the header line, then the rows in
        runs of M + 1, so that the text can be written as it is made.  A run
        is one (i, k) ladder of a table that ``propagate`` made, which holds
        every order 0..M of each ladder.

        No field can hold a comma, quote or line break, so none is quoted and
        the rows are plain joins; each run of absent degrees is written as one
        ",0" * gap, made once per table for each gap.
        """
        cells = self._cell_text
        width = max((int(next(reversed(cell))) for cell in cells.values() if cell), default=-1) + 1
        yield ",".join(["i", "k", "m"] + [f"L^{e}" for e in range(width)]) + "\r\n"
        zeros = [",0" * gap for gap in range(width + 1)]
        rows = iter(cells.items())
        for run in iter(lambda: list(islice(rows, self.spec.order + 1)), []):
            out: list[str] = []
            for key, cell in run:
                out.append(key)
                top = -1
                for e, c in cell.items():
                    e = int(e)
                    out += zeros[e - top - 1], ",", c
                    top = e
                out += zeros[width - 1 - top], "\r\n"
            yield "".join(out)


def _check_seed(spec: ExpansionSpec, seed: Mapping[SeedKey, Fraction | int]) -> dict[SeedKey, Fraction]:
    clean: dict[SeedKey, Fraction] = {}
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


def _chain(spec: ExpansionSpec, rho: Fraction, m0: int, values: dict[int, Fraction], rows: list, bound: int | None):
    """Write every nonzero L^e coefficient c of c[i,k,m0+e] that the seeds of one
    ladder at order m0, given as {depth: value}, produce into rows[k][m0 + e][e].

    rows holds the ladder's term dicts by depth, then by order.  The values of
    depth k are integer numerators V[k] over E*P*L^(K-k), where K is the top
    seeded depth; see the module docstring for the step.  Each coefficient
    is built from V[k] and that denominator by ``exact._fraction``, and the widest
    reduced denominator, which sets when the chain renormalizes, is read
    from the part it holds.  bound is 10**limit
    for Python's int/str conversion limit, or None for no limit, and a
    coefficient with a numerator or denominator of at least bound is refused.
    Each step after the seeds is tested once: when its depth-0 denominator
    E*P*L^K and every V[k] have fewer bits than bound, none of its
    coefficients can reach it, and only otherwise is each one tested.
    """
    top = max(values)
    rn, rd = rho.numerator, rho.denominator
    an, ad = spec.alpha.numerator, spec.alpha.denominator
    bn, bd = spec.beta.numerator, spec.beta.denominator
    z = math.lcm(ad, bd)
    fa, fb = an * (z // ad), bn * (z // bd) * rd  # alpha*z and beta*z*rd
    room = bound.bit_length() - 1 if bound else math.inf  # an int of at most room bits is below bound
    big_e = math.lcm(*(c.denominator for c in values.values()))
    v = [0] * (top + 2)
    for k, c in values.items():
        v[k] = c.numerator * (big_e // c.denominator)
        rows[k][m0][0] = c
    if bound:
        _check_digits(values.values(), bound)
    big_p = big_l = 1
    for e in range(spec.order - m0):
        m = m0 + e
        s = (m + 1) * rd + rn
        fn = fa * (m * rd + rn) + fb
        gamma = math.gcd(big_l, s)
        lam = s // gamma
        an_l, rd_back = fa * rd * big_l, rd * (big_l // gamma)  # An*L and rd*back
        w = [0] * (top + 2)
        lam_j = 1
        for k in range(top, -1, -1):
            w[k] = lam_j * (fn * v[k] + an_l * v[k + 1]) - rd_back * w[k + 1]
            lam_j *= lam
        if not any(w):
            return  # so is every later order
        step = z * (e + 1)
        g = math.gcd(step, *w)
        if g > 1:
            w = [x // g for x in w]
        big_e *= step // g
        big_p *= s
        big_l *= lam
        v = w
        den = big_e * big_p
        emitted = [_ZERO] * (top + 1)
        widest = 1  # the largest reduced denominator
        for k in range(top, -1, -1):
            if k < top:
                den *= big_l
            if v[k]:
                c = emitted[k] = rows[k][m + 1][e + 1] = _fraction(v[k], den)
                if c._denominator > widest:
                    widest = c._denominator
        if den.bit_length() > room or max(map(int.bit_length, v)) > room:
            _check_digits(emitted, bound)
        if den.bit_length() > 2 * widest.bit_length() + 256:
            big_e = math.lcm(*(c.denominator for c in emitted))
            v = [c.numerator * (big_e // c.denominator) for c in emitted] + [0]
            big_p = big_l = 1


def _check_digits(coefficients: Iterable[Fraction], bound: int) -> None:
    """Refuse the first coefficient whose numerator or denominator reaches bound."""
    for c in coefficients:
        if c.denominator >= bound or abs(c.numerator) >= bound:
            raise InputError(DIGIT_LIMIT_MESSAGE.format(sys.get_int_max_str_digits()))


@lru_cache(maxsize=1)
def _digit_bound(limit: int) -> int | None:
    """10**limit for an int/str conversion limit of limit digits, None for no limit (0).  The
    limit can change between calls, so the bound is kept for the last limit only."""
    return 10**limit if limit else None


def propagate(spec: ExpansionSpec, seed: Mapping[SeedKey, Fraction | int]) -> ExpansionTable:
    """Fill the whole table from the seed constants.

    Missing seed entries default to zero.  The table is the sum of one chain
    per ladder and seeded order, run on integers (see the module docstring);
    the chains fill disjoint degrees of the cells, so each value a chain
    writes is a finished coefficient, put straight into its cell's term dict
    in its ladder's rows.  Every value is nonzero, so once all chains have
    run, each cell's dict becomes its LogPoly uncopied, in (i, k, m) order.
    A coefficient with more digits than Python's int/str conversion limit
    (0: no limit) could not be printed, so it is refused in the step that
    makes it.
    """
    clean_seed = _check_seed(spec, seed)
    bound = _digit_bound(sys.get_int_max_str_digits())
    chains: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, k, m), value in clean_seed.items():
        chains.setdefault((i, m), {})[k] = value
    # every cell, empty ones too, as ladders[i][k][m]
    depths, orders = range(spec.log_depth + 1), range(spec.order + 1)
    ladders = [[[{} for _ in orders] for _ in depths] for _ in spec.rhos]
    for (i, m0), values in sorted(chains.items()):
        _chain(spec, spec.rhos[i], m0, values, ladders[i], bound)
    keys = product(range(len(spec.rhos)), depths, orders)
    cells = chain.from_iterable(chain.from_iterable(ladders))
    return ExpansionTable(spec=spec, entries=dict(zip(keys, map(LogPoly._adopt, cells))))


@dataclass(frozen=True)
class ResidualReport:
    """Exact residuals of the matched-power relation; empty means the table checks out."""

    residuals: dict[SeedKey, LogPoly]

    @property
    def passed(self) -> bool:
        return not self.residuals


def verify_table(spec: ExpansionSpec, table: ExpansionTable) -> ResidualReport:
    """Substitute the table into the relation linking order m to m+1.

    The residual keyed (i, k, m) collects every term of that relation moved
    to one side; an order cutoff of zero verifies vacuously.  It is summed
    straight from the coefficients of the cells involved, with code of its
    own, so that it checks propagate rather than repeating it.  Its L^e
    coefficient reads only the coefficients at diagonal d = m - e: each
    ladder's cells are read once, into one degree -> coefficient map per
    diagonal and depth, and each diagonal is walked degree by degree, each
    degree from the top depth down.  A depth forms X[k] and Y[k] of the
    module docstring over S*P, P its two coefficients' denominators, and the
    residual X[k] + Y[k+1] is one integer cross product over the two depths'
    denominators, never reduced: only its zero test is needed.  A Fraction
    is built only for a degree of a residual that is not zero.
    """
    residuals: dict[SeedKey, dict[int, Fraction]] = {}
    empty = LogPoly.zero()
    an, ad = spec.alpha.numerator, spec.alpha.denominator
    bn, bd = spec.beta.numerator, spec.beta.denominator
    get = table.entries.get
    depths = range(spec.log_depth, -1, -1)
    for i, rho in enumerate(spec.rhos):
        rn, rd = rho.numerator, rho.denominator
        big_s = rd * ad * bd
        ya = an * rd * bd  # alpha = ya/S
        # diagonal d -> its degree -> coefficient maps by depth, top depth first;
        # the coefficient of L^e in c[k,m] is at e in the map of depth k on diagonal m - e
        diagonals: dict[int, list[dict[int, Fraction]]] = {}
        for row, k in enumerate(depths):
            for m in range(spec.order + 1):
                for e, c in get((i, k, m), empty)._terms.items():
                    diagonal = diagonals.get(m - e)
                    if diagonal is None:
                        diagonal = diagonals[m - e] = [{} for _ in depths]
                    diagonal[row][e] = c
        for d, diagonal in diagonals.items():
            degrees = set().union(*diagonal)
            for e in sorted(degrees | {e - 1 for e in degrees}):
                m = d + e
                if e < 0 or not 0 <= m < spec.order:
                    continue
                xa = ((m + 1) * rd + rn) * ad * bd  # m + rho + 1 = xa/S
                xb = an * bd * (m * rd + rn) + bn * ad * rd  # alpha*(m + rho) + beta = xb/S
                y_up, q = 0, 1  # Y and P of the depth above
                for k, terms in zip(depths, diagonal):
                    # c[k,m+1] = n1/d1 at L^(e+1) and c[k,m] = n2/d2 at L^e, absent as 0/1
                    c1, c2 = terms.get(e + 1, _ZERO), terms.get(e, _ZERO)
                    d1, d2 = c1._denominator, c2._denominator
                    a = (e + 1) * c1._numerator * d2
                    b = c2._numerator * d1
                    p = d1 * d2
                    y = big_s * a - ya * b
                    # the residual at L^e is X[k]*Q + Y[k+1]*P over S*P*Q, Q the P of depth k + 1
                    n = (xa * a - xb * b) * q + y_up * p
                    if n:
                        residuals.setdefault((i, k, m), {})[e] = Fraction(n, big_s * p * q)
                    y_up, q = y, p
    return ResidualReport(residuals={key: LogPoly._adopt(terms) for key, terms in residuals.items()})
