"""Seeded workloads for the lamconn benchmark: inputs, the timed op, and its checks.

Each workload is a closed loop of ops against lamconn's public API.  Inputs
come from ``inputs(seed)``, an endless generator that is a pure function of
the seed.  It is stratified: every block of draws holds the same mix of the
input shapes that set an op's cost (layout size, operator degree, table
size), in a seeded order, with seeded values inside each shape.  Different
seeds then give different inputs with the same cost profile, which keeps the
median and the tail steady across seeds.

``run(lc, inp)`` is the op that is timed.  ``lc`` is the imported lamconn
package; every call goes through its attributes so that a traced run can
rebind them.  ``check(lc, inp, out)`` runs outside the timed interval and
returns None when the output is right, or a short description of the first
thing that is wrong.  ``corrupt(lc, out)`` returns a deliberately wrong copy
of a good output, which ``check`` must reject.  ``fingerprint(out)`` is a
text the op already rendered that pins the whole output, so a rerun of a
checked op can be compared with it cheaply.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"lamconn-bench/{workload}/{seed}")


def _small_rat(rng: random.Random, num_bound: int, den_bound: int) -> Fraction:
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def _bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def int_rank_det(rows: list[list[int]]) -> tuple[int, int]:
    """Rank and determinant (0 unless square and full rank) of an integer matrix.

    Fraction-free (Bareiss) elimination on Python ints: every division is
    exact, so this is an oracle independent of lamconn's Fraction
    eliminations.
    """
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    sign, prev, rk = 1, 1, 0
    for col in range(ncols):
        pivot = next((r for r in range(rk, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        if pivot != rk:
            m[rk], m[pivot] = m[pivot], m[rk]
            sign = -sign
        top = m[rk]
        for r in range(rk + 1, nrows):
            row = m[r]
            lead = row[col]
            for c in range(col + 1, ncols):
                row[c] = (row[c] * top[col] - lead * top[c]) // prev
            row[col] = 0
        prev = top[col]
        rk += 1
        if rk == nrows:
            break
    det = sign * prev if rk == nrows == ncols else 0
    return rk, det


# --------------------------------------------------------------------------
# layouts: the analyze pipeline on one exponent layout per op
# --------------------------------------------------------------------------

LAYOUT_MAX_N = 5
LAYOUT_MAX_ENTRY = 30
# Per block of 10 draws: two of each n = 1..5, one constructed to fail
# hypothesis i) and one constructed to fail hypothesis ii).
LAYOUT_BLOCK = [n for n in range(1, LAYOUT_MAX_N + 1) for _ in range(2)]
LAYOUT_CONSTRUCTED = ("fail_i", "fail_ii")


@dataclass(frozen=True)
class LayoutInput:
    n: int
    alphas: tuple[tuple[int, ...], ...]
    mus: tuple[tuple[int, ...], ...]
    constructed: str  # "draw", "fail_i" or "fail_ii"


def _vector(rng: random.Random, size: int, bound: int) -> tuple[int, ...]:
    return tuple(rng.randint(0, bound) for _ in range(size))


def _layout_alphas(rng: random.Random, n: int, kind: str) -> tuple[tuple[int, ...], ...]:
    dim = n + 1
    if kind == "draw":
        return tuple(_vector(rng, dim, LAYOUT_MAX_ENTRY) for _ in range(n + 2))
    if kind == "fail_i":
        # The last exponent is the midpoint of the first two, so the bordered
        # columns are dependent: quasi-homogeneous.
        first = _vector(rng, dim, LAYOUT_MAX_ENTRY)
        second = tuple(x % 2 + 2 * rng.randint(0, (LAYOUT_MAX_ENTRY - x % 2) // 2) for x in first)
        middle = tuple(_vector(rng, dim, LAYOUT_MAX_ENTRY) for _ in range(n - 1))
        last = tuple((x + y) // 2 for x, y in zip(first, second))
        return (first, second) + middle + (last,)
    # fail_ii: the last basis exponent is twice the first, so the basis is dependent.
    first = _vector(rng, dim, LAYOUT_MAX_ENTRY // 2)
    middle = tuple(_vector(rng, dim, LAYOUT_MAX_ENTRY) for _ in range(n - 1))
    last = _vector(rng, dim, LAYOUT_MAX_ENTRY)
    return (first,) + middle + (tuple(2 * x for x in first), last)


def layout_inputs(seed: int):
    rng = _rng("layouts", seed)
    seen: set[tuple[tuple[int, ...], ...]] = set()
    while True:
        kinds = ["draw"] * len(LAYOUT_BLOCK)
        for slot, kind in zip(rng.sample(range(len(LAYOUT_BLOCK)), 2), LAYOUT_CONSTRUCTED):
            kinds[slot] = kind
        block = list(zip(LAYOUT_BLOCK, kinds))
        rng.shuffle(block)
        for n, kind in block:
            while True:
                alphas = _layout_alphas(rng, n, kind)
                if len(set(alphas)) == n + 2 and any(alphas[-1]) and alphas not in seen:
                    break
            seen.add(alphas)
            mus = tuple(_vector(rng, n + 1, 3) for _ in range(3))
            yield LayoutInput(n=n, alphas=alphas, mus=mus, constructed=kind)


def layout_run(lc, inp: LayoutInput) -> dict:
    data = lc.ExponentData(n=inp.n, alphas=inp.alphas)
    report = lc.validate_hypotheses(data)
    try:
        dep = lc.dependency(data)
    except lc.HypothesisError as exc:
        return {"report": report, "rejected": str(exc)}
    connection = []
    for beta in inp.mus:
        st = lc.sigma_tau(data, lc.MonomialMu(beta=beta))
        connection.append((st, lc.nabla_formula(st), lc.pde_coefficients(st)))
    det_report = lc.det_identity_check(data, dep)
    family = lc.match_family(data)
    payload = {
        "hypotheses": report.to_json(),
        "dependency": dep.to_json(),
        "connection": [
            {**pde.to_json(), "mu": st.mu.to_json(), "nabla": str(nabla)}
            for st, nabla, pde in connection
        ],
        "determinant_identity": det_report.to_json(),
    }
    if family is not None:
        payload["family"] = family.to_json()
    return {
        "report": report,
        "dep": dep,
        "connection": connection,
        "det": det_report,
        "family": family,
        "payload": json.dumps(payload),
    }


def _layout_oracle(inp: LayoutInput) -> tuple[int, int, int, int]:
    n, alphas = inp.n, inp.alphas
    bordered = [[1] * (n + 2)] + [[a[i] for a in alphas] for i in range(n + 1)]
    basis = [[a[i] for a in alphas[: n + 1]] for i in range(n + 1)]
    rk_tilde, det_tilde = int_rank_det(bordered)
    rk_prime, det_prime = int_rank_det(basis)
    return rk_tilde, det_tilde, rk_prime, det_prime


def layout_check(lc, inp: LayoutInput, out: dict) -> str | None:
    n = inp.n
    rk_tilde, det_tilde, rk_prime, det_prime = _layout_oracle(inp)
    report = out["report"]
    if (report.rank_m_tilde, report.rank_m_prime) != (rk_tilde, rk_prime):
        return f"ranks {(report.rank_m_tilde, report.rank_m_prime)} != {(rk_tilde, rk_prime)}"
    messages = []
    if rk_tilde < n + 2:
        messages.append(f"hypothesis i) fails: rank {rk_tilde} < {n + 2}")
    if rk_prime < n + 1:
        messages.append(f"hypothesis ii) fails: rank {rk_prime} < {n + 1}")
    if inp.constructed == "fail_i" and rk_tilde == n + 2:
        return "constructed quasi-homogeneous layout has full bordered rank"
    if inp.constructed == "fail_ii" and rk_prime == n + 1:
        return "constructed dependent basis has full rank"
    if messages:
        expected = "; ".join(messages)
        if out.get("rejected") != expected:
            return f"expected HypothesisError {expected!r}, got {out.get('rejected')!r}"
        return None
    if "rejected" in out:
        return f"valid layout rejected: {out['rejected']}"

    dep = out["dep"]
    last = inp.alphas[-1]
    relation = all(
        dep.r * last[i] == sum(p * a[i] for p, a in zip(dep.p, inp.alphas)) for i in range(n + 1)
    )
    if dep.r < 1 or not relation or math.gcd(dep.r, *dep.p) != 1:
        return f"relation r={dep.r}, p={dep.p} is not the minimal integer relation"
    sign = (-1) ** (n + 1)
    sigma_relation = Fraction(dep.r, dep.r - sum(dep.p))
    sigma_dets = Fraction(sign * det_prime, det_tilde)
    det_report = out["det"]
    routes = {dep.sigma, sigma_relation, sigma_dets, det_report.sigma_from_determinants}
    routes.update(st.sigma for st, _, _ in out["connection"])
    if len(routes) != 1:
        return f"sigma routes disagree: {sorted(str(x) for x in routes)}"
    if (det_report.det_m_prime, det_report.det_m_tilde) != (det_prime, det_tilde):
        return "determinants differ from the integer oracle"
    if not det_report.passed or det_tilde != sign * (1 - Fraction(sum(dep.p), dep.r)) * det_prime:
        return "determinant identity fails"
    for st, nabla, pde in out["connection"]:
        k = sum(st.mu.beta)
        if pde.alpha != -st.sigma or pde.beta != k - st.sigma - st.tau:
            return f"pde coefficients inconsistent for mu {st.mu.beta}"
        if nabla != lc.ABElement({(1, 0): -st.sigma, (0, 1): k * st.sigma - st.tau}):
            return f"nabla formula wrong for mu {st.mu.beta}"
    payload = json.loads(out["payload"])
    if payload["dependency"]["sigma"] != str(dep.sigma):
        return "payload sigma differs"
    return None


def layout_corrupt(lc, out: dict) -> dict:
    if "rejected" in out:
        return {**out, "rejected": out["rejected"] + " "}
    return {**out, "dep": replace(out["dep"], sigma=out["dep"].sigma + 1)}


def layout_fingerprint(out: dict) -> str:
    return out["rejected"] if "rejected" in out else out["payload"]


def layout_coeff_bits(out: dict) -> int:
    if "rejected" in out:
        return 0
    values = [out["dep"].sigma, out["det"].det_m_prime, out["det"].det_m_tilde]
    for st, _, _ in out["connection"]:
        values += [st.sigma, st.tau]
    return max(_bits(x) for x in values)


# --------------------------------------------------------------------------
# operators: family operators times linear factors, pushed through lam*nabla
# --------------------------------------------------------------------------

OPERATOR_ROOT_COUNTS = range(2, 7)
OPERATOR_BLOCK = [(kind, count) for kind in ("A", "B") for count in OPERATOR_ROOT_COUNTS]


@dataclass(frozen=True)
class OperatorInput:
    kind: str
    params: tuple[int, ...]
    roots: tuple[Fraction, ...]
    beta: tuple[int, ...]


def _family_params(rng: random.Random, kind: str) -> tuple[int, ...]:
    # Outside the selftest grids: A there has u, v, w <= 4 and B has p, q, u, v in 1..4.
    while True:
        if kind == "A":
            params = tuple(rng.randint(1, 6) for _ in range(3))
            if max(params) > 4:
                return params
        else:
            params = (rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 5), rng.randint(0, 5))
            if params[2] + params[3] >= 1 and (max(params) > 4 or min(params) == 0):
                return params


def operator_inputs(seed: int):
    rng = _rng("operators", seed)
    while True:
        block = list(OPERATOR_BLOCK)
        rng.shuffle(block)
        for kind, count in block:
            yield OperatorInput(
                kind=kind,
                params=_family_params(rng, kind),
                roots=tuple(_small_rat(rng, 9, 9) for _ in range(count)),
                beta=_vector(rng, 3, 3),
            )


def operator_run(lc, inp: OperatorInput) -> dict:
    build = lc.family_a if inp.kind == "A" else lc.family_b
    family = build(*inp.params)
    validation = lc.cross_validate(family)
    st = lc.sigma_tau(family.exponents, lc.MonomialMu(beta=inp.beta))
    product = family.full_operator * lc.linear_factor_product(inp.roots)
    pushed = lc.push_nabla(product, st)
    shifted = lc.push_nabla_via_shift(product, st)
    text = str(pushed)
    parsed = lc.ABElement.parse(text)
    return {
        "family": family,
        "validation": validation,
        "st": st,
        "product": product,
        "pushed": pushed,
        "shifted": shifted,
        "text": text,
        "parsed": parsed,
    }


def _left_factor(lc, st, degree: int):
    """-(sigma*a + (tau - (k + degree)*sigma)*b): lam*nabla on a uniform operator of that degree."""
    shift = st.tau - (sum(st.mu.beta) + degree) * st.sigma
    return lc.ABElement({(1, 0): -st.sigma, (0, 1): -shift})


def operator_check(lc, inp: OperatorInput, out: dict) -> str | None:
    family, st = out["family"], out["st"]
    if not out["validation"].passed:
        return f"cross validation fails for {family.label()}"
    if out["pushed"] != out["shifted"]:
        return "push_nabla differs from push_nabla_via_shift"
    if out["parsed"] != out["pushed"]:
        return "parse(str(x)) != x"
    bare = family.full_operator
    top_degree = len(family.roots_top)
    if lc.push_nabla(bare, st) != _left_factor(lc, st, top_degree) * bare:
        return f"no uniform left factor on the bare operator {family.label()}"
    degree = top_degree + len(inp.roots)
    if out["product"].degree() != degree:
        return f"product has degree {out['product'].degree()}, expected {degree}"
    if out["pushed"] != _left_factor(lc, st, degree) * out["product"]:
        return "pushed product is not the uniform left factor times the product"
    return None


def operator_corrupt(lc, out: dict) -> dict:
    return {**out, "parsed": out["parsed"] + lc.ABElement.one()}


def operator_fingerprint(out: dict) -> str:
    return out["text"]


def operator_coeff_bits(out: dict) -> int:
    return max(
        (_bits(c) for poly in out["pushed"].terms.values() for c in poly.terms.values()),
        default=0,
    )


# --------------------------------------------------------------------------
# expansions: log-coefficient propagation, verification and rendering
# --------------------------------------------------------------------------

EXPANSION_SHAPES = [(count, depth) for count in (1, 2, 3) for depth in range(5)]
# Every block holds the same slots, so every block costs about the same: the
# shapes (rho count, N), orders M = 20..80 in even steps paired with them by a
# fixed scramble, and the denominators of the rhos, alpha and beta, which set
# how fast coefficients grow.  The seed draws the numerators, the seed
# constants and the order of the slots.
EXPANSION_BLOCK = [
    (
        count,
        depth,
        20 + round(60 * (7 * j % len(EXPANSION_SHAPES)) / (len(EXPANSION_SHAPES) - 1)),
        tuple(1 + (j + 2 * i) % 6 for i in range(count)),
        1 + 2 * j % 5,
        1 + 3 * j % 5,
    )
    for j, (count, depth) in enumerate(EXPANSION_SHAPES)
]


@dataclass(frozen=True)
class ExpansionInput:
    rhos: tuple[Fraction, ...]
    log_depth: int
    order: int
    alpha: Fraction
    beta: Fraction
    seed: tuple[tuple[tuple[int, int, int], Fraction], ...]


def _coprime_numerator(rng: random.Random, low: int, high: int, den: int) -> int:
    while True:
        num = rng.randint(low, high)
        if num and math.gcd(num, den) == 1:
            return num


def _rhos(rng: random.Random, dens: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Exponents in (-1, 2] with the given reduced denominators, pairwise non-congruent mod 1."""
    while True:
        rhos = tuple(Fraction(_coprime_numerator(rng, 1 - den, 2 * den, den), den) for den in dens)
        if all((x - y).denominator != 1 for i, x in enumerate(rhos) for y in rhos[:i]):
            return rhos


def expansion_inputs(seed: int):
    rng = _rng("expansions", seed)
    while True:
        block = list(EXPANSION_BLOCK)
        rng.shuffle(block)
        for count, depth, order, rho_dens, alpha_den, beta_den in block:
            # Every ladder gets nonzero constants at order 0 at its top depth,
            # so each table is dense, and at depth 0.
            seed_map = {
                (i, k, 0): _small_rat(rng, 6, 6) or Fraction(1) for i in range(count) for k in {0, depth}
            }
            yield ExpansionInput(
                rhos=_rhos(rng, rho_dens),
                log_depth=depth,
                order=order,
                alpha=Fraction(_coprime_numerator(rng, -5, 5, alpha_den), alpha_den),
                beta=Fraction(_coprime_numerator(rng, -5, 5, beta_den), beta_den),
                seed=tuple(sorted(seed_map.items())),
            )


def expansion_run(lc, inp: ExpansionInput) -> dict:
    spec = lc.ExpansionSpec(
        rhos=inp.rhos, log_depth=inp.log_depth, order=inp.order, alpha=inp.alpha, beta=inp.beta
    )
    table = lc.propagate(spec, dict(inp.seed))
    report = lc.verify_table(spec, table)
    return {
        "table": table,
        "report": report,
        "json": json.dumps(table.to_json()),
        "csv": table.to_csv(),
    }


def expansion_check(lc, inp: ExpansionInput, out: dict) -> str | None:
    if not out["report"].passed:
        return f"verify_table finds {len(out['report'].residuals)} nonzero residuals"
    table = out["table"]
    seed = dict(inp.seed)
    keys = [
        (i, k, m)
        for i in range(len(inp.rhos))
        for k in range(inp.log_depth + 1)
        for m in range(inp.order + 1)
    ]
    if sorted(table.entries) != keys:
        return "table keys do not cover i, k <= N, m <= M exactly"
    for key in keys:
        poly = table.entries[key]
        if poly.constant_term() != seed.get(key, 0):
            return f"constant term at {key} is {poly.constant_term()}, seed {seed.get(key, 0)}"
        if poly.degree() > key[2]:
            return f"degree {poly.degree()} > m at {key}"
    if len(json.loads(out["json"])["table"]) != len(keys):
        return "json table size differs"
    if sum(1 for _ in csv.reader(io.StringIO(out["csv"]))) != len(keys) + 1:
        return "csv row count differs"
    return None


def expansion_corrupt(lc, out: dict) -> dict:
    table = out["table"]
    key = max(table.entries)
    entries = {**table.entries, key: table.entries[key] + lc.LogPoly.const(1)}
    return {**out, "table": replace(table, entries=entries)}


def expansion_fingerprint(out: dict) -> str:
    return out["json"]


def expansion_coeff_bits(out: dict) -> int:
    return max(
        (_bits(c) for poly in out["table"].entries.values() for c in poly.coeffs.values()),
        default=0,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], Iterator]
    run: Callable
    check: Callable
    corrupt: Callable
    fingerprint: Callable[[dict], str]
    coeff_bits: Callable[[dict], int]
    block_size: int  # the stratification block of inputs()
    block_seconds: float  # op time of one block at the seed commit, which sizes a run
    warmup_ops: int
    traced_ops: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "layouts",
            layout_inputs,
            layout_run,
            layout_check,
            layout_corrupt,
            layout_fingerprint,
            layout_coeff_bits,
            block_size=len(LAYOUT_BLOCK),
            block_seconds=0.042,
            warmup_ops=10,
            traced_ops=500,
        ),
        Workload(
            "operators",
            operator_inputs,
            operator_run,
            operator_check,
            operator_corrupt,
            operator_fingerprint,
            operator_coeff_bits,
            block_size=len(OPERATOR_BLOCK),
            block_seconds=0.109,
            warmup_ops=10,
            traced_ops=150,
        ),
        Workload(
            "expansions",
            expansion_inputs,
            expansion_run,
            expansion_check,
            expansion_corrupt,
            expansion_fingerprint,
            expansion_coeff_bits,
            block_size=len(EXPANSION_BLOCK),
            block_seconds=0.65,
            warmup_ops=5,
            traced_ops=45,
        ),
    )
}
