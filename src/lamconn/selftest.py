"""Built-in verification battery.

Each criterion is a self-contained check with its own frozen expectations or
seeded random corpus.  The CLI selftest command runs them all and the test
suite asserts them one by one; every comparison here is exact, no tolerances.
Only after a comparison has failed are both sides flattened into key ->
value maps, and the FAIL detail ends with the first key where they differ
(``exact.first_difference``) and both values there.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Mapping

from .algebra import ABElement, _flat, linear_factor_product, shift_identity_check
from .asymptotics import ExpansionSpec, ExpansionTable, LogPoly, propagate, verify_table
from .errors import InputError
from .connection import MonomialMu, nabla_formula, push_nabla, push_nabla_via_shift, sigma_tau
from .exact import LaurentPoly, det, first_difference
from .exponents import Case, ExponentData, dependency, det_identity_check, validate_hypotheses
from .families import family_a, family_b, cross_validate, monodromy_candidates

QUASI_HOMOGENEOUS_CUBE = {
    "n": 2,
    "alphas": [[3, 0, 0], [0, 3, 0], [0, 0, 3], [1, 1, 1]],
}


@dataclass(frozen=True)
class CriterionResult:
    id: int
    description: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.id:2d} ({self.description}): {self.detail}"


def random_exponent_data(rng: random.Random, max_n: int = 3, bound: int = 9) -> ExponentData:
    """A random exponent layout passing both hypotheses, last column nonzero."""
    while True:
        n = rng.randint(1, max_n)
        alphas = tuple(
            tuple(rng.randint(0, bound) for _ in range(n + 1)) for _ in range(n + 2)
        )
        if len(set(alphas)) != n + 2 or not any(alphas[-1]):
            continue
        data = ExponentData(n=n, alphas=alphas)
        if validate_hypotheses(data).passed:
            return data


def random_rat(rng: random.Random, num_bound: int = 9, den_bound: int = 9) -> Fraction:
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def random_homogeneous(rng: random.Random) -> ABElement:
    degree = rng.randint(0, 4)
    terms = {}
    for i in range(degree + 1):
        if rng.random() < 0.75:
            terms[(i, degree - i)] = random_rat(rng)
    return ABElement(terms)


def random_expansion_spec(rng: random.Random) -> ExpansionSpec:
    while True:
        count = rng.randint(1, 2)
        rhos = []
        for _ in range(count):
            value = Fraction(rng.randint(-3, 12), rng.randint(1, 6))
            if value > -1:
                rhos.append(value)
        if len(rhos) != count:
            continue
        try:
            return ExpansionSpec(
                rhos=tuple(rhos),
                log_depth=rng.randint(0, 3),
                order=rng.randint(0, 8),
                alpha=random_rat(rng, 5, 5),
                beta=random_rat(rng, 5, 5),
            )
        except InputError:
            # congruent exponents drawn; try again
            continue


def random_seed_map(rng: random.Random, spec: ExpansionSpec) -> dict:
    seed = {}
    for _ in range(rng.randint(1, 6)):
        key = (
            rng.randrange(len(spec.rhos)),
            rng.randint(0, spec.log_depth),
            rng.randint(0, spec.order),
        )
        seed[key] = random_rat(rng, 6, 6)
    return seed


def _cells(table: ExpansionTable) -> dict:
    """A log table as its map (i, k, m, e) -> coefficient of L^e in c[i,k,m]."""
    return {(*key, e): c for key, poly in table.entries.items() for e, c in poly.coeffs.items()}


def _failed(detail: str, expected: Mapping, got: Mapping) -> tuple[bool, str]:
    """A failed check whose detail ends with the first key where two flat maps differ."""
    key, x, y = first_difference(expected, got)
    return False, f"{detail}; first difference at {key}: {x} vs {y}"


def _check_golden(result, expected_operator: ABElement, nabla_text: str) -> tuple[bool, str]:
    expected_nabla = ABElement.parse(nabla_text)
    ok_op = result.full_operator == expected_operator
    ok_nabla = result.nabla_one == expected_nabla
    st = sigma_tau(result.exponents, MonomialMu.unit(2))
    route = nabla_formula(st)
    ok_route = route == expected_nabla
    detail = f"operator match {ok_op}, nabla match {ok_nabla}, matrix route {ok_route}"
    compared = ((ok_op, expected_operator, result.full_operator), (ok_nabla, expected_nabla, result.nabla_one),
                (ok_route, expected_nabla, route))
    for ok, expected, got in compared:
        if not ok:
            return _failed(detail, _flat(expected), _flat(got))
    return True, detail


def _check_golden_a() -> tuple[bool, str]:
    lam_m2 = LaurentPoly.lam_power(-2, Fraction(-4))
    inner = linear_factor_product([Fraction(7, 4), Fraction(3, 4)]) + linear_factor_product(
        [Fraction(1)]
    ).scale(lam_m2)
    expected = linear_factor_product([Fraction(5, 2)]) * inner
    return _check_golden(family_a(2, 2, 1), expected, "2*a - 2*b")


def _check_golden_b() -> tuple[bool, str]:
    # Each part split into factor products joined by the general product, as
    # in _check_golden_a, so the one-pass factor product is checked against it.
    lam_p2 = LaurentPoly.lam_power(2, Fraction(-4))
    top = linear_factor_product([Fraction(5, 2)]) * linear_factor_product([Fraction(5, 4), Fraction(3, 4)])
    low = linear_factor_product([Fraction(2)]) * linear_factor_product([Fraction(1)])
    expected = top + low.scale(lam_p2)
    return _check_golden(family_b(2, 2, 1, 1), expected, "-2*a + 3/2*b")


def _check_case_data() -> tuple[bool, str]:
    dep_a = dependency(family_a(2, 2, 1).exponents)
    dep_b = dependency(family_b(2, 2, 1, 1).exponents)
    ok_a = (
        dep_a.case is Case.CASE_II
        and dep_a.sigma == -2
        and (dep_a.r, dep_a.p, dep_a.d, dep_a.h) == (2, (1, 1, 1), 2, 1)
        and dep_a.lambda_exponent == -2
    )
    ok_b = (
        dep_b.case is Case.CASE_I
        and dep_b.sigma == 2
        and (dep_b.r, dep_b.p, dep_b.d, dep_b.h) == (2, (1, 1, -1), 2, 1)
        and dep_b.lambda_exponent == 2
    )
    return ok_a and ok_b, f"first layout {dep_a.to_json()}, second layout {dep_b.to_json()}"


def _sigma_corpus():
    rng = random.Random(20260822)
    return [random_exponent_data(rng) for _ in range(200)]


def _check_sigma_routes() -> tuple[bool, str]:
    corpus = _sigma_corpus()
    for data in corpus:
        dep = dependency(data)
        st = sigma_tau(data, MonomialMu.unit(data.n))
        det_route = Fraction(-1) ** (data.n + 1) * det(data.matrix_m_prime()) / det(
            data.matrix_m_tilde()
        )
        relation_route = Fraction(dep.r, dep.r - dep.sum_p)
        # three distinct eliminations: inverse row of M~^T, relation from M' | alpha, fresh dets
        if not (st.sigma == det_route == relation_route == dep.sigma):
            # each value against the median of the three routes, the value two of them agree on
            values = {"inverse row": st.sigma, "determinants": det_route, "relation": relation_route,
                      "reported sigma": dep.sigma}
            median = sorted((st.sigma, det_route, relation_route))[1]
            return _failed(f"disagreement on {data.to_json()}", dict.fromkeys(values, median), values)
    return True, f"three sigma routes agree on {len(corpus)} random layouts"


def _check_det_identity() -> tuple[bool, str]:
    corpus = _sigma_corpus()
    for data in corpus:
        dep = dependency(data)
        # fresh determinants, independent of the relation read off the cached M' | alpha elimination
        d_tilde, d_prime = det(data.matrix_m_tilde()), det(data.matrix_m_prime())
        rhs = Fraction(-1) ** (data.n + 1) * (1 - Fraction(dep.sum_p, dep.r)) * d_prime
        # the package's own check, on the cached determinants, must agree with them
        report = det_identity_check(data, dep)
        same_dets = (report.det_m_tilde, report.det_m_prime) == (d_tilde, d_prime)
        if not (d_tilde == rhs and report.passed and same_dets):
            expected = {"identity": rhs, "det M~": d_tilde, "det M'": d_prime, "passed": True}
            got = {"identity": d_tilde, "det M~": report.det_m_tilde, "det M'": report.det_m_prime,
                   "passed": report.passed}
            return _failed(f"identity fails on {data.to_json()}", expected, got)
    return True, f"determinant identity exact on {len(corpus)} random layouts"


def _check_shift_identity() -> tuple[bool, str]:
    rng = random.Random(31418)
    count = 200
    for _ in range(count):
        q = random_homogeneous(rng)
        mu = random_rat(rng)
        left, right = shift_identity_check(q, mu)
        if left != right:
            return _failed(f"shift identity fails for degree {q.degree()}, mu = {mu}", _flat(left), _flat(right))
    return True, f"shift identity exact on {count} random homogeneous elements"


def _family_instances(limit_a: int, limit_b: int):
    """Family A with u, v, w in 1..limit_a, then family B with p, q, u, v in 1..limit_b."""
    for u, v, w in product(range(1, limit_a + 1), repeat=3):
        yield family_a(u, v, w)
    for p, q, u, v in product(range(1, limit_b + 1), repeat=4):
        yield family_b(p, q, u, v)


def _check_uniform_shift() -> tuple[bool, str]:
    # The operator times (a - b) has a part of degree 4, past the family
    # operators' degree 3, on which the two lam*nabla routes must agree too.
    a_minus_b = ABElement.gen_a() - ABElement.gen_b()
    count = 0
    for result in _family_instances(4, 4):
        data = result.exponents
        dep = dependency(data)
        st = sigma_tau(data, MonomialMu.unit(data.n))
        shift = st.tau - st.mu.k * st.sigma - (dep.d + dep.h) * st.sigma
        op = -(
            ABElement.gen_a().scale(st.sigma) + ABElement.gen_b().scale(shift)
        )
        pushed, expected = push_nabla(result.full_operator, st), op * result.full_operator
        if pushed != expected:
            return _failed(f"uniform shift fails for {result.label()}", _flat(expected), _flat(pushed))
        quartic = result.full_operator * a_minus_b
        shifted, pushed = push_nabla_via_shift(quartic, st), push_nabla(quartic, st)
        if shifted != pushed:
            detail = f"lam*nabla routes differ on the degree-4 multiple for {result.label()}"
            return _failed(detail, _flat(pushed), _flat(shifted))
        count += 1
    return True, f"lam*nabla maps the operator to a single left factor on {count} instances"


def _general_product(roots) -> ABElement:
    """Left-to-right product of the factors (a - r*b) through the general product."""
    out = ABElement.one()
    for root in roots:
        out = out * ABElement._linear(root.denominator, -root.numerator, root.denominator)
    return out


def _check_family_grids() -> tuple[bool, str]:
    count = 0
    for result in _family_instances(4, 3):
        report = cross_validate(result)
        if not report.passed:
            return False, f"cross validation fails for {report.label}: {report.to_json()}"
        # the operator from its factors through the general product, never through linear_factor_product
        low = _general_product(result.roots_low).scale(LaurentPoly.lam_power(result.lambda_exponent, -4))
        expected = _general_product(result.roots_top) + low
        if result.full_operator != expected:
            detail = f"operator is not the product of its factors for {result.label()}"
            return _failed(detail, _flat(expected), _flat(result.full_operator))
        count += 1
    return True, f"closed forms match matrix data on {count} instances"


def frobenius_table(spec: ExpansionSpec, seed: dict) -> ExpansionTable:
    """The log table from the closed (Frobenius) form in the ``asymptotics``
    docstring, a route independent of propagate's recurrence.

    Per seed, the product over t is kept as a series in x truncated at degree
    K, on which dividing p by (B + x) is the recurrence q_n = (p_n - q_(n-1))/B.
    """
    alpha, beta = spec.alpha, spec.beta
    sums: dict[tuple[int, int, int], dict[int, Fraction]] = {}
    for (i, big_k, m0), s in seed.items():
        series = [Fraction(s)] + [Fraction(0)] * big_k
        factorial = 1
        for m in range(m0, spec.order + 1):
            if m > m0:
                # the factor for t = m - 1, so B = t + rho_i + 1 = m + rho_i
                denominator = m + spec.rhos[i]
                quotient = Fraction(0)
                for n, p in enumerate(series):
                    quotient = (p - quotient) / denominator
                    series[n] = alpha * p + (beta - alpha) * quotient
                factorial *= m - m0
            for j in range(big_k + 1):
                poly = sums.setdefault((i, j, m), {})
                poly[m - m0] = poly.get(m - m0, 0) + series[big_k - j] / factorial
    return ExpansionTable(spec, {key: LogPoly(poly) for key, poly in sums.items()})


def _check_asymptotics() -> tuple[bool, str]:
    golden_spec = ExpansionSpec(
        rhos=(Fraction(1, 2),), log_depth=0, order=2, alpha=Fraction(1), beta=Fraction(0)
    )
    golden_seed = {(0, 0, 0): Fraction(1)}
    table = propagate(golden_spec, golden_seed)
    closed = frobenius_table(golden_spec, golden_seed)
    if table != closed:
        return _failed("closed-form route differs from propagate on the golden spec", _cells(closed), _cells(table))
    if table.get(0, 0, 1) != LogPoly({1: Fraction(1, 3)}):
        return False, f"c[0,0,1] = {table.get(0, 0, 1)}, expected L/3"
    if table.get(0, 0, 2) != LogPoly({2: Fraction(1, 10)}):
        return False, f"c[0,0,2] = {table.get(0, 0, 2)}, expected L^2/10"

    rng = random.Random(27182)
    checked = 0
    for _ in range(100):
        spec = random_expansion_spec(rng)
        seed = random_seed_map(rng, spec)
        table = propagate(spec, seed)
        for (i, k, m), poly in table.entries.items():
            if poly.degree() > m:
                return False, f"degree bound violated at {(i, k, m)}: {poly}"
            expected_at_zero = Fraction(seed.get((i, k, m), 0))
            if poly.constant_term() != expected_at_zero:
                return False, f"seed not reproduced at L = 0 for {(i, k, m)}"
        report = verify_table(spec, table)
        if not report.passed:
            return _failed(f"nonzero residual for spec {spec.to_json()}", {}, report.residuals)
        closed = frobenius_table(spec, seed)
        if table != closed:
            detail = f"closed-form route differs from propagate for spec {spec.to_json()}"
            return _failed(detail, _cells(closed), _cells(table))
        other = random_seed_map(rng, spec)
        combined = dict(seed)
        for key, value in other.items():
            combined[key] = combined.get(key, Fraction(0)) + value
        lhs, rhs = propagate(spec, combined), propagate(spec, other)
        for key in set(lhs.entries) | set(table.entries) | set(rhs.entries):
            if lhs.get(*key) != table.get(*key) + rhs.get(*key):
                return False, f"propagation is not additive in the seed at {key}"
        checked += 1

    # A long table like the benchmark's largest: verify_table must pass it, and
    # must localize one perturbed cell past order 40 to the four relations it enters.
    long_spec = ExpansionSpec(
        rhos=(Fraction(1, 3), Fraction(-1, 2)),
        log_depth=3,
        order=80,
        alpha=Fraction(-7, 5),
        beta=Fraction(11, 3),
    )
    long_seed = {(0, 0, 0): 1, (0, 3, 0): Fraction(-2, 3), (1, 0, 0): Fraction(5, 4), (1, 3, 0): 1}
    table = propagate(long_spec, long_seed)
    report = verify_table(long_spec, table)
    if not report.passed:
        return _failed(f"nonzero residual for the long spec {long_spec.to_json()}", {}, report.residuals)
    i, k, m = 1, 2, 61
    tampered = ExpansionTable(
        long_spec, {**table.entries, (i, k, m): table.get(i, k, m) + LogPoly({1: Fraction(1)})}
    )
    caught = set(verify_table(long_spec, tampered).residuals)
    if caught != {(i, k - dk, m - dm) for dk in (0, 1) for dm in (0, 1)}:
        return False, f"perturbing c{[i, k, m]} of the long spec gives residuals at {sorted(caught)}"

    # beta = 2*alpha telescopes: the coefficients stay short while the shared
    # denominator of propagate's chains grows by the 31-digit rho denominator
    # at every order, so the chains renormalize.
    short_spec = ExpansionSpec(
        rhos=(Fraction(1, 10**30 + 1),), log_depth=2, order=12, alpha=Fraction(3, 2), beta=Fraction(3)
    )
    short_seed = {(0, 0, 0): 1, (0, 2, 0): Fraction(-2, 3), (0, 1, 4): 5}
    table = propagate(short_spec, short_seed)
    report, closed = verify_table(short_spec, table), frobenius_table(short_spec, short_seed)
    if not report.passed or table != closed:
        detail = f"propagate fails on the telescoping spec {short_spec.to_json()}"
        if not report.passed:
            return _failed(detail, {}, report.residuals)
        return _failed(detail, _cells(closed), _cells(table))
    return True, (
        f"golden values, degree bound, residuals, additivity and the closed-form "
        f"(Frobenius) route on {checked} random specs; residuals on an order-{long_spec.order} "
        f"table pass clean and catch a perturbed cell at order {m}"
    )


def _check_hypothesis_gate() -> tuple[bool, str]:
    from . import cli

    data = ExponentData.from_json(QUASI_HOMOGENEOUS_CUBE)
    report = validate_hypotheses(data)
    ok_report = report.rank_m_tilde == 3 and not report.passed and report.basis_ok
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(QUASI_HOMOGENEOUS_CUBE, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["check", path])
        message_ok = "hypothesis i) fails: rank 3 < 4" in (out.getvalue() + err.getvalue())
        return (
            ok_report and code == 2 and message_ok,
            f"rank {report.rank_m_tilde}, exit code {code}, message shown {message_ok}",
        )
    finally:
        os.unlink(path)


def _check_monodromy_candidates() -> tuple[bool, str]:
    cand_a = monodromy_candidates(family_a(2, 2, 1))
    cand_b = monodromy_candidates(family_b(2, 2, 1, 1))
    ok = cand_a == [Fraction(1, 2), Fraction(0)] and cand_b == [Fraction(0), Fraction(0)]
    return ok, f"first layout {[str(x) for x in cand_a]}, second layout {[str(x) for x in cand_b]}"


CRITERIA: tuple[tuple[int, str, Callable[[], tuple[bool, str]]], ...] = (
    (1, "golden operator and connection, first layout (2,2,1)", _check_golden_a),
    (2, "golden operator and connection, second layout (2,2,1,1)", _check_golden_b),
    (3, "case split, sigma and relation data for both layouts", _check_case_data),
    (4, "sigma agrees along matrix, determinant and relation routes", _check_sigma_routes),
    (5, "bordered determinant identity on the random corpus", _check_det_identity),
    (6, "conjugation shift identity on random homogeneous elements", _check_shift_identity),
    (7, "uniform left factor under lam*nabla across both parameter grids", _check_uniform_shift),
    (8, "closed forms cross validated against matrix data on full grids", _check_family_grids),
    (9, "log coefficient propagation: golden values and invariants", _check_asymptotics),
    (10, "quasi-homogeneous input rejected with rank report and exit code 2", _check_hypothesis_gate),
    (11, "monodromy candidate exponents for both golden instances", _check_monodromy_candidates),
)


def run_criterion(cid: int) -> CriterionResult:
    for num, description, fn in CRITERIA:
        if num == cid:
            start = time.perf_counter()
            passed, detail = fn()
            seconds = time.perf_counter() - start
            return CriterionResult(num, description, passed, detail, seconds)
    raise KeyError(f"no criterion {cid}")


def run_all() -> list[CriterionResult]:
    return [run_criterion(num) for num, _, _ in CRITERIA]
