"""Command line front end.

Subcommands: check, analyze, family-a, family-b, propagate, selftest.
Exit codes: 0 on success; 1 on a usage error (argparse's message is kept)
and on unreadable or malformed input; 2 when a well-formed input fails
validation (rank hypotheses, family cross validation, failed self checks).
main() maps InputError to 1 and HypothesisError to 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import selftest as selftest_mod
from .asymptotics import ExpansionSpec, parse_seed_key, propagate
from .connection import (
    PDE_NORMALIZED,
    PDE_RAW,
    MonomialMu,
    nabla_formula,
    sigma_tau,
)
from .errors import DIGIT_LIMIT_MESSAGE, HypothesisError, InputError
from .exact import json_rat
from .exponents import ExponentData, dependency, validate_hypotheses
from .families import cross_validate, family_a, family_b, match_family, monodromy_candidates


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    except ValueError as exc:  # an integer past Python's int/str digit limit
        raise InputError(f"{path}: {exc}") from None
    except RecursionError:
        raise InputError(f"{path} nests arrays or objects too deeply") from None


def _emit(obj: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(obj, indent=2))
    else:
        print("\n".join(lines))


def _cmd_check(args) -> int:
    data = ExponentData.from_json(_load_json(args.file))
    report = validate_hypotheses(data)
    lines = [
        f"rank of bordered matrix: {report.rank_m_tilde} (need {data.n + 2})",
        f"rank of basis matrix:    {report.rank_m_prime} (need {data.n + 1})",
        f"hypotheses: {'pass' if report.passed else 'fail'}",
    ]
    if report.note:
        lines.append(f"note: {report.note}")
    _emit(report.to_json(), args.json, lines)
    if not report.passed:
        raise HypothesisError("\n".join(report.failure_messages()))
    return 0


def _relation_text(data: ExponentData, dep) -> str:
    terms = " + ".join(f"{p}*alpha_{j + 1}" for j, p in enumerate(dep.p))
    return f"{dep.r}*alpha_{data.n + 2} = {terms}"


def _cmd_analyze(args) -> int:
    raw = _load_json(args.file)
    data = ExponentData.from_json(raw)
    report = validate_hypotheses(data)
    verdict = (
        f"hypotheses: {'pass' if report.passed else 'fail'} "
        f"(bordered rank {report.rank_m_tilde}, basis rank {report.rank_m_prime})"
    )
    if not report.passed:
        lines = [verdict] + ([f"note: {report.note}"] if report.note else [])
        _emit({"hypotheses": report.to_json()}, args.json, lines)
        raise HypothesisError("\n".join(report.failure_messages()))
    if "mu" in raw:
        if not isinstance(raw["mu"], list):
            raise InputError("mu must be a list of exponents")
        mu = MonomialMu(beta=tuple(raw["mu"]))
    else:
        mu = MonomialMu.unit(data.n)
    dep = dependency(data)
    st = sigma_tau(data, mu)
    nabla = nabla_formula(st)
    family = match_family(data)

    payload = {
        "hypotheses": report.to_json(),
        "dependency": dep.to_json(),
        "connection": {**st.to_json(), "nabla": str(nabla)},
    }
    lines = [
        verdict,
        f"relation: {_relation_text(data, dep)}",
        f"case {dep.case.value}: d = {dep.d}, h = {dep.h}, sigma = {dep.sigma}, "
        f"lam exponent = {dep.lambda_exponent:+d}",
        f"mu exponents {list(mu.beta)}, degree k = {mu.k}",
        f"sigma = {st.sigma}, tau = {st.tau}",
        f"lam*nabla([mu]) = ({nabla})[mu]",
        f"nabla([mu]) = lam^-1 * ({nabla})[mu]",
        f"pde: {PDE_RAW}",
        f"normalized: {PDE_NORMALIZED} with alpha = {st.alpha}, beta = {st.beta}",
    ]
    if family is None:
        _emit(payload, args.json, lines)
        return 0
    payload["family"] = family.to_json()
    lines.append(f"recognized family {family.label()}")
    _emit_family(family, payload, payload["family"], lines, [], args.json)
    return 0


def _emit_family(
    result, payload: dict, family_payload: dict, lines: list[str], details: list[str], as_json: bool
) -> None:
    """Cross validate, append the family lines around ``details``, emit; raise if a check fails."""
    validation = cross_validate(result)
    family_payload["cross_validation"] = validation.to_json()
    candidates = ", ".join(str(x) for x in monodromy_candidates(result))
    lines += [
        f"operator = {result.full_operator}",
        f"factored: {result.factored_display()}",
        *details,
        f"monodromy candidates: {candidates}",
        f"cross validation: {'pass' if validation.passed else 'FAIL'}",
    ]
    _emit(payload, as_json, lines)
    if not validation.passed:
        raise HypothesisError("family cross validation failed")


def _family_command(result, as_json: bool) -> int:
    payload = result.to_json()
    lines = [f"family {result.label()}", f"exponents: {result.exponents.to_json()['alphas']}"]
    details = [
        f"top roots: {[str(x) for x in result.roots_top]}",
        f"low roots: {[str(x) for x in result.roots_low]}",
        f"c = {result.c_coeff}, lam exponent = {result.lambda_exponent:+d}",
        f"lam*nabla([1]) = ({result.nabla_one})[1]",
    ]
    _emit_family(result, payload, payload, lines, details, as_json)
    return 0


def _cmd_family_a(args) -> int:
    return _family_command(family_a(args.u, args.v, args.w), args.json)


def _cmd_family_b(args) -> int:
    return _family_command(family_b(args.p, args.q, args.u, args.v), args.json)


def _cmd_propagate(args) -> int:
    raw = _load_json(args.file)
    spec = ExpansionSpec.from_json(raw)
    seed_obj = raw.get("seed", {})
    if not isinstance(seed_obj, dict):
        raise InputError("seed must be an object keyed by 'i,k,m'")
    seed = {
        parse_seed_key(key_text): json_rat(value, f"seed value for {key_text!r}")
        for key_text, value in seed_obj.items()
    }
    table = propagate(spec, seed)
    lines = [
        f"exponents: {[str(x) for x in spec.rhos]}, log depth {spec.log_depth}, "
        f"order {spec.order}, alpha = {spec.alpha}, beta = {spec.beta}"
    ]
    for (i, k, m), poly in sorted(table.entries.items()):
        lines.append(f"c[{i},{k},{m}] = {poly}")
    _emit(table.to_json(), args.json, lines)
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8", newline="") as handle:
                handle.write(table.to_csv())
        except OSError as exc:
            raise InputError(f"cannot write {args.csv}: {exc.strerror or exc}") from None
        print(f"wrote {args.csv}", file=sys.stderr)
    return 0


def _cmd_selftest(args) -> int:
    results = selftest_mod.run_all()
    if args.json:
        print(
            json.dumps(
                {
                    "passed": all(r.passed for r in results),
                    "criteria": [
                        {
                            "id": r.cid,
                            "description": r.description,
                            "passed": r.passed,
                            "detail": r.detail,
                            "seconds": r.seconds,
                        }
                        for r in results
                    ],
                },
                indent=2,
            )
        )
    else:
        for result in results:
            print(result.line())
    return 0 if all(r.passed for r in results) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamconn",
        description=(
            "Exact connection data, annihilating operators and log expansions "
            "for polynomials with n+2 monomials in n+1 variables and one "
            "lam-weighted monomial."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate the rank hypotheses of an exponent file")
    p_check.add_argument("file", help="JSON file with n and alphas")
    p_check.add_argument("--json", action="store_true", help="machine readable output")
    p_check.set_defaults(fn=_cmd_check)

    p_analyze = sub.add_parser("analyze", help="full report for an exponent file")
    p_analyze.add_argument("file", help="JSON file with n, alphas and optional mu")
    p_analyze.add_argument("--json", action="store_true", help="machine readable output")
    p_analyze.set_defaults(fn=_cmd_analyze)

    p_fa = sub.add_parser("family-a", help="closed form for x^2u + y^2v + z^2w + lam*x^u*y^v*z^w")
    p_fa.add_argument("--u", type=int, required=True)
    p_fa.add_argument("--v", type=int, required=True)
    p_fa.add_argument("--w", type=int, required=True)
    p_fa.add_argument("--json", action="store_true", help="machine readable output")
    p_fa.set_defaults(fn=_cmd_family_a)

    p_fb = sub.add_parser(
        "family-b", help="closed form for x^2p*z^u + y^2q*z^v + z^(u+v) + lam*x^p*y^q"
    )
    p_fb.add_argument("--p", type=int, required=True)
    p_fb.add_argument("--q", type=int, required=True)
    p_fb.add_argument("--u", type=int, required=True)
    p_fb.add_argument("--v", type=int, required=True)
    p_fb.add_argument("--json", action="store_true", help="machine readable output")
    p_fb.set_defaults(fn=_cmd_family_b)

    p_prop = sub.add_parser("propagate", help="propagate log expansion coefficients")
    p_prop.add_argument("file", help="JSON file with rhos, N, M, alpha, beta, seed")
    p_prop.add_argument("--json", action="store_true", help="machine readable output")
    p_prop.add_argument("--csv", metavar="PATH", help="also write the table as CSV")
    p_prop.set_defaults(fn=_cmd_propagate)

    p_self = sub.add_parser("selftest", help="run the built-in verification battery")
    p_self.add_argument("--json", action="store_true", help="machine readable output")
    p_self.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is malformed input here; --help exits 0
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except HypothesisError as exc:
        print(exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        # Every subcommand builds its whole output before printing any of it,
        # so a number too long to print leaves stdout empty.
        if "integer string conversion" not in str(exc):
            raise
        print(f"input error: {DIGIT_LIMIT_MESSAGE.format(sys.get_int_max_str_digits())}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
