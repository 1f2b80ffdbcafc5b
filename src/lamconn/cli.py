"""Command line front end: it reads files and lays out output.

Every rule of what an input file may hold is the library's, kept in the type
that owns it: ``ExponentData.from_json`` and ``MonomialMu.from_json`` in
``exponents`` read a layout, ``ExpansionSpec.from_json`` and
``seed_from_json`` an expansion, and ``exact.parse_int`` every JSON number
as it is loaded.

Subcommands: check, analyze, family-a, family-b, propagate, selftest.
Exit codes: 0 on success; 1 on a usage error (argparse's message is kept)
and on unreadable or malformed input; 2 when a well-formed input fails
validation (rank hypotheses, family cross validation, failed self checks).
main() maps InputError to 1 and HypothesisError to 2; entrypoint() exits
with 1 when the reader of stdout closes it before everything is written.

check, analyze, family-a and family-b each build one report, the ``--json``
payload of the library's ``to_json`` blocks, and lay the text form out from
the strings in it, so both forms carry the same values.  They and selftest
build their whole output before printing any of it.  propagate prints as it
goes, straight from the table: the text form one line per cell, the JSON
form through ``json.dump`` and the CSV file one (i, k) ladder at a time, so
no copy of the whole output is ever held.

The CLI binds lamconn's modules, not their names, and calls through them
(``asymptotics.propagate``), so a subcommand runs only the modules it reads
(see the package docstring): propagate runs asymptotics, exact and errors;
check runs exponents, exact and errors; analyze, family-a and family-b run
those and connection, algebra and families; selftest runs every module.
``python -m lamconn`` and the ``lamconn`` console script both call
``entrypoint``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import asymptotics, connection, errors, exact, exponents, families, selftest


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key that it holds twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise errors.InputError(f"repeated key {key!r} in a JSON object")
        obj[key] = value
    return obj


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=_unique_keys, parse_int=exact.parse_int)
    except OSError as exc:
        raise errors.InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise errors.InputError(f"{path} is not valid JSON: {exc}") from None
    except ValueError as exc:  # a repeated key or an integer literal too long for parse_int
        raise errors.InputError(f"{path}: {exc}") from None
    except RecursionError:
        raise errors.InputError(f"{path} nests arrays or objects too deeply") from None


def _finish(payload: dict, as_json: bool, lines: list[str], failure: str | None) -> int:
    """Print payload as JSON or lines as text; then raise failure, when there is one.

    The JSON text is built whole before any of it is printed: see ``main``.
    """
    if as_json:
        lines = [json.dumps(payload, indent=2)]
    print(*lines, sep="\n")
    if failure:
        raise errors.HypothesisError(failure)
    return 0


def _verdict(hypotheses: dict, ranks: str) -> list[str]:
    """The hypotheses line, ending in ranks, and the note line when the hypotheses block has one."""
    line = f"hypotheses: {'pass' if hypotheses['passed'] else 'fail'}{ranks}"
    return [line, f"note: {hypotheses['note']}"] if "note" in hypotheses else [line]


def _read_layout(path: str):
    """The layout of the JSON file at path, its mu and its hypotheses report.

    check reads mu as analyze does, though it prints none of it, so that
    check passes no file that analyze refuses.
    """
    obj = _load_json(path)
    data = exponents.ExponentData.from_json(obj)
    mu = exponents.MonomialMu.from_json(obj, data.n)
    return data, mu, exponents.validate_hypotheses(data)


def _cmd_check(args) -> int:
    data, _, report = _read_layout(args.file)
    payload = report.to_json()
    lines = [
        f"rank of bordered matrix: {payload['rank_m_tilde']} (need {data.n + 2})",
        f"rank of basis matrix:    {payload['rank_m_prime']} (need {data.n + 1})",
        *_verdict(payload, ""),
    ]
    return _finish(payload, args.json, lines, "\n".join(report.failure_messages()))


def _cmd_analyze(args) -> int:
    data, mu, report = _read_layout(args.file)
    hyp = report.to_json()
    payload = {"hypotheses": hyp}
    verdict = _verdict(hyp, f" (bordered rank {hyp['rank_m_tilde']}, basis rank {hyp['rank_m_prime']})")
    if not report.passed:
        return _finish(payload, args.json, verdict, "\n".join(report.failure_messages()))
    relation = exponents.dependency(data)
    st = connection.sigma_tau(data, mu)
    dep = payload["dependency"] = relation.to_json()
    conn = payload["connection"] = {**st.to_json(), "nabla": str(connection.nabla_formula(st))}
    pde = conn["pde"]
    terms = " + ".join(f"{p}*alpha_{j + 1}" for j, p in enumerate(dep["p"]))
    lines = [
        *verdict,
        f"relation: {dep['r']}*alpha_{data.n + 2} = {terms}",
        f"case {dep['case']}: d = {dep['d']}, h = {dep['h']}, sigma = {dep['sigma']}, "
        f"lam exponent = {dep['lambda_exponent']:+d}",
        f"mu exponents {conn['mu']['beta']}, degree k = {conn['k']}",
        f"sigma = {conn['sigma']}, tau = {conn['tau']}",
        f"lam*nabla([mu]) = ({conn['nabla']})[mu]",
        f"nabla([mu]) = lam^-1 * ({conn['nabla']})[mu]",
        f"pde: {pde['raw']}",
        f"normalized: {pde['normalized']} with alpha = {pde['alpha']}, beta = {pde['beta']}",
    ]
    family = families.match_family(data)
    if family is None:
        return _finish(payload, args.json, lines, None)
    payload["family"] = block = {**family.to_json(), "cross_validation": families.cross_validate(family).to_json()}
    lines.append(f"recognized family {family.label()}")
    return _finish_family(payload, block, lines, [], args.json)


def _finish_family(payload: dict, block: dict, lines: list[str], details: list[str], as_json: bool) -> int:
    """Append the lines of the family block around ``details`` and finish, failing when its cross validation failed."""
    passed = block["cross_validation"]["passed"]
    lines += [
        f"operator = {block['operator']}",
        f"factored: {block['operator_factored']}",
        *details,
        f"monodromy candidates: {', '.join(block['monodromy_candidates'])}",
        f"cross validation: {'pass' if passed else 'FAIL'}",
    ]
    return _finish(payload, as_json, lines, None if passed else "family cross validation failed")


def _cmd_family(args) -> int:
    result = getattr(families, args.build)(*(getattr(args, letter) for letter in args.letters))
    payload = {**result.to_json(), "cross_validation": families.cross_validate(result).to_json()}
    lines = [f"family {result.label()}", f"exponents: {payload['exponents']['alphas']}"]
    details = [
        f"top roots: {payload['roots_top']}",
        f"low roots: {payload['roots_low']}",
        f"c = {payload['c_coeff']}, lam exponent = {payload['lambda_exponent']:+d}",
        f"lam*nabla([1]) = ({payload['nabla_one']})[1]",
    ]
    return _finish_family(payload, payload, lines, details, args.json)


def _cmd_propagate(args) -> int:
    obj = _load_json(args.file)
    spec = asymptotics.ExpansionSpec.from_json(obj)
    table = asymptotics.propagate(spec, asymptotics.seed_from_json(obj))
    if args.json:
        json.dump(table.to_json(), sys.stdout, indent=2)
        print()
    else:
        print(f"exponents: {[str(x) for x in spec.rhos]}, log depth {spec.log_depth}, "
              f"order {spec.order}, alpha = {spec.alpha}, beta = {spec.beta}")
        for (i, k, m), poly in sorted(table.entries.items()):
            print(f"c[{i},{k},{m}] = {poly}")
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(table.csv_chunks())
        except OSError as exc:
            raise errors.InputError(f"cannot write {args.csv}: {exc.strerror or exc}") from None
        print(f"wrote {args.csv}", file=sys.stderr)
    return 0


def _cmd_selftest(args) -> int:
    results = selftest.run_all()
    passed = all(r.passed for r in results)
    payload = {"passed": passed, "criteria": [dataclasses.asdict(r) for r in results]}
    _finish(payload, args.json, [r.line() for r in results], None)
    return 0 if passed else 2


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

    p_check = sub.add_parser("check", help="read an exponent file and validate its rank hypotheses")
    p_check.add_argument("file", help="JSON file with n, alphas and optional mu")
    p_check.add_argument("--json", action="store_true", help="machine readable output")
    p_check.set_defaults(fn=_cmd_check)

    p_analyze = sub.add_parser("analyze", help="full report for an exponent file")
    p_analyze.add_argument("file", help="JSON file with n, alphas and optional mu")
    p_analyze.add_argument("--json", action="store_true", help="machine readable output")
    p_analyze.set_defaults(fn=_cmd_analyze)

    for name, build, letters, help_text in (
        ("family-a", "family_a", "uvw", "closed form for x^2u + y^2v + z^2w + lam*x^u*y^v*z^w"),
        ("family-b", "family_b", "pquv", "closed form for x^2p*z^u + y^2q*z^v + z^(u+v) + lam*x^p*y^q"),
    ):
        p_family = sub.add_parser(name, help=help_text)
        for letter in letters:
            p_family.add_argument(f"--{letter}", type=int, required=True)
        p_family.add_argument("--json", action="store_true", help="machine readable output")
        p_family.set_defaults(fn=_cmd_family, build=build, letters=letters)

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
    except errors.InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except errors.HypothesisError as exc:
        print(exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        # Every subcommand but propagate builds its whole output before
        # printing any of it, so a number too long to print leaves stdout
        # empty; analyze's JSON needs this, as its ints r, p, sum_p and k
        # can pass the limit.  propagate prints as it goes: it refuses every
        # coefficient past the limit before it returns, and the rest of its
        # output holds only text and the small ints N and M.
        if "integer string conversion" not in str(exc):
            raise
        print(f"input error: {errors.DIGIT_LIMIT_MESSAGE.format(sys.get_int_max_str_digits())}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    """Run main() and exit with its code, or with 1 when the reader of stdout closed it.

    stdout is flushed inside the ``try``, so a closed pipe raises here and
    not at interpreter exit; stdout then points at os.devnull, so the flush
    at exit has nowhere to fail (the "Note on SIGPIPE" of the signal docs).
    When fd 1 was closed before the start, sys.stdout is None, print()
    writes nothing and main()'s code stands.
    """
    try:
        code = main()
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
