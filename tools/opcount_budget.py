"""Count the opcodes of each workload's first inputs, of the selftest battery, of the CLI
parser and of each CLI command against the committed budget.

    python3 tools/opcount_budget.py

For each workload in ``tools/opcount_budget.json``, the working tree's
lamconn runs the first N inputs of the budget's seed once untimed and then
under the opcode tracer of ``tools/ab.py --count``, so a count here is the
head count that mode prints for the same inputs.  Each key of the budget's
"paths" is a path that no workload runs, counted the same way, in the
working directory that ``tests/golden/regenerate.py``'s ``workspace()``
builds for the golden corpus, with stdout and stderr kept in memory:

- ``selftest.run_all()``, the battery;
- ``cli.build_parser()``, the parser that ``cli.main`` builds on every call;
- any other key, a CLI command line.  Its words run once through
  ``cli.main``, which must exit 0, and are parsed once by the parser, both
  outside the tracer; the count is that of ``args.fn(args)`` alone, the
  command's own work.

So a CLI run is budgeted in two parts, the parser and the command, each at
1% of its own count.  Each count is printed beside its budget, then one JSON
line holds the counts.  A count more than 1% past its budget names its
workload or path and exits 1; a count below its budget is printed, and the
budget should then be lowered to it, as ``tools/traffic_lines.py`` treats
``tools/unrun_counts.json``.  A count is the same on every run of one
interpreter, under any hash seed, but counts of different interpreters are
not comparable: the budget holds CPython 3.11's, and on another interpreter
the script compares nothing and exits 2.  The package,
``benchmarks/workloads.py`` and the golden inputs are only read.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
from functools import partial
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tools")]  # ab, for the workloads and the tracer
from ab import load_module, load_workload, opcode_count  # noqa: E402

BUDGET = ROOT / "tools" / "opcount_budget.json"
# the budget keys of the battery and of the parser; every other key of the budget's paths is a CLI command line
BATTERY = "selftest.run_all()"
PARSER = "cli.build_parser()"
# a count may pass its budget by this many percent
SLACK_PERCENT = 1


def path_job(key: str):
    """The job of the budget path key: the battery, the parser, or ``args.fn(args)`` of the words
    of key, after one run of them through ``cli.main``, which raises when it exits other than 0."""
    from lamconn import cli, selftest

    if key == BATTERY:
        return selftest.run_all
    if key == PARSER:
        return cli.build_parser
    argv = key.split()
    code = cli.main(argv)
    if code:
        raise RuntimeError(f"{key} exited {code}")
    args = cli.build_parser().parse_args(argv)
    return partial(args.fn, args)


def counts(budget: dict) -> dict[str, int]:
    """The opcodes that the working tree's lamconn runs over each workload's first inputs of
    budget, then on each of its paths, each counted after one untimed run, by workload or path."""
    sys.path[:0] = [str(ROOT / "src")]
    import lamconn

    found = {}
    for name, entry in budget["workloads"].items():
        workload = load_workload(name)
        inputs = list(islice(workload.inputs(budget["seed"]), entry["ops"]))

        def job():
            return [workload.run(lamconn, inp) for inp in inputs]

        job()
        found[name] = opcode_count(job)
    regenerate = load_module(ROOT / "tests" / "golden" / "regenerate.py", "lamconn_budget_regenerate")
    with regenerate.workspace(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for key in budget.get("paths", {}):
            job = path_job(key)
            job()
            found[key] = opcode_count(job)
    return found


def check(found: dict[str, int], budget: dict) -> int:
    """1 when a count of found is more than SLACK_PERCENT past its budget, naming each such
    workload or path; 0 otherwise.  Every count is printed beside its budget."""
    status = 0
    allowances = {**budget["workloads"], **budget.get("paths", {})}
    for name, count in found.items():
        allowed = allowances[name]["opcodes"]
        change = f"{count} opcodes against a budget of {allowed} ({count / allowed - 1:+.2%})"
        if 100 * count > (100 + SLACK_PERCENT) * allowed:
            print(f"{name}: {change}, more than {SLACK_PERCENT}% past it: cut the count or raise the budget")
            status = 1
        elif count < allowed:
            print(f"{name}: {change}: lower the budget")
        else:
            print(f"{name}: {change}")
    return status


def main(path: Path = BUDGET) -> int:
    budget = json.loads(path.read_text(encoding="utf-8"))
    version = ".".join(platform.python_version_tuple()[:2])
    if version != budget["python"]:
        print(f"the budget holds python {budget['python']}'s counts, and this is python {version}: nothing compared")
        return 2
    found = counts(budget)
    status = check(found, budget)
    print(json.dumps(found))
    return status


if __name__ == "__main__":
    sys.exit(main())
