"""Count the opcodes of each workload's first inputs, of the selftest battery and of
each CLI subcommand against the committed budget.

    python3 tools/opcount_budget.py

For each workload in ``tools/opcount_budget.json``, the working tree's
lamconn runs the first N inputs of the budget's seed once untimed and then
under the opcode tracer of ``tools/ab.py --count``, so a count here is the
head count that mode prints for the same inputs.  Each key of the budget's
"paths" is a path that no workload runs, counted the same way: the
battery, ``selftest.run_all()``, or a CLI command line, whose words
``cli.main`` reads in process, in a temporary directory that holds a copy
of the golden inputs under ``inputs/``, with stdout and stderr kept in
memory; such a command must exit 0.  Each count is printed beside its
budget, then one JSON line holds the counts.  A count more than 1% past
its budget names its workload or path and exits 1; a count below
its budget is printed, and the budget should then be lowered to it, as
``tools/traffic_lines.py`` treats ``tools/unrun_counts.json``.  A count is
the same on every run of one interpreter, under any hash seed, but counts of
different interpreters are not comparable: the budget holds CPython 3.11's,
and on another interpreter the script compares nothing and exits 2.  The
package and ``benchmarks/workloads.py`` are only read.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import shutil
import sys
import tempfile
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tools")]  # ab, for the workloads and the tracer
from ab import load_workload, opcode_count  # noqa: E402

BUDGET = ROOT / "tools" / "opcount_budget.json"
GOLDEN_INPUTS = ROOT / "tests" / "golden" / "inputs"
# the budget key of the battery; every other key of the budget's paths is a CLI command line
BATTERY = "selftest.run_all()"
# a count may pass its budget by this many percent
SLACK_PERCENT = 1


def path_job(key: str):
    """The job of the budget path key: the battery, or ``cli.main`` on the words of key with
    stdout and stderr kept in memory, which raises when the command exits other than 0."""
    from lamconn import cli, selftest

    if key == BATTERY:
        return selftest.run_all
    argv = key.split()

    def job():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code:
            raise RuntimeError(f"{key} exited {code}")

    return job


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
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        shutil.copytree(GOLDEN_INPUTS, Path(directory) / "inputs")
        os.chdir(directory)
        try:
            for key in budget.get("paths", {}):
                job = path_job(key)
                job()
                found[key] = opcode_count(job)
        finally:
            os.chdir(home)
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
