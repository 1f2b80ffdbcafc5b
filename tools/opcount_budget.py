"""Count the opcodes of each workload's first inputs against the committed budget.

    python3 tools/opcount_budget.py

For each workload in ``tools/opcount_budget.json``, the working tree's
lamconn runs the first N inputs of the budget's seed once untimed and then
under the opcode tracer of ``tools/ab.py --count``, so a count here is the
head count that mode prints for the same inputs.  Each count is printed
beside its budget, then one JSON line holds the counts.  A count more
than 1% past its budget names its workload and exits 1; a count below
its budget is printed, and the budget should then be lowered to it, as
``tools/traffic_lines.py`` treats ``tools/unrun_counts.json``.  A count is
the same on every run of one interpreter, under any hash seed, but counts of
different interpreters are not comparable: the budget holds CPython 3.11's,
and on another interpreter the script compares nothing and exits 2.  The
package and ``benchmarks/workloads.py`` are only read.
"""

from __future__ import annotations

import json
import platform
import sys
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tools")]  # ab, for the workloads and the tracer
from ab import load_workload, opcode_count  # noqa: E402

BUDGET = ROOT / "tools" / "opcount_budget.json"
# a count may pass its budget by this many percent
SLACK_PERCENT = 1


def counts(budget: dict) -> dict[str, int]:
    """The opcodes that the working tree's lamconn runs over each workload's first inputs of
    budget, counted after one untimed pass, by workload."""
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
    return found


def check(found: dict[str, int], budget: dict) -> int:
    """1 when a count of found is more than SLACK_PERCENT past its budget, naming each such
    workload; 0 otherwise.  Every count is printed beside its budget."""
    status = 0
    for name, count in found.items():
        allowed = budget["workloads"][name]["opcodes"]
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
