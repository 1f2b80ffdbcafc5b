"""List the statement lines of lamconn that no traffic runs.

    python3 tools/traffic_lines.py

Runs the package's traffic under a ``sys.settrace`` line tracer (stdlib
only) and prints, per module of ``src/lamconn``, each statement line that
never ran, then one JSON line of counts per module.  It then compares each
module's count of unrun lines with the one in ``tools/unrun_counts.json``,
a file of that JSON line: it names each module whose count grew and exits
1, and it only prints a count that fell, which the file should then be
lowered to.  The committed counts are those of the lines that the audit in
ROADMAP.md accounts for, on CPython 3.11, whose compiler sets which lines
hold code.  The traffic is:

- every command of ``tests/golden/outputs.json`` through ``cli.main``, in
  the temporary working directory that ``tests/golden/regenerate.py``
  builds, so the CSV files go there;
- the battery, ``selftest.run_all()``;
- the first 300 seed-101 inputs of ``layouts``, 150 of ``operators`` and
  30 of ``expansions`` (``benchmarks/workloads.py``, loaded as
  ``tools/ab.py`` loads it), each run and checked, and its output
  fingerprinted and measured in coefficient bits, as ``benchmarks/run.py``
  does on every op.

These files are only read.  lamconn is imported under the tracer, so the
lines that run when a module loads count as run.  A statement line is the
first line of a statement that is not a docstring and that the compiler
gives code of its own; an ``else:`` or a decorator is not one.  Docstrings
are found by ``code_lines.docstrings``, so this audit and the code-line
count leave out the same ones.
"""

from __future__ import annotations

import ast
import contextlib
import json
import os
import sys
from collections import defaultdict
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tools")]  # code_lines here, and ab for the traffic
from code_lines import docstrings  # noqa: E402

PACKAGE = ROOT / "src" / "lamconn"
SEED = 101
OPS = {"layouts": 300, "operators": 150, "expansions": 30}


def statement_lines(source: str) -> set[int]:
    """The first line of every statement of source that is not a docstring
    and at which the compiled code has an instruction."""
    tree = ast.parse(source)
    statements = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)}
    statements -= {doc.lineno for doc in docstrings(tree)}
    coded, codes = set(), [compile(tree, "<source>", "exec")]
    while codes:
        code = codes.pop()
        coded.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return statements & coded


def trace_lines(job) -> dict[str, set[int]]:
    """Run job() under a line tracer; the lines that ran, by the path of each file of lamconn."""
    prefix = str(PACKAGE.resolve())
    hits: dict[str, set[int]] = defaultdict(set)

    def on_line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        job()
    finally:
        sys.settrace(previous)
    return hits


def unrun_lines(hits: dict[str, set[int]]) -> dict[str, tuple[list[tuple[int, str]], int]]:
    """Per module of lamconn, by its file name: the statement lines that hits
    does not hold, each with its text, and the count of statement lines."""
    report = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        statements = statement_lines(source)
        ran = hits.get(str(path.resolve()), set())
        text = source.splitlines()
        report[str(path.relative_to(PACKAGE))] = ([(n, text[n - 1].strip()) for n in sorted(statements - ran)],
                                                  len(statements))
    return report


def traffic() -> None:
    """The golden corpus, the battery and the workloads' first inputs (``run_ops``), run in that order."""
    sys.path[:0] = [str(ROOT / "src")]
    from ab import load_module, load_workload

    regenerate = load_module(ROOT / "tests" / "golden" / "regenerate.py", "lamconn_traffic_regenerate")
    import lamconn
    from lamconn import cli, selftest

    corpus = json.loads((ROOT / "tests" / "golden" / "outputs.json").read_text(encoding="utf-8"))
    with regenerate.workspace(), open(os.devnull, "w") as sink:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for command in corpus:
                cli.main(command.split())
    selftest.run_all()
    for name, count in OPS.items():
        run_ops(lamconn, load_workload(name), count)


def run_ops(lc, workload, count: int) -> None:
    """The first count seed-101 inputs of workload, each run on lc and checked, and its
    output fingerprinted and measured in coefficient bits, as benchmarks/run.py treats an op."""
    for inp in islice(workload.inputs(SEED), count):
        out = workload.run(lc, inp)
        workload.check(lc, inp, out)
        workload.fingerprint(out)
        workload.coeff_bits(out)


def check(counts: dict[str, dict[str, int]], committed: dict[str, dict[str, int]]) -> int:
    """1 when a module's unrun count in counts is above its count in committed (0 for a
    module that committed lacks), naming each such module; 0 otherwise.  A count below
    its committed one is printed and passes."""
    status = 0
    for module, now in counts.items():
        unrun, before = now["unrun"], committed.get(module, {"unrun": 0})["unrun"]
        if unrun > before:
            print(f"{module}: {unrun} unrun statement lines, up from {before}: audit the new ones")
            status = 1
        elif unrun < before:
            print(f"{module}: {unrun} unrun statement lines, down from {before}: lower the committed count")
    return status


def main() -> int:
    report = unrun_lines(trace_lines(traffic))
    counts = {}
    for module, (lines, statements) in report.items():
        counts[module] = {"statements": statements, "unrun": len(lines)}
        print(f"{module}: {len(lines)} of {statements} statement lines never ran")
        for number, text in lines:
            print(f"  {number:4d}  {text}")
    print(json.dumps(counts))
    return check(counts, json.loads((ROOT / "tools" / "unrun_counts.json").read_text(encoding="utf-8")))


if __name__ == "__main__":
    sys.exit(main())
