"""The benchmark's tracer and checks still find what they use in lamconn.

benchmarks/tracing.py wraps the functions and methods in its TARGETS list,
looking methods up in their class's own __dict__; benchmarks/workloads.py
runs each workload's op against the public API and checks its output, down
to the term maps of ABElement and LogPoly.  A refactor that moves or reshapes
one of these would otherwise only show when a benchmark run fails.  The
package's own export list is checked as well, so a deleted name cannot stay
behind in ``lamconn.__all__``, and so is the README's library example.  Each
committed BENCH_*.json record of benchmark runs may name only the workloads
and metrics that BENCHMARK.json declares.  The code-line counter in tools/
leaves docstrings, comments and blank lines out, the A/B timer in tools/
runs two revisions side by side and counts the ops whose outputs differ,
and the line tracer in tools/ reports the statement lines that a job never
ran.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import re
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import lamconn
from lamconn.asymptotics import LogPoly

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"


def load_module(directory, name):
    path = directory / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"lamconn_{directory.name}_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it executes
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "target", load_module(BENCHMARKS, "tracing").TARGETS, ids=lambda t: f"{t[1]}.{t[2]}"
)
def test_trace_target_resolves(target):
    _, module_name, attr = target
    module = importlib.import_module(f"lamconn.{module_name}")
    if "." not in attr:
        assert callable(getattr(module, attr))
        return
    class_name, method = attr.split(".")
    assert method in vars(getattr(module, class_name))


@pytest.mark.parametrize("name", ["const", "coeffs", "constant_term", "degree"])
def test_logpoly_keeps_what_the_expansion_check_calls(name):
    assert hasattr(LogPoly, name)


@pytest.mark.parametrize("name", ["layouts", "operators", "expansions"])
def test_workload_checks_accept_runs_and_reject_corruptions(name):
    workload = load_module(BENCHMARKS, "workloads").WORKLOADS[name]
    for inp in islice(workload.inputs(0), 3):
        out = workload.run(lamconn, inp)
        assert workload.check(lamconn, inp, out) is None
        assert workload.check(lamconn, inp, workload.corrupt(lamconn, out)) is not None
        assert type(workload.fingerprint(out)) is str
        assert type(workload.coeff_bits(out)) is int


def test_exports_are_consistent():
    # A name deleted from a module but left in __all__ fails the star import.
    assert all(hasattr(lamconn, name) for name in lamconn.__all__)
    assert len(set(lamconn.__all__)) == len(lamconn.__all__)
    namespace = {}
    exec("from lamconn import *", namespace)
    assert set(lamconn.__all__) <= namespace.keys()


def test_readme_library_example_runs():
    # The README's one python block uses only public names, so it goes stale
    # when one of them is deleted or reshaped.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(blocks[0], {})
    assert out.getvalue().splitlines()[:2] == [
        "2*a - 2*b",
        "(a - 5/2*b)*[(a - 7/4*b)*(a - 3/4*b) - 4*lam^-2*(a - b)]",
    ]


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_file_names_declared_workloads_and_metrics(path):
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    metrics = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    bench = json.loads(path.read_text(encoding="utf-8"))
    for run in bench["runs"] + bench.get("traced", []):
        assert run["workload"] in workloads
        assert set(run["metrics"]) <= metrics, sorted(set(run["metrics"]) - metrics)


COUNTED_SOURCE = '''"""Module docstring
over two lines."""

import os  # a comment


def f(x):
    """One line."""
    # only a comment
    return (x +
            1)


class C:
    """Class docstring."""

    text = """a string that is not a docstring
    spans two lines"""
'''


def test_code_line_counter(tmp_path, capsys):
    counter = load_module(ROOT / "tools", "code_lines")
    # import, def, the two lines of return, class, the two lines of the string
    assert counter.code_lines(COUNTED_SOURCE) == 7
    (tmp_path / "a.py").write_text(COUNTED_SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    assert counter.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["     7 a.py", "     1 b.py", "     8 total", ""]


def test_traffic_lines_reports_what_a_job_never_ran():
    tool = load_module(ROOT / "tools", "traffic_lines")
    unrun, statements = tool.unrun_lines(tool.trace_lines(lambda: lamconn.parse_rat("1/2")))["exact.py"]
    texts = [text for _, text in unrun]
    # a good rational: the refusal never runs, and the read does
    assert 'raise InputError(f"not a rational literal: {text!r}")' in texts
    assert "m = _RAT_RE.match(text.strip())" not in texts
    assert len(texts) < statements


def test_ab_times_a_revision_against_the_working_tree():
    # A smoke run: HEAD unpacked by git archive against the working tree, both
    # imported in one process, three ops a round; it takes about a second.
    if not (ROOT / ".git").exists():
        pytest.skip("tools/ab.py unpacks revisions from a git checkout")
    argv = ["--base", "HEAD", "--workload", "operators", "--seed", "1", "--ops", "3", "--rounds", "2"]
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), *argv], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "operators seed 1: 3 ops x 2 rounds, python " + sys.version.split()[0]
    record = json.loads(lines[-1])
    assert record["fingerprints_equal"] == 3
    low, high = record["ratio_quartiles"]
    assert 0 < low <= record["ratio_median"] <= high


def test_ab_times_a_side_whose_output_differs_and_counts_no_equal_fingerprint():
    class NegatingSide:
        """lamconn with a push_nabla that negates its result, so each operators op prints other text."""

        calls = 0

        def push_nabla(self, x, st):
            self.calls += 1
            return -lamconn.push_nabla(x, st)

        def __getattr__(self, name):
            return getattr(lamconn, name)

    ab = load_module(ROOT / "tools", "ab")
    head = NegatingSide()
    result = ab.compare({"base": lamconn, "head": head}, ab.load_workload("operators"), 1, 2, 3)
    assert result["fingerprints_equal"] == 0
    # the untimed pass and each of the three timed rounds run both ops
    assert head.calls == 2 * 4
    assert result["head_s_median"] > 0
