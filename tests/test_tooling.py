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
or counts the opcodes each revision runs, the opcode budget in tools/
fails a count more than 1% past its budget, and the line tracer in tools/
reports the statement lines that a job never ran.
"""

import contextlib
import dataclasses
import functools
import importlib
import importlib.util
import io
import json
import os
import platform
import re
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import lamconn
from lamconn import cli, exponents
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


def test_traffic_check_fails_on_a_count_that_grew(capsys):
    # the committed counts with one module one lower: that module's count grew, so the check
    # fails and names it; raised by one instead, the count fell, which passes and is printed
    tool = load_module(ROOT / "tools", "traffic_lines")
    counts = json.loads((ROOT / "tools" / "unrun_counts.json").read_text(encoding="utf-8"))
    lower = {**counts, "exact.py": {**counts["exact.py"], "unrun": counts["exact.py"]["unrun"] - 1}}
    unrun = counts["exact.py"]["unrun"]
    assert tool.check(counts, lower) == 1
    assert capsys.readouterr().out == f"exact.py: {unrun} unrun statement lines, up from {unrun - 1}: audit the new ones\n"
    higher = {**counts, "exact.py": {**counts["exact.py"], "unrun": counts["exact.py"]["unrun"] + 1}}
    assert tool.check(counts, higher) == 0
    assert capsys.readouterr().out.startswith("exact.py: ")
    assert tool.check(counts, counts) == 0
    assert capsys.readouterr().out == ""


def test_traffic_ops_are_run_checked_fingerprinted_and_measured():
    # benchmarks/run.py fingerprints every op and measures its coefficient bits, and the
    # operators measure reads ABElement.terms, so the traffic runs that property too
    tool = load_module(ROOT / "tools", "traffic_lines")
    workload = load_module(BENCHMARKS, "workloads").WORKLOADS["operators"]
    calls = dict.fromkeys(("run", "check", "fingerprint", "coeff_bits"), 0)

    def counted(name):
        def call(*args):
            calls[name] += 1
            return getattr(workload, name)(*args)
        return call

    counting = dataclasses.replace(workload, **{name: counted(name) for name in calls})
    hits = tool.trace_lines(lambda: tool.run_ops(lamconn, counting, 2))
    assert calls == dict.fromkeys(calls, 2)
    unrun, _ = tool.unrun_lines(hits)["algebra.py"]
    assert "grouped.setdefault((i, j), {})[e] = Fraction(n, self._den)" not in [text for _, text in unrun]


def test_ab_times_a_revision_against_the_working_tree():
    # A smoke run: HEAD unpacked by git archive against the working tree, both
    # imported in one process with a second copy of HEAD as the A/A control,
    # three ops a round; it takes about a second.
    if not (ROOT / ".git").exists():
        pytest.skip("tools/ab.py unpacks revisions from a git checkout")
    argv = ["--base", "HEAD", "--workload", "operators", "--seed", "1", "--ops", "3", "--rounds", "2"]
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), *argv], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "operators seed 1: 3 ops x 2 rounds, python " + sys.version.split()[0]
    assert lines[4].startswith("  base / base (A/A control): median ")
    record = json.loads(lines[-1])
    assert record["fingerprints_equal"] == 3
    for name in ("ratio", "aa_ratio"):
        low, high = record[f"{name}_quartiles"]
        assert 0 < low <= record[f"{name}_median"] <= high


@pytest.mark.parametrize("workload", ["layouts", "operators", "expansions"])
def test_ab_counts_the_same_opcodes_for_a_revision_against_itself(workload):
    # HEAD against HEAD, both unpacked by git archive: the two sides run the same code over the
    # same inputs, each after its untimed pass, so the counts are equal and head / base is 1.0
    if not (ROOT / ".git").exists():
        pytest.skip("tools/ab.py unpacks revisions from a git checkout")
    argv = ["--base", "HEAD", "--head", "HEAD", "--workload", workload, "--seed", "1", "--ops", "2", "--count"]
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), *argv], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == f"{workload} seed 1: 2 ops, opcodes counted, python " + sys.version.split()[0]
    assert lines[3] == "  head / base: 1.0000"
    record = json.loads(lines[-1])
    assert record["base_opcodes"] == record["head_opcodes"] > 0
    assert record["opcode_ratio"] == 1.0
    assert record["fingerprints_equal"] == 2


def test_ab_opcode_count_sees_every_frame_of_the_job():
    # the count takes in the frames that the job calls, and two runs of one job count the same
    ab = load_module(ROOT / "tools", "ab")

    def inner():
        return sum(range(3))

    def outer():
        return [inner() for _ in range(10)]

    assert ab.opcode_count(outer) == ab.opcode_count(outer) > 10 * ab.opcode_count(inner) > 0


def test_ab_opcode_count_sees_a_code_object_traced_for_the_first_time():
    # each job is a fresh code object, run under an opcode tracer for the first time in the
    # count: it counts in full, as a job that ran under the tracer before does
    ab = load_module(ROOT / "tools", "ab")

    def fresh_job():
        namespace = {}
        exec("def job():\n    return [x + 1 for x in range(10)]\n", namespace)
        return namespace["job"]

    job = fresh_job()
    assert ab.opcode_count(fresh_job()) == ab.opcode_count(job) == ab.opcode_count(job) > 10


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
    result = ab.compare({"base": lamconn, "head": head, "control": lamconn}, ab.load_workload("operators"), 1, 2, 3)
    assert result["fingerprints_equal"] == 0
    # the untimed pass and each of the three timed rounds run both ops
    assert head.calls == 2 * 4
    assert result["head_s_median"] > 0
    # the control times the base's own code: its ratio to the base is one of two equal jobs
    low, high = result["aa_ratio_quartiles"]
    assert 0 < low <= result["aa_ratio_median"] <= high


def budget_file(tmp_path, opcodes):
    """A budget of the running interpreter for two seed-1 operators inputs, of opcodes opcodes."""
    version = ".".join(platform.python_version_tuple()[:2])
    path = tmp_path / "budget.json"
    path.write_text(json.dumps({"python": version, "seed": 1,
                                "workloads": {"operators": {"ops": 2, "opcodes": opcodes}}}), encoding="utf-8")
    return path


def test_opcount_budget_fails_on_a_count_more_than_1_percent_past_it(tmp_path, capsys):
    tool = load_module(ROOT / "tools", "opcount_budget")
    count = tool.counts({"seed": 1, "workloads": {"operators": {"ops": 2}}})["operators"]
    assert count > 0
    # at the count, and 1% under it, the budget holds; 2% under it, the step fails and names the workload
    for opcodes, status in ((count, 0), (count * 100 // 101 + 1, 0), (count * 98 // 100, 1)):
        assert tool.main(budget_file(tmp_path, opcodes)) == status
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"operators: {count} opcodes against a budget of {opcodes} ")
        assert lines[0].endswith("more than 1% past it: cut the count or raise the budget") == (status == 1)
        assert json.loads(lines[-1]) == {"operators": count}
    # a count that fell is printed, to be lowered, and passes
    assert tool.main(budget_file(tmp_path, count + 1)) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith(": lower the budget")


def test_opcount_budget_fails_on_a_path_more_than_1_percent_past_it(tmp_path, capsys):
    tool = load_module(ROOT / "tools", "opcount_budget")
    key = "family-a --u 2 --v 2 --w 1"
    count = tool.counts({"seed": 1, "workloads": {}, "paths": {key: {}}})[key]
    assert count > 0
    version = ".".join(platform.python_version_tuple()[:2])
    for opcodes, status in ((count, 0), (count * 98 // 100, 1)):
        path = tmp_path / "budget.json"
        path.write_text(json.dumps({"python": version, "seed": 1, "workloads": {},
                                    "paths": {key: {"opcodes": opcodes}}}), encoding="utf-8")
        assert tool.main(path) == status
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"{key}: {count} opcodes against a budget of {opcodes} ")
        assert lines[0].endswith("more than 1% past it: cut the count or raise the budget") == (status == 1)


def test_opcount_budget_refuses_a_path_that_fails():
    tool = load_module(ROOT / "tools", "opcount_budget")
    home = os.getcwd()
    # check on the golden cube exits 2, so its path is refused rather than counted
    with pytest.raises(RuntimeError, match="^check inputs/cube.json exited 2$"):
        tool.counts({"seed": 1, "workloads": {}, "paths": {"check inputs/cube.json": {}}})
    assert os.getcwd() == home


def test_opcount_budget_counts_a_command_alone():
    # a path's count is that of the command's own function, parsed and warmed outside the tracer
    tool = load_module(ROOT / "tools", "opcount_budget")
    ab = load_module(ROOT / "tools", "ab")
    regenerate = load_module(ROOT / "tests" / "golden", "regenerate")
    key = "check inputs/family-a.json"
    count = tool.counts({"seed": 1, "workloads": {}, "paths": {key: {}}})[key]
    args = cli.build_parser().parse_args(key.split())
    with regenerate.workspace(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert args.fn(args) == 0
        assert ab.opcode_count(functools.partial(args.fn, args)) == count


def test_opcount_budget_paths_are_golden_commands():
    tool = load_module(ROOT / "tools", "opcount_budget")
    regenerate = load_module(ROOT / "tests" / "golden", "regenerate")
    paths = json.loads(tool.BUDGET.read_text(encoding="utf-8"))["paths"]
    assert {tool.BATTERY, tool.PARSER} <= set(paths)
    golden = {" ".join(argv) for argv in regenerate.commands()}
    assert set(paths) - {tool.BATTERY, tool.PARSER} <= golden


def test_opcount_budget_sees_a_command_that_renders_its_report_twice(monkeypatch, capsys):
    # +2.8% of check's own count, where the whole cli.main run moves only 0.2%
    tool = load_module(ROOT / "tools", "opcount_budget")
    key = "check inputs/family-a.json"
    budget = {"seed": 1, "workloads": {}, "paths": {key: {}}}
    count = tool.counts(budget)[key]
    budget["paths"][key]["opcodes"] = count
    to_json = exponents.LayoutAnalysis.to_json

    def twice(self):
        to_json(self)
        return to_json(self)

    monkeypatch.setattr(exponents.LayoutAnalysis, "to_json", twice)
    assert tool.check(tool.counts(budget), budget) == 1
    assert capsys.readouterr().out.startswith(f"{key}: ")


def test_opcount_budget_compares_only_its_own_interpreter(tmp_path, capsys):
    tool = load_module(ROOT / "tools", "opcount_budget")
    path = budget_file(tmp_path, 1)
    path.write_text(path.read_text(encoding="utf-8").replace('"python": "3.', '"python": "2.'), encoding="utf-8")
    assert tool.main(path) == 2
    assert capsys.readouterr().out.endswith(": nothing compared\n")


def test_opcount_does_not_move_with_the_hash_seed():
    # each workload's first two seed-1 inputs, one CLI command and the parser, counted in two processes under
    # two hash seeds
    script = ("import json, sys; sys.path[:0] = [sys.argv[1]]; import opcount_budget; "
              "ops = {'ops': 2}; print(json.dumps(opcount_budget.counts({'seed': 1, 'workloads': "
              "{'layouts': ops, 'operators': ops, 'expansions': ops}, "
              "'paths': {'family-b --p 2 --q 2 --u 1 --v 1': {}, 'cli.build_parser()': {}}})))")
    found = []
    for hash_seed in ("0", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        done = subprocess.run([sys.executable, "-c", script, str(ROOT / "tools")], capture_output=True, text=True,
                              timeout=120, env=env)
        assert done.returncode == 0, done.stderr
        found.append(json.loads(done.stdout))
    assert found[0] == found[1]
    assert all(count > 0 for count in found[0].values())
