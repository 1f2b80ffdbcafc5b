"""The benchmark's tracer and checks still find what they use in lamconn.

benchmarks/tracing.py wraps the functions and methods in its TARGETS list,
looking methods up in their class's own __dict__; benchmarks/workloads.py
runs each workload's op against the public API and checks its output, down
to the term maps of ABElement and LogPoly.  A refactor that moves or reshapes
one of these would otherwise only show when a benchmark run fails.  The
package's own export list is checked as well, so a deleted name cannot stay
behind in ``lamconn.__all__``, and so is the README's library example.  Each
committed BENCH_*.json record of benchmark runs may name only the workloads
and metrics that BENCHMARK.json declares.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import re
import sys
from itertools import islice
from pathlib import Path

import pytest

import lamconn
from lamconn.asymptotics import LogPoly

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"


def load_benchmark_module(name):
    path = BENCHMARKS / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"lamconn_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it executes
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "target", load_benchmark_module("tracing").TARGETS, ids=lambda t: f"{t[1]}.{t[2]}"
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
    workload = load_benchmark_module("workloads").WORKLOADS[name]
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
