"""The benchmark's tracer and checks still find what they use in lamconn.

benchmarks/tracing.py wraps the functions and methods in its TARGETS list,
looking methods up in their class's own __dict__; benchmarks/workloads.py
calls LogPoly methods to check expansion tables.  A refactor that moves one
of these would otherwise only show when a traced benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from lamconn.asymptotics import LogPoly

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("lamconn_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", load_tracing().TARGETS, ids=lambda t: f"{t[1]}.{t[2]}")
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
