"""``import lamconn`` registers every module and runs each one on first use.

The package registers its eight modules in ``sys.modules`` without running
them, binds a public name on its first read, and the CLI reads modules, not
names, so each subcommand runs only the modules it calls.  Each test runs in
a fresh interpreter under ``-X dev -W error``, so a warning from the lazy
loader fails it.  A module has run once its type is ``types.ModuleType``:
before that it is a lazy module, and any attribute read on it would run it.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import test_cli

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "tests" / "golden" / "inputs"
MODULES = {"exact", "errors", "algebra", "exponents", "connection", "families", "asymptotics", "selftest"}

PRELUDE = """\
import json, sys, types

def ran():
    return sorted(
        name.split(".", 1)[1] for name, module in sys.modules.items()
        if name.startswith("lamconn.") and type(module) is types.ModuleType
    )

"""


def run_fresh(script: str):
    """The JSON value on the last line that script printed, run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", PRELUDE + textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env=test_cli.cli_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_registers_every_module_and_runs_none():
    registered, already_run = run_fresh("""
        import lamconn
        registered = sorted(name.split(".", 1)[1] for name in sys.modules if name.startswith("lamconn."))
        print(json.dumps([registered, ran()]))
    """)
    assert set(registered) == MODULES
    assert already_run == []


def test_public_names_are_listed_without_running_a_module():
    names, listed, already_run = run_fresh("""
        import lamconn
        print(json.dumps([lamconn.__all__, dir(lamconn), ran()]))
    """)
    assert set(names) == {
        "ABElement", "ContractError", "CrossValidationReport", "DependencyData", "DetIdentityReport",
        "DimensionError", "ExpansionSpec", "ExpansionTable", "ExponentData", "FamilyResult", "HypothesisError",
        "InputError", "LaurentPoly", "LayoutAnalysis", "LogPoly", "MonomialMu", "SigmaTau",
        "SingularMatrixError", "conj_b", "cross_validate", "dependency", "dependency_solution", "det",
        "det_identity_check", "family_a", "family_b", "homogeneous_components", "invert", "linear_factor_product",
        "match_family", "monodromy_candidates", "nabla_formula", "parse_rat", "pde_coefficients", "propagate",
        "push_nabla", "push_nabla_via_shift", "rank", "shift_identity_check", "sigma_tau", "solve",
        "validate_hypotheses", "verify_table",
    }
    assert len(names) == 43
    assert set(names) <= set(listed)
    assert already_run == []


def test_reading_propagate_runs_its_modules_only():
    assert run_fresh("""
        import lamconn
        lamconn.propagate
        print(json.dumps(ran()))
    """) == ["asymptotics", "errors", "exact"]


def test_propagate_command_runs_its_modules_only():
    code, modules = run_fresh(f"""
        from lamconn import cli
        code = cli.main(["propagate", {str(INPUTS / "spec-readme.json")!r}])
        print(json.dumps([code, ran()]))
    """)
    assert code == 0
    assert modules == ["asymptotics", "cli", "errors", "exact"]


def test_check_command_runs_its_modules_only():
    code, modules = run_fresh(f"""
        from lamconn import cli
        code = cli.main(["check", {str(INPUTS / "cube.json")!r}])
        print(json.dumps([code, ran()]))
    """)
    assert code == 2
    assert modules == ["cli", "errors", "exact", "exponents"]


def test_tracer_wraps_every_target_after_a_fresh_import():
    # The benchmark's own sequence: instrument straight after the import, when
    # no module has run yet; every target and every public name read after it
    # is the wrapper.
    already_run, unwrapped = run_fresh(f"""
        sys.path.insert(0, {str(ROOT / "benchmarks")!r})
        import lamconn
        from tracing import TARGETS, Tracer, instrument
        already_run = ran()
        instrument(Tracer())
        unwrapped = []
        for _, module_name, attr in TARGETS:
            module = sys.modules["lamconn." + module_name]
            if "." in attr:
                class_name, method = attr.split(".")
                value = vars(getattr(module, class_name))[method]
                value = getattr(value, "__func__", value)
            else:
                value = getattr(module, attr)
                if attr in lamconn.__all__ and getattr(lamconn, attr) is not value:
                    unwrapped.append("lamconn." + attr)
            if not hasattr(value, "__wrapped__"):
                unwrapped.append(module_name + "." + attr)
        print(json.dumps([already_run, unwrapped]))
    """)
    assert already_run == []
    assert unwrapped == []
