"""Acceptance gate: every criterion of the built-in battery, one test line each.

Each test runs one numbered criterion through the same entry point the
`lamconn selftest` command uses, prints its PASS/FAIL line and asserts the
outcome, so `pytest -v` shows one line per criterion and a failure carries
the criterion's own detail text.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lamconn
from lamconn.selftest import CRITERIA, run_criterion

IDS = [f"criterion_{cid:02d}" for cid, _, _ in CRITERIA]


@pytest.mark.parametrize("cid,description", [(cid, desc) for cid, desc, _ in CRITERIA], ids=IDS)
def test_criterion(cid, description):
    result = run_criterion(cid)
    print(result.line())
    assert result.passed, f"criterion {cid} ({description}) failed: {result.detail}"


def test_battery_is_complete():
    assert [cid for cid, _, _ in CRITERIA] == list(range(1, 12))


def test_battery_passes_with_asserts_stripped():
    """Under python -O every assert is gone, so no invariant may live only in one."""
    src = str(Path(lamconn.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "lamconn", "selftest"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert sum(line.startswith("PASS ") for line in proc.stdout.splitlines()) == 11
