"""Byte-identity corpus of CLI runs: one SHA-256 digest per command.

Each command runs in process through ``lamconn.cli.main`` with stdout and
stderr captured; its digest covers stdout, stderr and the exit code.  The
corpus is ``family-a`` with u, v, w in 1..3 and ``family-b`` with p, q in
1..2 and u, v in 0..2 (u = v = 0 is the input-error path), each as text and
as ``--json``, plus ``selftest --json`` with every ``seconds`` value set to 0.

Regenerate ``digests.json`` from the repository root with

    PYTHONPATH=src python tests/golden/regenerate.py

A change that regenerates it says in CHANGES.md which digests changed and
why: that is a change to test data.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from itertools import product
from pathlib import Path

from lamconn import cli

DIGESTS = Path(__file__).resolve().parent / "digests.json"
_SECONDS = re.compile(r'"seconds": [^,\n]+')


def commands() -> list[list[str]]:
    runs = [
        ["family-a", "--u", str(u), "--v", str(v), "--w", str(w)] for u, v, w in product(range(1, 4), repeat=3)
    ]
    runs += [
        ["family-b", "--p", str(p), "--q", str(q), "--u", str(u), "--v", str(v)]
        for p, q, u, v in product(range(1, 3), range(1, 3), range(3), range(3))
    ]
    return [argv + extra for argv in runs for extra in ([], ["--json"])] + [["selftest", "--json"]]


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stdout = out.getvalue()
    if argv[0] == "selftest":
        stdout = _SECONDS.sub('"seconds": 0', stdout)
    return hashlib.sha256(f"{stdout}\0{err.getvalue()}\0{code}".encode()).hexdigest()


def main() -> None:
    digests = {" ".join(argv): digest(argv) for argv in commands()}
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}")


if __name__ == "__main__":
    main()
