"""Byte-identity corpus of CLI runs: one record of what each command printed.

Each command runs in process through ``lamconn.cli.main`` with stdout and
stderr captured.  Its record in ``outputs.json`` holds the exit code and the
text of stdout, of stderr and, for ``propagate --csv``, of the CSV file, each
as a list of lines: the text split at every "\n", so that joining the list
with "\n" gives back its exact bytes (the CSV's "\r" stays at the end of
each line).  The commands run in a temporary working directory that holds
every input file, so the paths in their messages are the same on every
machine.  The corpus:

- ``check`` and ``analyze``, text and ``--json``, on the committed layouts in
  ``inputs/`` (both family goldens with and without ``mu``, the family-A
  layout with a ``mu`` that is not a list and with one of the wrong length,
  which ``check`` refuses as ``analyze`` does, the cube, a layout failing only ii), one failing both, an n = 3 layout of
  no family, a zero last exponent, an over-budget layout, malformed JSON and
  a missing file) and on ``LAYOUT_COUNT`` layouts drawn by ``random_layouts``;
- ``family-a`` with u, v, w in 1..3 and ``family-b`` with p, q in 1..2 and
  u, v in 0..2 (u = v = 0 is the input-error path), text and ``--json``;
- ``propagate``, text, ``--json`` and ``--csv``, on the README spec, on
  ``SPEC_COUNT`` specs drawn by ``random_specs`` and on one over the log
  depth limit (N = 17);
- ``selftest`` text, which carries no seconds, and ``selftest --json`` with
  every ``seconds`` value set to 0;
- usage errors, recorded as their exit code only, because argparse words its
  messages differently across Python versions.

Regenerate ``outputs.json`` from the repository root with

    PYTHONPATH=src python tests/golden/regenerate.py

and read what changed with ``git diff tests/golden/outputs.json``: each
changed line of output shows as a changed line of its record.  To compare two
revisions, regenerate on one, then on the other, and diff the two files.  A
change that regenerates the records says in CHANGES.md which commands changed
and why: that is a change to test data.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import shutil
import tempfile
from itertools import product
from pathlib import Path

from lamconn import cli

GOLDEN = Path(__file__).resolve().parent
OUTPUTS = GOLDEN / "outputs.json"
INPUTS = GOLDEN / "inputs"
LAYOUT_COUNT = 100
LAYOUT_SEED = 20261018
SPEC_COUNT = 10
SPEC_SEED = 20261019
USAGE_ERRORS = (
    ["family-a", "--u", "x", "--v", "1", "--w", "1"],
    ["family-b", "--p", "1", "--q", "1", "--u", "1"],
    ["check"],
    ["propagate", "inputs/spec-readme.json", "--csv"],
    ["bogus"],
    [],
)
_SECONDS = re.compile(r'"seconds": [^,\n]+')


def random_layouts() -> list[dict]:
    """LAYOUT_COUNT layouts with n = 1..4 and entries 0..6; every fifth is built
    to fail hypothesis i), every fifth to fail ii), and about half carry a mu."""
    rng = random.Random(LAYOUT_SEED)
    layouts: list[dict] = []
    while len(layouts) < LAYOUT_COUNT:
        n = rng.randint(1, 4)
        alphas = [[rng.randint(0, 6) for _ in range(n + 1)] for _ in range(n + 2)]
        if len(layouts) % 5 == 3:
            # the last exponent is the midpoint of the first two: quasi-homogeneous
            alphas[-1] = [x + y for x, y in zip(alphas[0], alphas[1])]
            alphas[0] = [2 * x for x in alphas[0]]
            alphas[1] = [2 * x for x in alphas[1]]
        elif len(layouts) % 5 == 4:
            # the last basis exponent is twice the first: a dependent basis
            alphas[n] = [2 * x for x in alphas[0]]
        if len({tuple(a) for a in alphas}) != n + 2:
            continue
        layout = {"n": n, "alphas": alphas}
        if rng.random() < 0.5:
            layout["mu"] = [rng.randint(0, 3) for _ in range(n + 1)]
        layouts.append(layout)
    return layouts


def random_specs() -> list[dict]:
    """SPEC_COUNT small propagate specs: one or two rhos (a pair may be congruent
    mod 1, which is the input-error path), N = 0..3, M = 0..10 and up to four seeds."""
    rng = random.Random(SPEC_SEED)

    def rat(bound: int) -> str:
        return f"{rng.randint(-bound, bound)}/{rng.randint(1, bound)}"

    specs = []
    for _ in range(SPEC_COUNT):
        rhos = [f"{rng.randint(-2, 9)}/{rng.randint(3, 6)}" for _ in range(rng.randint(1, 2))]
        depth, order = rng.randint(0, 3), rng.randint(0, 10)
        seed_map = {
            f"{rng.randrange(len(rhos))},{rng.randint(0, depth)},{rng.randint(0, order)}": rat(6)
            for _ in range(rng.randint(1, 4))
        }
        specs.append({"rhos": rhos, "N": depth, "M": order, "alpha": rat(5), "beta": rat(5), "seed": seed_map})
    return specs


def _generated_files() -> dict[str, dict]:
    files = {f"layouts/{i:03d}.json": obj for i, obj in enumerate(random_layouts())}
    files.update({f"specs/{i:02d}.json": obj for i, obj in enumerate(random_specs())})
    return files


@contextlib.contextmanager
def workspace():
    """A temporary working directory holding ``inputs/`` and the generated
    ``layouts/`` and ``specs/``; the previous one is restored on exit."""
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        shutil.copytree(INPUTS, root / "inputs")
        for name, obj in _generated_files().items():
            path = root / name
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(obj), encoding="utf-8")
        os.chdir(root)
        try:
            yield
        finally:
            os.chdir(previous)


def commands() -> list[list[str]]:
    layouts = sorted(f"inputs/{p.name}" for p in INPUTS.glob("*.json") if not p.name.startswith("spec-"))
    layouts += ["inputs/missing.json"] + [f"layouts/{i:03d}.json" for i in range(LAYOUT_COUNT)]
    specs = ["inputs/spec-readme.json", "inputs/spec-over-limit.json"]
    specs += [f"specs/{i:02d}.json" for i in range(SPEC_COUNT)]
    runs = [
        ["family-a", "--u", str(u), "--v", str(v), "--w", str(w)] for u, v, w in product(range(1, 4), repeat=3)
    ]
    runs += [
        ["family-b", "--p", str(p), "--q", str(q), "--u", str(u), "--v", str(v)]
        for p, q, u, v in product(range(1, 3), range(1, 3), range(3), range(3))
    ]
    runs += [[command, path] for path in layouts for command in ("check", "analyze")]
    runs += [["propagate", path] for path in specs]
    out = [argv + extra for argv in runs for extra in ([], ["--json"])]
    out += [["propagate", path, "--csv", "out.csv"] for path in specs]
    return out + [["selftest"], ["selftest", "--json"]] + [list(argv) for argv in USAGE_ERRORS]


def record(argv: list[str]) -> dict:
    """The record of one command; run it inside ``workspace()``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if argv in USAGE_ERRORS:
        return {"exit": code}
    stdout = out.getvalue()
    if argv[0] == "selftest":
        stdout = _SECONDS.sub('"seconds": 0', stdout)
    result = {"exit": code, "stdout": stdout.split("\n"), "stderr": err.getvalue().split("\n")}
    if "--csv" in argv:
        csv = Path(argv[argv.index("--csv") + 1])
        if csv.exists():
            result["csv"] = csv.read_bytes().decode().split("\n")
            csv.unlink()
    return result


def main() -> None:
    with workspace():
        records = {" ".join(argv): record(argv) for argv in commands()}
    OUTPUTS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {OUTPUTS}")


if __name__ == "__main__":
    main()
