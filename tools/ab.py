"""Time two revisions of lamconn against each other in one process.

    python3 tools/ab.py --base REV [--head REV] --workload W --seed S --ops N --rounds R

Each revision's ``src/`` is unpacked with ``git archive`` into a temporary
directory outside the checkout; without --head, the head side is the
working tree's ``src/``.  Both packages are imported side by side, as
``lamconn_base`` and ``lamconn_head``, and both run the first N inputs of
the workload W for seed S, taken with the op itself from the working
tree's ``benchmarks/workloads.py``, which is only read.

After one untimed pass per side, which also compares the two sides'
output fingerprints, R rounds each time both sides over all N inputs,
base first in odd rounds and head first in even ones.  It prints each
side's median seconds per round, and the median and quartiles of the
per-round ratio head / base, then one JSON line with the same figures.
A ratio below 1 means the head is faster.  Run it with the interpreter
that is to be measured; an A/A check, ``--base HEAD`` on an unchanged
tree, should give quartiles around 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_module(path: Path, name: str, **spec_options):
    """The module at path, imported under name."""
    spec = importlib.util.spec_from_file_location(name, path, **spec_options)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while it executes
    spec.loader.exec_module(module)
    return module


def load_package(src: Path, name: str):
    """The lamconn package under src, imported as the top-level package name."""
    return load_module(src / "lamconn" / "__init__.py", name, submodule_search_locations=[str(src / "lamconn")])


def unpack_src(rev: str, into: Path) -> Path:
    """src/ of the revision rev, unpacked under into."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extraction_filter = getattr(tarfile, "data_filter", None)  # on Pythons that have filters
        tar.extractall(into)
    return into / "src"


def load_workload(name: str):
    return load_module(ROOT / "benchmarks" / "workloads.py", "lamconn_ab_workloads").WORKLOADS[name]


def timed(job) -> float:
    gc.collect()
    start = time.perf_counter()
    job()
    return time.perf_counter() - start


def compare(sides: dict, workload, seed: int, ops: int, rounds: int) -> dict:
    """Seconds per round of each side, base and head, in alternating rounds, with the pair ratios,
    and the number of ops whose output fingerprints the two sides share."""
    inputs = list(islice(workload.inputs(seed), ops))
    outputs = {side: [workload.run(lc, inp) for inp in inputs] for side, lc in sides.items()}
    equal = sum(workload.fingerprint(b) == workload.fingerprint(h) for b, h in zip(outputs["base"], outputs["head"]))
    jobs = {side: (lambda lc=lc: [workload.run(lc, inp) for inp in inputs]) for side, lc in sides.items()}
    seconds = {"base": [], "head": []}
    for round_index in range(rounds):
        for side in ("base", "head") if round_index % 2 == 0 else ("head", "base"):
            seconds[side].append(timed(jobs[side]))
    ratios = [h / b for b, h in zip(seconds["base"], seconds["head"])]
    quartiles = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    return {
        "base_s_median": statistics.median(seconds["base"]),
        "head_s_median": statistics.median(seconds["head"]),
        "ratio_median": statistics.median(ratios),
        "ratio_quartiles": [quartiles[0], quartiles[2]],
        "fingerprints_equal": equal,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--head", help="git revision of the head side; the working tree when left out")
    parser.add_argument("--workload", required=True, choices=("layouts", "operators", "expansions"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True, help="inputs per round")
    parser.add_argument("--rounds", type=int, required=True)
    args = parser.parse_args(argv)
    if args.ops < 1 or args.rounds < 1:
        parser.error("--ops and --rounds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = load_workload(args.workload)
    with tempfile.TemporaryDirectory(prefix="lamconn-ab-") as tmp:
        base_src = unpack_src(args.base, Path(tmp) / "base")
        head_src = unpack_src(args.head, Path(tmp) / "head") if args.head else ROOT / "src"
        sides = {"base": load_package(base_src, "lamconn_base"), "head": load_package(head_src, "lamconn_head")}
        result = compare(sides, workload, args.seed, args.ops, args.rounds)
    head = args.head or "working tree"
    low, high = result["ratio_quartiles"]
    print(f"{args.workload} seed {args.seed}: {args.ops} ops x {args.rounds} rounds, "
          f"python {platform.python_version()}")
    print(f"  base {args.base}: median {result['base_s_median'] * 1e3:.3f} ms per round")
    print(f"  head {head}: median {result['head_s_median'] * 1e3:.3f} ms per round")
    print(f"  head / base: median {result['ratio_median']:.3f}, quartiles {low:.3f} to {high:.3f}")
    print(f"  output fingerprints equal on {result['fingerprints_equal']} of {args.ops} ops")
    record = {"workload": args.workload, "seed": args.seed, "ops": args.ops,
              "rounds": args.rounds, "base": args.base, "head": args.head, "python": platform.python_version(),
              **result}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
