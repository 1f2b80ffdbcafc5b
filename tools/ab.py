"""Time two revisions of lamconn against each other in one process.

    python3 tools/ab.py --base REV [--head REV] --workload W --seed S --ops N --rounds R
    python3 tools/ab.py --base REV [--head REV] --workload W --seed S --ops N --count

Each revision's ``src/`` is unpacked with ``git archive`` into a temporary
directory outside the checkout; without --head, the head side is the
working tree's ``src/``.  The packages are imported side by side, as
``lamconn_base`` and ``lamconn_head``, with a second copy of the base side
as ``lamconn_control``, an A/A control, and each runs the first N inputs
of the workload W for seed S, taken with the op itself from the working
tree's ``benchmarks/workloads.py``, which is only read.

After one untimed pass per side, which also compares the base and head
output fingerprints, R rounds each time the three sides over all N
inputs, in the order base, head, control in odd rounds and the reverse in
even ones.  It prints each side's median seconds per round, the median
and quartiles of the per-round ratio head / base, and under it those of
control / base, then one JSON line with the same figures.  A ratio below
1 means the head is faster.  The control runs the same code as the base,
so its ratio shows how far the run's noise alone moves a ratio: a
head / base median inside the control's quartiles is no resolved
difference.  Run it with the interpreter that is to be measured.

With --count, nothing is timed: after the untimed pass, each of base and
head runs the N inputs twice more, each time under a ``sys.settrace`` tracer
that sets ``f_trace_opcodes`` on every frame, and the second of these runs
counts its opcode events (``opcode_count`` says why the first does not).
It prints each side's count and head / base, then one JSON line.  The count is the
same on every run of one interpreter, so it shows the direction of a change
that the timing noise hides; it overstates a change where big-integer
arithmetic, one opcode however long it runs, is a share of the op.  Counts
of different interpreters are not comparable.
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


SIDES = ("base", "head", "control")


def ratio_figures(name: str, top: list[float], bottom: list[float]) -> dict:
    """The median and the quartiles of the per-round ratios top / bottom, under the keys NAME_median
    and NAME_quartiles."""
    ratios = [t / b for t, b in zip(top, bottom)]
    quartiles = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    return {f"{name}_median": statistics.median(ratios), f"{name}_quartiles": [quartiles[0], quartiles[2]]}


def warmed_jobs(sides: dict, workload, seed: int, ops: int) -> tuple[dict, int]:
    """Each side's job over the first N inputs, after one untimed pass per side, and the number of
    ops whose output fingerprints the base and head share."""
    inputs = list(islice(workload.inputs(seed), ops))
    outputs = {side: [workload.run(lc, inp) for inp in inputs] for side, lc in sides.items()}
    equal = sum(workload.fingerprint(b) == workload.fingerprint(h) for b, h in zip(outputs["base"], outputs["head"]))
    return {side: (lambda lc=lc: [workload.run(lc, inp) for inp in inputs]) for side, lc in sides.items()}, equal


def opcode_count(job) -> int:
    """The opcode events of every frame that job() runs, counted by a sys.settrace tracer.

    job runs twice, each run under a tracer set for it alone, and only the second run is
    counted: on CPython 3.12 and 3.13 a code object's first run under an opcode tracer
    reports none or only some of its opcode events, and on 3.12.1 the first tracer set in
    a process reports none at all, so a job traced once would count low."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        elif event == "call":
            frame.f_trace_opcodes = True
        return tracer

    previous = sys.gettrace()
    for _ in range(2):
        count = 0
        sys.settrace(tracer)
        try:
            job()
        finally:
            sys.settrace(previous)
    return count


def count_opcodes(sides: dict, workload, seed: int, ops: int) -> dict:
    """The opcodes that base and head each run over the first N inputs, their ratio head / base,
    and the number of ops whose output fingerprints the two share."""
    jobs, equal = warmed_jobs(sides, workload, seed, ops)
    counts = {side: opcode_count(job) for side, job in jobs.items()}
    return {"base_opcodes": counts["base"], "head_opcodes": counts["head"],
            "opcode_ratio": counts["head"] / counts["base"], "fingerprints_equal": equal}


def compare(sides: dict, workload, seed: int, ops: int, rounds: int) -> dict:
    """Seconds per round of each side, base, head and control (a second copy of the base), in
    alternating rounds, with the pair ratios head / base and control / base, and the number of ops
    whose output fingerprints the base and head share."""
    jobs, equal = warmed_jobs(sides, workload, seed, ops)
    seconds = {side: [] for side in SIDES}
    for round_index in range(rounds):
        for side in SIDES if round_index % 2 == 0 else SIDES[::-1]:
            seconds[side].append(timed(jobs[side]))
    return {
        "base_s_median": statistics.median(seconds["base"]),
        "head_s_median": statistics.median(seconds["head"]),
        **ratio_figures("ratio", seconds["head"], seconds["base"]),
        **ratio_figures("aa_ratio", seconds["control"], seconds["base"]),
        "fingerprints_equal": equal,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--head", help="git revision of the head side; the working tree when left out")
    parser.add_argument("--workload", required=True, choices=("layouts", "operators", "expansions"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True, help="inputs per round")
    parser.add_argument("--rounds", type=int, help="timed rounds; required unless --count is given")
    parser.add_argument("--count", action="store_true", help="count each side's opcodes instead of timing")
    args = parser.parse_args(argv)
    if args.rounds is None and not args.count:
        parser.error("--rounds is required unless --count is given")
    if args.ops < 1 or (args.rounds is not None and args.rounds < 1):
        parser.error("--ops and --rounds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = load_workload(args.workload)
    with tempfile.TemporaryDirectory(prefix="lamconn-ab-") as tmp:
        base_src = unpack_src(args.base, Path(tmp) / "base")
        head_src = unpack_src(args.head, Path(tmp) / "head") if args.head else ROOT / "src"
        sides = {"base": load_package(base_src, "lamconn_base"), "head": load_package(head_src, "lamconn_head")}
        if args.count:
            result = count_opcodes(sides, workload, args.seed, args.ops)
        else:
            sides["control"] = load_package(base_src, "lamconn_control")
            result = compare(sides, workload, args.seed, args.ops, args.rounds)
    head = args.head or "working tree"
    record = {"workload": args.workload, "seed": args.seed, "ops": args.ops, "rounds": args.rounds,
              "base": args.base, "head": args.head, "python": platform.python_version(), **result}
    if args.count:
        print(f"{args.workload} seed {args.seed}: {args.ops} ops, opcodes counted, python {platform.python_version()}")
        print(f"  base {args.base}: {result['base_opcodes']} opcodes")
        print(f"  head {head}: {result['head_opcodes']} opcodes")
        print(f"  head / base: {result['opcode_ratio']:.4f}")
        print(f"  output fingerprints equal on {result['fingerprints_equal']} of {args.ops} ops")
        print(json.dumps(record))
        return 0
    low, high = result["ratio_quartiles"]
    print(f"{args.workload} seed {args.seed}: {args.ops} ops x {args.rounds} rounds, "
          f"python {platform.python_version()}")
    print(f"  base {args.base}: median {result['base_s_median'] * 1e3:.3f} ms per round")
    print(f"  head {head}: median {result['head_s_median'] * 1e3:.3f} ms per round")
    print(f"  head / base: median {result['ratio_median']:.3f}, quartiles {low:.3f} to {high:.3f}")
    low, high = result["aa_ratio_quartiles"]
    print(f"  base / base (A/A control): median {result['aa_ratio_median']:.3f}, quartiles {low:.3f} to {high:.3f}")
    print(f"  output fingerprints equal on {result['fingerprints_equal']} of {args.ops} ops")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
