"""Benchmark for lamconn: one workload, one seed, one process, one thread.

    python3 benchmarks/run.py --workload layouts --seed 1 --seconds 12 --trace 0

Run from the repository root; lamconn is imported from ``src/``.  The loop
is closed: a single caller sends the next op only after the previous one
returned.  Each op is timed alone; outputs are checked outside the timed
interval.

The inputs of a run are a fixed batch: the first whole blocks of the seeded
input stream, as many as fill the run at the speed of the seed commit.  So
one seed always means the same inputs, whatever the speed of the code.

--trace 0 reports the end-to-end metrics.  A first pass over the batch
checks every output in full.  Then PASSES timed passes run the batch again,
each after a fresh set-up (a fresh import of lamconn), and every output must
reproduce the checked one exactly.

Times are scaled to a reference machine speed.  On a shared machine the
speed of one core drifts by up to 2x over seconds to minutes, with the
interpreter slowed as a whole.  So between ops, every REFERENCE_INTERVAL_S
of op time, the run times ``reference_job``, a fixed exact-arithmetic job
in the standard library only.  Each op time is scaled by REFERENCE_S over
the median of the four reference times nearest to it, and a set-up time by
the three taken right after it.  REFERENCE_S is what the job takes on the
machine that set the baseline when it is quiet, so scaled times read as
times there.  An op's latency is then its median over the passes.  The raw,
unscaled figures are printed beside the scaled ones.

--trace 1 reports per-layer metrics instead.  It runs a batch of
``traced_ops`` inputs untraced, then again with spans on (after a fresh
import), so that every count repeats exactly for a given seed and the
overhead ratio compares equal work.  Self times and the overhead ratio are
scaled to the reference speed like the end-to-end times.  Raw spans go to
``.bench_out/spans-<workload>-<seed>.txt``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 0 when the run completed, even if outputs were wrong (then correct
is false); it is nonzero, without a result line, when the run could not be
made or a checker failed to reject a corrupted output.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracing import LAYERS, Tracer, instrument
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PASSES = 3
EXTRA_SETUPS = 2  # set-ups without a pass, so that setup_s is a median of five
# reference_job() on the baseline machine (2-core x86-64 VM, CPython 3.11) when quiet.
REFERENCE_S = 0.0012
REFERENCE_INTERVAL_S = 0.05
WARMUP_SEED = 0  # warm-up inputs are the same for every seed, so set-up cost is too
TAIL_BEYOND = 10
MAX_FAILURE_REPORTS = 5

# Per-layer metrics read straight off the span aggregates, per op.
CALL_COUNTS = (
    "exact.det",
    "exact.rank",
    "exact.invert",
    "exact.solve",
    "exponents.validate_hypotheses",
    "exponents.dependency",
    "connection.sigma_tau",
    "algebra.mul",
    "algebra.times_a",
    "exact.LaurentPoly.mul",
    "exact.LaurentPoly.add",
)
SELF_TIMES = (
    "exact.det",
    "exact.rank",
    "exact.invert",
    "exact.solve",
    "exponents.dependency",
    "exponents.det_identity_check",
    "connection.sigma_tau",
    "algebra.mul",
    "algebra.conj_b",
    "connection.push_nabla",
    "connection.push_nabla_via_shift",
    "families.build",
    "families.cross_validate",
    "families.match_family",
    "asymptotics.propagate",
    "asymptotics.verify_table",
    "asymptotics.render",
    "algebra.parse",
    "algebra.render",
)


class BenchError(Exception):
    """The benchmark itself cannot produce a trustworthy result."""


def fresh_import():
    """Import lamconn from src/ with nothing cached from an earlier import."""
    for name in [m for m in sys.modules if m == "lamconn" or m.startswith("lamconn.")]:
        del sys.modules[name]
    lc = importlib.import_module("lamconn")
    if Path(lc.__file__).resolve().parent != SRC / "lamconn":
        raise BenchError(f"lamconn was imported from {lc.__file__}, not from {SRC}")
    return lc


class Tally:
    """Outcomes of attempted ops: each op run counts once, and fails at most once."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.good: tuple | None = None  # one (input, output) that passed its check

    def attempt(self, lc, inp):
        """Run one op, timing only the op itself; returns (seconds, output or None)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = self.workload.run(lc, inp)
        except Exception as exc:  # an op that raises counts as failed
            elapsed = time.perf_counter() - start
            self.fail(inp, f"raised {exc!r}")
            return elapsed, None
        return time.perf_counter() - start, out

    def check(self, lc, inp, out) -> bool:
        """Full check of an output from attempt(); None (the op raised) is already counted."""
        if out is None:
            return False
        try:
            problem = self.workload.check(lc, inp, out)
        except Exception as exc:  # a malformed output can break the checker
            problem = f"check raised {exc!r}"
        if problem is not None:
            self.fail(inp, problem)
            return False
        if self.good is None:
            self.good = (inp, out)
        return True

    def fail(self, inp, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_REPORTS:
            self.failures.append(f"{problem} on {inp}")


def set_up(workload, seed: int, size: int):
    """Import lamconn, generate the batch of `size` seeded inputs and run the warm-up ops.

    Returns the module, the batch, the warm-up (input, output or exception)
    pairs and the wall time taken.
    """
    start = time.perf_counter()
    lc = fresh_import()
    inputs = workload.inputs(seed)
    batch = [next(inputs) for _ in range(size)]
    warm_inputs = workload.inputs(WARMUP_SEED)
    warm = []
    for _ in range(workload.warmup_ops):
        inp = next(warm_inputs)
        try:
            out = workload.run(lc, inp)
        except Exception as exc:  # counted as a failure by check_warm_up
            out = exc
        warm.append((inp, out))
    return lc, batch, warm, time.perf_counter() - start


def check_warm_up(lc, warm, tally: Tally) -> None:
    for inp, out in warm:
        tally.attempted += 1
        if isinstance(out, Exception):
            tally.fail(inp, f"raised {out!r}")
        else:
            tally.check(lc, inp, out)


def verify_checker(lc, workload, tally: Tally) -> str:
    """A corrupted copy of a good output must fail its check; returns the check's complaint."""
    if tally.good is None:
        raise BenchError("no op passed its check, so the checker cannot be verified")
    inp, out = tally.good
    problem = workload.check(lc, inp, workload.corrupt(lc, out))
    if problem is None:
        raise BenchError(f"the {workload.name} checker accepted a corrupted output")
    return f"  checker self-check: a corrupted output fails with {problem!r}"


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond); with too few samples it is
    the maximum.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def reference_job() -> None:
    """A fixed job of Fraction elimination and sparse polynomial products, stdlib only."""
    n = 6
    rows = [[Fraction(1, i + j + 1) for j in range(n)] + [Fraction(i + 1)] for i in range(n)]
    for col in range(n):
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    poly = {e: Fraction(e + 1, 2 * e + 3) for e in range(12)}
    square: dict[int, Fraction] = {}
    for e1, c1 in poly.items():
        for e2, c2 in poly.items():
            square[e1 + e2] = square.get(e1 + e2, 0) + c1 * c2


def time_reference() -> float:
    start = time.perf_counter()
    reference_job()
    return time.perf_counter() - start


class ReferenceClock:
    """The op times of one pass, with reference times taken between the ops.

    A reference time is taken after every REFERENCE_INTERVAL_S of op time.
    An op in segment s ran between reference times s and s + 1, and is
    scaled by REFERENCE_S over the median of reference times s - 1 to s + 2.
    """

    def __init__(self, first: int = 1):
        self.times = [time_reference() for _ in range(first)]
        self.raw: list[float] = []
        self._segments: list[int] = []
        self._since = 0.0

    def scale(self, window: slice = slice(None)) -> float:
        """REFERENCE_S over the median reference time in the window."""
        return REFERENCE_S / statistics.median(self.times[window])

    def add_op(self, elapsed: float) -> None:
        self.raw.append(elapsed)
        self._segments.append(len(self.times) - 1)
        self._since += elapsed
        if self._since >= REFERENCE_INTERVAL_S:
            self.times.append(time_reference())
            self._since = 0.0

    def scaled(self) -> tuple[list[float], list[float]]:
        """End the pass; returns the scaled op times and the scale of every segment."""
        self.times.append(time_reference())
        scales = [self.scale(slice(max(0, s - 1), s + 3)) for s in range(len(self.times) - 1)]
        return [t * scales[s] for t, s in zip(self.raw, self._segments)], scales


def timed_run(workload, seed: int, seconds: int) -> dict:
    tally = Tally(workload)
    blocks = max(1, round(seconds / ((PASSES + 1) * workload.block_seconds)))
    size = blocks * workload.block_size
    lc, batch, warm, _ = set_up(workload, seed, size)
    check_warm_up(lc, warm, tally)
    expected = []
    rejected = 0
    for inp in batch:
        _, out = tally.attempt(lc, inp)
        ok = tally.check(lc, inp, out)
        expected.append(workload.fingerprint(out) if ok else None)
        rejected += ok and "rejected" in out
    self_check = verify_checker(lc, workload, tally)

    setup_raw, setup_scaled, scales, raw_passes, scaled_passes = [], [], [], [], []
    for _ in range(EXTRA_SETUPS):
        elapsed = set_up(workload, seed, size)[3]
        setup_raw.append(elapsed)
        setup_scaled.append(elapsed * ReferenceClock(first=3).scale())
    for pass_index in range(PASSES):
        lc, batch, _, elapsed = set_up(workload, seed, size)
        clock = ReferenceClock(first=3)
        setup_raw.append(elapsed)
        setup_scaled.append(elapsed * clock.scale())
        for index, inp in enumerate(batch):
            elapsed, out = tally.attempt(lc, inp)
            clock.add_op(elapsed)
            if out is not None and (expected[index] is None or workload.fingerprint(out) != expected[index]):
                tally.fail(inp, f"timed pass {pass_index + 1} output differs from the checked one")
        scaled, segment_scales = clock.scaled()
        scaled_passes.append(scaled)
        raw_passes.append(clock.raw)
        scales += segment_scales

    per_op = [statistics.median(times) for times in zip(*scaled_passes)]
    raw_per_op = [statistics.median(times) for times in zip(*raw_passes)]
    setup_s = statistics.median(setup_scaled)
    tail_s, tail_pct, beyond = tail(per_op)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ok_ratio": (1 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    raw_tail_s = tail(raw_per_op)[0]
    lines = [
        f"{workload.name}: {size} ops x {PASSES} timed passes; speed scales min {min(scales):.3f}, "
        f"median {statistics.median(scales):.3f}, max {max(scales):.3f} over {len(scales)} segments",
        f"  setup_s      {setup_s:.4f} s     raw {statistics.median(setup_raw):.4f}; "
        f"median of {len(setup_raw)} set-ups",
        f"  ops_per_s    {metrics['ops_per_s'][0]:.3f} 1/s   raw {len(raw_per_op) / sum(raw_per_op):.3f}",
        f"  op_p50_ms    {metrics['op_p50_ms'][0]:.4f} ms   raw {statistics.median(raw_per_op) * 1e3:.4f}",
        f"  op_tail_ms   {tail_s * 1e3:.4f} ms   raw {raw_tail_s * 1e3:.4f}; "
        f"p{tail_pct:.3f} of {size} samples, {beyond} beyond",
        f"  failed_ratio {tally.failed / tally.attempted:.6f}   {tally.failed} of {tally.attempted} op runs",
        f"  ok_ratio     {metrics['ok_ratio'][0]:.6f}",
        f"  peak_rss_mb  {metrics['peak_rss_mb'][0]:.2f} MiB",
        self_check,
    ]
    extra = {
        "op_tail_percentile": tail_pct,
        "op_tail_samples": size,
        "op_tail_beyond": beyond,
        "speed_scale_quartiles": statistics.quantiles(scales, n=4),
    }
    if workload.name == "layouts":
        extra["rejected_share"] = rejected / size
        lines.append(f"  rejected     {rejected} of {size} layouts raised HypothesisError")
    return {"tally": tally, "metrics": metrics, "lines": lines, "extra": extra}


def traced_run(workload, seed: int) -> dict:
    tally = Tally(workload)
    lc, batch, warm, _ = set_up(workload, seed, workload.traced_ops)
    check_warm_up(lc, warm, tally)
    untraced = ReferenceClock()
    for inp in batch:
        elapsed, out = tally.attempt(lc, inp)
        untraced.add_op(elapsed)
        tally.check(lc, inp, out)
    untraced_s = sum(untraced.scaled()[0])
    self_check = verify_checker(lc, workload, tally)

    lc = fresh_import()
    tracer = Tracer()
    instrument(tracer)
    run_op = tracer.wrap("op", workload.run)
    warm_inputs = workload.inputs(WARMUP_SEED)
    for _ in range(workload.warmup_ops):
        run_op(lc, next(warm_inputs))
    bits = rejected = entries = 0
    traced = ReferenceClock()
    for index, inp in enumerate(batch):
        tracer.op_index = index
        tracer.active = True
        start = time.perf_counter()
        try:
            out = run_op(lc, inp)
        except Exception:  # already counted as failed by the untraced pass
            continue
        finally:
            tracer.active = False
            traced.add_op(time.perf_counter() - start)
        rejected += "rejected" in out
        entries += len(out["table"].entries) if "table" in out else 0
        bits = max(bits, workload.coeff_bits(out))

    traced_s = sum(traced.scaled()[0])
    ops = len(batch)
    layouts = ops if workload.name == "layouts" else 0
    validations = tracer.calls("exponents.validate_hypotheses")
    laurent_s = sum(tracer.self_s(name) for name in tracer.stats if name.startswith("exact.LaurentPoly."))
    metrics = {f"{name}.calls": (tracer.calls(name) / ops, "calls/op") for name in CALL_COUNTS}
    ms_per_op = traced_s / sum(traced.raw) * 1e3 / ops  # self times are scaled like op times
    metrics.update({f"{name}.self_ms": (tracer.self_s(name) * ms_per_op, "ms/op") for name in SELF_TIMES})
    metrics.update(
        {
            "exponents.validate_per_layout": (validations / layouts if layouts else 0.0, "calls/layout"),
            "exponents.rejected_ratio": (rejected / layouts if layouts else 0.0, "ratio"),
            "algebra.terms_out": (tracer.stats["algebra.mul"][3] / ops, "terms/op"),
            "exact.LaurentPoly.self_ms": (laurent_s * ms_per_op, "ms/op"),
            "asymptotics.table_entries": (entries / ops, "entries/op"),
            "exact.coeff_bits_max": (bits, "bits"),
        }
    )
    op_s = tracer.stats["op"][1]
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (tracer.layer_self_s(layer) / op_s, "ratio")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")

    out_dir = Path.cwd() / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-{seed}.txt"
    tracer.write_spans(
        spans_path,
        {"workload": workload.name, "seed": seed, "ops": ops, "format": "id parent op name start end"},
    )
    lines = [
        f"{workload.name} traced: {ops} ops, op time at reference speed {untraced_s:.3f} s untraced, "
        f"{traced_s:.3f} s traced, {tracer.spans_seen} spans ({len(tracer.spans)} written to {spans_path.relative_to(Path.cwd())})"
    ]
    lines += [f"  {name:44s} {value!r} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(self_check)
    return {"tally": tally, "metrics": metrics, "lines": lines, "extra": {"traced_ops": ops}}


def source_record() -> dict:
    """The git commit when run from a clone, and a digest of the package sources either way."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "lamconn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else None
        else:
            commit = ref
    return {"source_commit": commit, "source_sha256": digest.hexdigest()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "lamconn" / "__init__.py").is_file():
        print(f"benchmark: no lamconn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            result = traced_run(workload, args.seed)
        else:
            result = timed_run(workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 3
    tally = result["tally"]
    for line in tally.failures:
        print(f"FAILED {line}", file=sys.stderr)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        **source_record(),
        **result["extra"],
        "wall_s": time.perf_counter() - started,
    }
    print("\n".join(result["lines"]))
    print("record " + json.dumps(record, sort_keys=True))
    result_line = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }
    print(json.dumps(result_line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
