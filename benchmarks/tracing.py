"""Spans around lamconn's public functions, installed from outside the package.

``instrument`` replaces each traced function or method with a wrapper and
rebinds it everywhere lamconn refers to it by name (``exponents.rank`` as
well as ``exact.rank``), so calls between modules are traced too.  A wrapper
records a span only while ``Tracer.active`` is set; the benchmark sets it
around the op and clears it for its own checks.

A span is (id, parent id, op index, name, start, end).  Aggregates are kept
per name as they close: calls, total time, and self time, which is the
span's duration minus the time covered by its child spans.  Calls are
synchronous and single-threaded, so a stack gives the parent.  Raw spans
are kept in memory up to a cap and written out by ``write_spans``.
"""

from __future__ import annotations

import json
import sys
import time

# (span name, module, attribute); "Class.method" attributes wrap methods.
# Some spans feed no per-layer metric of their own: they are there so that
# time spent in, say, ABElement.__add__ called from connection counts as
# algebra self time, not as the caller's.
TARGETS = (
    ("exact.det", "exact", "det"),
    ("exact.rank", "exact", "rank"),
    ("exact.invert", "exact", "invert"),
    ("exact.solve", "exact", "solve"),
    ("exact.LaurentPoly.mul", "exact", "LaurentPoly.__mul__"),
    ("exact.LaurentPoly.add", "exact", "LaurentPoly.__add__"),
    ("exact.LaurentPoly.neg", "exact", "LaurentPoly.__neg__"),
    ("exact.LaurentPoly.scale", "exact", "LaurentPoly.scale"),
    ("exact.LaurentPoly.theta", "exact", "LaurentPoly.theta"),
    ("exponents.validate_hypotheses", "exponents", "validate_hypotheses"),
    ("exponents.dependency", "exponents", "dependency"),
    ("exponents.dependency_solution", "exponents", "dependency_solution"),
    ("exponents.det_identity_check", "exponents", "det_identity_check"),
    ("connection.sigma_tau", "connection", "sigma_tau"),
    ("connection.nabla_formula", "connection", "nabla_formula"),
    ("connection.pde_coefficients", "connection", "pde_coefficients"),
    ("connection.push_nabla", "connection", "push_nabla"),
    ("connection.push_nabla_via_shift", "connection", "push_nabla_via_shift"),
    ("algebra.mul", "algebra", "ABElement.__mul__"),
    ("algebra.add", "algebra", "ABElement.__add__"),
    ("algebra.neg", "algebra", "ABElement.__neg__"),
    ("algebra.scale", "algebra", "ABElement.scale"),
    ("algebra.times_a", "algebra", "ABElement.times_a"),
    ("algebra.map_coefficients", "algebra", "ABElement.map_coefficients"),
    ("algebra.parse", "algebra", "ABElement.parse"),
    ("algebra.render", "algebra", "ABElement.__str__"),
    ("algebra.conj_b", "algebra", "conj_b"),
    ("algebra.linear_factor_product", "algebra", "linear_factor_product"),
    ("algebra.homogeneous_components", "algebra", "homogeneous_components"),
    ("families.build", "families", "family_a"),
    ("families.build", "families", "family_b"),
    ("families.cross_validate", "families", "cross_validate"),
    ("families.match_family", "families", "match_family"),
    ("asymptotics.propagate", "asymptotics", "propagate"),
    ("asymptotics.verify_table", "asymptotics", "verify_table"),
    ("asymptotics.render", "asymptotics", "ExpansionTable.to_json"),
    ("asymptotics.render", "asymptotics", "ExpansionTable.to_csv"),
)

# Extra per-name counters: a function of the call's result, summed.
RESULT_COUNTERS = {
    "algebra.mul": lambda element: len(element.terms),
}

LAYERS = ("exact", "exponents", "connection", "algebra", "families", "asymptotics")


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.active = False
        self.op_index = -1
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, result_count]
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        self.spans_seen = 0
        self._stack: list[list] = []  # open spans: [child_s, span_id]

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        counter = RESULT_COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = tracer.spans_seen
            tracer.spans_seen += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if span_id < tracer.span_cap:
                    tracer.spans.append((span_id, parent, tracer.op_index, name, start, end))
            if counter is not None:
                stat[3] += counter(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_s(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(stat[2] for name, stat in self.stats.items() if name.startswith(prefix))

    def write_spans(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({**header, "spans_seen": self.spans_seen, "spans_kept": len(self.spans)}) + "\n")
            for span_id, parent, op_index, name, start, end in self.spans:
                handle.write(f"{span_id} {parent} {op_index} {name} {start:.9f} {end:.9f}\n")


def _rebind_everywhere(original, replacement) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "lamconn" or module_name.startswith("lamconn.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument(tracer: Tracer) -> None:
    """Install the wrappers on the lamconn modules currently imported."""
    for name, module_name, attr in TARGETS:
        module = sys.modules[f"lamconn.{module_name}"]
        if "." not in attr:
            original = getattr(module, attr)
            _rebind_everywhere(original, tracer.wrap(name, original))
            continue
        class_name, method = attr.split(".")
        cls = getattr(module, class_name)
        original = cls.__dict__[method]
        if isinstance(original, classmethod):
            replacement = classmethod(tracer.wrap(name, original.__func__))
        else:
            replacement = tracer.wrap(name, original)
        for key, value in list(vars(cls).items()):
            if value is original:  # aliases such as __rmul__ = __mul__
                setattr(cls, key, replacement)
