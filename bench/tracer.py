"""Span tracing of hmslines layers from outside the package.

`Tracer.installed()` replaces each layer entry point (a module attribute
of `hmslines.search`, or a method on its class) with a wrapper that
records one span per call and restores the originals on exit.  Nothing
under `src/` is modified: the search module looks its helpers up as
globals at call time, so a wrapped attribute is what it calls.

A span is [layer, start, end, parent index, error origin, extra].  The
error origin is True when an exception left the span and no child span
had raised it first, so a failure is charged to the layer that raised
it; `extra` names that layer for every span the exception left.
Spans stay in memory until `write` dumps them as JSON lines.
"""

import json
from contextlib import contextmanager
from time import perf_counter

# (module, owner attribute or None, function, layer name); the owner is a
# class reached from the module when the entry point is a method
LAYERS = (
    ("search", None, "find_lines", "search.find_lines"),
    ("search", None, "build_model", "search.build_model"),
    ("search", None, "derive_chart_params", "search.derive_chart_params"),
    ("search", None, "certify_line", "search.certify_line"),
    ("search", None, "labc_line", "lines.labc_line"),
    ("lines", "TangentConeChart", "line_at", "lines.TangentConeChart.line_at"),
    ("search", None, "quartic_of_line", "lines.quartic_of_line"),
    ("quartics", "BinaryQuartic", "discriminant", "quartics.discriminant"),
    ("search", None, "solvability_report", "galois.solvability_report"),
    ("search", None, "real_root_count", "quartics.real_root_count"),
    ("search", None, "hensel_factor_quartic", "hensel.hensel_factor_quartic"),
    ("search", None, "intersection_points", "search.intersection_points"),
    ("search", None, "_point_invariants", "search.point_invariants"),
    ("search", None, "cusp_proximity", "lines.cusp_proximity"),
    ("search", None, "canonical_json", "serialize.canonical_json"),
)
LAYER_NAMES = tuple(layer for *_, layer in LAYERS)

NAME, START, END, PARENT, ORIGIN, EXTRA = range(6)


class Tracer:
    def __init__(self, hmslines_modules):
        self.modules = hmslines_modules
        self.spans = []
        self.stack = []
        self.missing = []

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = perf_counter()
                origin = getattr(exc, "_bench_origin", None)
                span[ORIGIN] = origin is None
                if origin is None:
                    origin = exc._bench_origin = layer
                span[EXTRA] = {
                    "error": type(exc).__name__,
                    "needed": getattr(exc, "needed", None),
                    "origin": origin,
                }
                raise
            else:
                span[END] = perf_counter()
                if layer == "search.certify_line":
                    span[EXTRA] = {"passed": result.passed}
                return result
            finally:
                stack.pop()

        return traced

    def _targets(self):
        for module, owner, attr, layer in LAYERS:
            target = self.modules[module]
            if owner is not None:
                target = getattr(target, owner)
            yield target, attr, layer

    @contextmanager
    def installed(self):
        saved = []
        try:
            for target, attr, layer in self._targets():
                fn = target.__dict__.get(attr)
                if fn is None:
                    self.missing.append(layer)
                    continue
                saved.append((target, attr, fn))
                setattr(target, attr, self._wrap(layer, fn))
            yield self
        finally:
            for target, attr, fn in reversed(saved):
                setattr(target, attr, fn)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, origin, extra in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "error_origin": origin,
                            "extra": extra,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


def layer_totals(spans):
    """Per layer: self seconds, calls, errors raised there, inclusive durations."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    totals = {
        layer: {"self_s": 0.0, "calls": 0, "errors": 0, "durations": []}
        for layer in LAYER_NAMES
    }
    for i, span in enumerate(spans):
        entry = totals[span[NAME]]
        duration = span[END] - span[START]
        entry["self_s"] += duration - child_time[i]
        entry["calls"] += 1
        entry["errors"] += bool(span[ORIGIN])
        entry["durations"].append(duration)
    return totals
