"""Spans around the public functions of the mlda library modules.

The library modules import each other's functions by name (``from .spectral
import sym_eig``), so a function is patched under every name that refers to
it in every loaded ``mlda`` module, and ``restore`` puts every original back.
Spans stay in memory; the worker writes them out when the run ends.
"""

import contextlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# The library layers; a span is named "<layer>.<function>".
LAYERS = ("spectral", "scatter", "population", "synth", "discriminant", "bounds")


def _first_shape(args, kwargs, key):
    return np.shape(args[0] if args else kwargs[key])


def _dataset_counts(args, kwargs, result):
    n, d = _first_shape(args, kwargs, "X")
    return {"scatter.rows": n, "scatter.bytes_in": 8 * n * d}


# Work counts recorded with a span, computed from its arguments or result.
_COUNTS = {
    "scatter.build_dataset": _dataset_counts,
    "spectral.sym_eig": lambda a, k, r: {"spectral.sym_eig.d3": _first_shape(a, k, "S")[0] ** 3},
    "discriminant.trace_ratio_stiefel": lambda a, k, r: {
        "discriminant.trace_ratio_stiefel.iterations": r.iterations
    },
}
_COUNT_KEYS = (
    "scatter.rows", "scatter.bytes_in", "spectral.sym_eig.d3",
    "discriminant.trace_ratio_stiefel.iterations",
)


def _library_functions():
    """(span name, function) for every public function of the layers."""
    import mlda.harness.experiments

    found = [("harness.write_report", mlda.harness.experiments.write_report)]
    for layer in LAYERS:
        mod = sys.modules[f"mlda.{layer}"]
        for name, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                found.append((f"{layer}.{name}", fn))
    return found


def _mlda_modules():
    return [m for n, m in list(sys.modules.items()) if (n == "mlda" or n.startswith("mlda.")) and m]


class Tracer:
    """Records (pass, name, start, duration, self time, depth, counts) spans."""

    def __init__(self):
        self.spans = []
        self.names = set()
        self.pass_index = 0
        self._stack = []
        self._patches = []

    def _wrap(self, span, fn):
        stack, spans, count = self._stack, self.spans, _COUNTS.get(span)
        clock = time.perf_counter
        self.names.add(span)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                covered = stack.pop()
                if stack:
                    stack[-1] += duration
                counts = count(args, kwargs, result) if count and result is not None else None
                spans.append((self.pass_index, span, start, duration, duration - covered, len(stack), counts))

        wrapper.__wrapped__ = fn
        wrapper.__bench_span__ = span
        return wrapper

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        from mlda.synth import Seed

        wrappers = {id(fn): self._wrap(span, fn) for span, fn in _library_functions()}
        for mod in _mlda_modules():
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, name, wrappers[id(value)])
        self._patch(Seed, "stream", self._wrap("synth.stream", Seed.stream))

    def restore(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def patched(self):
        """Trace one pass: install, run the body, restore, move to the next pass."""
        self.install()
        try:
            yield self
        finally:
            self.restore()
            self.pass_index += 1


def restored():
    """True when no loaded mlda module or class still holds a wrapper."""
    for mod in _mlda_modules():
        for value in vars(mod).values():
            if hasattr(value, "__bench_span__"):
                return False
            if inspect.isclass(value) and any(hasattr(v, "__bench_span__") for v in vars(value).values()):
                return False
    return True


def layer_metrics(names, spans, wall_s, report_bytes):
    """Per-layer figures of one traced pass.

    Every span contributes its call count and self time under its own name
    and its self time under its layer; a wrapped function that was never
    called reads 0. ``harness.self_s`` is the part of the pass that no
    top-level span covers.
    """
    out = defaultdict(int)
    for name in names:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = out[f"{name.split('.', 1)[0]}.self_s"] = 0.0
    for key in _COUNT_KEYS:
        out[key] = 0
    top_level = 0.0
    for _, name, _, duration, self_s, depth, counts in spans:
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        out[f"{name.split('.', 1)[0]}.self_s"] += self_s
        if depth == 0:
            top_level += duration
        for key, value in (counts or {}).items():
            out[key] += value
    out["harness.self_s"] = wall_s - top_level
    out["harness.report_bytes"] = report_bytes
    return dict(out)
