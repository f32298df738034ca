"""Spans around the public functions of the nutaxis layers, from outside.

``installed(tracer)`` replaces every public function of the traced layers,
wherever a nutaxis module has bound it, by a wrapper that records a span
``[name, start_ns, end_ns, parent, note]``; leaving the block puts the
originals back.  Nothing under ``src/`` is changed.  Spans are recorded only
while ``tracer.active`` is true.  ``stepper.advance``'s observer callback
gets its own span (``experiments.observe``).

``model`` is not traced: it has no boundary of its own on the hot path.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("stepper", "kernels", "diagnostics", "operators", "experiments",
          "io", "grid", "profiles")
SEGMENT_RUNNERS = ("kernels.segment_numpy", "kernels.segment_loops")


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.spans: list = []
        self.stack: list = []

    def reset(self) -> None:
        self.spans, self.stack = [], []

    def span(self, name, fn, note=None):
        """Wrap ``fn`` in a span; ``note(result)`` is kept with the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0, 0, self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                self.stack.pop()
            if note is not None:
                rec[4] = note(out)
            return out
        return traced

    def _advance(self, fn):
        def with_observer(*args, **kwargs):
            # run_scenario passes its observer by keyword
            if self.active and kwargs.get("observer") is not None:
                kwargs["observer"] = self.span("experiments.observe",
                                               kwargs["observer"])
            return fn(*args, **kwargs)
        stats = lambda res: (res.stats.accepted, res.stats.rejected,
                             res.stats.rebuilds, res.stats.min_dt)
        return self.span("stepper.advance", functools.wraps(fn)(with_observer),
                         stats)

    def wrapper_for(self, layer: str, attr: str, fn):
        name = f"{layer}.{attr}"
        if name == "stepper.advance":
            return self._advance(fn)
        return self.span(name, fn)


def _public_functions(mod):
    for attr, obj in vars(mod).items():
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__):
            yield attr, obj


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block, then remove them."""
    import nutaxis  # noqa: F401  (loads every layer module)

    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"nutaxis.{layer}"]
        for attr, fn in _public_functions(mod):
            wrappers[fn] = tracer.wrapper_for(layer, attr, fn)

    patched = []
    try:
        for name, mod in list(sys.modules.items()):
            if name != "nutaxis" and not name.startswith("nutaxis."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    patched.append((mod, attr, obj))
        yield tracer
    finally:
        tracer.active = False
        for mod, attr, obj in reversed(patched):
            setattr(mod, attr, obj)


class Spans:
    """The spans of one traced repetition as arrays, with self times."""

    def __init__(self, spans: list) -> None:
        self.names = np.array([s[0] for s in spans], dtype=str)
        self.layers = np.array([s[0].split(".", 1)[0] for s in spans],
                               dtype=str)
        start = np.array([s[1] for s in spans], dtype=np.int64)
        end = np.array([s[2] for s in spans], dtype=np.int64)
        self.parent = np.array([s[3] for s in spans], dtype=np.int64)
        self.note_list = [s[4] for s in spans]
        self.dur = (end - start) * 1e-9
        child = np.zeros(len(spans))
        nested = self.parent >= 0
        np.add.at(child, self.parent[nested], self.dur[nested])
        self.self_s = self.dur - child

    def mask(self, *names: str) -> np.ndarray:
        return np.isin(self.names, names)

    def count(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def total(self, *names: str) -> float:
        """Inclusive seconds in the named spans."""
        return float(self.dur[self.mask(*names)].sum())

    def self_total(self, *names: str) -> float:
        """Exclusive seconds in the named spans."""
        return float(self.self_s[self.mask(*names)].sum())

    def layer_calls(self, layer: str) -> int:
        return int((self.layers == layer).sum())

    def layer_self(self, layer: str) -> float:
        return float(self.self_s[self.layers == layer].sum())

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self.mask(name)]

    def notes(self, name: str) -> list:
        return [n for n, hit in zip(self.note_list, self.mask(name)) if hit]

    def attributed_s(self) -> float:
        """Seconds spent inside any span (= sum of self times)."""
        return float(self.self_s.sum())

    def rows(self):
        """(index, parent, name, duration_s) for every span."""
        for i in range(len(self.names)):
            yield i, int(self.parent[i]), self.names[i], float(self.dur[i])
