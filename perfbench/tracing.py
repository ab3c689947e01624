"""Spans and counts at the package's layer boundaries, attached from outside.

The package's modules import each other's functions by name (``dtn`` binds
``transfer``, ``transfer`` binds ``mat_exp``, ...), so a wrapper is rebound in
every ``dtnstack`` namespace that holds the original function object, not only
in the defining module. Everything is restored on detach.

A span is ``(name, start, end, parent span index or -1, op id)``. A layer's
self time is the sum over its spans of the duration minus the durations of
the direct child spans; calls are sequential, so children never overlap.
"""
from __future__ import annotations

import inspect
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("cli", "stack", "herglotz", "linalg", "transfer", "dtn",
          "analyticity", "tubular", "report")

# The linalg helpers run about 24·L + 26 times per certify point and
# to_jsonable recurses once per report value: a timing wrapper would swamp
# their own cost, so they are only counted and their time stays with the
# caller's span.
COUNT_ONLY = {"linalg.as_cmatrix", "linalg.hermitian_parts", "linalg.split_blocks",
              "report.to_jsonable"}

# Response models are evaluated through a method, not a module function.
MODEL_CLASSES = ("HerglotzModel", "DrudeModel", "ConstantModel")


def _layer_functions(layer: str):
    """Public module-level functions defined in ``dtnstack.<layer>``."""
    mod = sys.modules[f"dtnstack.{layer}"]
    for name, fn in list(vars(mod).items()):
        if (not name.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == mod.__name__):
            yield name, fn


class Tracer:
    """Records spans and counts while attached; see :meth:`attached`."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.matrices = 0
        self.bytes_written = 0
        self.op_id = -1
        self._open: list[tuple[int, str]] = []
        self._restore: list = []

    # -- wrappers --------------------------------------------------------------

    def _after(self, name: str, args, kwargs, result):
        if name == "linalg.mat_exp":
            # a batched call counts its whole batch
            self.matrices += math.prod(np.shape(args[0] if args else kwargs["M"])[:-2])
        elif name in ("report.emit_report", "report.write_sweep_csv"):
            self.bytes_written += Path(result).stat().st_size

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, name: str, layer: str, fn):
        spans, open_, counts, clock = self.spans, self._open, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            counts[name] += 1
            parent, parent_layer = open_[-1] if open_ else (-1, None)
            idx = len(spans)
            spans.append(None)
            open_.append((idx, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent_layer != layer:
                    self.errors[layer] += 1
                raise
            finally:
                end = clock()
                open_.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            self._after(name, args, kwargs, result)
            return result
        return wrapper

    # -- attaching ---------------------------------------------------------------

    def _rebind(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "dtnstack" or mod_name.startswith("dtnstack."):
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def attach(self):
        for layer in LAYERS:
            for fname, fn in _layer_functions(layer):
                name = f"{layer}.{fname}"
                wrap = (self._counted(name, fn) if name in COUNT_ONLY
                        else self._timed(name, layer, fn))
                self._rebind(fn, wrap)
        herglotz = sys.modules["dtnstack.herglotz"]
        for cls_name in MODEL_CLASSES:
            cls = getattr(herglotz, cls_name)
            method = cls.__dict__["_eval"]
            self._restore.append((cls, "_eval", method))
            cls._eval = self._timed(f"herglotz.{cls_name}._eval", "herglotz", method)

    def detach(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def attached(self):
        self.attach()
        try:
            yield self
        finally:
            self.detach()

    # -- results ---------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time in seconds per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] += (end - start) - c
        return out

    def write_spans(self, path: Path):
        """Write the spans as tab-separated lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
