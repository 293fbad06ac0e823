"""Span tracing of addkrig from outside the package.

``Tracer.install()`` replaces every public function of the five addkrig
modules, under each name it is bound to in the package, by a wrapper that
records one span per call: name, start, end, parent span and whether the call
raised.  scipy's ``cholesky`` and ``minimize`` are wrapped where
``addkrig.estimate`` binds them.  Calls inside ``addkrig.kernels`` itself
(``cov_matrix`` assembling through ``cross_cov``) are one layer, kernel-matrix
assembly, and are not split.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
import time

MODULES = ("kernels", "gp", "estimate", "bench", "cli")

# Span names for the scipy routines bound in addkrig.estimate.
FOREIGN = {("estimate", "cholesky"): "estimate.cholesky", ("estimate", "minimize"): "estimate.lbfgsb"}

# Short span names for functions whose module-qualified name is long.
RENAME = {
    "estimate.neg_log_likelihood": "estimate.nll",
    "estimate.nll_gradient": "estimate.grad",
    "gp.detect_degenerate_design": "gp.degenerate",
    "cli.cmd_predict": "cli.predict",
    "cli.cmd_effects": "cli.effects",
}


def _cross_cov_cells(kernel, X, Y, *_, **__):
    """Entries computed by one cross_cov call: m * n * d."""
    return len(X) * len(Y) * kernel.dims


# Work counters recorded on the span, from the call's arguments.
CELLS = {"kernels.cross_cov": _cross_cov_cells}


class Tracer:
    """In-memory span recorder; spans are (name, start, end, parent, raised, cells)."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span called ``name``."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = CELLS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                end = clock()
                stack.pop()
                cells = count(*args, **kwargs) if count else 0
                spans[idx] = (name_id, start, end, parent, raised, cells)

        return traced

    def install(self) -> None:
        """Wrap every public addkrig function (and estimate's scipy calls) in place."""
        pkg = importlib.import_module("addkrig")
        mods = {m: importlib.import_module(f"addkrig.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) \
                        and obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = (obj, self.span(RENAME.get(name, name), obj))
        for owner in (pkg, *mods.values()):
            if owner is mods["kernels"]:
                continue  # kernels-internal calls belong to one layer
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patch(owner, attr, wrappers[id(obj)][1])
        for (short, attr), name in FOREIGN.items():
            owner = mods[short]
            self._patch(owner, attr, self.span(name, getattr(owner, attr)))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, raised calls, cells and call durations."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name_id, start, end, _, raised, cells) in enumerate(self.spans):
            row = out.setdefault(
                self.names[name_id],
                {"calls": 0, "self_s": 0.0, "raised": 0, "cells": 0, "durations": []},
            )
            row["calls"] += 1
            row["self_s"] += (end - start) - child[idx]
            row["raised"] += raised
            row["cells"] += cells
            row["durations"].append(end - start)
        return out

    def write(self, path) -> None:
        """Write every span as one CSV row (gzip), times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            w = csv.writer(fh)
            w.writerow(["span", "name", "start_s", "end_s", "parent", "raised", "cells"])
            for idx, (name_id, start, end, parent, raised, cells) in enumerate(self.spans):
                w.writerow([idx, self.names[name_id], f"{start - t0:.9f}", f"{end - t0:.9f}",
                            parent, int(raised), cells])
