"""Outside-in layer trace of one descentlab run.

The tracer wraps the public functions of each library module after it is
imported, without editing anything under ``src/``.  Every wrapped call
records a span (name, parent span, start, end) in flat arrays, so a layer's
self time is its span time minus the time of its wrapped children.  A few
boundaries also record counts of the work they were handed (matrix shapes,
iterations, passes, bytes written), so ratios are measured where the work
happens.

Functions are imported by name across the package (``svd`` is bound in
``linalg``, ``rff``, ``polyfit`` and ``descent``), so every binding of a
wrapped function in every ``descentlab`` module is replaced; wrapping only
the defining module would undercount silently.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

# The layers: each library module whose public functions get a span.
LAYER_MODULES = (
    "linalg",
    "descent",
    "sparse_regression",
    "rff",
    "separable",
    "polyfit",
    "seeding",
    "harness.config",
    "harness.csvio",
    "harness.datasets",
    "harness.emc",
)

# Methods that are layer boundaries of their own.  Other methods (the loss
# evaluations inside the GD loop, predictor helpers) stay in their caller's
# self time.
METHODS = {"rff": ("RandomFeatureMap.transform",)}

# Helpers called from inside another wrapped function of the same module,
# once per element or per draw; a span per call would split that
# function's self time and cost more than the work it measures.
SKIP = {"seeding.derive_seed", "harness.csvio.format_value"}


def _observe_svd(counts, args, result):
    m, n = np.shape(args[0])
    m, n = max(m, n), min(m, n)
    # Thin SVD with both singular-vector sets, R-SVD operation count
    # (Golub & Van Loan): computed from the shape, not measured.
    counts["gflop_computed"] = counts.get("gflop_computed", 0.0) + (6 * m * n * n + 20 * n**3) / 1e9
    counts["rank_deficient"] = counts.get("rank_deficient", 0) + int(result.rank < n)


def _observe_transform(counts, args, result):
    counts["mb_computed"] = counts.get("mb_computed", 0.0) + result.size * result.itemsize / 1e6


def _observe_gd(counts, args, result):
    counts["iters"] = counts.get("iters", 0) + int(result.n_iters)


def _observe_svm(counts, args, result):
    counts["passes"] = counts.get("passes", 0) + int(result.n_passes)


def _observe_write_csv(counts, args, result):
    counts["bytes"] = counts.get("bytes", 0) + os.path.getsize(args[0])


OBSERVERS = {
    "linalg.svd": _observe_svd,
    "rff.RandomFeatureMap.transform": _observe_transform,
    "descent.gd_classification": _observe_gd,
    "separable.hard_margin_svm": _observe_svm,
    "harness.csvio.write_csv": _observe_write_csv,
}


class Tracer:
    """Span recorder for one process; ``install`` wraps the library."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, dict] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so each call records a span named ``name``."""
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        counts = self.counts.setdefault(name, {})
        name_ids, parents, starts, ends, stack = (
            self.name_id,
            self.parent,
            self.start,
            self.end,
            self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function and rebind each name that refers to it."""
        replaced = {}
        for short in LAYER_MODULES:
            module = importlib.import_module(f"descentlab.{short}")
            for attr, obj in list(vars(module).items()):
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in SKIP
                ):
                    replaced[id(obj)] = (obj, self.wrap(name, obj))
            for qualname in METHODS.get(short, ()):
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(f"{short}.{qualname}", vars(cls)[method]))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "descentlab" and not mod_name.startswith("descentlab."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = replaced.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])

    def arrays(self) -> dict:
        """The recorded spans as numpy arrays (index = span id)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, and counts."""
        spans = self.arrays()
        n_names = len(self.names)
        duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
        self_time = duration - child_time
        ids = spans["name_id"]
        calls = np.bincount(ids, minlength=n_names)
        total = np.bincount(ids, weights=duration, minlength=n_names)
        self_total = np.bincount(ids, weights=self_time, minlength=n_names)
        return {
            name: {
                "calls": int(calls[k]),
                "total_s": float(total[k]),
                "self_s": float(self_total[k]),
                **self.counts.get(name, {}),
            }
            for k, name in enumerate(self.names)
        }
