"""Spans and counters around the public entry points of bergman_lab's modules.

The traced benchmark run wraps each entry point named in ``LAYERS`` from
outside the package: the wrapper replaces the function in every package
module that binds the name (so ``from .subspaces import wandering`` in
``verify`` is traced too), and ``LinearMap`` methods are replaced on the
class.  Nothing under ``src/`` is edited.

Each call opens a span (name, start, end, parent span).  Spans are kept in
memory and written out once, when the run ends.  Self time, a span's
duration minus the time its child spans cover, is accumulated as spans close.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

#: Entry points traced per layer (layer = bergman_lab module).
LAYERS = {
    "weights": ("weight_sequence", "shift_coeff"),
    "space": ("norm_sq", "random_vector"),
    "_exact": ("rref", "invert", "nullspace"),
    "operators": ("shift", "restrict", "pinv", "pinv_adjoint", "_gram_inverse",
                  "operator_norm", "smallest_singular_value"),
    "subspaces": ("orthogonalize", "residue_subspace", "truncate", "extend",
                  "coefficient_functionals", "projector", "_restriction_data",
                  "wandering", "invariant_closure", "kernel", "subspace_distance",
                  "is_reducing", "reducing_census", "random_subspace"),
    "verify": ("_tower", "run_check", "run_suite"),
    "cli": ("_report_json",),
}

#: ``LinearMap`` methods traced on the class.
LINEAR_MAP_METHODS = ("compose", "apply", "adjoint")

#: Span names that differ from ``<module>.<function>``.
RENAMED = {"verify._tower": "verify.tower", "cli._report_json": "cli.report"}


def span_name(module: str, fn: str) -> str:
    """Metric names start with a letter, so ``_exact`` spans are ``exact.*``."""
    full = f"{module}.{fn}"
    return RENAMED.get(full, full.lstrip("_"))


def span_names() -> list[str]:
    names = [span_name(module, fn) for module, functions in LAYERS.items() for fn in functions]
    names += [f"operators.LinearMap.{m}" for m in LINEAR_MAP_METHODS]
    return names


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run reports."""
    out = []
    for name in span_names():
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [
        ("operators.LinearMap.compose.madds", "count", "lower"),
        ("operators.LinearMap.compose.useful_ratio", "ratio", "higher"),
        ("subspaces.orthogonalize.kept_ratio", "ratio", "higher"),
        ("verify.tower.builds", "count", "lower"),
        ("verify.tower.hit_ratio", "ratio", "higher"),
        ("verify.run_check.errors", "count", "lower"),
        ("verify.run_check.failed", "count", "lower"),
        ("trace.covered_ratio", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


class Recorder:
    """In-memory span store with running self times and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[list] = []  # [span index, name, time covered by children]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> None:
        idx = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append([idx, name, 0.0])
        self.start.append(time.perf_counter())

    def close(self) -> None:
        t = time.perf_counter()
        idx, name, covered = self._stack.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        self.calls[name] += 1
        self.self_s[name] += dur - covered
        if self._stack:
            self._stack[-1][2] += dur

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(counts, args, kwargs, result)`` runs after it closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def snapshot(self) -> dict:
        """Copy of the accumulated totals, for per-pass differences."""
        return {"calls": Counter(self.calls), "self_s": Counter(self.self_s),
                "counts": Counter(self.counts)}

    def write(self, path) -> int:
        """Write every span once, as arrays; returns the span count."""
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.array(self.name_id, dtype=np.int32),
                 start=np.array(self.start, dtype=np.float64),
                 end=np.array(self.end, dtype=np.float64),
                 parent=np.array(self.parent, dtype=np.int32))
        return len(self.start)


def compose_products(a: np.ndarray, b: np.ndarray) -> tuple[int, int]:
    """Multiply-adds of the dense product ``a @ b`` and how many have two nonzero factors."""
    m, k = a.shape
    n = b.shape[1]
    useful = int(np.dot((a != 0).sum(axis=0), (b != 0).sum(axis=1)))
    return m * k * n, useful


def _count_compose(counts, args, kwargs, result):
    self_map, other = args[0], args[1] if len(args) > 1 else kwargs["other"]
    madds, useful = compose_products(self_map.matrix, other.matrix)
    counts["compose.madds"] += madds
    counts["compose.useful"] += useful


def _count_orthogonalize(counts, args, kwargs, result):
    columns = args[1] if len(args) > 1 else kwargs["columns"]
    counts["orthogonalize.offered"] += columns.shape[1]
    counts["orthogonalize.kept"] += result[0].shape[1]


_COUNTERS = {"operators.LinearMap.compose": _count_compose,
             "subspaces.orthogonalize": _count_orthogonalize}


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if n == "bergman_lab" or n.startswith("bergman_lab.")]


def _lookup(module: str, fn: str):
    """The entry point in its layer's module, or wherever the package moved it."""
    mod = sys.modules.get(f"bergman_lab.{module}")
    if mod is not None and fn in mod.__dict__:
        return mod.__dict__[fn]
    return next((m.__dict__[fn] for m in _package_modules() if fn in m.__dict__), None)


def install(rec: Recorder):
    """Wrap every entry point in ``LAYERS``; returns a function that undoes it.

    An entry point the package no longer has is reported on stderr and its
    metrics read 0.
    """
    import bergman_lab.cli  # noqa: F401  (the cli layer must be loaded to be traced)
    from bergman_lab.operators import LinearMap

    modules = _package_modules()
    undo = []
    for module, functions in LAYERS.items():
        for fn in functions:
            orig = _lookup(module, fn)
            if orig is None:
                print(f"perfbench: entry point {module}.{fn} not found, not traced",
                      file=sys.stderr)
                continue
            name = span_name(module, fn)
            traced = rec.wrap(name, orig, _COUNTERS.get(name))
            for m in modules:
                if m.__dict__.get(fn) is orig:
                    undo.append((m, fn, orig))
                    setattr(m, fn, traced)
    for meth in LINEAR_MAP_METHODS:
        name = f"operators.LinearMap.{meth}"
        orig = LinearMap.__dict__[meth]
        undo.append((LinearMap, meth, orig))
        setattr(LinearMap, meth, rec.wrap(name, orig, _COUNTERS.get(name)))

    def uninstall():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return uninstall


class TowerCounter:
    """Tower-cache hits and builds, read as deltas of ``cache_info()``.

    ``cache_clear()`` also zeroes the cache statistics, so the counter folds
    the current statistics into its totals before every clear.
    """

    def __init__(self, cached):
        self.cached = cached
        self.hits = 0
        self.builds = 0
        self._base = cached.cache_info()

    def _fold(self) -> None:
        info = self.cached.cache_info()
        self.hits += info.hits - self._base.hits
        self.builds += info.misses - self._base.misses
        self._base = info

    def clear(self) -> None:
        self._fold()
        self.cached.cache_clear()
        self._base = self.cached.cache_info()

    def totals(self) -> tuple[int, int]:
        self._fold()
        return self.hits, self.builds


def pass_metrics(before: dict, after: dict, tower: tuple[int, int], wall_s: float) -> dict:
    """Per-layer values of one traced pass from two ``Recorder.snapshot()``s.

    ``tower`` is the (hits, builds) delta of the pass.  Ratio metrics return
    their numerator and base so that a run can pool them over passes.
    """
    calls = after["calls"] - before["calls"]
    self_s = {k: after["self_s"][k] - before["self_s"].get(k, 0.0) for k in after["self_s"]}
    counts = after["counts"] - before["counts"]
    out = {}
    for name in span_names():
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    hits, builds = tower
    out["operators.LinearMap.compose.madds"] = counts.get("compose.madds", 0)
    out["verify.tower.builds"] = builds
    out["trace.covered_ratio"] = sum(self_s.values()) / wall_s
    ratios = {
        "operators.LinearMap.compose.useful_ratio":
            (counts.get("compose.useful", 0), counts.get("compose.madds", 0)),
        "subspaces.orthogonalize.kept_ratio":
            (counts.get("orthogonalize.kept", 0), counts.get("orthogonalize.offered", 0)),
        "verify.tower.hit_ratio": (hits, hits + builds),
    }
    return {"values": out, "ratios": ratios}
