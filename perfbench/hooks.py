"""Measure shapreg's layers from outside, without editing the package.

Every public function of each ``shapreg`` module is replaced at every name
through which it can be reached: the defining module (which also catches
calls inside that module, since they look the name up in its globals), every
other module that imported it, and the package namespace.  Public methods of
``ShapleyModel`` are replaced on the class.  ``Patch.restore`` undoes it all.

Two instruments use this:

* ``Counts`` -- count-only hooks on ``train.fit`` and ``basis.design_matrix``,
  cheap enough for the timed (untraced) run.
* ``Tracer`` -- a span (name, layer, start, end, parent) around every public
  function, kept in memory and turned into per-layer metrics at the end.
  The ``games`` helpers are counted, not spanned: they run in the design
  matrix's inner Python loops, where a span would cost more than the call.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import statistics
import threading
import time
from collections import Counter

PACKAGE = "shapreg"
LAYERS = ("games", "basis", "model", "train", "cv", "analysis", "parallel",
          "metrics", "data", "cli")
COUNT_ONLY_LAYERS = frozenset({"games"})
MODEL_CLASS = ("model", "ShapleyModel")
# ShapleyModel entry points that evaluate the predictor on rows
PREDICT_METHODS = frozenset({"predict", "predict_proba", "logit", "logit_normalized"})
# counts that do not depend on the hardware; they must repeat exactly
DETERMINISTIC_COUNTS = ("fits", "fits_unconverged", "iterations", "design_cells")


def package_modules() -> dict[str, object]:
    """The package namespace plus every layer module, by short name."""
    mods = {PACKAGE: importlib.import_module(PACKAGE)}
    for layer in LAYERS:
        mods[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
    return mods


def public_functions(module) -> dict[str, object]:
    return {
        name: obj for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Patch:
    """Replace functions at every binding in the package; ``restore`` undoes it."""

    def __init__(self):
        self.modules = package_modules()
        self._undo: list[tuple[object, str, object]] = []
        self.replaced: dict[int, object] = {}  # id(original) -> original

    def function(self, original, make_wrapper) -> None:
        """Rebind ``original`` everywhere; ``make_wrapper(binding)`` gets the
        short name of the module whose namespace holds the binding."""
        self.replaced[id(original)] = original
        for short, module in self.modules.items():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, make_wrapper(short))

    def method(self, cls, name: str, wrapper) -> None:
        self.replaced[id(vars(cls)[name])] = vars(cls)[name]
        self._set(cls, name, wrapper)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def unpatched_bindings(self) -> list[str]:
        """Names in the package that still point at a replaced original."""
        left = []
        for short, module in self.modules.items():
            for name, value in vars(module).items():
                if id(value) in self.replaced and value is self.replaced[id(value)]:
                    left.append(f"{short}.{name}")
        cls = getattr(self.modules[MODEL_CLASS[0]], MODEL_CLASS[1])
        for name, value in vars(cls).items():
            if id(value) in self.replaced and value is self.replaced[id(value)]:
                left.append(f"{MODEL_CLASS[1]}.{name}")
        return left

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Counts:
    """Thread-safe counters for the deterministic counts (``bounds`` fans
    fits out over a thread pool)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._c: Counter = Counter()

    def fit(self, config, result) -> None:
        with self._lock:
            self._c["fits"] += 1
            self._c["iterations"] += int(result.iterations)
            self._c["fits_unconverged"] += int(not result.converged)
            self._c["fits_budget"] += int(result.iterations >= config.max_iters)

    def design(self, result) -> None:
        rows, cols = result.values.shape
        with self._lock:
            self._c["design_calls"] += 1
            self._c["design_cells"] += rows * cols

    def snapshot(self) -> Counter:
        with self._lock:
            return Counter(self._c)


def _fit_config(args, kwargs):
    return kwargs["config"] if "config" in kwargs else args[2]


def install_counts(counts: Counts) -> Patch:
    """Count-only hooks for the timed run."""
    patch = Patch()
    train = patch.modules["train"]
    basis = patch.modules["basis"]
    fit, design_matrix = train.fit, basis.design_matrix

    def counted_fit(*args, **kwargs):
        result = fit(*args, **kwargs)
        counts.fit(_fit_config(args, kwargs), result)
        return result

    def counted_design(*args, **kwargs):
        result = design_matrix(*args, **kwargs)
        counts.design(result)
        return result

    patch.function(fit, lambda binding: counted_fit)
    patch.function(design_matrix, lambda binding: counted_design)
    return patch


class Tracer:
    """In-memory spans and counts; ``install`` patches the package to feed it."""

    def __init__(self, counts: Counts):
        self.counts = counts
        self.spans: list[tuple] = []  # (id, parent, layer, name, start, end, attrs)
        self._next_id = itertools.count(1).__next__  # atomic under the GIL
        self._local = threading.local()
        self._calls_lock = threading.Lock()
        self._calls: list[Counter] = []  # one per thread, merged on read

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call_counter(self) -> Counter:
        c = getattr(self._local, "calls", None)
        if c is None:
            c = self._local.calls = Counter()
            with self._calls_lock:
                self._calls.append(c)
        return c

    def calls(self) -> Counter:
        with self._calls_lock:
            total = Counter()
            for c in self._calls:
                total.update(c)
            return total

    def caller_layer(self) -> str | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def call(self, name, layer, fn, args, kwargs, attrs=None, parent=None, prepare=None):
        stack = self._stack()
        sid = self._next_id()
        if parent is None and stack:
            parent = stack[-1][0]
        if prepare is not None:
            args, kwargs = prepare(sid, args, kwargs)
        stack.append((sid, layer))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, layer, name, start, end, {"error": True}))
            raise
        end = time.perf_counter()
        stack.pop()
        self.spans.append((sid, parent, layer, name, start, end,
                           attrs(args, kwargs, result) if attrs else None))
        return result

    # -- patching ----------------------------------------------------------

    def install(self) -> Patch:
        patch = Patch()
        for layer in LAYERS:
            module = patch.modules[layer]
            for name, fn in public_functions(module).items():
                if layer in COUNT_ONLY_LAYERS:
                    patch.function(fn, self._counted(f"{layer}.{name}", fn))
                else:
                    patch.function(fn, self._spanned(f"{layer}.{name}", layer, fn))
        cls = getattr(patch.modules[MODEL_CLASS[0]], MODEL_CLASS[1])
        for name, fn in list(vars(cls).items()):
            if inspect.isfunction(fn) and not name.startswith("_"):
                wrapper = self._spanned(f"model.{name}", "model", fn)(MODEL_CLASS[0])
                patch.method(cls, name, wrapper)
        return patch

    def _counted(self, name, fn):
        def make(binding):
            key = f"{name}@{binding}"

            def counted(*args, **kwargs):
                self._call_counter()[key] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    def _spanned(self, name, layer, fn):
        attrs, prepare = self._span_extras(name)

        def spanned(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs, attrs=attrs, prepare=prepare)
        return lambda binding: spanned

    def _span_extras(self, name):
        """Per-function span attributes, and argument rewriting for the pool."""
        if name == "train.fit":
            def attrs(args, kwargs, result):
                config = _fit_config(args, kwargs)
                self.counts.fit(config, result)
                return {"iterations": int(result.iterations),
                        "converged": bool(result.converged),
                        "budget": bool(result.iterations >= config.max_iters)}
            return attrs, None
        if name == "basis.design_matrix":
            def attrs(args, kwargs, result):
                self.counts.design(result)
                return {"cells": int(result.values.size)}
            return attrs, None
        if name.startswith("model.") and name.split(".")[1] in PREDICT_METHODS:
            return (lambda args, kwargs, result: {"rows": len(result)}), None
        if name == "data.load_csv":
            return (lambda args, kwargs, result: {"rows": int(result.n_samples)}), None
        if name == "parallel.map_ordered":
            return None, self._wrap_tasks
        return None, None

    def _wrap_tasks(self, sid, args, kwargs):
        """Run each pool task in a span whose parent is the map_ordered span,
        so work on worker threads stays linked to its caller.  The task body
        is the caller's code (a closure in cv or analysis), so the task span
        belongs to the caller's layer."""
        layer = self.caller_layer() or "parallel"
        fn = kwargs["fn"] if "fn" in kwargs else args[0]

        def task(item):
            return self.call("parallel.task", layer, fn, (item,), {}, parent=sid)
        if "fn" in kwargs:
            return args, {**kwargs, "fn": task}
        return (task, *args[1:]), kwargs


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def _exclusive_times(spans) -> dict[int, float]:
    """Span duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _l, _n, start, end, _a in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _p, _l, _n, start, end, _a in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def layer_metrics(spans, calls: Counter) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json (except trace.*)."""
    by_id = {s[0]: s for s in spans}
    excl = _exclusive_times(spans)
    self_s = Counter()
    for s in spans:
        self_s[s[2]] += excl[s[0]]

    def named(name):
        return [s for s in spans if s[3] == name]

    def total(name):
        return sum(s[5] - s[4] for s in named(name))

    def is_entry(s):
        parent = by_id.get(s[1])
        return parent is None or parent[2] != s[2]

    fits = named("train.fit")
    iterations = [s[6]["iterations"] for s in fits if s[6] and "iterations" in s[6]]
    n_iter = sum(iterations)
    designs = [s for s in named("basis.design_matrix") if s[6] and "cells" in s[6]]
    cells = sum(s[6]["cells"] for s in designs)
    design_s = sum(s[5] - s[4] for s in designs)
    predicts = [s for s in spans if s[2] == "model" and is_entry(s)
                and s[3].split(".")[1] in PREDICT_METHODS]
    tasks = named("parallel.task")
    map_s = total("parallel.map_ordered")
    metric_entries = [s for s in spans if s[2] == "metrics" and is_entry(s)]
    loads = [s for s in named("data.load_csv") if s[6] and "rows" in s[6]]

    out = {
        "train.fits": len(fits),
        "train.iterations": n_iter,
        "train.iterations_per_fit_p50": float(statistics.median(iterations)) if iterations else 0.0,
        "train.fits_budget": sum(1 for s in fits if s[6] and s[6].get("budget")),
        "train.fit_s": total("train.fit"),
        "train.self_s": self_s["train"],
        "train.us_per_iteration": self_s["train"] / n_iter * 1e6 if n_iter else 0.0,
        "basis.design_calls": len(designs),
        "basis.design_cells": cells,
        "basis.design_bytes": cells * 8,
        "basis.design_s": design_s,
        "basis.ns_per_cell": design_s / cells * 1e9 if cells else 0.0,
        "model.predict_calls": len(predicts),
        "model.rows_predicted": sum(s[6]["rows"] for s in predicts if s[6] and "rows" in s[6]),
        "model.predict_s": sum(s[5] - s[4] for s in predicts),
        "model.self_s": self_s["model"],
        "games.mask_calls": calls["games.indices_of@basis"] + calls["games.mask_of@basis"],
        "games.choquet_calls": sum(v for k, v in calls.items() if k.startswith("games.choquet_mobius@")),
        "cv.nested_cv_s": total("cv.nested_cv"),
        "cv.bootstrap_s": total("cv.bootstrap_stability"),
        "cv.noise_robustness_s": total("cv.noise_robustness"),
        "cv.self_s": self_s["cv"],
        "analysis.gap_experiment_s": total("analysis.gap_experiment"),
        "analysis.effective_dimension_s": total("analysis.effective_dimension"),
        "analysis.self_s": self_s["analysis"],
        "parallel.tasks": len(tasks),
        "parallel.concurrency": sum(s[5] - s[4] for s in tasks) / map_s if map_s else 0.0,
        "metrics.calls": len(metric_entries),
        "metrics.s": sum(s[5] - s[4] for s in metric_entries),
        "data.load_csv_s": sum(s[5] - s[4] for s in loads),
        "data.rows_loaded": sum(s[6]["rows"] for s in loads),
        "cli.self_s": self_s["cli"],
    }
    return out
