"""Span tracing of gridruin from outside, through the names its callers look up.

``Tracer.install()`` replaces module-level functions (and two cache methods)
with wrappers that record a span per call and update counters at the same
boundary; ``Tracer.uninstall()`` puts the originals back.  The wrappers pass
arguments and results through untouched, so traced outputs are bit-identical
to untraced ones.  Names that no longer exist are listed, never fatal.

A span is (id, name, start, end, parent id, thread id).  A span opened on a
thread with no open span of its own (an ``estimate`` pool thread) takes the
innermost open span of the tracing thread as its parent.  Spans stay in
memory; ``self_times`` reduces them once, after the traced pass.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

VARIANTS = ("classical", "reflected", "parisian", "cumulative")
KINDS = ("pickands_dy", "piterbarg", "parisian", "berman")
FUNCTIONALS = (
    "pickands_ratio_values",
    "piterbarg_values",
    "parisian_window_values",
    "berman_count_values",
)
_DETECTORS = {f"detect_{v}_matrix": v for v in VARIANTS}
_KIND_FUNCS = {
    "pickands_dy": "pickands_dy",
    "piterbarg": "piterbarg",
    "parisian_constant": "parisian",
    "berman": "berman",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.missing: list[str] = []  # names absent from gridruin
        self.missing_spans: set[str] = set()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._home = threading.get_ident()
        self._home_stack: list[tuple[int, str]] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        if threading.get_ident() == self._home:
            return self._home_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def top(self) -> tuple[int, str] | None:
        stack = self._stack() or self._home_stack
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str):
        parent = self.top()
        sid = next(self._ids)
        stack = self._stack()
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, name, start, end, parent[0] if parent else None, threading.get_ident())
            )

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters[name], value)

    # -- wrapper table -----------------------------------------------------

    def _wrap(self, owners, attr: str, name: str, after=None, outermost: str | None = None):
        """Wrap ``attr`` on every owner that has it; list it as missing if none does."""
        found = [o for o in owners if getattr(o, attr, None) is not None]
        if not found:
            self.missing.append(f"{getattr(owners[0], '__name__', owners[0])}.{attr}")
            self.missing_spans.add(name)
        for owner in found:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._traced(fn, name, after, outermost))

    def _traced(self, fn, name, after, outermost):
        sig = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            top = tracer.top()
            if outermost and top and top[1].startswith(outermost):
                return fn(*args, **kwargs)
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    after(bound.arguments, out, top)
                except (KeyError, AttributeError, TypeError, ValueError):
                    # the signature or result moved on: report, keep the op going
                    with tracer._lock:
                        if f"{name} counters" not in tracer.missing:
                            tracer.missing.append(f"{name} counters")
                            tracer.missing_spans.add(f"{name} counters")
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        est = importlib.import_module("gridruin.estimators")
        mod = importlib.import_module("gridruin.model")
        con = importlib.import_module("gridruin.constants")
        asy = importlib.import_module("gridruin.asymptotics")
        ana = importlib.import_module("gridruin.analytic")
        cache = importlib.import_module("gridruin.cache")

        # estimators binds path_block at import; both names are wrapped (each
        # around the original) so a caller that switches to model.path_block
        # is still seen
        self._wrap((est, mod), "path_block", "model.path_block", self._on_path_block)
        for attr, variant in _DETECTORS.items():
            self._wrap((est,), attr, f"estimators.detect.{variant}", self._on_detect(variant),
                       outermost="estimators.detect.")
        for attr in ("estimate", "ruin_time_distribution", "weighted_ks"):
            self._wrap((est,), attr, f"estimators.{attr}")
        for attr in ("sample_field_two_sided", "sample_field_one_sided"):
            self._wrap((con,), attr, f"constants.{attr}", self._on_field)
        for attr in FUNCTIONALS:
            self._wrap((con,), attr, f"constants.{attr}")
        for attr, kind in _KIND_FUNCS.items():
            self._wrap((con,), attr, f"constants.{kind}")
        for attr in ("approx", "constant_for_model"):
            self._wrap((asy,), attr, f"asymptotics.{attr}")
        self._wrap((ana,), "dp_classical_ruin", "analytic.dp", self._on_dp)
        cache_cls = getattr(cache, "ConstantCache", None)
        if cache_cls is None:
            self.missing.append("gridruin.cache.ConstantCache")
            self.missing_spans.update(("cache.lookup", "cache.append"))
        else:
            self._wrap((cache_cls,), "lookup", "cache.lookup", self._on_lookup)
            self._wrap((cache_cls,), "append", "cache.append", self._on_append)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- counters taken at the wrapped boundaries ---------------------------

    def _on_path_block(self, args, paths, _top):
        rows, cols = paths.shape
        self.add("model.path_block.normals", rows * (cols - 1))
        # the normals z and the returned paths, both float64
        self.peak("model.path_block.bytes_computed", 8 * rows * (cols - 1) + paths.nbytes)

    def _on_detect(self, variant):
        def after(args, out, top):
            # count only detector calls made directly by estimate()
            if not top or top[1] != "estimators.estimate":
                return
            occurred, idx = out
            rows, cols = args["paths"].shape
            useful = np.where(occurred, idx, cols - 1).sum()
            self.add(f"detect.{variant}.rows", rows)
            self.add(f"detect.{variant}.hits", int(occurred.sum()))
            self.add(f"detect.{variant}.useful", int(useful))
            self.add(f"detect.{variant}.generated", rows * (cols - 1))

        return after

    def _on_field(self, args, field, _top):
        self.add("constants.samples", field.shape[0])
        self.add("constants.field_bytes_computed", field.nbytes)

    def _on_dp(self, args, _value, _top):
        points = args["cfg"].state_points | 1
        steps = int(args["n_steps"])
        self.add("analytic.dp.calls", 1)
        self.add("analytic.dp.steps", steps)
        self.peak("analytic.dp.kernel_bytes_computed", 8 * points * points)
        # per step: the dense matvec plus two dot products
        self.add("analytic.dp.flops_computed", max(steps - 1, 0) * (2 * points * points + 4 * points))

    def _on_lookup(self, args, hit, _top):
        self.add("cache.lookups", 1)
        self.add("cache.hits" if hit is not None else "cache.misses", 1)

    def _on_append(self, args, _out, _top):
        self.add("cache.appends", 1)

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: total duration, and duration minus the union of children."""
        children = defaultdict(list)
        for sid, _name, start, end, parent, _tid in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        for sid, name, start, end, _parent, _tid in self.spans:
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total[name] += end - start
            own[name] += end - start - covered
        return dict(total), dict(own)
