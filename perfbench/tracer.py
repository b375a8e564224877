"""Span tracing around the package's layer boundaries, from outside the package.

``install`` replaces every public function (no leading underscore) of each
layer module by a timing wrapper, at every place the package imported it
(the runners import names directly, so ``inequalities.fractional_maximal``
is wrapped too), and wraps the ``value`` method of every gauge class.

Each thread keeps its own span stack.  Work the runners fan out to a thread
pool is parented to the span that submitted it, and a span's self time is
its duration minus the part of that interval its children cover, so
parallel children do not drive a parent's self time negative.  Spans are
kept in memory and handed back by ``summary``; nothing is written while the
traced code runs.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

# module -> layer name used in metric names
LAYERS = {
    "hartool.geometry": "geometry",
    "hartool.gauges": "gauges",
    "hartool.operators": "operators",
    "hartool.maximal": "maximal",
    "hartool.weights": "weights",
    "hartool.spaces": "spaces",
    "hartool._sweeps": "sweeps",
    "hartool.harness.config": "harness.config",
    "hartool.harness.suite": "harness.suite",
    "hartool.harness.inequalities": "harness.runner",
    "hartool.harness.report": "harness.report",
    "hartool.harness.cli": "harness.cli",
}

# Public methods wrapped as well: the config and report layers do their
# work in methods, and the gauge classes' value() is the solver inner loop.
CLASS_METHODS = {
    "hartool.harness.config": ("ExperimentConfig",),
    "hartool.harness.report": ("GridRecord", "Report"),
}

# Spans kept per process for the trace file; aggregates stay exact beyond it.
SPAN_LIMIT = 20_000

# Counters the hooks below fill in; reported as 0 when nothing reached them.
COUNTERS = ("operators.kernel_matrix.bytes", "gauges.batched_mean_norms.rows",
            "gauges.value.elems", "geometry.integrate.cells", "sweeps.window_matrix.bytes")
DISTINCT = ("operators.kernel_matrix.keys", "operators.apply_kernel.distinct",
            "maximal.fractional_maximal.distinct")

_clock = time.perf_counter


class _Span:
    __slots__ = ("id", "parent", "name", "fn", "thread", "start",
                 "child_s", "foreign", "outermost")

    def __init__(self, sid, parent, name, fn, thread, start, outermost):
        self.id = sid
        self.parent = parent
        self.name = name
        self.fn = fn
        self.thread = thread
        self.start = start
        self.child_s = 0.0       # same-thread children never overlap
        self.foreign = []        # (start, end) of children run on other threads
        self.outermost = outermost


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def _digest(values) -> bytes:
    return hashlib.blake2b(values.tobytes(), digest_size=16).digest()


class Tracer:
    """Collects spans, per-name call counts and self time, and counters."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = iter(range(1, 1 << 62))
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.inclusive_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self.layers: dict[str, str] = {}

    # ------------------------------------------------------------ span stack

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.open = Counter()
            local.inherited = None
        return local

    def current(self):
        local = self._state()
        return local.stack[-1] if local.stack else local.inherited

    def adopt(self, parent, fn, *args, **kwargs):
        """Run fn on this thread with parent as the enclosing span."""
        local = self._state()
        local.inherited = parent
        try:
            return fn(*args, **kwargs)
        finally:
            local.inherited = None

    def wrap(self, name: str, layer: str, fn, hook=None):
        """fn with a span named name; hook(tracer, args, kwargs, result) counts."""
        self.layers[name] = layer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._state()
            stack = local.stack
            if stack and stack[-1].fn is fn:
                return fn(*args, **kwargs)  # direct recursion is one span
            parent = stack[-1] if stack else local.inherited
            with self._lock:
                sid = next(self._ids)
            span = _Span(sid, parent, name, fn, threading.get_ident(), _clock(),
                         local.open[name] == 0)
            stack.append(span)
            local.open[name] += 1
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, kwargs, result)
                return result
            finally:
                local.open[name] -= 1
                stack.pop()
                self._close(span, _clock())

        return traced

    def _close(self, span: _Span, end: float):
        duration = end - span.start
        covered = span.child_s + (_covered(span.foreign, span.start, end) if span.foreign else 0.0)
        own = max(0.0, duration - covered)
        parent = span.parent
        with self._lock:
            if parent is not None:
                if parent.thread == span.thread:
                    parent.child_s += duration
                else:
                    parent.foreign.append((span.start, end))
            self.calls[span.name] += 1
            self.self_s[span.name] += own
            if span.outermost:
                self.inclusive_s[span.name] += duration
            if len(self.spans) < SPAN_LIMIT:
                self.spans.append((span.id, parent.id if parent is not None else None,
                                   span.name, span.thread, span.start, end))
            else:
                self.dropped += 1

    # ------------------------------------------------------------- summary

    def summary(self) -> dict:
        """Metrics of everything traced so far, keyed as in BENCHMARK.json."""
        out: dict[str, float] = {}
        for name, layer in self.layers.items():
            out[f"{name}.s"] = self.inclusive_s[name]
            out[f"{name}.calls"] = self.calls[name]
            out[f"{layer}.s"] = out.get(f"{layer}.s", 0.0) + self.self_s[name]
            out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + self.calls[name]
        out.update({key: self.counts[key] for key in COUNTERS})
        out.update({key: len(self.distinct[key]) for key in DISTINCT})
        return out


# ---------------------------------------------------------------- counters

def _bound(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _kernel_matrix_hook(fn):
    bind = _bound(fn)

    def hook(tr, args, kwargs, result):
        a = bind(args, kwargs)
        key = (a["kernel"], a["grid"])
        seen = tr.distinct["operators.kernel_matrix.keys"]
        if key not in seen:
            seen.add(key)
            tr.counts["operators.kernel_matrix.bytes"] += result.nbytes
    return hook


def _apply_kernel_hook(fn):
    bind = _bound(fn)

    def hook(tr, args, kwargs, result):
        a = bind(args, kwargs)
        f = a["f"]
        tr.distinct["operators.apply_kernel.distinct"].add((a["kernel"], f.grid, _digest(f.values)))
    return hook


def _fractional_maximal_hook(fn):
    bind = _bound(fn)

    def hook(tr, args, kwargs, result):
        a = bind(args, kwargs)
        f = a["f"]
        key = (f.grid, _digest(f.values), float(a["gamma"]),
               json.dumps(a["A"].to_json(), sort_keys=True), json.dumps(a["family"].to_json()))
        tr.distinct["maximal.fractional_maximal.distinct"].add(key)
    return hook


def _batched_rows_hook(fn):
    bind = _bound(fn)

    def hook(tr, args, kwargs, result):
        tr.counts["gauges.batched_mean_norms.rows"] += bind(args, kwargs)["windows"].shape[0]
    return hook


def _integrate_hook(fn):
    bind = _bound(fn)

    def hook(tr, args, kwargs, result):
        a = bind(args, kwargs)
        tr.counts["geometry.integrate.cells"] += a["f"].values[a["region"].slices].size
    return hook


def _window_matrix_hook(fn):
    # bytes of the window rows as materialized: computed from the shape
    def hook(tr, args, kwargs, result):
        tr.counts["sweeps.window_matrix.bytes"] += result.size * result.itemsize
    return hook


def _value_hook(tr, args, kwargs, result):
    t = args[1] if len(args) > 1 else kwargs["t"]
    tr.counts["gauges.value.elems"] += getattr(t, "size", 1)


HOOKS = {
    "operators.kernel_matrix": _kernel_matrix_hook,
    "operators.apply_kernel": _apply_kernel_hook,
    "maximal.fractional_maximal": _fractional_maximal_hook,
    "gauges.batched_mean_norms": _batched_rows_hook,
    "geometry.integrate": _integrate_hook,
    "sweeps.window_matrix": _window_matrix_hook,
}


# ----------------------------------------------------------------- install

def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported package with tracer spans."""
    modules = {name: importlib.import_module(name) for name in LAYERS}
    importlib.import_module("hartool.harness")  # every module that imports names
    replaced: dict[int, tuple] = {}
    for modname, mod in modules.items():
        layer = LAYERS[modname]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != modname:
                continue
            name = f"{layer}.{attr}"
            hook = HOOKS[name](obj) if name in HOOKS else None
            replaced[id(obj)] = (obj, tracer.wrap(name, layer, obj, hook))
        for clsname in CLASS_METHODS.get(modname, ()):
            cls = getattr(mod, clsname)
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                name = f"{layer}.{clsname}.{attr}"
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(tracer.wrap(name, layer, raw.__func__)))
                elif inspect.isfunction(raw):
                    setattr(cls, attr, tracer.wrap(name, layer, raw))
    gauges = modules["hartool.gauges"]
    for obj in list(vars(gauges).values()):
        if (inspect.isclass(obj) and issubclass(obj, gauges.YoungFunction)
                and "value" in vars(obj)):
            obj.value = tracer.wrap("gauges.value", "gauges", vars(obj)["value"], _value_hook)
    for modname, mod in list(sys.modules.items()):
        if modname != "hartool" and not modname.startswith("hartool."):
            continue
        for attr, obj in list(vars(mod).items()):
            entry = replaced.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])

    class TracedExecutor(ThreadPoolExecutor):
        """Parents pool work to the span that submitted it."""

        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.adopt, tracer.current(), fn, *args, **kwargs)

    modules["hartool.harness.inequalities"].ThreadPoolExecutor = TracedExecutor
