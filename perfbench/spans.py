"""In-memory span tracer around aliaslab's public entry points.

The hooks replace module and class attributes at run time, from the
benchmark's own files; nothing under ``src/`` is instrumented.  Each span
records its name, start, end, thread, parent span, wall time and
``time.thread_time`` CPU.  Spans stay in memory until the run ends.

Work counters are computed by the benchmark from the arguments of the
hooked calls (outside the timed spans), not counted by the program, so they
are labelled "computed".  A hook whose target no longer resolves is recorded
as an absent layer, and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from aliaslab import special_functions

COMPUTED_COUNTERS = (
    "forward_model.views",
    "forward_model.data_smooth_deriv.points",
    "forward_model.windows_clean",
    "forward_model.windows_kinked",
    "forward_model.windows_dead",
    "reconstruction.pv_filter_uniform.points",
    "reconstruction.filtered_bytes",
    "reconstruction.backproject.point_views",
    "special_functions.big_psi.terms",
)


class Span:
    __slots__ = ("id", "parent", "name", "thread", "start", "end", "cpu_s", "cpu0")
    FIELDS = ("id", "parent", "name", "thread", "start", "end", "wall_s", "cpu_s")

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [getattr(self, field) for field in self.FIELDS]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.main_thread = threading.get_ident()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._seen: set = set()
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str, parent: int | None = None) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span()
        span.id = next(self._ids)
        span.parent = parent if parent is not None else (stack[-1].id if stack else None)
        span.name = name
        span.thread = threading.get_ident()
        stack.append(span)
        span.cpu0 = time.thread_time()
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu_s = time.thread_time() - span.cpu0
        self._local.stack.pop()
        self.spans.append(span)

    def add(self, key: str, amount) -> None:
        with self._lock:
            self.counters[key] += amount

    def add_distinct(self, key: str, item) -> None:
        with self._lock:
            if (key, item) not in self._seen:
                self._seen.add((key, item))
                self.counters[key] += 1

    # -- hooks -------------------------------------------------------------

    def install(self) -> None:
        for name, module, attr, after in _HOOKS:
            make = self._wrap_parallel if name == "parallel.parallel_map" else self._wrap
            self._hook(name, module, attr, make, after)

    def remove(self) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()

    def _hook(self, name, module, attr, make, after) -> None:
        *path, leaf = attr.split(".")
        try:
            owner = importlib.import_module(module)
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            self.absent.append(name)
            return
        if path:
            owners = [owner]
        else:  # every aliaslab module that imported the function by name
            owners = [
                m
                for key, m in list(sys.modules.items())
                if (key == "aliaslab" or key.startswith("aliaslab.")) and getattr(m, leaf, None) is original
            ]
        wrapper = make(name, original, after)
        for target in owners:
            self._undo.append((target, leaf, original))
            setattr(target, leaf, wrapper)

    def _wrap(self, name, fn, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                try:
                    after(tracer, args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the call no longer has the arguments the counter reads
                    if f"{name} counters" not in tracer.absent:
                        tracer.absent.append(f"{name} counters")
            return out

        return wrapper

    def _wrap_parallel(self, name, fn, after):
        """parallel_map(fn, items, threads): one child span per item, parented
        across threads to the map's span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(func, items, *args, **kwargs):
            items = list(items)
            threads = max(1, int(args[0] if args else kwargs.get("threads", 1)))
            span = tracer.open(name)

            def item(x):
                inner = tracer.open("parallel.item", parent=span.id)
                try:
                    return func(x)
                finally:
                    tracer.close(inner)

            try:
                return fn(item, items, *args, **kwargs)
            finally:
                tracer.close(span)
                tracer.add("parallel.parallel_map.items", len(items))
                tracer.add("parallel.capacity_s", span.wall_s * threads)

        return wrapper

    # -- results -----------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced run; ``wall_s`` is its wall time."""
        total = defaultdict(float)
        cpu = defaultdict(float)
        calls = defaultdict(int)
        children = defaultdict(list)
        by_id = {}
        for span in self.spans:
            total[span.name] += span.wall_s
            cpu[span.name] += span.cpu_s
            calls[span.name] += 1
            children[span.parent].append(span)
            by_id[span.id] = span

        def self_time(name: str) -> float:
            return sum((s.wall_s - _covered(s, children[s.id]) for s in self.spans if s.name == name), 0.0)

        def is_output(span_id) -> bool:
            return span_id in by_id and by_id[span_id].name.startswith("outputs.")

        top = sum(s.wall_s for s in children[None] if s.thread == self.main_thread)
        writes = sum(s.wall_s for s in self.spans if s.name.startswith("outputs.") and not is_output(s.parent))
        point_views = self.counters["reconstruction.backproject.point_views"]
        capacity = self.counters["parallel.capacity_s"]

        metrics = {name: float(self.counters[name]) for name in COMPUTED_COUNTERS}
        metrics.update(
            {
                "forward_model.data_smooth_deriv.wall_s": total["forward_model.data_smooth_deriv"],
                "forward_model.data_smooth_deriv.cpu_s": cpu["forward_model.data_smooth_deriv"],
                "forward_model.data_smooth_deriv.calls": float(calls["forward_model.data_smooth_deriv"]),
                "reconstruction.pv_filter_uniform.wall_s": total["reconstruction.pv_filter_uniform"],
                "reconstruction.pv_filter_uniform.cpu_s": cpu["reconstruction.pv_filter_uniform"],
                "reconstruction.filter_view.wall_s": total["reconstruction.filter_view"],
                "reconstruction.filter_view.self_s": self_time("reconstruction.filter_view"),
                "reconstruction.backproject.wall_s": total["reconstruction.backproject"],
                "reconstruction.backproject.cpu_s": cpu["reconstruction.backproject"],
                "reconstruction.backproject.ns_per_point_view": (
                    total["reconstruction.backproject"] * 1e9 / point_views if point_views else 0.0
                ),
                "parallel.parallel_map.wall_s": total["parallel.parallel_map"],
                "parallel.parallel_map.items": float(self.counters["parallel.parallel_map.items"]),
                "parallel.busy_ratio": cpu["parallel.item"] / capacity if capacity else 0.0,
                "special_functions.big_psi.calls": float(calls["special_functions.big_psi"]),
                "special_functions.big_psi.wall_s": total["special_functions.big_psi"],
                "predictor.fill_prediction.wall_s": total["predictor.fill_prediction"],
                "geometry.tangency_enumerate.wall_s": total["geometry.tangency_enumerate"],
                "outputs.write_s": writes,
                "trace.wall_s": wall_s,
                "trace.coverage": top / wall_s if wall_s > 0 else 0.0,
            }
        )
        return metrics


def _covered(span: Span, kids: list[Span]) -> float:
    """Length of the part of ``span`` that its child spans cover."""
    covered, reach = 0.0, span.start
    for kid in sorted(kids, key=lambda s: s.start):
        lo, hi = max(kid.start, reach), min(kid.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


# -- computed counters, run after each hooked call ---------------------------


def window_counts(data, k, p) -> dict[str, int]:
    """Clean, kinked and dead convolution windows of one view, classified as
    ``SemiDiscreteData`` splits them: a window of half-width eps*s around p
    is kinked when a kink of the sinogram lies strictly inside it, and dead
    when it misses the sinogram support."""
    pv = np.atleast_1d(np.asarray(p, dtype=float))
    alpha = data.view_angle(k)
    half = data.scheme.epsilon * float(data.mollifier.half_width)
    lo, hi = pv - half, pv + half
    kinked = np.zeros(pv.shape, dtype=bool)
    for t in data.sampler.kinks(alpha):
        kinked |= (lo < t) & (t < hi)
    slo, shi = data.sampler.support(alpha)
    dead = ((hi <= slo) | (lo >= shi)) & ~kinked
    n_kinked, n_dead = int(kinked.sum()), int(dead.sum())
    return {"clean": pv.size - n_kinked - n_dead, "kinked": n_kinked, "dead": n_dead}


def psi_terms(h, a, r, tail_start: int, half_width: float) -> int:
    """Lattice terms big_psi sums: K + ceil(r + s/a) after its argument
    reduction, and none when the reduced h or a is 0."""
    h, a, r = float(h), float(a), float(r)
    if a == 0.0:
        return 0
    if a < 0.0:
        a, r = -a, -r
    r %= 1.0
    if r == 1.0:
        r = 0.0
    h %= a
    if h > 0.5 * a:
        h -= a
    if h == 0.0:
        return 0
    return tail_start + math.ceil(r + half_width / a)


def _after_data(tracer, args, kwargs, out):
    data, k = args[0], args[1]
    p = args[2] if len(args) > 2 else kwargs["p"]
    tracer.add("forward_model.data_smooth_deriv.points", int(np.size(p)))
    tracer.add_distinct("forward_model.views", (id(data), k))
    for kind, n in window_counts(data, k, p).items():
        tracer.add(f"forward_model.windows_{kind}", n)


def _after_pv_filter(tracer, args, kwargs, out):
    tracer.add("reconstruction.pv_filter_uniform.points", int(np.size(args[0])))


def _after_filter_view(tracer, args, kwargs, out):
    values = getattr(out, "values", None)
    tracer.add("reconstruction.filtered_bytes", int(getattr(values, "nbytes", 0)))


def _after_backproject(tracer, args, kwargs, out):
    views, x = args[0], args[1]
    points = np.asarray(x, dtype=float)
    n_points = 1 if points.ndim == 1 else points.shape[0]
    tracer.add("reconstruction.backproject.point_views", n_points * len(views))


def _after_big_psi(tracer, args, kwargs, out):
    h, a, r = args[:3]
    config = args[3] if len(args) > 3 else kwargs.get("config", special_functions.DEFAULT_PSI_CONFIG)
    spec = args[4] if len(args) > 4 else kwargs.get("spec", special_functions.DEFAULT_MOLLIFIER)
    tracer.add("special_functions.big_psi.terms", psi_terms(h, a, r, config.tail_start, float(spec.half_width)))


# (layer, module, attribute, counter callback); a module-level function is
# looked up in the named module and replaced wherever aliaslab imported it
_HOOKS = (
    ("forward_model.data_smooth_deriv", "aliaslab.forward_model", "SemiDiscreteData.data_smooth_deriv", _after_data),
    ("reconstruction.pv_filter_uniform", "aliaslab.reconstruction", "pv_filter_uniform", _after_pv_filter),
    ("reconstruction.filter_view", "aliaslab.pipeline", "filter_view", _after_filter_view),
    ("reconstruction.backproject", "aliaslab.reconstruction", "backproject", _after_backproject),
    ("parallel.parallel_map", "aliaslab.pipeline", "parallel_map", None),
    ("predictor.fill_prediction", "aliaslab.pipeline", "fill_prediction", None),
    ("special_functions.big_psi", "aliaslab.predictor", "big_psi", _after_big_psi),
    ("geometry.tangency_enumerate", "aliaslab.pipeline", "tangency_enumerate", None),
    ("acceptance.run_criteria", "aliaslab.acceptance", "run_criteria", None),
    ("outputs.write_artifacts", "aliaslab.pipeline", "write_artifacts", None),
    ("outputs.write_profile_csv", "aliaslab.outputs", "write_profile_csv", None),
    ("outputs.write_pgm16", "aliaslab.outputs", "write_pgm16", None),
    ("outputs.write_psi_table_csv", "aliaslab.outputs", "write_psi_table_csv", None),
)
