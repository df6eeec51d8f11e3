"""Span tracing installed from outside the package.

`Tracer.install()` replaces module attributes of `weylchar` with wrappers
that record one span per call: name, start, end and parent span.  Spans
stay in memory; `summary()` turns them into per-layer metrics when the run
ends.  A span's self time is its duration minus the durations of its
direct children (calls are single-threaded, so children never overlap).
Spans are timed in CPU seconds, like the rest of the benchmark (`cpu_time`).

Functions imported by name into another module are separate bindings and
are wrapped where they are used: `asymptotics` and `spectral` call
`character` and `dim_irrep` through their own globals, and `charcalc`
calls `generate_weyl_group`, `stabilizer` and `coset_transversal` through
its own.  `RootSystem.inner` is counted, not spanned: it runs millions of
times and a span per call would dominate the traced run.
"""

from __future__ import annotations

import functools
import resource
import time
from collections import defaultdict

from weylchar import asymptotics, charcalc, rootsys, spectral, weylgroup

# (span name, modules holding a binding to wrap, attribute name)
_SPANNED = (
    ("rootsys.build", ("rootsys",), "build_root_system"),
    ("weylgroup.enumerate", ("weylgroup", "charcalc"), "generate_weyl_group"),
    ("weylgroup.stabilizer", ("weylgroup", "charcalc"), "stabilizer"),
    ("weylgroup.transversal", ("weylgroup", "charcalc"), "coset_transversal"),
    ("charcalc.character", ("charcalc", "asymptotics", "spectral"), "character"),
    ("charcalc.char_singular", ("charcalc",), "char_singular"),
    ("charcalc.char_regular_exact", ("charcalc",), "_char_regular_exact"),
    ("charcalc.char_regular_float", ("charcalc",), "_char_regular_float"),
    ("charcalc.snap", ("charcalc",), "snap_to_exact"),
    ("charcalc.multiplicities", ("charcalc",), "_multiplicities_cached"),
    ("charcalc.oracle", ("charcalc",), "char_weightsum_oracle"),
    ("charcalc.dim_irrep", ("charcalc", "asymptotics", "spectral"), "dim_irrep"),
    ("asymptotics.sweep", ("asymptotics",), "normalized_char_sweep"),
    ("spectral.words", ("spectral",), "moment_exact"),
    ("spectral.words", ("spectral",), "moment_sampled"),
    ("spectral.eigenphases", ("spectral",), "conjugacy_phases"),
    ("spectral.generators", ("spectral",), "catalog_su2_free_pair"),
    ("spectral.generators", ("spectral",), "generator_set"),
    ("spectral.generators", ("spectral",), "haar_generator_set"),
)
_SPANNED_METHODS = (("rootsys.degenerate_split", rootsys.RootSystem, "degenerate_split"),)
_COUNTED_METHODS = (("rootsys.inner", rootsys.RootSystem, "inner"),)

_MODULES = {
    "rootsys": rootsys,
    "weylgroup": weylgroup,
    "charcalc": charcalc,
    "asymptotics": asymptotics,
    "spectral": spectral,
}

#: lru caches whose hit ratio the run reports, by metric name.
CACHES = {
    "charcalc.weyl_cache": charcalc.cached_weyl_group,
    "charcalc.orbit_cache": charcalc._exact_orbit,
    "charcalc.evaluator_cache": charcalc._cached_evaluator,
}


def cpu_time() -> float:
    """CPU seconds used by this process and its reaped children.

    This is the benchmark's clock.  The measured code is single-threaded and
    CPU-bound, so CPU time equals wall time on an idle machine, but unlike
    wall time it leaves out the time a shared virtual machine's CPU is
    stolen by the hypervisor.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.extra = defaultdict(float)  # per-span-name work counts
        self._stack = []
        self._restore = []
        self._cache_start = {}

    # -- installation -------------------------------------------------------

    def install(self):
        for name, modules, attr in _SPANNED:
            for mod_name in modules:
                mod = _MODULES[mod_name]
                self._patch(mod, attr, self._span(name, getattr(mod, attr)))
        for name, cls, attr in _SPANNED_METHODS:
            self._patch(cls, attr, self._span(name, getattr(cls, attr)))
        for name, cls, attr in _COUNTED_METHODS:
            self._patch(cls, attr, self._counter(name, getattr(cls, attr)))
        self._cache_start = {k: f.cache_info() for k, f in CACHES.items()}

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name, fn):
        spans, stack, extra = self.spans, self._stack, self.extra
        on_result = _RESULT_COUNTERS.get(name)
        measure_rss = name == "weylgroup.enumerate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rss0 = _maxrss_mb() if measure_rss else 0.0
            misses0 = fn.cache_info().misses if name == "charcalc.multiplicities" else 0
            spans.append([name, time.process_time(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.process_time()
            if measure_rss:
                extra["weylgroup.enumerate.rss_delta_mb"] += _maxrss_mb() - rss0
            if on_result is not None:
                on_result(extra, result, fn, misses0)
            return result

        return wrapper

    def span(self, name):
        """Context manager recording a span around benchmark-side code.

        Its clock includes reaped children, so a span around a subprocess
        measures the child's CPU time.
        """
        return _ManualSpan(self, name)

    # -- summary ------------------------------------------------------------

    def summary(self, region_s: float) -> dict:
        """Per-name totals and per-layer self times over the recorded spans."""
        n = len(self.spans)
        child_time = [0.0] * n
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time = defaultdict(float)
        calls = defaultdict(int)
        char_from_spectral = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            self_time[name] += dur - child_time[i]
            calls[name] += 1
            if name == "charcalc.character" and parent >= 0 \
                    and self.spans[parent][0].startswith("spectral."):
                char_from_spectral += dur
        layer_self = defaultdict(float)
        for name, t in self_time.items():
            layer_self[name.split(".", 1)[0]] += t
        top = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        layer_self["bench"] += region_s - top
        caches = {}
        for key, fn in CACHES.items():
            now, start = fn.cache_info(), self._cache_start[key]
            hits, misses = now.hits - start.hits, now.misses - start.misses
            caches[key] = (hits, hits + misses)
        return {
            "self": dict(self_time),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "extra": dict(self.extra),
            "layer_self": layer_self,
            "caches": caches,
            "char_from_spectral_s": char_from_spectral,
        }


class _ManualSpan:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.spans)
        t.spans.append([self.name, cpu_time(), 0.0,
                        t._stack[-1] if t._stack else -1])
        t._stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t._stack.pop()
        t.spans[self.idx][2] = cpu_time()
        return False


def _count_elements(extra, group, fn, misses0):
    extra["weylgroup.enumerate.elements"] += group.order


def _count_transversal(extra, transversal, fn, misses0):
    extra["weylgroup.transversal.size"] += len(transversal)


def _count_weights(extra, mults, fn, misses0):
    if fn.cache_info().misses > misses0:
        extra["charcalc.multiplicities.weights"] += len(mults)


def _count_rows(extra, report, fn, misses0):
    extra["asymptotics.sweep.rows"] += len(report.entries)


_RESULT_COUNTERS = {
    "weylgroup.enumerate": _count_elements,
    "weylgroup.transversal": _count_transversal,
    "charcalc.multiplicities": _count_weights,
    "asymptotics.sweep": _count_rows,
}
