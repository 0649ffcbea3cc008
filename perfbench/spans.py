"""In-memory span recorder and the wrappers that feed it.

A span is ``[name, start, end, parent]`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span (-1 at
top level). Spans stay in a list until the caller aggregates them, so the
only cost on the traced path is two clock reads and one append per call.

Wrapping happens from outside the program: `Tracer.install` replaces a
function in every ``eselend`` module that holds a reference to it. ``cli``
and ``mean_variance`` import names directly (``from .optimizer import
argmax_grid``), so patching only the defining module would miss those
call sites. `Tracer.uninstall` restores every original object.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict
from functools import wraps

import numpy as np

_clock = time.perf_counter


def covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: duration minus the union of its children.

    Children are clipped to the parent's interval, and overlapping children
    are counted once, so the result never goes below zero.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(i, ())
                   if min(e, end) > max(s, start)]
        out.append((end - start) - covered(clipped))
    return out


class Tracer:
    """Records spans and counters for calls into wrapped functions."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)
        self.measure_peaks = False
        self._stack = []
        self._patched = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.peaks.clear()
        self._stack.clear()

    def enter(self, name):
        idx = len(self.spans)
        self.spans.append([name, _clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def leave(self, idx):
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def span(self, name, fn, *, peak=False, on_call=None, on_result=None):
        """Return ``fn`` wrapped in a span named ``name``.

        peak: while ``measure_peaks`` is set, measure the call's peak of new
        allocations with tracemalloc, keyed ``<name>.peak_mb`` in ``peaks``
        (unless an enclosing call is already being measured).
        on_call(tracer, fn, args, kwargs): hook run before the call; returns
        the ``(args, kwargs)`` to call ``fn`` with.
        on_result(tracer, result): hook run after a successful call.
        """
        counts = self.counts
        calls_key = name + ".calls"
        peak_key = name + ".peak_mb"

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            if on_call is not None:
                args, kwargs = on_call(self, fn, args, kwargs)
            measure = peak and self.measure_peaks and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(idx)
                if measure:
                    top = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peaks[peak_key] = max(self.peaks[peak_key], top / 2**20)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def install(self, modules, fn, wrapper):
        """Replace ``fn`` by ``wrapper`` wherever a module attribute holds it."""
        hit = False
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, fn))
                    setattr(module, attr, wrapper)
                    hit = True
        if not hit:
            raise LookupError(f"{fn.__qualname__} is not referenced by any module")

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def totals(self):
        """Per span name: outermost duration sum and self-time sum."""
        selfs = self_times(self.spans)
        total = defaultdict(float)
        self_total = defaultdict(float)
        names = [s[0] for s in self.spans]
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_total[name] += selfs[i]
            # A span nested inside a span of the same name is already
            # inside that span's duration.
            p = parent
            while p >= 0 and names[p] != name:
                p = self.spans[p][3]
            if p < 0:
                total[name] += end - start
        return total, self_total


def count_objective(tracer, fn, args, kwargs):
    """`on_call` hook for ``argmax_grid``: wrap its objective argument."""
    objective = args[0] if args else kwargs.pop("objective")
    counts = tracer.counts

    def traced_objective(E):
        kind = "scalar_evals" if np.ndim(E) == 0 else "vector_evals"
        counts["optimizer.objective." + kind] += 1
        idx = tracer.enter("optimizer.objective")
        try:
            return objective(E)
        finally:
            tracer.leave(idx)

    return (traced_objective, *args[1:]), kwargs
