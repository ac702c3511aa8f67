"""Spans recorded from outside the solver.

The benchmark never edits the solver.  For a traced integration it replaces,
for the duration of a ``with tracer.patched():`` block, the module-level
names through which ``sav_nls.stepper`` (and ``solve_bordered`` and the
observers) call into each layer, with wrappers that open and close a span.

A span is ``[name, start_ns, end_ns, parent, slab]``: ``parent`` is the
index of the enclosing span (-1 for a root) and ``slab`` is the slab the
span belongs to (0 for set-up and observer start).  Root spans tile the
integration without gaps: ``setup`` (config in hand to the first observer
``start``), ``start`` (observer starts), one ``slab`` root per slab (from
the previous slab's last observer, or speed probe, to this slab's last
observer), ``probe`` (a speed-probe sample between slabs) and ``finish``.
Garbage-collector pauses are ``python.gc`` spans.  Spans stay in memory
and are written out when the run ends.
"""

import functools
import gc
import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

from sav_nls import diagnostics, linsolve, stepper

NAME, START, END, PARENT, SLAB = range(5)
ROOTS = ("setup", "start", "slab", "probe", "finish")

# (module, attribute, span name): every call the stepper makes into a layer
# goes through one of these module globals.  ``linsolve.factor`` is also
# patched because ``solve_bordered`` reaches ``factor`` through it.
PATCH_POINTS = (
    (stepper, "advance", "stepper.advance"),
    (stepper, "newton_step", "stepper.newton_step"),
    (stepper, "solve_bordered", "linsolve.solve_bordered"),
    (stepper, "factor", "linsolve.factor"),
    (linsolve, "factor", "linsolve.factor"),
    (stepper, "scatter_matrix", "fem.scatter_matrix"),
    (stepper, "scatter_vector", "fem.scatter_vector"),
    (stepper, "g_derivatives", "model.g_derivatives"),
    (stepper, "assemble_mass", "fem.assemble"),
    (stepper, "assemble_stiffness", "fem.assemble"),
    (stepper, "collocation_scheme", "collocation.scheme"),
    (stepper, "interpolate", "fem.interpolate"),
    (stepper, "r_init", "model.r_init"),
    (diagnostics, "error_norms", "fem.error_norms"),
)


class Tracer:
    """In-memory span list plus the counts taken at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.slab = 0
        self.clamped_points = 0
        self.residual_max = 0.0
        self._stack = []
        self._gc_span = None

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        # Allocating the span may run the garbage collector, whose callback
        # opens and closes a span of its own; take the index after appending.
        self.spans.append([name, perf_counter_ns(), 0, parent, self.slab])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][END] = perf_counter_ns()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][NAME]} closed out of order")

    @contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def root(self, name, slab=0):
        """Close the open root span (if any) and open the next one."""
        self._close_root()
        self.slab = slab
        self.open(name)

    def end(self):
        """Close the last root span once ``integrate`` has returned."""
        self._close_root()

    def _close_root(self):
        if self._stack:
            if len(self._stack) != 1:
                raise RuntimeError("root span closed while a layer span is open")
            self.close(self._stack[0])

    def observer(self, inner):
        return TracedObserver(self, inner)

    def patched(self):
        return patched(self)

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_span = self.open("python.gc")
        else:
            self.close(self._gc_span)

    def write(self, path, run):
        """Append this tracer's spans as JSON lines tagged with ``run``."""
        with open(path, "a") as fh:
            for name, start, end, parent, slab in self.spans:
                fh.write(json.dumps({"run": run, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "slab": slab}) + "\n")


class NullTracer:
    """Stand-in for untraced runs: the same calls, no spans, no patching."""

    def span(self, name):
        return nullcontext()

    def root(self, name, slab=0):
        pass

    def end(self):
        pass

    def observer(self, inner):
        return inner

    def patched(self):
        return nullcontext()


def self_times(spans):
    """Per-span duration minus the durations of its direct children (ns)."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_totals(spans, factors, in_slabs=True):
    """{name: [calls, inclusive_ns, self_ns]} of the non-root spans in slabs
    (``in_slabs``) or in set-up and observer start (not ``in_slabs``); the
    times of a span in slab n are scaled by ``factors[n]``."""
    selfs = self_times(spans)
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for span, own in zip(spans, selfs):
        name, start, end, _, slab = span
        if (slab >= 1) == in_slabs and name not in ROOTS:
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) * factors[slab]
            entry[2] += own * factors[slab]
    return totals


def _wrap(tracer, name, fn, record=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if record is not None:
            record(result)
        return result
    return wrapper


def _recorders(tracer):
    def newton_step(result):
        tracer.clamped_points += result[2]   # (unknowns, increment, clamped)

    def solve_bordered(solution):
        tracer.residual_max = max(tracer.residual_max, solution.residual)

    return {"newton_step": newton_step, "solve_bordered": solve_bordered}


@contextmanager
def patched(tracer):
    """Route the stepper's layer calls through span wrappers of ``tracer``.

    Garbage-collector pauses become ``python.gc`` spans, so that a pause
    between two layer calls is not left unattributed.
    """
    recorders = _recorders(tracer)
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in PATCH_POINTS]
    try:
        for (module, attr, name), (_, _, original) in zip(PATCH_POINTS, saved):
            setattr(module, attr, _wrap(tracer, name, original, recorders.get(attr)))
        gc.callbacks.append(tracer._gc_callback)
        yield tracer
    finally:
        if tracer._gc_callback in gc.callbacks:
            gc.callbacks.remove(tracer._gc_callback)
        for module, attr, original in saved:
            setattr(module, attr, original)


class TracedObserver:
    """Observer proxy: each ``start``/``after_slab`` call becomes a span."""

    def __init__(self, tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def start(self, state0, asm, scheme, nl):
        index = self._tracer.open("diagnostics.start")
        try:
            self._inner.start(state0, asm, scheme, nl)
        finally:
            self._tracer.close(index)

    def after_slab(self, n, prev_state, new_state, report):
        index = self._tracer.open("diagnostics.observe")
        try:
            self._inner.after_slab(n, prev_state, new_state, report)
        finally:
            self._tracer.close(index)
