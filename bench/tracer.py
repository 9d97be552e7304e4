"""Span tracer installed around the package's public functions.

The tracer lives in the benchmark, not in the package: ``install`` replaces
every public function of the traced modules with a timing wrapper in every
``bosonic_bounds`` module (and tuple) that holds a reference to it, so names
bound at import time (``from .optimize import minimize_scalar``) are traced
too.  ``uninstall`` puts the originals back.  Nothing here is imported by an
untraced run.

A span is (id, name, layer, start_ns, end_ns, parent span, operation id).  The
span stack is kept per thread; a span opened on a thread with an empty stack
(a sweep cell on the CLI's pool) takes the innermost open span of the main
thread as its parent.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import sys
import threading
import time

LAYERS = ("cli", "bounds", "optimize", "channels", "gaussian_core", "verify")
OPTIMIZERS = ("minimize_scalar", "maximize_scalar")

# bound functions -> the kind a call computes
_KIND_OF = {
    "q_lower_thermal": "QL", "q_lower_amp": "QL", "q_u1": "QU1", "q_u2": "QU2",
    "q_u3": "QU3", "q_u4": "QU4", "p_lower_displaced": "PL",
}


def _bound_kind(fname, args, kwargs):
    if fname in _KIND_OF:
        return _KIND_OF[fname]
    if fname == "p_bounds":
        return kwargs.get("which", args[2] if len(args) > 2 else None)
    if fname == "comparison_bounds":
        which = kwargs.get("which", args[1] if len(args) > 1 else "")
        return "PLOB" if str(which).startswith("PLOB") else which
    return None


class Span:
    __slots__ = ("sid", "name", "layer", "start", "end", "parent", "op",
                 "in_objective", "kind", "error", "obj_ns", "evals",
                 "converged", "children")

    def __init__(self, sid, name, layer, parent, op, in_objective):
        self.sid, self.name, self.layer = sid, name, layer
        self.parent, self.op, self.in_objective = parent, op, in_objective
        self.start = self.end = 0
        self.kind = self.error = self.converged = None
        self.obj_ns = self.evals = 0


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches = []
        self.op = 0

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.in_objective = 0
            return self._local.stack

    # -- spans ---------------------------------------------------------
    def open(self, name, layer):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main and stack is not main else None
        span = Span(next(self._ids), name, layer, parent, self.op,
                    self._local.in_objective > 0)
        stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def close(self, span):
        span.end = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def operation(self, name):
        """One top-level operation (a sweep, a query, a suite) as a span."""
        self.op += 1
        span = self.open(name, "op")
        try:
            yield span
        finally:
            self.close(span)

    # -- wrapping ------------------------------------------------------
    def _wrap(self, func, layer):
        name = f"{layer}.{func.__name__}"
        tracer = self
        fname = func.__name__
        is_opt = layer == "optimize" and fname in OPTIMIZERS
        is_bound = layer == "bounds"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, layer)
            if is_bound:
                span.kind = _bound_kind(fname, args, kwargs)
            if is_opt and not (span.parent is not None and span.parent.layer == "optimize"):
                args = (tracer._timed_objective(span, args[0]),) + args[1:]
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if is_opt:
                span.evals = result.evaluations
                span.converged = result.converged
            return result

        return wrapper

    def _timed_objective(self, span, objective):
        local = self._local

        def timed(x):
            local.in_objective += 1
            t0 = time.perf_counter_ns()
            try:
                return objective(x)
            finally:
                span.obj_ns += time.perf_counter_ns() - t0
                local.in_objective -= 1

        return timed

    def install(self):
        package = "bosonic_bounds"
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for fname, func in vars(mod).items():
                if (inspect.isfunction(func) and not fname.startswith("_")
                        and func.__module__ == mod.__name__):
                    originals[id(func)] = (func, self._wrap(func, layer))
        holders = [m for n, m in sorted(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for mod in holders:
            for attr, val in list(vars(mod).items()):
                if id(val) in originals and originals[id(val)][0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, originals[id(val)][1])
                elif isinstance(val, tuple) and any(id(v) in originals for v in val):
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, tuple(originals[id(v)][1] if id(v) in originals
                                             else v for v in val))

    def uninstall(self):
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _cover_ns(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _foreign(span):
    """First-level descendants of `span` that belong to another layer and
    did not run inside a timed optimizer objective."""
    out, todo = [], list(span.children)
    while todo:
        c = todo.pop()
        if c.layer == span.layer:
            todo.extend(c.children)
        elif not c.in_objective:
            out.append(c)
    return out


def layer_self_ns(span):
    """Time an outermost span of a layer spent in that layer's own code:
    its duration minus the union of foreign child spans and, for the
    optimizer, minus the time in the objective it was given."""
    covered = _cover_ns((c.start, c.end) for c in _foreign(span))
    return span.end - span.start - covered - span.obj_ns


def link(spans):
    for s in spans:
        s.children = []
    for s in spans:
        if s.parent is not None:
            s.parent.children.append(s)


def outermost(spans, layer):
    return [s for s in spans if s.layer == layer
            and (s.parent is None or s.parent.layer != layer)]
