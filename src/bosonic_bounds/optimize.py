"""Deterministic bounded minimization: grid-seeded golden-section search.

Derivative-free on purpose: the objectives this package minimizes contain
g(W/delta) terms whose derivative is unbounded near the interval edge,
where gradient steps misbehave.  A maximization is the minimization of the
negated objective.  :func:`minimize_batch` runs n problems in lockstep, each
taking exactly the steps it would take alone.  One function, `_golden`,
takes every golden-section step: on arrays through np.where while several
problems step together, and on Python floats once one problem steps alone,
which numpy would otherwise run as 1-element arrays at many times the cost.
The arithmetic is the same on both, so the bits are.  The objective is
elementwise: it gets the points and each problem's own arguments.
Identical inputs give bit-identical results, and on a plateau the smallest
argument wins.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import DomainError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_TOL = 1e-9
DEFAULT_GRID_POINTS = 64


# per-problem results of minimize_batch, each an array of length n
BatchOptResult = namedtuple("BatchOptResult", "arg value evaluations converged")


def _seed_grids(lo, hi, seed_grids):
    """Each row's distinct seeds in [lo, hi], ascending and padded to the
    longest row's number by repeating the last one, and their number."""
    s = np.sort(np.clip(np.asarray(seed_grids, dtype=float), lo[:, None], hi[:, None]), axis=1)
    new = np.ones(s.shape, dtype=bool)
    new[:, 1:] = s[:, 1:] != s[:, :-1]
    count = new.sum(axis=1)
    first = np.argsort(~new, axis=1, kind="stable")  # distinct points first, in order
    pad = np.minimum(np.arange(count.max()), count[:, None] - 1)
    return np.take_along_axis(s, np.take_along_axis(first, pad, axis=1), axis=1), count


def _pick(cond, a, b):
    return a if cond else b


def _golden(f, where, n, a, h, c, d, fc, fd, bx, bv):
    """Take n golden-section steps on the bracket [a, a + h], whose interior
    points c and d have the values fc and fd; return these eight values
    after them.  (bx, bv) is the best point seen: a lower value wins, on
    equal values the smaller argument.  On entry the better of c and d is
    seen, which is enough on a search's first entry, where c <= d, and a
    no-op on a later one.  `where` is np.where on the arrays of the rows
    stepping together, or _pick on one row's floats: the same arithmetic,
    so the same bits."""
    x, fx = where(fc <= fd, c, d), where(fc <= fd, fc, fd)
    for i in range(n + 1):
        better = (fx < bv) | ((fx == bv) & (x < bx))
        bx, bv = where(better, x, bx), where(better, fx, bv)
        if i == n:
            return a, h, c, d, fc, fd, bx, bv
        left = fc <= fd  # ties keep the left interval -> smaller arguments
        h = h * _INVPHI
        a = where(left, a, c)
        x = a + where(left, _INVPHI2, _INVPHI) * h
        fx = f(x)
        c, d = where(left, x, d), where(left, c, x)
        fc, fd = where(left, fx, fd), where(left, fc, fx)


def minimize_batch(objective, lo, hi, seed_grids, *row_args) -> BatchOptResult:
    """Minimize n scalar problems, problem i on [lo[i], hi[i]], in lockstep.

    `objective(x, *args)` is elementwise in `x` and in `args`, one for each
    of the `row_args` (arrays of n floats, problem i's value at index i).
    The seeds' call gets `x` of shape (n, m) and each arg `row_arg[:, None]`.
    The searching problems' args are gathered once, longest search first;
    while k of them step together, `x` has shape (k, j) and each arg is the
    gather's first k rows, sliced once each time a problem stops.  The
    objective returns values of `x`'s shape.  Once only problem r is left
    stepping, its remaining calls get a float `x` and the floats
    `row_arg[r]`, and return a float.  +inf (or nan, taken as +inf) is
    allowed anywhere.
    Problem i seeds on row i of `seed_grids` (an (n, m) array), clipped to
    its interval with duplicates dropped; all seeds are evaluated in one
    call.  A caller whose objective diverges at an endpoint passes grids
    that crowd towards it and keeps the endpoint out of [lo, hi].  The
    best seed's neighbours bracket a golden-section search of the fixed step
    count that shrinks the bracket to 1e-9; ties keep the left interval.
    Every step, in lockstep or alone, runs in `_golden`, so a problem gets
    the bits it would get alone.  Each problem reports its best evaluated point (the smallest argument on
    a plateau) and its evaluations; one whose seeds are all +inf is
    non-converged at its first seed point.  A non-finite bound or lo > hi
    raises DomainError.
    """
    lo, hi = np.broadcast_arrays(np.atleast_1d(np.asarray(lo, dtype=float)),
                                 np.asarray(hi, dtype=float))
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise DomainError("minimization requires finite lo and hi")
    if np.any(lo > hi):
        raise DomainError("minimization requires lo <= hi")
    row_args = [np.broadcast_to(np.asarray(p, dtype=float), lo.shape) for p in row_args]

    def f(x, args):
        v = np.asarray(objective(x, *args), dtype=float).reshape(x.shape)
        return np.where(np.isnan(v), np.inf, v)

    rows = np.arange(lo.size)
    grid, evaluations = _seed_grids(lo, hi, seed_grids)
    vals = f(grid, [p[:, None] for p in row_args])
    i = np.argmin(vals, axis=1)  # first minimum = smallest argument on ties
    value, converged = vals[rows, i], np.isfinite(vals[rows, i])
    arg = np.where(converged, grid[rows, i], grid[:, 0])
    a = grid[rows, np.maximum(i - 1, 0)]
    h = grid[rows, np.minimum(i + 1, evaluations - 1)] - a
    steps = np.zeros(lo.size, dtype=int)
    for r in np.flatnonzero(converged & (h > _TOL)):
        steps[r] = math.ceil(math.log(_TOL / h[r]) / math.log(_INVPHI))
    evaluations += np.where(steps > 0, steps + 1, 0)

    g = np.flatnonzero(steps)  # the searching rows, longest first, so that
    g = g[np.argsort(-steps[g], kind="stable")]  # the active ones are a prefix
    steps, a, h = steps[g], a[g], h[g]
    g_args = [p[g, None] for p in row_args]  # gathered once; a segment takes [:k]
    state = (a, h, a + _INVPHI2 * h, a + _INVPHI * h)  # step 1 evaluates both c and d
    t, k = 1, g.size  # t golden steps taken, k rows still stepping
    if k > 1:
        state += (*f(np.stack(state[2:], axis=1), g_args).T, arg[g], value[g])
    while k > 1:  # rows [:k] step together until row k - 1 stops
        args = [p[:k] for p in g_args]
        state = _golden(lambda x: f(x[:, None], args)[:, 0], np.where, int(steps[k - 1]) - t,
                        *(v[:k] for v in state))
        arg[g[:k]], value[g[:k]] = state[6:]
        t = int(steps[k - 1])
        k = np.count_nonzero(steps > t)
    if k == 1:  # one row left stepping: on floats
        args = [float(p[0, 0]) for p in g_args]

        def f1(x):
            v = float(objective(x, *args))
            return math.inf if v != v else v

        s = [float(v[0]) for v in state]
        if g.size == 1:
            s += [f1(s[2]), f1(s[3]), float(arg[g[0]]), float(value[g[0]])]
        arg[g[0]], value[g[0]] = _golden(f1, _pick, int(steps[0]) - t, *s)[6:]
    return BatchOptResult(arg, value, evaluations, converged)
