"""Deterministic bounded minimization: grid-seeded golden-section search.

Derivative-free on purpose: the objectives this package minimizes contain
g(W/delta) terms whose derivative is unbounded near the interval edge,
where gradient steps misbehave.  A maximization is the minimization of the
negated objective.  :func:`minimize_batch` runs n problems in lockstep, each
taking exactly the steps it would take alone.  The objective is
elementwise: it gets the points and each problem's own arguments, arrays
gathered once per batch while several problems step together and Python
floats once one problem steps alone, which numpy would otherwise run as
1-element arrays at many times the cost.
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


def _search_alone(f, n, a, h, bx, bv, bracket=None):
    """The last n golden-section steps of one problem on Python floats, with
    the lockstep loop's arithmetic in its order, so with its bits; returns
    the best (point, value) after them, starting from (bx, bv).  `bracket`
    is the (c, d, f(c), f(d)) of a search the lockstep loop began; without
    it the first of the n steps evaluates both interior points."""
    def consider(x, v):
        nonlocal bx, bv
        if v < bv or (v == bv and x < bx):
            bx, bv = x, v

    if bracket is None:
        c, d = a + _INVPHI2 * h, a + _INVPHI * h
        fc, fd = f(c), f(d)
        consider(c, fc)
        consider(d, fd)
        n -= 1
    else:
        c, d, fc, fd = bracket
    for _ in range(n):
        h *= _INVPHI
        if fc <= fd:  # ties keep the left interval -> smaller arguments
            x = a + _INVPHI2 * h
            fx = f(x)
            c, d, fc, fd = x, c, fx, fc
        else:
            a = c
            x = a + _INVPHI * h
            fx = f(x)
            c, d, fc, fd = d, x, fd, fx
        consider(x, fx)
    return bx, bv


def minimize_batch(objective, lo, hi, seed_grids, *row_args) -> BatchOptResult:
    """Minimize n scalar problems, problem i on [lo[i], hi[i]], in lockstep.

    `objective(x, *args)` is elementwise in `x` and in `args`, one for each
    of the `row_args` (arrays of n floats, problem i's value at index i).
    The seeds' call gets `x` of shape (n, m) and each arg `row_arg[:, None]`.
    The searching problems' args are gathered once, longest search first;
    while k of them step together, `x` has shape (k, j) and each arg is the
    gather's first k rows.  The objective returns values of `x`'s shape.
    Once only problem r is left stepping, its remaining calls get a float
    `x` and the floats `row_arg[r]`, and return a float.  +inf (or nan,
    taken as +inf) is allowed anywhere.
    Problem i seeds on row i of `seed_grids` (an (n, m) array), clipped to
    its interval with duplicates dropped; all seeds are evaluated in one
    call.  A caller whose objective diverges at an endpoint passes grids
    that crowd towards it and keeps the endpoint out of [lo, hi].  The
    best seed's neighbours bracket a golden-section search of the fixed step
    count that shrinks the bracket to 1e-9; ties keep the left interval.
    Each problem reports its best evaluated point (the smallest argument on
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
    steps, a, h, bx, bv = steps[g], a[g], h[g], arg[g], value[g]
    g_args = [p[g, None] for p in row_args]  # gathered once; step k takes [:k]

    def consider(k, x, v):
        better = (v < bv[:k]) | ((v == bv[:k]) & (x < bx[:k]))
        bx[:k], bv[:k] = np.where(better, x, bx[:k]), np.where(better, v, bv[:k])

    t = 0  # the golden steps taken in lockstep
    if g.size > 1:
        c, d = a + _INVPHI2 * h, a + _INVPHI * h
        fc, fd = f(np.stack([c, d], axis=1), g_args).T.copy()
        consider(g.size, c, fc)
        consider(g.size, d, fd)
        t = 1
        while (k := np.count_nonzero(steps > t)) > 1:
            left = fc[:k] <= fd[:k]  # ties keep the left interval -> smaller arguments
            h[:k] *= _INVPHI
            a[:k] = np.where(left, a[:k], c[:k])
            x = a[:k] + np.where(left, _INVPHI2, _INVPHI) * h[:k]
            fx = f(x[:, None], [p[:k] for p in g_args])[:, 0]
            c[:k], d[:k] = np.where(left, x, d[:k]), np.where(left, c[:k], x)
            fc[:k], fd[:k] = np.where(left, fx, fd[:k]), np.where(left, fc[:k], fx)
            consider(k, x, fx)
            t += 1
    if g.size and steps[0] > t:  # one problem left stepping: on floats
        args = [float(p[0, 0]) for p in g_args]

        def f1(x):
            v = float(objective(x, *args))
            return math.inf if v != v else v

        bracket = (float(c[0]), float(d[0]), float(fc[0]), float(fd[0])) if t else None
        bx[0], bv[0] = _search_alone(f1, int(steps[0]) - t, float(a[0]), float(h[0]),
                                     float(bx[0]), float(bv[0]), bracket)
    arg[g], value[g] = bx, bv
    return BatchOptResult(arg, value, evaluations, converged)
