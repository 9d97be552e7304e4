"""Deterministic bounded minimization: grid-seeded golden-section search.

Derivative-free on purpose: the objectives this package minimizes contain
g(W/delta) terms whose derivative is unbounded near the interval edge,
where gradient steps misbehave.  A maximization is the minimization of the
negated objective.  :func:`minimize_batch` runs n problems in lockstep, each
taking exactly the steps it would take alone; :func:`minimize_scalar` is
the batch of one.  Identical inputs give bit-identical results, and on a
plateau the smallest argument wins.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_TOL = 1e-9
DEFAULT_GRID_POINTS = 64


@dataclass(frozen=True)
class ScalarOptResult:
    arg: float
    value: float
    evaluations: int
    converged: bool


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


def minimize_batch(objective, lo, hi, seed_grids) -> BatchOptResult:
    """Minimize n scalar problems, problem i on [lo[i], hi[i]], in lockstep.

    `objective(x, rows)` gets an index array `rows` and points `x` of shape
    (len(rows), j), row r holding points of problem rows[r], and returns
    values of that shape; +inf (or nan, taken as +inf) is allowed anywhere.
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

    def f(x, rows):
        v = np.asarray(objective(x, rows), dtype=float).reshape(x.shape)
        return np.where(np.isnan(v), np.inf, v)

    rows = np.arange(lo.size)
    grid, evaluations = _seed_grids(lo, hi, seed_grids)
    vals = f(grid, rows)
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

    def consider(k, x, v):
        better = (v < bv[:k]) | ((v == bv[:k]) & (x < bx[:k]))
        bx[:k], bv[:k] = np.where(better, x, bx[:k]), np.where(better, v, bv[:k])

    c, d = a + _INVPHI2 * h, a + _INVPHI * h
    fc, fd = f(np.stack([c, d], axis=1), g).T.copy()
    consider(g.size, c, fc)
    consider(g.size, d, fd)
    for t in range(1, steps[0] if g.size else 0):
        k = np.count_nonzero(steps > t)
        left = fc[:k] <= fd[:k]  # ties keep the left interval -> smaller arguments
        h[:k] *= _INVPHI
        a[:k] = np.where(left, a[:k], c[:k])
        x = a[:k] + np.where(left, _INVPHI2, _INVPHI) * h[:k]
        fx = f(x[:, None], g[:k])[:, 0]
        c[:k], d[:k] = np.where(left, x, d[:k]), np.where(left, c[:k], x)
        fc[:k], fd[:k] = np.where(left, fx, fd[:k]), np.where(left, fc[:k], fx)
        consider(k, x, fx)
    arg[g], value[g] = bx, bv
    return BatchOptResult(arg, value, evaluations, converged)


def minimize_scalar(objective, lo: float, hi: float, *, seed_grid=None) -> ScalarOptResult:
    """:func:`minimize_batch` of one problem, with `objective` mapping a
    float to a float, seeded on `seed_grid` or DEFAULT_GRID_POINTS even points."""
    if seed_grid is None:
        seed_grid = np.linspace(float(lo), float(hi), DEFAULT_GRID_POINTS)
    res = minimize_batch(lambda x, rows: [float(objective(float(v))) for v in x.flat],
                         float(lo), float(hi), [seed_grid])
    return ScalarOptResult(float(res.arg[0]), float(res.value[0]),
                           int(res.evaluations[0]), bool(res.converged[0]))
