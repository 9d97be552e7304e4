"""Deterministic bounded scalar minimization.

Grid-seeded golden-section search.  Derivative-free on purpose: the
objectives this package minimizes contain g(W/delta) terms whose derivative
is unbounded near the interval edge, where gradient steps misbehave.  A
maximization is the minimization of the negated objective.

Determinism: identical inputs produce bit-identical results.  Plateau
tie-break: the smallest argument wins (documented, tested).
"""

from __future__ import annotations

import math
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


def minimize_scalar(objective, lo: float, hi: float, *, seed_grid=None) -> ScalarOptResult:
    """Minimize a scalar objective on [lo, hi].

    The seed grid (`seed_grid` clipped to [lo, hi], or DEFAULT_GRID_POINTS
    evenly spaced points) locates a candidate bracket, which golden-section
    search then shrinks to 1e-9.  A caller whose objective diverges at an
    endpoint passes a grid that crowds towards it and keeps the endpoint
    out of [lo, hi].  The objective may return +inf (or nan, treated as
    +inf) anywhere.

    Returns the best evaluated point; on a plateau the smallest argument is
    reported.  If every evaluation is +inf the result is non-converged.
    """
    lo, hi = float(lo), float(hi)
    if lo > hi:
        raise DomainError("minimize_scalar requires lo <= hi")
    evaluations = 0

    def f(x: float) -> float:
        nonlocal evaluations
        evaluations += 1
        y = float(objective(x))
        return math.inf if math.isnan(y) else y

    if lo == hi:
        v = f(lo)
        return ScalarOptResult(lo, v, evaluations, math.isfinite(v))

    if seed_grid is None:
        grid = np.linspace(lo, hi, DEFAULT_GRID_POINTS)
    else:
        grid = np.unique(np.clip(np.asarray(seed_grid, dtype=float), lo, hi))

    best_x, best_v = grid[0], math.inf
    vals = np.empty(len(grid))
    for i, x in enumerate(grid):
        vals[i] = v = f(float(x))
        if v < best_v:
            best_x, best_v = float(x), v
    if not math.isfinite(best_v):
        return ScalarOptResult(float(grid[0]), best_v, evaluations, False)

    i = int(np.argmin(vals))  # first minimum = smallest argument on ties
    a = float(grid[max(i - 1, 0)])
    b = float(grid[min(i + 1, len(grid) - 1)])

    def consider(x: float, v: float):
        nonlocal best_x, best_v
        if v < best_v or (v == best_v and x < best_x):
            best_x, best_v = x, v

    h = b - a
    if h > _TOL:
        n = int(math.ceil(math.log(_TOL / h) / math.log(_INVPHI)))
        c = a + _INVPHI2 * h
        d = a + _INVPHI * h
        fc = f(c)
        fd = f(d)
        consider(c, fc)
        consider(d, fd)
        for _ in range(max(n - 1, 0)):
            if fc <= fd:  # ties keep the left interval -> smaller arguments
                b, d, fd = d, c, fc
                h *= _INVPHI
                c = a + _INVPHI2 * h
                fc = f(c)
                consider(c, fc)
            else:
                a, c, fc = c, d, fd
                h *= _INVPHI
                d = a + _INVPHI * h
                fd = f(d)
                consider(d, fd)
    return ScalarOptResult(best_x, best_v, evaluations, True)
