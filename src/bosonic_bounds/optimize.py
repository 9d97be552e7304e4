"""Deterministic bounded minimization: grid-seeded golden-section search.

Derivative-free on purpose: the objectives this package minimizes contain
g(W/delta) terms whose derivative is unbounded near the interval edge,
where gradient steps misbehave.  A maximization is the minimization of the
negated objective.  :func:`minimize_batch` runs n problems in lockstep, each
taking exactly the steps it would take alone.  One function, `_golden`,
takes every golden-section step: on arrays through np.where while several
problems step together, and on Python floats once one problem steps alone,
which numpy would otherwise run as 1-element arrays at many times the cost.
The arithmetic is the same on both, so the bits are.  A lone problem (n =
1, a one-cell bound) sets up on Python floats: its interval check, its
seeds' check (a row already ascending inside [lo, hi] skips the clip, sort
and dedup), its args, and its best seed and bracket, three elements read
from the row; besides its one seed call, numpy runs only one comparison of
the row with itself shifted and one argmin.  The objective is
elementwise: it gets the points and each problem's own
arguments.  Identical inputs give bit-identical results, and on a plateau
the smallest argument wins.
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


def _seed_grids(lo, hi, seeds):
    """Each row's distinct seeds in [lo, hi], ascending and padded to the
    longest row's number by repeating the last one, and their number.  A
    nan seed raises DomainError."""
    if np.isnan(seeds).any():
        raise DomainError("minimization seeds must not be nan")
    s = np.sort(np.clip(seeds, lo[..., None], hi[..., None]), axis=1)
    new = np.ones(s.shape, dtype=bool)
    new[:, 1:] = s[:, 1:] != s[:, :-1]
    if new.all():  # no row repeats a seed: nothing to drop
        return s, np.full(len(s), s.shape[1])
    count = new.sum(axis=1)
    first = np.argsort(~new, axis=1, kind="stable")  # distinct points first, in order
    pad = np.minimum(np.arange(count.max()), count[:, None] - 1)
    return np.take_along_axis(s, np.take_along_axis(first, pad, axis=1), axis=1), count


def _check_interval(finite, ordered):
    if not finite:
        raise DomainError("minimization requires finite lo and hi")
    if not ordered:
        raise DomainError("minimization requires lo <= hi")


def _float(v):
    """One problem's lo, hi or arg (a number or a 1-element array) as a float."""
    return float(v) if isinstance(v, (float, int)) else np.asarray(v, dtype=float).item()


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
    `lo`, `hi` or a row arg may be one float that all problems share; a row
    arg is broadcast only when its shape is not (n,).  Problem i seeds on
    row i of `seed_grids` (an (n, m) array), clipped to its interval with
    duplicates dropped (a nan seed raises DomainError before any
    evaluation; +-inf clips to the bounds); all seeds are evaluated in one
    call, `x` of shape (n, m) and each arg `row_arg[:, None]`, or for one
    problem (n = 1) the float `row_arg`.  A caller whose objective diverges
    at an endpoint passes grids that crowd towards it and keeps the
    endpoint out of [lo, hi].  The best seed's neighbours bracket a
    golden-section search of the fixed step count that shrinks the bracket
    to 1e-9; all brackets and step counts take a fixed number of numpy
    calls, whatever n is, and none for one problem.  Ties keep the left
    interval.
    Two or more searching problems are gathered once, longest search first;
    while k of them step together, `x` has shape (k, j), each arg is the
    gather's first k rows, sliced once each time a problem stops, and the
    objective returns values of `x`'s shape.  A problem searching alone
    steps on floats from its first step, the lockstep's last one after it:
    `x` and the args `row_arg[r]` are floats, and so is the value.  +inf
    (or nan, taken as +inf) is allowed anywhere.  Every step runs in
    `_golden`, so a problem gets the bits it would get alone.  Each problem
    reports its best evaluated point (the smallest argument on a plateau)
    and its evaluations; one whose seeds are all +inf is non-converged at
    its first seed point.  A non-finite bound or lo > hi raises DomainError.
    """
    seeds = np.asarray(seed_grids, dtype=float)
    n = len(seeds)

    def f(x, args):
        v = np.asarray(objective(x, *args), dtype=float).reshape(x.shape)
        return np.fmin(v, np.inf)  # nan -> inf

    if n == 1:  # one problem: its interval, seeds, args and best seed on floats
        lo, hi = _float(lo), _float(hi)
        _check_interval(math.isfinite(lo) and math.isfinite(hi), lo <= hi)
        grid, m = seeds, seeds.shape[1]
        # a row ascending inside [lo, hi] has nothing to clip, sort or drop
        if not (lo <= grid.item(0) and grid.item(-1) <= hi
                and np.count_nonzero(grid[0, 1:] > grid[0, :-1]) == m - 1):
            grid = _seed_grids(np.asarray(lo), np.asarray(hi), seeds)[0]
            m = grid.shape[1]
        args = [_float(p) for p in row_args]
        vals = f(grid, args)
        i = int(vals.argmin())  # first minimum = smallest argument on ties
        value = vals.item(i)
        count, converged = [m], [math.isfinite(value)]
        arg, value = [grid.item(i if converged[0] else 0)], [value]
        a, b = [grid.item(i - (i > 0))], [grid.item(i + (i + 1 < m))]
        row_args = [(p,) for p in args]  # read as a batch's are: row_arg[r]
    else:
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        _check_interval(np.isfinite(lo).all() and np.isfinite(hi).all(), not (lo > hi).any())
        grid, count = _seed_grids(lo, hi, seeds)
        m = grid.shape[1]
        row_args = [np.asarray(p, dtype=float) for p in row_args]
        row_args = [p if p.shape == (n,) else np.broadcast_to(p, (n,)) for p in row_args]
        vals = f(grid, [p[:, None] for p in row_args])
        i = vals.argmin(axis=1)  # first minimum = smallest argument on ties
        j = i + np.arange(0, n * m, m)  # its flat index
        value = vals.take(j)
        converged = np.isfinite(value)
        arg = np.where(converged, grid.take(j), grid[:, 0])
        # each row's bracket, the best seed's neighbours, on floats
        a, b = grid.take(j - (i > 0)).tolist(), grid.take(j + (i + 1 < count)).tolist()
        count, converged = count.tolist(), converged.tolist()
    steps = [math.ceil(math.log(_TOL / (br - ar)) / math.log(_INVPHI)) if ok and br - ar > _TOL
             else 0 for ok, ar, br in zip(converged, a, b)]
    evaluations = [c + s + 1 if s else c for c, s in zip(count, steps)]
    # the searching rows, longest first, so that the active ones are a prefix
    g = sorted((r for r in range(n) if steps[r]), key=lambda r: -steps[r])
    steps = [steps[r] for r in g]
    t, k, state = 1, len(g), None  # t golden steps taken, k rows still stepping
    if k > 1:
        a, h = np.array([a[r] for r in g]), np.array([b[r] - a[r] for r in g])
        g_args = [p[g, None] for p in row_args]  # gathered once; a segment takes [:k]
        state = (a, h, a + _INVPHI2 * h, a + _INVPHI * h)  # step 1 evaluates both c and d
        state += (*f(np.stack(state[2:], axis=1), g_args).T, arg[g], value[g])
    while k > 1:  # rows [:k] step together until row k - 1 stops
        args = [p[:k] for p in g_args]
        state = _golden(lambda x: f(x[:, None], args)[:, 0], np.where, steps[k - 1] - t,
                        *(v[:k] for v in state))
        arg[g[:k]], value[g[:k]] = state[6:]
        t = steps[k - 1]
        k = sum(s > t for s in steps)
    if k == 1:  # one row stepping: alone from the start, or the lockstep's last; on floats
        r = g[0]
        args = [float(p[r]) for p in row_args]

        def f1(x):
            v = float(objective(x, *args))
            return math.inf if v != v else v

        if state is None:  # step 1 evaluates both c and d
            h = b[r] - a[r]
            s = [a[r], h, a[r] + _INVPHI2 * h, a[r] + _INVPHI * h]
            s += [f1(s[2]), f1(s[3]), float(arg[r]), float(value[r])]
        else:
            s = [float(v[0]) for v in state]
        arg[r], value[r] = _golden(f1, _pick, steps[0] - t, *s)[6:]
    return BatchOptResult(np.asarray(arg), np.asarray(value), np.array(evaluations),
                          np.array(converged))
