"""Deterministic bounded minimization: grid-seeded golden-section search.

Derivative-free on purpose: the objectives this package minimizes contain
g(W/delta) terms whose derivative is unbounded near the interval edge,
where gradient steps misbehave.  A maximization is the minimization of the
negated objective.  :func:`minimize_batch` runs n problems in lockstep, each
taking exactly the steps it would take alone.  One set-up serves one
problem and many: it reads each problem's interval and arguments as Python
floats, takes seed rows that are already strictly ascending inside their
intervals (every caller's are) as they are, so that only other rows are
clipped, sorted and deduplicated, and after the one seed call reads each
row's best seed, value and bracket as floats.  One loop steps the arrays
of two or more searching problems together through np.where, each to its
end, and picks each one's best point once after; only a call's lone
search steps in `_golden_floats`, on Python floats, which numpy would run
as 1-element arrays at many times the cost.  The arithmetic is the same on
both, so the bits are.  The objective is elementwise: it gets the points
and each problem's own arguments.  Identical inputs give bit-identical
results, and on a plateau the smallest argument wins.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import _SCALARS, DomainError, _reals

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_TOL = 1e-9


# per-problem results of minimize_batch, each an array of length n
BatchOptResult = namedtuple("BatchOptResult", "arg value evaluations converged")


def _seed_grids(lo, hi, seeds):
    """Each row's distinct seeds in [lo, hi], ascending and padded to the
    longest row's number by repeating the last one, and the list of their
    numbers.  A nan seed raises DomainError."""
    if np.isnan(seeds).any():
        raise DomainError("minimization seeds must not be nan")
    rows = [np.unique(r) for r in np.clip(seeds, lo[:, None], hi[:, None])]
    m = max(map(len, rows))
    return np.array([np.pad(r, (0, m - len(r)), "edge") for r in rows]), [len(r) for r in rows]


def _floats(v, n, name):
    """lo, hi or a row arg, named `name`, as a list of n floats: v is one real
    number that all n problems share, or n real numbers (:func:`errors._reals`)."""
    if isinstance(v, _SCALARS):
        return list(_reals("minimize_batch", name, v)) * n
    v, = _reals("minimize_batch", name, v, arrays=True)
    if v.shape not in ((), (1,), (n,)):
        raise DomainError(f"lo, hi and each row arg take one value or {n}, not shape {v.shape}")
    return v.tolist() if v.shape == (n,) else [v.item()] * n


def _golden_floats(objective, args, n, a, h, bx, bv):
    """The lockstep of :func:`minimize_batch` on one problem's Python floats,
    with its arithmetic and tie rules and so its bits: n steps from the
    bracket [a, a + h] and the best seed (bx, bv), the first evaluating both
    interior points; calls `objective(x, *args)` (nan taken as +inf) and
    returns the best point and value."""
    c, d = a + _INVPHI2 * h, a + _INVPHI * h
    fc, fd = (v if v == v else math.inf for v in (objective(c, *args), objective(d, *args)))
    x, fx = (c, fc) if fc <= fd else (d, fd)
    for _ in range(n - 1):
        if fx < bv or fx == bv and x < bx:
            bx, bv = x, fx
        left = fc <= fd
        h = h * _INVPHI
        a = a if left else c
        x = a + (_INVPHI2 if left else _INVPHI) * h
        fx = objective(x, *args)
        fx = fx if fx == fx else math.inf
        c, d, fc, fd = (x, c, fx, fc) if left else (d, x, fd, fx)
    return (x, fx) if fx < bv or fx == bv and x < bx else (bx, bv)


def minimize_batch(objective, lo, hi, seed_grids, *row_args) -> BatchOptResult:
    """Minimize n scalar problems, problem i on [lo[i], hi[i]], in lockstep.

    `objective(x, *args)` is elementwise in `x` and in `args`, one for each
    of the `row_args` (n floats, problem i's value at index i).  `lo`, `hi`
    or a row arg is n real numbers or one that all problems share; any other
    value, a `seed_grids` that is not an (n, m) array with m >= 1, a
    non-finite bound or lo > hi raises DomainError.  n = 0 gives empty
    results.  Problem i seeds on row i of `seed_grids`.  A row strictly
    ascending inside its interval is taken as it is; only when some row is
    not are the rows clipped to their intervals with duplicates
    dropped (a nan seed raises DomainError before any evaluation; +-inf
    clips to the bounds).  All seeds are evaluated in one call, `x` of
    shape (n, m) and each arg `row_arg[:, None]`, or for one problem (n =
    1) the float `row_arg` under ``np.errstate(over="ignore",
    invalid="ignore")``, so that like its float steps it does not warn.  A
    caller whose objective diverges at an endpoint passes grids that crowd
    towards it and keeps the endpoint out of [lo, hi].  Each row's best
    seed, its value and its bracket, the best seed's neighbours, are read as
    floats; the bracket starts a golden-section search of the fixed step
    count that shrinks it to 1e-9.
    Ties keep the left interval.
    Two or more searching problems are gathered once, longest search first,
    and step together to the end of the longest: while k of them step, `x` has
    shape (k, j), each arg is the gather's first k rows, sliced once each time
    a problem stops, and the objective returns values of `x`'s shape; their
    steps are recorded and each one's best is picked after the loop.  Only a
    call's lone search steps on floats: `x`, its args `row_arg[r]` and the
    value.  +inf (or nan, taken as +inf) is allowed anywhere.  The lockstep
    and `_golden_floats` take the same steps, so a problem gets the bits it
    would get alone.  Each problem reports its best evaluated point (the
    smallest argument on a plateau) and its evaluations; one whose seeds are
    all +inf is non-converged at its first seed.
    """
    seeds = np.asarray(seed_grids, dtype=float)
    if seeds.ndim != 2 or not seeds.shape[1]:
        raise DomainError(f"seed_grids has shape {seeds.shape}, not (n, m) with m >= 1")
    n, m = seeds.shape
    lo, hi = _floats(lo, n, "lo"), _floats(hi, n, "hi")
    row_args = [_floats(p, n, "row_arg") for p in row_args]
    inside = True  # every row's first and last seeds lie in its interval
    for r, l, h in zip(range(n), lo, hi):
        if not -math.inf < l <= h < math.inf:  # false for a nan too
            raise DomainError(f"minimization requires finite lo and hi with lo <= hi; got {l}, {h}")
        inside = inside and l <= seeds.item(r, 0) and seeds.item(r, -1) <= h

    def f(x, args):
        v = np.asarray(objective(x, *args), dtype=float).reshape(x.shape)
        return np.fmin(v, np.inf)  # nan -> inf

    grid, count = seeds, [m] * n
    # rows ascending inside [lo, hi], as every caller's are, have nothing to
    # clip, sort or drop; a nan seed fails a comparison
    if not (inside and np.count_nonzero(seeds[:, 1:] > seeds[:, :-1]) == n * (m - 1)):
        grid, count = _seed_grids(np.array(lo), np.array(hi), seeds)
    if n == 1:  # a lone problem's one array step warns no more than its float steps
        with np.errstate(over="ignore", invalid="ignore"):
            vals = f(grid, [p[0] for p in row_args])
    else:
        vals = f(grid, [np.array(p)[:, None] for p in row_args])
    # each row's best seed (its first minimum: the smallest argument on
    # ties), its value, its bracket (the best seed's neighbours) and the
    # golden-section steps that shrink the bracket to _TOL, on floats
    arg, value, converged, a, b, steps, evaluations = [], [], [], [], [], [], []
    for r, i, c in zip(range(n), vals.argmin(axis=1).tolist(), count):
        value.append(vals.item(r, i))
        converged.append(math.isfinite(value[-1]))
        arg.append(grid.item(r, i if converged[-1] else 0))
        a.append(grid.item(r, i - (i > 0)))
        b.append(grid.item(r, i + (i + 1 < c)))
        h = b[-1] - a[-1] if converged[-1] else 0.0  # a non-converged row does not search
        steps.append(math.ceil(math.log(_TOL / h) / math.log(_INVPHI)) if h > _TOL else 0)
        evaluations.append(c + steps[-1] + 1 if steps[-1] else c)
    res = BatchOptResult(*map(np.array, (arg, value, evaluations, converged)))
    # the searching rows, longest first, so that the active ones are a prefix
    g = sorted((r for r in range(n) if steps[r]), key=steps.__getitem__, reverse=True)
    if len(g) < 2:  # a lone search steps on floats
        for r in g:
            res.arg[r], res.value[r] = _golden_floats(objective, tuple(p[r] for p in row_args),
                                                      steps[r], a[r], b[r] - a[r], arg[r], value[r])
        return res
    steps = [steps[r] for r in g]
    t, k = 1, len(g)  # t golden steps taken, rows [:k] still stepping
    # each row's best seed, then its steps; +inf (never its best) after it stops
    xs, vs = np.full((2, k, steps[0] + 1), np.inf)
    xs[:, 0], vs[:, 0] = res.arg[g], res.value[g]
    a, h = np.array([a[r] for r in g])[:, None], np.array([b[r] - a[r] for r in g])[:, None]
    args = [np.array(p)[g, None] for p in row_args]  # gathered once, sliced as rows stop
    c, d = a + _INVPHI2 * h, a + _INVPHI * h  # step 1 evaluates both in one (k, 2) call
    fc, fd = f(np.hstack((c, d)), args).T[..., None]
    x, fx = np.where(fc <= fd, c, d), np.where(fc <= fd, fc, fd)
    while True:
        xs[:k, t:t + 1], vs[:k, t:t + 1] = x, fx
        if steps[k - 1] == t:  # the last rows stop: slice once
            k = sum(s > t for s in steps)
            if not k:
                break
            a, h, c, d, fc, fd, *args = (v[:k] for v in (a, h, c, d, fc, fd, *args))
        left = fc <= fd  # ties keep the left interval -> smaller arguments
        h, t = h * _INVPHI, t + 1
        a = np.where(left, a, c)
        x = a + np.where(left, _INVPHI2, _INVPHI) * h
        fx = f(x, args)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    # each row's first least (value, argument): the pair a running update keeps
    j = np.where(vs == vs.min(axis=1, keepdims=True), xs, np.inf).argmin(axis=1)
    rows = np.arange(len(g))
    res.arg[g], res.value[g] = xs[rows, j], vs[rows, j]
    return res
