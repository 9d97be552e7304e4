import math

import numpy as np
import pytest

from bosonic_bounds.errors import DomainError
from bosonic_bounds.optimize import minimize_batch, minimize_scalar


def test_quadratic():
    res = minimize_scalar(lambda x: (x - 0.3) ** 2, 0.0, 1.0)
    assert res.converged
    assert res.arg == pytest.approx(0.3, abs=1e-9)
    assert res.value == pytest.approx(0.0, abs=1e-15)


def test_open_endpoint_with_infinity():
    def f(x):
        return math.inf if x <= 0.2 else (x - 0.2)

    lo = 0.2 + 1e-12
    res = minimize_scalar(f, lo, 1.0, seed_grid=np.geomspace(lo, 1.0, 64))
    assert res.arg > 0.2
    assert math.isfinite(res.value)


def test_constant_plateau_tie_break_smallest():
    res = minimize_scalar(lambda x: 1.0, 0.0, 1.0)
    assert res.converged
    assert res.arg == 0.0  # documented plateau tie-break: smallest argument
    assert res.value == 1.0


def test_all_infinite_not_converged():
    res = minimize_scalar(lambda x: math.inf, 0.0, 1.0)
    assert not res.converged
    assert res.value == math.inf


def test_degenerate_interval():
    res = minimize_scalar(lambda x: x * x, 0.5, 0.5)
    assert res.arg == 0.5
    assert res.converged


def test_lo_greater_than_hi():
    with pytest.raises(DomainError):
        minimize_scalar(lambda x: x, 1.0, 0.0)


@pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf),
                                    (-math.inf, 0.0), (math.inf, math.inf)])
def test_non_finite_bounds(lo, hi):
    calls = []
    with pytest.raises(DomainError, match="finite lo and hi"):
        minimize_scalar(lambda x: calls.append(x) or x, lo, hi, seed_grid=np.linspace(0.0, 1.0, 8))
    assert calls == []


def test_non_finite_bound_in_a_batch():
    with pytest.raises(DomainError, match="finite lo and hi"):
        minimize_batch(lambda x, rows: x, [0.0, 0.0], [1.0, math.nan], np.zeros((2, 4)))
    with pytest.raises(DomainError, match="lo <= hi"):  # finite bounds keep their message
        minimize_batch(lambda x, rows: x, [0.0, 2.0], [1.0, 1.0], np.zeros((2, 4)))


@pytest.mark.parametrize("lo, hi, grid", [
    (0.5, 0.5, None), (0.5, 0.5, np.linspace(0.0, 1.0, 16)),
    (0.2, 0.6, np.linspace(0.0, 1.0, 64)), (0.0, 1.0, None)])
def test_one_objective_call_per_evaluation(lo, hi, grid):
    # the seeds of a clipped or collapsed grid are evaluated once each
    calls = []
    res = minimize_scalar(lambda x: calls.append(x) or (x - 0.3) ** 2, lo, hi, seed_grid=grid)
    assert len(calls) == res.evaluations
    assert len(set(calls)) == len(calls)
    if lo == hi:
        assert calls == [0.5]


def test_nan_counts_as_worst():
    res = minimize_scalar(lambda x: math.nan if x > 0.5 else (x - 0.2) ** 2, 0.0, 1.0)
    assert res.converged
    assert res.arg == pytest.approx(0.2, abs=1e-9)
    assert res.value == pytest.approx(0.0, abs=1e-15)


def test_determinism():
    f = lambda x: math.sin(7.0 * x) + 0.3 * x
    a = minimize_scalar(f, 0.0, 3.0)
    b = minimize_scalar(f, 0.0, 3.0)
    assert (a.arg, a.value, a.evaluations) == (b.arg, b.value, b.evaluations)


def test_value_matches_reevaluation():
    f = lambda x: (x - 0.41) ** 4 + 1.0
    res = minimize_scalar(f, 0.0, 1.0)
    assert res.value == pytest.approx(f(res.arg), abs=1e-12)


def test_seed_grid_catches_narrow_feature():
    # narrow dip near zero, like the private-rate objective
    def f(x):
        return -0.001 * math.exp(-((math.log10(x + 1e-300) + 3.0) ** 2)) if x > 0 else 0.0

    coarse = minimize_scalar(f, 0.0, 10.0)
    seeded = minimize_scalar(f, 0.0, 10.0,
                             seed_grid=np.concatenate(([0.0], np.geomspace(1e-12, 10.0, 63))))
    assert seeded.value <= coarse.value
    assert seeded.arg == pytest.approx(1e-3, rel=1e-3)


def test_against_dense_grid_on_penalty_objective():
    from bosonic_bounds import bounds as bnd

    eps, wp, k = 0.2, 5.0, 1
    value, _ = bnd._min_penalty(eps, wp, k)
    grid = np.linspace(eps + 1e-12, 1.0, 10 ** 6)
    dense = float(np.min(bnd._penalty_eval(eps, grid, wp, k)))
    assert value <= dense + 1e-6


# ---------------------------------------------------------------------------
# Lockstep batch against the scalar loop it replaced
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def reference_minimize(objective, lo, hi, seed_grid):
    """The one-problem golden-section loop that minimize_batch replaced, kept
    verbatim as the reference: (arg, value, evaluations, converged)."""
    evaluations = 0

    def f(x):
        nonlocal evaluations
        evaluations += 1
        y = float(objective(x))
        return math.inf if math.isnan(y) else y

    if lo == hi:
        v = f(lo)
        return lo, v, evaluations, math.isfinite(v)
    grid = np.unique(np.clip(np.asarray(seed_grid, dtype=float), lo, hi))
    best_x, best_v = grid[0], math.inf
    vals = np.empty(len(grid))
    for i, x in enumerate(grid):
        vals[i] = v = f(float(x))
        if v < best_v:
            best_x, best_v = float(x), v
    if not math.isfinite(best_v):
        return float(grid[0]), best_v, evaluations, False
    i = int(np.argmin(vals))
    a = float(grid[max(i - 1, 0)])
    b = float(grid[min(i + 1, len(grid) - 1)])

    def consider(x, v):
        nonlocal best_x, best_v
        if v < best_v or (v == best_v and x < best_x):
            best_x, best_v = x, v

    h = b - a
    if h > 1e-9:
        n = int(math.ceil(math.log(1e-9 / h) / math.log(_INVPHI)))
        c = a + _INVPHI2 * h
        d = a + _INVPHI * h
        fc = f(c)
        fd = f(d)
        consider(c, fc)
        consider(d, fd)
        for _ in range(max(n - 1, 0)):
            if fc <= fd:
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
    return best_x, best_v, evaluations, True


def _row_objective(kind, centre, power):
    """One problem of the random batches; `kind` picks its shape."""
    def f(x):
        if kind == 0:
            return abs(x - centre) ** power
        if kind == 1:
            return math.inf
        if kind == 2:
            return math.nan if x > centre else (x - centre + 0.3) ** 2
        if kind == 3:
            return 1.0
        return math.sin(7.0 * x) + 0.3 * x
    return f


def _random_batch(seed, n=12, m=24):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-2.0, 1.0, n)
    hi = lo + rng.choice([0.0, 1e-10, 1e-3, 0.5, 3.0], n)
    fs = [_row_objective(int(k), c, p) for k, c, p in
          zip(rng.integers(0, 5, n), rng.uniform(-2.0, 3.0, n), rng.choice([1, 2, 4], n))]
    grids = rng.uniform(-3.0, 4.0, (n, m))
    grids[0] = np.round(grids[0])  # duplicates: a shorter grid than its neighbours'
    return fs, lo, hi, grids


def _batch(fs, lo, hi, grids):
    def objective(x, rows):
        return [[fs[r](float(v)) for v in row] for row, r in zip(x, rows)]
    return minimize_batch(objective, lo, hi, grids)


def _assert_rows_match(res, fs, lo, hi, grids):
    for i, f in enumerate(fs):
        want = reference_minimize(f, float(lo[i]), float(hi[i]), grids[i])
        got = (float(res.arg[i]), float(res.value[i]), int(res.evaluations[i]),
               bool(res.converged[i]))
        assert got == want, (i, got, want)


@pytest.mark.parametrize("seed", range(40))
def test_batch_matches_scalar_loop_bit_for_bit(seed):
    fs, lo, hi, grids = _random_batch(seed)
    res = _batch(fs, lo, hi, grids)
    _assert_rows_match(res, fs, lo, hi, grids)


def test_batch_edge_rows():
    quad = _row_objective(0, 0.37, 2)
    fs = [quad,                                 # many golden steps
          quad,                                 # lo == hi
          _row_objective(1, 0.0, 1),            # all +inf: non-converged
          _row_objective(2, 0.4, 1),            # nan right of 0.4
          quad,                                 # seeds collapse to 3 points
          _row_objective(0, 0.5, 1)]            # a bracket of 2 seeds only
    lo = np.array([0.0, 0.25, 0.0, 0.0, 0.0, 0.5 - 1e-10])
    hi = np.array([1.0, 0.25, 1.0, 1.0, 1.0, 0.5 + 1e-10])
    grids = np.tile(np.linspace(0.0, 1.0, 16), (6, 1))
    grids[4] = np.repeat([0.0, 0.3, 0.9, 0.9], 4)
    res = _batch(fs, lo, hi, grids)
    _assert_rows_match(res, fs, lo, hi, grids)
    steps = res.evaluations - np.array([16, 1, 16, 16, 3, 2])
    assert len(set(steps[[0, 3, 4, 5]])) > 1  # the rows stop at different steps
    assert (res.evaluations[1], res.arg[1], res.converged[1]) == (1, 0.25, True)
    assert not res.converged[2] and res.value[2] == math.inf and res.arg[2] == 0.0
    assert res.arg[3] == pytest.approx(0.1, abs=1e-8) and res.value[3] < 1e-15


def test_scalar_is_the_batch_of_one():
    fs, lo, hi, grids = _random_batch(7)
    for i, f in enumerate(fs):
        a = minimize_scalar(f, lo[i], hi[i], seed_grid=grids[i])
        assert (a.arg, a.value, a.evaluations, a.converged) == \
            reference_minimize(f, float(lo[i]), float(hi[i]), grids[i])
