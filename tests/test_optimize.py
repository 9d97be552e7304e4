import math
import re

import numpy as np
import pytest

from bosonic_bounds.errors import DomainError
from bosonic_bounds.optimize import minimize_batch


def test_quadratic():
    res = _batch([lambda x: (x - 0.3) ** 2], [0.0], [1.0], [np.linspace(0.0, 1.0, 64)])
    assert res.converged[0]
    assert res.arg[0] == pytest.approx(0.3, abs=1e-9)
    assert res.value[0] == pytest.approx(0.0, abs=1e-15)


def test_open_endpoint_with_infinity():
    def f(x):
        return math.inf if x <= 0.2 else (x - 0.2)

    lo = 0.2 + 1e-12
    res = _batch([f], [lo], [1.0], [np.geomspace(lo, 1.0, 64)])
    assert res.arg[0] > 0.2
    assert math.isfinite(res.value[0])


def test_constant_plateau_tie_break_smallest():
    res = _batch([lambda x: 1.0], [0.0], [1.0], [np.linspace(0.0, 1.0, 64)])
    assert res.converged[0]
    assert res.arg[0] == 0.0  # documented plateau tie-break: smallest argument
    assert res.value[0] == 1.0


def test_all_infinite_not_converged():
    res = _batch([lambda x: math.inf], [0.0], [1.0], [np.linspace(0.0, 1.0, 64)])
    assert not res.converged[0]
    assert res.value[0] == math.inf


def test_degenerate_interval():
    res = _batch([lambda x: x * x], [0.5], [0.5], [np.linspace(0.5, 0.5, 64)])
    assert res.arg[0] == 0.5
    assert res.converged[0]


def test_lo_greater_than_hi():
    with pytest.raises(DomainError):
        _batch([lambda x: x], [1.0], [0.0], [np.linspace(1.0, 0.0, 64)])


@pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf),
                                    (-math.inf, 0.0), (math.inf, math.inf)])
def test_non_finite_bounds(lo, hi):
    calls = []
    with pytest.raises(DomainError, match="finite lo and hi"):
        _batch([lambda x: calls.append(x) or x], [lo], [hi], [np.linspace(0.0, 1.0, 8)])
    assert calls == []


@pytest.mark.parametrize("n", [1, 3])
def test_nan_seed_is_a_domain_error(n):
    calls = []
    grids = np.tile([0.1, 0.5, 0.9], (n, 1))
    grids[-1, 0] = math.nan
    with pytest.raises(DomainError, match="seeds must not be nan"):
        minimize_batch(lambda x: calls.append(x) or x, 0.0, 1.0, grids)
    assert calls == []


@pytest.mark.parametrize("n", [1, 3])
def test_infinite_seeds_clip_to_the_bounds(n):
    calls = []
    grids = np.tile([-math.inf, 0.5, math.inf], (n, 1))
    res = minimize_batch(lambda x: calls.append(np.shape(x)) or (x - 0.3) ** 2, 0.0, 1.0, grids)
    assert calls[0] == (n, 3) and (res.evaluations > 3).all()
    assert np.allclose(res.arg, 0.3, atol=1e-9)


@pytest.mark.parametrize("grid", [np.linspace(0.2, 1.0, 64), np.linspace(0.0, 0.6, 64)],
                         ids=["past_hi", "below_lo"])
def test_ascending_seeds_outside_the_interval_are_clipped(grid):
    calls = []
    f = lambda x: calls.append(x) or (x - 0.3) ** 2
    res = _batch([f], [0.2], [0.6], [grid])
    assert calls and all(0.2 <= x <= 0.6 for x in calls)
    calls.clear()
    want = reference_minimize(f, 0.2, 0.6, grid)
    assert (float(res.arg[0]), float(res.value[0]), int(res.evaluations[0])) == want[:3]


def test_non_finite_bound_in_a_batch():
    with pytest.raises(DomainError, match="finite lo and hi"):
        minimize_batch(lambda x: x, [0.0, 0.0], [1.0, math.nan], np.zeros((2, 4)))
    with pytest.raises(DomainError, match="lo <= hi"):  # finite bounds keep their message
        minimize_batch(lambda x: x, [0.0, 2.0], [1.0, 1.0], np.zeros((2, 4)))


# one and two problems: no seeds, a 1-D row, a 3-D array
@pytest.mark.parametrize("shape", [(1, 0), (2, 0), (8,), (16,), (1, 2, 8), (2, 2, 8)],
                         ids=["empty_rows-1", "empty_rows-2", "1d-1", "1d-2", "3d-1", "3d-2"])
def test_malformed_seed_grids_are_a_domain_error(shape):
    calls = []
    with pytest.raises(DomainError, match=re.escape(f"shape {shape}")):
        minimize_batch(lambda x: calls.append(x) or x, 0.0, 1.0, np.zeros(shape))
    assert calls == []


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("where", ["lo", "hi", "arg"])
def test_three_values_for_n_problems_are_a_domain_error(n, where):
    calls, given = [], {"lo": 0.0, "hi": 1.0, "arg": 0.5}
    given[where] = np.full(3, given[where])
    with pytest.raises(DomainError, match=rf"one value or {n}, not shape \(3,\)"):
        minimize_batch(lambda x, c: calls.append(x) or (x - c) ** 2, given["lo"], given["hi"],
                       np.tile(np.linspace(0.0, 1.0, 8), (n, 1)), given["arg"])
    assert calls == []


def test_no_problems_give_empty_results():
    for lo in (0.0, np.zeros(0)):
        res = minimize_batch(lambda x, c: (x - c) ** 2, lo, 1.0, np.zeros((0, 4)), np.zeros(0))
        assert [v.shape for v in res] == [(0,)] * 4


@pytest.mark.parametrize("lo, hi, grid", [
    (0.5, 0.5, None), (0.5, 0.5, np.linspace(0.0, 1.0, 16)),
    (0.2, 0.6, np.linspace(0.0, 1.0, 64)), (0.0, 1.0, None)])
def test_one_objective_call_per_evaluation(lo, hi, grid):
    # the seeds of a clipped or collapsed grid are evaluated once each
    calls = []
    grid = np.linspace(lo, hi, 64) if grid is None else grid
    res = _batch([lambda x: calls.append(x) or (x - 0.3) ** 2], [lo], [hi], [grid])
    assert len(calls) == res.evaluations[0]
    assert len(set(calls)) == len(calls)
    if lo == hi:
        assert calls == [0.5]


def test_nan_counts_as_worst():
    res = _batch([lambda x: math.nan if x > 0.5 else (x - 0.2) ** 2], [0.0], [1.0],
                 [np.linspace(0.0, 1.0, 64)])
    assert res.converged[0]
    assert res.arg[0] == pytest.approx(0.2, abs=1e-9)
    assert res.value[0] == pytest.approx(0.0, abs=1e-15)


def test_determinism():
    f = lambda x: math.sin(7.0 * x) + 0.3 * x
    a = _batch([f], [0.0], [3.0], [np.linspace(0.0, 3.0, 64)])
    b = _batch([f], [0.0], [3.0], [np.linspace(0.0, 3.0, 64)])
    assert (a.arg[0], a.value[0], a.evaluations[0]) == (b.arg[0], b.value[0], b.evaluations[0])


def test_value_matches_reevaluation():
    f = lambda x: (x - 0.41) ** 4 + 1.0
    res = _batch([f], [0.0], [1.0], [np.linspace(0.0, 1.0, 64)])
    assert res.value[0] == pytest.approx(f(res.arg[0]), abs=1e-12)


def test_seed_grid_catches_narrow_feature():
    # narrow dip near zero, like the private-rate objective
    def f(x):
        return -0.001 * math.exp(-((math.log10(x + 1e-300) + 3.0) ** 2)) if x > 0 else 0.0

    coarse = _batch([f], [0.0], [10.0], [np.linspace(0.0, 10.0, 64)])
    seeded = _batch([f], [0.0], [10.0], [np.concatenate(([0.0], np.geomspace(1e-12, 10.0, 63)))])
    assert seeded.value[0] <= coarse.value[0]
    assert seeded.arg[0] == pytest.approx(1e-3, rel=1e-3)


def test_against_dense_grid_on_penalty_objective():
    from bosonic_bounds import bounds as bnd

    eps, wp, k = 0.2, 5.0, 1
    value, _ = bnd._min_penalty(eps, wp, k)
    grid = np.linspace(eps + 1e-12, 1.0, 10 ** 6)
    dense = float(np.min(bnd._penalty_eval(grid, eps, wp, k)))
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
        if kind == 5:
            return math.floor(abs(x - centre))
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
    # problem i's objective is fs[i]; i rides along as its row argument
    objective = np.frompyfunc(lambda x, i: fs[int(i)](x), 2, 1)
    return minimize_batch(objective, lo, hi, grids, np.arange(len(fs)))


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
    for i in range(len(fs)):  # each row as a batch of one: it steps alone on floats
        one = slice(i, i + 1)
        _assert_rows_match(_batch(fs[one], lo[one], hi[one], grids[one]),
                           fs[one], lo[one], hi[one], grids[one])


def test_batch_edge_rows():
    quad = _row_objective(0, 0.37, 2)
    fs = [quad,                                 # many golden steps
          quad,                                 # lo == hi
          _row_objective(1, 0.0, 1),            # all +inf: non-converged
          _row_objective(2, 0.4, 1),            # nan right of 0.4
          quad,                                 # seeds collapse to 3 points
          _row_objective(0, 0.5, 1),            # a bracket of 2 seeds only
          _row_objective(5, 71631989.61636624, 1)]  # a bracket narrower than the float spacing
    lo = np.array([0.0, 0.25, 0.0, 0.0, 0.0, 0.5 - 1e-10, 60827750.47739763])
    hi = np.array([1.0, 0.25, 1.0, 1.0, 1.0, 0.5 + 1e-10, 75463598.16977936])
    grids = np.tile(np.linspace(0.0, 1.0, 16), (7, 1))
    grids[4] = np.repeat([0.0, 0.3, 0.9, 0.9], 4)
    grids[6] = np.linspace(lo[6], hi[6], 16)
    res = _batch(fs, lo, hi, grids)
    _assert_rows_match(res, fs, lo, hi, grids)
    for i in range(len(fs)):  # each row as a batch of one
        one = slice(i, i + 1)
        _assert_rows_match(_batch(fs[one], lo[one], hi[one], grids[one]),
                           fs[one], lo[one], hi[one], grids[one])
    steps = res.evaluations - np.array([16, 1, 16, 16, 3, 2, 16])
    assert len(set(steps[[0, 3, 4, 5]])) > 1  # the rows stop at different steps
    assert (res.evaluations[1], res.arg[1], res.converged[1]) == (1, 0.25, True)
    assert not res.converged[2] and res.value[2] == math.inf and res.arg[2] == 0.0
    assert res.arg[3] == pytest.approx(0.1, abs=1e-8) and res.value[3] < 1e-15
    # the best point is tracked per step: the final bracket would give ...627
    assert (res.arg[6], res.value[6], res.evaluations[6]) == (71631988.61636625, 0.0, 91)


# ---------------------------------------------------------------------------
# Broadcast contract: lo, hi and row_args as one float for all problems
# ---------------------------------------------------------------------------

def _shifted_quadratic(x, centre, scale):
    # elementwise on arrays and on floats alike: no ** (Python's pow is not x * x)
    return scale * (x - centre) * (x - centre) + np.sin(5.0 * x)


def _assert_matches_reference(res, lo, hi, grids, centre, scale):
    n = len(grids)
    lo, hi, centre, scale = (np.broadcast_to(v, (n,)) for v in (lo, hi, centre, scale))
    for i in range(n):
        want = reference_minimize(lambda x: _shifted_quadratic(x, centre[i], scale[i]),
                                  float(lo[i]), float(hi[i]), grids[i])
        got = (float(res.arg[i]), float(res.value[i]), int(res.evaluations[i]),
               bool(res.converged[i]))
        assert got == want, (i, got, want)


@pytest.mark.parametrize("n", [1, 5])
def test_scalar_lo_with_array_hi(n):
    # the displaced-thermal call: lo = 0 for every problem, hi = ns
    rng = np.random.default_rng(31)
    hi = rng.uniform(0.5, 4.0, n)
    grids = np.hstack((np.zeros((n, 1)), np.geomspace(1e-6, hi, 15, axis=1)))
    centre, scale = rng.uniform(0.0, 3.0, n), rng.uniform(0.5, 2.0, n)
    res = minimize_batch(_shifted_quadratic, 0.0, hi, grids, centre, scale)
    assert res.arg.shape == (n,)
    _assert_matches_reference(res, 0.0, hi, grids, centre, scale)


@pytest.mark.parametrize("n", [1, 5])
def test_array_lo_with_scalar_hi(n):
    # the penalty's call: lo = eps + 1e-12 per problem, hi = 1
    rng = np.random.default_rng(32)
    lo = rng.uniform(0.0, 0.9, n)
    grids = np.geomspace(lo, 1.0, 16, axis=1)
    centre, scale = rng.uniform(0.0, 1.0, n), rng.uniform(0.5, 2.0, n)
    res = minimize_batch(_shifted_quadratic, lo, 1.0, grids, centre, scale)
    assert res.arg.shape == (n,)
    _assert_matches_reference(res, lo, 1.0, grids, centre, scale)


@pytest.mark.parametrize("n", [1, 5])
def test_zero_dimensional_row_args(n):
    rng = np.random.default_rng(33)
    lo = rng.uniform(-1.0, 0.0, n)
    hi = lo + rng.uniform(0.5, 2.0, n)
    grids = np.linspace(lo, hi, 12, axis=1)
    centre = rng.uniform(-1.0, 1.0, n)
    res = minimize_batch(_shifted_quadratic, lo, hi, grids, centre, np.float64(1.5))
    _assert_matches_reference(res, lo, hi, grids, centre, 1.5)
    res = minimize_batch(_shifted_quadratic, lo, hi, grids, 0.25, np.asarray(1.5))
    _assert_matches_reference(res, lo, hi, grids, 0.25, 1.5)


@pytest.mark.parametrize("hi", [math.inf, math.nan, [1.0, math.inf]])
def test_non_finite_hi_with_scalar_lo(hi):
    calls = []
    with pytest.raises(DomainError, match="finite lo and hi"):
        minimize_batch(lambda x: calls.append(x) or x, 0.0, hi, np.zeros((np.size(hi), 4)))
    assert calls == []


# ---------------------------------------------------------------------------
# Searches of one, two and three golden steps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("width, steps", [(1.5e-9, 1), (2.5e-9, 2), (4e-9, 3)])
def test_short_searches_match_scalar_loop(width, steps):
    """A bracket of `width` takes `steps` golden steps, the first of which
    evaluates both interior points.  Alone, the search steps on floats;
    beside a longer row, in the lockstep.  Both match the reference loop bit
    for bit, evaluations included."""
    assert math.ceil(math.log(1e-9 / width) / math.log(_INVPHI)) == steps
    grid = [0.0, 0.4 * width, width]  # the best seed's neighbours: [0, width]
    want = reference_minimize(lambda x: abs(x - 0.37 * width), 0.0, width, grid)
    assert want[2] == len(grid) + steps + 1
    shapes = []

    def f(x, centre):
        shapes.append(np.shape(x))
        return abs(x - centre)

    alone = minimize_batch(f, 0.0, width, [grid], 0.37 * width)
    assert shapes == [(1, 3)] + [()] * (steps + 1)
    both = minimize_batch(f, 0.0, [width, 1.0], [grid, [0.0, 0.5, 1.0]], [0.37 * width, 0.6])
    for res in (alone, both):
        assert (float(res.arg[0]), float(res.value[0]), int(res.evaluations[0]),
                bool(res.converged[0])) == want
    longer = reference_minimize(lambda x: abs(x - 0.6), 0.0, 1.0, [0.0, 0.5, 1.0])
    assert (float(both.arg[1]), float(both.value[1]), int(both.evaluations[1]),
            bool(both.converged[1])) == longer
    assert longer[2] > want[2]
