import math

import numpy as np
import pytest

from bosonic_bounds.errors import DomainError
from bosonic_bounds.optimize import minimize_scalar


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
