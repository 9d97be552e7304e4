"""Bit parity of the batched kernels' shortcuts with the paths they replace.

The figure columns build every row's seed grid in one call and skip the
masks of `_g_nats` and `_penalty_eval` when nothing is masked.  Each
shortcut must give the bits of the one-row or masked path, compared by
`float.hex`.
"""

import math

import numpy as np
import pytest

from bosonic_bounds import bounds as bnd
from bosonic_bounds import gaussian_core as gc


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _per_row(start, stop, num):
    return np.array([np.geomspace(a, b, num) for a, b in np.broadcast(start, stop)])


# Do not "simplify" _geomspace_rows to np.geomspace(start, stop, num, axis=1):
# once any row has zero width, numpy's linspace sees `any_step_zero` and
# computes every row as (arange / div) * delta, which rounds differently
# from the one-row path.  The zero-width rows below are the ones the bounds
# make: lo == hi == 1.0 in the penalty's eps' search, and PL at ns <= 1e-12.
@pytest.mark.parametrize("num", [64, 63])
def test_seed_rows_match_geomspace_per_row(num):
    rng = np.random.default_rng(11)
    start, stop = 10.0 ** rng.uniform(-14.0, 4.0, (2, 2000))
    got = bnd._geomspace_rows(start, stop, num)
    assert got.shape == (2000, num)
    assert _hex(got) == _hex(_per_row(start, stop, num))


@pytest.mark.parametrize("num", [64, 63])
def test_seed_rows_with_a_shared_stop(num):
    lo = np.minimum(np.random.default_rng(12).uniform(0.0, 1.0, 500) + 1e-12, 1.0)
    assert _hex(bnd._geomspace_rows(lo, 1.0, num)) == _hex(_per_row(lo, 1.0, num))


def test_seed_rows_mixed_with_zero_width_rows():
    ns = np.array([3.0, 1e-13, 0.01, 500.0])
    starts = np.concatenate(([0.2 + 1e-12, 1.0, 0.75], np.minimum(1e-12, ns)))
    stops = np.concatenate(([1.0, 1.0, 1.0], ns))
    for num in (64, 63):
        got = bnd._geomspace_rows(starts, stops, num)
        assert _hex(got) == _hex(_per_row(starts, stops, num))
    assert (got[1] == 1.0).all() and (got[4] == 1e-13).all()


def test_g_nats_unmasked_matches_masked():
    above = np.concatenate(([gc._G_SERIES_CUTOFF, np.nextafter(gc._G_SERIES_CUTOFF, 1.0)],
                            np.geomspace(2e-8, 1e15, 997)))
    below = [0.0, 5e-324, np.nextafter(gc._G_SERIES_CUTOFF, 0.0)]
    mixed = gc._g_nats(np.concatenate((below, above)))
    assert mixed[0] == 0.0 and 0.0 < mixed[1] < mixed[2]  # the series branch
    for shape in ((above.size,), (above.size, 1)):
        assert _hex(gc._g_nats(above.reshape(shape))) == _hex(mixed[len(below):])


def test_penalty_unmasked_matches_masked():
    rng = np.random.default_rng(13)
    eps = rng.uniform(0.0, 0.9, 300)
    e = eps + (1.0 - eps) * rng.uniform(1e-6, 1.0, 300)
    w_prime, k = 10.0 ** rng.uniform(-2.0, 3.0, 300), rng.integers(1, 5, 300).astype(float)
    inside = bnd._penalty_eval(eps[:, None], e[:, None], w_prime[:, None], k[:, None])
    # one point at e = eps (delta = 0) masks the whole evaluation
    mixed = bnd._penalty_eval(*(np.append(v, v0)[:, None]
                                for v, v0 in ((eps, 0.4), (e, 0.4), (w_prime, 1.0), (k, 1.0))))
    assert np.isfinite(inside).all()
    assert _hex(inside) == _hex(mixed[:-1])
    assert mixed[-1, 0] == math.inf
