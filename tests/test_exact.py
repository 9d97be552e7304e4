"""Closed forms against 50-digit mpmath transcriptions.

Each reference below writes a bound's formula out in mpmath at 50 digits,
from the float inputs exactly as given, so it is the bound's value at those
inputs far below a float's resolution.  A float result must match it by
the benchmark's rule: within 1e-12 relative, or absolute below 1.

The seeded channels draw nb up to 1e2.  From nb of a few hundred the g
kernel's (x+1) ln(x+1) - x ln x loses about 1e-12 bits to cancellation,
which breaks the rule where the bound itself is below 1 bit; the strict
xfail at the end pins such a cell.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from bosonic_bounds import bounds as bnd
from bosonic_bounds import channels as chn

mp.mp.dps = 50
N = 1000  # seeded cells per test


def _mp_g(x):
    """g(x) in bits, g(0) = 0."""
    x = mp.mpf(x)
    return ((x + 1) * mp.log(x + 1) - (x * mp.log(x) if x else 0)) / mp.log(2)


def _mp_plob_thermal(eta, nb):
    eta, nb = mp.mpf(eta), mp.mpf(nb)
    return -mp.log(1 - eta, 2) - nb * mp.log(eta, 2) - _mp_g(nb)


def _mp_plob_amp(g, nb):
    g, nb = mp.mpf(g), mp.mpf(nb)
    return (nb + 1) * mp.log(g, 2) - mp.log(g - 1, 2) - _mp_g(nb)


def _mp_plob_additive(nbar):
    nbar = mp.mpf(nbar)
    return (nbar - 1) / mp.log(2) - mp.log(nbar, 2)


def _mp_rmg(eta, nb):
    eta, nb = mp.mpf(eta), mp.mpf(nb)
    return mp.log((eta - (1 - eta) * nb) / ((1 - eta) * (nb + 1)), 2)


def _close(got, want):
    return abs(got - want) <= 1e-12 * max(1, abs(want))


def _misses(fn, ref, cells):
    """The cells where fn's float result breaks the rule against ref."""
    return [(cell, fn(*cell), float(ref(*cell))) for cell in cells
            if not _close(fn(*cell), ref(*cell))]


def _plob_thermal(eta, nb):
    return bnd.comparison_bounds(chn.thermal(eta, nb), "PLOB_thermal")


def _plob_amp(g, nb):
    return bnd.comparison_bounds(chn.amplifier(g, nb), "PLOB_amp")


def _plob_additive(nbar):
    return bnd.comparison_bounds(chn.additive_noise(nbar), "PLOB_addnoise")


def _nb(rng):
    return 10.0 ** rng.uniform(-6.0, 2.0, N)


def test_plob_thermal_seeded():
    rng = np.random.default_rng(21)
    cells = list(zip(rng.uniform(0.0, 1.0, N).tolist(), _nb(rng).tolist()))
    assert _misses(_plob_thermal, _mp_plob_thermal, cells) == []


def test_plob_amp_seeded():
    rng = np.random.default_rng(22)
    cells = list(zip((1.0 + 10.0 ** rng.uniform(-9.0, 2.0, N)).tolist(), _nb(rng).tolist()))
    assert _misses(_plob_amp, _mp_plob_amp, cells) == []


def test_plob_additive_seeded():
    cells = [(x,) for x in np.random.default_rng(23).uniform(0.0, 1.0, N).tolist()]
    assert _misses(_plob_additive, _mp_plob_additive, cells) == []


# eta ** nb underflows at the first two; g ** (nb + 1) overflows from
# nb = 646 (3 ** 646 is the last power of 3 below the float limit)
@pytest.mark.parametrize("eta, nb", [(0.01, 200.0), (1e-300, 2.0), (1.0 - 1e-9, 0.3),
                                     (1.0 - 1e-9, 0.0), (math.nextafter(1.0, 0.0), 0.5)])
def test_plob_thermal_edges(eta, nb):
    assert _misses(_plob_thermal, _mp_plob_thermal, [(eta, nb)]) == []


@pytest.mark.parametrize("g, nb", [(3.0, 645.0), (3.0, 646.0), (3.0, 700.0), (1.0 + 1e-9, 0.3),
                                   (1.0 + 1e-9, 0.0), (math.nextafter(1.0, 2.0), 0.5)])
def test_plob_amp_edges(g, nb):
    assert _misses(_plob_amp, _mp_plob_amp, [(g, nb)]) == []


@pytest.mark.parametrize("nbar", [1e-9, 1.0 - 1e-9])
def test_plob_additive_edges(nbar):
    assert _misses(_plob_additive, _mp_plob_additive, [(nbar,)]) == []


def _rmg_misses(cells):
    """The cells where RMG's raw bits or its value, max{0, raw}, break the rule."""
    misses = []
    for eta, nb in cells:
        r, want = bnd.evaluate("RMG", chn.thermal(eta, nb), 0.0), _mp_rmg(eta, nb)
        if not (_close(r.raw, want) and _close(r.value, max(0, want))):
            misses.append(((eta, nb), r.raw, float(want)))
    return misses


def test_rmg_seeded():
    rng = np.random.default_rng(24)
    eta, nb = rng.uniform(0.5, 1.0, N), _nb(rng)
    feasible = eta > (1.0 - eta) * nb
    assert feasible.sum() > N // 2
    assert _rmg_misses(zip(eta[feasible].tolist(), nb[feasible].tolist())) == []


@pytest.mark.parametrize("eta, nb", [(1.0 - 1e-9, 0.3), (0.9, 0.0)])
def test_rmg_edges(eta, nb):
    assert _rmg_misses([(eta, nb)]) == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the g kernel's cancellation at nb = 7e2 costs 1e-12 bits")
def test_plob_amp_near_unit_gain_at_large_nb():
    assert _misses(_plob_amp, _mp_plob_amp, [(1.0004415783208491, 703.7091868136355)]) == []
