"""Bit parity of the batched kernels' shortcuts with the paths they replace.

The figure columns build every row's seed grid in one call and skip the
masks of `_g_nats` when nothing is masked, and a lone
search evaluates its objective on Python floats.  Each shortcut must give
the bits of the one-row, masked or array path, compared by `float.hex`.
So must every closed form on Python floats against its element of the
stacked form, and every one-cell query against the same cell in a column.
"""

import math
import warnings

import numpy as np
import pytest

from bosonic_bounds import bounds as bnd
from bosonic_bounds import channels as chn
from bosonic_bounds import gaussian_core as gc
from bosonic_bounds.errors import BosonicBoundsError, DomainError


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


# ---------------------------------------------------------------------------
# One point on Python floats against its element of an (n, 1) array
# ---------------------------------------------------------------------------

# The optimizer's lone search calls the objectives on floats.  They keep
# numpy for every log, and run +, -, *, /, sqrt and abs on Python floats,
# which round as np.float64 does: each float must be the array's element.

def _float_hex(fn, columns):
    """fn at each row of `columns` on Python floats, each a float, by hex."""
    out = []
    for row in zip(*(c.tolist() for c in columns)):
        v = fn(*row)
        assert type(v) is float, (row, type(v))
        out.append(v.hex())
    return out


def _thermal_points(rng, n):
    """eta in (0, 1] with the lossless end, nb and ns from 0 through 1e12,
    some small enough to put a g argument below the series cutoff."""
    eta = np.concatenate(([1.0, 0.5, 1e-3], rng.uniform(1e-3, 1.0, n - 3)))
    nb = np.where(rng.uniform(size=n) < 0.1, 0.0, 10.0 ** rng.uniform(-14.0, 3.0, n))
    ns = np.where(rng.uniform(size=n) < 0.05, 0.0, 10.0 ** rng.uniform(-14.0, 12.0, n))
    return eta, nb, ns


def test_penalty_float_matches_array_element():
    rng = np.random.default_rng(14)
    n = 3000
    eps = np.where(rng.uniform(size=n) < 0.1, 0.0, rng.uniform(0.0, 0.99, n))
    # every e above eps, as every caller keeps it, some by one ulp; tiny
    # deltas and tiny W' put W'/delta, and tiny e put e, below the series cutoff
    e = np.maximum(eps + (1.0 - eps) * 10.0 ** rng.uniform(-15.0, 0.0, n), np.nextafter(eps, 1.0))
    e[:3] = [1e-10, 1e-9, 1.0]
    eps[:3] = [0.0, 0.0, 0.5]
    w_prime = np.where(rng.uniform(size=n) < 0.1, 10.0 ** rng.uniform(-20.0, -9.0, n),
                       10.0 ** rng.uniform(-2.0, 12.0, n))
    k = rng.integers(1, 5, n).astype(float)
    cols = (e, eps, w_prime, k)
    assert (e > eps).all()
    got = _float_hex(bnd._penalty_eval, cols)
    stacked = bnd._penalty_eval(*(c[:, None] for c in cols))
    assert np.isfinite(stacked).all() and got == _hex(stacked)
    delta = (e - eps) / (1.0 + e)
    assert (w_prime / delta).min() < gc._G_SERIES_CUTOFF > e.min()


def test_ql_thermal_float_matches_array_element():
    eta, nb, ns = _thermal_points(np.random.default_rng(15), 3000)
    got = _float_hex(bnd._ql_thermal_raw, (eta, nb, ns))
    assert got == _hex(bnd._ql_thermal_raw(eta[:, None], nb[:, None], ns[:, None]))
    assert ns.max() > 1e11 and (ns == 0.0).any() and (nb == 0.0).any()
    out = eta * ns + (1.0 - eta) * nb
    assert ((0.0 < out) & (out < gc._G_SERIES_CUTOFF)).any()  # g's series branch


def test_private_loss_float_matches_array_element():
    rng = np.random.default_rng(16)
    eta, nb, ns = _thermal_points(rng, 3000)
    n2 = ns * np.where(rng.uniform(size=ns.size) < 0.1, 1.0, 10.0 ** rng.uniform(-15.0, 0.0, ns.size))
    icns = bnd._ql_thermal_raw(eta, nb, ns)
    cols = (n2, icns, eta, nb)
    got = _float_hex(bnd._private_loss, cols)
    assert got == _hex(bnd._private_loss(*(c[:, None] for c in cols)))


# ---------------------------------------------------------------------------
# PLOB: one cell against its element of the stacked registry form
# ---------------------------------------------------------------------------

_PLOB = {"thermal": (chn.thermal, "PLOB_thermal"), "amplifier": (chn.amplifier, "PLOB_amp"),
         "additive": (chn.additive_noise, "PLOB_addnoise")}


def _plob_params(kind, rng, n):
    """2000 cells of `kind` with its ends: eta = 1 and where eta ** nb
    underflows, g = 1 and where g ** (nb + 1) overflows, nbar near 0 and 1."""
    nb = np.where(rng.uniform(size=n) < 0.1, 0.0, 10.0 ** rng.uniform(-14.0, 3.0, n))
    if kind == "thermal":
        eta = np.concatenate(([1.0, 1e-300, 0.01, 1.0 - 1e-9], rng.uniform(0.0, 1.0, n - 4)))
        return eta, np.concatenate(([0.5, 2.0, 200.0, 0.3], nb[4:]))
    if kind == "amplifier":
        g = np.concatenate(([1.0, 3.0, 3.0, 1.0 + 1e-9], 1.0 + 10.0 ** rng.uniform(-12.0, 3.0, n - 4)))
        return g, np.concatenate(([0.5, 646.0, 700.0, 0.3], nb[4:]))
    return (np.concatenate(([1e-9, 1.0 - 1e-9], rng.uniform(0.0, 1.0, n - 2))),)


@pytest.mark.parametrize("kind", ["thermal", "amplifier", "additive"])
def test_plob_one_cell_matches_stacked_form(kind):
    n = 2000
    params = _plob_params(kind, np.random.default_rng(17), n)
    make, name = _PLOB[kind]
    stacked = bnd.REGISTRY["PLOB"].forms[kind].fn(*params, np.zeros(n))
    one = [bnd.comparison_bounds(make(*p), name) for p in zip(*(c.tolist() for c in params))]
    assert [v.hex() for v in one] == _hex(stacked)
    assert np.isfinite(stacked[1:]).all()


@pytest.mark.parametrize("kind, finite", [("thermal", 0.5), ("amplifier", 2.0)])
def test_plob_lossless_and_noiseless_are_inf_without_a_warning(kind, finite):
    make, name = _PLOB[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = bnd.comparison_bounds(make(1.0, 0.5), name)
        stacked = bnd.REGISTRY["PLOB"].forms[kind].fn(np.array([1.0, finite]), np.full(2, 0.5),
                                                      np.zeros(2))
    assert one == stacked[0] == math.inf and np.isfinite(stacked[1])


# ---------------------------------------------------------------------------
# Each closed form on floats against its element of the stacked form
# ---------------------------------------------------------------------------

def _gains(rng, n):
    """g >= 1 with g = 1 and 1 + 1 ulp, up to 1e3."""
    return np.concatenate(([1.0, math.nextafter(1.0, 2.0)], 1.0 + 10.0 ** rng.uniform(-12.0, 3.0, n - 2)))


def _feasible_amp(rng, n):
    """g and nb with (g - 1) nb < 1, g = 1 and nb = 0 among them."""
    g = _gains(rng, n)
    nb = np.where(rng.uniform(size=n) < 0.1, 0.0, rng.uniform(0.0, 1.0, n) / np.maximum(g - 1.0, 1e-3))
    return g, np.where((g - 1.0) * nb < 1.0, nb, 0.0)


def _unit(rng, n):
    """nbar in (0, 1) with its ends."""
    return np.concatenate(([1e-9, 1.0 - 1e-9], rng.uniform(0.0, 1.0, n - 2)))


def _form_cases():
    """(name, form, its 2000 seeded argument columns), each inside the
    form's domain: the cells that pass its kind's checks."""
    rng = np.random.default_rng(18)
    n = 2000
    eta, nb, ns = _thermal_points(rng, n)
    half = 0.5 + 0.5 * (eta - eta.min()) / (eta.max() - eta.min())  # [1/2, 1], both ends
    g, nb_amp = _feasible_amp(rng, n)
    nbar, zeros = _unit(rng, n), np.zeros(n)
    rmg = eta > (1.0 - eta) * nb
    den = np.where(rng.uniform(size=n) < 0.1, 0.0, 10.0 ** rng.uniform(-150.0, 150.0, n))
    qu1, qu4 = bnd.REGISTRY["QU1"].forms, bnd.REGISTRY["QU4"].forms
    return [
        ("ud_thermal", bnd._ud_thermal_raw, (half, nb, ns)),
        ("ud_amp", bnd._ud_amp_raw, (g[1:], nb_amp[1:], ns[1:])),  # g > 1
        ("log2_ratio", bnd._log2_ratio, (10.0 ** rng.uniform(-150.0, 150.0, n), den)),
        ("plob_thermal", bnd._plob_thermal, (eta, nb, zeros)),
        ("plob_amp", bnd._plob_amp, (_gains(rng, n), nb, zeros)),
        ("plob_additive", bnd._plob_additive, (nbar, zeros)),
        ("rmg", bnd._rmg_thermal, (eta[rmg], nb[rmg])),
        ("qu1_limit_thermal", qu1["thermal"].limit, (half, nb)),
        ("qu1_limit_amp", qu1["amplifier"].limit, (g, nb_amp)),
        ("qu1_limit_additive", qu1["additive"].limit, (nbar,)),
        ("qu4_limit_thermal", qu4["thermal"].limit, (eta[rmg], nb[rmg])),
        ("qu4_limit_additive", qu4["additive"].limit, (nbar,)),
        ("eps_degradable", chn._eps_degradable,
         (np.concatenate((half, g)), np.concatenate((nb, nb_amp)))),
    ]


@pytest.mark.parametrize("name, form, cols", _form_cases(), ids=[c[0] for c in _form_cases()])
def test_form_float_matches_array_element(name, form, cols):
    got = _float_hex(form, cols)
    assert got == _hex(form(*(c[:, None] for c in cols)))
    assert len(got) > 1000


def test_float_steps_match_numpy_on_special_values():
    """gaussian_core's float-or-array steps give a float with the bits of
    numpy's array element, at signed zeros, infinities and nan too."""
    special = [0.0, -0.0, 1.0, -1.0, 5e-324, 1e308, math.inf, -math.inf, math.nan]
    with np.errstate(all="ignore"):
        for a in special:
            for step, ufunc in ((gc._log, np.log), (gc._log1p, np.log1p), (gc._log2, np.log2),
                                (gc._sqrt, np.sqrt)):
                got = step(a)
                assert type(got) is float and got.hex() == float(ufunc(np.array([a]))[0]).hex()
            for b in special:
                got = gc._maximum(a, b)
                assert type(got) is float
                assert got.hex() == float(np.maximum(np.array([a]), np.array([b]))[0]).hex(), (a, b)
                for cond in (True, False):
                    assert gc._where(cond, a, b).hex() == float(np.where([cond], a, b)[0]).hex()


def test_eps_degradable_float_is_nan_where_kappa_is():
    """eta = 1 with nb near 1e154: nb (nb + 1) overflows and kappa is
    inf * 0; the float path gives nan, as the array does, and raises nothing."""
    assert math.isnan(chn._kappa(1.0, 2e154))
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = chn._eps_degradable(np.array([1.0, 0.8]), np.array([2e154, 0.5]))
    assert math.isnan(chn._eps_degradable(1.0, 2e154)) and math.isnan(stacked[0])


# ---------------------------------------------------------------------------
# One cell against the same cell in a column of three
# ---------------------------------------------------------------------------

_MAKE = {"thermal": chn.thermal, "amplifier": chn.amplifier, "additive": chn.additive_noise}
_PENALIZED = [kind for kind, row in bnd.REGISTRY.items() if row.k]


def _cell_hex(cell):
    """A cell's error class and message, or its fields with every float as
    .hex(); value and raw must be Python floats."""
    if isinstance(cell, BosonicBoundsError):
        return type(cell).__name__, str(cell)
    assert type(cell.value) is float and type(cell.raw) is float, cell

    def h(v):
        return v if v is None or isinstance(v, str) else float.hex(v)
    return (cell.kind, h(cell.value), h(cell.raw), h(cell.argopt),
            [(key, h(v)) for key, v in cell.params.items()])


def _seeded_cells(kind, rng, n):
    """n (channel, ns) cells of channel kind `kind`, some with nb = 0, some
    infeasible, a tenth at ns = 0."""
    cells = []
    for _ in range(n):
        nb = 0.0 if rng.random() < 0.15 else float(10.0 ** rng.uniform(-3.0, 0.5))
        params = {"thermal": (float(rng.uniform(0.3, 1.0)), nb),
                  "amplifier": (float(1.0 + 10.0 ** rng.uniform(-3.0, 0.5)), nb),
                  "additive": (float(rng.uniform(0.05, 1.2)),)}[kind]
        cells.append((_MAKE[kind](*params), 0.0 if rng.random() < 0.1 else float(10.0 ** rng.uniform(-2.0, 3.0))))
    return cells


# The edges, each (channel, ns, eps'): eta = 1, g = 1 and 1 + 1 ulp, nb = 0,
# ns = 0, eps' below eps, eps = 1 and eta = 1 with kappa nan.
_EDGES = [
    (chn.thermal(1.0, 0.3), 3.0, None),
    (chn.thermal(1.0, 0.0), 0.5, None),
    (chn.thermal(0.9, 0.0), 3.0, None),
    (chn.thermal(0.8, 0.2), 0.0, None),
    (chn.thermal(0.8, 0.5), 2.0, 0.01),
    (chn.thermal(0.8, 1e16), 1.0, None),
    (chn.thermal(0.8, 1e16), 1.0, 0.5),
    (chn.thermal(1.0, 2e154), 1.0, None),
    (chn.thermal(1.0, 2e154), 1.0, 0.5),
    (chn.amplifier(1.0, 0.5), 1.0, None),
    (chn.amplifier(math.nextafter(1.0, 2.0), 0.5), 1.0, None),
    (chn.amplifier(math.nextafter(1.0, 2.0), 0.5), 1.0, 0.9),
    (chn.amplifier(1.5, 0.0), 2.0, None),
    (chn.amplifier(1.5, 0.2), 0.0, None),
    (chn.additive_noise(0.3), 0.0, None),
]


def _one_and_column(kind, ch, ns, eps_prime, neighbours):
    """The cell by evaluate, and the same cell between two `neighbours` of its
    channel kind in a column (with a fixed eps', the same column through the
    evaluator's fixed-eps' entry)."""
    try:
        one = bnd.evaluate(kind, ch, ns, eps_prime)
    except BosonicBoundsError as exc:
        one = exc
    chans, ns3 = [neighbours[0][0], ch, neighbours[1][0]], [neighbours[0][1], ns, neighbours[1][1]]
    with np.errstate(over="ignore", invalid="ignore"):  # the stacked kappa at nb near 1e154
        column = (bnd.evaluate_columns((kind,), chans, ns3)[0] if eps_prime is None
                  else bnd._columns((kind,), chans, ns3, eps_prime)[0])
    return _cell_hex(one), _cell_hex(column[1])


@pytest.mark.parametrize("ch_kind", list(_MAKE))
@pytest.mark.parametrize("kind", list(bnd.REGISTRY))
def test_one_cell_matches_its_cell_in_a_column(kind, ch_kind):
    rng = np.random.default_rng([19, list(bnd.REGISTRY).index(kind), list(_MAKE).index(ch_kind)])
    cells = _seeded_cells(ch_kind, rng, 12)
    cases = [(ch, ns, None) for ch, ns in cells]
    if kind in _PENALIZED:
        cases += [(ch, ns, float(rng.uniform(0.0, 1.0))) for ch, ns in cells]
    cases += [(ch, ns, e) for ch, ns, e in _EDGES if ch.kind == ch_kind and (e is None or kind in _PENALIZED)]
    for i, (ch, ns, eps_prime) in enumerate(cases):
        neighbours = (cells[i % len(cells)], cells[(i + 5) % len(cells)])
        one, in_column = _one_and_column(kind, ch, ns, eps_prime, neighbours)
        assert one == in_column, (kind, ch, ns, eps_prime)


@pytest.mark.parametrize("ch_kind", ["thermal", "amplifier"])
@pytest.mark.parametrize("kind", _PENALIZED)
def test_penalized_form_returns_the_channels_eps(kind, ch_kind):
    """A penalized form returns (base, W', eps); its eps is epsilon_degradable's
    (QU2, PU2) or epsilon_close_degradable's (QU3, PU3), on floats and in a
    column alike."""
    rng = np.random.default_rng([20, _PENALIZED.index(kind), list(_MAKE).index(ch_kind)])
    cells = [(ch, ns) for ch, ns in _seeded_cells(ch_kind, rng, 40) if ch.tau >= 0.5]
    form = bnd.REGISTRY[kind].forms[ch_kind].fn
    if kind in ("QU2", "PU2"):
        want = [chn.epsilon_degradable(ch).epsilon for ch, _ in cells]
    else:
        want = [chn.epsilon_close_degradable(ch.params["nb"]).epsilon for ch, _ in cells]
    one = [form(*ch.params.values(), ns)[2] for ch, ns in cells]
    column = form(*np.array([(*ch.params.values(), ns) for ch, ns in cells]).T)[2]
    assert len(cells) > 20 and all(type(e) is float for e in one)
    assert _hex(one) == _hex(column) == _hex(want)


def test_eps_one_is_a_domain_error_on_both_paths():
    """nb = 1e16 gives eps = nb / (nb + 1) = 1, which leaves no eps' in
    (eps, 1]: the minimization and a fixed eps' both refuse it."""
    ch = chn.thermal(0.8, 1e16)
    assert chn.epsilon_close_degradable(1e16).epsilon == 1.0
    for eps_prime in (None, 0.5, 1.0):
        with pytest.raises(DomainError, match=r"^epsilon must lie in \[0, 1\)$"):
            bnd.q_u3(ch, 1.0, eps_prime)


# ---------------------------------------------------------------------------
# A lone search against the same problem as a row of a batch
# ---------------------------------------------------------------------------

# A lone problem checks its interval and seeds and picks its bracket on
# Python floats; in a batch the same work runs on arrays.  Both must give
# the bits of the other, also where the seeds collapse to one point.

def _penalty_problems(rng, n):
    """n (eps, W', k) problems with their edges: eps in [1 - 1e-12, 1), where
    lo = hi = 1.0 and the seeds collapse to one, eps = 0, and W' = 0."""
    eps = rng.uniform(0.0, 0.99, n)
    eps[:4] = [1.0 - 1e-12, 1.0 - 5e-13, np.nextafter(1.0, 0.0), 0.0]
    w_prime = 10.0 ** rng.uniform(-3.0, 4.0, n)
    w_prime[2:7] = 0.0
    return eps, w_prime, rng.integers(1, 5, n).astype(float)


def test_lone_penalty_search_matches_its_row_in_a_batch():
    eps, w_prime, k = cols = _penalty_problems(np.random.default_rng(21), 60)
    assert bnd._min_penalty(float(eps[0]), float(w_prime[0]), float(k[0]))[1] == 1.0
    batch = _hex(np.stack(bnd._min_penalty(eps, w_prime, k), axis=1))
    pairs = []
    for i in range(len(eps)):  # and with a neighbour that searches longer or shorter
        j = (i + 7) % len(eps)
        pair = bnd._min_penalty(*(c[[i, j]] for c in cols))
        pairs += _hex([pair[0][0], pair[1][0]])
    one = [bnd._min_penalty(*row) for row in zip(*(c.tolist() for c in cols))]
    assert all(type(v) is float for row in one for v in row)
    assert _hex(one) == batch == pairs


def test_lone_displaced_search_matches_its_row_in_a_batch():
    eta, nb, ns = _thermal_points(np.random.default_rng(22), 60)
    ns[:5] = [1e-12, 5e-13, 1e-15, 5e-324, 0.0]  # seeds collapse to 0 and ns, or ns = 0
    nb[5:8] = 0.0
    batch = np.stack(bnd._pl_thermal(eta, nb, ns), axis=1)
    one = [bnd._pl_thermal(*row) for row in zip(eta.tolist(), nb.tolist(), ns.tolist())]
    assert all(type(v) is float for row in one for v in row)
    assert _hex(one) == _hex(batch)
    assert one[0][1] in (0.0, 1e-12) and one[4] == (0.0, 0.0)
