"""Energy-constrained quantum and private capacity bounds.

All closed-form bounds for thermal, amplifier, and additive-noise channels,
the shared continuity penalty of the approximate-degradability bounds, the
coherent-information lower bounds, the displaced-thermal private lower
bound, unconstrained limits, and comparison bounds from prior work.
:data:`REGISTRY` holds one row per bound kind: its form for each supported
channel kind, its clamp and, for the penalized kinds, the penalty
multiplier; their forms return the base term, W' and eps.  Each row resolves
once, per channel kind, the form and the full tuple of checks a cell runs.
A form and its checks are array expressions over many cells' parameters.
:func:`evaluate_columns` computes several kinds at many (channel, ns) cells:
per kind and channel kind, one call of the checks, as masks, and of the form,
and the penalized kinds' eps' minimizations in one lockstep batch; a channel
kind with one cell runs the per-cell core instead: one lookup, the checks as
plain booleans and the form on Python floats.  :func:`evaluate_column` is its
one-kind case.  :func:`evaluate`, which the public bounds call, runs that
per-cell core directly, with no groups or columns, and a lone search on
floats, so it has the bits of the same cell in a column; such a call raises
no numpy warning.

Formulas are evaluated in natural log internally and converted to bits
once; the D^2 discriminants are computed in factored form and the g
arguments in rationalized form.  Three cancellations remain: at large
energy the g kernel's (x+1) ln(x+1) - x ln x loses about log10(x) digits,
and U_D's smaller symplectic eigenvalue is a difference of two large terms;
near eta = 1 (or g = 1) kappa's bracket, which eps comes from, loses its
double root.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import channels as chn
from . import gaussian_core as gc
from .errors import (BosonicBoundsError, ChannelKindError, DomainError,
                     InfeasibleBoundError, _SCALARS, _reals, _require)
from .gaussian_core import LN2, _log, _log1p, _log2, _maximum, _sqrt, _where
from .optimize import minimize_batch

__all__ = [
    "PenaltyParams", "BoundResult", "BoundKind", "REGISTRY", "evaluate", "evaluate_column",
    "evaluate_columns", "penalty",
    "q_lower_thermal", "q_lower_amp", "q_u1", "q_u2", "q_u3", "q_u4",
    "q_u1_unconstrained", "q_u4_unconstrained",
    "p_bounds", "p_lower_displaced", "comparison_bounds",
    "gap_qu1_ql", "gaussian_c_distance",
]

_gn = gc._g_nats  # nats; callers guarantee nonnegative arguments
DEFAULT_GRID_POINTS = 64  # seeds per row of an eps' or PL energy-split search


# ---------------------------------------------------------------------------
# Continuity penalty
# ---------------------------------------------------------------------------

def _check_epsilon(eps):
    if not 0.0 <= eps < 1.0:  # False for nan
        raise DomainError("epsilon must lie in [0, 1)")


def _check_penalty(epsilon, epsilon_prime, w_prime, k):
    """PenaltyParams' range checks on floats, which a fixed eps' runs without the object."""
    _check_epsilon(epsilon)
    if not epsilon < epsilon_prime <= 1.0:
        raise DomainError("epsilon_prime must lie in (epsilon, 1]")
    _require(w_prime >= 0.0, "output energy cap W' must be >= 0", w_prime)
    if not (isinstance(k, _SCALARS) and k in (1, 2, 3, 4)):  # an ndarray k is no scalar
        raise DomainError("multiplier k must be one of 1, 2, 3, 4")


@dataclass(frozen=True, init=False)
class PenaltyParams:
    """Parameters of the approximate-degradability continuity penalty.

    k selects the bound family: 1 for the quantum eps-degradable bound,
    2 for quantum eps-close-degradable, 3 and 4 for the private versions.
    The fields are stored as Python floats, and k as an int.
    """

    epsilon: float
    epsilon_prime: float
    w_prime: float
    k: int = 1

    def __init__(self, epsilon, epsilon_prime, w_prime, k=1):
        epsilon, epsilon_prime, w_prime = _reals("PenaltyParams", "epsilon epsilon_prime w_prime",
                                                 epsilon, epsilon_prime, w_prime)
        _check_penalty(epsilon, epsilon_prime, w_prime, k)
        # one __dict__ write, a third of the cost of object.__setattr__ per field
        self.__dict__.update(epsilon=epsilon, epsilon_prime=epsilon_prime, w_prime=w_prime, k=int(k))

    @property
    def delta(self) -> float:
        return (self.epsilon_prime - self.epsilon) / (1.0 + self.epsilon_prime)


def _penalty_eval(e, eps, w_prime, k):
    """Penalty at eps' = e > eps (so delta > 0: PenaltyParams checks it, the
    searches start at eps + 1e-12) over the broadcast arguments, eps' first
    as the optimizer passes it.  Floats give a float, on Python floats."""
    d = (e - eps) / (1.0 + e)
    return k * ((2.0 * e + 4.0 * d) * _gn(w_prime / d)
                + _gn(e)
                + 2.0 * (-(d * _log(d) + (1.0 - d) * _log1p(-d)))) / LN2


def penalty(p: PenaltyParams) -> float:
    """k [ (2 eps' + 4 delta) g(W'/delta) + g(eps') + 2 h2(delta) ] in bits,
    with delta = (eps' - eps)/(1 + eps') > 0."""
    return float(_penalty_eval(p.epsilon_prime, p.epsilon, p.w_prime, p.k))


def _geomspace_rows(start, stop, num):
    """Row i is np.geomspace(start[i], stop[i], num) bit for bit (stop may be
    one float; a float start gives the one row), all rows at once in the
    one-row arithmetic.  Not np.geomspace on arrays: one zero-width row sends
    its linspace down the `any_step_zero` branch for every row, which rounds
    differently."""
    log_start, log_stop = np.log10(start), np.log10(stop)
    step = (log_stop - log_start) / (num - 1)
    if not isinstance(start, float):  # a column of starts: one row each
        step, log_start = step[:, None], log_start[:, None]
    out = np.power(10.0, np.arange(num) * step + log_start)
    out[..., 0], out[..., -1] = start, stop
    return out.reshape(-1, num)


def _min_penalty(eps, w_prime, k):
    """Minimize the penalty over eps' in (eps, 1], one batch over equal-length
    arrays; (value, argmin), floats for scalar arguments.  The penalty
    diverges as eps' -> eps, so the open end is moved in by 1e-12 and the
    seed rows, from one :func:`_geomspace_rows` call, crowd towards it."""
    scalar = isinstance(eps, (float, int)) or np.ndim(eps) == 0
    lo = min(float(eps) + 1e-12, 1.0) if scalar else np.minimum(eps + 1e-12, 1.0)
    res = minimize_batch(_penalty_eval, lo, 1.0, _geomspace_rows(lo, 1.0, DEFAULT_GRID_POINTS),
                         eps, w_prime, k)
    return (float(res.value[0]), float(res.arg[0])) if scalar else (res.value, res.arg)


# ---------------------------------------------------------------------------
# Result type
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class BoundResult:
    """A bound value in bits with its provenance.

    `value` carries the max{0, raw} clamp exactly for the kinds whose
    registry row clamps (QL, QU1, QU4, PU1, RMG); all other kinds report raw.
    """

    kind: str
    value: float
    raw: float
    argopt: float | None = None
    params: dict = field(default_factory=dict)

    def __init__(self, kind, value, raw, argopt=None, params=None):  # as PenaltyParams
        self.__dict__.update(kind=kind, value=value, raw=raw, argopt=argopt,
                             params={} if params is None else params)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value_bits": self.value, "raw_bits": self.raw,
                "arg_opt": self.argopt, "params": dict(self.params)}


# ---------------------------------------------------------------------------
# Raw closed forms (bits, elementwise over arrays)
# ---------------------------------------------------------------------------

def _sq(x):
    """x * x: on a float, unlike x ** 2, an overflow gives inf, as on arrays."""
    return x * x


def _ql_thermal_raw(eta, nb, ns):
    y = (1.0 - eta) * nb
    d2 = _sq((1.0 - eta) * ns) + 2.0 * ns * ((1.0 + eta) * y + (1.0 - eta)) + _sq(y + 1.0)
    dd = _sqrt(d2)  # d2 >= 0: one cell runs on Python floats
    u = y + 1.0 - (1.0 - eta) * ns
    # rationalized forms avoid the D - (...) cancellation at large ns
    arg_p = _where(u > 0.0,
                   2.0 * ns * (y + 1.0 - eta) / (dd + abs(u)),
                   (dd - u) / 2.0)
    w = (1.0 - eta) * ns + 1.0 - y
    arg_m = _where(w > 0.0,
                   2.0 * y * (ns + 1.0) / (dd + abs(w)),
                   (dd - w) / 2.0)
    return (_gn(eta * ns + y) - _gn(arg_p) - _gn(arg_m)) / LN2


def _ql_amp_raw(g, nb, ns):
    z = (g - 1.0) * (nb + 1.0)
    d2 = _sq((g - 1.0) * ns) + 2.0 * ns * (g - 1.0) * ((nb + 1.0) * (g + 1.0) - 1.0) + _sq(z + 1.0)
    dd = _sqrt(d2)
    arg_p = (dd + (g - 1.0) * (ns + nb + 1.0) - 1.0) / 2.0  # >= 0 since D >= z+1
    arg_m = 2.0 * ns * (g - 1.0) * nb / (dd + (g - 1.0) * ns + z + 1.0)
    return (_gn(g * ns + z) - _gn(arg_p) - _gn(arg_m)) / LN2


def _qu1_thermal_raw(eta, nb, ns):
    etp = eta / ((1.0 - eta) * nb + 1.0)
    return (_gn(etp * ns) - _gn((1.0 - etp) * ns)) / LN2


def _qu1_amp_raw(g, nb, ns):
    gp = g / (1.0 - nb * (g - 1.0))
    return (_gn(gp * ns + gp - 1.0) - _gn((gp - 1.0) * (ns + 1.0))) / LN2


def _qu1_additive_raw(nbar, ns):
    return (_gn(ns / (nbar + 1.0)) - _gn(nbar * ns / (nbar + 1.0))) / LN2


def _qu4_thermal_raw(eta, nb, ns):
    etp = eta - (1.0 - eta) * nb
    out = eta * ns + (1.0 - eta) * nb
    return (_gn(out) - _gn((1.0 / etp - 1.0) * out)) / LN2


def _qu4_additive_raw(nbar, ns):
    return (_gn(ns + nbar) - _gn(nbar * (ns + nbar) / (1.0 - nbar))) / LN2


def _ud_raw(x, nb, s, t, d, out):
    """U_D at eta or G = x from the radicand's sum s, outer term t, shift d and output photons out."""
    rho = 4.0 * nb * (nb + 1.0) * (2.0 * x - 1.0) / x
    inner = _sqrt(_maximum(_sq(s) - rho, 0.0))
    common = _sq(1.0 + 2.0 * nb) - 2.0 * rho + _sq(t)
    zp = 0.5 * (_sqrt(_maximum((common + 4.0 * d * inner) / 2.0, 1.0)) - 1.0)
    zm = 0.5 * (_sqrt(_maximum((common - 4.0 * d * inner) / 2.0, 1.0)) - 1.0)
    return (_gn(out) - _gn(zp) - _gn(zm)) / LN2


def _ud_thermal_raw(eta, nb, ns):
    """Conditional entropy of degradation at thermal input, thermal channel."""
    th = eta * nb + (1.0 - eta) * ns
    return _ud_raw(eta, nb, 1.0 + nb + th, 1.0 + 2.0 * th, th - nb, eta * ns + (1.0 - eta) * nb)


def _ud_amp_raw(g, nb, ns):
    """Amplifier analogue of :func:`_ud_thermal_raw`.

    The leading term is the channel output entropy g(G ns + (G-1)(nb+1));
    it matches the conditional-entropy oracle through the degrading
    dilation, which the g(G ns + (G-1) nb) variant does not.
    """
    th = g * (1.0 + nb) + (g - 1.0) * ns
    return _ud_raw(g, nb, nb + th, 2.0 * th - 1.0, th - nb - 1.0, g * ns + (g - 1.0) * (nb + 1.0))


# ---------------------------------------------------------------------------
# Lower bounds
# ---------------------------------------------------------------------------

def q_lower_thermal(eta: float, nb: float, ns: float) -> BoundResult:
    """Coherent-information lower bound Q_L of the thermal channel at
    thermal input with mean photon number ns."""
    return evaluate("QL", chn.thermal(eta, nb), ns)


def q_lower_amp(g: float, nb: float, ns: float) -> BoundResult:
    """Coherent-information lower bound of the amplifier channel."""
    return evaluate("QL", chn.amplifier(g, nb), ns)


# ---------------------------------------------------------------------------
# Regime checks and forms
# ---------------------------------------------------------------------------

# A check rules out the cells where `fails` holds.  `fails` takes a dict of a
# group's columns by name (the channel parameters and ns; floats for one
# cell) and returns a mask; a cell it rules out gets error(message), the
# message formatted with that cell's own values by the same names, its bound
# `kind` and its `channel` kind.
class _Check(namedtuple("_Check", "fails error message")):
    def at(self, kind, ch, ns):
        return self.error(self.message.format(**ch.params, ns=ns, kind=kind, channel=ch.kind))


_NS_CHECKS = (
    _Check(lambda c: c["ns"] == math.inf, DomainError,
           "input mean photon number must be finite; the infinite-energy limits are "
           "q_u1_unconstrained and q_u4_unconstrained"),
    # nan or -inf: +inf failed the check before
    _Check(lambda c: (c["ns"] != c["ns"]) | (c["ns"] == -math.inf), DomainError,
           "input mean photon number must be >= 0; got non-finite {ns}"),
    _Check(lambda c: c["ns"] < 0.0, DomainError, "input mean photon number must be >= 0"),
)
_NO_FORM = _Check(lambda c: True, ChannelKindError, "{kind} is not defined for {channel!r} channels")
_NOT_EB = _Check(lambda c: (c["g"] - 1.0) * c["nb"] >= 1.0, InfeasibleBoundError,
                 "(G-1)*NB >= 1: amplifier(g={g:.6g}, nb={nb:.6g}) is entanglement-breaking")
_NBAR_WINDOW = _Check(lambda c: (c["nbar"] <= 0.0) | (c["nbar"] >= 1.0) | (c["nbar"] != c["nbar"]),
                      InfeasibleBoundError,
                      "nbar >= 1: additive-noise channel with nbar={nbar:.6g} is "
                      "entanglement-breaking (bound needs nbar in (0,1))")
_AMP_THEN_LOSS = _Check(lambda c: c["eta"] <= (1.0 - c["eta"]) * c["nb"], InfeasibleBoundError,
                        "eta <= (1-eta)*NB: amp-then-loss decomposition infeasible "
                        "at eta={eta:.6g}, nb={nb:.6g}")


def _eta_half(what):
    return _Check(lambda c: c["eta"] < 0.5, InfeasibleBoundError,
                  f"eta < 1/2: {what} needs eta in [1/2, 1]")


def _gain_above_one(message):
    return _Check(lambda c: c["g"] <= 1.0, DomainError, message)


# A form maps the arrays of the cells of one channel kind that pass its
# checks, (channel parameters..., ns), to their raw bits; the penalized
# kinds' forms return the base term, its output-energy cap W' and the
# channel's eps, PL's the value and its argmax.  `limit` maps the channel
# parameters to the infinite-energy limit (QU1, QU4).
_Form = namedtuple("_Form", "fn checks limit", defaults=(None,))


def _log2_ratio(num, den):
    """log2(num / den) elementwise; +inf where den = 0 (a lossless or
    noiseless channel)."""
    if isinstance(den, float):
        return _log2(num / den) if den != 0.0 else math.inf
    return np.log2(np.divide(num, den, out=np.full(np.shape(den), np.inf), where=den != 0.0))


def _rmg_thermal(eta, nb, ns=None):
    """log2((eta - (1-eta) nb) / ((1-eta)(nb+1))) at every ns: RMG, and the
    infinite-energy limit of QU4."""
    return _log2_ratio(eta - (1.0 - eta) * nb, (1.0 - eta) * (nb + 1.0))


def _ud_thermal(eta, nb, ns):
    """U_D, the conditional entropy of degradation, its cap W' and eps."""
    return (_ud_thermal_raw(eta, nb, ns), (1.0 - eta) * ns + (1.0 + eta) * nb,
            chn._eps_degradable(eta, nb))


def _ud_amp(g, nb, ns):
    return _ud_amp_raw(g, nb, ns), (g - 1.0) * ns + (1.0 + g) * nb, chn._eps_degradable(g, nb)


def _reference_thermal(eta, nb, ns):
    """Coherent information of the degradable (nb = 0) reference, W' and
    the eps-close-degradable eps."""
    return _qu1_thermal_raw(eta, 0.0, ns), eta * ns + (1.0 - eta) * nb, nb / (nb + 1.0)


def _reference_amp(g, nb, ns):
    return _qu1_amp_raw(g, 0.0, ns), g * ns + (g - 1.0) * nb, nb / (nb + 1.0)


# PLOB in logs: eta ** nb underflows, and g ** (nb + 1) overflows, a float
# long before PLOB leaves its range.
def _plob_thermal(eta, nb, ns):
    return _log2_ratio(1.0, 1.0 - eta) - nb * _log2(eta) - _gn(nb) / LN2


def _plob_amp(g, nb, ns):
    return _log2_ratio(1.0, g - 1.0) + (nb + 1.0) * _log2(g) - _gn(nb) / LN2


def _plob_additive(nbar, ns):
    return (nbar - 1.0) / LN2 + _log2(1.0 / nbar)


# ---------------------------------------------------------------------------
# The evaluator and the channel-taking bounds
# ---------------------------------------------------------------------------

def _failed(checks, cols):
    """The first of `checks` that one cell's float columns `cols` fail, or None."""
    for check in checks:
        if check.fails(cols):
            return check


def _first_failure(checks, cols, n):
    """Index into `checks` of each of n cells' first failing check, len(checks) if none."""
    first = np.full(n, len(checks))
    for j in range(len(checks) - 1, -1, -1):
        first[checks[j].fails(cols)] = j
    return first.tolist()


def _per_cell(values):
    """A form's output as a list of floats, one per cell."""
    return values.tolist() if isinstance(values, np.ndarray) else [float(values)]


def _raise_first_failure(checks, kind, ch, ns):
    """Raise the error of the first of `checks` that cell (ch, ns) of `kind` fails."""
    if (check := _failed(checks, {**ch.params, "ns": ns})) is not None:
        raise check.at(kind, ch, ns)


def _result(kind, row, ch, ns, raw, argopt=None, eps=None, w_prime=None):
    """Cell (ch, ns)'s BoundResult, or a DomainError for nan or -inf raw bits."""
    if raw != raw or raw == -math.inf:  # +inf is a bound: PLOB and RMG at eta = 1
        return DomainError(f"{kind} is {raw} bits at {ch.kind} {ch.params}, ns={ns}")
    params = ({"channel": ch.kind, **ch.params, "ns": ns} if row.lower else
              {**ch.params, "channel": ch.kind, "ns": ns, "eps": eps, "w_prime": w_prime} if row.k else
              {**ch.params, "channel": ch.kind, "ns": ns})
    if row.k and argopt is not None:  # a penalized kind's eps'
        params["eps_prime"], params["delta"] = argopt, (argopt - eps) / (1.0 + argopt)
    return BoundResult(kind, max(0.0, raw) if row.clamp else raw, raw, argopt, params)


def _finish(out, i, kind, row, ch, ns, vals, eps_prime, todo):
    """Set out[i] from the form's floats `vals` at cell (ch, ns): its raw bits (and PL's argmax),
    or a penalized kind's base term, W' and eps, plus the penalty at a fixed or minimizing eps'."""
    if not row.k:
        out[i] = _result(kind, row, ch, ns, *vals)
        return
    base, w_prime, eps = vals
    try:
        _check_epsilon(eps)  # 1 leaves no eps'; nan at eta = 1, nb ~ 1e154 (kappa = inf * 0)
        if eps_prime is not None:
            _check_penalty(eps, eps_prime, w_prime, row.k)
            out[i] = _result(kind, row, ch, ns, base + _penalty_eval(eps_prime, eps, w_prime, row.k),
                             eps_prime, eps, w_prime)
        elif eps > 0.0:
            todo.append((out, i, kind, row, ch, ns, base, eps, w_prime))
        else:  # at eps = 0 the penalty's infimum, 0, is unattained: base term only
            out[i] = _result(kind, row, ch, ns, base, None, eps, w_prime)
    except DomainError as exc:  # its traceback would hold `out`: a cycle
        out[i] = exc.with_traceback(None)


def _row(kind, eps_prime):
    """`kind`'s registry row, after its name and whether it takes a fixed eps'."""
    if (row := REGISTRY.get(kind)) is None:
        raise DomainError(f"unknown bound kind {kind!r}")
    if eps_prime is not None and not row.k:
        takers = ", ".join(k for k, r in REGISTRY.items() if r.k)
        raise DomainError(f"eps_prime applies only to {takers}, not {kind}")
    return row


def _cell(out, i, kind, row, ch, ns, eps_prime, todo):
    """Set out[i] for the one cell (ch, ns) of `kind`: its first failing check
    as plain booleans, or the form on Python floats and :func:`_finish`."""
    fn, checks = row.resolved.get(ch.kind) or row.resolved[None]
    c = {**ch.params, "ns": ns}  # floats, as the gate and the constructors leave them
    if (check := _failed(checks, c)) is not None:
        out[i] = check.at(kind, ch, ns)
    else:
        res = fn(*c.values())
        _finish(out, i, kind, row, ch, ns, res if isinstance(res, tuple) else (res,), eps_prime, todo)


def _search(todo):
    """Every pending penalized cell's eps' minimization in one batch, on floats for one."""
    args = [(eps, w_prime, row.k) for _, _, _, row, _, _, _, eps, w_prime in todo]
    res = _min_penalty(*(args[0] if len(args) == 1 else np.array(args).T))
    for (out, i, kind, row, ch, ns, base, eps, w_prime), p, a in zip(todo, *map(_per_cell, res)):
        out[i] = _result(kind, row, ch, ns, base + p, a, eps, w_prime)


def _columns(kinds, channels, ns_values, eps_prime):
    """evaluate_columns, with a fixed eps' for the penalized kinds if given."""
    if len(channels) != len(ns_values):
        raise DomainError(f"evaluate_columns needs one ns per channel, got {len(channels)} "
                          f"channels and {len(ns_values)} ns values")
    ns_values = [_reals("a bound", "ns", ns)[0] for ns in ns_values]
    if eps_prime is not None:
        eps_prime, = _reals("a bound", "eps_prime", eps_prime)
    groups, cols, todo, columns = {}, {}, [], []
    for i, ch in enumerate(channels):
        groups.setdefault(ch.kind, []).append(i)
    for ch_kind, idx in groups.items():  # by name: the channel parameters, then ns
        if len(idx) > 1:
            cells = [(*channels[i].params.values(), ns_values[i]) for i in idx]
            cols[ch_kind] = dict(zip((*channels[idx[0]].params, "ns"), np.array(cells, dtype=float).T))
    for kind in kinds:
        row = _row(kind, eps_prime)
        columns.append(out := [None] * len(channels))  # each cell's BoundResult or error
        for ch_kind, idx in groups.items():
            if len(idx) == 1:
                _cell(out, idx[0], kind, row, channels[idx[0]], ns_values[idx[0]], eps_prime, todo)
                continue
            fn, checks = row.resolved.get(ch_kind) or row.resolved[None]
            c = cols[ch_kind]
            first = _first_failure(checks, c, len(idx))
            for i, j in zip(idx, first):
                if j < len(checks):
                    out[i] = checks[j].at(kind, channels[i], ns_values[i])
            if passed := [k for k, j in enumerate(first) if j == len(checks)]:
                res = fn(*(c.values() if len(passed) == len(idx) else (v[passed] for v in c.values())))
                for k, *vals in zip(passed, *map(_per_cell, res if isinstance(res, tuple) else (res,))):
                    _finish(out, idx[k], kind, row, channels[idx[k]], ns_values[idx[k]], vals, eps_prime, todo)
    if todo:
        _search(todo)
    return columns


def evaluate_columns(kinds, channels, ns_values) -> list:
    """Each bound kind of `kinds` (one may repeat) at each (channel, ns) cell:
    one column per kind, each cell's BoundResult or the BosonicBoundsError
    that rules it out.  `channels` and `ns_values` have one length, and each
    ns is a real scalar (:func:`errors._reals`; DomainError otherwise).
    Per group of cells of one channel kind, a kind runs its checks as masks
    and its form once, and a group of one cell the per-cell core that
    :func:`evaluate` runs; a cell reports its first failing check, in the order
    ns, channel kind, regime (QL and PL: channel kind first).  The penalized
    kinds add k times the continuity penalty minimized over eps' in (eps, 1],
    all in one :func:`minimize_batch` call; PL maximizes over the energy
    split, one batch per PL column."""
    return _columns(kinds, channels, ns_values, None)


def evaluate_column(kind: str, channels, ns_values) -> list:
    """Bound `kind` at each (channel, ns) cell: ``evaluate_columns((kind,), ...)[0]``."""
    return evaluate_columns((kind,), channels, ns_values)[0]


def evaluate(kind: str, ch: chn.PhaseInsensitiveChannel, ns: float,
             eps_prime: float = None) -> BoundResult:
    """Bound `kind` at channel `ch` and input energy `ns`, raising the cell's
    error instead of returning it.  It runs the per-cell core that
    :func:`evaluate_columns` runs for a channel kind with one cell, after the
    same realness, kind and eps' checks, and a lone search in the same step,
    so it returns that cell's bits and raises that cell's first error.  A
    penalized kind takes a fixed `eps_prime` in place of the minimization;
    a bad one is reported after the cell's other checks."""
    ns, = _reals("a bound", "ns", ns)
    if eps_prime is not None:
        eps_prime, = _reals("a bound", "eps_prime", eps_prime)
    out, todo = [None], []
    _cell(out, 0, kind, _row(kind, eps_prime), ch, ns, eps_prime, todo)
    if todo:
        _search(todo)
    if isinstance(cell := out.pop(), BosonicBoundsError):
        try:
            raise cell
        finally:
            del cell  # the raised error's traceback holds this frame: no cycle through it
    return cell


def _unconstrained(kind, ch):
    """The infinite-energy limit of `kind` at `ch` (raw, unclamped), after
    the channel kind and the form's checks."""
    form = REGISTRY[kind].forms.get(ch.kind)
    _raise_first_failure((_NO_FORM,) if form is None else form.checks, kind, ch, math.inf)
    return float(form.limit(*ch.params.values()))


def q_u1(ch: chn.PhaseInsensitiveChannel, ns: float) -> BoundResult:
    """Data-processing bound from the loss-then-amplifier decomposition."""
    return evaluate("QU1", ch, ns)


def q_u1_unconstrained(ch: chn.PhaseInsensitiveChannel) -> float:
    """Infinite-energy limit of QU1 (raw, unclamped)."""
    return _unconstrained("QU1", ch)


def q_u4(ch: chn.PhaseInsensitiveChannel, ns: float) -> BoundResult:
    """Data-processing bound from the amplifier-then-loss decomposition."""
    return evaluate("QU4", ch, ns)


def q_u4_unconstrained(ch: chn.PhaseInsensitiveChannel) -> float:
    """Infinite-energy limit of QU4 (raw, unclamped)."""
    return _unconstrained("QU4", ch)


def q_u2(ch: chn.PhaseInsensitiveChannel, ns: float, eps_prime: float = None) -> BoundResult:
    """eps-degradable bound: U_D plus the k=1 continuity penalty, minimized
    over eps' in (eps, 1] unless eps_prime is supplied."""
    return evaluate("QU2", ch, ns, eps_prime)


def q_u3(ch: chn.PhaseInsensitiveChannel, ns: float, eps_prime: float = None) -> BoundResult:
    """eps-close-degradable bound: the degradable reference's coherent
    information plus the k=2 penalty with eps = nb/(nb+1)."""
    return evaluate("QU3", ch, ns, eps_prime)


def p_bounds(ch: chn.PhaseInsensitiveChannel, ns: float, which: str,
             eps_prime: float = None) -> BoundResult:
    """Private-capacity upper bounds PU1, PU2, PU3.

    PU1 shares the QU1 closed form; PU2 is U_D with the k=3 penalty; PU3 is
    the degradable reference with the k=4 penalty.
    """
    if which not in ("PU1", "PU2", "PU3"):
        raise DomainError(f"unknown private bound {which!r}")
    return evaluate(which, ch, ns, eps_prime)


# ---------------------------------------------------------------------------
# Private lower bound (displaced thermal ensemble)
# ---------------------------------------------------------------------------

def _private_loss(n2, icns, eta, nb):
    """PL's objective: I_c(n2) - I_c(ns) given icns = I_c(ns), elementwise.
    Written -(icns - I_c(n2)) so that a zero maximum reports 0.0, not -0.0."""
    return -(icns - _ql_thermal_raw(eta, nb, n2))


def _pl_thermal(eta, nb, ns):
    """PL's form: max over n2 in [0, ns] of I_c(ns) - I_c(n2) and its argmax,
    0 and 0 at ns = 0; one batch over the cells after I_c(ns), and floats in
    and out for one cell.  The coherent-information dip sits at small
    absolute photon numbers, so the rows seed there (:func:`_pl_seeds`)."""
    icns = _ql_thermal_raw(eta, nb, ns)
    if isinstance(ns, float):  # one cell: floats in and out
        if ns == 0.0:
            return 0.0, 0.0
        res = minimize_batch(_private_loss, 0.0, ns, _pl_seeds(ns), icns, eta, nb)
        return -float(res.value[0]), float(res.arg[0])
    value, arg = np.zeros(ns.shape), np.zeros(ns.shape)
    pos = ns > 0.0
    if pos.any():
        if not pos.all():
            eta, nb, ns, icns = eta[pos], nb[pos], ns[pos], icns[pos]
        res = minimize_batch(_private_loss, 0.0, ns, _pl_seeds(ns), icns, eta, nb)
        value[pos], arg[pos] = -res.value, res.arg
    return value, arg


def _pl_seeds(ns):
    """PL's seed rows for energies ns > 0 (an array, or a float for one row):
    0, then 63 points log-spaced from min(1e-12, ns) to ns, all rows from one
    :func:`_geomspace_rows` call."""
    start = min(1e-12, ns) if isinstance(ns, float) else np.minimum(1e-12, ns)
    rows = _geomspace_rows(start, ns, DEFAULT_GRID_POINTS - 1)
    seeds = np.zeros((len(rows), DEFAULT_GRID_POINTS))
    seeds[:, 1:] = rows
    return seeds


def p_lower_displaced(eta: float, nb: float, ns: float) -> BoundResult:
    """Private-rate lower bound from displaced thermal inputs:
    max over n2 in [0, ns] of I_c(ns) - I_c(n2); argopt records n2*."""
    return evaluate("PL", chn.thermal(eta, nb), ns)


# ---------------------------------------------------------------------------
# Comparison bounds and derived quantities
# ---------------------------------------------------------------------------

_COMPARISON = {"PLOB_thermal": ("PLOB", "thermal"), "PLOB_amp": ("PLOB", "amplifier"),
               "PLOB_addnoise": ("PLOB", "additive"), "RMG": ("RMG", "thermal")}


def comparison_bounds(ch: chn.PhaseInsensitiveChannel, which: str) -> float:
    """Unconstrained comparison bounds from prior work, in bits.

    PLOB_* values are reported as stated; RMG carries its max{0, .} clamp.
    """
    if which not in _COMPARISON:
        raise DomainError(f"unknown comparison bound {which!r}")
    kind, channel = _COMPARISON[which]
    if ch.kind != channel:
        raise ChannelKindError(f"{which} is not defined for {ch.kind!r} channels")
    return evaluate(kind, ch, 0.0).value


def gap_qu1_ql(eta: float, nb: float, ns: float) -> float:
    """QU1 - QL for the thermal channel (raw values, both unclamped);
    lies in [0, 1/ln 2] for eta in [1/2, 1].

    At fixed (eta, nb) the large-ns limit is nb*log2(1 + 1/nb) (1.0 at
    nb = 1). Its supremum 1/ln 2 is approached only as nb -> inf.
    """
    ch = chn.thermal(eta, nb)
    return evaluate("QU1", ch, ns).raw - evaluate("QL", ch, ns).raw


def gaussian_c_distance(a: chn.PhaseInsensitiveChannel,
                        b: chn.PhaseInsensitiveChannel, ns: float) -> float:
    """Gaussian energy-constrained channel C-distance sqrt(1 - F) at the
    two-mode squeezed vacuum input saturating the energy constraint.

    Both channels must share tau (the same X matrix), the hypothesis under
    which the TMS input is optimal among Gaussian states.
    """
    ns, = _reals("gaussian_c_distance", "ns", ns)
    if abs(a.tau - b.tau) > 1e-12:
        raise DomainError("gaussian_c_distance requires channels with equal tau")
    _raise_first_failure(_NS_CHECKS, None, a, ns)
    probe = gc.tms_state(ns)
    fid = gc.two_mode_fidelity(*(ch.apply(probe, modes=(1,)) for ch in (a, b)))
    return float(np.sqrt(max(1.0 - fid, 0.0)))


# ---------------------------------------------------------------------------
# Bound registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundKind:
    """One row of :data:`REGISTRY`.

    `forms` maps each supported channel kind to the kind's form there: its
    regime `checks`, each a mask with an error, and `fn`, an array
    expression over (channel parameters..., ns) of the cells that pass
    them; the QU1 and QU4 forms carry the infinite-energy `limit`.  `clamp`
    marks the kinds that report max{0, raw} as their value.  The penalized
    kinds (QU2, QU3, PU2, PU3) are the rows with a penalty multiplier
    `k` > 0; their forms return eps and W' with the base term, and only
    they accept a fixed eps'.  The `lower` rows (QL, PL) check the channel
    kind before ns, and their params lead with the channel.  `resolved`, built
    with the row, maps each channel kind of `forms`, and None any other, to
    the (fn, checks) a cell runs: the ns checks, then the form's or, with no
    form, the one that fails as ChannelKindError; the `lower` rows, ns last.
    """

    forms: dict
    clamp: bool
    k: int = 0
    lower: bool = False
    resolved: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        first, last = ((), _NS_CHECKS) if self.lower else (_NS_CHECKS, ())
        object.__setattr__(self, "resolved", {None: (None, first + (_NO_FORM,)), **{
            ck: (f.fn, first + f.checks + last) for ck, f in self.forms.items()}})


_QU1 = {"thermal": _Form(_qu1_thermal_raw, (_eta_half("QU1"),),
                         lambda eta, nb: _log2_ratio(eta, 1.0 - eta) - _log2(nb + 1.0)),
        "amplifier": _Form(_qu1_amp_raw, (_NOT_EB,),
                           lambda g, nb: _log2_ratio(g, g - 1.0) - _log2(nb + 1.0)),
        "additive": _Form(_qu1_additive_raw, (_NBAR_WINDOW,), lambda nbar: _log2(1.0 / nbar))}
_DEG = {"thermal": _Form(_ud_thermal, (_eta_half("the degrading construction"),)),
        "amplifier": _Form(_ud_amp, (_gain_above_one("amplifier eps-degradable bound requires "
                                                     "gain > 1"), _NOT_EB))}
_CLOSE = {"thermal": _Form(_reference_thermal, (_eta_half("QU3"),)),
          "amplifier": _Form(_reference_amp, (_NOT_EB,))}

REGISTRY = {
    "QL": BoundKind({"thermal": _Form(_ql_thermal_raw, ()),
                     "amplifier": _Form(_ql_amp_raw, (_gain_above_one("q_lower_amp requires gain > 1"),))},
                    True, lower=True),
    "QU1": BoundKind(_QU1, True),
    "QU2": BoundKind(_DEG, False, 1),
    "QU3": BoundKind(_CLOSE, False, 2),
    "QU4": BoundKind({"thermal": _Form(_qu4_thermal_raw, (_AMP_THEN_LOSS,), _rmg_thermal),
                      "additive": _Form(_qu4_additive_raw, (_NBAR_WINDOW,),
                                        lambda nbar: _log2((1.0 - nbar) / nbar))}, True),
    "PU1": BoundKind(_QU1, True),
    "PU2": BoundKind(_DEG, False, 3),
    "PU3": BoundKind(_CLOSE, False, 4),
    "PL": BoundKind({"thermal": _Form(_pl_thermal, ())}, False, lower=True),
    "PLOB": BoundKind({"thermal": _Form(_plob_thermal, ()), "amplifier": _Form(_plob_amp, ()),
                       "additive": _Form(_plob_additive, (_NBAR_WINDOW,))}, False),
    "RMG": BoundKind({"thermal": _Form(_rmg_thermal, (_AMP_THEN_LOSS,))}, True),
}
