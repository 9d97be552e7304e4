"""Energy-constrained quantum and private capacity bounds.

All closed-form bounds for thermal, amplifier, and additive-noise channels,
the shared continuity penalty of the approximate-degradability bounds, the
coherent-information lower bounds, the displaced-thermal private lower
bound, unconstrained limits, and comparison bounds from prior work.
:data:`REGISTRY` holds one row per bound kind: its form for each supported
channel kind, its clamp and, for the penalized kinds, the eps source and
the penalty multiplier.  :func:`evaluate_column` computes one kind at many
(channel, ns) cells from its row and runs the cells' minimizations (over
eps', or over the energy split for PL) as one lockstep batch;
:func:`evaluate` is its one-cell case, which the channel-taking public
bounds call.

Formulas are evaluated in natural log internally and converted to bits
once; the D^2 discriminants are computed in factored form and the g
arguments in rationalized form, so the large-energy regime is free of
catastrophic cancellation.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import channels as chn
from . import gaussian_core as gc
from .errors import (BosonicBoundsError, ChannelKindError, DomainError,
                     InfeasibleBoundError, _require)
from .gaussian_core import LN2
from .optimize import DEFAULT_GRID_POINTS, minimize_batch

__all__ = [
    "PenaltyParams", "BoundResult", "BoundKind", "REGISTRY", "evaluate", "evaluate_column",
    "penalty",
    "q_lower_thermal", "q_lower_amp", "q_u1", "q_u2", "q_u3", "q_u4",
    "q_u1_unconstrained", "q_u4_unconstrained",
    "p_bounds", "p_lower_displaced", "comparison_bounds",
    "gap_qu1_ql", "gaussian_c_distance", "coherent_info_thermal",
]

_gn = gc._g_nats  # nats; callers guarantee nonnegative arguments


# ---------------------------------------------------------------------------
# Continuity penalty
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PenaltyParams:
    """Parameters of the approximate-degradability continuity penalty.

    k selects the bound family: 1 for the quantum eps-degradable bound,
    2 for quantum eps-close-degradable, 3 and 4 for the private versions.
    """

    epsilon: float
    epsilon_prime: float
    w_prime: float
    k: int = 1

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise DomainError("epsilon must lie in [0, 1)")
        if not self.epsilon < self.epsilon_prime <= 1.0:
            raise DomainError("epsilon_prime must lie in (epsilon, 1]")
        _require(self.w_prime >= 0.0, "output energy cap W' must be >= 0", self.w_prime)
        if self.k not in (1, 2, 3, 4):
            raise DomainError("multiplier k must be one of 1, 2, 3, 4")

    @property
    def delta(self) -> float:
        return (self.epsilon_prime - self.epsilon) / (1.0 + self.epsilon_prime)


def _penalty_eval(eps, eps_prime, w_prime, k):
    """Penalty over the broadcast arguments; +inf wherever delta <= 0."""
    e = np.asarray(eps_prime, dtype=float)
    delta = (e - eps) / (1.0 + e)
    ok = delta > 0.0
    d = np.where(ok, delta, 0.5)  # keeps the discarded entries finite
    val = k * ((2.0 * e + 4.0 * d) * _gn(w_prime / d)
               + _gn(e)
               + 2.0 * (-(d * np.log(d) + (1.0 - d) * np.log1p(-d)))) / LN2
    out = np.where(ok, val, np.inf)
    return float(out) if out.ndim == 0 else out


def penalty(p: PenaltyParams) -> float:
    """k [ (2 eps' + 4 delta) g(W'/delta) + g(eps') + 2 h2(delta) ] in bits,
    with delta = (eps' - eps)/(1 + eps'); +inf if delta degenerates."""
    return _penalty_eval(p.epsilon, p.epsilon_prime, p.w_prime, p.k)


def _min_penalty(eps, w_prime, k):
    """Minimize the penalty over eps' in (eps, 1], one batch over equal-length
    arrays; (value, argmin), floats for scalar arguments.  The penalty
    diverges as eps' -> eps, so the open end is moved in by 1e-12 and the
    seed grid is log-spaced towards it."""
    scalar = np.ndim(eps) == 0
    eps, w_prime, k = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (eps, w_prime, k))
    lo = np.minimum(eps + 1e-12, 1.0)
    res = minimize_batch(lambda x, r: _penalty_eval(eps[r, None], x, w_prime[r, None], k[r, None]),
                         lo, 1.0, [np.geomspace(a, 1.0, DEFAULT_GRID_POINTS) for a in lo])
    return (float(res.value[0]), float(res.arg[0])) if scalar else (res.value, res.arg)


# ---------------------------------------------------------------------------
# Result type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value_bits": self.value,
            "raw_bits": self.raw,
            "arg_opt": self.argopt,
            "params": dict(self.params),
        }


def _clamp(kind, raw):
    return max(0.0, raw) if REGISTRY[kind].clamp else raw


def _result(kind, raw, params, argopt=None):
    raw = float(raw)
    return BoundResult(kind, _clamp(kind, raw), raw, argopt, params)


def _params(ch, ns):
    return {**ch.params, "channel": ch.kind, "ns": ns}


def _check_ns(ns):
    _require(ns != np.inf, "input mean photon number must be finite; the infinite-energy "
             "limits are q_u1_unconstrained and q_u4_unconstrained")
    _require(ns >= 0.0, "input mean photon number must be >= 0", ns)


def _check_point(nb, ns):
    _require(nb >= 0.0, "environment photon number must be >= 0", nb)
    _check_ns(ns)


def _closed_form(f):
    """Evaluate `f` on float arrays; a 0-d result comes back as a float."""
    @functools.wraps(f)
    def wrapped(*args):
        val = f(*[np.asarray(a, dtype=float) for a in args])
        return val if val.shape else float(val)
    return wrapped


# ---------------------------------------------------------------------------
# Raw closed forms (array-aware, bits)
# ---------------------------------------------------------------------------

@_closed_form
def _ql_thermal_raw(eta, nb, ns):
    y = (1.0 - eta) * nb
    d2 = ((1.0 - eta) * ns) ** 2 + 2.0 * ns * ((1.0 + eta) * y + (1.0 - eta)) + (y + 1.0) ** 2
    dd = np.sqrt(d2)
    u = y + 1.0 - (1.0 - eta) * ns
    # rationalized forms avoid the D - (...) cancellation at large ns
    arg_p = np.where(u > 0.0,
                     2.0 * ns * (y + 1.0 - eta) / (dd + np.abs(u)),
                     (dd - u) / 2.0)
    w = (1.0 - eta) * ns + 1.0 - y
    arg_m = np.where(w > 0.0,
                     2.0 * y * (ns + 1.0) / (dd + np.abs(w)),
                     (dd - w) / 2.0)
    return (_gn(eta * ns + y) - _gn(arg_p) - _gn(arg_m)) / LN2


@_closed_form
def _ql_amp_raw(g, nb, ns):
    z = (g - 1.0) * (nb + 1.0)
    d2 = ((g - 1.0) * ns) ** 2 + 2.0 * ns * (g - 1.0) * ((nb + 1.0) * (g + 1.0) - 1.0) + (z + 1.0) ** 2
    dd = np.sqrt(d2)
    arg_p = (dd + (g - 1.0) * (ns + nb + 1.0) - 1.0) / 2.0  # >= 0 since D >= z+1
    arg_m = 2.0 * ns * (g - 1.0) * nb / (dd + (g - 1.0) * ns + z + 1.0)
    return (_gn(g * ns + z) - _gn(arg_p) - _gn(arg_m)) / LN2


@_closed_form
def _qu1_thermal_raw(eta, nb, ns):
    etp = eta / ((1.0 - eta) * nb + 1.0)
    return (_gn(etp * ns) - _gn((1.0 - etp) * ns)) / LN2


@_closed_form
def _qu1_amp_raw(g, nb, ns):
    gp = g / (1.0 - nb * (g - 1.0))
    return (_gn(gp * ns + gp - 1.0) - _gn((gp - 1.0) * (ns + 1.0))) / LN2


@_closed_form
def _qu1_additive_raw(nbar, ns):
    return (_gn(ns / (nbar + 1.0)) - _gn(nbar * ns / (nbar + 1.0))) / LN2


@_closed_form
def _qu4_thermal_raw(eta, nb, ns):
    etp = eta - (1.0 - eta) * nb
    out = eta * ns + (1.0 - eta) * nb
    return (_gn(out) - _gn((1.0 / etp - 1.0) * out)) / LN2


@_closed_form
def _qu4_additive_raw(nbar, ns):
    return (_gn(ns + nbar) - _gn(nbar * (ns + nbar) / (1.0 - nbar))) / LN2


@_closed_form
def _ud_thermal_raw(eta, nb, ns):
    """Conditional entropy of degradation at thermal input, thermal channel."""
    rho = 4.0 * nb * (nb + 1.0) * (2.0 * eta - 1.0) / eta
    th = eta * nb + (1.0 - eta) * ns
    inner = np.sqrt(np.maximum((1.0 + nb + th) ** 2 - rho, 0.0))
    common = (1.0 + 2.0 * nb) ** 2 - 2.0 * rho + (1.0 + 2.0 * th) ** 2
    zp = 0.5 * (np.sqrt(np.maximum((common + 4.0 * (th - nb) * inner) / 2.0, 1.0)) - 1.0)
    zm = 0.5 * (np.sqrt(np.maximum((common - 4.0 * (th - nb) * inner) / 2.0, 1.0)) - 1.0)
    return (_gn(eta * ns + (1.0 - eta) * nb) - _gn(zp) - _gn(zm)) / LN2


@_closed_form
def _ud_amp_raw(g, nb, ns):
    """Amplifier analogue of :func:`_ud_thermal_raw`.

    The leading term is the channel output entropy g(G ns + (G-1)(nb+1));
    it matches the conditional-entropy oracle through the degrading
    dilation, which the g(G ns + (G-1) nb) variant does not.
    """
    rho = 4.0 * nb * (nb + 1.0) * (2.0 * g - 1.0) / g
    th = g * (1.0 + nb) + (g - 1.0) * ns
    inner = np.sqrt(np.maximum((nb + th) ** 2 - rho, 0.0))
    common = (1.0 + 2.0 * nb) ** 2 - 2.0 * rho + (2.0 * th - 1.0) ** 2
    zp = 0.5 * (np.sqrt(np.maximum((common + 4.0 * (th - nb - 1.0) * inner) / 2.0, 1.0)) - 1.0)
    zm = 0.5 * (np.sqrt(np.maximum((common - 4.0 * (th - nb - 1.0) * inner) / 2.0, 1.0)) - 1.0)
    return (_gn(g * ns + (g - 1.0) * (nb + 1.0)) - _gn(zp) - _gn(zm)) / LN2


# ---------------------------------------------------------------------------
# Lower bounds
# ---------------------------------------------------------------------------

def q_lower_thermal(eta: float, nb: float, ns: float) -> BoundResult:
    """Coherent-information lower bound Q_L of the thermal channel at
    thermal input with mean photon number ns."""
    if not 0.0 < eta <= 1.0:
        raise DomainError("thermal channel requires eta in (0, 1]")
    _check_point(nb, ns)
    raw = _ql_thermal_raw(eta, nb, ns)
    return _result("QL", raw, {"channel": "thermal", "eta": eta, "nb": nb, "ns": ns})


def q_lower_amp(g: float, nb: float, ns: float) -> BoundResult:
    """Coherent-information lower bound of the amplifier channel."""
    _require(g > 1.0, "q_lower_amp requires gain > 1", g)
    _check_point(nb, ns)
    raw = _ql_amp_raw(g, nb, ns)
    return _result("QL", raw, {"channel": "amplifier", "g": g, "nb": nb, "ns": ns})


def coherent_info_thermal(eta: float, nb: float, ns: float) -> float:
    """Raw (unclamped) thermal coherent information; the P_L building block."""
    _require(0.0 < eta <= 1.0, "thermal channel requires eta in (0, 1]")
    _check_point(nb, ns)
    return _ql_thermal_raw(eta, nb, ns)


# ---------------------------------------------------------------------------
# Feasibility checks and forms
# ---------------------------------------------------------------------------

def _amp_not_eb(g, nb):
    if (g - 1.0) * nb >= 1.0:
        raise InfeasibleBoundError(
            f"(G-1)*NB >= 1: amplifier(g={g:.6g}, nb={nb:.6g}) is entanglement-breaking")


def _additive_window(nbar):
    if not 0.0 < nbar < 1.0:
        raise InfeasibleBoundError(
            f"nbar >= 1: additive-noise channel with nbar={nbar:.6g} is "
            "entanglement-breaking (bound needs nbar in (0,1))")


def _thermal_half(eta, what):
    if eta < 0.5:
        raise InfeasibleBoundError(f"eta < 1/2: {what} needs eta in [1/2, 1]")


def _amp_then_loss(eta, nb):
    if eta <= (1.0 - eta) * nb:
        raise InfeasibleBoundError(
            f"eta <= (1-eta)*NB: amp-then-loss decomposition infeasible "
            f"at eta={eta:.6g}, nb={nb:.6g}")


# A form takes the channel's parameters and ns, runs its regime's check and
# returns the raw bits, or for the penalized kinds the base term and its
# output-energy cap W'.  The QU1 and QU4 forms at ns = inf give the
# infinite-energy limit.

def _qu1_thermal(eta, nb, ns):
    _thermal_half(eta, "QU1")
    if ns == np.inf:
        return np.inf if eta == 1.0 else float(np.log2(eta / (1.0 - eta)) - np.log2(nb + 1.0))
    return _qu1_thermal_raw(eta, nb, ns)


def _qu1_amp(g, nb, ns):
    _amp_not_eb(g, nb)
    if ns == np.inf:
        return np.inf if g == 1.0 else float(np.log2(g / (g - 1.0)) - np.log2(nb + 1.0))
    return _qu1_amp_raw(g, nb, ns)


def _qu1_additive(nbar, ns):
    _additive_window(nbar)
    return float(np.log2(1.0 / nbar)) if ns == np.inf else _qu1_additive_raw(nbar, ns)


def _rmg_thermal(eta, nb, ns):
    """log2((eta - (1-eta) nb) / ((1-eta)(nb+1))) at every ns: RMG, and the
    infinite-energy limit of QU4."""
    _amp_then_loss(eta, nb)
    if eta == 1.0:
        return np.inf
    return float(np.log2((eta - (1.0 - eta) * nb) / ((1.0 - eta) * (nb + 1.0))))


def _qu4_thermal(eta, nb, ns):
    if ns == np.inf:
        return _rmg_thermal(eta, nb, ns)
    _amp_then_loss(eta, nb)
    return _qu4_thermal_raw(eta, nb, ns)


def _qu4_additive(nbar, ns):
    _additive_window(nbar)
    return float(np.log2((1.0 - nbar) / nbar)) if ns == np.inf else _qu4_additive_raw(nbar, ns)


def _ud_thermal(eta, nb, ns):
    """U_D, the conditional entropy of degradation, and its cap W'."""
    _thermal_half(eta, "the degrading construction")
    return _ud_thermal_raw(eta, nb, ns), (1.0 - eta) * ns + (1.0 + eta) * nb


def _ud_amp(g, nb, ns):
    if g <= 1.0:
        raise DomainError("amplifier eps-degradable bound requires gain > 1")
    _amp_not_eb(g, nb)
    return _ud_amp_raw(g, nb, ns), (g - 1.0) * ns + (1.0 + g) * nb


def _reference_thermal(eta, nb, ns):
    """Coherent information of the degradable (nb = 0) reference and W'."""
    _thermal_half(eta, "QU3")
    return _qu1_thermal_raw(eta, 0.0, ns), eta * ns + (1.0 - eta) * nb


def _reference_amp(g, nb, ns):
    _amp_not_eb(g, nb)
    return _qu1_amp_raw(g, 0.0, ns), g * ns + (g - 1.0) * nb


def _plob_thermal(eta, nb, ns):
    if eta == 1.0:
        return np.inf
    return float(-np.log2((1.0 - eta) * eta ** nb) - gc.g_entropy(nb))


def _plob_amp(g, nb, ns):
    if g == 1.0:
        return np.inf
    return float(np.log2(g ** (nb + 1.0) / (g - 1.0)) - gc.g_entropy(nb))


def _plob_additive(nbar, ns):
    _additive_window(nbar)
    return float((nbar - 1.0) / LN2 + np.log2(1.0 / nbar))


def _eps_degradable(ch):
    return chn.epsilon_degradable(ch).epsilon


def _eps_close_degradable(ch):
    return chn.epsilon_close_degradable(ch.params["nb"]).epsilon


# ---------------------------------------------------------------------------
# The evaluator and the channel-taking bounds
# ---------------------------------------------------------------------------

def _form(kind, ch):
    form = REGISTRY[kind].forms.get(ch.kind)
    if form is None:
        raise ChannelKindError(f"{kind} is not defined for {ch.kind!r} channels")
    return form


# A cell waiting for its minimization: the row's solver (_min_penalty, or
# _max_private for PL) takes a column's stacked `args` and returns (values,
# argopts); `finish` turns one cell's pair into its BoundResult.
_Pending = namedtuple("_Pending", "args finish")


def _cell(kind, row, ch, ns, eps_prime):
    """One cell up to its minimization: a BoundResult or a _Pending.  Checked
    in this order: ns, the channel kind, the form's regime; QL and PL check
    the channel kind first."""
    if row.lower:
        return _form(kind, ch)(*ch.params.values(), ns)
    _check_ns(ns)
    out = _form(kind, ch)(*ch.params.values(), ns)
    params = _params(ch, ns)
    if row.eps is None:
        return _result(kind, out, params)
    base, w_prime = out
    eps = row.eps(ch)
    params.update(eps=eps, w_prime=w_prime)

    def finish(pen, arg):
        params.update(eps_prime=arg, delta=(arg - eps) / (1.0 + arg))
        return _result(kind, base + pen, params, arg)

    if eps_prime is not None:
        pp = PenaltyParams(eps, float(eps_prime), w_prime, row.k)
        return finish(penalty(pp), pp.epsilon_prime)
    if eps == 0.0:
        # exactly degradable reference: the penalty infimum over eps' is 0,
        # unattained; report the limiting penalty-free value
        return _result(kind, base, params)
    return _Pending((eps, w_prime, row.k), finish)


def _row(kind, eps_prime):
    row = REGISTRY.get(kind)
    if row is None:
        raise DomainError(f"unknown bound kind {kind!r}")
    if eps_prime is not None and row.eps is None:
        takers = ", ".join(k for k, r in REGISTRY.items() if r.eps is not None)
        raise DomainError(f"eps_prime applies only to {takers}, not {kind}")
    return row


def _resolve(row, cells):
    """Finish the pending cells of `row` with one batch minimization."""
    pending = [i for i, c in enumerate(cells) if isinstance(c, _Pending)]
    if pending:
        solve = _max_private if row.eps is None else _min_penalty
        values, argopts = solve(*map(np.array, zip(*(cells[i].args for i in pending))))
        for i, v, a in zip(pending, values.tolist(), argopts.tolist()):
            cells[i] = cells[i].finish(v, a)
    return cells


def evaluate_column(kind: str, channels, ns_values) -> list:
    """Bound `kind` at each (channel, ns) cell from its registry row: a list
    of each cell's BoundResult or the BosonicBoundsError that rules it out.

    A penalized kind adds k times the continuity penalty, minimized over
    eps' in (eps, 1]; PL maximizes over the energy split.  The column's
    minimizations run as one :func:`minimize_batch` call.
    """
    row = _row(kind, None)
    cells = []
    for ch, ns in zip(channels, ns_values):
        try:
            cells.append(_cell(kind, row, ch, ns, None))
        except BosonicBoundsError as exc:
            cells.append(exc)
    return _resolve(row, cells)


def evaluate(kind: str, ch: chn.PhaseInsensitiveChannel, ns: float,
             eps_prime: float = None) -> BoundResult:
    """Bound `kind` at channel `ch` and input energy `ns`: the one-cell
    :func:`evaluate_column`, raising the cell's error instead of returning it.
    A penalized kind takes a fixed `eps_prime` in place of the minimization."""
    row = _row(kind, eps_prime)
    cell = _cell(kind, row, ch, ns, eps_prime)
    return _resolve(row, [cell])[0] if isinstance(cell, _Pending) else cell


def q_u1(ch: chn.PhaseInsensitiveChannel, ns: float) -> BoundResult:
    """Data-processing bound from the loss-then-amplifier decomposition."""
    return evaluate("QU1", ch, ns)


def q_u1_unconstrained(ch: chn.PhaseInsensitiveChannel) -> float:
    """Infinite-energy limit of QU1 (raw, unclamped)."""
    return _form("QU1", ch)(*ch.params.values(), np.inf)


def q_u4(ch: chn.PhaseInsensitiveChannel, ns: float) -> BoundResult:
    """Data-processing bound from the amplifier-then-loss decomposition."""
    return evaluate("QU4", ch, ns)


def q_u4_unconstrained(ch: chn.PhaseInsensitiveChannel) -> float:
    """Infinite-energy limit of QU4 (raw, unclamped)."""
    return _form("QU4", ch)(*ch.params.values(), np.inf)


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

def _max_private(eta, nb, ns):
    """max over n2 in [0, ns] of I_c(ns) - I_c(n2), one batch over the
    arrays; (values, argmax).  The coherent-information dip sits at small
    absolute photon numbers, so the seeds run log-spaced down to ~1e-12 and 0."""
    icns = _ql_thermal_raw(eta, nb, ns)
    grids = [np.concatenate(([0.0], np.geomspace(min(1e-12, s), s, 63))) for s in ns]

    def objective(x, r):
        # -(icns - ql), not ql - icns: a zero maximum then reports 0.0, not -0.0
        return -(icns[r, None] - _ql_thermal_raw(eta[r, None], nb[r, None], x))

    res = minimize_batch(objective, 0.0, ns, grids)
    return -res.value, res.arg


def _pl_cell(eta, nb, ns):
    """The PL form: a BoundResult at ns = 0, else the pending maximization."""
    _check_ns(ns)
    params = {"channel": "thermal", "eta": eta, "nb": nb, "ns": ns}
    if ns == 0.0:
        return _result("PL", 0.0, params, argopt=0.0)
    return _Pending((eta, nb, ns), lambda value, arg: _result("PL", value, params, argopt=arg))


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
    _require(eta <= 1.0, "eta must lie in [1/2, 1]", eta)
    _thermal_half(eta, "the gap law")
    _check_point(nb, ns)
    return float(_qu1_thermal_raw(eta, nb, ns) - _ql_thermal_raw(eta, nb, ns))


def gaussian_c_distance(a: chn.PhaseInsensitiveChannel,
                        b: chn.PhaseInsensitiveChannel, ns: float) -> float:
    """Gaussian energy-constrained channel C-distance sqrt(1 - F) at the
    two-mode squeezed vacuum input saturating the energy constraint.

    Both channels must share tau (the same X matrix), the hypothesis under
    which the TMS input is optimal among Gaussian states.
    """
    if abs(a.tau - b.tau) > 1e-12:
        raise DomainError("gaussian_c_distance requires channels with equal tau")
    _check_ns(ns)
    probe = gc.tms_state(ns)
    out_a = a.apply(probe, modes=(1,))
    out_b = b.apply(probe, modes=(1,))
    fid = gc.two_mode_fidelity(out_a, out_b)
    return float(np.sqrt(max(1.0 - fid, 0.0)))


# ---------------------------------------------------------------------------
# Bound registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundKind:
    """One row of :data:`REGISTRY`.

    `forms` maps each supported channel kind to the kind's form there, a
    function of (channel parameters..., ns); `clamp` marks the kinds that
    report max{0, raw} as their value.  The penalized kinds (QU2, QU3, PU2,
    PU3) carry `eps`, the diamond-distance parameter of a channel, and the
    penalty multiplier `k`; only they accept a fixed eps'.  The forms of the
    `lower` rows check their point after the channel kind (PL only ns: its
    channel has checked eta and nb) and return the whole
    :class:`BoundResult`, or for PL the pending energy-split maximization.
    """

    forms: dict
    clamp: bool
    eps: Callable | None = None
    k: int = 0
    lower: bool = False


_QU1 = {"thermal": _qu1_thermal, "amplifier": _qu1_amp, "additive": _qu1_additive}
_DEG = {"thermal": _ud_thermal, "amplifier": _ud_amp}
_CLOSE = {"thermal": _reference_thermal, "amplifier": _reference_amp}

REGISTRY = {
    "QL": BoundKind({"thermal": q_lower_thermal, "amplifier": q_lower_amp}, True, lower=True),
    "QU1": BoundKind(_QU1, True),
    "QU2": BoundKind(_DEG, False, _eps_degradable, 1),
    "QU3": BoundKind(_CLOSE, False, _eps_close_degradable, 2),
    "QU4": BoundKind({"thermal": _qu4_thermal, "additive": _qu4_additive}, True),
    "PU1": BoundKind(_QU1, True),
    "PU2": BoundKind(_DEG, False, _eps_degradable, 3),
    "PU3": BoundKind(_CLOSE, False, _eps_close_degradable, 4),
    "PL": BoundKind({"thermal": _pl_cell}, False, lower=True),
    "PLOB": BoundKind({"thermal": _plob_thermal, "amplifier": _plob_amp,
                       "additive": _plob_additive}, False),
    "RMG": BoundKind({"thermal": _rmg_thermal}, True),
}
