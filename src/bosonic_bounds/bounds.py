"""Energy-constrained quantum and private capacity bounds.

All closed-form bounds for thermal, amplifier, and additive-noise channels,
the shared continuity penalty of the approximate-degradability bounds, the
coherent-information lower bounds, the displaced-thermal private lower
bound, unconstrained limits, and comparison bounds from prior work.
:data:`REGISTRY` holds one row per bound kind: its channel kinds, its
clamp, and how it is evaluated at a channel.

Formulas are evaluated in natural log internally and converted to bits
once; the D^2 discriminants are computed in factored form and the g
arguments in rationalized form, so the large-energy regime is free of
catastrophic cancellation.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import channels as chn
from . import gaussian_core as gc
from .errors import ChannelKindError, DomainError, InfeasibleBoundError, _require
from .gaussian_core import LN2
from .optimize import DEFAULT_GRID_POINTS, minimize_scalar

__all__ = [
    "PenaltyParams", "BoundResult", "BoundKind", "REGISTRY", "penalty",
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


def _penalty_eval(eps: float, eps_prime, w_prime: float, k: int):
    """Vectorized penalty; +inf wherever delta <= 0."""
    e = np.asarray(eps_prime, dtype=float)
    scalar = e.ndim == 0
    e = np.atleast_1d(e)
    delta = (e - eps) / (1.0 + e)
    out = np.full(e.shape, np.inf)
    ok = delta > 0.0
    d = delta[ok]
    eo = e[ok]
    out[ok] = k * ((2.0 * eo + 4.0 * d) * _gn(w_prime / d)
                   + _gn(eo)
                   + 2.0 * (-(d * np.log(d) + (1.0 - d) * np.log1p(-d)))) / LN2
    return float(out[0]) if scalar else out


def penalty(p: PenaltyParams) -> float:
    """k [ (2 eps' + 4 delta) g(W'/delta) + g(eps') + 2 h2(delta) ] in bits,
    with delta = (eps' - eps)/(1 + eps'); +inf if delta degenerates."""
    return _penalty_eval(p.epsilon, p.epsilon_prime, p.w_prime, p.k)


def _min_penalty(eps: float, w_prime: float, k: int):
    """Minimize the penalty over eps' in (eps, 1]; (value, argmin).  The
    penalty diverges as eps' -> eps, so the open end is moved in by 1e-12
    and the seed grid is log-spaced towards it."""
    lo = min(eps + 1e-12, 1.0)
    res = minimize_scalar(lambda x: _penalty_eval(eps, x, w_prime, k), lo, 1.0,
                          seed_grid=np.geomspace(lo, 1.0, DEFAULT_GRID_POINTS))
    return res.value, res.arg


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


def _on_channel(kind, ch):
    if ch.kind not in REGISTRY[kind].channels:
        raise ChannelKindError(f"{kind} is not defined for {ch.kind!r} channels")


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
# Data-processing bounds
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


def _amp_then_loss_limit(eta, nb):
    """log2((eta - (1-eta) nb) / ((1-eta)(nb+1))): unconstrained QU4 and RMG."""
    _amp_then_loss(eta, nb)
    if eta == 1.0:
        return np.inf
    return float(np.log2((eta - (1.0 - eta) * nb) / ((1.0 - eta) * (nb + 1.0))))


def q_u1(ch: chn.PhaseInsensitiveChannel, ns: float) -> BoundResult:
    """Data-processing bound from the loss-then-amplifier decomposition."""
    _check_ns(ns)
    _on_channel("QU1", ch)
    p = _params(ch, ns)
    if ch.kind == "thermal":
        _thermal_half(p["eta"], "QU1")
        raw = _qu1_thermal_raw(p["eta"], p["nb"], ns)
    elif ch.kind == "amplifier":
        _amp_not_eb(p["g"], p["nb"])
        raw = _qu1_amp_raw(p["g"], p["nb"], ns)
    else:
        _additive_window(p["nbar"])
        raw = _qu1_additive_raw(p["nbar"], ns)
    return _result("QU1", raw, p)


def q_u1_unconstrained(ch: chn.PhaseInsensitiveChannel) -> float:
    """Infinite-energy limit of QU1 (raw, unclamped)."""
    _on_channel("QU1", ch)
    if ch.kind == "thermal":
        eta, nb = ch.params["eta"], ch.params["nb"]
        _thermal_half(eta, "QU1")
        if eta == 1.0:
            return np.inf
        return float(np.log2(eta / (1.0 - eta)) - np.log2(nb + 1.0))
    if ch.kind == "amplifier":
        g, nb = ch.params["g"], ch.params["nb"]
        _amp_not_eb(g, nb)
        if g == 1.0:
            return np.inf
        return float(np.log2(g / (g - 1.0)) - np.log2(nb + 1.0))
    _additive_window(ch.params["nbar"])
    return float(np.log2(1.0 / ch.params["nbar"]))


def q_u4(ch: chn.PhaseInsensitiveChannel, ns: float) -> BoundResult:
    """Data-processing bound from the amplifier-then-loss decomposition."""
    _check_ns(ns)
    _on_channel("QU4", ch)
    p = _params(ch, ns)
    if ch.kind == "thermal":
        _amp_then_loss(p["eta"], p["nb"])
        raw = _qu4_thermal_raw(p["eta"], p["nb"], ns)
    else:
        _additive_window(p["nbar"])
        raw = _qu4_additive_raw(p["nbar"], ns)
    return _result("QU4", raw, p)


def q_u4_unconstrained(ch: chn.PhaseInsensitiveChannel) -> float:
    """Infinite-energy limit of QU4 (raw, unclamped)."""
    _on_channel("QU4", ch)
    if ch.kind == "thermal":
        return _amp_then_loss_limit(ch.params["eta"], ch.params["nb"])
    nbar = ch.params["nbar"]
    _additive_window(nbar)
    return float(np.log2((1.0 - nbar) / nbar))


# ---------------------------------------------------------------------------
# Approximate-degradability bounds
# ---------------------------------------------------------------------------

def _degrading_base(ch, ns):
    """U_D, the conditional entropy of degradation, and its cap W'."""
    if ch.kind == "thermal":
        eta, nb = ch.params["eta"], ch.params["nb"]
        _thermal_half(eta, "the degrading construction")
        return _ud_thermal_raw(eta, nb, ns), (1.0 - eta) * ns + (1.0 + eta) * nb
    g, nb = ch.params["g"], ch.params["nb"]
    if g <= 1.0:
        raise DomainError("amplifier eps-degradable bound requires gain > 1")
    _amp_not_eb(g, nb)
    return _ud_amp_raw(g, nb, ns), (g - 1.0) * ns + (1.0 + g) * nb


def _reference_base(ch, ns):
    """Coherent information of the degradable (nb = 0) reference and W'."""
    if ch.kind == "thermal":
        eta, nb = ch.params["eta"], ch.params["nb"]
        _thermal_half(eta, "QU3")
        return _qu1_thermal_raw(eta, 0.0, ns), eta * ns + (1.0 - eta) * nb
    g, nb = ch.params["g"], ch.params["nb"]
    _amp_not_eb(g, nb)
    return _qu1_amp_raw(g, 0.0, ns), g * ns + (g - 1.0) * nb


def _eps_degradable(ch):
    return chn.epsilon_degradable(ch).epsilon


def _eps_close_degradable(ch):
    return chn.epsilon_close_degradable(ch.params["nb"]).epsilon


def _penalized(kind, ch, ns, eps_prime):
    """Base term plus k times the continuity penalty, with the base, eps
    source and k of the kind's registry row; eps' is minimized over
    (eps, 1] unless supplied."""
    _check_ns(ns)
    _on_channel(kind, ch)
    base_of, eps_of, k = REGISTRY[kind].penalty
    base, w_prime = base_of(ch, ns)
    eps = eps_of(ch)
    params = {**_params(ch, ns), "eps": eps, "w_prime": w_prime}
    if eps_prime is not None:
        pp = PenaltyParams(eps, float(eps_prime), w_prime, k)
        params.update(eps_prime=pp.epsilon_prime, delta=pp.delta)
        return _result(kind, base + penalty(pp), params, pp.epsilon_prime)
    if eps == 0.0:
        # exactly degradable reference: the penalty infimum over eps' is 0,
        # unattained; report the limiting penalty-free value
        return _result(kind, base, params)
    pen, arg = _min_penalty(eps, w_prime, k)
    params.update(eps_prime=arg, delta=(arg - eps) / (1.0 + arg))
    return _result(kind, base + pen, params, arg)


def q_u2(ch: chn.PhaseInsensitiveChannel, ns: float, eps_prime: float = None) -> BoundResult:
    """eps-degradable bound: U_D plus the k=1 continuity penalty, minimized
    over eps' in (eps, 1] unless eps_prime is supplied."""
    return _penalized("QU2", ch, ns, eps_prime)


def q_u3(ch: chn.PhaseInsensitiveChannel, ns: float, eps_prime: float = None) -> BoundResult:
    """eps-close-degradable bound: the degradable reference's coherent
    information plus the k=2 penalty with eps = nb/(nb+1)."""
    return _penalized("QU3", ch, ns, eps_prime)


def p_bounds(ch: chn.PhaseInsensitiveChannel, ns: float, which: str,
             eps_prime: float = None) -> BoundResult:
    """Private-capacity upper bounds PU1, PU2, PU3.

    PU1 shares the QU1 closed form; PU2 is U_D with the k=3 penalty; PU3 is
    the degradable reference with the k=4 penalty.
    """
    if which == "PU1":
        r = q_u1(ch, ns)
        return BoundResult("PU1", r.value, r.raw, r.argopt, r.params)
    if which in ("PU2", "PU3"):
        return _penalized(which, ch, ns, eps_prime)
    raise DomainError(f"unknown private bound {which!r}")


# ---------------------------------------------------------------------------
# Private lower bound (displaced thermal ensemble)
# ---------------------------------------------------------------------------

def _pl_seed_grid(ns: float) -> np.ndarray:
    # the coherent-information dip sits at small absolute photon numbers, so
    # seed logarithmically down to ~1e-12 in addition to the endpoints
    return np.concatenate(([0.0], np.geomspace(min(1e-12, ns), ns, 63)))


def p_lower_displaced(eta: float, nb: float, ns: float) -> BoundResult:
    """Private-rate lower bound from displaced thermal inputs:
    max over n2 in [0, ns] of I_c(ns) - I_c(n2); argopt records n2*."""
    if not 0.0 < eta <= 1.0:
        raise DomainError("thermal channel requires eta in (0, 1]")
    _check_point(nb, ns)
    params = {"channel": "thermal", "eta": eta, "nb": nb, "ns": ns}
    icns = _ql_thermal_raw(eta, nb, ns)
    if ns == 0.0:
        return _result("PL", 0.0, params, argopt=0.0)
    # -(icns - ql), not ql - icns: a zero maximum then reports 0.0, not -0.0
    res = minimize_scalar(lambda x: -(icns - _ql_thermal_raw(eta, nb, x)),
                          0.0, ns, seed_grid=_pl_seed_grid(ns))
    return _result("PL", -res.value, params, argopt=res.arg)


# ---------------------------------------------------------------------------
# Comparison bounds and derived quantities
# ---------------------------------------------------------------------------

def _rmg_raw(ch):
    _on_channel("RMG", ch)
    return _amp_then_loss_limit(ch.params["eta"], ch.params["nb"])


def comparison_bounds(ch: chn.PhaseInsensitiveChannel, which: str) -> float:
    """Unconstrained comparison bounds from prior work, in bits.

    PLOB_* values are reported as stated; RMG carries its max{0, .} clamp.
    """
    if which == "PLOB_thermal":
        if ch.kind != "thermal":
            raise ChannelKindError("PLOB_thermal needs a thermal channel")
        eta, nb = ch.params["eta"], ch.params["nb"]
        if eta == 1.0:
            return np.inf
        return float(-np.log2((1.0 - eta) * eta ** nb) - gc.g_entropy(nb))
    if which == "PLOB_amp":
        if ch.kind != "amplifier":
            raise ChannelKindError("PLOB_amp needs an amplifier channel")
        g, nb = ch.params["g"], ch.params["nb"]
        if g == 1.0:
            return np.inf
        return float(np.log2(g ** (nb + 1.0) / (g - 1.0)) - gc.g_entropy(nb))
    if which == "PLOB_addnoise":
        if ch.kind != "additive":
            raise ChannelKindError("PLOB_addnoise needs an additive-noise channel")
        nbar = ch.params["nbar"]
        _additive_window(nbar)
        return float((nbar - 1.0) / LN2 + np.log2(1.0 / nbar))
    if which == "RMG":
        return _clamp("RMG", _rmg_raw(ch))
    raise DomainError(f"unknown comparison bound {which!r}")


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

    `channels` lists the supported channel kinds and `clamp` marks the kinds
    that report max{0, raw} as their value.  `evaluate(ch, ns, eps_prime)`
    computes the bound at a channel through the public function of the kind.
    The approximate-degradability kinds carry `penalty` = (base, eps, k):
    base(ch, ns) gives the base term in bits with its output-energy cap W',
    eps(ch) the diamond-distance parameter, k the penalty multiplier.  Only
    these kinds accept a fixed eps'.
    """

    channels: tuple
    clamp: bool
    evaluate: Callable
    penalty: tuple | None = None

    @property
    def eps_prime(self) -> bool:
        return self.penalty is not None


def _ql_at(ch, ns, eps_prime):
    _on_channel("QL", ch)
    if ch.kind == "thermal":
        return q_lower_thermal(ch.params["eta"], ch.params["nb"], ns)
    return q_lower_amp(ch.params["g"], ch.params["nb"], ns)


def _pl_at(ch, ns, eps_prime):
    _on_channel("PL", ch)
    return p_lower_displaced(ch.params["eta"], ch.params["nb"], ns)


_PLOB_OF = {"thermal": "PLOB_thermal", "amplifier": "PLOB_amp", "additive": "PLOB_addnoise"}


def _plob_at(ch, ns, eps_prime):
    _check_ns(ns)
    _on_channel("PLOB", ch)
    return _result("PLOB", comparison_bounds(ch, _PLOB_OF[ch.kind]), _params(ch, ns))


def _rmg_at(ch, ns, eps_prime):
    _check_ns(ns)
    # the raw closed form, which comparison_bounds clamps away
    return _result("RMG", _rmg_raw(ch), _params(ch, ns))


_TA = ("thermal", "amplifier")
_ALL = ("thermal", "amplifier", "additive")
_DEG = (_degrading_base, _eps_degradable)
_CLOSE = (_reference_base, _eps_close_degradable)

REGISTRY = {
    "QL": BoundKind(_TA, True, _ql_at),
    "QU1": BoundKind(_ALL, True, lambda ch, ns, e: q_u1(ch, ns)),
    "QU2": BoundKind(_TA, False, lambda ch, ns, e: q_u2(ch, ns, e), (*_DEG, 1)),
    "QU3": BoundKind(_TA, False, lambda ch, ns, e: q_u3(ch, ns, e), (*_CLOSE, 2)),
    "QU4": BoundKind(("thermal", "additive"), True, lambda ch, ns, e: q_u4(ch, ns)),
    "PU1": BoundKind(_ALL, True, lambda ch, ns, e: p_bounds(ch, ns, "PU1")),
    "PU2": BoundKind(_TA, False, lambda ch, ns, e: p_bounds(ch, ns, "PU2", e), (*_DEG, 3)),
    "PU3": BoundKind(_TA, False, lambda ch, ns, e: p_bounds(ch, ns, "PU3", e), (*_CLOSE, 4)),
    "PL": BoundKind(("thermal",), False, _pl_at),
    "PLOB": BoundKind(_ALL, False, _plob_at),
    "RMG": BoundKind(("thermal",), True, _rmg_at),
}
