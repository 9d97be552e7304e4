"""Single-mode phase-insensitive Gaussian channel algebra.

A phase-insensitive channel acts on a single-mode covariance matrix as
V -> tau V + nu I and is represented canonically by the pair (tau, nu);
the named parameters of the three physical families are kept as a tag for
formula dispatch:

    thermal(eta, nb):      tau = eta,  nu = (1-eta)(2 nb + 1)
    amplifier(g, nb):      tau = g,    nu = (g-1)(2 nb + 1)
    additive_noise(nbar):  tau = 1,    nu = 2 nbar

The module also builds the degrading and simulating channel constructions
used by the approximate-degradability bounds, and checks their equality at
the covariance level.  They take one channel, or a column of one kind (as
:func:`bounds.evaluate_column` does) with stacked inputs to match, and check
every element of the stack as they check one channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gaussian_core as gc
from .errors import (
    ChannelKindError,
    DomainError,
    InfeasibleBoundError,
    InvalidChannelError,
    InvalidStateError,
    _reals,
    _require,
)
from .gaussian_core import noisy_tms_qblocks  # omega(nb), the simulating channel's environment

_EB_SLACK = 1e-12


@dataclass(frozen=True, init=False)
class PhaseInsensitiveChannel:
    """Canonical (tau, nu) form of a phase-insensitive channel."""

    tau: float
    nu: float
    kind: str = "raw"
    params: dict = field(default_factory=dict)

    def __init__(self, tau, nu, kind="raw", params=None):
        if type(tau) is not float or type(nu) is not float:  # the named constructors pass floats
            tau, nu = _reals("phase-insensitive channel", "tau nu", tau, nu)
        cptp = nu >= -1e-12 and nu * nu >= (1.0 - tau) * (1.0 - tau) - 1e-9
        # _require only raises: NaN fails every comparison, and a finite nu
        # with cptp bounds (1 - tau)^2, so tau is finite too
        if not (cptp and nu < math.inf):
            if kind != "raw" and not math.isfinite(nu):  # its constructor checked the parameters
                raise DomainError(f"{kind} channel {params}: nu = {nu} overflows float64")
            _require(cptp, "CPTP violated: need nu >= 0 and nu^2 >= (1-tau)^2, got tau={}, nu={}",
                     tau, nu, error=InvalidChannelError)
        # one __dict__ write, a third of the cost of object.__setattr__ per field
        self.__dict__.update(tau=tau, nu=max(nu, 0.0), kind=kind,
                             params={} if params is None else dict(params))

    @property
    def X(self) -> np.ndarray:
        return np.sqrt(self.tau) * np.eye(2)

    @property
    def Y(self) -> np.ndarray:
        return self.nu * np.eye(2)

    def apply(self, state: gc.GaussianState, modes=None) -> gc.GaussianState:
        """Act on one mode of `state` (all of a single-mode state by default)."""
        if modes is None and state.modes != 1:
            raise DomainError("specify `modes` when acting on a multimode state")
        return gc.apply_gaussian_channel(self.X, self.Y, None, state, modes=modes)


def _nu(x, nb):
    """nu = x (2 nb + 1) for x = 1 - eta or g - 1; exactly 0 at x = 0 (the
    identity channel), also where 2 nb + 1 overflows and 0 * inf is nan."""
    return 0.0 if x == 0.0 else x * (2.0 * nb + 1.0)


def thermal(eta: float, nb: float) -> PhaseInsensitiveChannel:
    """Thermal channel: beamsplitter of transmissivity eta mixing the input
    with a thermal environment of mean photon number nb."""
    eta, nb = _reals("thermal channel", "eta nb", eta, nb)
    if not 0.0 < eta <= 1.0:
        raise DomainError("thermal channel requires eta in (0, 1]")
    if not 0.0 <= nb < math.inf:
        _require(nb >= 0.0, "environment photon number must be >= 0", nb)
    return PhaseInsensitiveChannel(eta, _nu(1.0 - eta, nb), "thermal", {"eta": eta, "nb": nb})


def pure_loss(eta: float) -> PhaseInsensitiveChannel:
    return thermal(eta, 0.0)


def amplifier(g: float, nb: float) -> PhaseInsensitiveChannel:
    """Noisy amplifier channel: two-mode squeezer of gain g with a thermal
    environment of mean photon number nb."""
    g, nb = _reals("amplifier channel", "g nb", g, nb)
    if not 1.0 <= g < math.inf:
        _require(g >= 1.0, "amplifier gain must be >= 1", g)
    if not 0.0 <= nb < math.inf:
        _require(nb >= 0.0, "environment photon number must be >= 0", nb)
    return PhaseInsensitiveChannel(g, _nu(g - 1.0, nb), "amplifier", {"g": g, "nb": nb})


def additive_noise(nbar: float) -> PhaseInsensitiveChannel:
    """Additive-noise channel: random Gaussian displacements adding nbar
    noise photons (tau = 1, nu = 2 nbar)."""
    nbar, = _reals("additive-noise channel", "nbar", nbar)
    if not 0.0 < nbar < math.inf:
        _require(nbar > 0.0, "additive noise variance must be > 0", nbar)
    return PhaseInsensitiveChannel(1.0, 2.0 * nbar, "additive", {"nbar": nbar})


def raw_channel(tau: float, nu: float) -> PhaseInsensitiveChannel:
    return PhaseInsensitiveChannel(tau, nu, "raw", {})


# Each channel kind's constructor and its parameters in order; nb defaults to 0.
_KINDS = {"thermal": (thermal, ("eta", "nb")), "amplifier": (amplifier, ("g", "nb")),
          "additive": (additive_noise, ("nbar",)), "raw": (raw_channel, ("tau", "nu"))}


def make_channel(kind: str, **params) -> PhaseInsensitiveChannel:
    """Dispatching constructor: kind in {thermal, amplifier, additive, raw};
    nb defaults to 0 and other parameters are ignored."""
    if kind not in _KINDS:
        raise ChannelKindError(f"unknown channel kind {kind!r}")
    build, names = _KINDS[kind]
    params = {"nb": 0.0, **params}
    missing = [name for name in names if name not in params]
    if missing:
        raise DomainError(f"{kind} channel requires {missing[0]}")
    return build(*(params[name] for name in names))


def is_entanglement_breaking(ch: PhaseInsensitiveChannel) -> bool:
    """True iff nu >= tau + 1; the boundary counts as breaking."""
    return ch.nu >= ch.tau + 1.0 - _EB_SLACK


def compose_channels(first: PhaseInsensitiveChannel,
                     second: PhaseInsensitiveChannel) -> PhaseInsensitiveChannel:
    """Serial concatenation second after first, in (tau, nu) arithmetic."""
    return raw_channel(second.tau * first.tau, second.tau * first.nu + second.nu)


# ---------------------------------------------------------------------------
# Canonical decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    """A two-stage factorization of a phase-insensitive channel."""

    first: PhaseInsensitiveChannel
    second: PhaseInsensitiveChannel
    order: str  # "loss_then_amp" | "amp_then_loss"

    def recompose(self) -> PhaseInsensitiveChannel:
        return compose_channels(self.first, self.second)


def decompose_loss_then_amp(ch: PhaseInsensitiveChannel) -> Decomposition:
    """Factor a thermal channel as pure loss followed by a quantum-limited
    amplifier: gain G = (1-eta) nb + 1 and loss eta' = eta / G."""
    if ch.kind != "thermal":
        raise ChannelKindError(f"decompose_loss_then_amp requires a thermal channel, "
                               f"got {ch.kind!r}")
    eta, nb = ch.params["eta"], ch.params["nb"]
    g = (1.0 - eta) * nb + 1.0
    dec = Decomposition(pure_loss(eta / g), amplifier(g, 0.0), "loss_then_amp")
    _check_recomposition(dec, ch)
    return dec


def decompose_amp_then_loss(ch: PhaseInsensitiveChannel) -> Decomposition:
    """Factor any non-entanglement-breaking phase-insensitive channel as a
    quantum-limited amplifier followed by pure loss, with
    eta = (tau + 1 - nu)/2 and G = tau / eta."""
    if is_entanglement_breaking(ch):
        raise InfeasibleBoundError(
            f"channel is entanglement-breaking (nu={ch.nu:.6g} >= tau+1="
            f"{ch.tau + 1.0:.6g}); the amp-then-loss decomposition does not exist"
        )
    eta = (ch.tau + 1.0 - ch.nu) / 2.0
    g = ch.tau / eta
    # rounding at the pure-loss boundary (nu = 1 - tau) can push g a few ulp
    # below 1 or eta above 1
    if 1.0 - 1e-12 < g < 1.0:
        g = 1.0
    if 1.0 < eta < 1.0 + 1e-12:
        eta = 1.0
    dec = Decomposition(amplifier(g, 0.0), pure_loss(eta), "amp_then_loss")
    _check_recomposition(dec, ch)
    return dec


def _check_recomposition(dec: Decomposition, ch: PhaseInsensitiveChannel):
    re = dec.recompose()
    if abs(re.tau - ch.tau) > 1e-12 * max(1.0, abs(ch.tau)) or \
       abs(re.nu - ch.nu) > 1e-12 * max(1.0, abs(ch.nu)):
        raise InvalidChannelError("decomposition failed to recompose")  # pragma: no cover


# ---------------------------------------------------------------------------
# Approximate degradability parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsilonReport:
    """Diamond-distance bound: method tag plus upper (and optional lower)."""

    epsilon: float
    lower: float | None
    method: str

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise DomainError("epsilon must lie in [0, 1]")
        if self.lower is not None and self.lower > self.epsilon + 1e-12:
            raise DomainError("lower bound exceeds upper bound")


def kappa(x: float, nb: float) -> float:
    """kappa(x, nb) = x^2 + nb(nb+1) [1 + 3x^2 - 2x(1 + sqrt(2x-1))].

    x is the thermal transmissivity (x in [1/2, 1]) or amplifier gain
    (x >= 1).  In both regimes the bracket is nonnegative in exact
    arithmetic, with a double root at x = 1; in floats it cancels near
    there (-4.4e-16 at x = 1 - 2^-53, where it is 2.5e-32), which ROADMAP
    item E's factored bracket removes.  x and nb are taken in float64, nb
    finite and >= 0.  A result that is not finite (nb(nb+1) overflows from
    nb = 1.3e154) raises DomainError."""
    x, nb = _reals("kappa", "x nb", x, nb)
    _require(x >= 0.5, "kappa requires x >= 1/2", x, nb)
    _require(nb >= 0.0, "environment photon number must be >= 0", nb)
    if not np.isfinite(k := _kappa(x, nb)):
        raise DomainError(f"kappa({x}, nb={nb}) is {k} in float64: nb is too large")
    return k


def _kappa(x, nb):
    return x * x + nb * (nb + 1.0) * (1.0 + 3.0 * x * x - 2.0 * x * (1.0 + gc._sqrt(2.0 * x - 1.0)))


def _eps_degradable(x, nb):
    """:func:`epsilon_degradable`'s eps over arrays of x >= 1/2 and nb, or floats."""
    return gc._sqrt(gc._maximum(1.0 - x * x / _kappa(x, nb), 0.0))


def epsilon_degradable(ch: PhaseInsensitiveChannel) -> EpsilonReport:
    """Diamond-distance bound between the complementary channel and the
    degrading construction: eps = sqrt(1 - x^2 / kappa(x, nb))."""
    if ch.kind == "thermal":
        x, nb = ch.params["eta"], ch.params["nb"]
        if x < 0.5:
            raise DomainError("epsilon_degradable requires eta in [1/2, 1]")
    elif ch.kind == "amplifier":
        x, nb = ch.params["g"], ch.params["nb"]
        if x <= 1.0:
            raise DomainError("epsilon_degradable requires amplifier gain > 1")
    else:
        raise ChannelKindError("epsilon_degradable applies to thermal or amplifier channels")
    return EpsilonReport(float(_eps_degradable(x, nb)), None, "eps_degradable")


def epsilon_close_degradable(nb: float) -> EpsilonReport:
    """Diamond distance from a thermal (or amplifier) channel to its
    quantum-limited counterpart, in float64: upper nb/(nb+1), lower 1 - 1/sqrt(nb+1)."""
    nb, = _reals("epsilon_close_degradable", "nb", nb)
    _require(nb >= 0.0, "environment photon number must be >= 0", nb)
    return EpsilonReport(nb / (nb + 1.0), 1.0 - 1.0 / math.sqrt(nb + 1.0),
                         "eps_close_degradable")


# ---------------------------------------------------------------------------
# Degrading / simulating channel constructions
# ---------------------------------------------------------------------------

def _column_params(channels):
    """(kind, x = tau, nb) of a thermal or amplifier channel, or arrays over a column of one kind."""
    one = isinstance(channels, PhaseInsensitiveChannel)
    column = [channels] if one else channels
    kinds = {ch.kind for ch in column}
    if len(kinds) != 1 or not kinds <= {"thermal", "amplifier"}:
        raise ChannelKindError("dilation constructions need thermal or amplifier channels "
                               f"of one kind, got {sorted(kinds)}")
    x, nb = np.array([(ch.tau, ch.params["nb"]) for ch in column]).T
    return (kinds.pop(), x[0], nb[0]) if one else (kinds.pop(), x, nb)


def _dilation(input_cov, pairs, steps, modes=None) -> np.ndarray:
    """Block-ordered covariance of a Gaussian dilation on `modes` (all for None).

    `input_cov` (..., 2n, 2n) holds r = n - 1 reference modes, then the input
    mode A.  The environment `pairs` of (q, p) blocks take the modes after A;
    the symplectic `steps` (S, (i, j)), i and j counted from A, act in order
    on their two modes.  Only the rows T of the steps' product that `modes` read
    are formed, the steps in reverse on four columns each; T V0 T^T is summed over
    V0's blocks, T_in V_in T_in^T + sum_k T_k P_k T_k^T over pairs k.  Stacks broadcast.
    """
    covs = np.asarray(input_cov, dtype=float)
    a = covs.shape[-1] // 2 - 1
    m = a + 1 + 2 * len(pairs)
    try:
        np.broadcast_shapes(covs.shape[:-2], *(np.shape(x)[:-2] for x, _ in [*pairs, *steps]))
    except ValueError:
        raise DomainError("the input stack does not match the channel column") from None
    rows = np.eye(2 * m)[gc._block_index(range(m) if modes is None else modes, m)]
    T = np.broadcast_to(rows, np.broadcast_shapes(*(np.shape(S)[:-2] for S, _ in steps)) + rows.shape).copy()
    for S, (i, j) in reversed(steps):
        ix = gc._block_index((a + i, a + j), m)
        T[..., ix] = T[..., ix] @ S
    Tin = T[..., gc._block_index(range(a + 1), m)]
    V = Tin @ covs @ np.swapaxes(Tin, -1, -2)
    for k, (q, p) in enumerate(pairs):
        Tk = T[..., gc._block_index((a + 1 + 2 * k, a + 2 + 2 * k), m)]
        V = V + Tk @ gc._pair_cov(q, p) @ np.swapaxes(Tk, -1, -2)
    return V


def _channel_step(kind, x):
    """The dilation step of channels of parameters x: their beamsplitter or
    two-mode squeezer on the input mode A and the environment mode after it."""
    S = gc.beamsplitter_symplectic("B", x) if kind == "thermal" else gc.two_mode_squeezer_symplectic(x)
    return S, (0, 1)


def degrading_dilation_cov(ch, input_cov: np.ndarray):
    """Covariance after the channel dilation followed by the degrading
    channel's dilation.

    `input_cov` is the full block-ordered covariance over r >= 0 reference
    modes plus the channel input mode (the input mode comes last), or a
    stack of them with shape (..., 2r + 2, 2r + 2).  `ch` is one thermal
    or amplifier channel, or a sequence of channels of one such kind with
    one input per channel.  Returns (V, labels) with V over
    r + 5 modes and labels mapping 'E2p', 'G', 'E1p', 'E2', 'E1' (and
    'refs') to mode slots.
    """
    return _degrading(*_column_params(ch), *_reals("degrading_dilation_cov", "input_cov", input_cov,
                                                  arrays=True))


def _degrading(kind, x, nb, input_cov, modes=None):
    """:func:`degrading_dilation_cov` of the parameters (kind, x, nb); V on the labels `modes`."""
    if kind == "thermal":
        if np.any(x < 0.5):
            raise DomainError("degrading construction needs eta in [1/2, 1]")
        # B' of transmissivity (1-eta)/eta on (B, F); outputs E'2 then G
        degrade = (gc.beamsplitter_symplectic("Bprime", (1.0 - x) / x), (0, 3))
        slots = {"E2p": 0, "G": 3}
    else:
        # two-mode squeezer of parameter (2G-1)/G with F as the signal input
        # and the channel output B as the environment port
        degrade = (gc.two_mode_squeezer_symplectic((2.0 * x - 1.0) / x), (3, 0))
        slots = {"E2p": 3, "G": 0}
    # modes after the input: (E2, E1) and (F, E'1), each a purified thermal
    # environment
    tms = gc.tms_qblocks(nb)
    return _labelled(input_cov, [tms, tms], [_channel_step(kind, x), degrade],
                     {**slots, "E1p": 4, "E2": 1, "E1": 2}, modes)


def simulating_channel_cov(ch, input_cov: np.ndarray):
    """Covariance after the simulating channel: the channel unitary fed with
    the noisy TMS environment omega(nb); the channel output port is traced
    conceptually (it stays in slot 'B').  Takes a channel column and stacked
    input covariances like :func:`degrading_dilation_cov`.

    Returns (V, labels) with V over r + 3 modes; labels map 'B', 'E2', 'E1'.
    """
    return _simulating(*_column_params(ch), *_reals("simulating_channel_cov", "input_cov", input_cov,
                                                    arrays=True))


def _simulating(kind, x, nb, input_cov, modes=None):
    """:func:`simulating_channel_cov` of the parameters (kind, x, nb); V on the labels `modes`."""
    return _labelled(input_cov, [noisy_tms_qblocks(nb, x)], [_channel_step(kind, x)],
                     {"B": 0, "E2": 1, "E1": 2}, modes)


def _labelled(input_cov, pairs, steps, slots, modes):
    """(V, labels) of the dilation whose `slots` count from the input mode; V on the labels `modes`."""
    r = np.shape(input_cov)[-1] // 2 - 1
    labels = {**{k: r + v for k, v in slots.items()}, "refs": tuple(range(r))}
    picked = None if modes is None else [i for k in modes for i in np.atleast_1d(labels[k])]
    return _dilation(input_cov, pairs, steps, picked), labels


def _validate_qblock(qblock: np.ndarray) -> np.ndarray:
    """The q-block, or each of a stack (..., 2, 2), checked and symmetrized."""
    q = np.asarray(qblock, dtype=float)
    if q.shape[-2:] != (2, 2) or not np.all(np.isfinite(q)):
        raise InvalidStateError("input q-block must be a finite 2x2 matrix")
    if np.any(np.abs(q[..., 0, 1] - q[..., 1, 0]) > 1e-10):
        raise InvalidStateError("input q-block must be symmetric")
    q = 0.5 * (q + np.swapaxes(q, -1, -2))
    if np.min(np.linalg.eigvalsh(q), initial=0.0) < -1e-10:
        raise InvalidStateError("input q-block must be positive semidefinite")
    return q


def _deg_sim_routes(kind, x, nb, q):
    """3-mode covariances (R, E'2/E2, E'1/E1) of the two routes for a checked input q-block q."""
    Vin = gc._pair_cov(q, q * np.array([[1.0, -1.0], [-1.0, 1.0]]))
    return (_degrading(kind, x, nb, Vin, ("refs", "E2p", "E1p"))[0],
            _simulating(kind, x, nb, Vin, ("refs", "E2", "E1"))[0])


def degrading_simulation_check(ch, input_qblock) -> tuple:
    """Position-quadrature blocks of (degrading route, simulating route).

    For a thermal or amplifier channel `ch`, builds the channel's full
    dilation followed by the degrading channel, and separately the
    simulating channel fed with the noisy TMS state, for an input whose
    two-mode position block is `input_qblock` (reference mode first).  The
    contract is that the two returned 3x3 blocks over (R, E'2, E'1) agree
    to 1e-10.  A column `ch` with a stack of n q-blocks gives (n, 3, 3) stacks; the
    q-block's errors come before the column's.
    """
    q = _validate_qblock(*_reals("degrading_simulation_check", "input_qblock", input_qblock, arrays=True))
    return tuple(V[..., :3, :3] for V in _deg_sim_routes(*_column_params(ch), q))
