"""Single-mode phase-insensitive Gaussian channels and their dilations.

A phase-insensitive channel acts on a single-mode covariance matrix as
V -> tau V + nu I and is represented canonically by the pair (tau, nu);
the named parameters of the three physical families are kept as a tag for
formula dispatch:

    thermal(eta, nb):      tau = eta,  nu = (1-eta)(2 nb + 1)
    amplifier(g, nb):      tau = g,    nu = (g-1)(2 nb + 1)
    additive_noise(nbar):  tau = 1,    nu = 2 nbar

A channel is that pair and holds no state: the oracles act with X = sqrt(tau) I
and Y = nu I on covariance stacks through `gaussian_core`'s array cores.  The
module gives the approximate-degradability parameters eps and builds, on the same
cores, the degrading and simulating channel constructions of those bounds, and
checks their equality at the covariance level.  They take one thermal or amplifier
channel and one input or a stack of them, each covariance checked by `_checked_cov`.
A channel argument that is not one PhaseInsensitiveChannel is a ChannelKindError.
The paper's factorings into pure loss and a quantum-limited amplifier are `bounds`' forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gaussian_core as gc
from .errors import (
    ChannelKindError,
    DomainError,
    InvalidChannelError,
    InvalidStateError,
    _reals,
    _require,
    _shown,
)
from .gaussian_core import noisy_tms_qblocks  # omega(nb), the simulating channel's environment


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
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ChannelKindError(f"unknown channel kind {kind!r}")
    build, names = _KINDS[kind]
    params = {"nb": 0.0, **params}
    missing = [name for name in names if name not in params]
    if missing:
        raise DomainError(f"{kind} channel requires {missing[0]}")
    return build(*(params[name] for name in names))


def _channel(ch, what):
    """`ch` if it is one PhaseInsensitiveChannel, else `what`'s ChannelKindError."""
    if isinstance(ch, PhaseInsensitiveChannel):
        return ch
    raise ChannelKindError(f"{what} takes one phase-insensitive channel, got {_shown(ch)}")


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


def _kappa(x, nb):
    """kappa(x, nb) = x^2 + nb(nb+1) [1 + 3x^2 - 2x(1 + sqrt(2x-1))] over arrays or floats, x >= 1/2;
    the bracket's double root at x = 1 cancels in floats (ROADMAP E2)."""
    return x * x + nb * (nb + 1.0) * (1.0 + 3.0 * x * x - 2.0 * x * (1.0 + gc._sqrt(2.0 * x - 1.0)))


def _eps_degradable(x, nb):
    """:func:`epsilon_degradable`'s eps over arrays of x >= 1/2 and nb, or floats."""
    return gc._sqrt(gc._maximum(1.0 - x * x / _kappa(x, nb), 0.0))


def epsilon_degradable(ch: PhaseInsensitiveChannel) -> EpsilonReport:
    """Diamond-distance bound between the complementary channel and the
    degrading construction: eps = sqrt(1 - x^2 / kappa(x, nb))."""
    if _channel(ch, "epsilon_degradable").kind == "thermal":
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

def _channel_params(ch):
    """(kind, x = tau, nb) of one thermal or amplifier channel, ChannelKindError for anything else."""
    if _channel(ch, "a dilation construction").kind not in ("thermal", "amplifier"):
        raise ChannelKindError(f"dilation constructions need a thermal or amplifier channel, got {ch.kind!r}")
    return ch.kind, ch.tau, ch.params["nb"]


def _input_covs(what, input_cov, k=None):
    """`input_cov` as float64 covariances (..., 2k, 2k), k >= 1 (or the given k), that pass `_checked_cov`,
    else `what`'s InvalidStateError; returned as given, so a public call has its core's bits."""
    cov, = _reals(what, "input_cov", input_cov, arrays=True)
    n = cov.shape[-1] if cov.ndim >= 2 and cov.shape[-2] == cov.shape[-1] else 0
    if n < 2 or n % 2 or k not in (None, n // 2):
        raise InvalidStateError(f"{what} takes input covariances (..., 2k, 2k) with k = {k or '1, 2, ...'}, "
                                f"got shape {cov.shape}")
    gc._checked_cov(cov)
    return cov


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
    or amplifier channel.  Returns (V, labels) with V over r + 5 modes and
    labels mapping 'E2p', 'G', 'E1p', 'E2', 'E1' (and 'refs') to mode slots.
    """
    return _degrading(*_channel_params(ch), _input_covs("degrading_dilation_cov", input_cov))


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
    conceptually (it stays in slot 'B').  Takes one channel and an input
    covariance or a stack of them like :func:`degrading_dilation_cov`.

    Returns (V, labels) with V over r + 3 modes; labels map 'B', 'E2', 'E1'.
    """
    return _simulating(*_channel_params(ch), _input_covs("simulating_channel_cov", input_cov))


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
    to 1e-10.  A stack of n q-blocks gives (n, 3, 3) stacks; the q-block's
    errors come before the channel's.
    """
    q = _validate_qblock(*_reals("degrading_simulation_check", "input_qblock", input_qblock, arrays=True))
    return tuple(V[..., :3, :3] for V in _deg_sim_routes(*_channel_params(ch), q))
