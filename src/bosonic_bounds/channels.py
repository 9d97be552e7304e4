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
the covariance level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gaussian_core as gc
from .errors import (
    ChannelKindError,
    DomainError,
    InfeasibleBoundError,
    InvalidChannelError,
    InvalidStateError,
)

_EB_SLACK = 1e-12


@dataclass(frozen=True)
class PhaseInsensitiveChannel:
    """Canonical (tau, nu) form of a phase-insensitive channel."""

    tau: float
    nu: float
    kind: str = "raw"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        tau, nu = float(self.tau), float(self.nu)
        if nu < -1e-12 or nu * nu < (1.0 - tau) ** 2 - 1e-9:
            raise InvalidChannelError(
                f"CPTP violated: need nu >= 0 and nu^2 >= (1-tau)^2, "
                f"got tau={tau}, nu={nu}"
            )
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "nu", max(nu, 0.0))
        object.__setattr__(self, "params", dict(self.params))

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


def thermal(eta: float, nb: float) -> PhaseInsensitiveChannel:
    """Thermal channel: beamsplitter of transmissivity eta mixing the input
    with a thermal environment of mean photon number nb."""
    if not 0.0 < eta <= 1.0:
        raise DomainError("thermal channel requires eta in (0, 1]")
    if nb < 0.0:
        raise DomainError("environment photon number must be >= 0")
    return PhaseInsensitiveChannel(
        eta, (1.0 - eta) * (2.0 * nb + 1.0), "thermal", {"eta": eta, "nb": nb}
    )


def pure_loss(eta: float) -> PhaseInsensitiveChannel:
    return thermal(eta, 0.0)


def amplifier(g: float, nb: float) -> PhaseInsensitiveChannel:
    """Noisy amplifier channel: two-mode squeezer of gain g with a thermal
    environment of mean photon number nb."""
    if g < 1.0:
        raise DomainError("amplifier gain must be >= 1")
    if nb < 0.0:
        raise DomainError("environment photon number must be >= 0")
    return PhaseInsensitiveChannel(
        g, (g - 1.0) * (2.0 * nb + 1.0), "amplifier", {"g": g, "nb": nb}
    )


def additive_noise(nbar: float) -> PhaseInsensitiveChannel:
    """Additive-noise channel: random Gaussian displacements adding nbar
    noise photons (tau = 1, nu = 2 nbar)."""
    if nbar <= 0.0:
        raise DomainError("additive noise variance must be > 0")
    return PhaseInsensitiveChannel(1.0, 2.0 * nbar, "additive", {"nbar": nbar})


def raw_channel(tau: float, nu: float) -> PhaseInsensitiveChannel:
    return PhaseInsensitiveChannel(tau, nu, "raw", {})


def make_channel(kind: str, **params) -> PhaseInsensitiveChannel:
    """Dispatching constructor: kind in {thermal, amplifier, additive, raw};
    nb defaults to 0 and other parameters are ignored."""
    builders = {
        "thermal": lambda: thermal(params["eta"], params.get("nb", 0.0)),
        "amplifier": lambda: amplifier(params["g"], params.get("nb", 0.0)),
        "additive": lambda: additive_noise(params["nbar"]),
        "raw": lambda: raw_channel(params["tau"], params["nu"]),
    }
    try:
        builder = builders[kind]
    except KeyError:
        raise ChannelKindError(f"unknown channel kind {kind!r}") from None
    try:
        return builder()
    except KeyError as exc:
        raise DomainError(f"{kind} channel requires {exc.args[0]}") from None


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


def _require_kind(ch, kind, op):
    if ch.kind != kind:
        raise ChannelKindError(f"{op} requires a {kind} channel, got {ch.kind!r}")


def decompose_loss_then_amp(ch: PhaseInsensitiveChannel) -> Decomposition:
    """Factor a thermal channel as pure loss followed by a quantum-limited
    amplifier: gain G = (1-eta) nb + 1 and loss eta' = eta / G."""
    _require_kind(ch, "thermal", "decompose_loss_then_amp")
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
    (x >= 1); in both regimes the bracket is nonnegative.
    """
    if x < 0.5:
        raise DomainError("kappa requires x >= 1/2")
    return x * x + nb * (nb + 1.0) * (1.0 + 3.0 * x * x - 2.0 * x * (1.0 + np.sqrt(2.0 * x - 1.0)))


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
    eps = np.sqrt(max(1.0 - x * x / kappa(x, nb), 0.0))
    return EpsilonReport(float(eps), None, "eps_degradable")


def epsilon_close_degradable(nb: float) -> EpsilonReport:
    """Diamond distance from a thermal (or amplifier) channel to its
    quantum-limited counterpart: upper nb/(nb+1), lower 1 - 1/sqrt(nb+1)."""
    if nb < 0.0:
        raise DomainError("environment photon number must be >= 0")
    upper = nb / (nb + 1.0)
    lower = 1.0 - 1.0 / np.sqrt(nb + 1.0)
    return EpsilonReport(float(upper), float(lower), "eps_close_degradable")


# ---------------------------------------------------------------------------
# Degrading / simulating channel constructions
# ---------------------------------------------------------------------------

def noisy_tms_qblocks(nb: float, x: float):
    """(q, p) blocks of the noisy two-mode-squeezed state omega(nb): diagonal
    2 nb + 1 with correlations 2 sqrt(nb(nb+1)(2x-1)) / x, x = eta or G."""
    if x < 0.5:
        raise DomainError("noisy TMS needs x >= 1/2")
    d = 2.0 * nb + 1.0
    w = 2.0 * np.sqrt(nb * (nb + 1.0) * (2.0 * x - 1.0)) / x
    q = np.array([[d, w], [w, d]])
    p = np.array([[d, -w], [-w, d]])
    return q, p


def _place_pair(V, i, j, qblk, pblk, m):
    V[i, i] = qblk[0, 0]
    V[j, j] = qblk[1, 1]
    V[i, j] = V[j, i] = qblk[0, 1]
    V[m + i, m + i] = pblk[0, 0]
    V[m + j, m + j] = pblk[1, 1]
    V[m + i, m + j] = V[m + j, m + i] = pblk[0, 1]


def _channel_param(ch):
    if ch.kind == "thermal":
        return ch.params["eta"], ch.params["nb"]
    if ch.kind == "amplifier":
        return ch.params["g"], ch.params["nb"]
    raise ChannelKindError("dilation constructions need a thermal or amplifier channel")


def _channel_symplectic(ch) -> np.ndarray:
    x, _ = _channel_param(ch)
    if ch.kind == "thermal":
        return gc.beamsplitter_symplectic("B", x).S
    return gc.two_mode_squeezer_symplectic(x).S


def degrading_dilation_cov(ch: PhaseInsensitiveChannel, input_cov: np.ndarray):
    """Covariance after the channel dilation followed by the degrading
    channel's dilation.

    `input_cov` is the full block-ordered covariance over r >= 0 reference
    modes plus the channel input mode (the input mode comes last).  Returns
    (V, labels) with V over r + 5 modes and labels mapping
    'E2p', 'G', 'E1p', 'E2', 'E1' (and 'refs') to mode slots.
    """
    x, nb = _channel_param(ch)
    n_in = input_cov.shape[0] // 2
    r = n_in - 1
    m = r + 5
    a, ep, e1, f, e1p = r, r + 1, r + 2, r + 3, r + 4
    V = np.zeros((2 * m, 2 * m))
    # copy reference + input block
    idx_in = [*range(n_in), *range(m, m + n_in)]
    V[np.ix_(idx_in, idx_in)] = input_cov
    tq, tp = gc.tms_qblocks(nb)
    _place_pair(V, ep, e1, tq, tp, m)
    _place_pair(V, f, e1p, tq, tp, m)

    S1 = gc.embed_matrix(_channel_symplectic(ch), (a, ep), m)
    if ch.kind == "thermal":
        if x < 0.5:
            raise DomainError("degrading construction needs eta in [1/2, 1]")
        # B' of transmissivity (1-eta)/eta on (B, F); outputs E'2 then G
        S2 = gc.embed_matrix(
            gc.beamsplitter_symplectic("Bprime", (1.0 - x) / x).S, (a, f), m)
        labels = {"E2p": a, "G": f}
    else:
        # two-mode squeezer of parameter (2G-1)/G with F as the signal input
        # and the channel output B as the environment port
        S2 = gc.embed_matrix(
            gc.two_mode_squeezer_symplectic((2.0 * x - 1.0) / x).S, (f, a), m)
        labels = {"E2p": f, "G": a}
    V = S2 @ (S1 @ V @ S1.T) @ S2.T
    labels.update({"E1p": e1p, "E2": ep, "E1": e1, "refs": tuple(range(r))})
    return V, labels


def simulating_channel_cov(ch: PhaseInsensitiveChannel, input_cov: np.ndarray):
    """Covariance after the simulating channel: the channel unitary fed with
    the noisy TMS environment omega(nb); the channel output port is traced
    conceptually (it stays in slot 'B').

    Returns (V, labels) with V over r + 3 modes; labels map 'B', 'E2', 'E1'.
    """
    x, nb = _channel_param(ch)
    if x < 0.5:
        raise DomainError("simulating construction needs parameter >= 1/2")
    n_in = input_cov.shape[0] // 2
    r = n_in - 1
    m = r + 3
    a, ep, e1 = r, r + 1, r + 2
    V = np.zeros((2 * m, 2 * m))
    idx_in = [*range(n_in), *range(m, m + n_in)]
    V[np.ix_(idx_in, idx_in)] = input_cov
    oq, op = noisy_tms_qblocks(nb, x)
    _place_pair(V, ep, e1, oq, op, m)
    S1 = gc.embed_matrix(_channel_symplectic(ch), (a, ep), m)
    V = S1 @ V @ S1.T
    return V, {"B": a, "E2": ep, "E1": e1, "refs": tuple(range(r))}


def _qblock(V: np.ndarray, modes, m: int) -> np.ndarray:
    return V[np.ix_(modes, modes)]


def _pblock(V: np.ndarray, modes, m: int) -> np.ndarray:
    idx = [m + k for k in modes]
    return V[np.ix_(idx, idx)]


def _validate_qblock(qblock: np.ndarray) -> np.ndarray:
    q = np.asarray(qblock, dtype=float)
    if q.shape != (2, 2) or not np.all(np.isfinite(q)):
        raise InvalidStateError("input q-block must be a finite 2x2 matrix")
    if abs(q[0, 1] - q[1, 0]) > 1e-10:
        raise InvalidStateError("input q-block must be symmetric")
    if np.min(np.linalg.eigvalsh(0.5 * (q + q.T))) < -1e-10:
        raise InvalidStateError("input q-block must be positive semidefinite")
    return 0.5 * (q + q.T)


def _flip_offdiag(q: np.ndarray) -> np.ndarray:
    return q * np.array([[1.0, -1.0], [-1.0, 1.0]])


def _deg_sim_routes(ch, qblock, pblock):
    """Full 3-mode covariances of the two routes, ordered (R, E'2/E2, E'1/E1)."""
    Vin = np.zeros((4, 4))
    Vin[:2, :2] = qblock
    Vin[2:, 2:] = pblock
    Vdeg, ld = degrading_dilation_cov(ch, Vin)
    Vsim, ls = simulating_channel_cov(ch, Vin)
    m_deg = len(Vdeg) // 2
    m_sim = len(Vsim) // 2
    sel_deg = (0, ld["E2p"], ld["E1p"])
    sel_sim = (0, ls["E2"], ls["E1"])
    idx_d = [*sel_deg, *(m_deg + k for k in sel_deg)]
    idx_s = [*sel_sim, *(m_sim + k for k in sel_sim)]
    return Vdeg[np.ix_(idx_d, idx_d)], Vsim[np.ix_(idx_s, idx_s)]


def degrading_simulation_check(eta: float, nb: float, input_qblock) -> tuple:
    """Position-quadrature blocks of (degrading route, simulating route).

    Builds the full beamsplitter dilation of the thermal channel followed by
    the degrading channel, and separately the simulating channel fed with
    the noisy TMS state, for an input whose two-mode position block is
    `input_qblock` (reference mode first).  The contract is that the two
    returned 3x3 blocks over (R, E'2, E'1) agree to 1e-10.
    """
    q = _validate_qblock(input_qblock)
    ch = thermal(eta, nb)
    A, B = _deg_sim_routes(ch, q, _flip_offdiag(q))
    return A[:3, :3], B[:3, :3]


def degrading_simulation_check_amp(g: float, nb: float, input_qblock) -> tuple:
    """Amplifier analogue of :func:`degrading_simulation_check`."""
    q = _validate_qblock(input_qblock)
    ch = amplifier(g, nb)
    A, B = _deg_sim_routes(ch, q, _flip_offdiag(q))
    return A[:3, :3], B[:3, :3]
