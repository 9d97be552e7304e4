"""Exact small-matrix calculus for Gaussian states of bosonic modes.

Conventions
-----------
* Covariance matrices are scaled so that the vacuum covariance is the
  identity; a single-mode thermal state with mean photon number N has
  covariance (2N+1) I_2.
* Quadratures are block ordered, x = (q_1..q_m, p_1..p_m), with
  symplectic form Omega = [[0, I_m], [-I_m, 0]].

All values are immutable after construction and every operation is a pure
function, so everything here is safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InvalidChannelError,
    InvalidStateError,
    SingularMatrixError,
)

LN2 = float(np.log(2.0))

# Tolerances (absolute unless noted)
COV_SYMMETRY_TOL = 1e-12      # required symmetry of covariance matrices
NU_FLOOR = 1e-9               # allowed dip of symplectic eigenvalues below 1
SYMPLECTIC_TOL = 1e-10        # |S Omega S^T - Omega| for symplectic matrices
PSD_FLOOR = 1e-8              # eigenvalue floor for the channel CPTP check
_G_SERIES_CUTOFF = 1e-8       # switch g(x) to its small-x series below this
_PURITY_DET_TOL = 1e-8        # det(V) - 1 below this counts as a pure state


def _nu_floor(cov) -> float:
    """Least symplectic eigenvalue accepted from `cov`: 1 - 1e-9 relative to
    its largest entry, as eigensolve roundoff grows with the scale."""
    return 1.0 - NU_FLOOR * max(1.0, float(np.max(np.abs(cov))))


def omega(m: int) -> np.ndarray:
    """Symplectic form for m modes in block ordering."""
    O = np.zeros((2 * m, 2 * m))
    O[:m, m:] = np.eye(m)
    O[m:, :m] = -np.eye(m)
    return O


def _block_index(modes, m: int) -> np.ndarray:
    """Positions of the q and then the p quadratures of `modes` in the
    block-ordered quadrature vector of m modes; `V[..., idx[:, None], idx]`
    is the covariance block of those modes."""
    modes = tuple(modes)
    return np.array([*modes, *(m + k for k in modes)], dtype=np.intp)


def _place_pair(V: np.ndarray, i: int, qblk, pblk) -> np.ndarray:
    """Write the (q, p) blocks of a two-mode state onto modes (i, i + 1) of
    the block-ordered covariance V, or of every matrix in a stack; returns V."""
    m = V.shape[-1] // 2
    V[..., i:i + 2, i:i + 2] = qblk
    V[..., m + i:m + i + 2, m + i:m + i + 2] = pblk
    return V


# ---------------------------------------------------------------------------
# Entropy functions
# ---------------------------------------------------------------------------

def _g_nats(x):
    """(x+1) ln(x+1) - x ln x elementwise; second-order series below cutoff.

    Input must already be clamped to x >= 0; a negative or NaN element gives
    0.  A float gives a float, from the same numpy kernels and the same
    arithmetic as an array's element, so with its bits.  An array with no
    element below the cutoff skips the masks.
    """
    if isinstance(x, float):
        if x >= _G_SERIES_CUTOFF:
            return (x + 1.0) * float(np.log1p(x)) - x * float(np.log(x))
        return x - x * float(np.log(x)) + 0.5 * x * x if x > 0.0 else 0.0
    x = np.asarray(x, dtype=float)
    big = x >= _G_SERIES_CUTOFF
    whole = big.all()
    xb = x if whole else x[big]
    gb = (xb + 1.0) * np.log1p(xb) - xb * np.log(xb)
    if whole:
        return gb
    out = np.zeros_like(x)
    out[big] = gb
    small = (~big) & (x > 0.0)
    xs = x[small]
    out[small] = xs - xs * np.log(xs) + 0.5 * xs * xs
    return out


def g_entropy(x):
    """Entropy in bits of a thermal state with mean photon number x.

    g(x) = (x+1) log2(x+1) - x log2 x, with g(0) = 0 by continuity.
    Accepts scalars or arrays; values in [-1e-12, 0] are clamped to 0.

    Raises
    ------
    DomainError
        If any element is below -1e-12, NaN or infinite.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= -1e-12) & (arr < np.inf)):  # False for NaN
        raise DomainError(f"g_entropy requires finite x >= 0, got {x!r}")
    clamped = np.maximum(arr, 0.0)
    out = _g_nats(clamped) / LN2
    return float(out) if arr.ndim == 0 else out


def binary_entropy(x):
    """Binary entropy h2(x) in bits for probabilities x in [0, 1].

    Endpoint values return 0.  Accepts scalars or arrays; any element
    outside [0, 1], NaN included, raises DomainError.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # False for NaN
        raise DomainError(f"binary_entropy requires x in [0, 1], got {x!r}")
    out = np.zeros_like(np.atleast_1d(arr))
    flat = np.atleast_1d(arr)
    inner = (flat > 0.0) & (flat < 1.0)
    xi = flat[inner]
    out[inner] = -(xi * np.log(xi) + (1.0 - xi) * np.log1p(-xi)) / LN2
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _as_readonly(a: np.ndarray) -> np.ndarray:
    b = np.array(a, dtype=float, copy=True)
    b.flags.writeable = False
    return b


@dataclass(frozen=True)
class GaussianState:
    """A Gaussian state of `modes` bosonic modes.

    Attributes
    ----------
    modes : int
        Number of modes m.
    mean : ndarray, shape (2m,)
        Mean vector in block quadrature ordering.
    cov : ndarray, shape (2m, 2m)
        Covariance matrix, vacuum = identity.
    """

    modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if self.modes < 1:
            raise InvalidStateError("mode count must be a positive integer")
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        n = 2 * self.modes
        if mean.shape != (n,):
            raise InvalidStateError(f"mean must have shape ({n},), got {mean.shape}")
        if cov.shape != (n, n):
            raise InvalidStateError(f"cov must have shape ({n},{n}), got {cov.shape}")
        if not np.all(np.isfinite(cov)) or not np.all(np.isfinite(mean)):
            raise InvalidStateError("state data must be finite")
        if np.max(np.abs(cov - cov.T)) > COV_SYMMETRY_TOL:
            raise InvalidStateError("covariance matrix is not symmetric to 1e-12")
        cov = 0.5 * (cov + cov.T)
        nus = _symplectic_eigs(cov)
        floor = _nu_floor(cov)
        if np.min(nus) < floor:
            raise InvalidStateError(
                f"uncertainty principle violated: min symplectic eigenvalue "
                f"{np.min(nus):.12g} < {floor:.12g}"
            )
        object.__setattr__(self, "mean", _as_readonly(mean))
        object.__setattr__(self, "cov", _as_readonly(cov))


# ---------------------------------------------------------------------------
# State constructors
# ---------------------------------------------------------------------------

def vacuum_state(modes: int = 1) -> GaussianState:
    """Vacuum of the given number of modes."""
    return GaussianState(modes, np.zeros(2 * modes), np.eye(2 * modes))


def thermal_state(nbar: float, modes: int = 1) -> GaussianState:
    """Product of `modes` thermal states, each with mean photon number nbar."""
    if nbar < 0:
        raise DomainError("thermal mean photon number must be >= 0")
    return GaussianState(modes, np.zeros(2 * modes), (2.0 * nbar + 1.0) * np.eye(2 * modes))


def _mat2(a, b, c, d) -> np.ndarray:
    """[[a, b], [c, d]] over floats or arrays of one shape: shape (..., 2, 2)."""
    M = np.array([[a, b], [c, d]], dtype=float)
    return M if M.ndim == 2 else M.transpose(*range(2, M.ndim), 0, 1)


def tms_qblocks(n):
    """(q-block, p-block) of the two-mode squeezed vacuum with parameter n,
    or stacks of them, shape (..., 2, 2), over an array of n."""
    if (np.asarray(n) < 0).any():
        raise DomainError("TMS photon number must be >= 0")
    d = 2.0 * n + 1.0
    c = 2.0 * np.sqrt(n * (n + 1.0))
    return _mat2(d, c, c, d), _mat2(d, -c, -c, d)


def tms_state(n: float) -> GaussianState:
    """Two-mode squeezed vacuum state with mean photon number n per arm.

    Purifies the single-mode thermal state theta(n); the reduced state of
    either mode is thermal with mean photon number n.
    """
    return GaussianState(2, np.zeros(4), _place_pair(np.zeros((4, 4)), 0, *tms_qblocks(n)))


# ---------------------------------------------------------------------------
# Spectra and entropies
# ---------------------------------------------------------------------------

def _checked_symplectic(S: np.ndarray) -> np.ndarray:
    """`S`, a 2m x 2m matrix or a stack of them, once each is symplectic to
    SYMPLECTIC_TOL."""
    O = omega(S.shape[-1] // 2)
    if not np.all(np.abs(S @ O @ np.swapaxes(S, -1, -2) - O) <= SYMPLECTIC_TOL):
        raise DomainError("matrix is not symplectic to 1e-10")
    return S


def _symplectic_eigs(cov: np.ndarray) -> np.ndarray:
    """Ascending symplectic eigenvalues of a covariance matrix or a stack of
    them: shape (..., 2m, 2m) gives shape (..., m)."""
    m = cov.shape[-1] // 2
    try:
        ev = np.linalg.eigvals(1j * cov @ omega(m))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SingularMatrixError("symplectic eigensolve failed") from exc
    mods = np.sort(np.abs(ev), axis=-1)
    return mods[..., ::2]


def symplectic_eigenvalues(state: GaussianState) -> tuple:
    """Ascending symplectic spectrum of a state, from diagonalizing i V Omega;
    the state's construction has checked it against :func:`_nu_floor`."""
    return tuple(float(v) for v in _symplectic_eigs(state.cov))


def _entropy_from_cov(cov: np.ndarray, modes=None):
    """Entropy in bits of the covariance `cov`, or of its marginal on
    `modes`; a stack of covariances (..., 2m, 2m) gives an array."""
    if modes is not None:
        idx = _block_index(modes, cov.shape[-1] // 2)
        cov = cov[..., idx[:, None], idx]
    nus = _symplectic_eigs(cov)
    out = np.sum(_g_nats(np.maximum((nus - 1.0) / 2.0, 0.0)), axis=-1) / LN2
    return float(out) if out.ndim == 0 else out


def gaussian_entropy(state: GaussianState) -> float:
    """Von Neumann entropy in bits: sum of g((nu_j - 1)/2)."""
    return _entropy_from_cov(state.cov)


def mean_photon_number(state: GaussianState) -> float:
    """Total mean photon number over all modes."""
    m = state.modes
    return float((np.trace(state.cov) - 2 * m) / 4.0 + 0.5 * np.dot(state.mean, state.mean))


def reduce_state(state: GaussianState, modes) -> GaussianState:
    """Marginal state on the given mode indices (order preserved)."""
    modes = tuple(modes)
    m = state.modes
    if any(k < 0 or k >= m for k in modes):
        raise DomainError(f"mode indices out of range for {m}-mode state")
    idx = _block_index(modes, m)
    return GaussianState(len(modes), state.mean[idx], state.cov[idx[:, None], idx])


# ---------------------------------------------------------------------------
# Fidelity
# ---------------------------------------------------------------------------

def _is_pure_cov(cov: np.ndarray) -> bool:
    # prod(nu_j)^2 = det V, and nu_j >= 1, so purity <=> det V = 1
    return abs(np.linalg.det(cov) - 1.0) <= _PURITY_DET_TOL


def _mean_factor(V1, V2, mu1, mu2) -> float:
    d = mu2 - mu1
    if not np.any(d):
        return 1.0
    try:
        sol = np.linalg.solve(V1 + V2, d)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("V1 + V2 is singular") from exc
    return float(np.exp(-d @ sol))


def two_mode_fidelity(a: GaussianState, b: GaussianState) -> float:
    """Uhlmann fidelity F = ||sqrt(rho) sqrt(sigma)||_1^2 of two-mode states.

    Uses the exact Gaussian overlap when either state is pure (where the
    overlap equals the fidelity) and the two-mode determinant closed form
    otherwise.  Symmetric in its arguments; returns a value in [0, 1].

    Raises
    ------
    DomainError
        If either state does not have exactly two modes.
    SingularMatrixError
        If an intermediate determinant is non-finite.
    """
    if a.modes != 2 or b.modes != 2:
        raise DomainError("two_mode_fidelity requires two-mode states")
    V1, V2 = a.cov, b.cov
    mf = _mean_factor(V1, V2, a.mean, b.mean)
    if _is_pure_cov(V1) or _is_pure_cov(V2):
        det = np.linalg.det(V1 + V2)
        if not np.isfinite(det) or det <= 0:
            raise SingularMatrixError("non-finite determinant in fidelity")
        return min(1.0, 4.0 / np.sqrt(det) * mf)
    Om = omega(2)
    delta = np.linalg.det(V1 + V2) / 16.0
    gamma = np.real(np.linalg.det(Om @ V1 @ Om @ V2 - np.eye(4))) / 16.0
    lam = np.real(np.linalg.det(V1 + 1j * Om) * np.linalg.det(V2 + 1j * Om)) / 16.0
    if not (np.isfinite(delta) and np.isfinite(gamma) and np.isfinite(lam)):
        raise SingularMatrixError("non-finite determinant in fidelity")
    sg = np.sqrt(max(gamma, 0.0))
    sl = np.sqrt(max(lam, 0.0))
    denom = sg + sl - np.sqrt(max((sg + sl) ** 2 - delta, 0.0))
    if denom <= 0 or not np.isfinite(denom):
        raise SingularMatrixError("degenerate denominator in fidelity")
    return min(1.0, mf / denom)


# ---------------------------------------------------------------------------
# Channel action and symplectic building blocks
# ---------------------------------------------------------------------------

def embed_matrix(M: np.ndarray, modes, total_modes: int) -> np.ndarray:
    """Embed a 2k x 2k block-ordered matrix acting on `modes`, or each of a
    stack (..., 2k, 2k), into the 2m x 2m identity for m = total_modes."""
    modes = tuple(modes)
    k = len(modes)
    if M.shape[-2:] != (2 * k, 2 * k):
        raise DomainError(f"matrix shape {M.shape} does not match {k} modes")
    full = np.broadcast_to(np.eye(2 * total_modes), M.shape[:-2] + (2 * total_modes,) * 2).copy()
    idx = _block_index(modes, total_modes)
    full[..., idx, :] = 0.0
    full[..., idx[:, None], idx] = M
    return full


def apply_gaussian_channel(X, Y, d, state: GaussianState, modes=None) -> GaussianState:
    """Apply a Gaussian channel (X, Y, d): mean -> X mean + d, V -> X V X^T + Y.

    Parameters
    ----------
    X : ndarray
        2l -> 2k quadrature matrix.  With `modes=None` it must map all
        state quadratures (l = state.modes); with a `modes` tuple it must be
        square on those k modes and acts as the identity elsewhere.
    Y : ndarray
        Additive noise matrix, 2k x 2k positive semidefinite.
    d : ndarray or None
        Displacement added to the mean (zeros if None).
    state : GaussianState
    modes : tuple of int, optional
        Subset of modes the channel acts on.

    Raises
    ------
    InvalidChannelError
        If Y + i(Omega - X Omega X^T) has an eigenvalue below -1e-8.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    m_out2, m_in2 = X.shape
    if m_out2 % 2 or m_in2 % 2:
        raise DomainError("X must have even dimensions")
    m_out, m_in = m_out2 // 2, m_in2 // 2
    if Y.shape != (m_out2, m_out2):
        raise DomainError("Y shape does not match X output dimension")
    cond = Y + 1j * omega(m_out) - 1j * X @ omega(m_in) @ X.T
    lo = float(np.min(np.linalg.eigvalsh(cond)))
    if lo < -PSD_FLOOR:
        raise InvalidChannelError(
            f"channel PSD condition fails: min eigenvalue {lo:.3e} < -{PSD_FLOOR:g}"
        )
    if d is None:
        d = np.zeros(m_out2)
    d = np.asarray(d, dtype=float)

    if modes is None:
        if m_in != state.modes:
            raise DomainError("X input dimension does not match the state")
        new_mean = X @ state.mean + d
        new_cov = X @ state.cov @ X.T + Y
        return GaussianState(m_out, new_mean, new_cov)

    modes = tuple(modes)
    if m_in != m_out or m_in != len(modes):
        raise DomainError("subset application requires square X on the given modes")
    total = state.modes
    Xf = embed_matrix(X, modes, total)
    Yf = np.zeros((2 * total, 2 * total))
    idx = _block_index(modes, total)
    Yf[idx[:, None], idx] = Y
    df = np.zeros(2 * total)
    df[idx] = d
    return GaussianState(total, Xf @ state.mean + df, Xf @ state.cov @ Xf.T + Yf)


def _beamsplitters(kind: str, t) -> np.ndarray:
    """:func:`beamsplitter_symplectic` over an array t: shape (..., 4, 4)."""
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= t) & (t <= 1.0)):
        raise DomainError("transmissivity must lie in [0, 1]")
    sign = {"B": 1.0, "Bprime": -1.0}.get(kind)  # of the lower-left sqrt(1-t)
    if sign is None:
        raise DomainError(f"unknown beamsplitter kind {kind!r}")
    rt, rr = np.sqrt(t), sign * np.sqrt(1.0 - t)
    A = _mat2(rt, -rr, rr, rt)
    return _checked_symplectic(_place_pair(np.zeros(t.shape + (4, 4)), 0, A, A))


def _squeezers(G) -> np.ndarray:
    """:func:`two_mode_squeezer_symplectic` over an array G: shape (..., 4, 4)."""
    G = np.asarray(G, dtype=float)
    if not np.all(G >= 1.0):
        raise DomainError("squeezer gain must be >= 1")
    s, r = np.sqrt(G), np.sqrt(G - 1.0)
    return _checked_symplectic(_place_pair(np.zeros(G.shape + (4, 4)), 0,
                                           _mat2(s, r, r, s), _mat2(s, -r, -r, s)))


def beamsplitter_symplectic(kind: str, transmissivity: float) -> np.ndarray:
    """4x4 symplectic matrix of a two-mode beamsplitter.

    kind "B" uses the (+,-) sign convention
        b  =  sqrt(t) a - sqrt(1-t) e,
        e' =  sqrt(1-t) a + sqrt(t) e,
    while kind "Bprime" uses
        c2 =  sqrt(t) c1 + sqrt(1-t) d1,
        d2 = -sqrt(1-t) c1 + sqrt(t) d1.
    The phase difference between the two is essential for the degrading
    channel construction.
    """
    return _beamsplitters(kind, float(transmissivity))


def two_mode_squeezer_symplectic(gain: float) -> np.ndarray:
    """4x4 symplectic matrix of a two-mode squeezer with gain G >= 1.

    Implements b = sqrt(G) a + sqrt(G-1) e^dag on mode pairs: the q-block is
    [[sqrt(G), sqrt(G-1)], [sqrt(G-1), sqrt(G)]] and the p-block carries the
    opposite off-diagonal sign.
    """
    return _squeezers(float(gain))
