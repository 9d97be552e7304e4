"""Exact small-matrix calculus for Gaussian states of bosonic modes.

Conventions
-----------
* Covariance matrices are scaled so that the vacuum covariance is the
  identity; a single-mode thermal state with mean photon number N has
  covariance (2N+1) I_2.
* Quadratures are block ordered, x = (q_1..q_m, p_1..p_m), with
  symplectic form Omega = [[0, I_m], [-I_m, 0]].

All values are immutable after construction and every operation is a pure
function, so everything here is safe to call concurrently.  One-state
functions wrap cores over stacks (..., 2m, 2m) of covariances: `_checked_cov`,
`_fidelity`, `_photon_number` and `_apply`, the channel action.  The two-mode
builders take stacks themselves, one body per formula: `noisy_tms_qblocks`
(`tms_qblocks` is its x = 1 case), `_pair_cov`, `beamsplitter_symplectic` and
`two_mode_squeezer_symplectic`, whose parameters enter through `errors._reals`.
Symplectic spectra come from a Cholesky factor (`_factor_eigs`): in closed form
for one and two modes, by a symmetric eigensolve from three; `_cholesky` forms
one-mode factors elementwise, in LAPACK's own steps and so with its bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InvalidChannelError,
    InvalidStateError,
    SingularMatrixError,
    _reals,
    _require,
)

LN2 = float(np.log(2.0))

# Tolerances (absolute unless noted)
COV_SYMMETRY_TOL = 1e-12      # required symmetry of covariance matrices
NU_FLOOR = 1e-9               # allowed dip of symplectic eigenvalues below 1
PSD_FLOOR = 1e-8              # eigenvalue floor for the channel CPTP check
_EPS = float(np.finfo(float).eps)  # float64 machine epsilon, 2^-52
_G_SERIES_CUTOFF = 1e-8       # switch g(x) to its small-x series below this
_PURITY_DET_TOL = 1e-8        # det(V) - 1 below this counts as a pure state


def _nu_floor(cov):
    """Least symplectic eigenvalue accepted from `cov` (each of a stack): 1 - 1e-9
    relative to its largest entry, as eigensolve roundoff grows with the scale,
    but at least 1/2: a slack 1 - floor past 1 let singular matrices through."""
    return 1.0 - np.minimum(NU_FLOOR * np.maximum(1.0, np.max(np.abs(cov), axis=(-2, -1))), 0.5)


def omega(m: int) -> np.ndarray:
    """Symplectic form for m modes in block ordering."""
    O = np.zeros((2 * m, 2 * m))
    O[:m, m:] = np.eye(m)
    O[m:, :m] = -np.eye(m)
    return O


def _is_int(k) -> bool:
    """True for an int or a numpy integer, but not a bool: a mode index or count."""
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool)


def _block_index(modes, m: int) -> np.ndarray:
    """Positions of the q and then the p quadratures of `modes`, distinct int
    indices below m (DomainError otherwise), in the block-ordered vector of m
    modes; `V[..., idx[:, None], idx]` is the covariance block of those modes."""
    if not np.iterable(modes):
        raise DomainError(f"mode indices {modes!r} must be a sequence of ints")
    modes = tuple(modes)
    if not all(map(_is_int, modes)):
        raise DomainError(f"mode indices {modes} must be ints")
    if any(not 0 <= k < m for k in modes):
        raise DomainError(f"mode indices {modes} out of range for {m}-mode state")
    if len(set(modes)) != len(modes):
        raise DomainError(f"mode indices {modes} repeat a mode")
    return np.array([*modes, *(m + k for k in modes)], dtype=np.intp)


def _place_pair(V: np.ndarray, i: int, qblk, pblk) -> np.ndarray:
    """Write the (q, p) blocks of a two-mode state onto modes (i, i + 1) of
    the block-ordered covariance V, or of every matrix in a stack; returns V."""
    m = V.shape[-1] // 2
    V[..., i:i + 2, i:i + 2] = qblk
    V[..., m + i:m + i + 2, m + i:m + i + 2] = pblk
    return V


def _pair_cov(q, p):
    """Two-mode covariances (..., 4, 4) of stacks of (q, p) blocks (..., 2, 2)."""
    return _place_pair(np.zeros(np.shape(q)[:-2] + (4, 4)), 0, q, p)


# ---------------------------------------------------------------------------
# Elementwise steps on one cell's floats or many cells' arrays
# ---------------------------------------------------------------------------

def _on_floats(ufunc):
    """`ufunc`, but a Python float for a float: the bound forms' +, -, *, /
    then run on Python floats, which round as np.float64's do, at a fraction
    of the cost of numpy scalars and 0-d arrays."""
    return lambda x: float(ufunc(x)) if isinstance(x, float) else ufunc(x)


_log, _log1p, _log2, _sqrt = map(_on_floats, (np.log, np.log1p, np.log2, np.sqrt))


def _maximum(a, b):
    """np.maximum(a, b); two floats pick as numpy does: a nan wins, of equal values b."""
    if isinstance(a, float) and isinstance(b, float):
        return a if a > b or a != a else b
    return np.maximum(a, b)


def _where(cond, a, b):
    """np.where(cond, a, b); a bool and two floats (one cell) pick a or b."""
    if isinstance(cond, (bool, np.bool_)) and isinstance(a, float) and isinstance(b, float):
        return a if cond else b
    return np.where(cond, a, b)


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
    whole = np.count_nonzero(big) == big.size
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
        If any element is below -1e-12, NaN or infinite, or x is not real.
    """
    arr, = _reals("g_entropy", "x", x, arrays=True)
    if not np.all((arr >= -1e-12) & (arr < np.inf)):  # False for NaN
        raise DomainError(f"g_entropy requires finite x >= 0, got {x!r}")
    clamped = np.maximum(arr, 0.0)
    out = _g_nats(clamped) / LN2
    return float(out) if arr.ndim == 0 else out


def binary_entropy(x):
    """Binary entropy h2(x) in bits for probabilities x in [0, 1].

    Endpoint values return 0.  Accepts real scalars or arrays; any element
    outside [0, 1], NaN included, raises DomainError, as a non-real x does.
    """
    arr, = _reals("binary_entropy", "x", x, arrays=True)
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
        n = 2 * _mode_count(self.modes)
        mean, = _reals("GaussianState", "mean", self.mean, arrays=True)
        cov, = _reals("GaussianState", "cov", self.cov, arrays=True)
        if mean.shape != (n,):
            raise InvalidStateError(f"mean must have shape ({n},), got {mean.shape}")
        if cov.shape != (n, n):
            raise InvalidStateError(f"cov must have shape ({n},{n}), got {cov.shape}")
        if not np.all(np.isfinite(mean)):
            raise InvalidStateError("state data must be finite")
        object.__setattr__(self, "mean", _as_readonly(mean))
        object.__setattr__(self, "cov", _as_readonly(_checked_cov(cov)))


def _mode_count(modes):
    """`modes`; InvalidStateError unless a positive integer m whose 2m x 2m covariance numpy can index."""
    ok = _is_int(modes) and 1 <= modes and 32 * int(modes) ** 2 <= np.iinfo(np.intp).max
    _require(ok, "mode count must be a positive integer numpy can index", error=InvalidStateError)
    return modes


def _checked_cov(cov: np.ndarray) -> np.ndarray:
    """`cov`, a covariance matrix or a stack of them, symmetrized once each is
    finite, symmetric to 1e-12 and, by its Cholesky factor L, positive definite
    (V + i Omega >= 0 needs V > 0), conditioned for float64 (eps times
    (max L_ii / min L_ii)^2 <= cond(V) within the floor's slack 1 - floor) and
    free of symplectic eigenvalues below :func:`_nu_floor`; the first check some
    matrix fails raises InvalidStateError, for the first such matrix."""
    if not np.all(np.isfinite(cov)):
        raise InvalidStateError("state data must be finite")
    if np.max(np.abs(cov - np.swapaxes(cov, -1, -2))) > COV_SYMMETRY_TOL:
        raise InvalidStateError("covariance matrix is not symmetric to 1e-12")
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    L, floor = _cholesky(cov), _nu_floor(cov)
    d = np.diagonal(L, axis1=-2, axis2=-1)
    ratio = np.max(d, axis=-1) / np.min(d, axis=-1)  # ratio^2 <= cond(V), and may overflow
    if np.any(bad := ratio > np.sqrt(1.0 - floor) / np.sqrt(_EPS)):  # eps ratio^2 > 1 - floor
        k = np.argmax(bad)  # flat index of the first
        r, slack = float(ratio.flat[k]), 1.0 - floor.flat[k]
        raise InvalidStateError("covariance matrix too ill-conditioned for float64: eps cond(V) >= "
                                f"{_EPS * r * r:.6g} exceeds the floor's slack {slack:.6g}")
    low = _factor_eigs(L)[..., 0]
    if np.any(low < floor):
        k = np.argmax(low < floor)
        raise InvalidStateError(f"uncertainty principle violated: min symplectic eigenvalue "
                                f"{low.flat[k]:.12g} < {floor.flat[k]:.12g}")
    return cov


# ---------------------------------------------------------------------------
# State constructors
# ---------------------------------------------------------------------------

def vacuum_state(modes: int = 1) -> GaussianState:
    """Vacuum of the given number of modes."""
    return GaussianState(modes, np.zeros(2 * _mode_count(modes)), np.eye(2 * modes))


def thermal_state(nbar: float, modes: int = 1) -> GaussianState:
    """Product of `modes` thermal states, each with mean photon number nbar."""
    nbar, = _reals("thermal_state", "nbar", nbar)
    _require(nbar >= 0.0, "thermal mean photon number {} must be >= 0 with 2 nbar + 1 finite",
             nbar, d := 2.0 * nbar + 1.0)
    return GaussianState(modes, np.zeros(2 * _mode_count(modes)), d * np.eye(2 * modes))


def _mat2(a, b, c, d) -> np.ndarray:
    """[[a, b], [c, d]] over floats or arrays of one shape: shape (..., 2, 2)."""
    M = np.array([[a, b], [c, d]], dtype=float)
    return M if M.ndim == 2 else M.transpose(*range(2, M.ndim), 0, 1)


def noisy_tms_qblocks(nb, x):
    """(q, p) blocks of the noisy two-mode-squeezed state omega(nb), nb >= 0: diagonal
    2 nb + 1 with correlations 2 sqrt(nb(nb+1)(2x-1)) / x, x = eta or G >= 1/2, both
    finite, in float64 whatever their dtype; stacks (..., 2, 2) over arrays of nb and x,
    which broadcast against each other, so that d takes w's shape."""
    nb, x = _reals("noisy_tms_qblocks", "nb x", nb, x, arrays=True)
    if not np.all((nb >= 0.0) & (nb < np.inf)):  # False for nan
        raise DomainError("TMS photon number must be >= 0 and finite")
    if not np.all((x >= 0.5) & (x < np.inf)):
        raise DomainError("noisy TMS needs x >= 1/2 and finite")
    d = 2.0 * nb + 1.0
    w = 2.0 * np.sqrt(nb * (nb + 1.0) * (2.0 * x - 1.0)) / x
    return _mat2(d, w, w, d), _mat2(d, -w, -w, d)


def tms_qblocks(n):
    """(q-block, p-block) of the two-mode squeezed vacuum with parameter n:
    omega(n) at x = 1, whose factors 1.0 are exact."""
    return noisy_tms_qblocks(n, 1.0)


def tms_state(n: float) -> GaussianState:
    """Two-mode squeezed vacuum state with mean photon number n per arm.

    Purifies the single-mode thermal state theta(n); the reduced state of
    either mode is thermal with mean photon number n.  An overflow is an InvalidStateError.
    """
    with np.errstate(over="ignore"):
        blocks = tms_qblocks(n)
    return GaussianState(2, np.zeros(4), _pair_cov(*blocks))


# ---------------------------------------------------------------------------
# Spectra and entropies
# ---------------------------------------------------------------------------

def _cholesky(cov: np.ndarray) -> np.ndarray:
    """Cholesky factor L, V = L L^T, of each V of a stack; InvalidStateError unless V > 0.
    One-mode V take OpenBLAS dpotf2's steps elementwise, so its bits without a LAPACK call:
    l00 = sqrt(v00), l10 = v10 * (1/l00) as its DSCAL (zeros if 1/l00 = 0) and
    l11 = sqrt(v11 - l10 l10); a pivot <= 0 raises, and a NaN passes through."""
    if cov.shape[-2:] == (2, 2):
        with np.errstate(all="ignore"):  # LAPACK's call warns of no overflow or NaN either
            l00 = np.sqrt(cov[..., 0, 0])
            l10 = np.where(l00 == np.inf, 0.0, cov[..., 1, 0] * (1.0 / l00))
            p1 = cov[..., 1, 1] - l10 * l10
            if not np.any((cov[..., 0, 0] <= 0.0) | (p1 <= 0.0)):
                L = np.zeros(cov.shape)
                L[..., 0, 0], L[..., 1, 0], L[..., 1, 1] = l00, l10, np.sqrt(p1)
                return L
    else:
        try:
            return np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            pass
    raise InvalidStateError("uncertainty principle violated: covariance matrix is not positive definite")


def _factor_eigs(L: np.ndarray) -> np.ndarray:
    """Ascending symplectic eigenvalues of V = L L^T (each of a stack) from its
    Cholesky factor: V Omega is similar to the antisymmetric M = L^T Omega L =
    L_q^T L_p - L_p^T L_q, whose singular values are the nu's, each twice; M is
    scaled by a power of two to keep it finite.  One mode gives nu = |M_01| =
    |l00 l11|, read off L before A and M are formed: the scaling is exact.  Two
    modes split M into commuting self-dual and anti-self-dual parts, of singular
    values s1/2 and s2/2, so nu_+ = (s1 + s2)/2 and nu_- = |s1 - s2|/2, a form of
    the two-mode invariants of Serafini, Illuminati and De Siena, J. Phys. B 37,
    L21 (2004).  From three modes they are roots of every other eigenvalue of M^T M."""
    m = L.shape[-1] // 2
    if m == 1:
        return np.abs(L[..., :1, 0] * L[..., 1:, 1])
    A = np.swapaxes(L[..., :m, :], -1, -2) @ L[..., m:, :]
    e = np.frexp(np.max(np.abs(A), axis=(-2, -1), keepdims=True))[1]
    M = np.ldexp(A - np.swapaxes(A, -1, -2), -e)
    if m == 2:
        a, b, c, d, f, h = (M[..., i, j] for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
        # products, not ** 2: a numpy float squares by libm pow, an array may not
        s1 = np.sqrt((a + h) * (a + h) + (b - f) * (b - f) + (c + d) * (c + d))
        s2 = np.sqrt((a - h) * (a - h) + (b + f) * (b + f) + (c - d) * (c - d))
        nus = np.stack([np.abs(s1 - s2), s1 + s2], axis=-1) / 2.0
    else:
        nus = np.sqrt(np.linalg.eigvalsh(np.swapaxes(M, -1, -2) @ M)[..., ::2])
    return np.ldexp(nus, e[..., 0])


def _symplectic_eigs(cov: np.ndarray) -> np.ndarray:
    """Ascending symplectic eigenvalues of a covariance matrix > 0 or a stack,
    (..., 2m, 2m) -> (..., m): a Cholesky factor and :func:`_factor_eigs`.
    InvalidStateError if one is not finite, as from a non-finite covariance."""
    nus = _factor_eigs(_cholesky(cov))
    _require(np.all(np.isfinite(nus)), "state data must be finite", error=InvalidStateError)
    return nus


def symplectic_eigenvalues(state: GaussianState) -> tuple:
    """Ascending symplectic spectrum of a state, by :func:`_factor_eigs`; its
    construction checked it against :func:`_nu_floor`."""
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
    return float(_photon_number(state.cov, state.mean))


def _photon_number(cov, mean):
    """:func:`mean_photon_number` over stacks of covariances and means."""
    dot = (mean[..., None, :] @ mean[..., :, None])[..., 0, 0]
    return (np.trace(cov, axis1=-2, axis2=-1) - cov.shape[-1]) / 4.0 + 0.5 * dot


def reduce_state(state: GaussianState, modes) -> GaussianState:
    """Marginal state on the given mode indices (order preserved)."""
    idx = _block_index(modes, state.modes)
    return GaussianState(len(idx) // 2, state.mean[idx], state.cov[idx[:, None], idx])


# ---------------------------------------------------------------------------
# Fidelity
# ---------------------------------------------------------------------------

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
    return float(_fidelity(a.cov, b.cov, a.mean, b.mean))


def _fidelity(V1, V2, mu1=0.0, mu2=0.0) -> np.ndarray:
    """:func:`two_mode_fidelity` over stacks of checked two-mode covariances
    (..., 4, 4) of one shape and means (..., 4); gives an array (...).  Each
    branch runs only on its own pairs, and a failing pair raises the
    one-pair error."""
    d = np.broadcast_to(mu2 - mu1, V1.shape[:-1])
    S, F = V1 + V2, np.ones(V1.shape[:-2])  # F holds the mean factor first
    shift = np.any(d != 0.0, axis=-1)
    if shift.any():
        try:
            sol = np.linalg.solve(S[shift], d[shift][..., None])
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError("V1 + V2 is singular") from exc
        F[shift] = np.exp(-(d[shift][..., None, :] @ sol)[..., 0, 0])
    det = np.linalg.det(S)
    # prod(nu_j)^2 = det V, and nu_j >= 1, so purity <=> det V = 1
    pure = np.any(np.abs(np.linalg.det(np.stack([V1, V2])) - 1.0) <= _PURITY_DET_TOL, axis=0)
    if pure.any():
        if not np.all(np.isfinite(det[pure]) & (det[pure] > 0)):
            raise SingularMatrixError("non-finite determinant in fidelity")
        F[pure] = 4.0 / np.sqrt(det[pure]) * F[pure]
    if not pure.all():
        W1, W2, Om, delta = V1[~pure], V2[~pure], omega(2), det[~pure] / 16.0
        gamma = np.linalg.det(Om @ W1 @ Om @ W2 - np.eye(4)) / 16.0
        lam = np.real(np.linalg.det(W1 + 1j * Om) * np.linalg.det(W2 + 1j * Om)) / 16.0
        if not np.all(np.isfinite(delta) & np.isfinite(gamma) & np.isfinite(lam)):
            raise SingularMatrixError("non-finite determinant in fidelity")
        sg, sl = np.sqrt(np.maximum(gamma, 0.0)), np.sqrt(np.maximum(lam, 0.0))
        # float_power is libm pow, as ** 2 on a numpy float; the array square
        # can differ in the last bit, which the cancellation here enlarges
        denom = sg + sl - np.sqrt(np.maximum(np.float_power(sg + sl, 2) - delta, 0.0))
        if not np.all((denom > 0) & np.isfinite(denom)):
            raise SingularMatrixError("degenerate denominator in fidelity")
        F[~pure] = F[~pure] / denom
    return np.fmin(F, 1.0)


# ---------------------------------------------------------------------------
# Channel action and symplectic building blocks
# ---------------------------------------------------------------------------

def embed_matrix(M: np.ndarray, modes, total_modes: int, diag: float = 1.0) -> np.ndarray:
    """Embed a 2k x 2k block-ordered matrix acting on `modes`, or each of a stack
    (..., 2k, 2k), into `diag` times the 2m x 2m identity, m = total_modes."""
    idx = _block_index(modes, total_modes)
    if M.shape[-2:] != (len(idx),) * 2:
        raise DomainError(f"matrix shape {M.shape} does not match {len(idx) // 2} modes")
    full = np.broadcast_to(diag * np.eye(2 * total_modes), M.shape[:-2] + (2 * total_modes,) * 2).copy()
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
        Subset of modes the channel acts on: distinct indices below
        state.modes (DomainError otherwise).

    Raises
    ------
    InvalidChannelError
        If Y + i(Omega - X Omega X^T) has an eigenvalue below -1e-8.
    """
    X, Y = (_reals("apply_gaussian_channel", name, M, arrays=True)[0] for name, M in (("X", X), ("Y", Y)))
    cov, mean = _apply(X, Y, state.cov, state.mean, modes)
    if d is not None:
        d, = _reals("apply_gaussian_channel", "d", d, arrays=True)
        mean[slice(None) if modes is None else _block_index(modes, state.modes)] += d
    if not np.all(np.isfinite(mean)):  # d may be non-finite; cov is checked
        raise InvalidStateError("state data must be finite")
    out = object.__new__(GaussianState)  # not GaussianState(...): it checks cov again
    out.__dict__.update(modes=cov.shape[-1] // 2, mean=_as_readonly(mean), cov=_as_readonly(cov))
    return out


def _apply(X, Y, cov, mean, modes=None):
    """:func:`apply_gaussian_channel` without d, over stacks: channels
    X (..., 2k, 2l) and Y (..., 2k, 2k) acting on checked covariances and
    means that broadcast against them; returns the output (cov, mean).  One
    eigvalsh checks every channel and one :func:`_checked_cov` every output,
    and the first bad one raises the one-state error."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    m_out2, m_in2 = X.shape[-2:]
    if m_out2 % 2 or m_in2 % 2:
        raise DomainError("X must have even dimensions")
    m_out, m_in = m_out2 // 2, m_in2 // 2
    if Y.shape[-2:] != (m_out2, m_out2):
        raise DomainError("Y shape does not match X output dimension")
    lo = np.min(np.linalg.eigvalsh(Y + 1j * omega(m_out) - 1j * X @ omega(m_in) @ np.swapaxes(X, -1, -2)),
                axis=-1)
    if np.any(lo < -PSD_FLOOR):
        raise InvalidChannelError(f"channel PSD condition fails: min eigenvalue "
                                  f"{lo.flat[np.argmax(lo < -PSD_FLOOR)]:.3e} < -{PSD_FLOOR:g}")
    total = cov.shape[-1] // 2
    if modes is not None:
        if m_in != m_out or 2 * m_in != len(_block_index(modes, total)):
            raise DomainError("subset application requires square X on the given modes")
        X, Y = embed_matrix(X, modes, total), embed_matrix(Y, modes, total, 0.0)
    elif m_in != total:
        raise DomainError("X input dimension does not match the state")
    return _checked_cov(X @ cov @ np.swapaxes(X, -1, -2) + Y), (X @ mean[..., None])[..., 0]


def beamsplitter_symplectic(kind: str, transmissivity: float) -> np.ndarray:
    """4x4 symplectic matrix of a two-mode beamsplitter, or a stack (..., 4, 4)
    over an array of transmissivities in [0, 1].

    kind "B" uses the (+,-) sign convention
        b  =  sqrt(t) a - sqrt(1-t) e,
        e' =  sqrt(1-t) a + sqrt(t) e,
    while kind "Bprime" uses
        c2 =  sqrt(t) c1 + sqrt(1-t) d1,
        d2 = -sqrt(1-t) c1 + sqrt(t) d1.
    The phase difference between the two is essential for the degrading
    channel construction.
    """
    t, = _reals("beamsplitter_symplectic", "transmissivity", transmissivity, arrays=True)
    if not np.all((0.0 <= t) & (t <= 1.0)):
        raise DomainError("transmissivity must lie in [0, 1]")
    if not isinstance(kind, str) or kind not in ("B", "Bprime"):
        raise DomainError(f"unknown beamsplitter kind {kind!r}")
    rt, rr = np.sqrt(t), (1.0 if kind == "B" else -1.0) * np.sqrt(1.0 - t)  # the lower-left sqrt(1-t)
    A = _mat2(rt, -rr, rr, rt)
    return _pair_cov(A, A)


def two_mode_squeezer_symplectic(gain: float) -> np.ndarray:
    """4x4 symplectic matrix of a two-mode squeezer with finite gain G >= 1, or
    a stack (..., 4, 4) over an array of gains.

    Implements b = sqrt(G) a + sqrt(G-1) e^dag on mode pairs: the q-block is
    [[sqrt(G), sqrt(G-1)], [sqrt(G-1), sqrt(G)]] and the p-block carries the
    opposite off-diagonal sign.
    """
    G, = _reals("two_mode_squeezer_symplectic", "gain", gain, arrays=True)
    if not np.all((G >= 1.0) & (G < np.inf)):  # False for nan
        raise DomainError("squeezer gain must be >= 1 and finite")
    s, r = np.sqrt(G), np.sqrt(G - 1.0)
    return _pair_cov(_mat2(s, r, r, s), _mat2(s, -r, -r, s))
