"""Named invariant checks and the numerical oracles behind them.

Everything here recomputes quantities through an independent route (matrix
dilations, dense grids, finite differences) and compares against the
closed forms, so a silent formula regression shows up as a failed check.
The CLI `verify` subcommand runs these suites; the test suite reuses them.
Each check is declared once, by :func:`_check`, which registers it in its
suite in definition order; its body returns the parts of its residual, and
the residual is their np.max, which keeps a nan, so a nan part FAILs.
A check draws its seeded samples in a fixed order (a row's uniform ones in one
rng.random call) and works on the drawn arrays, with no channel object and no
BoundResult: on `gaussian_core`'s array cores, it validates the stacked states
once, applies each stack of channels in one `_apply` call, calls each registry
form or oracle core once per channel kind, minimizes all its penalties in one
batch and builds only a dilation's marginal.  The U_D oracle reads H(G E'2 E'1)
as H(B), the output's entropy; the dense-grid oracle prunes in two passes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import bounds as bnd
from . import channels as chn
from . import gaussian_core as gc
from .errors import DomainError, _reals, _require, _shown
from .gaussian_core import LN2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tol: float
    note: str = ""

    def format(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        line = f"[{tag}] {self.name}: max residual {self.residual:.3g} < {self.tol:g}"
        if self.note:
            line += f" ({self.note})"
        return line


CORE_CHECKS, BOUNDS_CHECKS = [], []


def _check(suite, name, tol, note=""):
    """Register the decorated body in `suite` as a check.  The body returns its
    residual parts (arrays or floats; a floor at 0 is a part 0.0), the last of
    which may be a bool that a PASS also needs; + 0.0 reads a -0.0 max as 0."""
    def register(body):
        @functools.wraps(body)
        def check(*args, **kwargs):
            parts = list(body(*args, **kwargs))
            ok = parts.pop() if isinstance(parts[-1], bool) else True
            worst = float(np.max(np.concatenate([np.ravel(p) for p in parts]))) + 0.0
            return CheckResult(name, worst < tol and ok, worst, tol, note)

        suite.append(check)
        return check

    return register


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def coherent_info_oracle(ch, ns):
    """I_c at TMS(ns) input computed as H(B) - H(RB) through the channel's
    beamsplitter / squeezer dilation; independent of the closed forms.  `ch`
    is one thermal or amplifier channel and ns a float or an array of them."""
    with np.errstate(over="ignore", invalid="ignore"):  # a huge ns reaches _symplectic_eigs' error
        return _coherent_info(*chn._channel_params(ch), ns)


def _coherent_info(kind, x, nb, ns):
    """:func:`coherent_info_oracle` of the channel parameters (kind, x, nb)."""
    tms = gc._pair_cov(*gc.tms_qblocks(ns))  # R, A
    V = chn._dilation(tms, [gc.tms_qblocks(nb)], [chn._channel_step(kind, x)], (0, 1))  # R, B
    return gc._entropy_from_cov(V, (1,)) - gc._entropy_from_cov(V)


def ud_oracle(ch, input_cov: np.ndarray):
    """Conditional entropy H(G | E'1 E'2) through the degrading dilation for
    a single-mode input covariance (2, 2), or a stack (n, 2, 2) (another shape or
    a non-finite entry is an InvalidStateError), with `ch` one thermal or amplifier channel.
    H(G E'2 E'1) is taken as H(B), the channel output's entropy (see :func:`_ud`)."""
    return _ud(*chn._channel_params(ch), chn._input_covs("ud_oracle", input_cov, 1))


def _ud(kind, x, nb, input_cov):
    """:func:`ud_oracle` of the channel parameters (kind, x, nb): H(B) - H(E'2 E'1).
    The degrading step is a unitary on (B, F) and E'1 purifies F, so B -> (G,
    E'2, E'1) is an isometry and H(G E'2 E'1) = H(B) for every input, read
    from the channel step's own dilation as in :func:`_coherent_info`."""
    VE = chn._degrading(kind, x, nb, input_cov, ("E2p", "E1p"))[0]
    VB = chn._dilation(input_cov, [gc.tms_qblocks(nb)], [chn._channel_step(kind, x)], (0,))
    return gc._entropy_from_cov(VB) - gc._entropy_from_cov(VE)


def _pair_covs(q, p):
    """Checked covariance stack of the two-mode states of (q, p) block stacks."""
    return gc._checked_cov(gc._pair_cov(q, p))


def _uniform_rows(rng, n, *bounds):
    """Columns of n rows of uniform draws, one per (low, high) of `bounds` in a row
    (n None gives one row of floats): the stream and bits of n rows of scalar
    rng.uniform calls, which compute low + (high - low) u, in one rng.random call.
    An rng that is not a numpy Generator is a DomainError."""
    if not isinstance(rng, np.random.Generator):
        raise DomainError(f"the samplers take a numpy Generator as rng, got {_shown(rng)}")
    low, high = np.array(bounds).T
    return (low + (high - low) * rng.random((() if n is None else (n,)) + low.shape)).T


def _rotated(th, d0, d1, nu=1.0):
    """(nu R(th)) diag(d0, d1) R(th)^T over floats or arrays of one shape."""
    c, s, zero = np.cos(th), np.sin(th), np.zeros_like(th)
    R = gc._mat2(c, -s, s, c)
    return (np.asarray(nu)[..., None, None] * R) @ gc._mat2(d0, zero, zero, d1) @ np.swapaxes(R, -1, -2)


_COV_DRAWS = ((0.0, 1.0), (0.0, 1.0), (0.0, np.pi))  # random_single_mode_cov's, in order
_NS_MAX = np.finfo(float).max / 8.0


def random_single_mode_cov(ns, rng) -> np.ndarray:
    """Random single-mode covariance of a state whose total mean photon
    number is exactly ns: a rotated squeezed thermal covariance carrying a
    random share of the energy, the rest sitting in a displacement (which
    affects no entropy).  Its largest entry is below 4 ns + 2, so ns may be at
    most float64's max / 8, which leaves room for rounding."""
    ns, = _reals("random_single_mode_cov", "ns", ns)
    _require(0.0 <= ns <= _NS_MAX, f"random_single_mode_cov needs ns in [0, {_NS_MAX:.4g}], got ns = {ns!r}")
    return _single_mode_cov(ns, *_uniform_rows(rng, None, *_COV_DRAWS))


def _single_mode_cov(ns, u, a, th):
    """:func:`random_single_mode_cov` of the draws (u, a, th) of _COV_DRAWS,
    over floats or arrays of one shape."""
    ev = u * ns
    ch = 1.0 + a * 2.0 * ev
    r = 0.5 * np.arccosh(ch)
    return _rotated(th, np.exp(2.0 * r), np.exp(-2.0 * r), (2.0 * ev + 1.0) / ch)


def random_valid_qblock(rng, scale: float = 5.0) -> np.ndarray:
    """Random position block of a valid two-mode covariance (>= I suffices)."""
    scale, = _reals("random_valid_qblock", "scale", scale)
    _require(scale >= 0.0, "random_valid_qblock: scale = {} must be >= 0", scale)
    th, a, b = _uniform_rows(rng, None, (0.0, np.pi), (0.0, scale), (0.0, scale))
    return _rotated(th, 1.0 + a, 1.0 + b)


# ---------------------------------------------------------------------------
# Core suite
# ---------------------------------------------------------------------------

@_check(CORE_CHECKS, "state_invariants", 1e-9)
def check_state_invariants(n=200):
    # each sample's ns, then its random_single_mode_cov draws
    covs = _single_mode_cov(*_uniform_rows(np.random.default_rng(7), n, (0.0, 20.0), *_COV_DRAWS))
    return 0.0, 1.0 - gc._symplectic_eigs(gc._checked_cov(covs))[:, 0]


@_check(CORE_CHECKS, "tms_purity", 1e-9)
def check_tms_purity(n=50):
    tms = _pair_covs(*gc.tms_qblocks(np.random.default_rng(1234).uniform(0.0, 100.0, n)))
    return (np.abs(gc._entropy_from_cov(tms)),)


@_check(CORE_CHECKS, "g_monotone_concave", 1e-12, "finite differences on [0, 100]")
def check_g_shape(points=1000):
    xs = np.linspace(0.0, 100.0, points)
    ys = gc.g_entropy(xs)
    return -np.diff(ys), np.diff(ys, 2)


def _xy(kind, x, nb):
    """Stacks (n, 2, 2) of the X and Y of channels of arrays x (eta or g) and nb, with their bits."""
    nu = np.array(list(map(chn._nu, (1.0 - x if kind == "thermal" else x - 1.0).tolist(), nb.tolist())))
    return np.sqrt(x)[:, None, None] * np.eye(2), nu[:, None, None] * np.eye(2)


@_check(CORE_CHECKS, "channel_composition", 1e-10)
def check_channel_composition(n=100):
    rng = np.random.default_rng(11)
    means, rows = [], []
    for _ in range(n):  # a sample's normal draws, then its ns, cov and channel draws
        means.append(rng.normal(size=2))
        rows.append(_uniform_rows(rng, None, (0.0, 10.0), *_COV_DRAWS,
                                  (0.3, 1.0), (0.0, 2.0), (1.0, 2.5), (0.0, 2.0)))
    ns, u, a, th, eta, nb1, g, nb2 = np.array(rows).T
    (X1, Y1), (X2, Y2) = _xy("thermal", eta, nb1), _xy("amplifier", g, nb2)
    V, mean = gc._checked_cov(_single_mode_cov(ns, u, a, th)), np.array(means)
    step = gc._apply(X2, Y2, *gc._apply(X1, Y1, V, mean))[0]
    once = gc._apply(X2 @ X1, X2 @ Y1 @ np.swapaxes(X2, -1, -2) + Y2, V, mean)[0]
    return (np.abs(step - once),)


@_check(CORE_CHECKS, "fidelity_symmetry_identity", 1e-9)
def check_fidelity_basics(n=50):
    nph, eta, nb = _uniform_rows(np.random.default_rng(13), n, (0.0, 5.0), (0.5, 1.0), (0.0, 2.0))
    A = _pair_covs(*gc.tms_qblocks(nph))  # then the thermal channels on mode 1
    B = gc._apply(*_xy("thermal", eta, nb), A, np.zeros(4), modes=(1,))[0]
    F = gc._fidelity(np.stack([A, B, A, B]), np.stack([A, B, B, A]))
    return (np.abs([1.0 - F[0], 1.0 - F[1], F[2] - F[3]]),)


@_check(CORE_CHECKS, "symplectic_constructors", 1e-10)
def check_symplectic_constructors():
    O, t = gc.omega(2), np.linspace(0.0, 1.0, 11)
    S = np.concatenate([gc.beamsplitter_symplectic("B", t), gc.beamsplitter_symplectic("Bprime", t),
                        gc.two_mode_squeezer_symplectic(np.linspace(1.0, 4.0, 11))])
    return (np.abs(S @ O @ np.swapaxes(S, -1, -2) - O),)


@_check(CORE_CHECKS, "photon_bookkeeping", 1e-10)
def check_photon_bookkeeping(n=50):
    eta, nb, ns = _uniform_rows(np.random.default_rng(17), n, (0.05, 1.0), (0.0, 3.0), (0.0, 10.0))
    V, mean = gc._apply(*_xy("thermal", eta, nb), _pair_covs(*gc.tms_qblocks(ns)),
                        np.zeros(4), modes=(1,))
    idx = gc._block_index((1,), 2)  # the output arm
    got = gc._photon_number(V[:, idx[:, None], idx], mean[:, idx])
    return (np.abs(got - (eta * ns + (1.0 - eta) * nb)),)


# ---------------------------------------------------------------------------
# Bounds suite
# ---------------------------------------------------------------------------

@_check(BOUNDS_CHECKS, "deg_vs_sim_cov", 1e-10)
def check_deg_vs_sim_cov(n=1000):
    # random_valid_qblock's draws, then the channels'
    th, a, b, eta, nb, g = _uniform_rows(np.random.default_rng(23), n, (0.0, np.pi), (0.0, 5.0), (0.0, 5.0),
                                         (0.5, 1.0), (0.0, 3.0), (1.0 + 1e-6, 3.0))
    q = chn._validate_qblock(_rotated(th, 1.0 + a, 1.0 + b))
    return tuple(np.abs((A - B)[..., :3, :3]) for A, B in  # the q-blocks
                 (chn._deg_sim_routes(kind, x, nb, q) for kind, x in (("thermal", eta), ("amplifier", g))))


@_check(BOUNDS_CHECKS, "fidelity_identity", 1e-10, "F(psi_TMS, omega) = eta^2/kappa")
def check_fidelity_identity(n_eta=20, n_nb=20):
    eta, nb = (v.ravel() for v in np.meshgrid(np.linspace(0.5, 1.0, n_eta),
                                              np.linspace(0.0, 3.0, n_nb), indexing="ij"))
    fid = gc._fidelity(_pair_covs(*gc.tms_qblocks(nb)), _pair_covs(*chn.noisy_tms_qblocks(nb, eta)))
    # float_power is libm pow: the bits of eta ** 2 on a float
    return (np.abs(fid - np.float_power(eta, 2) / chn._kappa(eta, nb)),)


@_check(BOUNDS_CHECKS, "eps_consistency", 1e-10)
def check_eps_consistency(n=200):
    eta, nb = _uniform_rows(np.random.default_rng(29), n, (0.5, 1.0), (0.0, 3.0))
    fid = gc._fidelity(_pair_covs(*gc.tms_qblocks(nb)), _pair_covs(*chn.noisy_tms_qblocks(nb, eta)))
    return (np.abs(chn._eps_degradable(eta, nb) - np.sqrt(np.maximum(1.0 - fid, 0.0))),)


def _ql_oracle(seed, kind, x_range, n):
    """QL's registry form for channels of `kind` against :func:`_coherent_info` at n draws."""
    x, nb, ns = _uniform_rows(np.random.default_rng(seed), n, x_range, (0.0, 3.0), (0.0, 50.0))
    return (np.abs(_form("QL", kind).fn(x, nb, ns) - _coherent_info(kind, x, nb, ns)),)


@_check(BOUNDS_CHECKS, "ql_oracle_thermal", 1e-9)
def check_ql_oracle_thermal(n=1000):
    return _ql_oracle(31, "thermal", (0.02, 1.0), n)


@_check(BOUNDS_CHECKS, "ql_oracle_amp", 1e-9)
def check_ql_oracle_amp(n=1000):
    return _ql_oracle(37, "amplifier", (1.001, 4.0), n)


@_check(BOUNDS_CHECKS, "ud_oracle", 1e-9, "closed form vs H(G|E'1E'2) through the dilation")
def check_ud_oracle(n=200):
    rng = np.random.default_rng(41)
    eta, nb, ns, g = _uniform_rows(rng, n, (0.5, 1.0), (0.0, 2.0), (0.0, 20.0), (1.001, 3.0))
    covs = (2 * ns + 1)[:, None, None] * np.eye(2)
    return tuple(np.abs(raw(x, nb, ns) - _ud(kind, x, nb, covs)) for raw, kind, x in
                 ((bnd._ud_thermal_raw, "thermal", eta), (bnd._ud_amp_raw, "amplifier", g)))


@_check(BOUNDS_CHECKS, "thermal_input_optimality", 1e-9,
        "random equal-energy inputs never beat the thermal input")
def check_thermal_input_optimality(n_points=50, n_inputs=100):
    rng = np.random.default_rng(43)
    # a point's eta, nb and ns, then its n_inputs random_single_mode_cov draws
    draws = _uniform_rows(rng, n_points, (0.5, 1.0), (0.0, 2.0), (0.1, 10.0), *(_COV_DRAWS * n_inputs))
    eta, nb, ns = draws[:3]
    # inputs (n_inputs + 1, n_points, 2, 2), the random ones, then the thermal one: one dilation per channel
    covs = np.concatenate([_single_mode_cov(ns, *(draws[3 + k::3] for k in range(3))),
                           (2 * ns + 1)[None, :, None, None] * np.eye(2)])
    vals = _ud("thermal", eta, nb, covs)
    return (np.max(vals[:-1], axis=0) - vals[-1],)


@_check(BOUNDS_CHECKS, "gap_law", 1e-9, "0 <= QU1 - QL <= 1/ln 2")
def check_gap_law(n=10000):
    rng = np.random.default_rng(47)
    eta, nb, ns = (rng.uniform(lo, hi, n) for lo, hi in ((0.5, 1.0), (0.0, 5.0), (0.0, 100.0)))
    gap = bnd._qu1_thermal_raw(eta, nb, ns) - bnd._ql_thermal_raw(eta, nb, ns)
    return -gap, gap - 1.0 / LN2


@_check(BOUNDS_CHECKS, "bound_ordering", 1e-9, "QL below every applicable upper bound")
def check_bound_ordering(n_fast=10000, n_opt=400):
    rng = np.random.default_rng(53)
    eta, nb, ns = (rng.uniform(lo, hi, n_fast) for lo, hi in ((0.5, 1.0), (0.0, 5.0), (0.0, 100.0)))
    ql = bnd._ql_thermal_raw(eta, nb, ns)
    feas = eta > (1.0 - eta) * nb
    # QU4 asserts only the clamped bound; raw can dive below QL once the
    # decomposed pure-loss transmissivity drops under 1/2
    qu4 = np.maximum(bnd._qu4_thermal_raw(eta[feas], nb[feas], ns[feas]), 0.0)
    # the first n_opt draws pass every QU2 and QU3 check (finite ns >= 0, eta >= 1/2)
    # and have 0 < eps < 1, so each form runs on the evaluator's columns and every
    # cell's eps' is minimized, QU2's rows (k = 1), then QU3's (k = 2), in one batch
    kinds = ("QU2", "QU3")
    forms = [_form(kind, "thermal").fn(eta[:n_opt], nb[:n_opt], ns[:n_opt]) for kind in kinds]
    base, w_prime, eps = map(np.concatenate, zip(*forms))
    raw = base + bnd._min_penalty(eps, w_prime, np.repeat([bnd.REGISTRY[k].k for k in kinds], n_opt))[0]
    return ql - bnd._qu1_thermal_raw(eta, nb, ns), ql[feas] - qu4, ql[:n_opt] - raw.reshape(2, n_opt)


def _form(kind, channel_kind):
    """The registry form of bound `kind` on channels of `channel_kind`."""
    return bnd.REGISTRY[kind].forms[channel_kind]


@_check(BOUNDS_CHECKS, "unconstrained_limit", 1e-3, "clamped QU1 nondecreasing, limit reached at ns = 1e6")
def check_unconstrained_limit():
    eta, nb = _uniform_rows(np.random.default_rng(59), 20, (0.5, 0.999), (0.0, 3.0))
    # the published bound is max{0, raw}; raw itself decreases once the
    # decomposed pure-loss transmissivity eta' falls below 1/2
    vals = np.maximum(bnd._qu1_thermal_raw(eta[:, None], nb[:, None], np.geomspace(0.01, 1e6, 200)), 0.0)
    return 0.0, -np.diff(vals), np.abs(vals[:, -1] - np.maximum(_form("QU1", "thermal").limit(eta, nb), 0.0))


@_check(BOUNDS_CHECKS, "private_improvement", 1e-9, "P_L >= Q_L with a strict improvement band")
def check_private_improvement():
    # four rows of 25 eta values, one per (nb, ns); every cell passes PL's checks (finite ns >= 0)
    grid = np.meshgrid([0.01, 0.1], [0.1, 10.0], np.linspace(0.3, 0.9, 25), indexing="ij")
    nb, ns, eta = (v.ravel() for v in grid)
    gain = _form("PL", "thermal").fn(eta, nb, ns)[0] - bnd._ql_thermal_raw(eta, nb, ns)
    return 0.0, -gain, bool(np.all(np.any(gain.reshape(4, 25) > 1e-4, axis=1)))


@_check(BOUNDS_CHECKS, "comparison_orderings", 1e-9, "RMG/PLOB orderings and additive crossover")
def check_comparison_orderings(n=2000, n_nbar=100):
    eta, nb = _uniform_rows(np.random.default_rng(61), n, (0.01, 0.999), (0.0, 5.0))
    keep = (eta > (1.0 - eta) * nb) & (eta >= 0.5)  # where RMG and QU1 are defined
    eta, nb = eta[keep], nb[keep]
    # the clamped RMG value against the clamped QU1 limit
    rmg_gap = (np.maximum(_form("RMG", "thermal").fn(eta, nb, 0.0), 0.0)
               - np.maximum(_form("QU1", "thermal").limit(eta, nb), 0.0))
    nbars = np.linspace(0.01, 0.99, n_nbar)
    plob = _form("PLOB", "additive").fn(nbars, 0.0)
    signs = np.sign(np.maximum(_form("QU4", "additive").limit(nbars), 0.0) - np.maximum(plob, 0.0))
    crossover = (1.0 in signs or 0.0 in signs) and -1.0 in signs
    return 0.0, rmg_gap, plob - _form("QU1", "additive").limit(nbars), crossover


_DENSE_BLOCKS = (2000, 50)  # _dense_min's block sizes, pass by pass; each divides the one before


def _dense_min(eps, w_prime, k, dense):
    """float(np.min(bnd._penalty_eval(np.linspace(eps + 1e-12, 1.0, dense), eps,
    w_prime, k))) bit for bit (dense >= 2), evaluating only the sub-blocks of
    grid points that a certified lower bound cannot rule out.

    Grid point i is i * step + start and the last one is 1.0: numpy's linspace
    arithmetic, so no grid is built.  U, the least penalty at the block
    endpoints evaluated so far, is at or above the dense minimum.  On a block
    [e_a, e_b], with d = (e - eps)/(1 + e): d and 2e + 4d increase, g(W'/d)
    decreases, g(e) increases and h2 is concave, so every point of the block
    is at least LB = k [(2 e_a + 4 d_a) g(W'/d_b) + g(e_a) + 2 min(h2(d_a),
    h2(d_b))]/ln 2.  A block is skipped only if LB (1 - 1e-6) > U and W'/d_a
    <= 1e6: above about 1e6 the computed g no longer follows the mathematical
    one (ROADMAP item E), so the bound would not hold for the computed
    penalty.  The first pass prunes blocks of _DENSE_BLOCKS[0] points; each
    later pass splits the kept blocks into sub-blocks of the next size,
    lowers U with their endpoints (grid points too) and prunes again.  The
    block that holds the argmin has LB <= U at every pass and is kept, so the
    minimum is the full grid's.  The optimizer's result is never read."""
    start = eps + 1e-12
    step, last = (1.0 - start) / (dense - 1), dense - 1

    def grid(i):
        return np.where(i == last, 1.0, i * step + start)

    heads, span, upper = np.zeros(1, dtype=np.int64), dense, np.inf
    for block in _DENSE_BLOCKS:
        heads = (heads[:, None] + np.arange(0, span, block)).ravel()
        heads, span = heads[heads <= last], block
        e_a, e_b = grid(heads), grid(np.minimum(heads + block - 1, last))
        upper = np.minimum(upper, np.min(bnd._penalty_eval(np.concatenate([e_a, e_b]), eps, w_prime, k)))
        d_a, d_b = (e_a - eps) / (1.0 + e_a), (e_b - eps) / (1.0 + e_b)
        lower = k * (((2.0 * e_a + 4.0 * d_a) * gc._g_nats(w_prime / d_b) + gc._g_nats(e_a)) / LN2
                     + 2.0 * np.minimum(gc.binary_entropy(d_a), gc.binary_entropy(d_b)))
        heads = heads[(lower * (1.0 - 1e-6) <= upper) | (w_prime / d_a > 1e6)]
    idx = (heads[:, None] + np.arange(span)).ravel()
    return float(np.min(bnd._penalty_eval(grid(idx[idx <= last]), eps, w_prime, k)))


@_check(BOUNDS_CHECKS, "optimizer_vs_grid", 1e-6, "golden-section result at or below the dense-grid minimum")
def check_optimizer_vs_grid(n_obj=10, dense=10 ** 6):
    """The golden-section minimum of each of n_obj seeded penalties is at or
    below (within 1e-6) the minimum over a dense eps' grid, which
    :func:`_dense_min` computes exactly from the blocks it cannot rule out."""
    rng = np.random.default_rng(67)
    draws = ((rng.uniform(0.0001, 0.9), rng.uniform(0.0, 50.0), int(rng.integers(1, 5)))
             for _ in range(n_obj))
    return ([bnd._min_penalty(*d)[0] - _dense_min(*d, dense) for d in draws],)


SUITES = {"core": CORE_CHECKS, "bounds": BOUNDS_CHECKS, "all": CORE_CHECKS + BOUNDS_CHECKS}


def run_suite(which: str = "all") -> list:
    """Run the check suite `which`, a key of :data:`SUITES`; returns the
    list of CheckResults."""
    if not isinstance(which, str) or which not in SUITES:
        raise DomainError(f"unknown suite {which!r}; the suites are {', '.join(SUITES)}")
    # called by module name, so that a wrapper that replaces a check in this
    # module (as the benchmark's tracer does) is the one that runs
    return [globals()[check.__name__]() for check in SUITES[which]]
