"""Named invariant checks and the numerical oracles behind them.

Everything here recomputes quantities through an independent route (matrix
dilations, dense grids, finite differences) and compares against the
closed forms, so a silent formula regression shows up as a failed check.
The CLI `verify` subcommand runs these suites; the test suite reuses them.
A check draws its seeded samples in a fixed order (the uniform ones of a
row in one call), validates the stacked states once, applies each stack of
channels in one call of the channel core behind `apply_gaussian_channel`,
and calls each oracle (which takes a channel column, as
:func:`bounds.evaluate_column` does) or registry form once per channel kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds as bnd
from . import channels as chn
from . import gaussian_core as gc
from .errors import DomainError
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


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def coherent_info_oracle(ch, ns):
    """I_c at TMS(ns) input computed as H(B) - H(RB) through the channel's
    beamsplitter / squeezer dilation; independent of the closed forms.  `ch`
    is one channel and ns a float, or a column of channels and ns an array."""
    kind, x, nb = chn._column_params(ch)  # ChannelKindError off thermal/amplifier
    tms = gc._place_pair(np.zeros(np.shape(ns) + (4, 4)), 0, *gc.tms_qblocks(ns))  # R, A
    V = chn._dilation(tms, [gc.tms_qblocks(nb)], [chn._channel_step(kind, x)])
    return gc._entropy_from_cov(V, (1,)) - gc._entropy_from_cov(V, (0, 1))


def ud_oracle(ch, input_cov: np.ndarray):
    """Conditional entropy H(G | E'1 E'2) through the degrading dilation for
    a single-mode input covariance (2, 2), or an array of them for a stack
    (n, 2, 2), with `ch` one channel or a column of n."""
    V, lab = chn.degrading_dilation_cov(ch, input_cov)
    pair = (lab["E2p"], lab["E1p"])
    return gc._entropy_from_cov(V, (lab["G"], *pair)) - gc._entropy_from_cov(V, pair)


def _raw(cell) -> float:
    """Raw bits of a cell of :func:`bounds.evaluate_column`; raises its error."""
    if not isinstance(cell, bnd.BoundResult):
        raise cell
    return cell.raw


def _pair_covs(q, p):
    """Checked covariance stack of the two-mode states of (q, p) block stacks."""
    return gc._checked_cov(gc._place_pair(np.zeros(q.shape[:-2] + (4, 4)), 0, q, p))


def _uniform_rows(rng, n, *bounds):
    """Columns of n rows of uniform draws, one per (low, high) of `bounds` in a
    row: the draws of n rows of scalar rng.uniform calls, in one call (n None
    gives one row of floats)."""
    low, high = np.array(bounds).T
    return rng.uniform(low, high, (() if n is None else (n,)) + low.shape).T


def _rotated(th, d0, d1, nu=1.0):
    """(nu R(th)) diag(d0, d1) R(th)^T over floats or arrays of one shape."""
    c, s, zero = np.cos(th), np.sin(th), np.zeros_like(th)
    R = gc._mat2(c, -s, s, c)
    return (np.asarray(nu)[..., None, None] * R) @ gc._mat2(d0, zero, zero, d1) @ np.swapaxes(R, -1, -2)


_COV_DRAWS = ((0.0, 1.0), (0.0, 1.0), (0.0, np.pi))  # random_single_mode_cov's, in order


def random_single_mode_cov(ns, rng, n=None) -> np.ndarray:
    """Random single-mode covariance of a state whose total mean photon
    number is exactly ns: a rotated squeezed thermal covariance carrying a
    random share of the energy, the rest sitting in a displacement (which
    affects no entropy).  With n, a stack (n, 2, 2) equal to n calls."""
    return _single_mode_cov(ns, *_uniform_rows(rng, n, *_COV_DRAWS))


def _single_mode_cov(ns, u, a, th):
    """:func:`random_single_mode_cov` of the draws (u, a, th) of _COV_DRAWS,
    over floats or arrays of one shape."""
    ev = u * ns
    ch = 1.0 + a * 2.0 * ev
    r = 0.5 * np.arccosh(ch)
    return _rotated(th, np.exp(2.0 * r), np.exp(-2.0 * r), (2.0 * ev + 1.0) / ch)


def random_valid_qblock(rng, scale: float = 5.0, n=None) -> np.ndarray:
    """Random position block of a valid two-mode covariance (>= I suffices).
    With n, a stack (n, 2, 2) equal to n calls."""
    th, a, b = _uniform_rows(rng, n, (0.0, np.pi), (0.0, scale), (0.0, scale))
    return _rotated(th, 1.0 + a, 1.0 + b)


# ---------------------------------------------------------------------------
# Core suite
# ---------------------------------------------------------------------------

def check_tms_purity(seed=1234, n=50) -> CheckResult:
    rng = np.random.default_rng(seed)
    tms = _pair_covs(*gc.tms_qblocks(rng.uniform(0.0, 100.0, n)))
    worst = max(0.0, float(np.max(np.abs(gc._entropy_from_cov(tms)))))
    return CheckResult("tms_purity", worst < 1e-9, worst, 1e-9)


def check_state_invariants(seed=7, n=200) -> CheckResult:
    rng = np.random.default_rng(seed)
    # each sample's ns, then its random_single_mode_cov draws
    covs = _single_mode_cov(*_uniform_rows(rng, n, (0.0, 20.0), *_COV_DRAWS))
    nus = gc._symplectic_eigs(gc._checked_cov(covs))
    worst = max(0.0, float(np.max(1.0 - nus[:, 0])))
    return CheckResult("state_invariants", worst < 1e-9, worst, 1e-9)


def check_g_shape(points=1000) -> CheckResult:
    xs = np.linspace(0.0, 100.0, points)
    ys = gc.g_entropy(xs)
    worst = max(float(np.max(-np.diff(ys))), float(np.max(np.diff(ys, 2))))
    return CheckResult("g_monotone_concave", worst < 1e-12, worst, 1e-12,
                       "finite differences on [0, 100]")


def _xy(column):
    """Stacks (n, 2, 2) of the X and of the Y matrices of a channel column."""
    return tuple(map(np.stack, zip(*((ch.X, ch.Y) for ch in column))))


def check_channel_composition(seed=11, n=100) -> CheckResult:
    rng = np.random.default_rng(seed)
    means, rows = [], []
    for _ in range(n):  # a sample's normal draws, then its ns, cov and channel draws
        means.append(rng.normal(size=2))
        rows.append(_uniform_rows(rng, None, (0.0, 10.0), *_COV_DRAWS,
                                  (0.3, 1.0), (0.0, 2.0), (1.0, 2.5), (0.0, 2.0)))
    ns, u, a, th, eta, nb1, g, nb2 = np.array(rows).T
    (X1, Y1), (X2, Y2) = _xy(map(chn.thermal, eta, nb1)), _xy(map(chn.amplifier, g, nb2))
    V, mean = gc._checked_cov(_single_mode_cov(ns, u, a, th)), np.array(means)
    step = gc._apply(X2, Y2, *gc._apply(X1, Y1, V, mean))[0]
    once = gc._apply(X2 @ X1, X2 @ Y1 @ np.swapaxes(X2, -1, -2) + Y2, V, mean)[0]
    worst = float(np.max(np.abs(step - once)))
    return CheckResult("channel_composition", worst < 1e-10, worst, 1e-10)


def check_fidelity_basics(seed=13, n=50) -> CheckResult:
    rng = np.random.default_rng(seed)
    nph, eta, nb = _uniform_rows(rng, n, (0.0, 5.0), (0.5, 1.0), (0.0, 2.0))
    A = _pair_covs(*gc.tms_qblocks(nph))  # then the thermal channels on mode 1
    B = gc._apply(*_xy(map(chn.thermal, eta, nb)), A, np.zeros(4), modes=(1,))[0]
    F = gc._fidelity(np.stack([A, B, A, B]), np.stack([A, B, B, A]))
    worst = max(0.0, float(np.max(np.abs([1.0 - F[0], 1.0 - F[1], F[2] - F[3]]))))
    return CheckResult("fidelity_symmetry_identity", worst < 1e-9, worst, 1e-9)


def check_symplectic_constructors() -> CheckResult:
    O, t = gc.omega(2), np.linspace(0.0, 1.0, 11)
    # the stacked builders behind beamsplitter_symplectic and two_mode_squeezer_symplectic
    S = np.concatenate([gc._beamsplitters("B", t), gc._beamsplitters("Bprime", t),
                        gc._squeezers(np.linspace(1.0, 4.0, 11))])
    worst = max(0.0, float(np.max(np.abs(S @ O @ np.swapaxes(S, -1, -2) - O))))
    return CheckResult("symplectic_constructors", worst < 1e-10, worst, 1e-10)


def check_photon_bookkeeping(seed=17, n=50) -> CheckResult:
    rng = np.random.default_rng(seed)
    eta, nb, ns = _uniform_rows(rng, n, (0.05, 1.0), (0.0, 3.0), (0.0, 10.0))
    V, mean = gc._apply(*_xy(map(chn.thermal, eta, nb)), _pair_covs(*gc.tms_qblocks(ns)),
                        np.zeros(4), modes=(1,))
    idx = gc._block_index((1,), 2)  # the output arm
    got = gc._photon_number(V[:, idx[:, None], idx], mean[:, idx])
    worst = max(0.0, float(np.max(np.abs(got - (eta * ns + (1.0 - eta) * nb)))))
    return CheckResult("photon_bookkeeping", worst < 1e-10, worst, 1e-10)


# ---------------------------------------------------------------------------
# Bounds suite
# ---------------------------------------------------------------------------

def check_deg_vs_sim_cov(seed=23, n=1000) -> CheckResult:
    rng = np.random.default_rng(seed)
    # random_valid_qblock's draws, then the channels'
    th, a, b, eta, nb, g = _uniform_rows(rng, n, (0.0, np.pi), (0.0, 5.0), (0.0, 5.0),
                                         (0.5, 1.0), (0.0, 3.0), (1.0 + 1e-6, 3.0))
    columns = ([chn.thermal(*p) for p in zip(eta.tolist(), nb.tolist())],
               [chn.amplifier(*p) for p in zip(g.tolist(), nb.tolist())])
    worst = max(float(np.max(np.abs(A - B))) for A, B in
                (chn.degrading_simulation_check(c, _rotated(th, 1.0 + a, 1.0 + b)) for c in columns))
    return CheckResult("deg_vs_sim_cov", worst < 1e-10, worst, 1e-10)


def check_fidelity_identity(n_eta=20, n_nb=20) -> CheckResult:
    eta, nb = (v.ravel() for v in np.meshgrid(np.linspace(0.5, 1.0, n_eta),
                                              np.linspace(0.0, 3.0, n_nb), indexing="ij"))
    fid = gc._fidelity(_pair_covs(*gc.tms_qblocks(nb)), _pair_covs(*chn.noisy_tms_qblocks(nb, eta)))
    # float_power is libm pow: the bits of eta ** 2 on a float
    worst = max(0.0, float(np.max(np.abs(fid - np.float_power(eta, 2) / chn._kappa(eta, nb)))))
    return CheckResult("fidelity_identity", worst < 1e-10, worst, 1e-10,
                       "F(psi_TMS, omega) = eta^2/kappa")


def check_eps_consistency(seed=29, n=200) -> CheckResult:
    rng = np.random.default_rng(seed)
    eta, nb = _uniform_rows(rng, n, (0.5, 1.0), (0.0, 3.0))
    fid = gc._fidelity(_pair_covs(*gc.tms_qblocks(nb)), _pair_covs(*chn.noisy_tms_qblocks(nb, eta)))
    gap = chn._eps_degradable(eta, nb) - np.sqrt(np.maximum(1.0 - fid, 0.0))
    worst = max(0.0, float(np.max(np.abs(gap))))
    return CheckResult("eps_consistency", worst < 1e-10, worst, 1e-10)


def _residual(raw, column, ns, oracle) -> float:
    """Largest |raw(x, nb, ns) - oracle| over the cells of a channel column."""
    _, x, nb = chn._column_params(column)
    return float(np.max(np.abs(raw(x, nb, ns) - oracle)))


def check_ql_oracle_thermal(seed=31, n=1000) -> CheckResult:
    rng = np.random.default_rng(seed)
    eta, nb, ns = _uniform_rows(rng, n, (0.02, 1.0), (0.0, 3.0), (0.0, 50.0))
    column = [chn.thermal(*p) for p in zip(eta.tolist(), nb.tolist())]
    worst = _residual(bnd._ql_thermal_raw, column, ns, coherent_info_oracle(column, ns))
    return CheckResult("ql_oracle_thermal", worst < 1e-9, worst, 1e-9)


def check_ql_oracle_amp(seed=37, n=1000) -> CheckResult:
    rng = np.random.default_rng(seed)
    g, nb, ns = _uniform_rows(rng, n, (1.001, 4.0), (0.0, 3.0), (0.0, 50.0))
    column = [chn.amplifier(*p) for p in zip(g.tolist(), nb.tolist())]
    worst = _residual(bnd._ql_amp_raw, column, ns, coherent_info_oracle(column, ns))
    return CheckResult("ql_oracle_amp", worst < 1e-9, worst, 1e-9)


def check_ud_oracle(seed=41, n=200) -> CheckResult:
    rng = np.random.default_rng(seed)
    eta, nb, ns, g = _uniform_rows(rng, n, (0.5, 1.0), (0.0, 2.0), (0.0, 20.0), (1.001, 3.0))
    thermals = [chn.thermal(*p) for p in zip(eta.tolist(), nb.tolist())]
    amps = [chn.amplifier(*p) for p in zip(g.tolist(), nb.tolist())]
    worst = max(_residual(raw, column, ns, ud_oracle(column, (2 * ns + 1)[:, None, None] * np.eye(2)))
                for raw, column in ((bnd._ud_thermal_raw, thermals), (bnd._ud_amp_raw, amps)))
    return CheckResult("ud_oracle", worst < 1e-9, worst, 1e-9,
                       "closed form vs H(G|E'1E'2) through the dilation")


def check_thermal_input_optimality(seed=43, n_points=50, n_inputs=100) -> CheckResult:
    rng = np.random.default_rng(seed)
    chans, ns, covs = [], [], []
    for _ in range(n_points):
        chans.append(chn.thermal(rng.uniform(0.5, 1.0), rng.uniform(0, 2)))
        ns.append(rng.uniform(0.1, 10))
        covs.append(random_single_mode_cov(ns[-1], rng, n_inputs))
    vals = ud_oracle([ch for ch in chans for _ in range(n_inputs)], np.concatenate(covs))
    best = ud_oracle(chans, (2 * np.array(ns) + 1)[:, None, None] * np.eye(2))
    worst = float(np.max(np.max(vals.reshape(n_points, n_inputs), axis=1) - best))
    return CheckResult("thermal_input_optimality", worst < 1e-9, worst, 1e-9,
                       "random equal-energy inputs never beat the thermal input")


def check_gap_law(seed=47, n=10000) -> CheckResult:
    rng = np.random.default_rng(seed)
    eta = rng.uniform(0.5, 1.0, n)
    nb = rng.uniform(0.0, 5.0, n)
    ns = rng.uniform(0.0, 100.0, n)
    gap = bnd._qu1_thermal_raw(eta, nb, ns) - bnd._ql_thermal_raw(eta, nb, ns)
    worst = max(float(np.max(-gap)), float(np.max(gap - 1.0 / LN2)))
    return CheckResult("gap_law", worst < 1e-9, worst, 1e-9,
                       "0 <= QU1 - QL <= 1/ln 2")


def check_bound_ordering(seed=53, n_fast=10000, n_opt=400) -> CheckResult:
    rng = np.random.default_rng(seed)
    eta = rng.uniform(0.5, 1.0, n_fast)
    nb = rng.uniform(0.0, 5.0, n_fast)
    ns = rng.uniform(0.0, 100.0, n_fast)
    ql = bnd._ql_thermal_raw(eta, nb, ns)
    worst = float(np.max(ql - bnd._qu1_thermal_raw(eta, nb, ns)))
    feas = eta > (1.0 - eta) * nb
    if np.any(feas):
        # QU4 asserts only the clamped bound; raw can dive below QL once the
        # decomposed pure-loss transmissivity drops under 1/2
        qu4 = np.maximum(bnd._qu4_thermal_raw(eta[feas], nb[feas], ns[feas]), 0.0)
        worst = max(worst, float(np.max(ql[feas] - qu4)))
    chans = [chn.thermal(e, b) for e, b in zip(eta[:n_opt], nb[:n_opt])]
    for column in bnd.evaluate_columns(("QU2", "QU3"), chans, ns[:n_opt]):  # one batch
        for q, cell in zip(ql, column):
            worst = max(worst, q - _raw(cell))
    return CheckResult("bound_ordering", worst < 1e-9, worst, 1e-9,
                       "QL below every applicable upper bound")


def _form(kind, channel_kind):
    """The registry form of bound `kind` on channels of `channel_kind`."""
    return bnd.REGISTRY[kind].forms[channel_kind]


def check_unconstrained_limit(seed=59) -> CheckResult:
    rng = np.random.default_rng(seed)
    eta, nb = _uniform_rows(rng, 20, (0.5, 0.999), (0.0, 3.0))
    # the published bound is max{0, raw}; raw itself decreases once the
    # decomposed pure-loss transmissivity eta' falls below 1/2
    vals = np.maximum(bnd._qu1_thermal_raw(eta[:, None], nb[:, None], np.geomspace(0.01, 1e6, 200)), 0.0)
    limit = np.maximum(_form("QU1", "thermal").limit(eta, nb), 0.0)
    worst = max(0.0, float(np.max(-np.diff(vals))), float(np.max(np.abs(vals[:, -1] - limit))))
    return CheckResult("unconstrained_limit", worst < 1e-3, worst, 1e-3,
                       "clamped QU1 nondecreasing, limit reached at ns = 1e6")


def check_private_improvement() -> CheckResult:
    # four rows of 25 eta values, one per (nb, ns)
    grid = np.meshgrid([0.01, 0.1], [0.1, 10.0], np.linspace(0.3, 0.9, 25), indexing="ij")
    nb, ns, eta = (v.ravel() for v in grid)
    column = bnd.evaluate_column("PL", [chn.thermal(*p) for p in zip(eta.tolist(), nb.tolist())],
                                 ns.tolist())
    gain = np.array([_raw(cell) for cell in column]) - bnd._ql_thermal_raw(eta, nb, ns)
    worst_neg = max(0.0, float(np.max(-gain)))
    passed = bool(np.all(np.any(gain.reshape(4, 25) > 1e-4, axis=1))) and worst_neg < 1e-9
    return CheckResult("private_improvement", passed, worst_neg, 1e-9,
                       "P_L >= Q_L with a strict improvement band")


def check_comparison_orderings(n=2000, n_nbar=100) -> CheckResult:
    rng = np.random.default_rng(61)
    eta, nb = _uniform_rows(rng, n, (0.01, 0.999), (0.0, 5.0))
    keep = (eta > (1.0 - eta) * nb) & (eta >= 0.5)  # where RMG and QU1 are defined
    eta, nb = eta[keep], nb[keep]
    # the clamped RMG value against the clamped QU1 limit
    gaps = (np.maximum(_form("RMG", "thermal").fn(eta, nb, 0.0), 0.0)
            - np.maximum(_form("QU1", "thermal").limit(eta, nb), 0.0))
    nbars = np.linspace(0.01, 0.99, n_nbar)
    plob = _form("PLOB", "additive").fn(nbars, 0.0)
    gaps = np.concatenate([gaps, plob - _form("QU1", "additive").limit(nbars)])
    worst = max(0.0, float(np.max(gaps)))
    signs = np.sign(np.maximum(_form("QU4", "additive").limit(nbars), 0.0) - np.maximum(plob, 0.0))
    crossover = (1.0 in signs or 0.0 in signs) and -1.0 in signs
    passed = worst < 1e-9 and crossover
    return CheckResult("comparison_orderings", passed, worst, 1e-9,
                       "RMG/PLOB orderings and additive crossover")


def _dense_min(eps, w_prime, k, dense):
    """float(np.min(bnd._penalty_eval(np.linspace(eps + 1e-12, 1.0, dense), eps,
    w_prime, k))) bit for bit (dense >= 2), evaluating only the blocks of 1000
    grid points that a certified lower bound cannot rule out.

    Grid point i is i * step + start and the last one is 1.0: numpy's linspace
    arithmetic, so no grid is built.  U, the least penalty at the block
    endpoints, is at or above the dense minimum.  On a block [e_a, e_b], with
    d = (e - eps)/(1 + e): d and 2e + 4d increase, g(W'/d) decreases, g(e)
    increases and h2 is concave, so every point of the block is at least
    LB = k [(2 e_a + 4 d_a) g(W'/d_b) + g(e_a) + 2 min(h2(d_a), h2(d_b))]/ln 2.
    A block is skipped only if LB (1 - 1e-6) > U and W'/d_a <= 1e6: above
    about 1e6 the computed g no longer follows the mathematical one (ROADMAP
    item E), so the bound would not hold for the computed penalty.  The block
    that holds the argmin has LB <= U and is kept, so the minimum is the full
    grid's.  The optimizer's result is never read."""
    start, block = eps + 1e-12, 1000
    step, last = (1.0 - start) / (dense - 1), dense - 1

    def grid(i):
        return np.where(i == last, 1.0, i * step + start)

    heads = np.arange(0, dense, block)
    e_a, e_b = grid(heads), grid(np.minimum(heads + block - 1, last))
    upper = np.min(bnd._penalty_eval(np.concatenate([e_a, e_b]), eps, w_prime, k))
    d_a, d_b = (e_a - eps) / (1.0 + e_a), (e_b - eps) / (1.0 + e_b)
    lower = k * (((2.0 * e_a + 4.0 * d_a) * gc._g_nats(w_prime / d_b) + gc._g_nats(e_a)) / LN2
                 + 2.0 * np.minimum(gc.binary_entropy(d_a), gc.binary_entropy(d_b)))
    keep = (lower * (1.0 - 1e-6) <= upper) | (w_prime / d_a > 1e6)
    idx = (heads[keep, None] + np.arange(block)).ravel()
    return float(np.min(bnd._penalty_eval(grid(idx[idx <= last]), eps, w_prime, k)))


def check_optimizer_vs_grid(seed=67, n_obj=10, dense=10 ** 6) -> CheckResult:
    """The golden-section minimum of each of n_obj seeded penalties is at or
    below (within 1e-6) the minimum over a dense eps' grid, which
    :func:`_dense_min` computes exactly from the blocks that its certified
    lower bound, with the E guard on large W'/d, cannot rule out."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n_obj):
        eps, wp, k = rng.uniform(0.0001, 0.9), rng.uniform(0.0, 50.0), int(rng.integers(1, 5))
        value, _ = bnd._min_penalty(eps, wp, k)
        worst = max(worst, value - _dense_min(eps, wp, k, dense))
    return CheckResult("optimizer_vs_grid", worst < 1e-6, worst, 1e-6,
                       "golden-section result at or below the dense-grid minimum")


CORE_CHECKS = (
    check_state_invariants,
    check_tms_purity,
    check_g_shape,
    check_channel_composition,
    check_fidelity_basics,
    check_symplectic_constructors,
    check_photon_bookkeeping,
)

BOUNDS_CHECKS = (
    check_deg_vs_sim_cov,
    check_fidelity_identity,
    check_eps_consistency,
    check_ql_oracle_thermal,
    check_ql_oracle_amp,
    check_ud_oracle,
    check_thermal_input_optimality,
    check_gap_law,
    check_bound_ordering,
    check_unconstrained_limit,
    check_private_improvement,
    check_comparison_orderings,
    check_optimizer_vs_grid,
)


SUITES = {"core": CORE_CHECKS, "bounds": BOUNDS_CHECKS, "all": CORE_CHECKS + BOUNDS_CHECKS}


def run_suite(which: str = "all") -> list:
    """Run the check suite `which`, a key of :data:`SUITES`; returns the
    list of CheckResults."""
    if which not in SUITES:
        raise DomainError(f"unknown suite {which!r}; the suites are {', '.join(SUITES)}")
    # called by module name, so that a wrapper that replaces a check in this
    # module (as the benchmark's tracer does) is the one that runs
    return [globals()[check.__name__]() for check in SUITES[which]]
