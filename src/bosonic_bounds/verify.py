"""Named invariant checks and the numerical oracles behind them.

Everything here recomputes quantities through an independent route (matrix
dilations, dense grids, finite differences) and compares against the
closed forms, so a silent formula regression shows up as a failed check.
The CLI `verify` subcommand runs these suites; the test suite reuses them.
The oracles take a channel column as :func:`bounds.evaluate_column` does, so
a check calls each once per channel kind over all of its samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds as bnd
from . import channels as chn
from . import gaussian_core as gc
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


def _noisy_tms_state(nb: float, x: float) -> gc.GaussianState:
    """The noisy two-mode squeezed state omega(nb) of the simulating channel."""
    cov = gc._place_pair(np.zeros((4, 4)), 0, *chn.noisy_tms_qblocks(nb, x))
    return gc.GaussianState(2, np.zeros(4), cov)


def random_single_mode_cov(ns: float, rng) -> np.ndarray:
    """Random single-mode covariance of a state whose total mean photon
    number is exactly ns: a rotated squeezed thermal covariance carrying a
    random share of the energy, the rest sitting in a displacement (which
    affects no entropy)."""
    u = rng.uniform(0.0, 1.0)
    ev = u * ns
    ch = 1.0 + rng.uniform(0.0, 1.0) * 2.0 * ev
    nu = (2.0 * ev + 1.0) / ch
    r = 0.5 * np.arccosh(ch)
    th = rng.uniform(0.0, np.pi)
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return nu * R @ np.diag([np.exp(2.0 * r), np.exp(-2.0 * r)]) @ R.T


def random_valid_qblock(rng, scale: float = 5.0) -> np.ndarray:
    """Random position block of a valid two-mode covariance (>= I suffices)."""
    th = rng.uniform(0.0, np.pi)
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return R @ np.diag(1.0 + rng.uniform(0.0, scale, 2)) @ R.T


# ---------------------------------------------------------------------------
# Core suite
# ---------------------------------------------------------------------------

def check_tms_purity(seed=1234, n=50) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for nph in rng.uniform(0.0, 100.0, n):
        worst = max(worst, abs(gc.gaussian_entropy(gc.tms_state(nph))))
    return CheckResult("tms_purity", worst < 1e-9, worst, 1e-9)


def check_state_invariants(seed=7, n=200) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        cov = random_single_mode_cov(rng.uniform(0.0, 20.0), rng)
        st = gc.GaussianState(1, np.zeros(2), cov)
        worst = max(worst, 1.0 - min(gc.symplectic_eigenvalues(st)))
    return CheckResult("state_invariants", worst < 1e-9, worst, 1e-9)


def check_g_shape(points=1000) -> CheckResult:
    xs = np.linspace(0.0, 100.0, points)
    ys = gc.g_entropy(xs)
    d1 = np.diff(ys)
    d2 = np.diff(ys, 2)
    worst = max(float(np.max(-d1)), float(np.max(d2)))
    return CheckResult("g_monotone_concave", worst < 1e-12, worst, 1e-12,
                       "finite differences on [0, 100]")


def check_channel_composition(seed=11, n=100) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        st = gc.GaussianState(1, rng.normal(size=2),
                              random_single_mode_cov(rng.uniform(0, 10), rng))
        c1 = chn.thermal(rng.uniform(0.3, 1.0), rng.uniform(0, 2))
        c2 = chn.amplifier(rng.uniform(1.0, 2.5), rng.uniform(0, 2))
        step = c2.apply(c1.apply(st))
        X = c2.X @ c1.X
        Y = c2.X @ c1.Y @ c2.X.T + c2.Y
        once = gc.apply_gaussian_channel(X, Y, None, st)
        worst = max(worst, float(np.max(np.abs(step.cov - once.cov))))
    return CheckResult("channel_composition", worst < 1e-10, worst, 1e-10)


def check_fidelity_basics(seed=13, n=50) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        a = gc.tms_state(rng.uniform(0, 5))
        b = chn.thermal(rng.uniform(0.5, 1.0), rng.uniform(0, 2)).apply(a, modes=(1,))
        worst = max(worst, abs(1.0 - gc.two_mode_fidelity(a, a)))
        worst = max(worst, abs(1.0 - gc.two_mode_fidelity(b, b)))
        worst = max(worst, abs(gc.two_mode_fidelity(a, b) - gc.two_mode_fidelity(b, a)))
    return CheckResult("fidelity_symmetry_identity", worst < 1e-9, worst, 1e-9)


def check_symplectic_constructors() -> CheckResult:
    worst = 0.0
    O = gc.omega(2)
    for t in np.linspace(0.0, 1.0, 11):
        for S in (gc.beamsplitter_symplectic("B", t),
                  gc.beamsplitter_symplectic("Bprime", t)):
            worst = max(worst, float(np.max(np.abs(S @ O @ S.T - O))))
    for g in np.linspace(1.0, 4.0, 11):
        S = gc.two_mode_squeezer_symplectic(g)
        worst = max(worst, float(np.max(np.abs(S @ O @ S.T - O))))
    return CheckResult("symplectic_constructors", worst < 1e-10, worst, 1e-10)


def check_photon_bookkeeping(seed=17, n=50) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        eta, nb, ns = rng.uniform(0.05, 1.0), rng.uniform(0, 3), rng.uniform(0, 10)
        out = chn.thermal(eta, nb).apply(gc.tms_state(ns), modes=(1,))
        got = gc.mean_photon_number(gc.reduce_state(out, (1,)))
        worst = max(worst, abs(got - (eta * ns + (1.0 - eta) * nb)))
    return CheckResult("photon_bookkeeping", worst < 1e-10, worst, 1e-10)


# ---------------------------------------------------------------------------
# Bounds suite
# ---------------------------------------------------------------------------

def check_deg_vs_sim_cov(seed=23, n=1000) -> CheckResult:
    rng = np.random.default_rng(seed)
    qs, thermals, amps = [], [], []
    for _ in range(n):
        qs.append(random_valid_qblock(rng))
        eta, nb = rng.uniform(0.5, 1.0), rng.uniform(0.0, 3.0)
        thermals.append(chn.thermal(eta, nb))
        amps.append(chn.amplifier(rng.uniform(1.0 + 1e-6, 3.0), nb))
    worst = max(float(np.max(np.abs(A - B))) for A, B in
                (chn.degrading_simulation_check(column, np.stack(qs)) for column in (thermals, amps)))
    return CheckResult("deg_vs_sim_cov", worst < 1e-10, worst, 1e-10)


def check_fidelity_identity(n_eta=20, n_nb=20) -> CheckResult:
    worst = 0.0
    for eta in np.linspace(0.5, 1.0, n_eta):
        for nb in np.linspace(0.0, 3.0, n_nb):
            fid = gc.two_mode_fidelity(gc.tms_state(nb), _noisy_tms_state(nb, eta))
            worst = max(worst, abs(fid - eta ** 2 / chn.kappa(eta, nb)))
    return CheckResult("fidelity_identity", worst < 1e-10, worst, 1e-10,
                       "F(psi_TMS, omega) = eta^2/kappa")


def check_eps_consistency(seed=29, n=200) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        eta, nb = rng.uniform(0.5, 1.0), rng.uniform(0.0, 3.0)
        eps = chn.epsilon_degradable(chn.thermal(eta, nb)).epsilon
        fid = gc.two_mode_fidelity(gc.tms_state(nb), _noisy_tms_state(nb, eta))
        worst = max(worst, abs(eps - np.sqrt(max(1.0 - fid, 0.0))))
    return CheckResult("eps_consistency", worst < 1e-10, worst, 1e-10)


def _residual(raw, column, ns, oracle) -> float:
    """Largest |raw(x, nb, ns) - oracle| over the cells of a channel column."""
    _, x, nb = chn._column_params(column)
    return float(np.max(np.abs(raw(x, nb, ns) - oracle)))


def check_ql_oracle_thermal(seed=31, n=1000) -> CheckResult:
    rng = np.random.default_rng(seed)
    draws = np.array([(rng.uniform(0.02, 1.0), rng.uniform(0, 3), rng.uniform(0, 50))
                      for _ in range(n)])
    column, ns = [chn.thermal(eta, nb) for eta, nb, _ in draws.tolist()], draws[:, 2]
    worst = _residual(bnd._ql_thermal_raw, column, ns, coherent_info_oracle(column, ns))
    return CheckResult("ql_oracle_thermal", worst < 1e-9, worst, 1e-9)


def check_ql_oracle_amp(seed=37, n=1000) -> CheckResult:
    rng = np.random.default_rng(seed)
    draws = np.array([(rng.uniform(1.001, 4.0), rng.uniform(0, 3), rng.uniform(0, 50))
                      for _ in range(n)])
    column, ns = [chn.amplifier(g, nb) for g, nb, _ in draws.tolist()], draws[:, 2]
    worst = _residual(bnd._ql_amp_raw, column, ns, coherent_info_oracle(column, ns))
    return CheckResult("ql_oracle_amp", worst < 1e-9, worst, 1e-9)


def check_ud_oracle(seed=41, n=200) -> CheckResult:
    rng = np.random.default_rng(seed)
    thermals, amps, ns = [], [], []
    for _ in range(n):
        eta, nb, ns_k = rng.uniform(0.5, 1.0), rng.uniform(0, 2), rng.uniform(0, 20)
        thermals.append(chn.thermal(eta, nb))
        ns.append(ns_k)
        amps.append(chn.amplifier(rng.uniform(1.001, 3.0), nb))
    ns = np.array(ns)
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
        covs.extend(random_single_mode_cov(ns[-1], rng) for _ in range(n_inputs))
    vals = ud_oracle([ch for ch in chans for _ in range(n_inputs)], np.stack(covs))
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
    for kind in ("QU2", "QU3"):
        for q, cell in zip(ql, bnd.evaluate_column(kind, chans, ns[:n_opt])):
            worst = max(worst, q - _raw(cell))
    return CheckResult("bound_ordering", worst < 1e-9, worst, 1e-9,
                       "QL below every applicable upper bound")


def check_unconstrained_limit(seed=59) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        eta, nb = rng.uniform(0.5, 0.999), rng.uniform(0.0, 3.0)
        ch = chn.thermal(eta, nb)
        grid = np.geomspace(0.01, 1e6, 200)
        # the published bound is max{0, raw}; raw itself decreases once the
        # decomposed pure-loss transmissivity eta' falls below 1/2
        vals = np.maximum(bnd._qu1_thermal_raw(eta, nb, grid), 0.0)
        worst = max(worst, float(np.max(-np.diff(vals))))
        worst = max(worst, abs(vals[-1] - max(0.0, bnd.q_u1_unconstrained(ch))))
    return CheckResult("unconstrained_limit", worst < 1e-3, worst, 1e-3,
                       "clamped QU1 nondecreasing, limit reached at ns = 1e6")


def check_private_improvement() -> CheckResult:
    points = [(nb, ns, eta) for nb in (0.01, 0.1) for ns in (0.1, 10.0)
              for eta in np.linspace(0.3, 0.9, 25)]
    column = bnd.evaluate_column("PL", [chn.thermal(eta, nb) for nb, _, eta in points],
                                 [ns for _, ns, _ in points])
    worst_neg = 0.0
    improved = dict.fromkeys([(nb, ns) for nb, ns, _ in points], False)
    for (nb, ns, eta), cell in zip(points, column):
        ql = bnd._ql_thermal_raw(eta, nb, ns)
        worst_neg = max(worst_neg, ql - _raw(cell))
        improved[nb, ns] |= _raw(cell) - ql > 1e-4
    passed = all(improved.values()) and worst_neg < 1e-9
    return CheckResult("private_improvement", passed, worst_neg, 1e-9,
                       "P_L >= Q_L with a strict improvement band")


def check_comparison_orderings() -> CheckResult:
    worst = 0.0
    rng = np.random.default_rng(61)
    for _ in range(2000):
        eta, nb = rng.uniform(0.01, 0.999), rng.uniform(0.0, 5.0)
        if eta <= (1.0 - eta) * nb or eta < 0.5:
            continue
        ch = chn.thermal(eta, nb)
        rmg = bnd.comparison_bounds(ch, "RMG")
        qu1 = max(0.0, bnd.q_u1_unconstrained(ch))
        worst = max(worst, rmg - qu1)
    nbars = np.linspace(0.01, 0.99, 100)
    signs = []
    for nbar in nbars:
        ch = chn.additive_noise(float(nbar))
        plob = bnd.comparison_bounds(ch, "PLOB_addnoise")
        worst = max(worst, plob - bnd.q_u1_unconstrained(ch))
        signs.append(np.sign(max(0.0, bnd.q_u4_unconstrained(ch)) - max(0.0, plob)))
    crossover = (1.0 in signs or 0.0 in signs) and -1.0 in signs
    passed = worst < 1e-9 and crossover
    return CheckResult("comparison_orderings", passed, worst, 1e-9,
                       "RMG/PLOB orderings and additive crossover")


def check_optimizer_vs_grid(seed=67, n_obj=10, dense=10 ** 6) -> CheckResult:
    rng = np.random.default_rng(seed)
    block = 2 ** 16  # dense-grid points evaluated at once, which bounds the memory
    worst = -np.inf
    for _ in range(n_obj):
        eps = rng.uniform(0.0001, 0.9)
        wp = rng.uniform(0.0, 50.0)
        k = int(rng.integers(1, 5))
        value, _ = bnd._min_penalty(eps, wp, k)
        grid = np.linspace(eps + 1e-12, 1.0, dense)
        dense_min = float(np.min([np.min(bnd._penalty_eval(eps, grid[i:i + block], wp, k))
                                  for i in range(0, dense, block)]))
        worst = max(worst, value - dense_min)
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
        raise ValueError(f"unknown suite {which!r}; the suites are {', '.join(SUITES)}")
    # called by module name, so that a wrapper that replaces a check in this
    # module (as the benchmark's tracer does) is the one that runs
    return [globals()[check.__name__]() for check in SUITES[which]]
