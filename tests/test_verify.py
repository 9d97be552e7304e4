"""The stacked oracle checks against per-sample reference loops.

Each reference below draws the same seeded samples in the same order as the
check it mirrors, but builds one state at a time through the one-sample
functions (`GaussianState`, `apply_gaussian_channel`, `two_mode_fidelity`,
`random_single_mode_cov`, `comparison_bounds`, ...), calls the oracle and
the closed form once per sample and evaluates the dense grid in one piece.
The stacked checks must return an equal CheckResult, with the residual
equal bit for bit."""

import gc as collector
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from bosonic_bounds import bounds as bnd
from bosonic_bounds import channels as chn
from bosonic_bounds import gaussian_core as gc
from bosonic_bounds import verify as vfy
from bosonic_bounds.errors import BosonicBoundsError, DomainError


def _raw(cell) -> float:
    """Raw bits of a cell of :func:`bounds.evaluate_columns`; raises its error."""
    try:
        if not isinstance(cell, bnd.BoundResult):
            raise cell
        return cell.raw
    finally:
        del cell  # the raised error's traceback holds this frame: no cycle through it


def _noisy_tms_state(nb, x):
    cov = gc._place_pair(np.zeros((4, 4)), 0, *chn.noisy_tms_qblocks(nb, x))
    return gc.GaussianState(2, np.zeros(4), cov)


def ref_tms_purity(seed=1234, n=50):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for nph in rng.uniform(0.0, 100.0, n):
        worst = max(worst, abs(gc.gaussian_entropy(gc.tms_state(nph))))
    return vfy.CheckResult("tms_purity", worst < 1e-9, worst, 1e-9)


def ref_state_invariants(seed=7, n=200):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        cov = vfy.random_single_mode_cov(rng.uniform(0.0, 20.0), rng)
        st = gc.GaussianState(1, np.zeros(2), cov)
        worst = max(worst, 1.0 - min(gc.symplectic_eigenvalues(st)))
    return vfy.CheckResult("state_invariants", worst < 1e-9, worst, 1e-9)


def ref_fidelity_basics(seed=13, n=50):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        a = gc.tms_state(rng.uniform(0, 5))
        b = chn.thermal(rng.uniform(0.5, 1.0), rng.uniform(0, 2)).apply(a, modes=(1,))
        worst = max(worst, abs(1.0 - gc.two_mode_fidelity(a, a)))
        worst = max(worst, abs(1.0 - gc.two_mode_fidelity(b, b)))
        worst = max(worst, abs(gc.two_mode_fidelity(a, b) - gc.two_mode_fidelity(b, a)))
    return vfy.CheckResult("fidelity_symmetry_identity", worst < 1e-9, worst, 1e-9)


def ref_channel_composition(seed=11, n=100):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        st = gc.GaussianState(1, rng.normal(size=2),
                              vfy.random_single_mode_cov(rng.uniform(0, 10), rng))
        c1 = chn.thermal(rng.uniform(0.3, 1.0), rng.uniform(0, 2))
        c2 = chn.amplifier(rng.uniform(1.0, 2.5), rng.uniform(0, 2))
        step = c2.apply(c1.apply(st))
        X = c2.X @ c1.X
        Y = c2.X @ c1.Y @ c2.X.T + c2.Y
        once = gc.apply_gaussian_channel(X, Y, None, st)
        worst = max(worst, float(np.max(np.abs(step.cov - once.cov))))
    return vfy.CheckResult("channel_composition", worst < 1e-10, worst, 1e-10)


def ref_symplectic_constructors():
    worst = 0.0
    O = gc.omega(2)
    for t in np.linspace(0.0, 1.0, 11):
        for S in (gc.beamsplitter_symplectic("B", t),
                  gc.beamsplitter_symplectic("Bprime", t)):
            worst = max(worst, float(np.max(np.abs(S @ O @ S.T - O))))
    for g in np.linspace(1.0, 4.0, 11):
        S = gc.two_mode_squeezer_symplectic(g)
        worst = max(worst, float(np.max(np.abs(S @ O @ S.T - O))))
    return vfy.CheckResult("symplectic_constructors", worst < 1e-10, worst, 1e-10)


def ref_photon_bookkeeping(seed=17, n=50):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        eta, nb, ns = rng.uniform(0.05, 1.0), rng.uniform(0, 3), rng.uniform(0, 10)
        out = chn.thermal(eta, nb).apply(gc.tms_state(ns), modes=(1,))
        got = gc.mean_photon_number(gc.reduce_state(out, (1,)))
        worst = max(worst, abs(got - (eta * ns + (1.0 - eta) * nb)))
    return vfy.CheckResult("photon_bookkeeping", worst < 1e-10, worst, 1e-10)


def ref_deg_vs_sim_cov(seed=23, n=1000):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        q = vfy.random_valid_qblock(rng)
        eta, nb = rng.uniform(0.5, 1.0), rng.uniform(0.0, 3.0)
        A, B = chn.degrading_simulation_check(chn.thermal(eta, nb), q)
        worst = max(worst, float(np.max(np.abs(A - B))))
        g = rng.uniform(1.0 + 1e-6, 3.0)
        A, B = chn.degrading_simulation_check(chn.amplifier(g, nb), q)
        worst = max(worst, float(np.max(np.abs(A - B))))
    return vfy.CheckResult("deg_vs_sim_cov", worst < 1e-10, worst, 1e-10)


def ref_fidelity_identity(n_eta=20, n_nb=20):
    worst = 0.0
    for eta in np.linspace(0.5, 1.0, n_eta):
        for nb in np.linspace(0.0, 3.0, n_nb):
            fid = gc.two_mode_fidelity(gc.tms_state(nb), _noisy_tms_state(nb, eta))
            worst = max(worst, abs(fid - eta ** 2 / chn.kappa(eta, nb)))
    return vfy.CheckResult("fidelity_identity", worst < 1e-10, worst, 1e-10,
                           "F(psi_TMS, omega) = eta^2/kappa")


def ref_eps_consistency(seed=29, n=200):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        eta, nb = rng.uniform(0.5, 1.0), rng.uniform(0.0, 3.0)
        eps = chn.epsilon_degradable(chn.thermal(eta, nb)).epsilon
        fid = gc.two_mode_fidelity(gc.tms_state(nb), _noisy_tms_state(nb, eta))
        worst = max(worst, abs(eps - np.sqrt(max(1.0 - fid, 0.0))))
    return vfy.CheckResult("eps_consistency", worst < 1e-10, worst, 1e-10)


def ref_ql_oracle_thermal(seed=31, n=1000):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        eta, nb, ns = rng.uniform(0.02, 1.0), rng.uniform(0, 3), rng.uniform(0, 50)
        got = bnd._ql_thermal_raw(eta, nb, ns)
        want = vfy.coherent_info_oracle(chn.thermal(eta, nb), ns)
        worst = max(worst, abs(got - want))
    return vfy.CheckResult("ql_oracle_thermal", worst < 1e-9, worst, 1e-9)


def ref_ql_oracle_amp(seed=37, n=1000):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        g, nb, ns = rng.uniform(1.001, 4.0), rng.uniform(0, 3), rng.uniform(0, 50)
        got = bnd._ql_amp_raw(g, nb, ns)
        want = vfy.coherent_info_oracle(chn.amplifier(g, nb), ns)
        worst = max(worst, abs(got - want))
    return vfy.CheckResult("ql_oracle_amp", worst < 1e-9, worst, 1e-9)


def ref_ud_oracle(seed=41, n=200):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        eta, nb, ns = rng.uniform(0.5, 1.0), rng.uniform(0, 2), rng.uniform(0, 20)
        got = bnd._ud_thermal_raw(eta, nb, ns)
        want = vfy.ud_oracle(chn.thermal(eta, nb), (2 * ns + 1) * np.eye(2))
        worst = max(worst, abs(got - want))
        g = rng.uniform(1.001, 3.0)
        got = bnd._ud_amp_raw(g, nb, ns)
        want = vfy.ud_oracle(chn.amplifier(g, nb), (2 * ns + 1) * np.eye(2))
        worst = max(worst, abs(got - want))
    return vfy.CheckResult("ud_oracle", worst < 1e-9, worst, 1e-9,
                           "closed form vs H(G|E'1E'2) through the dilation")


def ref_thermal_input_optimality(seed=43, n_points=50, n_inputs=100):
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n_points):
        eta, nb, ns = rng.uniform(0.5, 1.0), rng.uniform(0, 2), rng.uniform(0.1, 10)
        ch = chn.thermal(eta, nb)
        covs = np.stack([vfy.random_single_mode_cov(ns, rng) for _ in range(n_inputs)])
        vals = vfy.ud_oracle(ch, covs)
        best = vfy.ud_oracle(ch, (2 * ns + 1) * np.eye(2))
        worst = max(worst, float(np.max(vals) - best))
    return vfy.CheckResult("thermal_input_optimality", worst < 1e-9, worst, 1e-9,
                           "random equal-energy inputs never beat the thermal input")


def ref_bound_ordering(seed=53, n_fast=10000, n_opt=400):
    rng = np.random.default_rng(seed)
    eta, nb, ns = (rng.uniform(lo, hi, n_fast) for lo, hi in ((0.5, 1.0), (0.0, 5.0), (0.0, 100.0)))
    worst = -np.inf
    ql = []
    for e, b, n in zip(eta.tolist(), nb.tolist(), ns.tolist()):
        ql.append(bnd._ql_thermal_raw(e, b, n))
        worst = max(worst, ql[-1] - bnd._qu1_thermal_raw(e, b, n))
        if e > (1.0 - e) * b:
            worst = max(worst, ql[-1] - max(bnd._qu4_thermal_raw(e, b, n), 0.0))
    # one column per kind, each its own minimization batch
    chans = [chn.thermal(e, b) for e, b in zip(eta[:n_opt], nb[:n_opt])]
    for kind in ("QU2", "QU3"):
        for q, cell in zip(ql, bnd.evaluate_columns((kind,), chans, ns[:n_opt])[0]):
            worst = max(worst, q - _raw(cell))
    return vfy.CheckResult("bound_ordering", worst < 1e-9, worst, 1e-9,
                           "QL below every applicable upper bound")


def ref_unconstrained_limit(seed=59):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        eta, nb = rng.uniform(0.5, 0.999), rng.uniform(0.0, 3.0)
        ch = chn.thermal(eta, nb)
        grid = np.geomspace(0.01, 1e6, 200)
        vals = np.maximum(bnd._qu1_thermal_raw(eta, nb, grid), 0.0)
        worst = max(worst, float(np.max(-np.diff(vals))))
        worst = max(worst, abs(vals[-1] - max(0.0, bnd.q_u1_unconstrained(ch))))
    return vfy.CheckResult("unconstrained_limit", worst < 1e-3, worst, 1e-3,
                           "clamped QU1 nondecreasing, limit reached at ns = 1e6")


def ref_private_improvement():
    points = [(nb, ns, eta) for nb in (0.01, 0.1) for ns in (0.1, 10.0)
              for eta in np.linspace(0.3, 0.9, 25)]
    worst_neg = 0.0
    improved = dict.fromkeys([(nb, ns) for nb, ns, _ in points], False)
    for nb, ns, eta in points:
        pl = bnd.p_lower_displaced(eta, nb, ns).raw
        ql = bnd._ql_thermal_raw(eta, nb, ns)
        worst_neg = max(worst_neg, ql - pl)
        improved[nb, ns] |= pl - ql > 1e-4
    passed = all(improved.values()) and worst_neg < 1e-9
    return vfy.CheckResult("private_improvement", passed, worst_neg, 1e-9,
                           "P_L >= Q_L with a strict improvement band")


def ref_comparison_orderings(n=2000, n_nbar=100):
    worst = 0.0
    rng = np.random.default_rng(61)
    for _ in range(n):
        eta, nb = rng.uniform(0.01, 0.999), rng.uniform(0.0, 5.0)
        if eta <= (1.0 - eta) * nb or eta < 0.5:
            continue
        ch = chn.thermal(eta, nb)
        rmg = bnd.comparison_bounds(ch, "RMG")
        qu1 = max(0.0, bnd.q_u1_unconstrained(ch))
        worst = max(worst, rmg - qu1)
    signs = []
    for nbar in np.linspace(0.01, 0.99, n_nbar):
        ch = chn.additive_noise(float(nbar))
        plob = bnd.comparison_bounds(ch, "PLOB_addnoise")
        worst = max(worst, plob - bnd.q_u1_unconstrained(ch))
        signs.append(np.sign(max(0.0, bnd.q_u4_unconstrained(ch)) - max(0.0, plob)))
    crossover = (1.0 in signs or 0.0 in signs) and -1.0 in signs
    return vfy.CheckResult("comparison_orderings", worst < 1e-9 and crossover, worst, 1e-9,
                           "RMG/PLOB orderings and additive crossover")


def ref_optimizer_vs_grid(seed=67, n_obj=10, dense=10 ** 6):
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n_obj):
        eps = rng.uniform(0.0001, 0.9)
        wp = rng.uniform(0.0, 50.0)
        k = int(rng.integers(1, 5))
        value, _ = bnd._min_penalty(eps, wp, k)
        grid = np.linspace(eps + 1e-12, 1.0, dense)
        dense_min = float(np.min(bnd._penalty_eval(grid, eps, wp, k)))
        worst = max(worst, value - dense_min)
    return vfy.CheckResult("optimizer_vs_grid", worst < 1e-6, worst, 1e-6,
                           "golden-section result at or below the dense-grid minimum")


CASES = [
    (vfy.check_tms_purity, ref_tms_purity, {"n": 7}),
    (vfy.check_state_invariants, ref_state_invariants, {"n": 7}),
    (vfy.check_channel_composition, ref_channel_composition, {"n": 7}),
    (vfy.check_fidelity_basics, ref_fidelity_basics, {"n": 7}),
    (vfy.check_symplectic_constructors, ref_symplectic_constructors, {}),
    (vfy.check_photon_bookkeeping, ref_photon_bookkeeping, {"n": 7}),
    (vfy.check_fidelity_identity, ref_fidelity_identity, {"n_eta": 3, "n_nb": 4}),
    (vfy.check_eps_consistency, ref_eps_consistency, {"n": 7}),
    (vfy.check_deg_vs_sim_cov, ref_deg_vs_sim_cov, {"n": 7}),
    (vfy.check_ql_oracle_thermal, ref_ql_oracle_thermal, {"n": 7}),
    (vfy.check_ql_oracle_amp, ref_ql_oracle_amp, {"n": 7}),
    (vfy.check_ud_oracle, ref_ud_oracle, {"n": 7}),
    (vfy.check_thermal_input_optimality, ref_thermal_input_optimality,
     {"n_points": 3, "n_inputs": 5}),
    (vfy.check_bound_ordering, ref_bound_ordering, {"n_fast": 50, "n_opt": 7}),
    (vfy.check_unconstrained_limit, ref_unconstrained_limit, {}),
    (vfy.check_private_improvement, ref_private_improvement, {}),
    # 40 draws keep about 20 channels; 9 nbar values still cross over
    (vfy.check_comparison_orderings, ref_comparison_orderings, {"n": 40, "n_nbar": 9}),
    # 200 001 points: 200 full blocks of 1000 and a last block of one point
    (vfy.check_optimizer_vs_grid, ref_optimizer_vs_grid, {"n_obj": 3, "dense": 200_001}),
]


@pytest.mark.parametrize("small", [False, True], ids=["defaults", "small"])
@pytest.mark.parametrize("check,ref,small_args", CASES, ids=[c.__name__ for c, _, _ in CASES])
def test_stacked_check_matches_reference_loop(check, ref, small_args, small):
    args = small_args if small else {}
    got, want = check(**args), ref(**args)
    assert got == want
    assert float(got.residual).hex() == float(want.residual).hex()
    assert got.format() == want.format()


def test_thermal_input_optimality_peak_memory():
    """The check's traced peak stays below 9 MiB: its dilations build only the
    modes that the oracle reads (11.2 MiB with the whole 5-mode stack)."""
    tracemalloc.start()
    try:
        vfy.check_thermal_input_optimality()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2 ** 20


def test_deg_vs_sim_cov_peak_memory():
    """The check's traced peak stays below 3.2 MiB (2.71 MiB): each dilation
    multiplies only the nonzero blocks of its block-diagonal V0 (3.99 MiB with
    the whole zero-padded environment matrix).  An untraced call first, so that
    the peak holds no module that numpy imports on first use."""
    vfy.check_deg_vs_sim_cov()
    tracemalloc.start()
    try:
        vfy.check_deg_vs_sim_cov()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.2 * 2 ** 20


def _full_grid_min(eps, w_prime, k, dense):
    return float(np.min(bnd._penalty_eval(np.linspace(eps + 1e-12, 1.0, dense), eps, w_prime, k)))


def _log_uniform(rng, low, high):
    return float(10.0 ** rng.uniform(np.log10(low), np.log10(high)))


# (eps, W') draws: the check's own domain, no energy cap, eps down to 1e-8
# with a moderate cap, and caps up to 1e8 where the E guard keeps blocks
_DENSE_DOMAINS = {
    "check": lambda rng: (rng.uniform(0.0001, 0.9), rng.uniform(0.0, 50.0)),
    "no_cap": lambda rng: (_log_uniform(rng, 1e-8, 0.999), 0.0),
    "small_eps": lambda rng: (_log_uniform(rng, 1e-8, 0.999), _log_uniform(rng, 1e-3, 1e3)),
    "large_cap": lambda rng: (_log_uniform(rng, 1e-8, 0.999), _log_uniform(rng, 1e3, 1e8)),
}
# a grid of two points, smaller than a block, whole blocks and ragged last ones
_DENSE_SIZES = (2, 999, 1000, 1001, 200_001, 10 ** 6)


@pytest.mark.parametrize("domain", _DENSE_DOMAINS)
def test_dense_min_equals_the_full_grid(domain):
    rng = np.random.default_rng(list(_DENSE_DOMAINS).index(domain))
    for i in range(60):
        eps, w_prime = _DENSE_DOMAINS[domain](rng)
        k, dense = int(rng.integers(1, 5)), _DENSE_SIZES[i % len(_DENSE_SIZES)]
        want = _full_grid_min(eps, w_prime, k, dense)
        assert vfy._dense_min(eps, w_prime, k, dense).hex() == want.hex(), (eps, w_prime, k, dense)


# sizes around the second pass's sub-blocks: ragged last blocks and sub-blocks
_RAGGED_DENSE_SIZES = (49, 50, 51, 1999, 2001, 2049, 2050, 2051, 100_049)


@pytest.mark.parametrize("domain", _DENSE_DOMAINS)
def test_dense_min_equals_the_full_grid_at_ragged_sizes(domain):
    rng = np.random.default_rng(100 + list(_DENSE_DOMAINS).index(domain))
    for i in range(45):
        eps, w_prime = _DENSE_DOMAINS[domain](rng)
        k, dense = int(rng.integers(1, 5)), _RAGGED_DENSE_SIZES[i % len(_RAGGED_DENSE_SIZES)]
        want = _full_grid_min(eps, w_prime, k, dense)
        assert vfy._dense_min(eps, w_prime, k, dense).hex() == want.hex(), (eps, w_prime, k, dense)


def test_dense_min_keeps_blocks_where_g_is_inexact():
    # W'/d is about 2.5e19 at the open end, where the computed g reads 0
    # and the penalty's lower bound no longer holds: without the W'/d_a <= 1e6
    # condition every block is pruned and no grid point is left to give the
    # minimum
    args = (1.2426550957749730e-4, 25442767.887553956, 1, 10 ** 6)
    assert vfy._dense_min(*args).hex() == _full_grid_min(*args).hex()


def test_dense_min_never_reads_the_optimizer(monkeypatch):
    args = (0.3729569167620369, 6.346915110003787, 2, 10 ** 6)
    want = vfy._dense_min(*args)

    def raising(*_):
        raise AssertionError("the dense-grid oracle called the optimizer")

    monkeypatch.setattr(bnd, "_min_penalty", raising)
    assert vfy._dense_min(*args).hex() == want.hex()


def test_comparison_forms_equal_the_public_bounds():
    # comparison_orderings' residual is 0 at its seed, so pin its arrays too
    eta, nb = vfy._uniform_rows(np.random.default_rng(61), 400, (0.01, 0.999), (0.0, 5.0))
    keep = (eta > (1.0 - eta) * nb) & (eta >= 0.5)
    eta, nb = eta[keep], nb[keep]
    nbar = np.linspace(0.01, 0.99, 100)
    stacked = [np.maximum(vfy._form("RMG", "thermal").fn(eta, nb, 0.0), 0.0),
               vfy._form("QU1", "thermal").limit(eta, nb),
               vfy._form("PLOB", "additive").fn(nbar, 0.0),
               vfy._form("QU1", "additive").limit(nbar),
               vfy._form("QU4", "additive").limit(nbar)]
    thermals = [chn.thermal(e, b) for e, b in zip(eta.tolist(), nb.tolist())]
    adds = [chn.additive_noise(float(x)) for x in nbar]
    public = [[bnd.comparison_bounds(ch, "RMG") for ch in thermals],
              [bnd.q_u1_unconstrained(ch) for ch in thermals],
              [bnd.comparison_bounds(ch, "PLOB_addnoise") for ch in adds],
              [bnd.q_u1_unconstrained(ch) for ch in adds],
              [bnd.q_u4_unconstrained(ch) for ch in adds]]
    assert len(thermals) > 100
    for got, want in zip(stacked, public):
        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]


def _qblock_stack(rng, n):
    """n random_valid_qblock(rng, 2.5) draws as check_deg_vs_sim_cov stacks them."""
    th, a, b = vfy._uniform_rows(rng, n, (0.0, np.pi), (0.0, 2.5), (0.0, 2.5))
    return vfy._rotated(th, 1.0 + a, 1.0 + b)


@pytest.mark.parametrize("draw,stack", [
    (lambda rng: vfy.random_single_mode_cov(3.7, rng),
     lambda rng, n: vfy._single_mode_cov(3.7, *vfy._uniform_rows(rng, n, *vfy._COV_DRAWS))),
    (lambda rng: vfy.random_valid_qblock(rng, 2.5), _qblock_stack),
], ids=["random_single_mode_cov", "random_valid_qblock"])
def test_stacked_draws_equal_one_sample_calls(draw, stack):
    """The suite's stacked draws, through _uniform_rows and the array cores,
    equal one-sample calls of the public samplers, bit for bit."""
    one, stacked = np.random.default_rng(3), np.random.default_rng(3)
    want = np.stack([draw(one) for _ in range(40)])
    got = stack(stacked, 40)
    assert got.shape == (40, 2, 2)
    assert np.array_equal(got, want)
    assert one.bit_generator.state == stacked.bit_generator.state


@pytest.mark.parametrize("between", [False, True], ids=["back_to_back", "normal_draws_between"])
def test_uniform_rows_hold_the_scalar_uniform_bits(between):
    """One row of _uniform_rows (n None) and a stack of 7 rows hold the bits of
    scalar rng.uniform(lo, hi) calls in row order and leave the generator in the
    same state, also with rng.normal(size=2) draws between the rows, as
    check_channel_composition draws them."""
    bounds = ((0.0, 10.0), *vfy._COV_DRAWS, (0.3, 1.0), (1.0 + 1e-6, 3.0), (-2.5, 7.0))
    scalar, rows = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(40):
        for n in (None, 7):
            if between:
                assert scalar.normal(size=2).tobytes() == rows.normal(size=2).tobytes()
            want = [[scalar.uniform(lo, hi).hex() for lo, hi in bounds] for _ in range(n or 1)]
            got = np.atleast_2d(np.transpose(vfy._uniform_rows(rows, n, *bounds)))
            assert [[float(v).hex() for v in row] for row in got] == want
    assert scalar.bit_generator.state == rows.bit_generator.state


@pytest.mark.parametrize("kind,make,lo,hi", [("thermal", chn.thermal, 0.05, 1.0),
                                             ("amplifier", chn.amplifier, 1.0, 4.0)],
                         ids=["thermal", "amplifier"])
def test_xy_stacks_hold_each_channels_bits(kind, make, lo, hi):
    """The X and Y stacks that _xy builds from parameter arrays equal each
    channel object's X and Y by .hex(), also at eta = 1 or g = 1, where nu is
    exactly 0 (the identity channel, also at an nb where 2 nb + 1 overflows)."""
    rng = np.random.default_rng(5)
    x = np.concatenate([[1.0, 1.0, 1.0, lo], rng.uniform(lo, hi, 200)])
    nb = np.concatenate([[0.0, 2.5, 1e308, 0.5], rng.uniform(0.0, 3.0, 200)])
    channels = [make(*p) for p in zip(x.tolist(), nb.tolist())]
    for got, attr in zip(vfy._xy(kind, x, nb), ("X", "Y")):
        want = np.stack([getattr(ch, attr) for ch in channels])
        assert got.shape == want.shape == (204, 2, 2)
        assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want.ravel().tolist()]
    assert [ch.nu for ch in channels[:3]] == [0.0, 0.0, 0.0]


def test_raw_error_leaves_no_reference_cycle():
    """With the cyclic collector off, the error that _raw raises from an error
    cell dies with its handler: the frame its traceback holds keeps no
    reference to the cell."""
    enabled = collector.isenabled()
    collector.disable()
    try:
        try:  # QU2 fails its eta >= 1/2 check
            _raw(bnd.evaluate_columns(("QU2",), [chn.thermal(0.3, 0.5)], [1.0])[0][0])
        except BosonicBoundsError as exc:
            ref = weakref.ref(exc)
        assert ref() is None
    finally:
        if enabled:
            collector.enable()


def test_suite_builds_no_channel_and_no_bound_result(monkeypatch):
    """The suite works on parameter arrays: it builds no channel object and
    no BoundResult, and never enters the evaluator's column code."""
    built = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            built[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(chn.PhaseInsensitiveChannel, "__init__",
                        counting("channel", chn.PhaseInsensitiveChannel.__init__))
    monkeypatch.setattr(bnd.BoundResult, "__init__", counting("result", bnd.BoundResult.__init__))
    monkeypatch.setattr(bnd, "_columns", counting("columns", bnd._columns))
    assert all(r.passed for r in vfy.run_suite("all"))
    assert built == Counter()
    bnd.evaluate_columns(("QU1",), [chn.thermal(0.8, 0.5)], [1.0])[0]  # the counters count
    assert built == Counter(channel=1, result=1, columns=1)


@pytest.mark.parametrize("call", [
    lambda rng: vfy.random_single_mode_cov(-1.0, rng),
    lambda rng: vfy.random_single_mode_cov(np.nan, rng),
    lambda rng: vfy.random_single_mode_cov(np.inf, rng),
    lambda rng: vfy.random_single_mode_cov(np.array([1.0, -1.0]), rng),
    lambda rng: vfy.random_single_mode_cov("1.0", rng),
    lambda rng: vfy.random_single_mode_cov(1e308, rng),
    lambda rng: vfy.random_valid_qblock(rng, -5.0),
    lambda rng: vfy.random_valid_qblock(rng, np.nan),
    lambda rng: vfy.random_valid_qblock(rng, "5"),
], ids=["ns_negative", "ns_nan", "ns_inf", "ns_array_negative", "ns_str", "ns_overflowing", "scale_negative",
        "scale_nan", "scale_str"])
def test_samplers_reject_bad_arguments_before_drawing(call):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError):
        call(rng)
    assert rng.bit_generator.state == state


def test_samplers_take_numpy_ints_and_a_zero_scale():
    rng = np.random.default_rng(0)
    assert vfy.random_single_mode_cov(np.int64(3), rng).shape == (2, 2)
    assert np.allclose(vfy.random_valid_qblock(rng, np.int32(0)), np.eye(2))


def test_nan_bound_fails_its_check(monkeypatch):
    """A nan upper or lower bound is a FAIL with residual nan, not a pass or a raised error."""
    monkeypatch.setattr(bnd, "_min_penalty", lambda eps, w_prime, k: (np.full(np.shape(eps), np.nan), None))
    monkeypatch.setitem(bnd.REGISTRY["PL"].forms, "thermal",
                        bnd._Form(lambda eta, nb, ns: (np.full(np.shape(ns), np.nan), None), ()))
    for check in (vfy.check_bound_ordering, vfy.check_private_improvement):
        result = check()
        assert not result.passed and np.isnan(result.residual), check.__name__


def _nan_valued(fn):
    """`fn` with its result (a tuple's first item) replaced by nan of the same shape."""
    def nan(*args):
        out = fn(*args)
        if isinstance(out, tuple):
            return (np.full(np.shape(out[0]), np.nan), *out[1:])
        return np.full(np.shape(out), np.nan)
    return nan


def _nan_attr(owner, name):
    return lambda mp: mp.setattr(owner, name, _nan_valued(getattr(owner, name)))


def _nan_form(kind, channel_kind):
    forms = bnd.REGISTRY[kind].forms
    return lambda mp: mp.setitem(forms, channel_kind, forms[channel_kind]._replace(
        fn=_nan_valued(forms[channel_kind].fn)))


# (check, the core whose nan reaches one of the check's residual parts); each
# combination of parts once dropped the nan and read PASS
NAN_INJECTIONS = {
    "tms_purity": (vfy.check_tms_purity, _nan_attr(gc, "_entropy_from_cov")),
    "photon_bookkeeping": (vfy.check_photon_bookkeeping, _nan_attr(gc, "_photon_number")),
    "fidelity_symmetry_identity": (vfy.check_fidelity_basics, _nan_attr(gc, "_fidelity")),
    "fidelity_identity": (vfy.check_fidelity_identity, _nan_attr(gc, "_fidelity")),
    "eps_consistency": (vfy.check_eps_consistency, _nan_attr(chn, "_kappa")),
    "ud_oracle": (vfy.check_ud_oracle, _nan_attr(bnd, "_ud_amp_raw")),  # the second of two parts
    "bound_ordering": (vfy.check_bound_ordering, _nan_attr(bnd, "_qu4_thermal_raw")),
    "unconstrained_limit": (vfy.check_unconstrained_limit, _nan_attr(bnd, "_qu1_thermal_raw")),
    "comparison_orderings": (vfy.check_comparison_orderings, _nan_form("RMG", "thermal")),
    "optimizer_vs_grid": (vfy.check_optimizer_vs_grid, _nan_attr(bnd, "_min_penalty")),
}


@pytest.mark.parametrize("name", NAN_INJECTIONS)
def test_nan_residual_part_fails_its_check(monkeypatch, name):
    check, inject = NAN_INJECTIONS[name]
    inject(monkeypatch)
    result = check()
    assert result.name == name
    assert not result.passed and np.isnan(result.residual)


AMP_1E6 = chn.amplifier(1e6, 0.1)


@pytest.mark.parametrize("call", [
    lambda: chn.degrading_dilation_cov(AMP_1E6, np.eye(2))[0],
    lambda: chn.simulating_channel_cov(AMP_1E6, np.eye(2))[0],
    lambda: vfy.ud_oracle(AMP_1E6, np.eye(2)),
    lambda: vfy.coherent_info_oracle(AMP_1E6, 2.0),
], ids=["degrading_dilation_cov", "simulating_channel_cov", "ud_oracle", "coherent_info_oracle"])
def test_oracles_reach_a_large_gain(call):
    """The dilations of amplifier(1e6, 0.1) are built from a squeezer whose
    S Omega S^T is off from Omega by about G eps; the oracles return finite values."""
    assert np.all(np.isfinite(call()))


def test_coherent_info_oracle_at_a_large_gain_matches_the_closed_form():
    assert abs(vfy.coherent_info_oracle(AMP_1E6, 2.0) - bnd._ql_amp_raw(1e6, 0.1, 2.0)) <= 1e-8


def test_broken_constructor_formula_fails_its_check(monkeypatch):
    """A symplectic constructor whose formula is wrong reads FAIL with a finite
    residual in the check of S Omega S^T = Omega, rather than raising."""
    pair_cov = gc._pair_cov
    monkeypatch.setattr(gc, "_pair_cov", lambda q, p: 1.01 * pair_cov(q, p))
    result = vfy.check_symplectic_constructors()
    assert result.name == "symplectic_constructors"
    assert not result.passed and np.isfinite(result.residual) and result.residual > 1e-10


def test_suite_order_is_the_reference_order():
    """The checks register in definition order: the names of SUITES["all"]
    come in the order of bench/refs/verify.txt."""
    ref = (Path(__file__).parents[1] / "bench" / "refs" / "verify.txt").read_text().splitlines()
    want = [line.split("] ", 1)[1].split(":", 1)[0] for line in ref if line.startswith("[")]
    assert [check().name for check in vfy.SUITES["all"]] == want
    assert len(want) == 20
