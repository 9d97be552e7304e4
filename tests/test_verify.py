"""The stacked oracle checks against per-sample reference loops.

Each reference below draws the same seeded samples in the same order as the
check it mirrors, but builds one state at a time through the one-sample
functions (`GaussianState`, `two_mode_fidelity`, `random_single_mode_cov`,
...), calls the oracle and the closed form once per sample and evaluates
the dense grid in one piece.  The stacked checks must return
an equal CheckResult, with the residual equal bit for bit.
"""

import numpy as np
import pytest

from bosonic_bounds import bounds as bnd
from bosonic_bounds import channels as chn
from bosonic_bounds import gaussian_core as gc
from bosonic_bounds import verify as vfy


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


def ref_optimizer_vs_grid(seed=67, n_obj=10, dense=10 ** 6):
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n_obj):
        eps = rng.uniform(0.0001, 0.9)
        wp = rng.uniform(0.0, 50.0)
        k = int(rng.integers(1, 5))
        value, _ = bnd._min_penalty(eps, wp, k)
        grid = np.linspace(eps + 1e-12, 1.0, dense)
        dense_min = float(np.min(bnd._penalty_eval(eps, grid, wp, k)))
        worst = max(worst, value - dense_min)
    return vfy.CheckResult("optimizer_vs_grid", worst < 1e-6, worst, 1e-6,
                           "golden-section result at or below the dense-grid minimum")


CASES = [
    (vfy.check_tms_purity, ref_tms_purity, {"n": 7}),
    (vfy.check_state_invariants, ref_state_invariants, {"n": 7}),
    (vfy.check_fidelity_basics, ref_fidelity_basics, {"n": 7}),
    (vfy.check_fidelity_identity, ref_fidelity_identity, {"n_eta": 3, "n_nb": 4}),
    (vfy.check_eps_consistency, ref_eps_consistency, {"n": 7}),
    (vfy.check_deg_vs_sim_cov, ref_deg_vs_sim_cov, {"n": 7}),
    (vfy.check_ql_oracle_thermal, ref_ql_oracle_thermal, {"n": 7}),
    (vfy.check_ql_oracle_amp, ref_ql_oracle_amp, {"n": 7}),
    (vfy.check_ud_oracle, ref_ud_oracle, {"n": 7}),
    (vfy.check_thermal_input_optimality, ref_thermal_input_optimality,
     {"n_points": 3, "n_inputs": 5}),
    # 200 001 points: three full blocks of 2**16 and a ragged last one
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


@pytest.mark.parametrize("draw", [
    lambda rng, n=None: vfy.random_single_mode_cov(3.7, rng, n),
    lambda rng, n=None: vfy.random_valid_qblock(rng, 2.5, n),
], ids=["random_single_mode_cov", "random_valid_qblock"])
def test_stacked_draws_equal_one_sample_calls(draw):
    one, stacked = np.random.default_rng(3), np.random.default_rng(3)
    want = np.stack([draw(one) for _ in range(40)])
    got = draw(stacked, 40)
    assert got.shape == (40, 2, 2)
    assert np.array_equal(got, want)
    assert one.bit_generator.state == stacked.bit_generator.state
