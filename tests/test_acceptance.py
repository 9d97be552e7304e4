"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import time

import numpy as np
import pytest

from bosonic_bounds import bounds as bnd
from bosonic_bounds import channels as chn
from bosonic_bounds import gaussian_core as gc
from bosonic_bounds import verify as vfy

LN2 = np.log(2.0)


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_gap_law_inequality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260808)
    n = 10_000
    eta = rng.uniform(0.5, 1.0, n)
    nb = rng.uniform(0.0, 5.0, n)
    ns = rng.uniform(0.0, 100.0, n)
    gap = bnd._qu1_thermal_raw(eta, nb, ns) - bnd._ql_thermal_raw(eta, nb, ns)
    lo_viol = float(np.max(-gap))
    hi_viol = float(np.max(gap - 1.0 / LN2))
    elapsed = time.perf_counter() - t0
    ok = lo_viol <= 1e-9 and hi_viol <= 1e-9 and elapsed < 10.0
    assert report(1, "gap law inequality", ok,
                  f"worst violations {lo_viol:.2e}/{hi_viol:.2e}, {elapsed:.2f}s")


def test_criterion_01_gap_law_pinned_limit():
    # At fixed (eta, nb) the gap tends to nb*log2(1 + 1/nb) as ns -> inf, and
    # that rises to 1/ln 2 only as nb -> inf: so large nb, with ns >> nb.
    gap = bnd.gap_qu1_ql(0.8, 1e4, 1e8)
    ok = abs(gap - 1.442695) <= 1e-3
    report(1, "gap law pinned limit", ok, f"gap(0.8, 1e4, 1e8) = {gap:.6f}")
    assert ok, (
        f"gap at (eta=0.8, nb=1e4, ns=1e8) is {gap:.6f}, "
        f"{gap - 1.442695:+.2e} from 1/ln 2 = 1.442695 (tolerance 1e-3)"
    )


def test_criterion_02_lower_bound_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        eta, nb, ns = rng.uniform(0.02, 1.0), rng.uniform(0, 3), rng.uniform(0, 50)
        got = bnd._ql_thermal_raw(eta, nb, ns)
        worst = max(worst, abs(got - vfy.coherent_info_oracle(chn.thermal(eta, nb), ns)))
    for _ in range(1000):
        g, nb, ns = rng.uniform(1.001, 4.0), rng.uniform(0, 3), rng.uniform(0, 50)
        got = bnd._ql_amp_raw(g, nb, ns)
        worst = max(worst, abs(got - vfy.coherent_info_oracle(chn.amplifier(g, nb), ns)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    assert report(2, "lower-bound oracle equivalence", ok,
                  f"worst |closed - oracle| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_fidelity_identity():
    worst = 0.0
    for eta in np.linspace(0.5, 1.0, 20):
        for nb in np.linspace(0.0, 3.0, 20):
            tms = gc.tms_state(nb)
            oq, op = chn.noisy_tms_qblocks(nb, eta)
            cov = np.zeros((4, 4))
            cov[:2, :2] = oq
            cov[2:, 2:] = op
            fid = gc.two_mode_fidelity(tms, gc.GaussianState(2, np.zeros(4), cov))
            worst = max(worst, abs(fid - eta ** 2 / chn.kappa(eta, nb)))
    ok = worst <= 1e-10
    assert report(3, "two-mode fidelity identity", ok, f"worst residual {worst:.2e}")


def test_criterion_04_covariance_channel_identity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        q = vfy.random_valid_qblock(rng)
        eta, nb = rng.uniform(0.5, 1.0), rng.uniform(0.0, 3.0)
        A, B = chn.degrading_simulation_check(chn.thermal(eta, nb), q)
        worst = max(worst, float(np.max(np.abs(A - B))))
    ok = worst <= 1e-10
    assert report(4, "degrading vs simulating covariance identity", ok,
                  f"worst residual {worst:.2e}")


def test_criterion_05_conditional_entropy_oracle_and_optimality():
    rng = np.random.default_rng(5)
    worst_closed = 0.0
    worst_opt = -np.inf
    etas = np.linspace(0.5, 1.0, 10)
    nbs = np.linspace(0.0, 2.0, 10)
    nss = np.array([0.5, 2.0, 5.0, 10.0, 20.0])
    for eta in etas:
        for nb in nbs:
            ch = chn.thermal(eta, nb)
            for ns in nss:
                closed = bnd._ud_thermal_raw(eta, nb, ns)
                oracle = vfy.ud_oracle(ch, (2 * ns + 1) * np.eye(2))
                worst_closed = max(worst_closed, abs(closed - oracle))
                covs = np.stack([vfy.random_single_mode_cov(ns, rng)
                                 for _ in range(100)])
                vals = vfy.ud_oracle(ch, covs)
                worst_opt = max(worst_opt, float(np.max(vals) - oracle))
    ok = worst_closed <= 1e-9 and worst_opt <= 1e-9
    assert report(5, "U_D closed form and thermal-input optimality", ok,
                  f"closed-form residual {worst_closed:.2e}, "
                  f"optimality violation {worst_opt:.2e}")


def test_criterion_06_figure_orderings():
    samples = (0.5, 1.0, 5.0, 20.0, 100.0)
    ch_a = chn.thermal(0.6, 0.05)
    fig3a = all(bnd.q_u3(ch_a, s).raw < bnd.q_u2(ch_a, s).raw for s in samples)
    ch_b = chn.thermal(0.6, 0.5)
    fig3b = all(bnd.q_u2(ch_b, s).raw < bnd.q_u3(ch_b, s).raw for s in samples)
    ch_d = chn.thermal(0.99, 0.5)
    fig3d = all(bnd.q_u2(ch_d, s).raw < bnd.q_u3(ch_d, s).raw for s in samples)
    high = (100.0, 150.0, 200.0, 300.0, 500.0)
    fig4a = all(bnd.q_u2(ch_d, s).raw < bnd.q_u1(ch_d, s).raw for s in high)
    low = (0.2, 0.5, 1.0, 2.0, 5.0)
    fig4b = all(bnd.q_u1(ch_d, s).raw < bnd.q_u2(ch_d, s).raw for s in low)
    ok = fig3a and fig3b and fig3d and fig4a and fig4b
    assert report(6, "figure-level orderings", ok,
                  f"3a={fig3a} 3b={fig3b} 3d={fig3d} 4a={fig4a} 4b={fig4b}")


def test_criterion_07_private_improvement():
    etas = np.linspace(0.05, 0.95, 19)
    ok = True
    details = []
    for nb in (0.01, 0.1):
        for ns in (0.1, 10.0):
            best = 0.0
            for eta in etas:
                r = bnd.p_lower_displaced(float(eta), nb, ns)
                ql = bnd._ql_thermal_raw(float(eta), nb, ns)
                if r.raw < ql - 1e-9:
                    ok = False
                if ql > 0.0:  # improvement of a genuinely positive rate
                    best = max(best, r.raw - ql)
            details.append(f"nb={nb},ns={ns}:max +{best:.2e}")
            if best <= 1e-4:
                ok = False
    assert report(7, "private-rate improvement bands", ok, "; ".join(details))


def test_criterion_08_comparison_bound_orderings():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(2000):
        eta, nb = rng.uniform(0.01, 0.999), rng.uniform(0.0, 5.0)
        if eta <= (1.0 - eta) * nb or eta < 0.5:
            continue
        ch = chn.thermal(eta, nb)
        worst = max(worst, bnd.comparison_bounds(ch, "RMG")
                    - max(0.0, bnd.q_u1_unconstrained(ch)))
    nbars = np.linspace(0.005, 0.995, 100)
    signs = []
    for nbar in nbars:
        ch = chn.additive_noise(float(nbar))
        plob = bnd.comparison_bounds(ch, "PLOB_addnoise")
        worst = max(worst, plob - bnd.q_u1_unconstrained(ch))
        signs.append(max(0.0, bnd.q_u4_unconstrained(ch)) - max(0.0, plob))
    signs = np.asarray(signs)
    # QU4 looser at low noise, tighter at high noise, with a crossover
    crossover = signs[0] > 0 and signs[-1] < 0 and np.any(np.diff(np.sign(signs)) != 0)
    ok = worst <= 1e-9 and crossover
    assert report(8, "comparison-bound orderings and crossover", ok,
                  f"worst ordering violation {worst:.2e}, crossover={crossover}")


def test_criterion_09_optimizer_soundness():
    rng = np.random.default_rng(9)
    worst = -np.inf
    dense_n = 10 ** 6
    for i in range(50):
        if i % 2 == 0:
            eps = rng.uniform(1e-4, 0.9)
            wp = rng.uniform(0.0, 50.0)
            k = int(rng.integers(1, 5))
            value, _ = bnd._min_penalty(eps, wp, k)
            grid = np.linspace(eps + 1e-12, 1.0, dense_n)
            dense = float(np.min(bnd._penalty_eval(eps, grid, wp, k)))
            worst = max(worst, value - dense)
        else:
            eta, nb = rng.uniform(0.3, 0.99), rng.uniform(0.0, 1.0)
            ns = rng.uniform(0.1, 20.0)
            r = bnd.p_lower_displaced(eta, nb, ns)
            grid = np.linspace(0.0, ns, dense_n)
            dense = bnd._ql_thermal_raw(eta, nb, ns) - float(
                np.min(bnd._ql_thermal_raw(eta, nb, grid)))
            worst = max(worst, dense - r.raw)
    ok = worst <= 1e-6
    assert report(9, "optimizer vs dense grid", ok,
                  f"worst shortfall {worst:.2e} <= 1e-6")
