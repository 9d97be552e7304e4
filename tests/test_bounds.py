import gc as collector
import math
import weakref

import numpy as np
import pytest

from bosonic_bounds import bounds as bnd
from bosonic_bounds import channels as chn
from bosonic_bounds import gaussian_core as gc
from bosonic_bounds import verify as vfy
from bosonic_bounds.errors import (
    BosonicBoundsError,
    ChannelKindError,
    DomainError,
    InfeasibleBoundError,
    InvalidStateError,
)

LN2 = np.log(2.0)

# frozen 40-digit evaluations of the closed forms
PENALTY_01_03_5 = 10.13616044854397332069
QU1_AMP_2_05_10 = 0.376876104168291462668
QU1_TH_099_0_1 = 1.909026343423734981271
QU1_TH_05_2_5_RAW = -1.29689482068908672885
UD_TH_075_02_5 = 0.6387170089450482754278
QL_TH_07_02_4 = 0.3490758643085448488259
QL_AMP_15_03_8 = 0.5051092336088727424885
QU1_ADD_05_3 = 0.7548875021634685443612
QU4_ADD_03_2 = 0.9347398514254584425783
QU4_TH_06_04_3_RAW = -0.2869772734541827568915
PLOB_TH_09_05 = 2.020485890528153068171
PLOB_AMP_2_05 = 0.1225562489182657278194
PLOB_ADD_05 = 0.27865247955551829632
RMG_09_05 = 2.5025003405291832268


class TestPenalty:
    def test_endpoint_arithmetic(self):
        # eps=0, eps'=1, W'=0, k=1: delta=1/2, value = 0 + g(1) + 2 h2(1/2) = 4
        p = bnd.PenaltyParams(0.0, 1.0, 0.0, 1)
        assert p.delta == pytest.approx(0.5)
        assert bnd.penalty(p) == pytest.approx(4.0, abs=1e-12)

    def test_linear_in_k(self):
        p1 = bnd.PenaltyParams(0.05, 0.4, 3.0, 1)
        p2 = bnd.PenaltyParams(0.05, 0.4, 3.0, 2)
        assert bnd.penalty(p2) == pytest.approx(2 * bnd.penalty(p1), rel=1e-14)

    def test_frozen_value(self):
        p = bnd.PenaltyParams(0.1, 0.3, 5.0, 1)
        assert p.delta == pytest.approx(2.0 / 13.0, abs=1e-15)
        assert bnd.penalty(p) == pytest.approx(PENALTY_01_03_5, abs=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            bnd.PenaltyParams(0.5, 0.5, 1.0, 1)
        with pytest.raises(DomainError):
            bnd.PenaltyParams(0.1, 1.1, 1.0, 1)
        with pytest.raises(DomainError):
            bnd.PenaltyParams(0.1, 0.2, -1.0, 1)
        with pytest.raises(DomainError):
            bnd.PenaltyParams(0.1, 0.2, 1.0, 5)
        for k in ("1", None, np.array([1, 1]), 10 ** 400, 1.5):
            with pytest.raises(DomainError, match="multiplier k must be one of 1, 2, 3, 4"):
                bnd.PenaltyParams(0.1, 0.2, 1.0, k)


class TestLowerBounds:
    def test_lossless_limit(self):
        for ns in (0.5, 2.0, 10.0):
            assert bnd.q_lower_thermal(1.0, 1.3, ns).raw == \
                pytest.approx(gc.g_entropy(ns), abs=1e-12)

    def test_vacuum_input_gives_zero(self):
        assert bnd.q_lower_thermal(0.7, 1.0, 0.0).raw == pytest.approx(0.0, abs=1e-12)
        assert bnd.q_lower_amp(1.8, 0.7, 0.0).raw == pytest.approx(0.0, abs=1e-12)

    def test_frozen_values(self):
        assert bnd.q_lower_thermal(0.7, 0.2, 4.0).raw == \
            pytest.approx(QL_TH_07_02_4, abs=1e-12)
        assert bnd.q_lower_amp(1.5, 0.3, 8.0).raw == \
            pytest.approx(QL_AMP_15_03_8, abs=1e-12)

    def test_matches_dilation_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            eta, nb, ns = rng.uniform(0.05, 1.0), rng.uniform(0, 3), rng.uniform(0, 30)
            want = vfy.coherent_info_oracle(chn.thermal(eta, nb), ns)
            assert bnd.q_lower_thermal(eta, nb, ns).raw == pytest.approx(want, abs=1e-9)
            g = rng.uniform(1.001, 3.0)
            want = vfy.coherent_info_oracle(chn.amplifier(g, nb), ns)
            assert bnd.q_lower_amp(g, nb, ns).raw == pytest.approx(want, abs=1e-9)

    def test_oracle_needs_a_dilation(self):
        with pytest.raises(ChannelKindError):
            vfy.coherent_info_oracle(chn.additive_noise(0.3), 1.0)

    def test_amp_quantum_limited_equals_qu1(self):
        ql = bnd.q_lower_amp(2.0, 0.0, 3.0)
        q1 = bnd.q_u1(chn.amplifier(2.0, 0.0), 3.0)
        assert ql.raw == pytest.approx(q1.raw, abs=1e-12)

    def test_clamped_value(self):
        r = bnd.q_lower_thermal(0.4, 2.0, 5.0)
        assert r.raw < 0.0
        assert r.value == 0.0


class TestDataProcessingBounds:
    def test_pure_loss_reduction(self):
        r = bnd.q_u1(chn.thermal(0.99, 0.0), 1.0)
        assert r.raw == pytest.approx(QU1_TH_099_0_1, abs=1e-12)
        assert r.raw == pytest.approx(gc.g_entropy(0.99) - gc.g_entropy(0.01), abs=1e-12)

    def test_thermal_clamp(self):
        r = bnd.q_u1(chn.thermal(0.5, 2.0), 5.0)
        assert r.raw == pytest.approx(QU1_TH_05_2_5_RAW, abs=1e-12)
        assert r.value == 0.0

    def test_amplifier_frozen(self):
        r = bnd.q_u1(chn.amplifier(2.0, 0.5), 10.0)
        assert r.raw == pytest.approx(QU1_AMP_2_05_10, abs=1e-12)
        # cross-check ordering against the amplifier lower bound
        assert r.raw >= bnd.q_lower_amp(2.0, 0.5, 10.0).raw - 1e-9

    def test_additive_frozen(self):
        r = bnd.q_u1(chn.additive_noise(0.5), 3.0)
        assert r.raw == pytest.approx(QU1_ADD_05_3, abs=1e-12)

    def test_unconstrained_limits(self):
        ch = chn.thermal(0.8, 1.0)
        assert bnd.q_u1_unconstrained(ch) == pytest.approx(
            np.log2(0.8 / 0.2) - np.log2(2.0), abs=1e-12)
        assert bnd.q_u1_unconstrained(chn.amplifier(2.0, 0.5)) == pytest.approx(
            np.log2(2.0) - np.log2(1.5), abs=1e-12)
        assert bnd.q_u1_unconstrained(chn.additive_noise(0.25)) == pytest.approx(2.0)

    def test_infeasible_regimes(self):
        with pytest.raises(InfeasibleBoundError):
            bnd.q_u1(chn.amplifier(3.0, 1.0), 1.0)  # entanglement-breaking
        with pytest.raises(InfeasibleBoundError):
            bnd.q_u1(chn.additive_noise(1.5), 1.0)
        with pytest.raises(InfeasibleBoundError):
            bnd.q_u1(chn.thermal(0.4, 0.1), 1.0)

    def test_upper_bounds_are_the_papers_factorings(self):
        """QU1 is QL of the pure-loss (or quantum-limited amplifier) first stage
        of the loss-then-amplifier factoring, and QU4 is QL of the pure-loss
        second stage of the amplifier-then-loss one, at the amplified energy.
        The 1e-9 leaves room for the QL forms' cancellation (ROADMAP E2)."""
        rng = np.random.default_rng(0)
        n = 2000
        cells = np.column_stack([rng.uniform(0.5, 1.0, n), 1.0 + 10.0 ** rng.uniform(-3.0, math.log10(3.2), n),
                                 10.0 ** rng.uniform(-3.0, 2.0, n), 10.0 ** rng.uniform(-3.0, 4.0, n)])
        checked = dict.fromkeys(("thermal", "amplifier", "additive", "qu4"), 0)
        for eta, g, nb, ns in cells.tolist():
            pairs = {"thermal": (bnd.q_u1(chn.thermal(eta, nb), ns),
                                 bnd.q_lower_thermal(eta / ((1.0 - eta) * nb + 1.0), 0.0, ns))}
            if (g - 1.0) * nb < 1.0:
                pairs["amplifier"] = (bnd.q_u1(chn.amplifier(g, nb), ns),
                                      bnd.q_lower_amp(g / (1.0 - nb * (g - 1.0)), 0.0, ns))
            if nb < 1.0:
                pairs["additive"] = (bnd.q_u1(chn.additive_noise(nb), ns),
                                     bnd.q_lower_thermal(1.0 / (nb + 1.0), 0.0, ns))
            if (eta2 := eta - (1.0 - eta) * nb) > 0.0:
                gain = eta / eta2
                pairs["qu4"] = (bnd.q_u4(chn.thermal(eta, nb), ns),
                                bnd.q_lower_thermal(eta2, 0.0, gain * ns + gain - 1.0))
            for name, (bound, ql) in pairs.items():
                assert bound.raw == pytest.approx(ql.raw, rel=1e-9, abs=0.0), (name, eta, g, nb, ns)
                checked[name] += 1
        assert min(checked.values()) >= 1000

    def test_qu4_matches_qu1_at_zero_noise(self):
        ch = chn.thermal(0.8, 0.0)
        assert bnd.q_u4(ch, 5.0).raw == pytest.approx(bnd.q_u1(ch, 5.0).raw, abs=1e-12)

    def test_qu4_frozen_values(self):
        r = bnd.q_u4(chn.thermal(0.6, 0.4), 3.0)  # feasible: 0.6 > 0.16
        assert r.raw == pytest.approx(QU4_TH_06_04_3_RAW, abs=1e-12)
        assert r.value == 0.0
        assert bnd.q_u4(chn.additive_noise(0.3), 2.0).raw == \
            pytest.approx(QU4_ADD_03_2, abs=1e-12)

    def test_qu4_unconstrained_additive(self):
        assert bnd.q_u4_unconstrained(chn.additive_noise(0.5)) == pytest.approx(0.0)

    def test_qu4_infeasible(self):
        with pytest.raises(InfeasibleBoundError, match="eta <= "):
            bnd.q_u4(chn.thermal(0.5, 2.0), 1.0)
        with pytest.raises(ChannelKindError):
            bnd.q_u4(chn.amplifier(2.0, 0.1), 1.0)


class TestApproximateDegradabilityBounds:
    def test_qu2_zero_noise_is_pure_loss(self):
        r = bnd.q_u2(chn.thermal(0.8, 0.0), 4.0)
        want = gc.g_entropy(0.8 * 4) - gc.g_entropy(0.2 * 4)
        assert r.raw == pytest.approx(want, abs=1e-12)
        assert r.argopt is None  # limiting value, infimum unattained

    def test_ud_term_frozen(self):
        assert bnd._ud_thermal_raw(0.75, 0.2, 5.0) == \
            pytest.approx(UD_TH_075_02_5, abs=1e-12)

    def test_ud_matches_conditional_entropy_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            eta, nb, ns = rng.uniform(0.5, 1.0), rng.uniform(0, 2), rng.uniform(0, 15)
            want = vfy.ud_oracle(chn.thermal(eta, nb), (2 * ns + 1) * np.eye(2))
            assert bnd._ud_thermal_raw(eta, nb, ns) == pytest.approx(want, abs=1e-9)
            g = rng.uniform(1.001, 3.0)
            want = vfy.ud_oracle(chn.amplifier(g, nb), (2 * ns + 1) * np.eye(2))
            assert bnd._ud_amp_raw(g, nb, ns) == pytest.approx(want, abs=1e-9)

    def test_qu2_beats_qu1_at_high_energy(self):
        ch = chn.thermal(0.99, 0.5)
        assert bnd.q_u2(ch, 100.0).raw < bnd.q_u1(ch, 100.0).raw

    def test_qu2_optimizer_matches_dense_grid(self):
        ch = chn.thermal(0.75, 0.2)
        r = bnd.q_u2(ch, 5.0)
        eps = chn.epsilon_degradable(ch).epsilon
        wp = 0.25 * 5.0 + 1.75 * 0.2
        grid = np.linspace(eps + 1e-12, 1.0, 10 ** 6)
        dense = float(np.min(bnd._penalty_eval(grid, eps, wp, 1)))
        assert r.raw - bnd._ud_thermal_raw(0.75, 0.2, 5.0) <= dense + 1e-6

    def test_qu2_explicit_eps_prime(self):
        ch = chn.thermal(0.75, 0.2)
        eps = chn.epsilon_degradable(ch).epsilon
        r = bnd.q_u2(ch, 5.0, eps_prime=0.6)
        wp = 0.25 * 5.0 + 1.75 * 0.2
        want = UD_TH_075_02_5 + bnd.penalty(bnd.PenaltyParams(eps, 0.6, wp, 1))
        assert r.raw == pytest.approx(want, abs=1e-12)
        assert r.argopt == 0.6
        with pytest.raises(DomainError):
            bnd.q_u2(ch, 5.0, eps_prime=eps / 2)

    def test_qu3_zero_noise_is_degradable_capacity(self):
        r = bnd.q_u3(chn.thermal(0.8, 0.0), 4.0)
        assert r.raw == pytest.approx(gc.g_entropy(3.2) - gc.g_entropy(0.8), abs=1e-12)
        ra = bnd.q_u3(chn.amplifier(2.0, 0.0), 3.0)
        assert ra.raw == pytest.approx(bnd.q_u1(chn.amplifier(2.0, 0.0), 3.0).raw, abs=1e-12)

    def test_qu3_near_qu1_in_very_low_noise(self):
        ch = chn.thermal(0.95, 1e-4)
        assert bnd.q_u3(ch, 10.0).raw - bnd.q_u1(ch, 10.0).raw < 0.1

    def test_eps_degradable_bounds_require_regime(self):
        with pytest.raises(InfeasibleBoundError):
            bnd.q_u2(chn.thermal(0.4, 0.1), 1.0)
        with pytest.raises(InfeasibleBoundError):
            bnd.q_u2(chn.amplifier(3.0, 1.0), 1.0)
        with pytest.raises(InfeasibleBoundError):
            bnd.q_u3(chn.amplifier(3.0, 1.0), 1.0)

    def test_eps_degradable_bounds_require_gain_above_one(self):
        ch = chn.amplifier(1.0, 0.5)
        with pytest.raises(DomainError, match="gain > 1"):
            bnd.q_u2(ch, 1.0)
        with pytest.raises(DomainError, match="gain > 1"):
            bnd.p_bounds(ch, 1.0, "PU2")


class TestPrivateBounds:
    def test_pu1_equals_qu1(self):
        for ch, ns in [(chn.thermal(0.8, 0.3), 2.0),
                       (chn.amplifier(1.5, 0.2), 5.0),
                       (chn.additive_noise(0.4), 1.0)]:
            assert bnd.p_bounds(ch, ns, "PU1").raw == pytest.approx(bnd.q_u1(ch, ns).raw)

    def test_pu2_penalty_scaling(self):
        # at equal eps', PU2 - QU2 = penalty(k=3) - penalty(k=1) = 2 penalty(k=1)
        ch = chn.thermal(0.8, 0.4)
        q = bnd.q_u2(ch, 3.0, eps_prime=0.7)
        p = bnd.p_bounds(ch, 3.0, "PU2", eps_prime=0.7)
        eps = chn.epsilon_degradable(ch).epsilon
        wp = 0.2 * 3.0 + 1.8 * 0.4
        pen1 = bnd.penalty(bnd.PenaltyParams(eps, 0.7, wp, 1))
        assert p.raw - q.raw == pytest.approx(2 * pen1, rel=1e-12)

    def test_pu3_penalty_scaling(self):
        ch = chn.thermal(0.7, 0.2)
        q = bnd.q_u3(ch, 5.0, eps_prime=0.6)
        p = bnd.p_bounds(ch, 5.0, "PU3", eps_prime=0.6)
        eps = 0.2 / 1.2
        wp = 0.7 * 5.0 + 0.3 * 0.2
        pen1 = bnd._penalty_eval(0.6, eps, wp, 1)
        assert p.raw - q.raw == pytest.approx(2 * pen1, rel=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            bnd.p_bounds(chn.thermal(0.8, 0.1), 1.0, "PU9")

    @pytest.mark.parametrize("eps_prime", [0.5, np.nan])
    def test_pu1_rejects_eps_prime(self, eps_prime):
        with pytest.raises(DomainError) as exc:
            bnd.p_bounds(chn.thermal(0.8, 0.1), 1.0, "PU1", eps_prime=eps_prime)
        for taker in ("QU2", "QU3", "PU2", "PU3"):
            assert taker in str(exc.value)

    def test_pu1_without_eps_prime_is_qu1(self):
        r = bnd.p_bounds(chn.thermal(0.99, 0.0), 1.0, "PU1")
        q = bnd.q_u1(chn.thermal(0.99, 0.0), 1.0)
        assert (r.kind, r.value, r.raw, r.argopt, r.params) == \
            ("PU1", q.value, q.raw, None, q.params)
        assert r.value == pytest.approx(QU1_TH_099_0_1, abs=1e-12)


class TestPrivateLowerBound:
    def test_zero_noise_optimum_at_origin(self):
        r = bnd.p_lower_displaced(0.8, 0.0, 2.0)
        assert r.argopt == pytest.approx(0.0, abs=1e-9)
        assert r.raw == pytest.approx(bnd.q_lower_thermal(0.8, 0.0, 2.0).raw, abs=1e-9)

    def test_never_below_coherent_information(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            eta, nb, ns = rng.uniform(0.1, 1.0), rng.uniform(0, 1), rng.uniform(0, 10)
            r = bnd.p_lower_displaced(eta, nb, ns)
            assert r.raw >= bnd.q_lower_thermal(eta, nb, ns).raw - 1e-9
            assert 0.0 <= r.argopt <= ns

    def test_improvement_band_exists(self):
        vals = [bnd.p_lower_displaced(eta, 0.1, 0.1) for eta in np.linspace(0.4, 0.8, 9)]
        ic = [bnd.q_lower_thermal(eta, 0.1, 0.1).raw for eta in np.linspace(0.4, 0.8, 9)]
        assert max(r.raw - i for r, i in zip(vals, ic)) > 1e-4

    def test_optimum_matches_dense_grid(self):
        eta, nb, ns = 0.7, 0.1, 0.5
        r = bnd.p_lower_displaced(eta, nb, ns)
        grid = np.linspace(0.0, ns, 200001)
        dense = bnd._ql_thermal_raw(eta, nb, ns) - np.min(bnd._ql_thermal_raw(eta, nb, grid))
        assert r.raw >= dense - 1e-9

    def test_zero_energy(self):
        r = bnd.p_lower_displaced(0.7, 0.5, 0.0)
        assert (r.raw, r.argopt) == (0.0, 0.0)


class TestComparisonBounds:
    def test_plob_thermal_pure_loss(self):
        assert bnd.comparison_bounds(chn.thermal(0.75, 0.0), "PLOB_thermal") == \
            pytest.approx(-np.log2(0.25), abs=1e-12)

    def test_frozen_values(self):
        assert bnd.comparison_bounds(chn.thermal(0.9, 0.5), "PLOB_thermal") == \
            pytest.approx(PLOB_TH_09_05, abs=1e-12)
        assert bnd.comparison_bounds(chn.amplifier(2.0, 0.5), "PLOB_amp") == \
            pytest.approx(PLOB_AMP_2_05, abs=1e-12)
        assert bnd.comparison_bounds(chn.additive_noise(0.5), "PLOB_addnoise") == \
            pytest.approx(PLOB_ADD_05, abs=1e-12)
        assert bnd.comparison_bounds(chn.thermal(0.9, 0.5), "RMG") == \
            pytest.approx(RMG_09_05, abs=1e-12)

    def test_rmg_tighter_than_unconstrained_qu1(self):
        ch = chn.thermal(0.9, 0.5)
        assert bnd.comparison_bounds(ch, "RMG") <= bnd.q_u1_unconstrained(ch) + 1e-12

    def test_kind_mismatch(self):
        with pytest.raises(ChannelKindError):
            bnd.comparison_bounds(chn.additive_noise(0.5), "RMG")
        with pytest.raises(ChannelKindError):
            bnd.comparison_bounds(chn.thermal(0.9, 0.5), "PLOB_amp")

    def test_rmg_infeasible(self):
        with pytest.raises(InfeasibleBoundError):
            bnd.comparison_bounds(chn.thermal(0.5, 2.0), "RMG")


class TestGapLaw:
    def test_zero_energy(self):
        assert bnd.gap_qu1_ql(0.8, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_ns(self):
        for eta, nb in [(0.6, 0.3), (0.9, 2.0), (0.75, 0.0)]:
            gaps = [bnd.gap_qu1_ql(eta, nb, ns) for ns in np.geomspace(0.01, 1e4, 40)]
            assert all(a <= b + 1e-11 for a, b in zip(gaps, gaps[1:]))

    def test_within_window(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            gap = bnd.gap_qu1_ql(rng.uniform(0.5, 1.0), rng.uniform(0, 5),
                                 rng.uniform(0, 100))
            assert -1e-9 <= gap <= 1.0 / LN2 + 1e-9

    def test_large_energy_limit_value(self):
        # the asymptote at fixed parameters is nb*log2(1 + 1/nb)
        gap = bnd.gap_qu1_ql(0.8, 1.0, 1e6)
        assert gap == pytest.approx(1.0, abs=1e-3)

    def test_is_qu1_minus_ql_bit_for_bit(self):
        rng = np.random.default_rng(24)
        cases = [(1.0, 0.5, 2.0), (0.5, 0.0, 1.0), (0.8, 1.0, 0.0)]
        cases += [(float(rng.uniform(0.5, 1.0)), float(10.0 ** rng.uniform(-3.0, 3.0)),
                   float(10.0 ** rng.uniform(-3.0, 8.0))) for _ in range(300)]
        for eta, nb, ns in cases:
            ch = chn.thermal(eta, nb)
            gap = bnd.gap_qu1_ql(eta, nb, ns)
            assert gap.hex() == (bnd.q_u1(ch, ns).raw - bnd.q_lower_thermal(eta, nb, ns).raw).hex()

    # the thermal constructor checks eta and nb, then QU1 checks ns before
    # its eta >= 1/2 regime
    @pytest.mark.parametrize("eta, nb, ns, error, message", [
        (0.0, 0.5, 1.0, DomainError, r"^thermal channel requires eta in \(0, 1\]$"),
        (-0.3, 0.5, -1.0, DomainError, r"^thermal channel requires eta in \(0, 1\]$"),
        (1.2, 0.5, 1.0, DomainError, r"^thermal channel requires eta in \(0, 1\]$"),
        (math.nan, 0.5, 1.0, DomainError, r"^thermal channel requires eta in \(0, 1\]$"),
        (math.inf, 0.5, 1.0, DomainError, r"^thermal channel requires eta in \(0, 1\]$"),
        (0.3, 0.5, 1.0, InfeasibleBoundError, r"^eta < 1/2: QU1 needs eta in \[1/2, 1\]$"),
        (0.3, 0.5, -1.0, DomainError, r"^input mean photon number must be >= 0$"),
        (0.8, -1.0, 1.0, DomainError, r"^environment photon number must be >= 0$"),
        (0.8, math.nan, 1.0, DomainError, r"^environment photon number must be >= 0; got non-finite nan$"),
        (0.8, 0.5, -1.0, DomainError, r"^input mean photon number must be >= 0$"),
        (0.8, 0.5, math.nan, DomainError, r"^input mean photon number must be >= 0; got non-finite nan$"),
        (0.8, 0.5, math.inf, DomainError, r"^input mean photon number must be finite;"),
    ])
    def test_errors(self, eta, nb, ns, error, message):
        with pytest.raises(error, match=message):
            bnd.gap_qu1_ql(eta, nb, ns)


class TestLargeEnergyDefects:
    """Known precision defects at large energy, where the g kernel's
    (x+1) ln(x+1) - x ln x cancels.  The marks are strict: a fix makes
    these pass, which fails until the fix removes the marks."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="QU2 loses its digits to the g kernel's cancellation")
    def test_qu2_does_not_fall_with_energy(self):
        ch = chn.thermal(0.6, 2.0)
        assert bnd.q_u2(ch, 1e6).value >= bnd.q_u2(ch, 1e4).value

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the gap loses its digits to the g kernel's cancellation")
    def test_gap_stays_below_its_supremum(self):
        assert bnd.gap_qu1_ql(0.8, 1e5, 1e10) <= 1.0 / LN2


class TestChannelDivergence:
    def test_identical_channels(self):
        ch = chn.thermal(0.8, 0.3)
        assert bnd.gaussian_c_distance(ch, ch, 2.0) == pytest.approx(0.0, abs=1e-7)

    def test_tau_mismatch(self):
        with pytest.raises(DomainError):
            bnd.gaussian_c_distance(chn.thermal(0.8, 0.3), chn.thermal(0.7, 0.3), 1.0)

    def test_matches_direct_covariance_route(self):
        # oracle: build both output covariances by (tau, nu) arithmetic on the
        # TMS blocks and evaluate the fidelity directly
        a, b, ns = chn.thermal(0.8, 0.3), chn.thermal(0.8, 0.1), 2.0
        sq, sp = gc.tms_qblocks(ns)

        def out_cov(ch):
            scale = np.diag([1.0, np.sqrt(ch.tau)])
            add = np.diag([0.0, ch.nu])
            q = scale @ sq @ scale.T + add
            p = scale @ sp @ scale.T + add
            cov = np.zeros((4, 4))
            cov[:2, :2] = q
            cov[2:, 2:] = p
            return gc._checked_cov(cov)

        fid = float(gc._fidelity(out_cov(a), out_cov(b)))
        assert bnd.gaussian_c_distance(a, b, ns) == \
            pytest.approx(np.sqrt(1.0 - fid), abs=1e-12)

    def test_high_energy_trend(self):
        nb = 0.4
        limit = np.sqrt(nb / (nb + 1.0))
        dists = [bnd.gaussian_c_distance(chn.thermal(0.8, nb), chn.thermal(0.8, 0.0), ns)
                 for ns in (1.0, 10.0, 100.0, 1000.0)]
        assert all(a < b for a, b in zip(dists, dists[1:]))
        assert all(d < limit for d in dists)
        assert limit - dists[-1] < 1e-3

    def test_demo_pair_rises_to_its_limit(self):
        # demo 05's pair, below the energies where float64 loses the
        # covariance (the C-distance fails from ns ~ 1e7)
        nb = 0.4
        limit = np.sqrt(nb / (nb + 1.0))
        a, b = chn.thermal(0.8, nb), chn.thermal(0.8, 0.0)
        grid = np.r_[0.0, np.geomspace(1e-3, 1e5, 81)]
        dists = np.array([bnd.gaussian_c_distance(a, b, float(ns)) for ns in grid])
        assert np.all(np.diff(dists) >= 0.0)
        assert np.all(dists <= limit + 1e-12)
        assert limit - bnd.gaussian_c_distance(a, b, 1e4) < 1e-4

    @pytest.mark.parametrize("ns", [1e7, 1e8])
    def test_probe_beyond_float64_is_refused(self, ns):
        # the TMS probe's covariance is too ill-conditioned for its spectrum
        # check: at 1e7 the distance read 0.2116 below its 0.2196 at 1e6
        a, b = chn.thermal(0.8, 0.5), chn.thermal(0.8, 1.0)
        assert 0.2195 < bnd.gaussian_c_distance(a, b, 1e6) < 0.2197
        with pytest.raises(InvalidStateError, match="ill-conditioned"):
            bnd.gaussian_c_distance(a, b, ns)


class TestBoundResult:
    def test_json_fields(self):
        r = bnd.q_u1(chn.thermal(0.8, 0.2), 1.0)
        d = r.to_dict()
        assert set(d) == {"kind", "value_bits", "raw_bits", "arg_opt", "params"}
        assert d["kind"] == "QU1"
        assert d["value_bits"] == r.value
        assert d["arg_opt"] is None

    def test_argopt_recorded(self):
        r = bnd.q_u2(chn.thermal(0.75, 0.3), 2.0)
        assert r.argopt is not None
        eps = chn.epsilon_degradable(chn.thermal(0.75, 0.3)).epsilon
        assert eps < r.argopt <= 1.0
        assert r.params["eps"] == pytest.approx(eps)


@pytest.mark.parametrize("call", [
    lambda: bnd.q_u2(chn.thermal(0.3, 0.5), 1.0),  # fails its eta >= 1/2 check
    lambda: bnd.q_u2(chn.thermal(0.9, 0.5), 1.0, eps_prime=0.01),  # eps' below eps
    lambda: bnd.evaluate("QX", chn.thermal(0.9, 0.5), 1.0),  # unknown kind
    lambda: bnd.evaluate("QU1", chn.thermal(0.9, 0.5), 1.0, 0.5),  # eps' on an unpenalized kind
    lambda: bnd.q_u1(chn.thermal(0.9, 0.5), "1"),
    lambda: bnd.q_u2(chn.thermal(0.9, 0.5), 1.0, eps_prime="abc"),
    lambda: bnd.q_u2(chn.additive_noise(0.3), 1.0),  # no QU2 form for the channel kind
    lambda: bnd.q_lower_thermal(0.8, 0.5, 1e200),  # nan raw bits: _result's DomainError
    lambda: bnd.q_u1(chn.thermal(0.9, 0.5), 10 ** 400),  # an int beyond float64
], ids=["regime_check", "bad_fixed_eps_prime", "unknown_kind", "eps_prime_not_penalized",
        "ns_not_real", "eps_prime_not_real", "no_form", "nan_raw", "ns_overflow"])
def test_raised_error_leaves_no_reference_cycle(call):
    """With the cyclic collector off, a bound's error dies with its handler:
    no frame that its traceback holds keeps a reference to it."""
    enabled = collector.isenabled()
    collector.disable()
    try:
        try:
            call()
        except BosonicBoundsError as exc:
            ref = weakref.ref(exc)
        assert ref() is None
    finally:
        if enabled:
            collector.enable()


# one fault of each kind per argument, and the valid value: kind (unknown,
# not penalized, penalized), channel (no QU2/QL form, infeasible regime),
# ns (not real, negative, nan, nan raw bits for QL) and a fixed eps' (not
# real, below eps)
FAULT_KINDS = ["QX", "QU1", "QL", "QU2"]
FAULT_CHANNELS = [chn.thermal(0.9, 0.5), chn.additive_noise(0.3), chn.thermal(0.3, 0.5)]
FAULT_NS = [1.0, "1", -1.0, math.nan, 1e200]
FAULT_EPS_PRIMES = [None, 0.5, 0.01, "abc"]


def _outcome(call):
    """A call's (error class, message), or its BoundResult as a dict."""
    try:
        cell = call()
    except BosonicBoundsError as exc:
        return type(exc), str(exc)
    if isinstance(cell, BosonicBoundsError):
        return type(cell), str(cell)
    return cell.to_dict()


def test_evaluate_reports_the_one_cell_columns_first_error():
    """evaluate raises the error that the same cell reports in a one-cell
    column (evaluate_columns, or with a fixed eps' its core), whichever
    faults the call combines: the same class, message and order."""
    seen = set()
    for kind in FAULT_KINDS:
        for ch in FAULT_CHANNELS:
            for ns in FAULT_NS:
                for e in FAULT_EPS_PRIMES:
                    got = _outcome(lambda: bnd.evaluate(kind, ch, ns, e))
                    want = _outcome(lambda: bnd._columns((kind,), [ch], [ns], e)[0][0])
                    assert got == want, (kind, ch, ns, e)
                    if e is None:
                        assert _outcome(lambda: bnd.evaluate_columns((kind,), [ch], [ns])[0][0]) == want
                    seen.add(got[0] if isinstance(got, tuple) else bnd.BoundResult)
    assert seen == {DomainError, ChannelKindError, InfeasibleBoundError, bnd.BoundResult}
