import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonic_bounds import gaussian_core as gc
from bosonic_bounds.errors import (
    DomainError,
    InvalidChannelError,
    InvalidStateError,
)

# frozen via 40-digit evaluation of the closed forms
G_HALF = 1.377443751081734272181
H2_011 = 0.4999159581645279956405


class TestEntropyFunctions:
    def test_g_values(self):
        assert gc.g_entropy(0.0) == 0.0
        assert gc.g_entropy(1.0) == pytest.approx(2.0, abs=1e-14)
        assert gc.g_entropy(0.5) == pytest.approx(G_HALF, abs=1e-14)

    def test_g_clamps_tiny_negative(self):
        assert gc.g_entropy(-1e-13) == 0.0

    def test_g_domain_error(self):
        with pytest.raises(DomainError):
            gc.g_entropy(-1e-6)

    def test_g_series_branch_continuous(self):
        # series region must join the closed form smoothly
        lo, hi = 0.99e-8, 1.01e-8
        exact = lambda x: (x + 1) * np.log2(x + 1) - x * np.log2(x)
        assert gc.g_entropy(lo) == pytest.approx(exact(lo), rel=1e-12)
        assert gc.g_entropy(hi) == pytest.approx(exact(hi), rel=1e-12)

    def test_g_array(self):
        out = gc.g_entropy(np.array([0.0, 1.0, 0.5]))
        assert out == pytest.approx([0.0, 2.0, G_HALF], abs=1e-14)

    def test_h2_values(self):
        assert gc.binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
        assert gc.binary_entropy(0.0) == 0.0
        assert gc.binary_entropy(1.0) == 0.0
        assert gc.binary_entropy(0.11) == pytest.approx(H2_011, abs=1e-14)

    @pytest.mark.parametrize("x", [-0.01, 1.01])
    def test_h2_domain_error(self, x):
        with pytest.raises(DomainError):
            gc.binary_entropy(x)

    def test_g_monotone_concave_on_grid(self):
        xs = np.linspace(0.0, 100.0, 1000)
        ys = gc.g_entropy(xs)
        assert np.all(np.diff(ys) > 0)
        assert np.all(np.diff(ys, 2) < 1e-12)


# zero, a subnormal, each side of the 1e-8 series cutoff, and large x
G_FLOAT_POINTS = [0.0, 5e-324, 2.5e-310, float(np.nextafter(1e-8, 0.0)), 1e-8,
                  float(np.nextafter(1e-8, 1.0)), 1.0, 1e8, 1e15]


class TestGNatsFloatCase:
    """On floats, _g_nats computes what the array path computes, bit for
    bit, so a closed form gives one cell the bits of its column element."""

    @pytest.mark.parametrize("x", G_FLOAT_POINTS)
    def test_float_matches_array_bit_for_bit(self, x):
        got = gc._g_nats(x)
        assert type(got) is float
        assert got.hex() == float(gc._g_nats(np.array([x]))[0]).hex()

    def test_float_matches_array_over_the_range(self):
        # libm's log1p (more rarely its log) differs from numpy's in the last
        # bit on some of these: the float case must call numpy's kernels
        xs = np.geomspace(1e-300, 1e15, 6001)
        got = [gc._g_nats(float(x)).hex() for x in xs]
        assert got == [float(v).hex() for v in gc._g_nats(xs)]

    @pytest.mark.parametrize("x", [-1e-300, -1.0, -math.inf, math.nan])
    def test_negative_and_nan_give_zero(self, x):
        assert gc._g_nats(x) == 0.0
        assert gc._g_nats(np.array([x]))[0] == 0.0

    @pytest.mark.parametrize("x", [1e307, 1e308, math.inf])
    def test_overflow_raises_nothing_on_floats(self, x):
        with np.errstate(all="ignore"):
            want = gc._g_nats(np.array([x]))[0]
        assert math.isnan(want)
        assert math.isnan(gc._g_nats(x))  # no OverflowError, no warning


class TestStates:
    def test_vacuum_spectrum(self):
        assert gc.symplectic_eigenvalues(gc.vacuum_state(1)) == pytest.approx([1.0])

    def test_thermal_spectrum(self):
        st_ = gc.thermal_state(2.0)
        assert gc.symplectic_eigenvalues(st_) == pytest.approx([5.0])

    def test_tms_pure_spectrum(self):
        nus = gc.symplectic_eigenvalues(gc.tms_state(1.0))
        assert nus == pytest.approx([1.0, 1.0], abs=1e-10)

    @pytest.mark.parametrize("n", [1e4, 1e5, 1e6])
    def test_large_tms_spectrum_uses_the_state_floor(self, n):
        # GaussianState accepts the state: it applies the floor relative to
        # the largest covariance entry, and its spectrum sits above it
        state = gc.tms_state(n)
        nus = gc.symplectic_eigenvalues(state)
        floor = gc._nu_floor(state.cov)
        assert floor == 1.0 - gc.NU_FLOOR * float(np.max(np.abs(state.cov)))
        assert min(nus) >= floor
        assert nus == pytest.approx([1.0, 1.0], abs=1e-9 * (2 * n + 1))

    def test_spectrum_default_floor_is_absolute(self):
        # below unit scale the floor is 1 - 1e-9, not relative to the entries
        state = gc.GaussianState(1, np.zeros(2), (1.0 - 0.5e-9) * np.eye(2))
        assert gc._nu_floor(state.cov) == 1.0 - gc.NU_FLOOR
        assert min(gc.symplectic_eigenvalues(state)) >= 1.0 - gc.NU_FLOOR
        with pytest.raises(InvalidStateError):
            gc.GaussianState(1, np.zeros(2), (1.0 - 2e-9) * np.eye(2))

    def test_entropies(self):
        assert gc.gaussian_entropy(gc.vacuum_state(1)) == 0.0
        assert gc.gaussian_entropy(gc.thermal_state(1.0)) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("n", [0.0, 0.3, 1.0, 7.5])
    def test_tms_reduction_is_thermal(self, n):
        red = gc.reduce_state(gc.tms_state(n), (0,))
        assert gc.gaussian_entropy(red) == pytest.approx(gc.g_entropy(n), abs=1e-10)
        assert gc.mean_photon_number(red) == pytest.approx(n, abs=1e-10)

    def test_tms_cov_entries(self):
        st_ = gc.tms_state(1.0)
        assert st_.cov[0, 1] == pytest.approx(2.0 * np.sqrt(2.0))
        assert st_.cov[2, 3] == pytest.approx(-2.0 * np.sqrt(2.0))
        assert np.allclose(gc.tms_state(0.0).cov, np.eye(4))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.0, max_value=100.0))
    def test_tms_purity_property(self, n):
        assert abs(gc.gaussian_entropy(gc.tms_state(n))) < 1e-9

    def test_asymmetric_cov_rejected(self):
        cov = np.eye(2)
        cov[0, 1] = 1e-6
        with pytest.raises(InvalidStateError):
            gc.GaussianState(1, np.zeros(2), cov)

    def test_unphysical_cov_rejected(self):
        with pytest.raises(InvalidStateError):
            gc.GaussianState(1, np.zeros(2), 0.5 * np.eye(2))

    def test_immutable(self):
        st_ = gc.vacuum_state(1)
        with pytest.raises(ValueError):
            st_.cov[0, 0] = 3.0


class TestFidelity:
    def test_identity(self):
        a = gc.tms_state(0.7)
        assert gc.two_mode_fidelity(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_product_thermal_vs_vacuum(self):
        a = gc.thermal_state(1.0, modes=2)
        b = gc.vacuum_state(2)
        assert gc.two_mode_fidelity(a, b) == pytest.approx(0.25, abs=1e-12)

    def test_mixed_pair_against_series_oracle(self):
        # independent oracle: both states diagonal in the number basis, so
        # ||sqrt(rho) sqrt(sigma)||_1 = sum_n sqrt(p_n q_n), a geometric series
        def fid1(n1, n2):
            r = np.sqrt(n1 * n2 / ((n1 + 1) * (n2 + 1)))
            return (1.0 / (np.sqrt((n1 + 1) * (n2 + 1)) * (1 - r))) ** 2

        a = gc.GaussianState(2, np.zeros(4), np.diag([2.0, 5.0, 2.0, 5.0]))
        b = gc.GaussianState(2, np.zeros(4), np.diag([4.0, 1.4, 4.0, 1.4]))
        want = fid1(0.5, 1.5) * fid1(2.0, 0.2)  # modewise pairing
        assert want == pytest.approx(0.545423747656228093376, abs=1e-15)  # frozen
        assert gc.two_mode_fidelity(a, b) == pytest.approx(want, abs=1e-12)

    def test_symmetry_and_strictness(self):
        a = gc.tms_state(0.9)
        cov = a.cov.copy()
        cov[0, 0] += 0.05
        cov[2, 2] += 0.05
        b = gc.GaussianState(2, np.zeros(4), cov)
        f_ab = gc.two_mode_fidelity(a, b)
        assert f_ab == pytest.approx(gc.two_mode_fidelity(b, a), abs=1e-12)
        assert f_ab < 1.0 - 1e-6

    def test_mean_displacement_factor(self):
        # coherent state vs vacuum: F = exp(-|alpha|^2), mu = sqrt(2) alpha
        a = gc.GaussianState(2, np.array([np.sqrt(2.0), 0, 0, 0]), np.eye(4))
        b = gc.vacuum_state(2)
        assert gc.two_mode_fidelity(a, b) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_requires_two_modes(self):
        with pytest.raises(DomainError):
            gc.two_mode_fidelity(gc.vacuum_state(1), gc.vacuum_state(1))


class TestChannelAction:
    def test_identity_channel(self):
        st_ = gc.tms_state(1.3)
        out = gc.apply_gaussian_channel(np.eye(4), np.zeros((4, 4)), None, st_)
        assert np.allclose(out.cov, st_.cov)
        assert np.allclose(out.mean, st_.mean)

    def test_vacuum_to_thermal_like(self):
        eta, nb = 0.7, 0.4
        X = np.sqrt(eta) * np.eye(2)
        Y = (1 - eta) * (2 * nb + 1) * np.eye(2)
        out = gc.apply_gaussian_channel(X, Y, None, gc.vacuum_state(1))
        assert np.allclose(out.cov, (eta + (1 - eta) * (2 * nb + 1)) * np.eye(2))

    def test_subset_application_leaves_other_modes(self):
        eta, nb, ns = 0.7, 0.3, 2.0
        st_ = gc.tms_state(ns)
        X = np.sqrt(eta) * np.eye(2)
        Y = (1 - eta) * (2 * nb + 1) * np.eye(2)
        out = gc.apply_gaussian_channel(X, Y, None, st_, modes=(1,))
        assert out.cov[0, 0] == pytest.approx(st_.cov[0, 0])  # mode 0 untouched
        n_out = gc.mean_photon_number(gc.reduce_state(out, (1,)))
        assert n_out == pytest.approx(eta * ns + (1 - eta) * nb, abs=1e-12)

    def test_invalid_channel_rejected(self):
        # amplification without added noise violates the PSD condition
        with pytest.raises(InvalidChannelError):
            gc.apply_gaussian_channel(np.sqrt(2.0) * np.eye(2), np.zeros((2, 2)),
                                      None, gc.vacuum_state(1))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.3, 1.0), st.floats(0.0, 2.0), st.floats(1.0, 2.5),
           st.floats(0.0, 2.0), st.floats(0.0, 5.0))
    def test_composition_law(self, eta, nb1, g, nb2, ns):
        st_ = gc.thermal_state(ns)
        X1 = np.sqrt(eta) * np.eye(2)
        Y1 = (1 - eta) * (2 * nb1 + 1) * np.eye(2)
        X2 = np.sqrt(g) * np.eye(2)
        Y2 = (g - 1) * (2 * nb2 + 1) * np.eye(2)
        step = gc.apply_gaussian_channel(
            X2, Y2, None, gc.apply_gaussian_channel(X1, Y1, None, st_))
        once = gc.apply_gaussian_channel(X2 @ X1, X2 @ Y1 @ X2.T + Y2, None, st_)
        assert np.max(np.abs(step.cov - once.cov)) < 1e-10


class TestSymplecticBuilders:
    def test_beamsplitter_identity(self):
        assert np.allclose(gc.beamsplitter_symplectic("B", 1.0), np.eye(4))

    @pytest.mark.parametrize("kind,t", [("B", 0.5), ("B", 0.25), ("Bprime", 1 / 3),
                                        ("Bprime", 0.8)])
    def test_beamsplitter_symplectic_condition(self, kind, t):
        S = gc.beamsplitter_symplectic(kind, t)
        O = gc.omega(2)
        assert np.max(np.abs(S @ O @ S.T - O)) < 1e-12

    def test_bprime_entry_pattern(self):
        # transmissivity (1-eta)/eta at eta = 0.75
        S = gc.beamsplitter_symplectic("Bprime", 1.0 / 3.0)
        assert S[0, 0] == pytest.approx(np.sqrt(1.0 / 3.0))
        assert S[0, 1] == pytest.approx(np.sqrt(2.0 / 3.0))
        assert S[1, 0] == pytest.approx(-np.sqrt(2.0 / 3.0))

    def test_beamsplitter_domain(self):
        with pytest.raises(DomainError):
            gc.beamsplitter_symplectic("B", 1.2)
        with pytest.raises(DomainError):
            gc.beamsplitter_symplectic("X", 0.5)

    def test_squeezer_identity_and_domain(self):
        assert np.allclose(gc.two_mode_squeezer_symplectic(1.0), np.eye(4))
        with pytest.raises(DomainError):
            gc.two_mode_squeezer_symplectic(0.9)

    def test_squeezer_symplectic_condition(self):
        S = gc.two_mode_squeezer_symplectic(2.0)
        O = gc.omega(2)
        assert np.max(np.abs(S @ O @ S.T - O)) < 1e-12

    def test_squeezer_on_vacuum_gives_tms(self):
        S = gc.two_mode_squeezer_symplectic(2.0)
        out = S @ np.eye(4) @ S.T
        for mode in (0, 1):
            red = gc.reduce_state(gc.GaussianState(2, np.zeros(4), out), (mode,))
            assert gc.mean_photon_number(red) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out, gc.tms_state(1.0).cov, atol=1e-12)

    @pytest.mark.parametrize("build,one,params", [
        (lambda x: gc._beamsplitters("B", x), lambda x: gc.beamsplitter_symplectic("B", x),
         [0.0, 0.2, 0.5, 1.0]),
        (lambda x: gc._beamsplitters("Bprime", x),
         lambda x: gc.beamsplitter_symplectic("Bprime", x), [0.0, 1 / 3, 1.0]),
        (gc._squeezers, gc.two_mode_squeezer_symplectic, [1.0, 1.5, 4.0]),
    ], ids=["B", "Bprime", "squeezer"])
    def test_stack_matches_one_matrix(self, build, one, params):
        stack = build(np.array(params))
        assert stack.shape == (len(params), 4, 4)
        assert np.array_equal(stack, np.stack([one(x) for x in params]))

    @pytest.mark.parametrize("build,params", [
        (lambda x: gc._beamsplitters("B", x), [0.5, 1.2, 0.3]),
        (lambda x: gc._beamsplitters("Bprime", x), [0.5, -0.1]),
        (gc._squeezers, [1.5, 0.9, 2.0]),
        (gc._squeezers, [1.5, np.nan]),
    ], ids=["B", "Bprime", "squeezer", "squeezer-nan"])
    def test_one_bad_parameter_fails_the_stack(self, build, params):
        with pytest.raises(DomainError):
            build(np.array(params))

    def test_stack_symplecticity_is_checked_per_element(self):
        S = np.stack([np.eye(4), 2.0 * np.eye(4)])
        with pytest.raises(DomainError, match="not symplectic"):
            gc._checked_symplectic(S)
        assert np.array_equal(gc._checked_symplectic(S[:1]), S[:1])

    def test_embed_and_tms_blocks_take_stacks(self):
        S = gc._squeezers(np.array([1.5, 2.0]))
        full = gc.embed_matrix(S, (1, 2), 3)
        for Sk, fk in zip(S, full):
            assert np.array_equal(fk, gc.embed_matrix(Sk, (1, 2), 3))
        q, p = gc.tms_qblocks(np.array([0.0, 1.5]))
        assert np.array_equal(q[1], gc.tms_qblocks(1.5)[0])
        assert np.array_equal(p[1], gc.tms_qblocks(1.5)[1])
        with pytest.raises(DomainError):
            gc.tms_qblocks(np.array([1.0, -0.5]))
