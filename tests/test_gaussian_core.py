import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonic_bounds import gaussian_core as gc
from bosonic_bounds.errors import (
    BosonicBoundsError,
    DomainError,
    InvalidChannelError,
    InvalidStateError,
    SingularMatrixError,
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
        got = gc._g_nats(x)  # no OverflowError, no warning
        # the array path's value, NaN matching NaN, whatever value the kernel gives
        assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want))
        if x == math.inf:
            assert math.isnan(got)  # inf - inf


class TestStates:
    def test_vacuum_spectrum(self):
        assert gc.symplectic_eigenvalues(gc.vacuum_state(1)) == pytest.approx([1.0])

    def test_thermal_spectrum(self):
        st_ = gc.thermal_state(2.0)
        assert gc.symplectic_eigenvalues(st_) == pytest.approx([5.0])

    @pytest.mark.parametrize("nbar", [math.nan, math.inf, -math.inf])
    def test_non_finite_thermal_occupation_rejected(self, nbar):
        with pytest.raises(DomainError, match=f"non-finite {nbar}"):
            gc.thermal_state(nbar)

    @pytest.mark.parametrize("nbar", [1e308, 1.7e308])
    def test_thermal_occupation_with_infinite_variance_rejected(self, nbar):
        # finite nbar, but 2 nbar + 1 overflows
        with pytest.raises(DomainError, match=re.escape(f"number {nbar} must be >= 0 with 2 nbar + 1 "
                                                         "finite; got non-finite inf")):
            gc.thermal_state(nbar)

    def test_thermal_state_near_the_float_limit_is_accepted(self):
        assert gc.symplectic_eigenvalues(gc.thermal_state(1e307, modes=2)) == (2e307, 2e307)

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

    @pytest.mark.parametrize("n", [3e6, 1e7, 1e8, 1e10])
    def test_ill_conditioned_tms_rejected(self, n):
        # eps cond(V) exceeds the floor's slack: the spectrum's roundoff could
        # pass the floor with a wrong value (1e7 read 0.24 bits, not 0).  At
        # 1e10 the uncapped slack, 20, let a singular float matrix through
        # (17.1 bits for a pure state); capped at 1/2 it does not
        with pytest.raises(InvalidStateError, match="ill-conditioned for float64: eps cond"):
            gc.tms_state(n)

    def test_ill_conditioned_state_beyond_a_squared_float_rejected(self):
        # (max L_ii / min L_ii)^2 = 1e310 overflows; the guard compares unsquared
        with pytest.raises(InvalidStateError, match="eps cond.V. >= 2.22045e.294"):
            gc.GaussianState(1, np.zeros(2), np.diag([1e300, 1e-10]))

    def test_large_thermal_state_has_its_entropy(self):
        # a thermal state's Cholesky factor is diagonal: no conditioning loss
        state = gc.thermal_state(1e7, modes=2)
        assert gc.gaussian_entropy(state) == pytest.approx(2.0 * gc.g_entropy(1e7), rel=1e-15, abs=0.0)

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

    # a mode count that is not a positive integer is caught before any array
    # is built from it, not left to numpy's shape errors
    @pytest.mark.parametrize("make", [
        lambda: gc.GaussianState(1.5, np.zeros(3), np.eye(3)),
        lambda: gc.vacuum_state(-1),
        lambda: gc.thermal_state(1.0, modes=-1),
        lambda: gc.vacuum_state(1.5),
        # beyond numpy's array size, caught before numpy's bare ValueError
        lambda: gc.vacuum_state(10 ** 400),
        lambda: gc.thermal_state(0.5, 10 ** 400),
        lambda: gc.GaussianState(10 ** 400, np.zeros(2), np.eye(2)),
        lambda: gc.vacuum_state(True),  # a bool is no count, though Python's bool is an int
    ], ids=["state_fractional", "vacuum_negative", "thermal_negative", "vacuum_fractional",
            "vacuum_huge", "thermal_huge", "state_huge", "vacuum_bool"])
    def test_bad_mode_count_rejected(self, make):
        with pytest.raises(InvalidStateError, match="mode count must be a positive integer"):
            make()

    @pytest.mark.parametrize("mean,cov,message", [
        (np.zeros(3), np.eye(2), r"mean must have shape \(2,\), got \(3,\)"),
        (np.zeros(2), np.eye(3), r"cov must have shape \(2,2\), got \(3, 3\)"),
    ], ids=["mean", "cov"])
    def test_wrong_shape_rejected(self, mean, cov, message):
        with pytest.raises(InvalidStateError, match=message):
            gc.GaussianState(1, mean, cov)

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


def _physical_covs(rng, m, n):
    """n random covariances of m modes, I + B B^T, which obey the
    uncertainty principle as I + i Omega >= 0; shape (n, 2m, 2m)."""
    B = rng.normal(size=(n, 2 * m, 2 * m)) * rng.uniform(0.1, 3.0, (n, 1, 1))
    return np.eye(2 * m) + B @ np.swapaxes(B, -1, -2)


class TestSpectrumRoute:
    """The real eigensolve of V Omega against the complex one of i V Omega."""

    @staticmethod
    def complex_route(cov):
        m = cov.shape[-1] // 2
        return np.sort(np.abs(np.linalg.eigvals(1j * cov @ gc.omega(m))), axis=-1)[..., ::2]

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_the_complex_route(self, m):
        covs = _physical_covs(np.random.default_rng(100 + m), m, 200)
        stacked = gc._symplectic_eigs(covs)
        want = self.complex_route(covs)
        assert stacked.shape == (200, m)
        assert np.all(np.abs(stacked - want) <= 1e-12 * want)
        for cov, nus in zip(covs, stacked):
            one = gc._symplectic_eigs(cov)
            assert np.all(np.abs(one - self.complex_route(cov)) <= 1e-12 * one)
            assert np.array_equal(one, nus)  # the stack keeps each matrix's bits

    def test_pure_and_thermal_spectra(self):
        covs = np.stack([gc.tms_state(n).cov for n in (0.0, 0.3, 7.5)]
                        + [gc.thermal_state(n, modes=2).cov for n in (0.0, 0.3, 7.5)])
        want = self.complex_route(covs)
        assert np.all(np.abs(gc._symplectic_eigs(covs) - want) <= 1e-12 * want)


class TestCheckedCov:
    def test_stack_equals_the_states(self):
        covs = _physical_covs(np.random.default_rng(5), 2, 30)
        states = [gc.GaussianState(2, np.zeros(4), V) for V in covs]
        assert np.array_equal(gc._checked_cov(covs), np.stack([s.cov for s in states]))

    @pytest.mark.parametrize("bad", [0.5 * np.eye(4), np.diag([1.0, np.nan, 1.0, 1.0]),
                                     np.eye(4) + 1e-6 * np.eye(4, k=1)])
    def test_one_bad_matrix_fails_the_stack(self, bad):
        covs = _physical_covs(np.random.default_rng(6), 2, 4)
        covs[2] = bad
        with pytest.raises(InvalidStateError) as one:
            gc.GaussianState(2, np.zeros(4), bad)
        with pytest.raises(InvalidStateError) as stack:
            gc._checked_cov(covs)
        assert str(stack.value) == str(one.value)

    # VΩ's eigenvalues of these have the moduli of a physical state's (-I
    # those of the vacuum, diag(2, -2) those of a thermal state with
    # N = 1/2), so only positive definiteness rules them out
    @pytest.mark.parametrize("bad", [-np.eye(2), -np.eye(4), np.diag([2.0, -2.0])],
                             ids=["minus_identity_1mode", "minus_identity_2modes", "diag_2_minus_2"])
    def test_not_positive_definite_rejected(self, bad):
        m = len(bad) // 2
        with pytest.raises(InvalidStateError, match="not positive definite"):
            gc.GaussianState(m, np.zeros(2 * m), bad)

    def test_not_positive_definite_fails_the_stack(self):
        covs = _physical_covs(np.random.default_rng(7), 2, 4)
        covs[1] = -np.eye(4)
        with pytest.raises(InvalidStateError, match="not positive definite"):
            gc._checked_cov(covs)
        gc._checked_cov(np.delete(covs, 1, axis=0))  # the others pass


class TestUncheckedSpectrum:
    def test_non_positive_definite_marginal_is_a_package_error(self):
        V = np.diag([1.0, 2.0, -1.0, 3.0])  # mode 0's marginal is diag(1, -1)
        with pytest.raises(BosonicBoundsError, match="not positive definite"):
            gc._entropy_from_cov(V, (0,))
        with pytest.raises(BosonicBoundsError, match="not positive definite"):
            gc._symplectic_eigs(np.stack([np.eye(2), np.diag([1.0, -1.0])]))

    def test_positive_definiteness_is_checked_before_the_floor(self):
        # below the floor and not positive definite: the factor fails first
        with pytest.raises(InvalidStateError, match="not positive definite"):
            gc.GaussianState(1, np.zeros(2), np.diag([0.5, -0.5]))
        with pytest.raises(InvalidStateError, match="not positive definite"):
            gc._checked_cov(np.stack([0.5 * np.eye(2), -np.eye(2)]))


class TestOneModeCholesky:
    """One-mode covariances, one or a stack, are factored elementwise in LAPACK's
    own steps: the factor equals np.linalg.cholesky's bit for bit, NaN positions
    and zero signs included, and it raises where LAPACK raises."""

    # each entry of the edge matrices takes every one of these values
    EDGES = [0.0, -0.0, 1.0, -1.0, 2.0, 1e300, -1e300, 1e-300, 5e-324, np.inf, -np.inf, np.nan]

    @staticmethod
    def assert_same_bits(got, want):
        assert np.array_equal(got, want, equal_nan=True)  # NaN positions included
        assert np.array_equal(np.signbit(got) & ~np.isnan(got), np.signbit(want) & ~np.isnan(want))

    def test_seeded_stack_equals_lapack_without_calling_it(self, monkeypatch):
        rng = np.random.default_rng(2024)
        n = 200_000
        v00, v11 = np.exp(rng.uniform(-30.0, 30.0, (2, n)))
        V = np.empty((n, 2, 2))
        V[:, 0, 0], V[:, 1, 1] = v00, v11
        V[:, 1, 0] = rng.uniform(-1.0, 1.0, n) * np.sqrt(v00 * v11)
        V[:, 0, 1] = rng.normal(size=n)  # the upper triangle, which neither reads
        want = np.linalg.cholesky(V)
        monkeypatch.setattr(np.linalg, "cholesky", None)
        self.assert_same_bits(gc._cholesky(V), want)

    def test_edge_matrices_equal_lapack(self):
        raised = 0
        for v00, v10, v11 in itertools.product(self.EDGES, repeat=3):
            V = np.array([[v00, 7.0], [v10, v11]])
            try:
                want = np.linalg.cholesky(V)
            except np.linalg.LinAlgError:
                raised += 1
                with pytest.raises(InvalidStateError, match="not positive definite"):
                    gc._cholesky(V)
            else:
                self.assert_same_bits(gc._cholesky(V), want)
        assert 0 < raised < len(self.EDGES) ** 3


class TestStackedFidelity:
    def test_stack_equals_the_one_pair_calls(self):
        rng = np.random.default_rng(9)
        mixed = _physical_covs(rng, 2, 40)
        pure = np.stack([gc.tms_state(n).cov for n in rng.uniform(0.0, 5.0, 40)])
        covs = np.concatenate([mixed, pure])
        means = rng.normal(size=(80, 4)) * (rng.uniform(size=(80, 1)) < 0.5)
        states = [gc.GaussianState(2, mu, V) for mu, V in zip(means, covs)]
        order = rng.permutation(80)
        got = gc._fidelity(covs, covs[order], means, means[order])
        want = [gc.two_mode_fidelity(a, states[k]) for a, k in zip(states, order)]
        assert got.shape == (80,)
        assert [float(f).hex() for f in got] == [f.hex() for f in want]

    @staticmethod
    def one_pair(V1, V2):
        """The one-pair formula of two_mode_fidelity for zero means, on
        numpy scalars: the reference the stacked core keeps bit for bit."""
        Om = gc.omega(2)
        if abs(np.linalg.det(V1) - 1.0) <= 1e-8 or abs(np.linalg.det(V2) - 1.0) <= 1e-8:
            return min(1.0, 4.0 / np.sqrt(np.linalg.det(V1 + V2)))
        delta = np.linalg.det(V1 + V2) / 16.0
        gamma = np.real(np.linalg.det(Om @ V1 @ Om @ V2 - np.eye(4))) / 16.0
        lam = np.real(np.linalg.det(V1 + 1j * Om) * np.linalg.det(V2 + 1j * Om)) / 16.0
        sg, sl = np.sqrt(max(gamma, 0.0)), np.sqrt(max(lam, 0.0))
        return min(1.0, 1.0 / (sg + sl - np.sqrt(max((sg + sl) ** 2 - delta, 0.0))))

    def test_stack_keeps_the_one_pair_formula_bits(self):
        # (sg + sl) ** 2 on a numpy scalar is libm pow, which differs from
        # the square in the last bit for some pairs (here pair 965), and the
        # determinant form's cancellation enlarges that difference
        rng = np.random.default_rng(77)
        B = np.stack([rng.normal(size=(2, 4, 4)) * rng.uniform(0.05, 3.0, (2, 1, 1))
                      for _ in range(1000)])
        V = np.eye(4) + B @ np.swapaxes(B, -1, -2)
        V[::7, 0] = np.stack([gc.tms_state(n).cov for n in rng.uniform(0.0, 5.0, len(V[::7]))])
        got = gc._fidelity(V[:, 0], V[:, 1])
        want = [self.one_pair(V1, V2) for V1, V2 in V]
        assert [float(f).hex() for f in got] == [float(f).hex() for f in want]

    @pytest.mark.parametrize("V1,V2,message", [
        (np.eye(4), -np.eye(4), "non-finite determinant"),  # pure branch
        (2.0 * np.eye(4), -2.0 * np.eye(4), "degenerate denominator"),  # mixed branch
    ])
    def test_one_bad_pair_fails_the_stack(self, V1, V2, message):
        good = gc.tms_state(1.0).cov
        with pytest.raises(SingularMatrixError, match=message):
            gc._fidelity(V1, V2)
        with pytest.raises(SingularMatrixError, match=message):
            gc._fidelity(np.stack([good, V1, good]), np.stack([good, V2, good]))


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

    # a fractional index was truncated to the mode below it, and a bool read as 0 or 1
    @pytest.mark.parametrize("modes", [(2,), (-1,), (1, 1), (0.7,), (np.float64(1.0),), ("0",), (True,)],
                             ids=["range", "negative", "repeat", "fractional", "numpy_float", "str", "bool"])
    def test_bad_mode_indices_are_domain_errors(self, modes):
        k = 2 * len(modes)
        with pytest.raises(DomainError, match="mode indices"):
            gc.apply_gaussian_channel(np.eye(k), np.zeros((k, k)), None, gc.tms_state(1.0),
                                      modes=modes)
        with pytest.raises(DomainError, match="mode indices"):
            gc._apply(np.eye(k), np.zeros((k, k)), gc.tms_state(1.0).cov, np.zeros(4), modes)

    @pytest.mark.parametrize("call,message", [
        (lambda: gc.embed_matrix(np.eye(4), (0,), 2), r"matrix shape \(4, 4\) does not match 1 modes"),
        (lambda: gc.apply_gaussian_channel(np.eye(3), np.eye(3), None, gc.vacuum_state(1)),
         "X must have even dimensions"),
        (lambda: gc.apply_gaussian_channel(np.eye(2), np.eye(4), None, gc.vacuum_state(1)),
         "Y shape does not match X output dimension"),
        (lambda: gc.apply_gaussian_channel(np.zeros((2, 4)), np.eye(2), None, gc.tms_state(1.0),
                                           modes=(0,)),
         "subset application requires square X on the given modes"),
        (lambda: gc.apply_gaussian_channel(np.eye(4), np.zeros((4, 4)), None, gc.vacuum_state(1)),
         "X input dimension does not match the state"),
    ], ids=["embed", "odd_X", "Y_shape", "subset_not_square", "X_input"])
    def test_shape_mismatch_is_a_domain_error(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()

    def test_reduce_state_rejects_bad_mode_indices(self):
        for modes in [(2,), (-1,), (0, 0), (0.5,), ("0",)]:
            with pytest.raises(DomainError, match="mode indices"):
                gc.reduce_state(gc.tms_state(1.0), modes)

    def test_displacement_lands_on_the_given_modes(self):
        out = gc.apply_gaussian_channel(np.eye(2), np.zeros((2, 2)), [0.5, -0.25],
                                        gc.tms_state(1.0), modes=(1,))
        assert out.mean.tolist() == [0.0, 0.5, 0.0, -0.25]

    @pytest.mark.parametrize("modes", [None, (1,)], ids=["all", "mode1"])
    def test_output_covariance_is_checked_once(self, monkeypatch, modes):
        st_ = gc.tms_state(1.3)
        k = 4 if modes is None else 2
        X, Y = np.sqrt(0.7) * np.eye(k), 0.3 * 1.4 * np.eye(k)
        d = np.linspace(-0.5, 0.5, k)
        cov, mean = gc._apply(X, Y, st_.cov, st_.mean, modes)
        mean[slice(None) if modes is None else [1, 3]] += d
        want = gc.GaussianState(2, mean, cov)  # the checking constructor
        calls = []
        check = gc._checked_cov
        monkeypatch.setattr(gc, "_checked_cov", lambda cov: calls.append(cov) or check(cov))
        out = gc.apply_gaussian_channel(X, Y, d, st_, modes)
        assert len(calls) == 1
        assert out.modes == want.modes
        assert out.cov.tobytes() == want.cov.tobytes()
        assert out.mean.tobytes() == want.mean.tobytes()
        assert not (out.cov.flags.writeable or out.mean.flags.writeable)

    def test_output_errors_are_unchanged(self):
        st_ = gc.tms_state(1.3)
        with pytest.raises(InvalidStateError) as want:
            gc.GaussianState(2, [np.nan, 0.0, 0.0, 0.0], st_.cov)
        with pytest.raises(InvalidStateError) as got:  # a non-finite displacement
            gc.apply_gaussian_channel(np.eye(2), np.zeros((2, 2)), [np.inf, 0.0], st_, (1,))
        assert str(got.value) == str(want.value) == "state data must be finite"
        with pytest.raises(InvalidChannelError) as got:
            gc.apply_gaussian_channel(np.sqrt(2.0) * np.eye(2), np.zeros((2, 2)), None, st_, (0,))
        assert str(got.value) == "channel PSD condition fails: min eigenvalue -1.000e+00 < -1e-08"


def _random_channels(rng, m, n):
    """n random channels on m modes, X = sqrt(t) S for a random symplectic S
    and Y = |1 - t| (2 nb + 1) I, so Y + i(Omega - X Omega X^T) >= 0."""
    if m == 1:
        th, r = rng.uniform(0.0, np.pi, n), rng.uniform(-1.0, 1.0, n)
        c, s, z = np.cos(th), np.sin(th), np.zeros(n)
        S = gc._mat2(c, -s, s, c) @ gc._mat2(np.exp(r), z, z, np.exp(-r))
    else:
        S = gc.two_mode_squeezer_symplectic(rng.uniform(1.0, 3.0, n)) @ \
            gc.beamsplitter_symplectic("B", rng.uniform(0, 1, n))
    t, nb = rng.uniform(0.2, 3.0, n), rng.uniform(0.0, 2.0, n)
    eye = np.eye(2 * m)
    return np.sqrt(t)[:, None, None] * S, (np.abs(1.0 - t) * (2.0 * nb + 1.0))[:, None, None] * eye


class TestStackedChannelAction:
    """gaussian_core._apply over stacks against one-state apply_gaussian_channel calls."""

    @pytest.mark.parametrize("modes", [None, (1,)], ids=["all", "mode1"])
    def test_stack_equals_one_state_calls(self, modes):
        rng = np.random.default_rng(21)
        n = 40
        covs = gc._checked_cov(_physical_covs(rng, 2, n))
        means = rng.normal(size=(n, 4))
        X, Y = _random_channels(rng, 2 if modes is None else 1, n)
        cov, mean = gc._apply(X, Y, covs, means, modes)
        assert cov.shape == (n, 4, 4) and mean.shape == (n, 4)
        for k in range(n):
            one = gc.apply_gaussian_channel(X[k], Y[k], None, gc.GaussianState(2, means[k], covs[k]),
                                            modes)
            assert cov[k].tobytes() == one.cov.tobytes()
            assert mean[k].tobytes() == one.mean.tobytes()

    def test_one_channel_broadcasts_over_a_state_stack(self):
        rng = np.random.default_rng(22)
        covs = gc._checked_cov(_physical_covs(rng, 2, 10))
        X, Y = _random_channels(rng, 1, 1)
        cov, mean = gc._apply(X[0], Y[0], covs, np.zeros(4), (0,))
        for Vk, out in zip(covs, cov):
            one = gc.apply_gaussian_channel(X[0], Y[0], None, gc.GaussianState(2, np.zeros(4), Vk),
                                            (0,))
            assert out.tobytes() == one.cov.tobytes()
        assert mean.shape == (4,)

    def test_first_bad_channel_fails_the_stack(self):
        X = np.stack([np.eye(2), 1.5 * np.eye(2), 2.0 * np.eye(2)])  # gain without noise
        Y = np.zeros((3, 2, 2))
        with pytest.raises(InvalidChannelError) as one:
            gc.apply_gaussian_channel(X[1], Y[1], None, gc.vacuum_state(1))
        with pytest.raises(InvalidChannelError) as stack:
            gc._apply(X, Y, np.eye(2), np.zeros(2))
        assert str(stack.value) == str(one.value)
        assert "-1.250e+00" in str(one.value)  # the second channel, not the third (-3)

    @pytest.mark.parametrize("bad", [0.1, np.nan])
    def test_first_bad_output_fails_the_stack(self, bad):
        X, Y = np.sqrt(0.5) * np.eye(2), 0.5 * np.eye(2)
        covs = np.stack([np.eye(2), bad * np.eye(2), 0.2 * np.eye(2)])
        with pytest.raises(InvalidStateError) as one:
            gc.GaussianState(1, np.zeros(2), X @ covs[1] @ X.T + Y)
        with pytest.raises(InvalidStateError) as stack:
            gc._apply(X, Y, covs, np.zeros(2))
        assert str(stack.value) == str(one.value)


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

    @pytest.mark.parametrize("build,params", [
        (lambda x: gc.beamsplitter_symplectic("B", x), [0.0, 0.2, 0.5, 1.0]),
        (lambda x: gc.beamsplitter_symplectic("Bprime", x), [0.0, 1 / 3, 1.0]),
        (gc.two_mode_squeezer_symplectic, [1.0, 1.5, 4.0]),
    ], ids=["B", "Bprime", "squeezer"])
    def test_stack_matches_one_matrix(self, build, params):
        stack = build(np.array(params))
        assert stack.shape == (len(params), 4, 4)
        assert np.array_equal(stack, np.stack([build(x) for x in params]))

    @pytest.mark.parametrize("build,params", [
        (lambda x: gc.beamsplitter_symplectic("B", x), [0.5, 1.2, 0.3]),
        (lambda x: gc.beamsplitter_symplectic("Bprime", x), [0.5, -0.1]),
        (gc.two_mode_squeezer_symplectic, [1.5, 0.9, 2.0]),
        (gc.two_mode_squeezer_symplectic, [1.5, np.nan]),
    ], ids=["B", "Bprime", "squeezer", "squeezer-nan"])
    def test_one_bad_parameter_fails_the_stack(self, build, params):
        with pytest.raises(DomainError):
            build(np.array(params))

    # the product S Omega S^T is off by about G eps from Omega here, which a
    # self-check at an absolute 1e-10 rejected from G = 1e6
    @pytest.mark.parametrize("G", [1e6, 1e8, 1e12])
    def test_squeezer_at_large_gain_is_its_formula(self, G):
        s, r = np.sqrt(G), np.sqrt(G - 1.0)
        want = np.array([[s, r, 0, 0], [r, s, 0, 0], [0, 0, s, -r], [0, 0, -r, s]])
        assert np.array_equal(gc.two_mode_squeezer_symplectic(G), want)

    def test_squeezer_rejects_an_infinite_gain(self):
        with pytest.raises(DomainError, match="finite"):
            gc.two_mode_squeezer_symplectic(np.array([2.0, np.inf]))

    def test_embed_and_tms_blocks_take_stacks(self):
        S = gc.two_mode_squeezer_symplectic(np.array([1.5, 2.0]))
        full = gc.embed_matrix(S, (1, 2), 3)
        for Sk, fk in zip(S, full):
            assert np.array_equal(fk, gc.embed_matrix(Sk, (1, 2), 3))
        q, p = gc.tms_qblocks(np.array([0.0, 1.5]))
        assert np.array_equal(q[1], gc.tms_qblocks(1.5)[0])
        assert np.array_equal(p[1], gc.tms_qblocks(1.5)[1])
        with pytest.raises(DomainError):
            gc.tms_qblocks(np.array([1.0, -0.5]))

    def test_tms_blocks_are_the_noisy_blocks_at_x_1(self):
        # tms_qblocks is noisy_tms_qblocks(n, 1.0); the factors 1.0 are exact,
        # so the blocks keep the bits of d = 2n + 1 and c = 2 sqrt(n(n+1))
        n = np.geomspace(1e-9, 1e9, 999)
        d, c = 2.0 * n + 1.0, 2.0 * np.sqrt(n * (n + 1.0))
        q, p = gc.tms_qblocks(n)
        assert np.array_equal(q, gc._mat2(d, c, c, d)) and np.array_equal(p, gc._mat2(d, -c, -c, d))

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_tms_blocks_are_float64_for_any_dtype(self, dtype):
        n = np.array([0.1, 3.0, 70.0], dtype=dtype)  # 0.1 rounds in either dtype
        for got, want in zip(gc.tms_qblocks(n), gc.tms_qblocks(n.astype(float))):
            assert got.dtype == np.float64 and np.array_equal(got, want)
        for got, want in zip(gc.tms_qblocks(n[0]), gc.tms_qblocks(float(n[0]))):
            assert got.dtype == np.float64 and np.array_equal(got, want)

    def test_noisy_blocks_broadcast_a_scalar_against_an_array(self):
        # either argument may be the array: each stack element is the call on
        # that element's pair, bit for bit
        nb, x = np.array([0.0, 0.3, 7.5]), np.array([0.5, 0.8, 2.0])
        for args, pairs in [((0.3, x), [(0.3, xi) for xi in x.tolist()]),
                            ((nb, 0.8), [(ni, 0.8) for ni in nb.tolist()])]:
            q, p = gc.noisy_tms_qblocks(*args)
            assert q.shape == p.shape == (3, 2, 2)
            for qk, pk, pair in zip(q, p, pairs):
                q1, p1 = gc.noisy_tms_qblocks(*pair)
                assert np.array_equal(qk, q1) and np.array_equal(pk, p1)

    def test_noisy_blocks_of_unequal_shapes_are_a_domain_error(self):
        with pytest.raises(DomainError, match=r"broadcast together, got shapes \(2,\), \(3,\)"):
            gc.noisy_tms_qblocks(np.full(2, 0.3), np.full(3, 0.8))
