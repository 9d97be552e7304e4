import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonic_bounds import bounds as bnd
from bosonic_bounds import channels as chn
from bosonic_bounds import gaussian_core as gc
from bosonic_bounds import verify as vfy
from bosonic_bounds.errors import (
    ChannelKindError,
    DomainError,
    InfeasibleBoundError,
    InvalidChannelError,
    InvalidStateError,
)

EPS_DEG_075_05 = 0.3803362222154039858821  # frozen 40-digit evaluation


class TestConstructors:
    def test_thermal(self):
        ch = chn.thermal(0.6, 1.0)
        assert ch.tau == pytest.approx(0.6)
        assert ch.nu == pytest.approx(1.2)

    def test_amplifier_quantum_limited(self):
        ch = chn.amplifier(2.0, 0.0)
        assert (ch.tau, ch.nu) == (2.0, 1.0)

    def test_additive(self):
        ch = chn.additive_noise(0.5)
        assert (ch.tau, ch.nu) == (1.0, 1.0)

    def test_make_channel_dispatch(self):
        assert chn.make_channel("thermal", eta=0.7, nb=0.2).kind == "thermal"
        assert chn.make_channel("amplifier", g=1.5, nb=0.0).kind == "amplifier"
        assert chn.make_channel("additive", nbar=0.3).kind == "additive"
        # nb and other parameters a kind does not take are ignored here
        assert chn.make_channel("additive", nbar=0.3, nb=0.5) == chn.additive_noise(0.3)
        assert chn.make_channel("raw", tau=0.5, nu=0.7) == chn.raw_channel(0.5, 0.7)
        with pytest.raises(ChannelKindError):
            chn.make_channel("squeezer", r=1.0)

    @pytest.mark.parametrize("kind,given,missing", [
        ("thermal", {"nb": 0.1}, "eta"),
        ("amplifier", {"nb": 0.1}, "g"),
        ("additive", {}, "nbar"),
    ])
    def test_make_channel_names_missing_parameter(self, kind, given, missing):
        with pytest.raises(DomainError, match=missing):
            chn.make_channel(kind, **given)

    @pytest.mark.parametrize("bad", [lambda: chn.thermal(0.0, 1.0),
                                     lambda: chn.thermal(1.2, 0.0),
                                     lambda: chn.thermal(0.5, -0.1),
                                     lambda: chn.amplifier(0.9, 0.0),
                                     lambda: chn.additive_noise(0.0)])
    def test_parameter_domain(self, bad):
        with pytest.raises(DomainError):
            bad()

    def test_raw_cptp_violation(self):
        with pytest.raises(InvalidChannelError):
            chn.raw_channel(0.5, 0.1)  # nu^2 < (1-tau)^2

    def test_channel_action_matches_tau_nu(self):
        ch = chn.thermal(0.7, 0.3)
        out = ch.apply(gc.thermal_state(2.0))
        assert np.allclose(out.cov, (ch.tau * 5.0 + ch.nu) * np.eye(2))

    @pytest.mark.parametrize("call,error,message", [
        (lambda: chn.thermal(0.7, 0.2).apply(gc.tms_state(1.0)), DomainError,
         "specify `modes` when acting on a multimode state"),
        (lambda: chn.EpsilonReport(1.5, None, "m"), DomainError, r"epsilon must lie in \[0, 1\]"),
        (lambda: chn.EpsilonReport(0.2, 0.5, "m"), DomainError, "lower bound exceeds upper bound"),
        (lambda: chn.epsilon_degradable(chn.amplifier(1.0, 0.3)), DomainError,
         "requires amplifier gain > 1"),
        (lambda: chn.epsilon_degradable(chn.additive_noise(0.5)), ChannelKindError,
         "applies to thermal or amplifier channels"),
        (lambda: chn.noisy_tms_qblocks(0.1, 0.3), DomainError, "noisy TMS needs x >= 1/2"),
        (lambda: chn.degrading_simulation_check(chn.thermal(0.8, 0.5),
                                                np.array([[1.0, np.nan], [np.nan, 1.0]])),
         InvalidStateError, "input q-block must be a finite 2x2 matrix"),
    ], ids=["apply_multimode", "eps_range", "eps_lower", "eps_unit_gain", "eps_additive",
            "tms_x", "qblock_nan"])
    def test_error_names_its_cause(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    @pytest.mark.parametrize("modes", [(2,), (-1,), (0.7,)], ids=["range", "negative", "fractional"])
    def test_channel_action_rejects_bad_mode_indices(self, modes):
        with pytest.raises(DomainError, match="mode indices"):
            chn.thermal(0.7, 0.2).apply(gc.tms_state(1.0), modes=modes)


class TestFloat64Parameters:
    """A numpy float32 or float16 parameter computes in float64: each result
    equals, by .hex(), the one from the same value as a Python float, and a
    Python float keeps its bits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    @pytest.mark.parametrize("make,args", [(chn.thermal, (0.8, 0.3)), (chn.amplifier, (1.7, 0.3)),
                                           (chn.additive_noise, (0.3,))],
                             ids=["thermal", "amplifier", "additive"])
    def test_constructors_store_python_floats(self, dtype, make, args):
        low = [dtype(a) for a in args]
        got, want = make(*low), make(*map(float, low))
        assert all(type(v) is float for v in got.params.values())
        assert [v.hex() for v in got.params.values()] == [v.hex() for v in want.params.values()]
        assert (got.tau.hex(), got.nu.hex()) == (want.tau.hex(), want.nu.hex())

    @pytest.mark.parametrize("make,x", [(chn.thermal, 0.8), (chn.amplifier, 1.7)],
                             ids=["thermal", "amplifier"])
    def test_epsilon_of_float32_parameters(self, make, x):
        low = np.float32(x), np.float32(0.3)
        got = chn.epsilon_degradable(make(*low)).epsilon
        assert got.hex() == chn.epsilon_degradable(make(*map(float, low))).epsilon.hex()

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_close_degradable_eps_of_float32(self, dtype):
        low = dtype(0.3)
        got, want = chn.epsilon_close_degradable(low), chn.epsilon_close_degradable(float(low))
        assert (got.epsilon.hex(), got.lower.hex()) == (want.epsilon.hex(), want.lower.hex())

    @pytest.mark.parametrize("at", [0, 1, 2], ids=["epsilon", "epsilon_prime", "w_prime"])
    def test_penalty_of_a_float32_field(self, at):
        low = [0.1, 0.5, 0.3]
        low[at] = np.float32(low[at])
        got, want = bnd.PenaltyParams(*low), bnd.PenaltyParams(*map(float, low))
        assert all(type(v) is float for v in (got.epsilon, got.epsilon_prime, got.w_prime))
        assert bnd.penalty(got).hex() == bnd.penalty(want).hex()

    def test_kappa_of_float32_is_a_python_float(self):
        low = np.float32(0.8), np.float32(0.3)
        got = chn.kappa(*low)
        assert type(got) is float and got.hex() == chn.kappa(*map(float, low)).hex()

    def test_noisy_tms_blocks_of_float32_are_float64(self):
        low = np.array([0.3, 2.5], dtype=np.float32), np.array([0.8, 1.7], dtype=np.float32)
        for got, want in zip(chn.noisy_tms_qblocks(*low), chn.noisy_tms_qblocks(*(v.astype(float) for v in low))):
            assert got.dtype == np.float64 and np.array_equal(got, want)
        for got, want in zip(chn.noisy_tms_qblocks(low[0][0], low[1][0]),
                             chn.noisy_tms_qblocks(float(low[0][0]), float(low[1][0]))):
            assert got.dtype == np.float64 and np.array_equal(got, want)

    def test_python_floats_keep_their_bits(self):
        ch = chn.thermal(0.8, 0.3)
        assert [v.hex() for v in ch.params.values()] == [(0.8).hex(), (0.3).hex()]
        assert ch.nu.hex() == ((1.0 - 0.8) * (2.0 * 0.3 + 1.0)).hex()
        # the public call keeps the bits of the formula on the same Python floats
        assert chn.kappa(0.8, 0.3).hex() == chn._kappa(0.8, 0.3).hex()


class TestEntanglementBreaking:
    def test_additive_boundary(self):
        assert chn.is_entanglement_breaking(chn.additive_noise(1.0))  # nu = tau + 1
        assert not chn.is_entanglement_breaking(chn.additive_noise(0.99))

    @pytest.mark.parametrize("g,nb", [(2.0, 1.0), (3.0, 0.5), (1.5, 2.0)])
    def test_amplifier_condition(self, g, nb):
        # (g-1) nb >= 1 is exactly nu >= tau + 1
        assert chn.is_entanglement_breaking(chn.amplifier(g, nb)) == ((g - 1) * nb >= 1)

    @pytest.mark.parametrize("eta,nb", [(0.3, 1.0), (0.5, 1.0), (0.5, 0.9),
                                        (0.2, 0.3), (0.9, 5.0)])
    def test_thermal_condition(self, eta, nb):
        # nu >= tau + 1 reduces to eta <= nb/(nb+1)
        assert chn.is_entanglement_breaking(chn.thermal(eta, nb)) == (eta <= nb / (nb + 1))


class TestDecompositions:
    def test_loss_then_amp_pure_loss(self):
        d = chn.decompose_loss_then_amp(chn.thermal(0.8, 0.0))
        assert d.second.params["g"] == pytest.approx(1.0)
        assert d.first.params["eta"] == pytest.approx(0.8)

    def test_loss_then_amp_values(self):
        d = chn.decompose_loss_then_amp(chn.thermal(0.5, 1.0))
        assert d.second.params["g"] == pytest.approx(1.5)
        assert d.first.params["eta"] == pytest.approx(1.0 / 3.0)

    def test_loss_then_amp_kind_check(self):
        with pytest.raises(ChannelKindError):
            chn.decompose_loss_then_amp(chn.additive_noise(0.5))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.01, 1.0), st.floats(0.0, 5.0))
    def test_loss_then_amp_recomposes(self, eta, nb):
        ch = chn.thermal(eta, nb)
        re = chn.decompose_loss_then_amp(ch).recompose()
        assert abs(re.tau - ch.tau) < 1e-12
        assert abs(re.nu - ch.nu) < 1e-12 * max(1.0, ch.nu)

    def test_amp_then_loss_thermal(self):
        eta, nb = 0.8, 0.5
        d = chn.decompose_amp_then_loss(chn.thermal(eta, nb))
        assert d.second.params["eta"] == pytest.approx(eta - (1 - eta) * nb)
        assert d.first.params["g"] > 1.0

    def test_amp_then_loss_additive(self):
        d = chn.decompose_amp_then_loss(chn.additive_noise(0.5))
        assert d.second.params["eta"] == pytest.approx(0.5)
        assert d.first.params["g"] == pytest.approx(2.0)

    def test_amp_then_loss_clamps_eta_at_one(self):
        # nu lies 1e-13 below |1 - tau|, inside the CPTP tolerance, so
        # eta = (tau + 1 - nu)/2 is 1 + 5e-14: the loss stage is pure_loss(1)
        ch = chn.raw_channel(1.5, 0.5 - 1e-13)
        d = chn.decompose_amp_then_loss(ch)
        assert d.second == chn.pure_loss(1.0)
        re = d.recompose()
        assert abs(re.tau - ch.tau) < 1e-12 * ch.tau
        assert abs(re.nu - ch.nu) < 1e-12

    def test_amp_then_loss_entanglement_breaking(self):
        with pytest.raises(InfeasibleBoundError):
            chn.decompose_amp_then_loss(chn.thermal(0.5, 2.0))  # nu=2.5 >= 1.5

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.1, 3.0), st.floats(0.0, 3.0))
    def test_amp_then_loss_recomposes(self, tau, nu_frac):
        # draw a valid non-EB channel: nu in [|1-tau|, tau+1)
        lo, hi = abs(1.0 - tau), tau + 1.0
        nu = lo + nu_frac / 3.0 * (hi - lo) * 0.999
        ch = chn.raw_channel(tau, nu)
        if chn.is_entanglement_breaking(ch):
            return
        re = chn.decompose_amp_then_loss(ch).recompose()
        assert abs(re.tau - ch.tau) < 1e-12 * max(1.0, tau)
        assert abs(re.nu - ch.nu) < 1e-12 * max(1.0, ch.nu)


class TestEpsilons:
    def test_eps_degradable_zero_noise(self):
        assert chn.epsilon_degradable(chn.thermal(0.75, 0.0)).epsilon == 0.0

    def test_eps_degradable_eta_one(self):
        assert chn.epsilon_degradable(chn.thermal(1.0, 2.0)).epsilon == pytest.approx(0.0, abs=1e-12)

    def test_eps_degradable_frozen_value(self):
        rep = chn.epsilon_degradable(chn.thermal(0.75, 0.5))
        assert rep.epsilon == pytest.approx(EPS_DEG_075_05, abs=1e-14)
        assert rep.lower is None

    def test_eps_degradable_matches_fidelity_route(self):
        eta, nb = 0.75, 0.5
        tms = gc.tms_state(nb)
        oq, op = chn.noisy_tms_qblocks(nb, eta)
        cov = np.zeros((4, 4))
        cov[:2, :2] = oq
        cov[2:, 2:] = op
        fid = gc.two_mode_fidelity(tms, gc.GaussianState(2, np.zeros(4), cov))
        assert chn.epsilon_degradable(chn.thermal(eta, nb)).epsilon == \
            pytest.approx(np.sqrt(1 - fid), abs=1e-10)

    def test_eps_degradable_domain(self):
        with pytest.raises(DomainError):
            chn.epsilon_degradable(chn.thermal(0.4, 0.5))

    def test_eps_degradable_monotone_in_nb(self):
        for eta in (0.6, 0.8, 0.95):
            eps = [chn.epsilon_degradable(chn.thermal(eta, nb)).epsilon
                   for nb in np.linspace(0.0, 4.0, 30)]
            assert all(a <= b + 1e-12 for a, b in zip(eps, eps[1:]))
            assert eps[0] == 0.0

    def test_eps_close_degradable(self):
        rep = chn.epsilon_close_degradable(0.0)
        assert (rep.epsilon, rep.lower) == (0.0, 0.0)
        assert chn.epsilon_close_degradable(1.0).epsilon == pytest.approx(0.5)
        assert chn.epsilon_close_degradable(3.0).lower == pytest.approx(0.5)


class TestDegradingSimulation:
    def test_zero_noise_reduces_to_pure_loss(self):
        q = np.array([[2.0, 0.5], [0.5, 3.0]])
        A, B = chn.degrading_simulation_check(chn.thermal(0.8, 0.0), q)
        assert np.max(np.abs(A - B)) < 1e-12
        # with nb = 0 both environments are vacuum
        assert A[2, 2] == pytest.approx(1.0)
        assert A[1, 2] == pytest.approx(0.0)

    def test_matches_explicit_closed_form(self):
        a, c, b = 3.0, 1.2, 2.0
        eta, nb = 0.75, 0.5
        A, B = chn.degrading_simulation_check(chn.thermal(eta, nb), np.array([[a, c], [c, b]]))
        want = np.array([
            [a, c * np.sqrt(1 - eta), 0.0],
            [c * np.sqrt(1 - eta), b + eta * (1 - b + 2 * nb),
             2 * np.sqrt(nb * (1 + nb) * (2 - 1 / eta))],
            [0.0, 2 * np.sqrt(nb * (1 + nb) * (2 - 1 / eta)), 2 * nb + 1],
        ])
        assert np.max(np.abs(A - want)) < 1e-12
        assert np.max(np.abs(B - want)) < 1e-12

    def test_half_transmissivity_kills_offdiagonal(self):
        q = gc.tms_qblocks(1.0)[0]
        A, B = chn.degrading_simulation_check(chn.thermal(0.5, 0.7), q)
        assert A[1, 2] == pytest.approx(0.0, abs=1e-12)
        assert B[1, 2] == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.5, 1.0), st.floats(0.0, 3.0),
           st.floats(0.0, np.pi), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    def test_routes_agree(self, eta, nb, th, d1, d2):
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        q = R @ np.diag([1.0 + d1, 1.0 + d2]) @ R.T
        A, B = chn.degrading_simulation_check(chn.thermal(eta, nb), q)
        assert np.max(np.abs(A - B)) < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1.000001, 3.0), st.floats(0.0, 3.0), st.floats(0.0, 5.0))
    def test_amp_routes_agree(self, g, nb, d1):
        q = np.diag([1.0 + d1, 1.5])
        A, B = chn.degrading_simulation_check(chn.amplifier(g, nb), q)
        assert np.max(np.abs(A - B)) < 1e-10

    def test_p_block_route_carries_sign_flips(self):
        # momentum blocks of both routes agree and equal the q-block answer
        # with the documented off-diagonal sign flips
        q = np.array([[2.5, 0.8], [0.8, 1.7]])
        ch = chn.thermal(0.8, 0.6)
        Vd, Vs = chn._deg_sim_routes(*chn._channel_params(ch), q)
        assert np.max(np.abs(Vd - Vs)) < 1e-10
        qblk, pblk = Vd[:3, :3], Vd[3:, 3:]
        signs = np.sign(qblk * pblk)
        offdiag = ~np.eye(3, dtype=bool) & (np.abs(qblk) > 1e-12)
        assert np.all(signs[offdiag] == -1.0)
        assert np.allclose(np.abs(pblk), np.abs(qblk), atol=1e-12)

    def test_invalid_block_rejected(self):
        ch = chn.thermal(0.8, 0.5)
        with pytest.raises(InvalidStateError):
            chn.degrading_simulation_check(ch, np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(InvalidStateError):
            chn.degrading_simulation_check(ch, np.array([[1.0, 2.0], [2.0, -1.0]]))

    @pytest.mark.parametrize("odd", [chn.additive_noise(0.3), chn.amplifier(1.5, 0.5)],
                             ids=["additive", "mixed"])
    def test_invalid_block_is_reported_before_the_column(self, odd):
        # the q-block is checked first: a bad block with a bad column is an InvalidStateError
        column, q = [chn.thermal(0.8, 0.5), odd], np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(InvalidStateError):
            chn.degrading_simulation_check(column, np.stack([q, q]))


STACK_CHANNELS = [chn.thermal(0.8, 0.6), chn.amplifier(1.7, 0.4)]
CHANNEL_KINDS = pytest.mark.parametrize("kind", ["thermal", "amplifier"])


def _random_stack(seed, n=20):
    rng = np.random.default_rng(seed)
    return np.stack([vfy.random_single_mode_cov(rng.uniform(0.0, 10.0), rng)
                     for _ in range(n)])


def _column(rng, kind, n=20):
    """Parameter arrays (x, nb) of n channels of `kind`, each row's x then nb
    drawn as scalar rng.uniform calls draw them, as the oracle suite passes
    them to the dilation cores."""
    return vfy._uniform_rows(rng, n, (0.5, 1.0) if kind == "thermal" else (1.001, 3.0), (0.0, 3.0))


def _embedded_dilation(input_cov, pairs, steps, modes=None):
    """The dilation with each step embedded into the identity on all modes and
    applied as a full product, S_full V S_full^T, then the marginal on
    `modes`: the reference for the steps that touch only their two modes'
    rows and columns and for the marginal built from its rows alone."""
    covs = np.asarray(input_cov, dtype=float)
    a = covs.shape[-1] // 2 - 1
    m = a + 1 + 2 * len(pairs)
    batch = np.broadcast_shapes(covs.shape[:-2], *(np.shape(x)[:-2] for x, _ in [*pairs, *steps]))
    V = np.zeros(batch + (2 * m, 2 * m))
    idx = gc._block_index(range(a + 1), m)
    V[..., idx[:, None], idx] = covs
    for k, (q, p) in enumerate(pairs):
        gc._place_pair(V, a + 1 + 2 * k, q, p)
    for S, (i, j) in steps:
        Sf = gc.embed_matrix(S, (a + i, a + j), m)
        V = Sf @ V @ np.swapaxes(Sf, -1, -2)
    idx = gc._block_index(range(m) if modes is None else modes, m)
    return V[..., idx[:, None], idx]


# each route's array core, and a named marginal of it with its modes out of ascending order
MARGINALS = {chn._degrading: ("E1p", "G", "refs", "E2p"), chn._simulating: ("E1", "refs", "B")}
ROUTES = pytest.mark.parametrize("route", list(MARGINALS), ids=["degrading", "simulating"])


class TestLocalDilationSteps:
    @CHANNEL_KINDS
    @ROUTES
    def test_matches_the_embedded_product(self, monkeypatch, kind, route):
        rng = np.random.default_rng(9)
        params = (kind, *_column(rng, kind))
        covs = _random_stack(10)
        two_mode = gc._place_pair(np.zeros((20, 4, 4)), 0, *gc.tms_qblocks(rng.uniform(0.0, 30.0, 20)))
        for inputs in (covs, two_mode):
            (got, labels), part = route(*params, inputs), route(*params, inputs, MARGINALS[route])[0]
            monkeypatch.setattr(chn, "_dilation", _embedded_dilation)
            (want, want_labels), want_part = route(*params, inputs), route(*params, inputs, MARGINALS[route])[0]
            monkeypatch.undo()
            assert labels == want_labels
            for g, w in ((got, want), (part, want_part)):
                assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))


class TestDilationMarginals:
    """A named marginal is the same modes of the whole dilation, built alone."""

    @CHANNEL_KINDS
    @ROUTES
    @pytest.mark.parametrize("refs", [0, 1], ids=["no_reference", "reference"])
    def test_marginal_is_the_gathered_modes(self, kind, route, refs):
        rng = np.random.default_rng(19)
        x, nb = _column(rng, kind)
        inputs = _random_stack(20) if refs == 0 else \
            gc._place_pair(np.zeros((20, 4, 4)), 0, *gc.tms_qblocks(rng.uniform(0.0, 30.0, 20)))
        names = MARGINALS[route]
        full, labels = route(kind, x, nb, inputs)
        slots = [i for k in names for i in (labels[k] if k == "refs" else [labels[k]])]
        assert len(slots) == len(names) - 1 + refs and slots != sorted(slots)
        idx = gc._block_index(slots, full.shape[-1] // 2)
        want = full[..., idx[:, None], idx]
        got = route(kind, x, nb, inputs, names)[0]
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        one_each = [route(kind, *p, c, names)[0] for *p, c in zip(x.tolist(), nb.tolist(), inputs)]
        assert np.array_equal(got, np.array(one_each))


class TestDegradingIsometry:
    """The degrading step is a unitary on (B, F) and E'1 purifies F, so
    H(G E'2 E'1), the three-mode marginal of the degrading dilation, is H(B),
    the entropy of the channel output, which the U_D oracle reads instead."""

    @pytest.mark.parametrize("kind,lo,hi", [("thermal", 0.5, 1.0), ("amplifier", 1.001, 3.0)],
                             ids=["thermal", "amplifier"])
    def test_output_entropy_is_the_three_mode_entropy(self, kind, lo, hi):
        rng = np.random.default_rng(31 if kind == "thermal" else 37)
        n = 2000
        x, nb = rng.uniform(lo, hi, n), rng.uniform(0.0, 3.0, n)
        ns = 10.0 ** rng.uniform(-2.0, 2.0, n)
        covs = vfy._single_mode_cov(ns, *vfy._uniform_rows(rng, n, *vfy._COV_DRAWS))
        three = chn._degrading(kind, x, nb, covs, ("G", "E2p", "E1p"))[0]
        assert three.shape == (n, 6, 6)
        out = chn._dilation(covs, [gc.tms_qblocks(nb)], [chn._channel_step(kind, x)], (0,))
        gap = gc._entropy_from_cov(three) - gc._entropy_from_cov(out)
        assert np.max(np.abs(gap)) <= 1e-10


class TestStackedDilations:
    """A stack of input covariances gives the per-element answers."""

    @pytest.mark.parametrize("ch", STACK_CHANNELS, ids=lambda c: c.kind)
    def test_ud_oracle_stack_matches_elements(self, ch):
        covs = _random_stack(3)
        stacked = vfy.ud_oracle(ch, covs)
        assert stacked.shape == (20,)
        single = np.array([vfy.ud_oracle(ch, c) for c in covs])
        assert np.max(np.abs(stacked - single)) < 1e-12

    @pytest.mark.parametrize("ch", STACK_CHANNELS, ids=lambda c: c.kind)
    @pytest.mark.parametrize("route", [chn.degrading_dilation_cov, chn.simulating_channel_cov],
                             ids=["degrading", "simulating"])
    def test_dilation_stack_matches_elements(self, ch, route):
        covs = _random_stack(4)
        V, labels = route(ch, covs)
        assert V.shape[0] == 20
        for c, Vk in zip(covs, V):
            Vs, ls = route(ch, c)
            assert ls == labels
            assert np.max(np.abs(Vk - Vs)) < 1e-12

    @CHANNEL_KINDS
    def test_channel_column_matches_per_channel_calls(self, kind):
        """The array cores, given a column of channel parameters with one
        stacked input each, as the oracle suite calls them, give bit for bit
        what one public call per channel gives."""
        rng = np.random.default_rng(5)
        x, nb = _column(rng, kind)
        make = chn.thermal if kind == "thermal" else chn.amplifier
        column = [make(*p) for p in zip(x.tolist(), nb.tolist())]
        ns = rng.uniform(0.0, 30.0, 20)
        covs = _random_stack(6)
        qs = np.stack([vfy.random_valid_qblock(rng) for _ in range(20)])
        pairs = [
            (vfy._coherent_info(kind, x, nb, ns),
             [vfy.coherent_info_oracle(ch, n) for ch, n in zip(column, ns)]),
            (vfy._ud(kind, x, nb, covs), [vfy.ud_oracle(ch, c) for ch, c in zip(column, covs)]),
        ]
        for core, route in ((chn._degrading, chn.degrading_dilation_cov),
                            (chn._simulating, chn.simulating_channel_cov)):
            V, labels = core(kind, x, nb, covs)
            per_channel = [route(ch, c) for ch, c in zip(column, covs)]
            assert all(ls == labels for _, ls in per_channel)
            pairs.append((V, [Vs for Vs, _ in per_channel]))
        A, B = (V[..., :3, :3] for V in chn._deg_sim_routes(kind, x, nb, chn._validate_qblock(qs)))
        per_channel = [chn.degrading_simulation_check(ch, q) for ch, q in zip(column, qs)]
        pairs += [(A, [a for a, _ in per_channel]), (B, [b for _, b in per_channel])]
        for stacked, single in pairs:
            assert np.array_equal(stacked, np.array(single))

    def test_one_asymmetric_qblock_fails_the_stack(self):
        qs = np.stack([vfy.random_valid_qblock(np.random.default_rng(k)) for k in range(5)])
        qs[3, 0, 1] += 1e-6
        with pytest.raises(InvalidStateError, match="symmetric"):
            chn.degrading_simulation_check(chn.thermal(0.8, 0.5), qs)

    @pytest.mark.parametrize("route", [
        lambda x, nb: chn._degrading("thermal", x, nb, _random_stack(7, 4)),
        lambda x, nb: chn._deg_sim_routes("thermal", x, nb, np.stack([np.eye(2)] * 4)),
    ], ids=["dilation", "check"])
    def test_one_thermal_below_half_fails_the_column(self, route):
        with pytest.raises(DomainError, match="eta in"):
            route(np.array([0.8, 0.8, 0.8, 0.4]), np.full(4, 0.5))

    @pytest.mark.parametrize("odd", [chn.additive_noise(0.3), chn.amplifier(1.5, 0.5)],
                             ids=["additive", "mixed"])
    def test_column_of_other_kinds_is_rejected(self, odd):
        column = [chn.thermal(0.8, 0.5)] * 3 + [odd]
        with pytest.raises(ChannelKindError):
            vfy.ud_oracle(column, _random_stack(8, 4))
        with pytest.raises(ChannelKindError):
            vfy.coherent_info_oracle(column, np.ones(4))
