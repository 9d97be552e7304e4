"""NaN and +-inf inputs raise a named error; none comes back as a number.

Every public bound, every channel constructor, the entropy helpers, `kappa`
and the `bound` command are fed a non-finite value in each numeric argument
in turn.  Finite inputs whose arithmetic overflows either give a finite
bound or raise a named error too.
"""

import contextlib
import json
import math
import warnings

import numpy as np
import pytest

from bosonic_bounds import bounds as bnd
from bosonic_bounds import channels as chn
from bosonic_bounds import cli
from bosonic_bounds import gaussian_core as gc
from bosonic_bounds import optimize as opt
from bosonic_bounds import verify as vfy
from bosonic_bounds.errors import DomainError, InvalidChannelError, InvalidStateError

NONFINITE = [math.nan, math.inf, -math.inf]
TH = chn.thermal(0.9, 0.5)

# (name, callable of the one non-finite argument)
BOUND_CALLS = [
    ("q_lower_thermal.eta", lambda x: bnd.q_lower_thermal(x, 0.5, 1.0)),
    ("q_lower_thermal.nb", lambda x: bnd.q_lower_thermal(0.9, x, 1.0)),
    ("q_lower_thermal.ns", lambda x: bnd.q_lower_thermal(0.9, 0.5, x)),
    ("q_lower_amp.g", lambda x: bnd.q_lower_amp(x, 0.5, 1.0)),
    ("q_lower_amp.nb", lambda x: bnd.q_lower_amp(1.5, x, 1.0)),
    ("q_lower_amp.ns", lambda x: bnd.q_lower_amp(1.5, 0.5, x)),
    ("p_lower_displaced.eta", lambda x: bnd.p_lower_displaced(x, 0.5, 1.0)),
    ("p_lower_displaced.nb", lambda x: bnd.p_lower_displaced(0.9, x, 1.0)),
    ("p_lower_displaced.ns", lambda x: bnd.p_lower_displaced(0.9, 0.5, x)),
    ("gap_qu1_ql.eta", lambda x: bnd.gap_qu1_ql(x, 0.5, 1.0)),
    ("gap_qu1_ql.nb", lambda x: bnd.gap_qu1_ql(0.9, x, 1.0)),
    ("gap_qu1_ql.ns", lambda x: bnd.gap_qu1_ql(0.9, 0.5, x)),
    ("q_u1.ns", lambda x: bnd.q_u1(TH, x)),
    ("q_u2.ns", lambda x: bnd.q_u2(TH, x)),
    ("q_u2.eps_prime", lambda x: bnd.q_u2(TH, 1.0, x)),
    ("q_u3.ns", lambda x: bnd.q_u3(TH, x)),
    ("q_u3.eps_prime", lambda x: bnd.q_u3(TH, 1.0, x)),
    ("q_u4.ns", lambda x: bnd.q_u4(TH, x)),
    ("p_bounds.PU1.ns", lambda x: bnd.p_bounds(TH, x, "PU1")),
    ("p_bounds.PU2.ns", lambda x: bnd.p_bounds(TH, x, "PU2")),
    ("p_bounds.PU3.ns", lambda x: bnd.p_bounds(TH, x, "PU3")),
    ("gaussian_c_distance.ns", lambda x: bnd.gaussian_c_distance(TH, chn.thermal(0.9, 1.0), x)),
    ("PenaltyParams.epsilon", lambda x: bnd.PenaltyParams(x, 0.5, 1.0)),
    ("PenaltyParams.epsilon_prime", lambda x: bnd.PenaltyParams(0.1, x, 1.0)),
    ("PenaltyParams.w_prime", lambda x: bnd.PenaltyParams(0.1, 0.5, x)),
    ("epsilon_close_degradable.nb", lambda x: chn.epsilon_close_degradable(x)),
    # entropy helpers and kappa: a scalar, or one element of an array
    ("g_entropy", lambda x: gc.g_entropy(x)),
    ("g_entropy.array", lambda x: gc.g_entropy([1.0, x])),
    ("binary_entropy", lambda x: gc.binary_entropy(x)),
    ("binary_entropy.array", lambda x: gc.binary_entropy([0.5, x])),
    ("kappa.x", lambda x: chn.kappa(x, 1.0)),
    ("kappa.nb", lambda x: chn.kappa(0.7, x)),
    # the TMS blocks: nb and x must be finite
    ("tms_qblocks.n", lambda x: gc.tms_qblocks(x)),
    ("noisy_tms_qblocks.nb", lambda x: chn.noisy_tms_qblocks(x, 0.8)),
    ("noisy_tms_qblocks.x", lambda x: chn.noisy_tms_qblocks(0.3, x)),
]

# (name, callable, error)
CHANNEL_CALLS = [
    ("thermal.eta", lambda x: chn.thermal(x, 0.5), DomainError),
    ("thermal.nb", lambda x: chn.thermal(0.9, x), DomainError),
    ("pure_loss.eta", lambda x: chn.pure_loss(x), DomainError),
    ("amplifier.g", lambda x: chn.amplifier(x, 0.5), DomainError),
    ("amplifier.nb", lambda x: chn.amplifier(1.5, x), DomainError),
    ("additive_noise.nbar", lambda x: chn.additive_noise(x), DomainError),
    ("make_channel.eta", lambda x: chn.make_channel("thermal", eta=x), DomainError),
    ("make_channel.nb", lambda x: chn.make_channel("amplifier", g=1.5, nb=x), DomainError),
    ("raw_channel.tau", lambda x: chn.raw_channel(x, 1.0), InvalidChannelError),
    ("raw_channel.nu", lambda x: chn.raw_channel(0.5, x), InvalidChannelError),
    ("PhaseInsensitiveChannel.tau",
     lambda x: chn.PhaseInsensitiveChannel(x, 1.0), InvalidChannelError),
    ("PhaseInsensitiveChannel.nu",
     lambda x: chn.PhaseInsensitiveChannel(0.5, x), InvalidChannelError),
]


@pytest.mark.parametrize("x", NONFINITE, ids=str)
@pytest.mark.parametrize("call", [c for _, c in BOUND_CALLS], ids=[n for n, _ in BOUND_CALLS])
def test_bound_rejects(call, x):
    with pytest.raises(DomainError):
        call(x)


@pytest.mark.parametrize("x", NONFINITE, ids=str)
@pytest.mark.parametrize("call,error", [(c, e) for _, c, e in CHANNEL_CALLS],
                         ids=[n for n, _, _ in CHANNEL_CALLS])
def test_channel_rejects(call, error, x):
    with pytest.raises(error):
        call(x)


# (name, callable of the one non-real argument, a valid value there)
_PARABOLA, _SEEDS = (lambda x, a: (x - a) ** 2), np.linspace(0.0, 1.0, 5)[None]
NON_REAL_CALLS = [
    ("thermal.eta", lambda x: chn.thermal(x, 0.3), 0.8),
    ("thermal.nb", lambda x: chn.thermal(0.8, x), 0.3),
    ("amplifier.g", lambda x: chn.amplifier(x, 0.3), 2.0),
    ("amplifier.nb", lambda x: chn.amplifier(2, x), 0.3),
    ("additive_noise.nbar", lambda x: chn.additive_noise(x), 0.3),
    ("kappa.x", lambda x: chn.kappa(x, 0.3), 0.8),
    ("kappa.nb", lambda x: chn.kappa(0.8, x), 0.3),
    ("thermal_state.nbar", lambda x: gc.thermal_state(x), 1.5),
    ("tms_qblocks.n", lambda x: gc.tms_qblocks(x), 1.5),
    ("tms_state.n", lambda x: gc.tms_state(x), 1.5),
    ("noisy_tms_qblocks.nb", lambda x: chn.noisy_tms_qblocks(x, 0.8), 0.3),
    ("noisy_tms_qblocks.x", lambda x: chn.noisy_tms_qblocks(0.3, x), 0.8),
    ("PenaltyParams.epsilon", lambda x: bnd.PenaltyParams(x, 0.5, 1.0), 0.1),
    ("PenaltyParams.epsilon_prime", lambda x: bnd.PenaltyParams(0.1, x, 1.0), 0.5),
    ("PenaltyParams.w_prime", lambda x: bnd.PenaltyParams(0.1, 0.5, x), 1.0),
    ("epsilon_close_degradable.nb", lambda x: chn.epsilon_close_degradable(x), 0.3),
    ("g_entropy", lambda x: gc.g_entropy(x), 1.0),
    ("binary_entropy", lambda x: gc.binary_entropy(x), 0.5),
    ("beamsplitter_symplectic.transmissivity", lambda x: gc.beamsplitter_symplectic("B", x), 0.5),
    ("two_mode_squeezer_symplectic.gain", lambda x: gc.two_mode_squeezer_symplectic(x), 2.0),
    ("raw_channel.tau", lambda x: chn.raw_channel(x, 1.0), 0.5),
    ("raw_channel.nu", lambda x: chn.raw_channel(0.5, x), 1.0),
    ("q_lower_thermal.eta", lambda x: bnd.q_lower_thermal(x, 0.5, 1.0), 0.9),
    ("q_lower_thermal.nb", lambda x: bnd.q_lower_thermal(0.9, x, 1.0), 0.5),
    ("q_lower_amp.g", lambda x: bnd.q_lower_amp(x, 0.5, 1.0), 1.5),
    ("q_lower_amp.nb", lambda x: bnd.q_lower_amp(1.5, x, 1.0), 0.5),
    ("p_lower_displaced.eta", lambda x: bnd.p_lower_displaced(x, 0.5, 1.0), 0.9),
    ("p_lower_displaced.nb", lambda x: bnd.p_lower_displaced(0.9, x, 1.0), 0.5),
    ("gap_qu1_ql.eta", lambda x: bnd.gap_qu1_ql(x, 0.5, 1.0), 0.9),
    ("gap_qu1_ql.nb", lambda x: bnd.gap_qu1_ql(0.9, x, 1.0), 0.5),
    ("minimize_batch.lo", lambda x: opt.minimize_batch(_PARABOLA, x, 1.0, _SEEDS, 0.3), 0.0),
    ("minimize_batch.hi", lambda x: opt.minimize_batch(_PARABOLA, 0.0, x, _SEEDS, 0.3), 1.0),
    ("minimize_batch.row_arg", lambda x: opt.minimize_batch(_PARABOLA, 0.0, 1.0, _SEEDS, x), 0.3),
]
# the rows whose parameter takes arrays; every other row's takes one real scalar
ARRAY_ROWS = {"tms_qblocks.n", "tms_state.n", "noisy_tms_qblocks.nb", "noisy_tms_qblocks.x", "g_entropy",
              "binary_entropy", "beamsplitter_symplectic.transmissivity",
              "two_mode_squeezer_symplectic.gain", "minimize_batch.lo", "minimize_batch.hi",
              "minimize_batch.row_arg"}
SCALAR_CALLS = [row for row in NON_REAL_CALLS if row[0] not in ARRAY_ROWS]
# an int beyond float64's range (1.8e308), of either sign
HUGE_INTS = [pytest.param(lambda v: 10 ** 400, id="10**400"),
             pytest.param(lambda v: -10 ** 400, id="-10**400")]

# A fixed eps', as NON_REAL_CALLS; None is eps_prime's default (minimize over
# eps'), so the makers are str, complex, a one-element list and "abc".  TH's eps
# is 0.135.
NON_REAL_EPS_PRIME_CALLS = [
    ("q_u2.eps_prime", lambda x: bnd.q_u2(TH, 1.0, x), 0.9),
    ("q_u3.eps_prime", lambda x: bnd.q_u3(TH, 1.0, x), 0.9),
    ("p_bounds.PU2.eps_prime", lambda x: bnd.p_bounds(TH, 1.0, "PU2", x), 0.9),
]


@pytest.mark.parametrize("make", [pytest.param(str, id="str"), pytest.param(lambda v: None, id="None"),
                                  pytest.param(complex, id="complex"), *HUGE_INTS])
@pytest.mark.parametrize("call,valid", [(c, v) for _, c, v in NON_REAL_CALLS],
                         ids=[n for n, _, _ in NON_REAL_CALLS])
def test_non_real_parameter_is_a_domain_error(call, valid, make):
    call(valid)
    with pytest.raises(DomainError, match="takes real numbers, got "):
        call(make(valid))


def _with_entry(m, entry):
    """`m` as an object array whose first entry is `entry`."""
    out = np.array(m, dtype=object)
    out.flat[0] = entry
    return out


# (name, callable of the one matrix argument, a valid value there): the public
# entries that take a vector or a matrix; an entry that is not real fails as a
# scalar does, before numpy's bare ValueError or a dropped imaginary part
_Q = np.array([[2.0, 0.5], [0.5, 3.0]])
MATRIX_CALLS = [
    ("GaussianState.mean", lambda m: gc.GaussianState(1, m, np.eye(2)), np.array([0.5, -1.0])),
    ("GaussianState.cov", lambda m: gc.GaussianState(1, np.zeros(2), m), 3.0 * np.eye(2)),
    ("apply_gaussian_channel.X", lambda m: gc.apply_gaussian_channel(m, TH.Y, None, gc.vacuum_state()), TH.X),
    ("apply_gaussian_channel.Y", lambda m: gc.apply_gaussian_channel(TH.X, m, None, gc.vacuum_state()), TH.Y),
    ("apply_gaussian_channel.d", lambda m: gc.apply_gaussian_channel(TH.X, TH.Y, m, gc.vacuum_state()),
     np.array([0.5, -1.0])),
    ("degrading_simulation_check.input_qblock", lambda m: chn.degrading_simulation_check(TH, m), _Q),
    ("degrading_dilation_cov.input_cov", lambda m: chn.degrading_dilation_cov(TH, m), 3.0 * np.eye(2)),
    ("simulating_channel_cov.input_cov", lambda m: chn.simulating_channel_cov(TH, m), 3.0 * np.eye(2)),
    ("ud_oracle.input_cov", lambda m: vfy.ud_oracle(TH, m), 3.0 * np.eye(2)),
]


@pytest.mark.parametrize("make", [pytest.param(lambda m: _with_entry(m, str(m.flat[0])), id="str"),
                                  pytest.param(lambda m: m + 1j * (np.arange(m.size) == 0).reshape(m.shape),
                                               id="complex"),
                                  pytest.param(lambda m: _with_entry(m, None), id="None")])
@pytest.mark.parametrize("call,valid", [(c, v) for _, c, v in MATRIX_CALLS],
                         ids=[n for n, _, _ in MATRIX_CALLS])
def test_non_real_matrix_entry_is_a_domain_error(call, valid, make):
    call(valid)
    with pytest.raises(DomainError, match="takes real numbers, got "):
        call(make(valid))


@pytest.mark.parametrize("call,shape,dtype", [
    (lambda: vfy.ud_oracle(chn.thermal(0.8, 0.5), 1j * np.eye(2)[None].repeat(500, 0)), (500, 2, 2),
     "complex128"),
    (lambda: gc.g_entropy(np.array(["0.5"] * 300)), (300,), "<U3"),
], ids=["complex_stack", "str_array"])
def test_non_real_array_message_is_short(call, shape, dtype):
    # the array by its type, shape and dtype, not by its repr
    with pytest.raises(DomainError, match="takes real numbers, got ") as err:
        call()
    message = str(err.value)
    assert len(message) < 200
    assert f"ndarray of shape {shape} and dtype {dtype}" in message
    assert message.endswith("must hold real numbers")


# the public oracles raise their error with no warning first, under the error
# filter; the private core's products warn first (inf - inf), then its
# spectrum raises
@pytest.mark.parametrize("call,quiet", [
    (lambda: vfy.ud_oracle(chn.thermal(0.8, 0.5), np.full((2, 2), np.inf)), False),
    (lambda: vfy.ud_oracle(chn.thermal(0.8, 0.5), np.full((2, 2), np.nan)), False),
    (lambda: vfy.coherent_info_oracle(chn.thermal(0.8, 0.5), 1e200), False),
    (lambda: vfy.coherent_info_oracle(chn.thermal(0.8, 0.5), 1e300), False),
    (lambda: gc._entropy_from_cov(np.stack([np.eye(2), np.diag([np.inf, 1.0])])), True),
], ids=["ud_oracle_inf", "ud_oracle_nan", "coherent_info_1e200", "coherent_info_1e300", "stack_with_inf"])
def test_nonfinite_covariance_has_no_entropy(call, quiet):
    with np.errstate(invalid="ignore", over="ignore") if quiet else contextlib.nullcontext():
        with pytest.raises(InvalidStateError, match="state data must be finite"):
            call()


@pytest.mark.parametrize("call,valid", [(c, v) for _, c, v in SCALAR_CALLS],
                         ids=[n for n, _, _ in SCALAR_CALLS])
def test_array_at_a_scalar_parameter_is_a_domain_error(call, valid):
    # a 0-d array too: a scalar parameter takes no ndarray
    for array in (np.array([valid, valid]), np.array(valid)):
        with pytest.raises(DomainError, match="takes real numbers, got "):
            call(array)


@pytest.mark.parametrize("make", [pytest.param(str, id="str"), pytest.param(complex, id="complex"),
                                  pytest.param(lambda v: [v], id="list"),
                                  pytest.param(lambda v: "abc", id="abc"), *HUGE_INTS])
@pytest.mark.parametrize("call,valid", [(c, v) for _, c, v in NON_REAL_EPS_PRIME_CALLS],
                         ids=[n for n, _, _ in NON_REAL_EPS_PRIME_CALLS])
def test_non_real_eps_prime_is_a_domain_error(call, valid, make):
    call(valid)
    with pytest.raises(DomainError, match="takes real numbers, got eps_prime="):
        call(make(valid))


# a negative photon number lies outside the TMS blocks' and kappa's domain
@pytest.mark.parametrize("call", [
    lambda: chn.noisy_tms_qblocks(-2.0, 0.8),
    lambda: chn.noisy_tms_qblocks(-0.5, 0.8),
    lambda: chn.kappa(0.8, -2.0),
], ids=["noisy_tms_qblocks-2", "noisy_tms_qblocks-0.5", "kappa-2"])
def test_negative_photon_number_is_a_domain_error(call):
    with pytest.raises(DomainError, match="must be >= 0"):
        call()


# CPTP channels whose nu overflows float64: a DomainError that names the
# overflow, where a raw channel given nu = inf stays an InvalidChannelError
@pytest.mark.parametrize("call", [
    lambda: chn.thermal(0.6, 1e308),
    lambda: chn.amplifier(2.0, 1e308),
    lambda: chn.amplifier(1e308, 1.0),
    lambda: chn.additive_noise(1e308),
], ids=["thermal.nb", "amplifier.nb", "amplifier.g", "additive_noise.nbar"])
def test_overflowing_channel_is_a_domain_error(call):
    with pytest.raises(DomainError, match=r"nu = inf overflows float64"):
        call()


# eta = 1 and g = 1 are the identity channel at any finite nb: nu is exactly
# 0, also where 2 nb + 1 overflows
@pytest.mark.parametrize("make,params", [
    (chn.thermal, {"eta": 1.0, "nb": 1e308}),
    (chn.amplifier, {"g": 1.0, "nb": 1e308}),
], ids=["thermal", "amplifier"])
def test_identity_channel_at_huge_nb_builds(make, params):
    ch = make(*params.values())
    assert (ch.tau, ch.nu, ch.params) == (1.0, 0.0, params)
    assert ch.nu == make(1.0, 1e300).nu


def test_infinite_energy_points_to_the_unconstrained_limits():
    with pytest.raises(DomainError, match="q_u1_unconstrained and q_u4_unconstrained"):
        bnd.q_u1(TH, math.inf)


@pytest.mark.parametrize("ns", ["nan", "inf"])
@pytest.mark.parametrize("kind", cli.BOUND_KINDS)
def test_cli_rejects_nonfinite_ns(capsys, kind, ns):
    code = cli.main(["bound", "--channel", "thermal", "--eta", "0.9", "--nb", "0.5",
                     "--ns", ns, "--bound", kind])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: input mean photon number must be")


@pytest.mark.parametrize("eta,nb", [("nan", "0.5"), ("0.9", "nan")])
def test_cli_rejects_nonfinite_channel_parameter(capsys, eta, nb):
    code = cli.main(["bound", "--channel", "thermal", "--eta", eta, "--nb", nb,
                     "--ns", "1", "--bound", "QL"])
    assert code == 1
    assert capsys.readouterr().out == ""


# Finite energies at which a closed form overflows to NaN or -inf: the cell
# is a DomainError naming the kind and ns, never a value.  The forms warn on
# the way there, which is not what these tests are about.
OVERFLOWING = [
    ("QL", lambda: bnd.q_lower_thermal(0.8, 0.5, 1e200)),
    ("QL", lambda: bnd.q_lower_thermal(0.8, 0.5, 1e160)),
    ("QU2", lambda: bnd.q_u2(chn.thermal(0.8, 0.5), 1e200)),
    ("PL", lambda: bnd.p_lower_displaced(0.8, 0.5, 1e200)),
]


# Finite inputs at which a public call returns NaN today (ROADMAP Q): the g
# kernel's (x+1) ln(x+1) - x ln x evaluates inf - inf, or warns on the way
# under the suite's warning filter.  E2's kernel returns a finite value.
@pytest.mark.xfail(strict=True, raises=(AssertionError, RuntimeWarning),
                   reason="ROADMAP E2: the g kernel overflows at x = 1e307")
@pytest.mark.parametrize("call", [
    lambda: bnd.penalty(bnd.PenaltyParams(0.0, 0.5, 1e307, 1)),
    lambda: gc.g_entropy(1e307),
], ids=["penalty", "g_entropy"])
def test_finite_input_gives_a_finite_value(call):
    assert math.isfinite(call())


# kappa at an nb whose nb(nb+1) overflows: nan at x = 1 (inf * 0), inf in
# the bracket's positive range and -inf where it rounds below 0
@pytest.mark.parametrize("x", [1.0, 0.5, 1.0 - 2.0 ** -53])
def test_overflowing_kappa_names_nb(x):
    with pytest.raises(DomainError, match=r"nb=1e\+200"):
        chn.kappa(x, 1e200)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind,call", OVERFLOWING,
                         ids=["QL-1e200", "QL-1e160", "QU2-1e200", "PL-1e200"])
def test_overflowing_form_is_no_bound(kind, call):
    with pytest.raises(DomainError, match=rf"^{kind} is (nan|-inf) bits at thermal .*ns=1e\+"):
        call()


# no filterwarnings mark: a one-cell call does not warn on its way to the
# error, as a lone search's seed row is its only array step
@pytest.mark.parametrize("kind,call", [
    ("PL", lambda: bnd.p_lower_displaced(0.8, 0.5, 1e160)),
    ("PL", lambda: bnd.p_lower_displaced(0.8, 0.5, 1e200)),
    ("QU2", lambda: bnd.q_u2(chn.thermal(0.8, 0.5), 1e307)),
    ("QU3", lambda: bnd.q_u3(chn.thermal(0.8, 0.5), 1e307)),
    ("PU2", lambda: bnd.p_bounds(chn.thermal(0.8, 0.5), 1e307, "PU2")),
], ids=["PL-1e160", "PL-1e200", "QU2-1e307", "QU3-1e307", "PU2-1e307"])
def test_overflowing_one_cell_search_does_not_warn(kind, call):
    with pytest.raises(DomainError, match=rf"^{kind} is (nan|-inf) bits at thermal .*ns=1e\+"):
        call()


# no filterwarnings mark: the two-mode squeezed vacuum's blocks overflow
# quietly, and the state's check names the overflow
@pytest.mark.parametrize("call", [
    lambda: gc.tms_state(1e200),
    lambda: bnd.gaussian_c_distance(chn.thermal(0.8, 0.5), chn.thermal(0.8, 0.5), 1e160),
], ids=["tms_state-1e200", "gaussian_c_distance-1e160"])
def test_overflowing_tms_is_an_invalid_state_without_a_warning(call):
    with pytest.raises(InvalidStateError, match="state data must be finite"):
        call()


@pytest.mark.parametrize("ns", ["1e200", "1e160"])
def test_cli_overflowing_ql_ends_in_the_error_line(capsys, ns):
    # one QL cell runs its arithmetic on Python floats, which overflow to inf
    # and nan without a RuntimeWarning: an error line, not a traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["bound", "--channel", "thermal", "--eta", "0.8", "--nb", "0.5",
                         "--ns", ns, "--bound", "QL"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith(f"error: QL is nan bits at thermal {{'eta': 0.8, 'nb': 0.5}}, ns={float(ns)}")


@pytest.mark.parametrize("kind,bits", [("QU2", "nan"), ("PU2", "nan"), ("PL", "-inf")])
def test_cli_overflowing_array_kinds_end_in_the_error_line(capsys, kind, bits):
    # these run numpy arrays, which warn on their way to nan or -inf: the CLI
    # evaluates with the overflow and invalid warnings off
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["bound", "--channel", "thermal", "--eta", "0.8", "--nb", "0.5",
                         "--ns", "1e200", "--bound", kind])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {kind} is {bits} bits at thermal {{'eta': 0.8, 'nb': 0.5}}, ns=1e+200")


def test_cli_overflowing_sweep_cell_does_not_warn(tmp_path, capsys):
    spec = tmp_path / "big.cfg"
    spec.write_text("channel = thermal\neta = 0.8\nnb = 0.5\nsweep = ns\nstart = 1e100\n"
                    "stop = 1e200\npoints = 3\nscale = log\nbounds = QL,QU2,PL\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "big.csv")])
    assert (code, capsys.readouterr().err) == (0, "")
    # the ns = 1e200 cells are DomainErrors, which a sweep leaves blank
    assert (tmp_path / "big.csv").read_text().splitlines()[-1] == "1e+200,,,"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_cell_leaves_its_column_alone():
    column = bnd.evaluate_columns(("QL",), [chn.thermal(0.8, 0.5)] * 3, [1.0, 1e200, 10.0])[0]
    assert isinstance(column[1], DomainError)
    assert [c.raw for c in (column[0], column[2])] == \
        [bnd.q_lower_thermal(0.8, 0.5, ns).raw for ns in (1.0, 10.0)]


def test_infinite_bound_stays_infinite():
    # a lossless channel has an unbounded capacity: +inf is the bound
    assert bnd.comparison_bounds(chn.thermal(1.0, 0.5), "PLOB_thermal") == math.inf
    assert bnd.comparison_bounds(chn.amplifier(1.0, 0.5), "PLOB_amp") == math.inf


def _plob_amp_in_logs(g, nb):
    return (nb + 1.0) * math.log2(g) - math.log2(g - 1.0) - gc.g_entropy(nb)


@pytest.mark.parametrize("nb", [645.0, 646.0, 700.0])
def test_plob_amp_where_the_power_overflows(nb):
    # 3 ** 646 is the last power of 3 below the float limit
    got = bnd.comparison_bounds(chn.amplifier(3.0, nb), "PLOB_amp")
    assert got == pytest.approx(_plob_amp_in_logs(3.0, nb), rel=1e-12)


def test_plob_amp_below_the_overflow_is_unchanged():
    want = float(np.log2(1.0 / (3.0 - 1.0)) + 601.0 * np.log2(3.0)
                 - gc._g_nats(np.asarray(600.0)) / gc.LN2)
    assert bnd.comparison_bounds(chn.amplifier(3.0, 600.0), "PLOB_amp") == want


def test_cli_plob_amp_where_the_power_overflows(capsys):
    code = cli.main(["bound", "--channel", "amplifier", "--g", "3", "--nb", "700",
                     "--bound", "PLOB"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert json.loads(out)["value_bits"] == pytest.approx(1099.1637768467, rel=1e-12)


def _plob_thermal_in_logs(eta, nb):
    return -math.log2(1.0 - eta) - nb * math.log2(eta) - gc.g_entropy(nb)


@pytest.mark.parametrize("eta, nb", [(0.01, 200.0), (1e-300, 2.0)])
def test_plob_thermal_where_the_power_underflows(eta, nb):
    # 0.01 ** 200 and (1e-300) ** 2 are 0 in floats; PLOB is finite there
    got = bnd.comparison_bounds(chn.thermal(eta, nb), "PLOB_thermal")
    assert got == pytest.approx(_plob_thermal_in_logs(eta, nb), rel=1e-12)


def test_plob_thermal_above_the_underflow_is_unchanged():
    want = float(np.log2(1.0 / (1.0 - 0.01)) - 150.0 * np.log2(0.01)
                 - gc._g_nats(np.asarray(150.0)) / gc.LN2)
    assert bnd.comparison_bounds(chn.thermal(0.01, 150.0), "PLOB_thermal") == want


def test_cli_plob_thermal_where_the_power_underflows(capsys):
    code = cli.main(["bound", "--channel", "thermal", "--eta", "0.01", "--nb", "200",
                     "--bound", "PLOB"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert json.loads(out)["value_bits"] == pytest.approx(1319.6955855526, rel=1e-12)


def test_huge_gain_builds_the_channel():
    ch = chn.amplifier(1e200, 0.0)
    assert (ch.tau, ch.nu) == (1e200, 1e200)
