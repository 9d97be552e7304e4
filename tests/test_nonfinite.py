"""NaN and +-inf inputs raise a named error; none comes back as a number.

Every public bound, every channel constructor, the entropy helpers, `kappa`
and the `bound` command are fed a non-finite value in each numeric argument
in turn.  Finite inputs whose arithmetic overflows either give a finite
bound or raise a named error too.
"""

import json
import math
import warnings

import numpy as np
import pytest

from bosonic_bounds import bounds as bnd
from bosonic_bounds import channels as chn
from bosonic_bounds import cli
from bosonic_bounds import gaussian_core as gc
from bosonic_bounds.errors import DomainError, InvalidChannelError

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
]


@pytest.mark.parametrize("make", [str, lambda v: None, complex], ids=["str", "None", "complex"])
@pytest.mark.parametrize("call,valid", [(c, v) for _, c, v in NON_REAL_CALLS],
                         ids=[n for n, _, _ in NON_REAL_CALLS])
def test_non_real_parameter_is_a_domain_error(call, valid, make):
    call(valid)
    with pytest.raises(DomainError, match="takes real numbers, got "):
        call(make(valid))


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
    column = bnd.evaluate_column("QL", [chn.thermal(0.8, 0.5)] * 3, [1.0, 1e200, 10.0])
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
