"""NaN and +-inf inputs raise a named error; none comes back as a number.

Every public bound, every channel constructor and the `bound` command are
fed a non-finite value in each numeric argument in turn.
"""

import math

import pytest

from bosonic_bounds import bounds as bnd
from bosonic_bounds import channels as chn
from bosonic_bounds import cli
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
    ("coherent_info_thermal.eta", lambda x: bnd.coherent_info_thermal(x, 0.5, 1.0)),
    ("coherent_info_thermal.nb", lambda x: bnd.coherent_info_thermal(0.9, x, 1.0)),
    ("coherent_info_thermal.ns", lambda x: bnd.coherent_info_thermal(0.9, 0.5, x)),
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
