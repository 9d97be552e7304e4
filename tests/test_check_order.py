"""Which error wins when an input has two faults.

A negative ns is reported before an unsupported channel kind and before an
infeasible regime, except by the lower bounds QL and PL, whose channel kind
is checked first.  An infeasible regime is reported before a bad fixed eps'.
"""

import pytest

from bosonic_bounds import bounds as bnd
from bosonic_bounds import channels as chn
from bosonic_bounds import cli
from bosonic_bounds.errors import ChannelKindError, DomainError, InfeasibleBoundError

THERMAL_LOW = chn.thermal(0.3, 0.5)  # eta < 1/2 and eta <= (1-eta)*nb
AMP = chn.amplifier(1.5, 0.1)
AMP_EB = chn.amplifier(3.0, 1.0)  # (G-1)*NB >= 1
ADD = chn.additive_noise(0.3)
ADD_EB = chn.additive_noise(1.5)
RAW = chn.raw_channel(0.5, 1.0)

# (name, call, error)
LIBRARY = [
    ("q_u1.raw", lambda: bnd.q_u1(RAW, -1.0), DomainError),
    ("q_u4.amplifier", lambda: bnd.q_u4(AMP, -1.0), DomainError),
    ("q_u2.additive", lambda: bnd.q_u2(ADD, -1.0), DomainError),
    ("q_u3.additive", lambda: bnd.q_u3(ADD, -1.0), DomainError),
    ("p_bounds.PU1.raw", lambda: bnd.p_bounds(RAW, -1.0, "PU1"), DomainError),
    ("p_bounds.PU2.additive", lambda: bnd.p_bounds(ADD, -1.0, "PU2"), DomainError),
    ("p_bounds.PU3.additive", lambda: bnd.p_bounds(ADD, -1.0, "PU3"), DomainError),
    ("p_bounds.unknown", lambda: bnd.p_bounds(ADD, -1.0, "PU9"), DomainError),
    # negative ns in an infeasible regime
    ("q_u1.thermal_low", lambda: bnd.q_u1(THERMAL_LOW, -1.0), DomainError),
    ("q_u1.amplifier_eb", lambda: bnd.q_u1(AMP_EB, -1.0), DomainError),
    ("q_u1.additive_eb", lambda: bnd.q_u1(ADD_EB, -1.0), DomainError),
    ("q_u4.thermal_low", lambda: bnd.q_u4(THERMAL_LOW, -1.0), DomainError),
    ("q_u2.thermal_low", lambda: bnd.q_u2(THERMAL_LOW, -1.0), DomainError),
    ("q_u2.amplifier_eb", lambda: bnd.q_u2(AMP_EB, -1.0), DomainError),
    ("q_u3.thermal_low", lambda: bnd.q_u3(THERMAL_LOW, -1.0), DomainError),
    ("p_bounds.PU1.thermal_low", lambda: bnd.p_bounds(THERMAL_LOW, -1.0, "PU1"), DomainError),
    # comparison bounds take no ns: the channel kind, then the regime
    ("comparison_bounds.RMG.amplifier", lambda: bnd.comparison_bounds(AMP, "RMG"),
     ChannelKindError),
    ("comparison_bounds.PLOB_addnoise.thermal",
     lambda: bnd.comparison_bounds(THERMAL_LOW, "PLOB_addnoise"), ChannelKindError),
    ("comparison_bounds.PLOB_addnoise.eb",
     lambda: bnd.comparison_bounds(ADD_EB, "PLOB_addnoise"), InfeasibleBoundError),
    ("comparison_bounds.unknown", lambda: bnd.comparison_bounds(ADD, "PLOB"), DomainError),
    ("q_u1_unconstrained.raw", lambda: bnd.q_u1_unconstrained(RAW), ChannelKindError),
    ("q_u4_unconstrained.amplifier", lambda: bnd.q_u4_unconstrained(AMP), ChannelKindError),
    # an infeasible regime or an unsupported kind wins over a bad eps'
    ("q_u2.thermal_low.eps_prime", lambda: bnd.q_u2(THERMAL_LOW, 1.0, 5.0),
     InfeasibleBoundError),
    ("q_u3.additive.eps_prime", lambda: bnd.q_u3(ADD, 1.0, 5.0), ChannelKindError),
]


@pytest.mark.parametrize("name,call,error", LIBRARY, ids=[c[0] for c in LIBRARY])
def test_library_error_class(name, call, error):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error


KIND_ERROR = "is not defined for"
NS_ERROR = "input mean photon number must be >= 0"

# (bound, channel arguments, what stderr reports)
CLI = [
    ("QL", ["--channel", "additive", "--nbar", "0.3"], KIND_ERROR),
    ("PL", ["--channel", "amplifier", "--g", "1.5"], KIND_ERROR),
    ("PL", ["--channel", "additive", "--nbar", "0.3"], KIND_ERROR),
    ("RMG", ["--channel", "amplifier", "--g", "1.5"], NS_ERROR),
    ("QU4", ["--channel", "amplifier", "--g", "1.5"], NS_ERROR),
    ("QU2", ["--channel", "additive", "--nbar", "0.3"], NS_ERROR),
    ("PU3", ["--channel", "additive", "--nbar", "0.3"], NS_ERROR),
    # negative ns in an infeasible regime
    ("QU1", ["--channel", "thermal", "--eta", "0.3", "--nb", "0.5"], NS_ERROR),
    ("QU2", ["--channel", "thermal", "--eta", "0.3", "--nb", "0.5"], NS_ERROR),
    ("RMG", ["--channel", "thermal", "--eta", "0.3", "--nb", "0.5"], NS_ERROR),
    ("QL", ["--channel", "thermal", "--eta", "0.3", "--nb", "0.5"], NS_ERROR),
]


@pytest.mark.parametrize("kind,channel,reported", CLI,
                         ids=[f"{k}-{c[1]}-{c[3]}" for k, c, _ in CLI])
def test_bound_command_error(capsys, kind, channel, reported):
    code = cli.main(["bound", *channel, "--ns", "-1", "--bound", kind])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert reported in err
