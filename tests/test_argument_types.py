"""An argument of the wrong type is the entry's named error, never a bare
AttributeError or TypeError.

A channel argument that is not one `PhaseInsensitiveChannel` (None, a str,
a list of channels) is a ChannelKindError, by the rule of
`channels._channel`; a bound, channel, suite or beamsplitter name that is
not a str is the entry's unknown-name error.  Mode indices that are not a
sequence, and a penalty argument that is not a `PenaltyParams`, are DomainErrors.
"""

import numpy as np
import pytest

from bosonic_bounds import bounds as bnd
from bosonic_bounds import channels as chn
from bosonic_bounds import gaussian_core as gc
from bosonic_bounds import verify as vfy
from bosonic_bounds.errors import ChannelKindError, DomainError

TH = chn.thermal(0.8, 0.5)

# each entry with its channel argument left open
CHANNEL_CALLS = {
    "q_u1": lambda ch: bnd.q_u1(ch, 1.0),
    "q_u2": lambda ch: bnd.q_u2(ch, 1.0),
    "evaluate": lambda ch: bnd.evaluate("QU1", ch, 1.0),
    "evaluate_columns": lambda ch: bnd.evaluate_columns(("QU1",), [ch], [1.0]),
    "q_u1_unconstrained": lambda ch: bnd.q_u1_unconstrained(ch),
    "comparison_bounds": lambda ch: bnd.comparison_bounds(ch, "RMG"),
    "p_bounds": lambda ch: bnd.p_bounds(ch, 1.0, "PU1"),
    "gaussian_c_distance": lambda ch: bnd.gaussian_c_distance(ch, TH, 1.0),
    "gaussian_c_distance.b": lambda ch: bnd.gaussian_c_distance(TH, ch, 1.0),
    "epsilon_degradable": lambda ch: chn.epsilon_degradable(ch),
    "is_entanglement_breaking": lambda ch: chn.is_entanglement_breaking(ch),
    "decompose_loss_then_amp": lambda ch: chn.decompose_loss_then_amp(ch),
    "decompose_amp_then_loss": lambda ch: chn.decompose_amp_then_loss(ch),
    "compose_channels": lambda ch: chn.compose_channels(ch, TH),
    "compose_channels.second": lambda ch: chn.compose_channels(TH, ch),
    "degrading_dilation_cov": lambda ch: chn.degrading_dilation_cov(ch, np.eye(2)),
    "simulating_channel_cov": lambda ch: chn.simulating_channel_cov(ch, np.eye(2)),
    "degrading_simulation_check": lambda ch: chn.degrading_simulation_check(ch, np.eye(2)),
    "ud_oracle": lambda ch: vfy.ud_oracle(ch, np.eye(2)),
    "coherent_info_oracle": lambda ch: vfy.coherent_info_oracle(ch, 1.0),
}


@pytest.mark.parametrize("entry", CHANNEL_CALLS)
@pytest.mark.parametrize("ch", [None, "x", [TH, TH]], ids=["None", "str", "list"])
def test_non_channel_is_a_channel_kind_error(entry, ch):
    with pytest.raises(ChannelKindError, match=r"takes one phase-insensitive channel, got "):
        CHANNEL_CALLS[entry](ch)


@pytest.mark.parametrize("call,error,message", [
    (lambda: bnd.evaluate(["QU1"], TH, 1.0), DomainError, "unknown bound kind"),
    (lambda: bnd.evaluate_columns((["QU1"],), [TH], [1.0]), DomainError, "unknown bound kind"),
    (lambda: bnd.comparison_bounds(TH, ["RMG"]), DomainError, "unknown comparison bound"),
    (lambda: chn.make_channel(["thermal"]), ChannelKindError, "unknown channel kind"),
    (lambda: vfy.run_suite(["all"]), DomainError, "unknown suite"),
    (lambda: gc.beamsplitter_symplectic(["B"], 0.5), DomainError, "unknown beamsplitter kind"),
], ids=["evaluate", "evaluate_columns", "comparison_bounds", "make_channel", "run_suite",
        "beamsplitter_symplectic"])
def test_name_that_is_not_a_str_is_unknown(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("call,message", [
    (lambda: gc.reduce_state(gc.tms_state(1.0), 0), "mode indices 0 must be a sequence of ints"),
    (lambda: TH.apply(gc.tms_state(1.0), modes=1), "mode indices 1 must be a sequence of ints"),
    (lambda: bnd.penalty(None), "penalty takes a PenaltyParams"),
    (lambda: bnd.penalty((0.1, 0.5, 1.0)), "penalty takes a PenaltyParams"),
], ids=["reduce_state_int_modes", "apply_int_modes", "penalty_None", "penalty_tuple"])
def test_argument_of_the_wrong_type_is_a_domain_error(call, message):
    with pytest.raises(DomainError, match=message):
        call()
