"""An argument of the wrong type is the entry's named error, never a bare
AttributeError or TypeError.

A channel argument that is not one `PhaseInsensitiveChannel` (None, a str,
a list of channels) is a ChannelKindError, by the rule of
`channels._channel`; a bound, channel, suite or beamsplitter name that is
not a str is the entry's unknown-name error.  Mode indices that are not a
sequence, a mode count that is not a positive int, a penalty argument that is
not a `PenaltyParams`, a sampler's rng that is not a numpy Generator and an
`evaluate_columns` argument that is not a sequence are DomainErrors.  An input
covariance that is not a (..., 2k, 2k) stack of covariance matrices is an
InvalidStateError.
"""

import numpy as np
import pytest

from bosonic_bounds import bounds as bnd
from bosonic_bounds import channels as chn
from bosonic_bounds import gaussian_core as gc
from bosonic_bounds import verify as vfy
from bosonic_bounds.errors import ChannelKindError, DomainError, InvalidStateError

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
    (lambda: gc.embed_matrix(np.eye(2), 0, 2), "mode indices 0 must be a sequence of ints"),
    (lambda: gc._apply(np.eye(2), np.zeros((2, 2)), np.eye(4), np.zeros(4), 1),
     "mode indices 1 must be a sequence of ints"),
    (lambda: bnd.penalty(None), "penalty takes a PenaltyParams"),
    (lambda: bnd.penalty((0.1, 0.5, 1.0)), "penalty takes a PenaltyParams"),
    (lambda: gc.omega(-1), "omega takes a positive int mode count, got -1"),
    (lambda: gc.omega(1.5), "omega takes a positive int mode count, got 1.5"),
    (lambda: gc.omega(None), "omega takes a positive int mode count, got None"),
    (lambda: gc.omega(True), "omega takes a positive int mode count, got True"),
    (lambda: gc.embed_matrix(None, (0,), 2), "embed_matrix takes real numbers, got M=None"),
    (lambda: gc.embed_matrix(np.eye(2), (0,), None), "mode count None must be an int"),
    (lambda: gc.embed_matrix(np.eye(2), (0,), 2, "x"), "embed_matrix takes real numbers, got diag='x'"),
    (lambda: gc.omega(10 ** 400), "omega takes a positive int mode count, got 1000"),
    (lambda: gc.embed_matrix(np.eye(2), (0,), 10 ** 400), "mode count 1000.* must be an int from 0 to "),
    (lambda: gc.omega(gc._MAX_MODES + 1), f"got {gc._MAX_MODES + 1}; numpy indexes at most {gc._MAX_MODES}"),
    (lambda: vfy.random_single_mode_cov(1.0, None), "take a numpy Generator as rng, got None"),
    (lambda: vfy.random_single_mode_cov(1.0, 7), "take a numpy Generator as rng, got 7"),
    (lambda: vfy.random_valid_qblock(None), "take a numpy Generator as rng, got None"),
    (lambda: vfy.random_valid_qblock(7), "take a numpy Generator as rng, got 7"),
], ids=["embed_matrix_int_modes", "apply_int_modes", "penalty_None", "penalty_tuple", "omega_negative",
        "omega_fractional", "omega_None", "omega_bool", "embed_matrix_M_None", "embed_matrix_total_None",
        "embed_matrix_diag_str", "omega_huge", "embed_matrix_total_huge", "omega_past_intp",
        "random_single_mode_cov_rng_None", "random_single_mode_cov_rng_int",
        "random_valid_qblock_rng_None", "random_valid_qblock_rng_int"])
def test_argument_of_the_wrong_type_is_a_domain_error(call, message):
    with pytest.raises(DomainError, match=message):
        call()


@pytest.mark.parametrize("arg", ["kinds", "channels", "ns_values"])
@pytest.mark.parametrize("value", [None, TH], ids=["None", "channel"])
def test_evaluate_columns_argument_that_is_no_sequence_is_named(arg, value):
    args = {"kinds": ("QU1",), "channels": [TH], "ns_values": [1.0], arg: value}
    with pytest.raises(DomainError, match=f"evaluate_columns takes a sequence of {arg}, got "):
        bnd.evaluate_columns(**args)


INPUT_COV_CALLS = {
    "degrading_dilation_cov": lambda m: chn.degrading_dilation_cov(TH, m),
    "simulating_channel_cov": lambda m: chn.simulating_channel_cov(TH, m),
    "ud_oracle": lambda m: vfy.ud_oracle(TH, m),
}


@pytest.mark.parametrize("entry", INPUT_COV_CALLS)
@pytest.mark.parametrize("cov", [np.eye(3), np.ones((2, 3)), 1.0, np.zeros((0, 0))],
                         ids=["eye3", "ones2x3", "scalar", "empty"])
def test_input_covariance_of_no_mode_stack_shape_is_an_invalid_state(entry, cov):
    with pytest.raises(InvalidStateError, match=rf"^{entry} takes input covariances \(\.\.\., 2k, 2k\)"):
        INPUT_COV_CALLS[entry](cov)


@pytest.mark.parametrize("entry", INPUT_COV_CALLS)
@pytest.mark.parametrize("cov,message", [
    (-np.eye(2), "not positive definite"),
    (0.5 * np.eye(2), r"min symplectic eigenvalue 0\.5 < 0\.999999999"),
    (np.stack([3.0 * np.eye(2), 0.5 * np.eye(2)]), r"min symplectic eigenvalue 0\.5 < "),
], ids=["negative", "below_vacuum", "stack_below_vacuum"])
def test_input_matrix_that_is_no_covariance_is_an_invalid_state(entry, cov, message):
    # a negative matrix gave a dilation covariance, and 0.5 I a U_D of -0.539 bits
    with pytest.raises(InvalidStateError, match=message):
        INPUT_COV_CALLS[entry](cov)


def test_ud_oracle_takes_single_mode_inputs_only():
    # a two-mode input read its reference mode R as the channel output B
    with pytest.raises(InvalidStateError, match=r"k = 1, got shape \(4, 4\)"):
        vfy.ud_oracle(TH, np.eye(4))
